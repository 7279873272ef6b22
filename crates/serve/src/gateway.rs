//! The concurrent serving front end: [`Gateway`].
//!
//! One dispatcher thread per tenant owns that tenant's [`Session`] and
//! drains a bounded submission queue. Batching is self-clocked: each time
//! the dispatcher wakes it runs the compatible requests queued at that
//! moment (up to `max_batch` samples) as one [`Session::run_gather`]
//! call, and demultiplexes per-slot results back to each caller's
//! [`ResponseHandle`]. A request reaching an idle tenant runs at once;
//! requests arriving while a batch runs form the next batch, so batch
//! size follows load with no timer. Samples are independently
//! seeded by the core, so coalescing can never change a result: every
//! per-request response is bit-identical to serving that request alone on
//! a bare session.
//!
//! The threading idiom is the same parked epoch/condvar discipline as
//! `spikestream`'s worker pool: submitters park on `space` when a queue
//! is full, the dispatcher parks on `work` when its queue is empty, and
//! all cross-thread signalling runs through those two condvars — no
//! async runtime, no channels.

use std::any::Any;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use spikestream::{
    attribute_shards, InferenceReport, LayerSample, Plan, Request, ResultSink, Session,
    SessionStatsHandle, MAX_SHARDS,
};

use crate::registry::{PlanRegistry, VersionedPlan};
use crate::stats::{Counters, GatewayStats, TenantStats};
use crate::{GatewayConfig, ServeError};

/// Per-request serving options, mirroring the [`Request`] knobs a bare
/// session caller would set. Requests are coalescible into one batch only
/// if their `timesteps` agree (shard attribution is a pure per-request
/// fold over cycle totals, so differing `shards` never split a batch).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubmitOptions {
    /// Temporal-pipeline override, as in [`Request::timesteps`].
    pub timesteps: Option<usize>,
    /// Attribute this request to a simulated shard fleet, as in
    /// [`Request::shards`]; the [`ShardSummary`](spikestream::ShardSummary)
    /// lands in [`GatewayResponse::report`]. Submissions above
    /// [`MAX_SHARDS`] fail with [`ServeError::Rejected`].
    pub shards: Option<usize>,
}

impl SubmitOptions {
    /// Override the temporal timestep count.
    pub fn with_timesteps(mut self, timesteps: usize) -> Self {
        self.timesteps = Some(timesteps.max(1));
        self
    }

    /// Attribute the request to `shards` simulated cluster shards.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards.max(1));
        self
    }
}

type ResponseSlot = Option<Result<GatewayResponse, ServeError>>;

/// The rendezvous cell a dispatcher fulfills and a client waits on.
#[derive(Default)]
struct ResponseCell {
    slot: Mutex<ResponseSlot>,
    ready: Condvar,
}

impl ResponseCell {
    fn fulfill(&self, result: Result<GatewayResponse, ServeError>) {
        *self.slot.lock().expect("response cell poisoned") = Some(result);
        self.ready.notify_all();
    }
}

/// A claim on one submitted request's eventual result (see
/// [`Gateway::submit`]).
pub struct ResponseHandle {
    cell: Arc<ResponseCell>,
}

impl ResponseHandle {
    /// Block until the request completes, consuming the handle.
    pub fn wait(self) -> Result<GatewayResponse, ServeError> {
        let mut slot = self.cell.slot.lock().expect("response cell poisoned");
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.cell.ready.wait(slot).expect("response cell poisoned");
        }
    }

    /// Whether the result has already arrived ([`ResponseHandle::wait`]
    /// would not block).
    pub fn is_ready(&self) -> bool {
        self.cell.slot.lock().expect("response cell poisoned").is_some()
    }
}

/// One completed request: the raw per-sample measurements plus everything
/// needed to fold them into the exact [`InferenceReport`] a bare
/// [`Session`] would have produced.
///
/// The fold is deferred to [`GatewayResponse::report`] so the dispatcher's
/// demultiplex step stays a plain slice copy — callers that only need raw
/// layer samples ([`GatewayResponse::layers`]) never pay for a report.
pub struct GatewayResponse {
    plan: Arc<VersionedPlan>,
    opts: SubmitOptions,
    samples: usize,
    layers: Vec<LayerSample>,
    cycles: Vec<f64>,
    batch_samples: usize,
    batch_requests: usize,
}

impl GatewayResponse {
    /// The plan version this request was evaluated under.
    pub fn plan_version(&self) -> u64 {
        self.plan.version
    }

    /// Number of samples this request asked for.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Raw per-layer measurements, sample-major then step-major — the
    /// exact stream a bare session would have delivered to a
    /// [`ResultSink`].
    pub fn layers(&self) -> &[LayerSample] {
        &self.layers
    }

    /// Per-sample cycle totals, in request order.
    pub fn cycles(&self) -> &[f64] {
        &self.cycles
    }

    /// Total samples in the coalesced batch this request rode in.
    pub fn batch_samples(&self) -> usize {
        self.batch_samples
    }

    /// Number of requests coalesced into that batch.
    pub fn batch_requests(&self) -> usize {
        self.batch_requests
    }

    /// Fold this request's samples into the [`InferenceReport`] a bare
    /// `Session::infer` over the same samples and options would return —
    /// byte-identical, including the deterministic shard attribution.
    pub fn report(&self) -> InferenceReport {
        let mut request = Request::batch(self.samples);
        if let Some(timesteps) = self.opts.timesteps {
            request = request.with_timesteps(timesteps);
        }
        let mut report = self.plan.plan.fold_report(&request, &self.layers, self.samples);
        if let Some(shards) = self.opts.shards {
            report.shards = Some(attribute_shards(&self.cycles, shards));
        }
        report
    }
}

/// One queued request awaiting dispatch.
struct Pending {
    samples: Vec<usize>,
    opts: SubmitOptions,
    cell: Arc<ResponseCell>,
}

/// Mutable per-tenant state, guarded by [`Tenant::state`].
#[derive(Default)]
struct TenantState {
    queue: VecDeque<Pending>,
    paused: bool,
    shutdown: bool,
    dispatcher_alive: bool,
    poisoned: Option<String>,
    serving_version: u64,
    session_stats: Option<SessionStatsHandle>,
}

/// One tenant: a bounded queue plus the two condvars its dispatcher and
/// submitters park on.
struct Tenant {
    name: String,
    state: Mutex<TenantState>,
    /// Dispatcher parks here while the queue is empty (or paused);
    /// submitters and [`Gateway::publish`]/[`Gateway::resume`] signal it.
    work: Condvar,
    /// Submitters park here while the queue is at capacity; the
    /// dispatcher signals it once per batch it takes off the queue.
    space: Condvar,
}

impl Tenant {
    fn new(name: &str) -> Self {
        Tenant {
            name: name.to_string(),
            state: Mutex::new(TenantState::default()),
            work: Condvar::new(),
            space: Condvar::new(),
        }
    }
}

/// State shared between the gateway handle and every dispatcher thread.
struct Shared {
    config: GatewayConfig,
    registry: Arc<PlanRegistry>,
    tenants: Mutex<BTreeMap<String, Arc<Tenant>>>,
    counters: Counters,
    closed: AtomicBool,
}

impl Shared {
    fn tenant(&self, name: &str) -> Result<Arc<Tenant>, ServeError> {
        self.tenants
            .lock()
            .expect("tenant map poisoned")
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownTenant(name.to_string()))
    }
}

/// The serving gateway: a [`PlanRegistry`] of named, versioned tenants,
/// each served by its own dispatcher thread that dynamically micro-batches
/// queued requests (see the [crate docs](crate)).
///
/// Dropping the gateway shuts it down: queues drain, dispatchers join.
pub struct Gateway {
    shared: Arc<Shared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Gateway {
    /// An empty gateway; add tenants with [`Gateway::publish`].
    pub fn new(config: GatewayConfig) -> Self {
        Gateway {
            shared: Arc::new(Shared {
                config,
                registry: Arc::new(PlanRegistry::new()),
                tenants: Mutex::new(BTreeMap::new()),
                counters: Counters::default(),
                closed: AtomicBool::new(false),
            }),
            handles: Mutex::new(Vec::new()),
        }
    }

    /// The underlying plan registry (for version lookups; publish through
    /// [`Gateway::publish`] so dispatcher lifecycle stays managed).
    pub fn registry(&self) -> Arc<PlanRegistry> {
        Arc::clone(&self.shared.registry)
    }

    /// Install `plan` as tenant `tenant`'s current generation and return
    /// the new version number (1 on first publish).
    ///
    /// Hot swap: a republish over a live tenant never drops queued
    /// requests. The dispatcher finishes its in-flight batch on the old
    /// plan (those results carry the old version), then reopens its
    /// session on the new generation — everything still queued, and every
    /// later submission, runs on the new version. Publishing also clears a
    /// poisoned tenant (see [`ServeError::Poisoned`]) by restarting its
    /// dispatcher on the fresh plan.
    pub fn publish(&self, tenant: &str, plan: Plan) -> Result<u64, ServeError> {
        if self.shared.closed.load(Ordering::Acquire) {
            return Err(ServeError::Shutdown);
        }
        let version = self.shared.registry.publish(tenant, plan);
        if version > 1 {
            self.shared.counters.on_hot_swap();
        }
        let tenant = {
            let mut tenants = self.shared.tenants.lock().expect("tenant map poisoned");
            Arc::clone(
                tenants.entry(tenant.to_string()).or_insert_with(|| Arc::new(Tenant::new(tenant))),
            )
        };
        let mut state = tenant.state.lock().expect("tenant state poisoned");
        state.poisoned = None;
        if state.dispatcher_alive {
            // Wake the parked dispatcher so it notices the version bump at
            // its next batch boundary.
            tenant.work.notify_all();
        } else {
            state.dispatcher_alive = true;
            let shared = Arc::clone(&self.shared);
            let worker = Arc::clone(&tenant);
            let handle = std::thread::Builder::new()
                .name(format!("serve-{}", tenant.name))
                .spawn(move || run_dispatcher(&shared, &worker))
                .expect("failed to spawn gateway dispatcher thread");
            self.handles.lock().expect("handle list poisoned").push(handle);
        }
        Ok(version)
    }

    /// Submit `samples` to tenant `tenant` with default options. Fails
    /// fast with [`ServeError::Full`] when the tenant queue is at
    /// capacity.
    pub fn submit(&self, tenant: &str, samples: &[usize]) -> Result<ResponseHandle, ServeError> {
        self.enqueue(tenant, samples, SubmitOptions::default(), None)
    }

    /// [`Gateway::submit`] with explicit per-request options.
    pub fn submit_with(
        &self,
        tenant: &str,
        samples: &[usize],
        opts: SubmitOptions,
    ) -> Result<ResponseHandle, ServeError> {
        self.enqueue(tenant, samples, opts, None)
    }

    /// [`Gateway::submit_with`], but park up to `timeout` for queue space
    /// instead of failing fast; [`ServeError::Timeout`] if none opens up.
    pub fn submit_timeout(
        &self,
        tenant: &str,
        samples: &[usize],
        opts: SubmitOptions,
        timeout: Duration,
    ) -> Result<ResponseHandle, ServeError> {
        self.enqueue(tenant, samples, opts, Some(timeout))
    }

    fn enqueue(
        &self,
        name: &str,
        samples: &[usize],
        opts: SubmitOptions,
        wait: Option<Duration>,
    ) -> Result<ResponseHandle, ServeError> {
        if samples.is_empty() {
            return Err(ServeError::EmptyRequest);
        }
        if let Some(shards) = opts.shards.filter(|&shards| shards > MAX_SHARDS) {
            return Err(ServeError::Rejected {
                reason: format!("shards = {shards} exceeds MAX_SHARDS ({MAX_SHARDS})"),
            });
        }
        if self.shared.closed.load(Ordering::Acquire) {
            return Err(ServeError::Shutdown);
        }
        let tenant = self.shared.tenant(name)?;
        let cap = self.shared.config.queue_cap.max(1);
        let deadline = wait.map(|timeout| Instant::now() + timeout);
        let mut state = tenant.state.lock().expect("tenant state poisoned");
        loop {
            if state.shutdown {
                return Err(ServeError::Shutdown);
            }
            if let Some(message) = &state.poisoned {
                return Err(ServeError::Poisoned(message.clone()));
            }
            if state.queue.len() < cap {
                break;
            }
            let Some(deadline) = deadline else {
                self.shared.counters.on_rejected_full();
                return Err(ServeError::Full { tenant: name.to_string(), cap });
            };
            let now = Instant::now();
            if now >= deadline {
                self.shared.counters.on_rejected_full();
                return Err(ServeError::Timeout { tenant: name.to_string() });
            }
            let (guard, _timed_out) =
                tenant.space.wait_timeout(state, deadline - now).expect("tenant state poisoned");
            state = guard;
        }
        let cell = Arc::new(ResponseCell::default());
        state.queue.push_back(Pending { samples: samples.to_vec(), opts, cell: Arc::clone(&cell) });
        self.shared.counters.on_submitted();
        tenant.work.notify_all();
        Ok(ResponseHandle { cell })
    }

    /// Hold tenant `tenant`'s dispatcher: submissions still queue (and
    /// still backpressure), nothing dispatches until
    /// [`Gateway::resume`]. Deterministic drivers (tests, benches, the
    /// demo CLI) use this to pin exact batch compositions.
    pub fn pause(&self, tenant: &str) -> Result<(), ServeError> {
        let tenant = self.shared.tenant(tenant)?;
        tenant.state.lock().expect("tenant state poisoned").paused = true;
        Ok(())
    }

    /// Release a paused tenant's dispatcher.
    pub fn resume(&self, tenant: &str) -> Result<(), ServeError> {
        let tenant = self.shared.tenant(tenant)?;
        tenant.state.lock().expect("tenant state poisoned").paused = false;
        tenant.work.notify_all();
        Ok(())
    }

    /// Snapshot the gateway counters (see [`GatewayStats`]): the global
    /// cells are relaxed atomic loads, and each tenant's entry takes that
    /// tenant's queue lock only for the length/flag reads — session
    /// counters come from the lock-free
    /// [`stats handle`](spikestream::Session::stats_handle) mirror.
    pub fn stats(&self) -> GatewayStats {
        let mut stats = self.shared.counters.snapshot();
        let tenants = self.shared.tenants.lock().expect("tenant map poisoned");
        for (name, tenant) in tenants.iter() {
            let state = tenant.state.lock().expect("tenant state poisoned");
            stats.tenants.push(TenantStats {
                name: name.clone(),
                version: self.shared.registry.version(name).unwrap_or(0),
                serving_version: state.serving_version,
                queue_depth: state.queue.len(),
                poisoned: state.poisoned.is_some(),
                session: state
                    .session_stats
                    .as_ref()
                    .map(SessionStatsHandle::snapshot)
                    .unwrap_or_default(),
            });
        }
        stats
    }

    /// Drain every tenant queue and join every dispatcher. Idempotent;
    /// also runs on drop. Later submissions and publishes fail with
    /// [`ServeError::Shutdown`].
    pub fn shutdown(&self) {
        self.shared.closed.store(true, Ordering::Release);
        {
            let tenants = self.shared.tenants.lock().expect("tenant map poisoned");
            for tenant in tenants.values() {
                let mut state = tenant.state.lock().expect("tenant state poisoned");
                state.shutdown = true;
                tenant.work.notify_all();
                tenant.space.notify_all();
            }
        }
        let handles: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.handles.lock().expect("handle list poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for Gateway {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for Gateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gateway")
            .field("config", &self.shared.config)
            .field("tenants", &self.shared.registry.names())
            .finish_non_exhaustive()
    }
}

/// The slot-addressed demultiplex sink of one coalesced batch: every
/// sample lands at its slot of one flat buffer, with per-slot cycle
/// totals recorded for per-request shard attribution.
struct FlatSink {
    units: usize,
    flat: Vec<LayerSample>,
    cycles: Vec<f64>,
}

impl ResultSink for FlatSink {
    fn on_sample(&mut self, _sample: usize, _layers: &[LayerSample]) {
        unreachable!("the gateway sink is slot-addressed");
    }

    fn on_slot(&mut self, slot: usize, _sample: usize, layers: &[LayerSample]) {
        let at = slot * self.units;
        debug_assert_eq!(layers.len(), self.units, "one LayerSample per layer per timestep");
        self.flat[at..at + self.units].copy_from_slice(layers);
        self.cycles[slot] = layers.iter().map(|l| l.cycles).sum();
    }
}

/// Why a dispatcher left its current plan generation.
enum EraExit {
    /// A newer version was published; reopen the session on it.
    Swap,
    /// The gateway is shutting down and the queue is drained.
    Shutdown,
    /// A batch panicked; the tenant is poisoned until the next publish.
    Poisoned,
}

/// Dispatcher thread body: serve plan generation after plan generation
/// until shutdown or poison.
fn run_dispatcher(shared: &Shared, tenant: &Tenant) {
    loop {
        let Some(era) = shared.registry.get(&tenant.name) else {
            tenant.state.lock().expect("tenant state poisoned").dispatcher_alive = false;
            return;
        };
        let plan = Arc::clone(&era.plan);
        let mut session = plan.open_session();
        {
            let mut state = tenant.state.lock().expect("tenant state poisoned");
            state.serving_version = era.version;
            state.session_stats = Some(session.stats_handle());
        }
        match serve_era(shared, tenant, &era, &mut session) {
            EraExit::Swap => continue,
            EraExit::Shutdown | EraExit::Poisoned => return,
        }
    }
}

/// Serve micro-batches on one plan generation until it is superseded, the
/// gateway shuts down, or a batch panics.
fn serve_era(
    shared: &Shared,
    tenant: &Tenant,
    era: &Arc<VersionedPlan>,
    session: &mut Session<'_>,
) -> EraExit {
    let max_batch = shared.config.max_batch.max(1);
    loop {
        let (batch, total) = {
            let mut state = tenant.state.lock().expect("tenant state poisoned");
            loop {
                if state.shutdown && state.queue.is_empty() {
                    state.dispatcher_alive = false;
                    return EraExit::Shutdown;
                }
                // Batch-boundary staleness check: a publish happened, so
                // hand back to `run_dispatcher` to reopen on the new
                // generation. Everything still queued runs on it.
                if shared.registry.version(&tenant.name) != Some(era.version) {
                    return EraExit::Swap;
                }
                if (!state.paused || state.shutdown) && !state.queue.is_empty() {
                    break;
                }
                state = tenant.work.wait(state).expect("tenant state poisoned");
            }

            // Self-clocked batching: take the queue head plus the compatible
            // FIFO prefix queued right now, and run it at once. Requests
            // that arrive while it runs form the next batch. FIFO
            // strictness: an incompatible request at the head closes the
            // batch rather than being overtaken by later compatible ones.
            let head = state.queue.pop_front().expect("queue is non-empty");
            let key = head.opts.timesteps;
            let mut count = head.samples.len();
            let mut batch = vec![head];
            while let Some(next) = state.queue.front() {
                if next.opts.timesteps != key || count + next.samples.len() > max_batch {
                    break;
                }
                let next = state.queue.pop_front().expect("queue is non-empty");
                count += next.samples.len();
                batch.push(next);
            }
            tenant.space.notify_all();
            (batch, count)
        };

        // Execute outside the queue lock: submitters keep queueing while
        // the batch runs.
        let gather: Vec<usize> =
            batch.iter().flat_map(|pending| pending.samples.iter().copied()).collect();
        let mut request = Request::batch(total);
        if let Some(timesteps) = batch[0].opts.timesteps {
            request = request.with_timesteps(timesteps);
        }
        let units = era.plan.network().len() * era.plan.effective_config(&request).timesteps();
        let mut sink = FlatSink {
            units,
            flat: vec![LayerSample::default(); total * units],
            cycles: vec![0.0; total],
        };
        let run =
            catch_unwind(AssertUnwindSafe(|| session.run_gather(&request, &gather, &mut sink)));
        match run {
            Ok(()) => {
                shared.counters.on_batch(batch.len(), total);
                let requests = batch.len();
                let mut at = 0usize;
                for pending in batch {
                    let n = pending.samples.len();
                    let response = GatewayResponse {
                        plan: Arc::clone(era),
                        opts: pending.opts,
                        samples: n,
                        layers: sink.flat[at * units..(at + n) * units].to_vec(),
                        cycles: sink.cycles[at..at + n].to_vec(),
                        batch_samples: total,
                        batch_requests: requests,
                    };
                    at += n;
                    shared.counters.on_completed();
                    pending.cell.fulfill(Ok(response));
                }
            }
            Err(payload) => {
                // Panic containment: fail this batch and everything queued
                // behind it, poison the tenant, and retire the dispatcher.
                // Other tenants' threads are untouched; the next publish
                // restarts this one on a fresh plan and session.
                let message = panic_message(payload.as_ref());
                shared.counters.on_panic();
                let error = ServeError::Poisoned(message.clone());
                for pending in batch {
                    pending.cell.fulfill(Err(error.clone()));
                }
                let mut state = tenant.state.lock().expect("tenant state poisoned");
                state.poisoned = Some(message);
                state.dispatcher_alive = false;
                while let Some(pending) = state.queue.pop_front() {
                    pending.cell.fulfill(Err(error.clone()));
                }
                tenant.space.notify_all();
                return EraExit::Poisoned;
            }
        }
    }
}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spikestream::{Engine, FpFormat, InferenceConfig, KernelVariant};

    fn plan(batch: usize) -> Plan {
        Engine::svgg11(1).compile(&InferenceConfig {
            batch,
            ..InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16)
        })
    }

    #[test]
    fn submit_routes_through_a_published_tenant() {
        let gateway = Gateway::new(GatewayConfig::default());
        assert_eq!(gateway.publish("svgg11", plan(4)), Ok(1));
        let handle = gateway.submit("svgg11", &[0, 1]).expect("submit");
        let response = handle.wait().expect("serve");
        assert_eq!(response.plan_version(), 1);
        assert_eq!(response.samples(), 2);
        assert_eq!(response.cycles().len(), 2);
        let report = response.report();
        assert_eq!(report.batch, 2);
        assert!(report.total_cycles() > 0.0);
        let stats = gateway.stats();
        assert_eq!((stats.submitted, stats.completed), (1, 1));
        assert_eq!(stats.tenants.len(), 1);
        assert_eq!(stats.tenants[0].name, "svgg11");
    }

    #[test]
    fn unknown_tenants_and_empty_requests_are_rejected() {
        let gateway = Gateway::new(GatewayConfig::default());
        assert_eq!(
            gateway.submit("nope", &[0]).err(),
            Some(ServeError::UnknownTenant("nope".to_string()))
        );
        gateway.publish("svgg11", plan(2)).expect("publish");
        assert_eq!(gateway.submit("svgg11", &[]).err(), Some(ServeError::EmptyRequest));
    }

    #[test]
    fn pause_coalesces_and_resume_drains() {
        let gateway = Gateway::new(GatewayConfig { max_batch: 8, queue_cap: 16 });
        gateway.publish("svgg11", plan(8)).expect("publish");
        gateway.pause("svgg11").expect("pause");
        let handles: Vec<ResponseHandle> =
            (0..4).map(|i| gateway.submit("svgg11", &[i]).expect("submit")).collect();
        gateway.resume("svgg11").expect("resume");
        for handle in handles {
            let response = handle.wait().expect("serve");
            assert_eq!(response.batch_samples(), 4);
            assert_eq!(response.batch_requests(), 4);
        }
        let stats = gateway.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.coalesced, 4);
        assert_eq!(stats.batch_hist[2], 1, "one batch of four samples");
    }

    #[test]
    fn shutdown_rejects_later_submissions() {
        let gateway = Gateway::new(GatewayConfig::default());
        gateway.publish("svgg11", plan(2)).expect("publish");
        gateway.shutdown();
        assert_eq!(gateway.submit("svgg11", &[0]).err(), Some(ServeError::Shutdown));
    }
}
