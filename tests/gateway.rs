//! Gateway serving semantics, pinned end to end.
//!
//! Five contracts from the serving-gateway design, each with its own
//! suite section:
//!
//! 1. **Byte-identity** — a request coalesced into a shared micro-batch
//!    produces a report bit-identical to running it alone on a bare
//!    [`Session`](spikestream::Session), and a full-batch gateway request
//!    reproduces the pre-redesign golden captures (`tests/golden/`)
//!    byte for byte.
//! 2. **Backpressure and admission** — the bounded per-tenant queue
//!    rejects (and times out) deterministically when full, and drains
//!    cleanly; a request with out-of-range options is refused at submit
//!    without harming its tenant.
//! 3. **Hot swap** — publishing a new plan version under live traffic
//!    drops nothing: in-flight batches complete on the old version,
//!    queued and later requests run on the new one, and every response
//!    names the version it ran under.
//! 4. **Panic containment** — a panicking batch poisons only its own
//!    tenant; other tenants keep serving, and a fresh publish revives
//!    the poisoned one.
//! 5. **Self-clocked batching** — under live (unpaused) traffic a
//!    request reaching an idle tenant runs alone at once, and requests
//!    arriving while a batch runs form the next batch together.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use spikestream::{
    Compiler, ExecutionBackend, FiringProfile, FpFormat, InferenceConfig, KernelVariant,
    LayerSample, Network, Plan, Request, SampleContext, Scenario, MAX_SAMPLE_STEPS, MAX_SHARDS,
};
use spikestream_serve::{Gateway, GatewayConfig, ServeError, SubmitOptions};

fn repo_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).to_path_buf()
}

fn golden(name: &str) -> String {
    let path = repo_dir().join("tests/golden").join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden capture {} must exist: {e}", path.display()))
        .trim_end()
        .to_string()
}

fn scenario(name: &str) -> Scenario {
    Scenario::from_file(&repo_dir().join("examples/scenarios").join(name)).expect("scenario parses")
}

/// A paced gateway: dispatch is held with `pause` while the driver
/// queues, so batch composition is exact, not timing-dependent.
fn paced_gateway(max_batch: usize) -> Gateway {
    Gateway::new(GatewayConfig { max_batch, queue_cap: 256 })
}

// ---------------------------------------------------------------------------
// 1. Byte-identity
// ---------------------------------------------------------------------------

#[test]
fn coalesced_requests_match_bare_session_runs_byte_for_byte() {
    let tiny = scenario("tiny.toml");
    let batch = tiny.config.batch;
    let gateway = paced_gateway(64);
    gateway.publish("tiny", tiny.compile().expect("compiles")).expect("publish");

    // Queue one single-sample request per batch sample — odd samples also
    // ask for a 2-shard fleet attribution (shard attribution is a pure
    // per-request fold, so mixed shard options share one batch).
    gateway.pause("tiny").expect("pause");
    let handles: Vec<_> = (0..batch)
        .map(|k| {
            let opts = if k % 2 == 1 {
                SubmitOptions::default().with_shards(2)
            } else {
                SubmitOptions::default()
            };
            gateway.submit_with("tiny", &[k], opts).expect("submit")
        })
        .collect();
    gateway.resume("tiny").expect("resume");

    let bare_plan = tiny.compile().expect("compiles");
    let mut bare = bare_plan.open_session();
    for (k, handle) in handles.into_iter().enumerate() {
        let response = handle.wait().expect("serve");
        assert_eq!(response.batch_requests(), batch, "all requests rode one micro-batch");
        assert_eq!(response.batch_samples(), batch);
        let mut request = Request::samples(k..k + 1);
        if k % 2 == 1 {
            request = request.with_shards(2);
        }
        assert_eq!(
            response.report().to_json(),
            bare.infer(&request).to_json(),
            "sample {k}: coalesced result must be bit-identical to a bare run"
        );
    }

    let stats = gateway.stats();
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.coalesced, batch as u64);
}

#[test]
fn full_batch_gateway_requests_reproduce_the_golden_captures() {
    let tiny = scenario("tiny.toml");
    let samples: Vec<usize> = (0..tiny.config.batch).collect();
    let gateway = paced_gateway(64);
    gateway.publish("tiny", tiny.compile().expect("compiles")).expect("publish");
    for shards in [1usize, 2, 4] {
        let handle = gateway
            .submit_with("tiny", &samples, SubmitOptions::default().with_shards(shards))
            .expect("submit");
        let report = handle.wait().expect("serve").report();
        assert_eq!(
            report.to_json(),
            golden(&format!("tiny_shards{shards}.json")),
            "tiny @ {shards} shards through the gateway"
        );
    }

    // The analytic S-VGG11 capture: `--batch 8 --shards 2`.
    let mut fp16 = scenario("svgg11_fp16.toml");
    fp16.config.batch = 8;
    gateway.publish("svgg11", fp16.compile().expect("compiles")).expect("publish");
    let handle = gateway
        .submit_with("svgg11", &[0, 1, 2, 3, 4, 5, 6, 7], SubmitOptions::default().with_shards(2))
        .expect("submit");
    assert_eq!(
        handle.wait().expect("serve").report().to_json(),
        golden("svgg11_analytic_shards2.json"),
        "svgg11 fp16 through the gateway"
    );

    // The temporal analytic capture: `--batch 4 --timesteps 3 --shards 2`.
    let mut temporal = scenario("svgg11_fp16.toml");
    temporal.config.batch = 4;
    temporal.config = temporal.config.temporal_steps(3);
    gateway.publish("svgg11-t3", temporal.compile().expect("compiles")).expect("publish");
    let handle = gateway
        .submit_with("svgg11-t3", &[0, 1, 2, 3], SubmitOptions::default().with_shards(2))
        .expect("submit");
    assert_eq!(
        handle.wait().expect("serve").report().to_json(),
        golden("svgg11_analytic_t3_shards2.json"),
        "svgg11 fp16 t3 through the gateway"
    );
}

// ---------------------------------------------------------------------------
// 2. Backpressure and admission
// ---------------------------------------------------------------------------

#[test]
fn a_full_queue_rejects_deterministically_and_drains_cleanly() {
    let tiny = scenario("tiny.toml");
    let gateway = Gateway::new(GatewayConfig { max_batch: 8, queue_cap: 2 });
    gateway.publish("tiny", tiny.compile().expect("compiles")).expect("publish");
    gateway.pause("tiny").expect("pause");

    let first = gateway.submit("tiny", &[0]).expect("fits");
    let second = gateway.submit("tiny", &[1]).expect("fits");
    // Fail-fast path: the queue is at capacity.
    assert_eq!(
        gateway.submit("tiny", &[2]).err(),
        Some(ServeError::Full { tenant: "tiny".to_string(), cap: 2 })
    );
    // Timed path: a paused tenant never frees space, so the submitter
    // parks for the whole timeout and then reports it.
    assert_eq!(
        gateway
            .submit_timeout("tiny", &[2], SubmitOptions::default(), Duration::from_millis(20))
            .err(),
        Some(ServeError::Timeout { tenant: "tiny".to_string() })
    );
    let stats = gateway.stats();
    assert_eq!(stats.rejected_full, 2);
    assert_eq!(stats.tenants[0].queue_depth, 2);

    // Resume: the queue drains, and the freed capacity admits new work.
    gateway.resume("tiny").expect("resume");
    assert!(first.wait().is_ok());
    assert!(second.wait().is_ok());
    let third = gateway
        .submit_timeout("tiny", &[2], SubmitOptions::default(), Duration::from_secs(10))
        .expect("space after drain");
    assert!(third.wait().is_ok());
    let stats = gateway.stats();
    assert_eq!((stats.submitted, stats.completed), (3, 3));
    assert_eq!(stats.tenants[0].queue_depth, 0);
}

#[test]
fn an_oversized_shard_count_is_rejected_and_the_tenant_keeps_serving() {
    let tiny = scenario("tiny.toml");
    let gateway = paced_gateway(8);
    gateway.publish("tiny", tiny.compile().expect("compiles")).expect("publish");

    // Folding this report would allocate a 3e9-shard fleet; the gateway
    // refuses it at submit instead.
    let huge = SubmitOptions::default().with_shards(3_000_000_000);
    let Err(ServeError::Rejected { reason }) = gateway.submit_with("tiny", &[0], huge) else {
        panic!("a shard count above MAX_SHARDS must be rejected at submit");
    };
    assert!(reason.contains("MAX_SHARDS"), "{reason}");

    // Sizing its result buffer would abort on allocation, too: samples ×
    // timesteps is bounded, with the override or the plan's own count.
    let long = SubmitOptions::default().with_timesteps(1 << 40);
    let many = vec![0; MAX_SAMPLE_STEPS + 1];
    for (samples, opts) in [(&[0][..], long), (&many[..], SubmitOptions::default())] {
        let Err(ServeError::Rejected { reason }) = gateway.submit_with("tiny", samples, opts)
        else {
            panic!("samples × timesteps above MAX_SAMPLE_STEPS must be rejected at submit");
        };
        assert!(reason.contains("MAX_SAMPLE_STEPS"), "{reason}");
    }

    // The shard bound is inclusive, and the tenant serves on undisturbed.
    let at_bound = SubmitOptions::default().with_shards(MAX_SHARDS);
    let response = gateway.submit_with("tiny", &[0], at_bound).expect("submit").wait();
    let report = response.expect("serve").report();
    assert_eq!(report.shards.expect("fleet attribution").shards.len(), MAX_SHARDS);
    let stats = gateway.stats();
    assert_eq!((stats.submitted, stats.completed), (1, 1));
    assert!(!stats.tenants[0].poisoned);
}

// ---------------------------------------------------------------------------
// 3. Hot swap under load
// ---------------------------------------------------------------------------

/// Tracks how many samples have *started* evaluating, so the driver can
/// publish a new plan while a batch is provably in flight. While held,
/// every started sample also parks until [`StartGate::release`].
#[derive(Debug, Default)]
struct StartGate {
    state: Mutex<GateState>,
    changed: Condvar,
}

#[derive(Debug, Default)]
struct GateState {
    started: u64,
    held: bool,
}

impl StartGate {
    fn mark(&self) {
        let mut state = self.state.lock().expect("gate poisoned");
        state.started += 1;
        self.changed.notify_all();
        while state.held {
            state = self.changed.wait(state).expect("gate poisoned");
        }
    }

    fn wait_for(&self, count: u64) {
        let mut state = self.state.lock().expect("gate poisoned");
        while state.started < count {
            state = self.changed.wait(state).expect("gate poisoned");
        }
    }

    fn hold(&self) {
        self.state.lock().expect("gate poisoned").held = true;
    }

    fn release(&self) {
        self.state.lock().expect("gate poisoned").held = false;
        self.changed.notify_all();
    }
}

/// A deterministic synthetic backend that announces each sample start and
/// then holds the sample for `delay`, keeping batches in flight long
/// enough for a publish to land mid-run.
#[derive(Debug)]
struct SlowBackend {
    gate: Arc<StartGate>,
    delay: Duration,
}

impl ExecutionBackend for SlowBackend {
    fn name(&self) -> &'static str {
        "slow-gate"
    }

    fn run_sample(&self, ctx: &SampleContext<'_>, sample: usize) -> Vec<LayerSample> {
        self.gate.mark();
        std::thread::sleep(self.delay);
        (0..ctx.network.len() * ctx.timesteps())
            .map(|unit| LayerSample {
                cycles: (sample * 1000 + unit + 1) as f64,
                ..LayerSample::default()
            })
            .collect()
    }
}

fn gated_plan(gate: &Arc<StartGate>, delay: Duration) -> Plan {
    Compiler::new(Network::svgg11(7), FiringProfile::paper_svgg11())
        .with_backend(Box::new(SlowBackend { gate: Arc::clone(gate), delay }))
        .compile(InferenceConfig {
            batch: 16,
            ..InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16)
        })
        .expect("compiles")
}

#[test]
fn a_hot_swap_under_live_traffic_drops_nothing_and_mixes_no_versions() {
    let gate = Arc::new(StartGate::default());
    let gateway = Gateway::new(GatewayConfig { max_batch: 4, queue_cap: 64 });
    gateway.publish("svgg11", gated_plan(&gate, Duration::from_millis(150))).expect("publish v1");

    // In-flight: the dispatcher has provably started evaluating r1.
    let r1 = gateway.submit("svgg11", &[0]).expect("submit r1");
    gate.wait_for(1);
    // Pause pins the ordering: r1's batch keeps running (it is era-bound
    // to v1 already), but nothing else can dispatch until resume — so the
    // publish below provably lands before r2 or r3 reach a session, even
    // if compiling the v2 plan outlasts r1's evaluation.
    gateway.pause("svgg11").expect("pause");
    let r2 = gateway.submit("svgg11", &[1]).expect("submit r2");
    let version = gateway.publish("svgg11", gated_plan(&gate, Duration::ZERO)).expect("publish v2");
    assert_eq!(version, 2);
    let r3 = gateway.submit("svgg11", &[2]).expect("submit r3");
    gateway.resume("svgg11").expect("resume");

    // Zero drops; the in-flight request finished on the version it was
    // dispatched under, everything queued or submitted after the publish
    // ran on the new one.
    let r1 = r1.wait().expect("r1 serves");
    let r2 = r2.wait().expect("r2 serves");
    let r3 = r3.wait().expect("r3 serves");
    assert_eq!(r1.plan_version(), 1, "in-flight batches complete on the old plan");
    assert_eq!(r2.plan_version(), 2, "queued requests follow the swap");
    assert_eq!(r3.plan_version(), 2, "post-publish requests run on the new plan");

    let stats = gateway.stats();
    assert_eq!(stats.hot_swaps, 1);
    assert_eq!((stats.submitted, stats.completed), (3, 3));
    assert_eq!(stats.tenants[0].version, 2);
    assert_eq!(stats.tenants[0].serving_version, 2);
}

// ---------------------------------------------------------------------------
// 4. Panic containment
// ---------------------------------------------------------------------------

/// A backend that panics on one poison sample and is deterministic
/// everywhere else.
#[derive(Debug)]
struct PanickingBackend {
    poison_sample: usize,
}

impl ExecutionBackend for PanickingBackend {
    fn name(&self) -> &'static str {
        "panicking"
    }

    fn run_sample(&self, ctx: &SampleContext<'_>, sample: usize) -> Vec<LayerSample> {
        assert_ne!(sample, self.poison_sample, "poison sample reached the backend");
        (0..ctx.network.len() * ctx.timesteps())
            .map(|unit| LayerSample { cycles: (unit + 1) as f64, ..LayerSample::default() })
            .collect()
    }
}

#[test]
fn a_poisoned_tenant_contains_its_panic_and_revives_on_publish() {
    let tiny = scenario("tiny.toml");
    let gateway = paced_gateway(8);
    gateway.publish("good", tiny.compile().expect("compiles")).expect("publish good");
    let bad_plan = || {
        Compiler::new(Network::svgg11(7), FiringProfile::paper_svgg11())
            .with_backend(Box::new(PanickingBackend { poison_sample: 13 }))
            .compile(InferenceConfig {
                batch: 16,
                ..InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16)
            })
            .expect("compiles")
    };
    gateway.publish("bad", bad_plan()).expect("publish bad");

    // Queue the poison batch plus an incompatible request behind it (a
    // different timestep override cannot coalesce), so both failure paths
    // run: the in-flight batch and the queued backlog.
    gateway.pause("bad").expect("pause");
    let poisoned = gateway.submit("bad", &[13]).expect("submit poison");
    let behind = gateway
        .submit_with("bad", &[0], SubmitOptions::default().with_timesteps(2))
        .expect("submit behind");
    gateway.resume("bad").expect("resume");

    let Err(ServeError::Poisoned(message)) = poisoned.wait() else {
        panic!("the poison batch must fail with ServeError::Poisoned");
    };
    assert!(message.contains("poison sample"), "panic payload is preserved: {message}");
    assert!(matches!(behind.wait(), Err(ServeError::Poisoned(_))), "the backlog fails too");
    assert!(
        matches!(gateway.submit("bad", &[0]), Err(ServeError::Poisoned(_))),
        "later submissions fail fast while poisoned"
    );

    // The other tenant is untouched.
    let good = gateway.submit("good", &[0]).expect("good tenant still accepts");
    assert!(good.wait().is_ok(), "good tenant still serves");
    let stats = gateway.stats();
    assert_eq!(stats.panics, 1);
    let bad_stats = stats.tenants.iter().find(|t| t.name == "bad").expect("bad tenant listed");
    assert!(bad_stats.poisoned);
    assert_eq!(bad_stats.queue_depth, 0, "the poisoned queue drained its backlog");

    // Publishing a fresh plan revives the tenant on a new dispatcher.
    gateway.publish("bad", bad_plan()).expect("republish bad");
    let revived = gateway.submit("bad", &[0]).expect("revived tenant accepts");
    let response = revived.wait().expect("revived tenant serves");
    assert_eq!(response.plan_version(), 2);
    assert!(!gateway.stats().tenants.iter().find(|t| t.name == "bad").expect("listed").poisoned);
}

// ---------------------------------------------------------------------------
// 5. Self-clocked batching
// ---------------------------------------------------------------------------

#[test]
fn live_traffic_runs_an_idle_tenants_request_alone_and_batches_the_arrivals_behind_it() {
    let gate = Arc::new(StartGate::default());
    // The default policy and no `pause`: batch composition follows the
    // traffic alone. The gate only decides when A's evaluation may finish.
    let gateway = Gateway::new(GatewayConfig::default());
    gateway.publish("svgg11", gated_plan(&gate, Duration::ZERO)).expect("publish");

    // A reaches an idle tenant: it dispatches at once, alone, and parks
    // at the gate mid-evaluation.
    gate.hold();
    let a = gateway.submit("svgg11", &[0]).expect("submit A");
    gate.wait_for(1);
    // B and C arrive while A runs, so they queue together behind it.
    let b = gateway.submit("svgg11", &[1]).expect("submit B");
    let c = gateway.submit("svgg11", &[2]).expect("submit C");
    gate.release();

    let bare_plan = gated_plan(&gate, Duration::ZERO);
    let mut bare = bare_plan.open_session();
    for (k, (handle, requests)) in [(a, 1), (b, 2), (c, 2)].into_iter().enumerate() {
        let response = handle.wait().expect("serve");
        assert_eq!(response.batch_requests(), requests, "request {k}");
        assert_eq!(response.batch_samples(), requests, "request {k}");
        assert_eq!(
            response.report().to_json(),
            bare.infer(&Request::samples(k..k + 1)).to_json(),
            "request {k}: a self-clocked batch must be bit-identical to a bare run"
        );
    }
    let stats = gateway.stats();
    assert_eq!((stats.batches, stats.coalesced), (2, 2), "only B and C shared a batch");
}
