//! The `serve-hot` and `serve-cold` workloads: open-loop traffic into one
//! gateway tenant serving an analytic S-VGG11 SpikeStream FP16 synthetic
//! plan, then a closed-loop saturation phase.
//!
//! `serve-hot` draws 1–4 sample ids per request from 128 ids warmed
//! during set-up (one request in 8 overrides `timesteps = 4`), so every
//! program-cache lookup hits; `serve-cold` names one never-seen sample id
//! per request, so every layer lookup emits a fresh lowering.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Mutex;
use std::time::Instant;

use spikestream::{
    backend_for, Engine, FpFormat, InferenceConfig, KernelVariant, LayerSample, Plan, Request,
    ResultSink, SessionStats,
};
use spikestream_serve::{Gateway, GatewayConfig, GatewayResponse};

use crate::env::{peak_rss_mb, plan_fingerprint, same_bits, Fnv, Rng};
use crate::layers::symbolic_probes;
use crate::loadgen::{closed_loop, open_loop, poisson_offsets, spaced_offsets, Phase, Req};
use crate::stats::{mean, median, percentile, sorted, supported_tail, windowed_percentile};
use crate::trace::{covered_ns, start_recording, stop_recording, SampleSpan, TimedBackend, Trace};
use crate::Outcome;

const TENANT: &str = "svgg11";
/// Weight seed of the served network (fixed: the plan does not vary
/// with the workload seed).
pub const NETWORK_SEED: u64 = 1;
/// Rounds per run: each round runs every phase for its share of
/// `--seconds` over `ROUNDS`, so every metric samples the host across
/// the whole run rather than one stretch of it.
const ROUNDS: usize = 3;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Requests per phase exported to the Chrome trace.
const EXPORT_REQUESTS: usize = 1500;
/// Session workers of the gateway tenant (the host has two CPUs).
const WORKERS: f64 = 2.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hot,
    Cold,
}

/// How one open-loop phase spaces its arrivals.
#[derive(Debug, Clone, Copy)]
enum Arrivals {
    /// Poisson arrivals at this rate (req/s).
    Poisson(f64),
    /// One arrival per period at this rate, each jittered by up to a
    /// quarter period: no bursts, so no request queues behind another.
    Spaced(f64),
}

/// Per-workload traffic: open-loop phases with their shares of
/// `--seconds`, then the closed-loop saturation phase's window and share.
struct Traffic {
    open: &'static [(Arrivals, f64)],
    window: usize,
    sat_share: f64,
}

impl Kind {
    /// `serve-hot` offers Poisson traffic at a low and a high rate.
    /// `serve-cold` offers jittered, evenly spaced arrivals at 200 req/s:
    /// its latency is the emit path's, not the queueing of chance bursts.
    /// A cold single-sample batch runs on one worker (about 1.7 ms), so at
    /// 400 req/s the gap between arrivals is barely longer than a lowering
    /// and runs flipped between 2 and 4 ms of median latency with the
    /// host's speed. Its high load is the saturation phase.
    fn traffic(self) -> Traffic {
        match self {
            Kind::Hot => Traffic {
                open: &[(Arrivals::Poisson(5_000.0), 0.35), (Arrivals::Poisson(12_000.0), 0.35)],
                window: 128,
                sat_share: 0.3,
            },
            Kind::Cold => {
                Traffic { open: &[(Arrivals::Spaced(200.0), 0.65)], window: 128, sat_share: 0.35 }
            }
        }
    }
}

/// The served configuration: analytic S-VGG11 SpikeStream FP16, synthetic.
pub fn analytic_config() -> InferenceConfig {
    InferenceConfig {
        batch: 64,
        ..InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16)
    }
}

/// Build the engine and compile `config`, timing the compile alone. A
/// traced plan binds the timing wrapper around the built-in backend.
pub fn compile(config: InferenceConfig, traced: bool) -> (Plan, f64) {
    let engine = Engine::svgg11(NETWORK_SEED);
    let mut compiler = engine.compiler();
    if traced {
        compiler =
            compiler.with_backend(Box::new(TimedBackend { inner: backend_for(config.timing) }));
    }
    let t = Instant::now();
    let plan = compiler.compile(config).expect("the benchmark configuration compiles");
    (plan, t.elapsed().as_secs_f64() * 1e3)
}

/// A sink capturing every slot's measurements into one flat buffer.
pub struct Capture {
    pub units: usize,
    pub flat: Vec<LayerSample>,
}

impl Capture {
    pub fn new(units: usize, samples: usize) -> Self {
        Capture { units, flat: vec![LayerSample::default(); units * samples] }
    }

    pub fn slot(&self, slot: usize) -> &[LayerSample] {
        &self.flat[slot * self.units..(slot + 1) * self.units]
    }
}

impl ResultSink for Capture {
    fn on_sample(&mut self, _sample: usize, _layers: &[LayerSample]) {
        unreachable!("gather runs are slot-addressed");
    }

    fn on_slot(&mut self, slot: usize, _sample: usize, layers: &[LayerSample]) {
        self.flat[slot * self.units..(slot + 1) * self.units].copy_from_slice(layers);
    }
}

/// Reference measurements of `ids` from a bare single-worker session on a
/// freshly compiled plan: one slice per id.
fn reference(ids: &[usize], timesteps: Option<usize>) -> Vec<Vec<LayerSample>> {
    let (plan, _) = compile(analytic_config(), false);
    let mut session = plan.open_session().with_workers(1);
    let mut request = Request::batch(ids.len());
    if let Some(t) = timesteps {
        request = request.with_timesteps(t);
    }
    let units = plan.network().len() * plan.effective_config(&request).timesteps();
    let mut sink = Capture::new(units, ids.len());
    session.run_gather(&request, ids, &mut sink);
    (0..ids.len()).map(|slot| sink.slot(slot).to_vec()).collect()
}

fn session_stats(gateway: &Gateway) -> SessionStats {
    gateway.stats().tenants.first().map(|t| t.session).unwrap_or_default()
}

fn served_plan(gateway: &Gateway) -> std::sync::Arc<spikestream_serve::VersionedPlan> {
    gateway.registry().get(TENANT).expect("the tenant is published")
}

/// One set-up: engine build, compile, publish and warm-up.
struct Setup {
    gateway: Gateway,
    seconds: f64,
    compile_ms: f64,
}

fn setup(kind: Kind, population: &[usize], traced: bool) -> Setup {
    let t = Instant::now();
    let (plan, compile_ms) = compile(analytic_config(), traced);
    let gateway = Gateway::new(GatewayConfig::default());
    gateway.publish(TENANT, plan).expect("publishing to a fresh gateway succeeds");
    // Warm-up: hot binds every (sample id, timesteps) the run will ask
    // for; cold spins up the dispatcher and pool on ids it never reuses.
    let warm: Vec<Req> = match kind {
        Kind::Hot => [None, Some(4)]
            .into_iter()
            .flat_map(|t| {
                population.chunks(32).map(move |ids| Req { ids: ids.to_vec(), timesteps: t })
            })
            .collect(),
        Kind::Cold => (0..16).map(|id| Req { ids: vec![id], timesteps: None }).collect(),
    };
    let handles: Vec<_> = warm
        .iter()
        .map(|r| gateway.submit_with(TENANT, &r.ids, r.options()).expect("warm-up fits the queue"))
        .collect();
    for h in handles {
        h.wait().expect("warm-up requests succeed");
    }
    Setup { gateway, seconds: t.elapsed().as_secs_f64(), compile_ms }
}

/// First id of the never-seen range `serve-cold` draws from.
fn cold_base(seed: u64) -> usize {
    (1 << 24) + (Rng::new(seed, 0xC01D).next_u64() % (1 << 36)) as usize
}

fn hot_population(seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed, 0x9090);
    let mut ids = Vec::with_capacity(128);
    while ids.len() < 128 {
        let id = 1_000 + rng.below(1 << 20);
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    ids
}

fn hot_request(rng: &mut Rng, population: &[usize]) -> Req {
    let n = 1 + rng.below(4);
    let mut ids = Vec::with_capacity(n);
    while ids.len() < n {
        let id = population[rng.below(population.len())];
        if !ids.contains(&id) {
            ids.push(id);
        }
    }
    Req { ids, timesteps: (rng.below(8) == 0).then_some(4) }
}

/// Whether `serve-cold` keeps answer `idx` of phase `phase` for the
/// reference check (about one in sixteen, seeded).
fn cold_kept(seed: u64, phase: u64, idx: usize) -> bool {
    Rng::new(seed ^ (phase << 40), idx as u64).next_u64().is_multiple_of(16)
}

pub fn run(kind: Kind, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let traffic = kind.traffic();
    let population = if kind == Kind::Hot { hot_population(seed) } else { Vec::new() };

    // Each set-up is torn down before the next; the last one serves.
    let mut setup_s = Vec::new();
    let mut compile_ms = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let s = setup(kind, &population, traced);
        setup_s.push(s.seconds);
        compile_ms.push(s.compile_ms);
        last = Some(s);
    }
    let gateway = last.expect("at least one set-up").gateway;
    let plan_hash = plan_fingerprint(&served_plan(&gateway).plan);

    // Hot answers are checked in the collector against references
    // precomputed here, outside every timed phase.
    let hot_ref = if kind == Kind::Hot {
        [None, Some(4)]
            .into_iter()
            .flat_map(|t| {
                population
                    .iter()
                    .copied()
                    .zip(reference(&population, t))
                    .map(move |(id, l)| ((id, t), l))
            })
            .collect()
    } else {
        HashMap::new()
    };
    let checker = Checker { kind, seed, hot_ref, kept: Mutex::new(Vec::new()) };

    let before_cache = served_plan(&gateway).plan.programs().counters();
    let before_session = session_stats(&gateway);
    let before_rejected = gateway.stats().rejected_full;

    let mut rng = Rng::new(seed, 0x5E5E);
    let mut sat_rng = Rng::new(seed, 0x5A7);
    // Fresh ids: the open-loop phases count up from the seed's base, the
    // saturation phases from far above it, so the open-loop inputs do not
    // depend on how many requests saturation got through.
    let mut next_cold = cold_base(seed);
    let mut next_sat = cold_base(seed) + (1 << 40);
    let rounds = |share: f64| seconds * share / ROUNDS as f64;
    // open[p] holds every round of open-loop phase p; sats the saturation rounds.
    let mut open: Vec<Vec<Phase>> = traffic.open.iter().map(|_| Vec::new()).collect();
    let mut spans: Vec<(u64, usize, usize, Vec<SampleSpan>)> = Vec::new();
    let mut sats: Vec<Phase> = Vec::new();
    for round in 0..ROUNDS {
        for (p, &(arrivals, share)) in traffic.open.iter().enumerate() {
            let offsets = match arrivals {
                Arrivals::Poisson(rate) => poisson_offsets(&mut rng, rate, rounds(share)),
                Arrivals::Spaced(rate) => spaced_offsets(&mut rng, rate, rounds(share)),
            };
            let reqs: Vec<Req> = (0..offsets.len())
                .map(|_| match kind {
                    Kind::Hot => hot_request(&mut rng, &population),
                    Kind::Cold => {
                        next_cold += 1;
                        Req { ids: vec![next_cold], timesteps: None }
                    }
                })
                .collect();
            let key = (round * 4 + p) as u64;
            let check =
                |idx: usize, req: &Req, resp: &GatewayResponse| checker.check(key, idx, req, resp);
            if traced {
                start_recording();
            }
            open[p].push(open_loop(&gateway, TENANT, reqs, &offsets, &check));
            if traced {
                spans.push((key, p, round, stop_recording()));
            }
        }
        let key = (round * 4 + 3) as u64;
        let check =
            |idx: usize, req: &Req, resp: &GatewayResponse| checker.check(key, idx, req, resp);
        if traced {
            start_recording();
        }
        sats.push(closed_loop(
            &gateway,
            TENANT,
            traffic.window,
            rounds(traffic.sat_share),
            |_| match kind {
                Kind::Hot => hot_request(&mut sat_rng, &population),
                Kind::Cold => {
                    next_sat += 1;
                    Req { ids: vec![next_sat], timesteps: None }
                }
            },
            &check,
        ));
        if traced {
            stop_recording();
        }
    }

    let served = served_plan(&gateway);
    let cache = served.plan.programs();
    let after_cache = cache.counters();
    let after_session = session_stats(&gateway);
    let rejected = gateway.stats().rejected_full - before_rejected;

    // serve-cold's seeded subset, checked against a fresh bare session.
    let mut cold_mismatches = 0;
    let kept = checker.kept.into_inner().expect("kept answers lock poisoned");
    if !kept.is_empty() {
        let ids: Vec<usize> = kept.iter().map(|(id, _)| *id).collect();
        for ((_, got), want) in kept.iter().zip(reference(&ids, None)) {
            cold_mismatches += usize::from(!same_bits(got, &want));
        }
    }

    let mut out = Outcome { plan_hash, ..Outcome::default() };
    let all: Vec<&Phase> = open.iter().flatten().chain(&sats).collect();
    out.attempted = all.iter().map(|p| p.attempted).sum();
    out.failed = all.iter().map(|p| p.failed()).sum::<usize>() + cold_mismatches;
    out.correct = all.iter().all(|p| p.mismatches == 0) && cold_mismatches == 0;
    // The outputs digest covers the open-loop answers, whose inputs the
    // seed fixes; how many requests saturation gets through varies.
    let mut digest = Fnv::default();
    for p in open.iter().flatten() {
        digest.word(p.digest);
    }
    out.digest = digest.0;

    let lat = |rounds: &[Phase], q: f64| {
        windowed_percentile(&pooled(rounds, |p| &p.lat_us), q).unwrap_or(0.0)
    };
    // The high load: the second open-loop phase, else saturation.
    let hi: &[Phase] = open.get(1).map_or(&sats, Vec::as_slice);
    // Saturation throughput: answers over the rounds' summed durations
    // (a cold batch of 64 answers at once, so short slices would count
    // whole batches).
    let sat_ns: u64 = sats.iter().map(|p| p.end_ns - p.start_ns).sum();
    let per_s = |count: fn(&Phase) -> usize| {
        sats.iter().map(count).sum::<usize>() as f64 * 1e9 / sat_ns.max(1) as f64
    };
    let m = &mut out.metrics;
    m.insert("setup_s".into(), median(&setup_s).unwrap_or(0.0));
    m.insert("peak_rss_mb".into(), peak_rss_mb());
    m.insert("success_rate".into(), 1.0 - out.failed as f64 / out.attempted.max(1) as f64);
    m.insert("p50_us".into(), lat(&open[0], 50.0));
    m.insert("hi_p50_us".into(), lat(hi, 50.0));
    m.insert("hi_p90_us".into(), lat(hi, 90.0));
    m.insert("sat_rps".into(), per_s(|p| p.lat_us.len()));
    m.insert("samples_per_s".into(), per_s(|p| p.samples));

    let notes = &mut out.notes;
    for (name, rounds) in ["lo", "hi"].into_iter().zip(&open).chain([("sat", &sats)]) {
        let lat_us = pooled(rounds, |p| &p.lat_us);
        let tail = supported_tail(&sorted(&lat_us))
            .map_or("none".to_string(), |(q, v)| format!("p{q} = {v:.1} us"));
        let late_p99 = percentile(&sorted(&pooled(rounds, |p| &p.late_us)), 99.0).unwrap_or(0.0);
        let backlogs: Vec<[usize; 4]> = rounds.iter().map(|p| p.backlog).collect();
        notes.push(format!(
            "phase {name}: {} attempted, {} answered, {} errors, {} mismatches, highest supported tail {tail}, \
             generator late p99 {late_p99:.1} us, backlog at quarters per round {backlogs:?}{}",
            rounds.iter().map(|p| p.attempted).sum::<usize>(),
            lat_us.len(),
            rounds.iter().map(|p| p.errors).sum::<usize>(),
            rounds.iter().map(|p| p.mismatches).sum::<usize>(),
            if rounds.iter().any(|p| p.overloaded) { " OVERLOADED: latency not valid" } else { "" },
        ));
    }
    let lookups = (after_cache.lookups() - before_cache.lookups()).max(1);
    let samples_run = (after_session.runs - before_session.runs).max(1);
    notes.push(format!(
        "program cache: {} hits, {} rebinds, {} emits over {} samples; {} entries; cold subset checked: {}",
        after_cache.hits - before_cache.hits,
        after_cache.rebinds - before_cache.rebinds,
        after_cache.emits - before_cache.emits,
        samples_run,
        cache.len(),
        kept.len()
    ));

    if traced {
        m.insert("gateway.rejected".into(), rejected as f64);
        m.insert("ir.cache.hits".into(), (after_cache.hits - before_cache.hits) as f64);
        m.insert("ir.cache.rebinds".into(), (after_cache.rebinds - before_cache.rebinds) as f64);
        m.insert("ir.cache.emits".into(), (after_cache.emits - before_cache.emits) as f64);
        m.insert(
            "ir.cache.hit_ratio".into(),
            (after_cache.hits - before_cache.hits) as f64 / lookups as f64,
        );
        m.insert("ir.cache.entries".into(), cache.len() as f64);
        m.insert(
            "ir.cache.emits_per_sample".into(),
            (after_cache.emits - before_cache.emits) as f64 / samples_run as f64,
        );
        session_metrics(m, &before_session, &after_session);
        m.insert("plan.compile_ms".into(), median(&compile_ms).unwrap_or(0.0));
        symbolic_probes(&served.plan, m);
        m.insert("traced.p50_us".into(), lat(&open[0], 50.0));
        m.insert("traced.p90_us".into(), lat(&open[0], 90.0));
        m.insert("traced.samples_per_s".into(), per_s(|p| p.samples));
        let late: Vec<f64> =
            open.iter().flat_map(|rounds| pooled(rounds, |p| &p.late_us)).collect();
        m.insert("loadgen.late_us_p99".into(), percentile(&sorted(&late), 99.0).unwrap_or(0.0));
        let end_backlog = |rounds: Option<&Vec<Phase>>| {
            rounds.into_iter().flatten().map(|p| p.backlog[3]).max().unwrap_or(0) as f64
        };
        m.insert("loadgen.backlog_lo".into(), end_backlog(open.first()));
        m.insert("loadgen.backlog_hi".into(), end_backlog(open.get(1)));
        let mut trace = Trace::default();
        let mut attributed = Attributed::default();
        let mut lanes = Vec::new();
        for (key, p, round, phase_spans) in spans {
            attribute(&open[p][round], key, phase_spans, &mut attributed, &mut trace, &mut lanes);
        }
        attributed.report(m);
        zero_fill(m);
        out.trace = Some(trace);
    }
    drop(served);
    gateway.shutdown();
    out
}

/// One per-phase series, concatenated over rounds in run order.
fn pooled(rounds: &[Phase], series: impl Fn(&Phase) -> &Vec<f64>) -> Vec<f64> {
    rounds.iter().flat_map(|p| series(p).iter().copied()).collect()
}

/// Output checks of one serving run.
struct Checker {
    kind: Kind,
    seed: u64,
    /// `serve-hot`: the bare-session reference of every (id, timesteps).
    hot_ref: HashMap<(usize, Option<usize>), Vec<LayerSample>>,
    /// `serve-cold`: the seeded subset of answers checked after the run.
    kept: Mutex<Vec<(usize, Vec<LayerSample>)>>,
}

impl Checker {
    /// Check answer `idx` of phase `phase` (hot), or keep it for the
    /// reference check after the run (cold).
    fn check(&self, phase: u64, idx: usize, req: &Req, resp: &GatewayResponse) -> bool {
        match self.kind {
            Kind::Hot => {
                let layers = resp.layers();
                let units = layers.len() / req.ids.len().max(1);
                layers.len() == units * req.ids.len()
                    && req.ids.iter().enumerate().all(|(k, id)| {
                        self.hot_ref.get(&(*id, req.timesteps)).is_some_and(|want| {
                            same_bits(&layers[k * units..(k + 1) * units], want)
                        })
                    })
            }
            Kind::Cold => {
                if cold_kept(self.seed, phase, idx) {
                    let answer = (req.ids[0], resp.layers().to_vec());
                    self.kept.lock().expect("kept answers lock poisoned").push(answer);
                }
                true
            }
        }
    }
}

pub fn session_metrics(m: &mut BTreeMap<String, f64>, before: &SessionStats, after: &SessionStats) {
    m.insert("session.runs".into(), (after.runs - before.runs) as f64);
    m.insert("session.pool_wakeups".into(), (after.pool.wakeups - before.pool.wakeups) as f64);
    m.insert("session.pool_steals".into(), (after.pool.steals - before.pool.steals) as f64);
    m.insert("session.park_ms".into(), (after.pool.park_ns - before.pool.park_ns) as f64 / 1e6);
    m.insert("session.arena_grows".into(), (after.grows - before.grows) as f64);
}

/// Per-layer metrics a workload bypasses are reported as zero.
pub fn zero_fill(m: &mut BTreeMap<String, f64>) {
    for metric in crate::spec::per_layer() {
        m.entry(metric.name).or_insert(0.0);
    }
}

/// Per-request timings derived from the traced phases.
#[derive(Default)]
struct Attributed {
    submit_us: Vec<f64>,
    queue_wait_us: Vec<f64>,
    demux_us: Vec<f64>,
    request_share: Vec<f64>,
    sample_us: Vec<f64>,
    batch_samples: Vec<f64>,
    coalesced: Vec<f64>,
    self_ns: BTreeMap<String, u64>,
    requests: usize,
    busy_ns: u64,
    wall_ns: u64,
}

impl Attributed {
    fn report(&self, m: &mut BTreeMap<String, f64>) {
        let p50 = |v: &[f64]| percentile(&sorted(v), 50.0).unwrap_or(0.0);
        m.insert("gateway.submit_us".into(), p50(&self.submit_us));
        m.insert("gateway.queue_wait_us".into(), p50(&self.queue_wait_us));
        m.insert("gateway.demux_us".into(), p50(&self.demux_us));
        m.insert("gateway.batch_samples_mean".into(), mean(&self.batch_samples));
        m.insert("gateway.coalesced_frac".into(), mean(&self.coalesced));
        m.insert("backend.sample_us_p50".into(), p50(&self.sample_us));
        m.insert(
            "backend.sample_us_p99".into(),
            percentile(&sorted(&self.sample_us), 99.0).unwrap_or(0.0),
        );
        m.insert(
            "backend.busy_frac".into(),
            self.busy_ns as f64 / (self.wall_ns.max(1) as f64 * WORKERS),
        );
        m.insert("backend.request_share".into(), p50(&self.request_share));
        let per_request = |layer: &str| {
            self.self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e3 / self.requests.max(1) as f64
        };
        for layer in ["loadgen", "gateway", "session", "backend"] {
            m.insert(format!("self.{layer}_us"), per_request(layer));
        }
    }
}

/// Match each answered request of `phase` to the backend evaluations of
/// its samples and fold its spans. The gateway serves its queue in FIFO
/// order, so the k-th evaluation of a sample id belongs to the k-th
/// accepted request naming it.
fn attribute(
    phase: &Phase,
    phase_no: u64,
    mut spans: Vec<SampleSpan>,
    acc: &mut Attributed,
    export: &mut Trace,
    lanes: &mut Vec<u64>,
) {
    spans.sort_by_key(|s| s.start_ns);
    acc.busy_ns += spans.iter().map(|s| s.end_ns - s.start_ns).sum::<u64>();
    acc.wall_ns += phase.end_ns.saturating_sub(phase.start_ns);
    acc.sample_us.extend(spans.iter().map(|s| (s.end_ns - s.start_ns) as f64 / 1e3));
    let mut by_id: HashMap<usize, VecDeque<SampleSpan>> = HashMap::new();
    for s in spans {
        by_id.entry(s.sample).or_default().push_back(s);
    }
    for (n, sent) in phase.sent.iter().enumerate() {
        let req = &phase.reqs[sent.idx];
        let mine: Vec<SampleSpan> = req
            .ids
            .iter()
            .filter_map(|id| by_id.get_mut(id).and_then(VecDeque::pop_front))
            .collect();
        if mine.len() != req.ids.len() || sent.recv_ns == 0 {
            continue;
        }
        let first = mine.iter().map(|s| s.start_ns).min().expect("non-empty");
        let last = mine.iter().map(|s| s.end_ns).max().expect("non-empty");
        acc.requests += 1;
        acc.submit_us.push((sent.sub_end_ns - sent.sub_start_ns) as f64 / 1e3);
        acc.queue_wait_us.push(first.saturating_sub(sent.sub_end_ns) as f64 / 1e3);
        acc.demux_us.push(sent.recv_ns.saturating_sub(last) as f64 / 1e3);
        let intervals: Vec<(u64, u64)> = mine.iter().map(|s| (s.start_ns, s.end_ns)).collect();
        let gateway_ns = sent.recv_ns.saturating_sub(sent.sub_start_ns).max(1);
        acc.request_share.push(
            covered_ns(&intervals, sent.sub_start_ns, sent.recv_ns) as f64 / gateway_ns as f64,
        );

        let req_id = (phase_no << 32) | (n as u64 + 1);
        let mut one = Trace::default();
        request_spans(&mut one, sent, &mine, req_id, 0);
        for (layer, ns) in one.self_time_ns() {
            *acc.self_ns.entry(layer).or_insert(0) += ns;
        }
        if n < EXPORT_REQUESTS {
            request_spans(export, sent, &mine, req_id, lane(lanes, sent.due_ns, sent.recv_ns));
        }
    }
    for resp_batch in phase.batch_samples.iter().zip(&phase.batch_requests) {
        acc.batch_samples.push(*resp_batch.0);
        acc.coalesced.push(f64::from(u8::from(*resp_batch.1 > 1.0)));
    }
}

/// A trace row for a request spanning `[start, end)`: the first lane
/// free by `start`, so overlapping requests never share a row. Request
/// rows are numbered from 1000, clear of worker thread numbers.
fn lane(lanes: &mut Vec<u64>, start: u64, end: u64) -> u64 {
    let free = lanes.iter().position(|&busy_until| busy_until <= start);
    let at = free.unwrap_or_else(|| {
        lanes.push(0);
        lanes.len() - 1
    });
    lanes[at] = end;
    1000 + at as u64
}

/// One request's span tree: `loadgen.request` (due → answer) ⊃
/// `gateway.request` (submit → answer) ⊃ {`gateway.submit`,
/// `session.run` (first → last evaluation) ⊃ `backend.sample`…}.
fn request_spans(
    t: &mut Trace,
    sent: &crate::loadgen::Sent,
    mine: &[SampleSpan],
    req: u64,
    row: u64,
) {
    let first = mine.iter().map(|s| s.start_ns).min().unwrap_or(sent.sub_end_ns);
    let last = mine.iter().map(|s| s.end_ns).max().unwrap_or(sent.recv_ns);
    let root = t.push("loadgen.request", sent.due_ns, sent.recv_ns, 0, req, row);
    let gw = t.push("gateway.request", sent.sub_start_ns, sent.recv_ns, root, req, row);
    t.push("gateway.submit", sent.sub_start_ns, sent.sub_end_ns, gw, req, row);
    let run = t.push("session.run", first, last, gw, req, row);
    for s in mine {
        t.push("backend.sample", s.start_ns, s.end_ns, run, req, s.tid);
    }
}
