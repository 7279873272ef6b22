//! The `cycle-temporal` workload: a closed loop from one client thread on
//! a bare 2-worker `Session` over the cycle-level S-VGG11 SpikeStream
//! FP16 plan, temporal T=4 with rate coding. Every request names new
//! sample ids: 2 per request in the `lo` phase, 8 in the `hi` phase.

use std::collections::BTreeMap;
use std::time::Instant;

use spikestream::{InferenceConfig, Request, TemporalEncoding, TimingModel};

use crate::env::{peak_rss_mb, plan_fingerprint, same_bits, Fnv, Rng};
use crate::layers::{replica, symbolic_probes};
use crate::serve::{analytic_config, compile, session_metrics, zero_fill, Capture, SETUPS};
use crate::stats::{median, percentile, sorted, windowed_percentile};
use crate::trace::{
    covered_ns, now_ns, start_recording, stop_recording, thread_no, SampleSpan, Trace,
};
use crate::Outcome;

const WORKERS: usize = 2;
/// Samples per request in the lo and hi phases, and each phase's share
/// of `--seconds`.
const PHASES: [(usize, f64); 2] = [(2, 0.35), (8, 0.65)];

fn temporal_config() -> InferenceConfig {
    InferenceConfig { timing: TimingModel::CycleLevel, batch: 8, ..analytic_config() }
        .temporal(4, TemporalEncoding::Rate)
}

/// One closed-loop request as observed by the client.
struct Served {
    ids: Vec<usize>,
    start_ns: u64,
    end_ns: u64,
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let config = temporal_config();
    // Set-up: engine build, compile and session open, several times.
    let mut setup_s = Vec::new();
    let mut compile_ms = Vec::new();
    let mut plan = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let (p, ms) = compile(config, traced);
        drop(p.open_session().with_workers(WORKERS));
        setup_s.push(t.elapsed().as_secs_f64());
        compile_ms.push(ms);
        plan = Some(p);
    }
    let plan = plan.expect("at least one set-up");
    let plan_hash = plan_fingerprint(&plan);
    let mut session = plan.open_session().with_workers(WORKERS);
    let units = plan.network().len() * config.timesteps();

    let mut rng = Rng::new(seed, 0xC7C7);
    let mut next_id = (1 << 20) + rng.below(1 << 30);
    // The sample checked against a bare single-worker session: a seeded
    // slot of the first hi request.
    let checked_slot = rng.below(PHASES[1].0);
    let mut checked: Option<(usize, Vec<spikestream::LayerSample>)> = None;

    let before = session.stats();
    let mut digest = Fnv::default();
    let mut phases: Vec<Vec<Served>> = Vec::new();
    let mut spans: Vec<SampleSpan> = Vec::new();
    for (p, &(per_request, share)) in PHASES.iter().enumerate() {
        let budget_ns = (seconds * share * 1e9) as u64;
        let start = now_ns();
        let mut served = Vec::new();
        if traced {
            start_recording();
        }
        while now_ns() - start < budget_ns {
            let ids: Vec<usize> = (0..per_request).map(|k| next_id + k).collect();
            next_id += per_request;
            let mut sink = Capture::new(units, ids.len());
            let t0 = now_ns();
            session.run_gather(&Request::batch(ids.len()), &ids, &mut sink);
            let t1 = now_ns();
            // Each phase's first request always runs: its answer is the
            // part of the output the seed alone fixes.
            if served.is_empty() {
                digest.layers(&sink.flat);
            }
            if p == 1 && checked.is_none() {
                checked = Some((ids[checked_slot], sink.slot(checked_slot).to_vec()));
            }
            served.push(Served { ids, start_ns: t0, end_ns: t1 });
        }
        if traced {
            spans.extend(stop_recording());
        }
        phases.push(served);
    }
    let after = session.stats();
    drop(session);

    // The checked sample, against a bare single-worker session on a fresh plan.
    let (checked_id, checked_layers) = checked.expect("the hi phase serves at least one request");
    let reference = {
        let (fresh, _) = compile(config, false);
        let mut bare = fresh.open_session().with_workers(1);
        let mut sink = Capture::new(units, 1);
        bare.run_gather(&Request::batch(1), &[checked_id], &mut sink);
        sink.flat
    };
    let mut mismatches = usize::from(!same_bits(&checked_layers, &reference));

    let mut out = Outcome { plan_hash, digest: digest.0, ..Outcome::default() };
    let lat_us = |s: &[Served]| -> Vec<f64> {
        s.iter().map(|r| (r.end_ns - r.start_ns) as f64 / 1e3).collect()
    };
    let lo = lat_us(&phases[0]);
    let hi = lat_us(&phases[1]);
    let hi_s = phases[1].iter().map(|r| r.end_ns - r.start_ns).sum::<u64>() as f64 / 1e9;
    let hi_samples = phases[1].iter().map(|r| r.ids.len()).sum::<usize>() as f64;
    let m = &mut out.metrics;
    m.insert("setup_s".into(), median(&setup_s).unwrap_or(0.0));
    m.insert("p50_us".into(), windowed_percentile(&lo, 50.0).unwrap_or(0.0));
    m.insert("hi_p50_us".into(), windowed_percentile(&hi, 50.0).unwrap_or(0.0));
    m.insert("hi_p90_us".into(), windowed_percentile(&hi, 90.0).unwrap_or(0.0));
    m.insert("sat_rps".into(), phases[1].len() as f64 / hi_s);
    m.insert("samples_per_s".into(), hi_samples / hi_s);
    out.notes.push(format!(
        "lo: {} requests of {} samples; hi: {} requests of {} samples; checked sample {checked_id}: {}",
        phases[0].len(),
        PHASES[0].0,
        phases[1].len(),
        PHASES[1].0,
        if mismatches == 0 { "bit-identical" } else { "MISMATCH" }
    ));

    if traced {
        let mut trace = Trace::default();
        trace_requests(&phases, spans, &mut trace, m);
        let rep = replica(&plan, &config, checked_id, &mut trace, u64::MAX);
        let session_cycles: Vec<f64> = checked_layers.iter().map(|l| l.cycles).collect();
        let replica_ok =
            rep.cycles.iter().map(|c| c.to_bits()).eq(session_cycles.iter().map(|c| c.to_bits()));
        mismatches += usize::from(!replica_ok);
        out.notes.push(format!(
            "replica of sample {checked_id}: per-layer simulated cycles {} the session's",
            if replica_ok { "equal" } else { "DIFFER FROM" }
        ));
        m.extend(rep.metrics);
        session_metrics(m, &before, &after);
        let step_us: f64 =
            crate::spec::LAYERS.iter().map(|l| m[&format!("kernels.step_us.{l}")]).sum();
        let sample_us = m["backend.sample_us_p50"];
        m.insert(
            "kernels.step_share".into(),
            if sample_us > 0.0 { step_us / sample_us } else { 0.0 },
        );
        let cache = plan.programs().counters();
        m.insert("ir.cache.hits".into(), cache.hits as f64);
        m.insert("ir.cache.rebinds".into(), cache.rebinds as f64);
        m.insert("ir.cache.emits".into(), cache.emits as f64);
        m.insert("ir.cache.entries".into(), plan.programs().len() as f64);
        m.insert("plan.compile_ms".into(), median(&compile_ms).unwrap_or(0.0));
        symbolic_probes(&plan, m);
        m.insert("traced.p50_us".into(), windowed_percentile(&lo, 50.0).unwrap_or(0.0));
        m.insert("traced.p90_us".into(), windowed_percentile(&lo, 90.0).unwrap_or(0.0));
        m.insert("traced.samples_per_s".into(), hi_samples / hi_s);
        zero_fill(m);
        out.trace = Some(trace);
    }

    let requests = phases.iter().map(Vec::len).sum::<usize>();
    out.attempted = requests;
    out.failed = mismatches;
    out.correct = mismatches == 0;
    out.metrics.insert("peak_rss_mb".into(), peak_rss_mb());
    out.metrics
        .insert("success_rate".into(), 1.0 - out.failed as f64 / out.attempted.max(1) as f64);
    out
}

/// Fold each request's `session.run` ⊃ `backend.sample` spans (sample
/// ids are never reused, so each evaluation belongs to exactly one
/// request) into `trace`, which must hold no other spans yet, and into
/// the backend and self-time metrics.
fn trace_requests(
    phases: &[Vec<Served>],
    spans: Vec<SampleSpan>,
    trace: &mut Trace,
    m: &mut BTreeMap<String, f64>,
) {
    let by_id: BTreeMap<usize, SampleSpan> = spans.iter().map(|s| (s.sample, *s)).collect();
    let sample_us: Vec<f64> = spans.iter().map(|s| (s.end_ns - s.start_ns) as f64 / 1e3).collect();
    let busy_ns: u64 = spans.iter().map(|s| s.end_ns - s.start_ns).sum();
    let client = thread_no();
    let mut share = Vec::new();
    let mut wall_ns = 0;
    let mut requests = 0;
    for (n, r) in phases.iter().flatten().enumerate() {
        let req = n as u64 + 1;
        let run = trace.push("session.run", r.start_ns, r.end_ns, 0, req, client);
        let mut intervals = Vec::new();
        for s in r.ids.iter().filter_map(|id| by_id.get(id)) {
            trace.push("backend.sample", s.start_ns, s.end_ns, run, req, s.tid);
            intervals.push((s.start_ns, s.end_ns));
        }
        let dur = (r.end_ns - r.start_ns).max(1);
        share.push(covered_ns(&intervals, r.start_ns, r.end_ns) as f64 / dur as f64);
        wall_ns += dur;
        requests += 1;
    }
    let self_ns = trace.self_time_ns();
    let per_request = |layer: &str| {
        self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e3 / requests.max(1) as f64
    };
    m.insert("self.session_us".into(), per_request("session"));
    m.insert("self.backend_us".into(), per_request("backend"));
    m.insert("backend.sample_us_p50".into(), percentile(&sorted(&sample_us), 50.0).unwrap_or(0.0));
    m.insert("backend.sample_us_p99".into(), percentile(&sorted(&sample_us), 99.0).unwrap_or(0.0));
    m.insert("backend.busy_frac".into(), busy_ns as f64 / (wall_ns.max(1) as f64 * WORKERS as f64));
    m.insert("backend.request_share".into(), median(&share).unwrap_or(0.0));
}
