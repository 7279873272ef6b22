//! In-memory spans for the traced run, recorded from the benchmark's own
//! code around calls into each layer, plus their Chrome trace-event
//! export and the per-layer self-time fold.
//!
//! Spans from worker threads (the timed backend) are recorded live into
//! one locked buffer while recording is on; request-level spans are
//! assembled by the workload after a phase from its own timestamps.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use spikestream::{ExecutionBackend, LayerSample, SampleContext};
use spikestream_kernels::LayerScratch;

use crate::json::Json;

/// Nanoseconds since the process-wide trace epoch.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A small per-thread number for the trace's `tid` column.
pub fn thread_no() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local!(static NO: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    NO.with(|n| *n)
}

/// One finished span. `parent` is 0 for a root; spans of one request
/// share `req` (0 outside any request).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub tid: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span list under construction: hands out ids and keeps parents
/// consistent.
#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    /// Append a span and return its id.
    pub fn push(
        &mut self,
        name: &str,
        start_ns: u64,
        end_ns: u64,
        parent: u64,
        req: u64,
        tid: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span { name: name.to_string(), start_ns, end_ns, id, parent, req, tid });
        id
    }

    /// Self time per layer (span-name prefix before the first `.`): each
    /// span's duration minus the part of it its children cover.
    pub fn self_time_ns(&self) -> BTreeMap<String, u64> {
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            let covered = children.get(&s.id).map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            *out.entry(layer_of(&s.name).to_string()).or_insert(0) +=
                s.dur_ns().saturating_sub(covered);
        }
        out
    }

    /// Chrome trace-event JSON (Perfetto and `chrome://tracing` open it):
    /// one complete (`"ph": "X"`) event per span, microsecond times.
    pub fn chrome_json(&self, metadata: Vec<(String, Json)>) -> String {
        let events = self
            .spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.clone())),
                    ("cat".into(), Json::Str(layer_of(&s.name).to_string())),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur".into(), Json::Num(s.dur_ns() as f64 / 1e3)),
                    ("pid".into(), Json::Num(1.0)),
                    ("tid".into(), Json::Num(s.tid as f64)),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("id".into(), Json::Num(s.id as f64)),
                            ("parent".into(), Json::Num(s.parent as f64)),
                            ("req".into(), Json::Num(s.req as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(events)),
            ("displayTimeUnit".into(), Json::Str("ns".into())),
            ("metadata".into(), Json::Obj(metadata)),
        ])
        .compact()
    }
}

/// The layer a span belongs to: its name up to the first `.`.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
pub fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> =
        intervals.iter().map(|&(s, e)| (s.max(lo), e.min(hi))).filter(|(s, e)| s < e).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in v {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    total + cur.map_or(0, |(s, e)| e - s)
}

/// One backend evaluation seen by [`TimedBackend`].
#[derive(Debug, Clone, Copy)]
pub struct SampleSpan {
    pub sample: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    pub tid: u64,
}

static RECORDING: AtomicBool = AtomicBool::new(false);
static SAMPLES: Mutex<Vec<SampleSpan>> = Mutex::new(Vec::new());

/// Start recording backend spans (clears anything recorded before).
pub fn start_recording() {
    SAMPLES.lock().expect("span buffer poisoned").clear();
    RECORDING.store(true, Ordering::SeqCst);
}

/// Stop recording and take the backend spans recorded since
/// [`start_recording`].
pub fn stop_recording() -> Vec<SampleSpan> {
    RECORDING.store(false, Ordering::SeqCst);
    std::mem::take(&mut *SAMPLES.lock().expect("span buffer poisoned"))
}

/// A timing wrapper around a built-in backend: every per-sample
/// evaluation is recorded as a span while recording is on. Results are
/// the inner backend's, untouched.
pub struct TimedBackend {
    pub inner: Box<dyn ExecutionBackend>,
}

impl TimedBackend {
    fn timed<R>(&self, sample: usize, run: impl FnOnce() -> R) -> R {
        if !RECORDING.load(Ordering::Relaxed) {
            return run();
        }
        let start_ns = now_ns();
        let out = run();
        let span = SampleSpan { sample, start_ns, end_ns: now_ns(), tid: thread_no() };
        SAMPLES.lock().expect("span buffer poisoned").push(span);
        out
    }
}

impl ExecutionBackend for TimedBackend {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run_sample(&self, ctx: &SampleContext<'_>, sample: usize) -> Vec<LayerSample> {
        self.timed(sample, || self.inner.run_sample(ctx, sample))
    }

    fn run_sample_into(&self, ctx: &SampleContext<'_>, sample: usize, out: &mut Vec<LayerSample>) {
        self.timed(sample, || self.inner.run_sample_into(ctx, sample, out))
    }

    fn run_sample_with_scratch(
        &self,
        ctx: &SampleContext<'_>,
        sample: usize,
        out: &mut Vec<LayerSample>,
        scratch: &mut LayerScratch,
    ) {
        self.timed(sample, || self.inner.run_sample_with_scratch(ctx, sample, out, scratch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_merges_overlaps_and_clips() {
        assert_eq!(covered_ns(&[(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(covered_ns(&[(0, 10), (5, 15), (20, 30)], 8, 25), 12);
        assert_eq!(covered_ns(&[], 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_child_coverage_per_layer() {
        let mut t = Trace::default();
        let root = t.push("gateway.request", 0, 100, 0, 1, 1);
        let run = t.push("session.run", 20, 90, root, 1, 1);
        t.push("backend.sample", 25, 60, run, 1, 2);
        t.push("backend.sample", 50, 80, run, 1, 3);
        let st = t.self_time_ns();
        assert_eq!(st["gateway"], 30);
        assert_eq!(st["session"], 70 - 55);
        assert_eq!(st["backend"], 35 + 30);
        let doc = Json::parse(&t.chrome_json(vec![])).unwrap();
        assert_eq!(doc.get("traceEvents").and_then(Json::as_array).map(<[Json]>::len), Some(4));
    }
}
