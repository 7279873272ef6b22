//! The benchmark definition — workloads, metrics, bounds — and the
//! writer of `BENCHMARK.json` at the repository root, which is this
//! definition rendered (`perfbench --emit-spec > BENCHMARK.json`).

use crate::json::Json;

/// Measured seconds of one run.
pub const RUN_SECONDS: u64 = 30;

/// The S-VGG11 layers every per-layer family is reported for.
pub const LAYERS: [&str; 8] = ["conv1", "conv2", "conv3", "conv4", "conv5", "conv6", "fc7", "fc8"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    #[cfg(test)]
    fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// One reported metric. End-to-end metrics carry a bound: the share of
/// the parent's median by which the metric may worsen.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub better: Better,
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: String,
    pub why: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub command: Vec<String>,
    pub paths: Vec<String>,
    pub run_seconds: u64,
    pub workloads: Vec<Workload>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

fn metric(name: &str, unit: &str, better: Better, bound: Option<f64>) -> Metric {
    Metric { name: name.to_string(), unit: unit.to_string(), better, bound }
}

/// The workloads, in the order `BENCHMARK.json` lists them.
pub fn workloads() -> Vec<Workload> {
    [
        (
            "serve-hot",
            "Poisson open loop at 5k and 12k req/s, then saturation, over 128 warmed sample ids: every program-cache lookup hits, so gateway queueing, batching, demux and pool wakeups dominate",
        ),
        (
            "serve-cold",
            "evenly spaced open loop at 200 req/s, then saturation; every request a never-seen sample id, so every layer lookup emits: lowering and cost integration dominate, the cache fills",
        ),
        (
            "cycle-temporal",
            "closed loop on a bare 2-worker session, cycle-level S-VGG11 T=4 rate coding, 2- then 8-sample requests: exact kernels, simulator and LIF do all the work",
        ),
    ]
    .into_iter()
    .map(|(name, why)| Workload { name: name.to_string(), why: why.to_string() })
    .collect()
}

/// End-to-end metrics, reported by every workload's timed run. Timing
/// bounds are the widest allowed: on the two-CPU virtual machine the
/// benchmark was sized on, the host steals CPU in bursts and run-to-run
/// spreads of 0.05 to 0.15 are common. The tail at the low load is not
/// here: with the CPUs mostly idle it counts the host's stolen wakeups,
/// and over 10 seeds its p99 spread by 0.45 to 0.87 of its median and its
/// p90 by 0.49 to 0.60, beyond any bound. The traced run reports it as
/// `traced.p90_us`; the high-load tail `hi_p90_us` stays.
pub fn end_to_end() -> Vec<Metric> {
    use Better::*;
    vec![
        metric("setup_s", "s", Lower, Some(0.25)),
        metric("peak_rss_mb", "MB", Lower, Some(0.1)),
        metric("success_rate", "frac", Higher, Some(0.01)),
        metric("p50_us", "us", Lower, Some(0.25)),
        metric("hi_p50_us", "us", Lower, Some(0.25)),
        metric("hi_p90_us", "us", Lower, Some(0.25)),
        metric("sat_rps", "1/s", Higher, Some(0.25)),
        metric("samples_per_s", "1/s", Higher, Some(0.25)),
    ]
}

/// Per-layer metrics, reported by every workload's traced run (zero
/// where a workload bypasses the layer).
pub fn per_layer() -> Vec<Metric> {
    use Better::*;
    let mut m = vec![
        metric("gateway.submit_us", "us", Lower, None),
        metric("gateway.queue_wait_us", "us", Lower, None),
        metric("gateway.demux_us", "us", Lower, None),
        metric("gateway.batch_samples_mean", "samples", Higher, None),
        metric("gateway.coalesced_frac", "frac", Higher, None),
        metric("gateway.rejected", "count", Lower, None),
        metric("session.runs", "count", Higher, None),
        metric("session.pool_wakeups", "count", Lower, None),
        metric("session.pool_steals", "count", Lower, None),
        metric("session.park_ms", "ms", Lower, None),
        metric("session.arena_grows", "count", Lower, None),
        metric("backend.sample_us_p50", "us", Lower, None),
        metric("backend.sample_us_p99", "us", Lower, None),
        metric("backend.busy_frac", "frac", Higher, None),
        metric("backend.request_share", "frac", Higher, None),
        metric("self.loadgen_us", "us", Lower, None),
        metric("self.gateway_us", "us", Lower, None),
        metric("self.session_us", "us", Lower, None),
        metric("self.backend_us", "us", Lower, None),
        metric("ir.cache.hits", "count", Higher, None),
        metric("ir.cache.rebinds", "count", Lower, None),
        metric("ir.cache.emits", "count", Lower, None),
        metric("ir.cache.hit_ratio", "frac", Higher, None),
        metric("ir.cache.entries", "count", Lower, None),
        metric("ir.cache.emits_per_sample", "count", Lower, None),
        metric("plan.compile_ms", "ms", Lower, None),
    ];
    for layer in LAYERS {
        m.push(metric(&format!("kernels.lower_us.{layer}"), "us", Lower, None));
        m.push(metric(&format!("ir.cost.integrate_us.{layer}"), "us", Lower, None));
        m.push(metric(&format!("sim.cycles.{layer}"), "cycles", Lower, None));
    }
    for layer in LAYERS {
        m.push(metric(&format!("kernels.step_us.{layer}"), "us", Lower, None));
        m.push(metric(&format!("sim.compute_cycles.{layer}"), "cycles", Lower, None));
        m.push(metric(&format!("sim.dma_busy_cycles.{layer}"), "cycles", Lower, None));
        m.push(metric(&format!("sim.dma_hidden_cycles.{layer}"), "cycles", Higher, None));
        m.push(metric(&format!("sim.stall_cycles.{layer}"), "cycles", Lower, None));
    }
    m.extend([
        metric("snn.encode_us", "us", Lower, None),
        metric("kernels.step_share", "frac", Higher, None),
        metric("loadgen.late_us_p99", "us", Lower, None),
        metric("loadgen.backlog_lo", "count", Lower, None),
        metric("loadgen.backlog_hi", "count", Lower, None),
        metric("traced.p50_us", "us", Lower, None),
        metric("traced.p90_us", "us", Lower, None),
        metric("traced.samples_per_s", "1/s", Higher, None),
    ]);
    m
}

/// The whole benchmark definition.
pub fn spec() -> Spec {
    Spec {
        command: [
            "cargo",
            "run",
            "--release",
            "--quiet",
            "--offline",
            "--manifest-path",
            "perfbench/Cargo.toml",
            "--",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        paths: vec!["perfbench".to_string()],
        run_seconds: RUN_SECONDS,
        workloads: workloads(),
        end_to_end: end_to_end(),
        per_layer: per_layer(),
    }
}

fn metric_json(m: &Metric) -> Json {
    let mut members = vec![
        ("name".to_string(), Json::Str(m.name.clone())),
        ("unit".to_string(), Json::Str(m.unit.clone())),
        ("better".to_string(), Json::Str(m.better.as_str().to_string())),
    ];
    if let Some(bound) = m.bound {
        members.push(("bound".to_string(), Json::Num(bound)));
    }
    Json::Obj(members)
}

fn strings(items: &[String]) -> Json {
    Json::Arr(items.iter().map(|s| Json::Str(s.clone())).collect())
}

impl Spec {
    /// The `BENCHMARK.json` document.
    pub fn to_json(&self) -> String {
        let workloads = self
            .workloads
            .iter()
            .map(|w| {
                Json::Obj(vec![
                    ("name".to_string(), Json::Str(w.name.clone())),
                    ("why".to_string(), Json::Str(w.why.clone())),
                ])
            })
            .collect();
        let doc = Json::Obj(vec![
            ("command".to_string(), strings(&self.command)),
            ("paths".to_string(), strings(&self.paths)),
            ("run_seconds".to_string(), Json::Num(self.run_seconds as f64)),
            ("workloads".to_string(), Json::Arr(workloads)),
            (
                "end_to_end".to_string(),
                Json::Arr(self.end_to_end.iter().map(metric_json).collect()),
            ),
            ("per_layer".to_string(), Json::Arr(self.per_layer.iter().map(metric_json).collect())),
        ]);
        doc.pretty() + "\n"
    }

    /// Read a `BENCHMARK.json` document back (the writer's round trip).
    #[cfg(test)]
    pub fn from_json(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let field = |key: &str| doc.get(key).ok_or_else(|| format!("missing `{key}`"));
        let str_list = |key: &str| -> Result<Vec<String>, String> {
            field(key)?
                .as_array()
                .ok_or_else(|| format!("`{key}` is not an array"))?
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("`{key}` holds a non-string"))
                })
                .collect()
        };
        let text_of = |v: &Json, key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing `{key}`"))
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            field(key)?
                .as_array()
                .ok_or_else(|| format!("`{key}` is not an array"))?
                .iter()
                .map(|m| {
                    Ok(Metric {
                        name: text_of(m, "name")?,
                        unit: text_of(m, "unit")?,
                        better: Better::parse(&text_of(m, "better")?).ok_or("bad `better`")?,
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        let workloads = field("workloads")?
            .as_array()
            .ok_or("`workloads` is not an array")?
            .iter()
            .map(|w| Ok(Workload { name: text_of(w, "name")?, why: text_of(w, "why")? }))
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Spec {
            command: str_list("command")?,
            paths: str_list("paths")?,
            run_seconds: field("run_seconds")?.as_f64().ok_or("`run_seconds` is not a number")?
                as u64,
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_writer_round_trips() {
        let spec = spec();
        let text = spec.to_json();
        assert_eq!(Spec::from_json(&text).unwrap(), spec);
        // Rendering the parsed spec again gives the same bytes.
        assert_eq!(Spec::from_json(&text).unwrap().to_json(), text);
    }

    #[test]
    fn checked_in_benchmark_json_is_the_rendered_spec() {
        let checked_in = include_str!("../../BENCHMARK.json");
        assert_eq!(checked_in, spec().to_json(), "regenerate with `perfbench --emit-spec`");
    }

    #[test]
    fn spec_stays_within_the_contract_limits() {
        let spec = spec();
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            u.len() <= 16 && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        assert!((1..=60).contains(&spec.run_seconds));
        let mut names = std::collections::BTreeSet::new();
        for w in &spec.workloads {
            assert!(name_ok(&w.name) && w.why.len() <= 200 && !w.why.contains('\n'), "{w:?}");
            assert!(names.insert(w.name.clone()), "duplicate {}", w.name);
        }
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(name_ok(&m.name) && unit_ok(&m.unit), "{m:?}");
            assert!(names.insert(m.name.clone()), "duplicate {}", m.name);
        }
        for m in &spec.end_to_end {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{m:?}");
        }
        let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit.as_str(), setup.better), ("s", Better::Lower));
        let widest = spec.end_to_end.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s carries the largest bound");
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        assert!(spec.to_json().len() <= 64 * 1024);
    }
}
