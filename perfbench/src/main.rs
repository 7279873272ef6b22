//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <serve-hot|serve-cold|cycle-temporal> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --emit-spec                 # print BENCHMARK.json
//! perfbench --summarize <results-file>  # medians, quartiles and spreads of result lines
//! ```
//!
//! A timed run (`--trace 0`) prints every end-to-end metric; a traced run
//! (`--trace 1`) prints every per-layer metric and writes its spans as a
//! Chrome trace under `.bench_out/`. The last stdout line is the result
//! object `{"correct", "attempted", "failed", "metrics"}`.

mod cycle;
mod env;
mod json;
mod layers;
mod loadgen;
mod serve;
mod spec;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use json::Json;
use spec::Metric;

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    /// Every output check passed.
    pub correct: bool,
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Plan fingerprint and digest of every checked output.
    pub plan_hash: u64,
    pub digest: u64,
    /// Spans of a traced run, written as a Chrome trace.
    pub trace: Option<trace::Trace>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let seconds = seconds.unwrap_or(spec::RUN_SECONDS as f64);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], not {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// The result object: exactly the metrics `expected` names, in order.
fn result_line(outcome: &Outcome, expected: &[Metric]) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(expected.len());
    for m in expected {
        let value = *outcome
            .metrics
            .get(&m.name)
            .ok_or_else(|| format!("metric `{}` was not measured", m.name))?;
        if !value.is_finite() {
            return Err(format!("metric `{}` is not finite: {value}", m.name));
        }
        metrics.push((
            m.name.clone(),
            Json::Obj(vec![
                ("value".into(), Json::Num(value)),
                ("unit".into(), Json::Str(m.unit.clone())),
            ]),
        ));
    }
    Ok(Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.correct)),
        ("attempted".into(), Json::Num(outcome.attempted as f64)),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .compact())
}

fn run(args: &Args) -> Result<(), String> {
    let (all_before, steal_before) = env::cpu_jiffies();
    let mut outcome = match args.workload.as_str() {
        "serve-hot" => serve::run(serve::Kind::Hot, args.seed, args.seconds, args.trace),
        "serve-cold" => serve::run(serve::Kind::Cold, args.seed, args.seconds, args.trace),
        "cycle-temporal" => cycle::run(args.seed, args.seconds, args.trace),
        other => return Err(format!("unknown workload `{other}`")),
    };
    let (all_after, steal_after) = env::cpu_jiffies();
    outcome.notes.push(format!(
        "host CPU steal during the run: {:.1}%",
        100.0 * (steal_after - steal_before) as f64 / (all_after - all_before).max(1) as f64
    ));
    let expected = if args.trace { spec::per_layer() } else { spec::end_to_end() };
    let fingerprint =
        env::fingerprint(&args.workload, args.seed, args.trace, outcome.plan_hash, outcome.digest);
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in &expected {
        println!(
            "{:<32} {:>16.4} {}",
            m.name,
            outcome.metrics.get(&m.name).copied().unwrap_or(f64::NAN),
            m.unit
        );
    }
    println!("# fingerprint {}", fingerprint.compact());
    if let Some(trace) = &outcome.trace {
        let dir = std::path::Path::new(".bench_out");
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        let Json::Obj(meta) = fingerprint else { unreachable!("the fingerprint is an object") };
        std::fs::write(&path, trace.chrome_json(meta))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("# trace written to {} ({} spans)", path.display(), trace.spans.len());
    }
    println!("{}", result_line(&outcome, &expected)?);
    Ok(())
}

/// Medians, quartiles and spreads per metric over result lines (one JSON
/// result per line; other lines are skipped).
fn summarize(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut runs = 0;
    for line in text.lines().filter(|l| l.starts_with("{\"correct\"")) {
        runs += 1;
        let doc = Json::parse(line)?;
        if let Some(Json::Obj(metrics)) = doc.get("metrics") {
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    values.entry(name.clone()).or_default().push(v);
                }
            }
        }
    }
    let bounds: BTreeMap<String, f64> =
        spec::end_to_end().into_iter().filter_map(|m| m.bound.map(|b| (m.name, b))).collect();
    println!("{runs} runs");
    println!(
        "{:<32} {:>14} {:>14} {:>14} {:>8} {:>7}",
        "metric", "median", "q1", "q3", "spread", "bound"
    );
    for (name, v) in &values {
        let (q1, q3) = stats::quartiles(v).unwrap_or((f64::NAN, f64::NAN));
        let spread = stats::spread(v).unwrap_or(f64::NAN);
        let bound = bounds.get(name).map_or(String::new(), |b| format!("{b}"));
        println!(
            "{:<32} {:>14.4} {:>14.4} {:>14.4} {:>8.4} {:>7}",
            name,
            stats::median(v).unwrap_or(f64::NAN),
            q1,
            q3,
            spread,
            bound
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("--emit-spec") => {
            print!("{}", spec::spec().to_json());
            Ok(())
        }
        Some("--summarize") => argv
            .get(1)
            .ok_or_else(|| "--summarize needs a file".to_string())
            .and_then(|p| summarize(p)),
        _ => parse_args(&argv).and_then(|args| run(&args)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}
