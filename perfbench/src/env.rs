//! Host facts, the record fingerprint, hashing and the seeded generator.

use std::path::Path;

use spikestream::{CostModel, LayerSample, Plan};
use spikestream_ir::CostIntegrator;
use spikestream_kernels::LayerExecutor;

use crate::json::Json;

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }

    /// Every bit of every field of `layers`.
    pub fn layers(&mut self, layers: &[LayerSample]) {
        for l in layers {
            for w in sample_bits(l) {
                self.word(w);
            }
        }
    }
}

fn sample_bits(l: &LayerSample) -> [u64; 10] {
    [
        l.cycles.to_bits(),
        l.fpu_utilization.to_bits(),
        l.ipc.to_bits(),
        l.input_firing_rate.to_bits(),
        l.input_spikes.to_bits(),
        l.synops.to_bits(),
        l.energy_j.to_bits(),
        l.dma_bytes.to_bits(),
        l.csr_footprint_bytes.to_bits(),
        l.aer_footprint_bytes.to_bits(),
    ]
}

/// Bit-for-bit equality of two measurement streams (`-0.0 != 0.0`, NaN
/// payloads compared too).
pub fn same_bits(a: &[LayerSample], b: &[LayerSample]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| sample_bits(x) == sample_bits(y))
}

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host CPU time so far as `(all, steal)` jiffies from `/proc/stat`:
/// steal is time the hypervisor gave this machine's CPUs to others.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| l.split_whitespace().filter_map(|f| f.parse().ok()).collect())
        .unwrap_or_default();
    (fields.iter().sum(), fields.get(7).copied().unwrap_or(0))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split(':').nth(1)))
        .map_or_else(|| "unknown".to_string(), |m| m.trim().to_string())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; "unknown" outside a repository.
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() { "unknown".to_string() } else { head.to_string() };
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Digest of the library sources the benchmark builds (every file under
/// `crates/`), identifying the code even where no git metadata exists.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h = Fnv::default();
    for f in files {
        h.bytes(f.to_string_lossy().as_bytes());
        h.bytes(&std::fs::read(&f).unwrap_or_default());
    }
    h.0
}

/// Stable hash of a plan: its configuration and the integrated cost of
/// every layer's symbolic lowering at the profile's steady-state rates,
/// computed through the public API.
pub fn plan_fingerprint(plan: &Plan) -> u64 {
    let config = plan.config();
    let executor = LayerExecutor::new(config.variant, config.format);
    let integrator = CostIntegrator::new(plan.cluster_config().clone(), CostModel::default());
    let network = plan.network();
    let last = network.len() - 1;
    let mut h = Fnv::default();
    h.bytes(format!("{config:?}").as_bytes());
    h.bytes(plan.backend().name().as_bytes());
    for (idx, layer) in network.layers().iter().enumerate() {
        let (input, output) = (plan.profile().rate(idx), plan.profile().rate((idx + 1).min(last)));
        let cost = integrator.integrate(&executor.lower_symbolic(
            integrator.config(),
            layer,
            input,
            output,
        ));
        h.bytes(format!("{}:{cost:?}", layer.name).as_bytes());
    }
    h.0
}

/// The fingerprint stamped on every record: host, code, seed and plan.
pub fn fingerprint(workload: &str, seed: u64, trace: bool, plan_hash: u64, digest: u64) -> Json {
    Json::Obj(vec![
        ("workload".into(), Json::Str(workload.to_string())),
        ("seed".into(), Json::Num(seed as f64)),
        ("trace".into(), Json::Bool(trace)),
        ("nproc".into(), Json::Num(nproc() as f64)),
        ("cpu".into(), Json::Str(cpu_model())),
        ("commit".into(), Json::Str(git_commit())),
        ("source".into(), Json::Str(format!("{:016x}", source_digest()))),
        ("plan".into(), Json::Str(format!("{plan_hash:016x}"))),
        ("outputs".into(), Json::Str(format!("{digest:016x}"))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_uniform_enough() {
        let a: Vec<u64> = (0..4).scan(Rng::new(7, 1), |r, _| Some(r.next_u64())).collect();
        let b: Vec<u64> = (0..4).scan(Rng::new(7, 1), |r, _| Some(r.next_u64())).collect();
        let c: Vec<u64> = (0..4).scan(Rng::new(8, 1), |r, _| Some(r.next_u64())).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut r = Rng::new(1, 2);
        let m = (0..10_000).map(|_| r.unit()).sum::<f64>() / 10_000.0;
        assert!((m - 0.5).abs() < 0.02, "{m}");
    }

    #[test]
    fn bit_comparison_distinguishes_signed_zero() {
        let a = [LayerSample { cycles: 0.0, ..Default::default() }];
        let b = [LayerSample { cycles: -0.0, ..Default::default() }];
        assert!(same_bits(&a, &a));
        assert!(!same_bits(&a, &b));
    }
}
