//! Figure regeneration for the SpikeStream reproduction.
//!
//! The `figures` binary (`cargo run -p spikestream-bench --bin figures
//! --release`) prints every figure of the paper as a text table (see
//! [`print_figure`]). Timing lives in the repository benchmark
//! (`perfbench/`), not here.

use spikestream::experiments::{self, PAPER_BATCH};

/// Render one figure as a text table. `fig` accepts `3a`, `3b`, `3c`, `4`,
/// `5a`, `5b`, `headline` or `ablation`.
///
/// # Errors
///
/// Returns an error string if `fig` names an unknown figure.
pub fn print_figure(fig: &str, batch: usize) -> Result<String, String> {
    let mut out = String::new();
    match fig {
        "3a" => {
            out.push_str("Fig. 3a — ifmap memory footprint (bytes) and firing activity\n");
            out.push_str(&format!(
                "{:<8} {:>12} {:>12} {:>10} {:>10}\n",
                "layer", "AER [B]", "CSR [B]", "ratio", "firing"
            ));
            for r in experiments::fig3a_footprint(batch) {
                out.push_str(&format!(
                    "{:<8} {:>12.0} {:>12.0} {:>10.2} {:>9.1}%\n",
                    r.layer,
                    r.aer_bytes,
                    r.csr_bytes,
                    r.reduction(),
                    r.firing_rate * 100.0
                ));
            }
        }
        "3b" => {
            out.push_str("Fig. 3b — FPU utilization and IPC (FP16)\n");
            out.push_str(&format!(
                "{:<8} {:>12} {:>14} {:>10} {:>12}\n",
                "layer", "util base", "util stream", "IPC base", "IPC stream"
            ));
            for r in experiments::fig3b_utilization(batch) {
                out.push_str(&format!(
                    "{:<8} {:>11.1}% {:>13.1}% {:>10.2} {:>12.2}\n",
                    r.layer,
                    r.util_baseline * 100.0,
                    r.util_spikestream * 100.0,
                    r.ipc_baseline,
                    r.ipc_spikestream
                ));
            }
        }
        "3c" => {
            out.push_str("Fig. 3c — per-layer speedups\n");
            out.push_str(&format!(
                "{:<8} {:>24} {:>18}\n",
                "layer", "SpikeStream16/Base16", "FP8/FP16"
            ));
            for r in experiments::fig3c_speedup(batch) {
                out.push_str(&format!(
                    "{:<8} {:>23.2}x {:>17.2}x\n",
                    r.layer, r.spikestream_fp16_over_baseline, r.fp8_over_fp16
                ));
            }
        }
        "4" => {
            out.push_str("Fig. 4 — per-layer energy [mJ] and power [W]\n");
            out.push_str(&format!(
                "{:<8} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8}\n",
                "layer", "E base", "E fp16", "E fp8", "P base", "P fp16", "P fp8"
            ));
            for r in experiments::fig4_energy(batch) {
                out.push_str(&format!(
                    "{:<8} {:>10.4} {:>10.4} {:>10.4} {:>8.3} {:>8.3} {:>8.3}\n",
                    r.layer,
                    r.energy_baseline_mj,
                    r.energy_fp16_mj,
                    r.energy_fp8_mj,
                    r.power_baseline_w,
                    r.power_fp16_w,
                    r.power_fp8_w
                ));
            }
        }
        "5a" | "5b" | "5" => {
            out.push_str("Fig. 5 — 6th S-VGG11 layer over 500 timesteps\n");
            out.push_str(&format!(
                "{:<32} {:>14} {:>14} {:>10} {:>8}\n",
                "platform", "latency [ms]", "energy [mJ]", "GSOP", "tech"
            ));
            for r in experiments::fig5_accelerators(500, batch) {
                out.push_str(&format!(
                    "{:<32} {:>14.2} {:>14.2} {:>10.1} {:>6}nm\n",
                    r.name, r.latency_ms, r.energy_mj, r.peak_gsop, r.technology_nm
                ));
            }
        }
        "headline" => {
            let h = experiments::headline(batch);
            out.push_str("Headline end-to-end numbers (S-VGG11)\n");
            out.push_str(&format!(
                "speedup FP16 {:.2}x | speedup FP8 {:.2}x | util {:.1}% -> {:.1}% | energy gain FP16 {:.2}x | FP8 {:.2}x\n",
                h.speedup_fp16,
                h.speedup_fp8,
                h.utilization_baseline * 100.0,
                h.utilization_spikestream * 100.0,
                h.energy_gain_fp16,
                h.energy_gain_fp8
            ));
        }
        "ablation" => {
            out.push_str("Ablation — optimization stages\n");
            for r in experiments::ablation(batch) {
                out.push_str(&format!(
                    "{:<32} {:>16.0} cycles {:>8.1}% util\n",
                    r.name,
                    r.cycles,
                    r.utilization * 100.0
                ));
            }
        }
        other => return Err(format!("unknown figure '{other}'")),
    }
    Ok(out)
}

/// All figure identifiers, in paper order.
pub fn all_figures() -> [&'static str; 7] {
    ["3a", "3b", "3c", "4", "5", "headline", "ablation"]
}

/// The default full-evaluation batch (re-exported for the binary).
pub fn paper_batch() -> usize {
    PAPER_BATCH
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_figure_renders() {
        for fig in all_figures() {
            let table = print_figure(fig, 2).expect("figure renders");
            assert!(table.len() > 40, "{fig} produced an implausibly short table");
        }
    }

    #[test]
    fn unknown_figure_is_rejected() {
        assert!(print_figure("99", 2).is_err());
    }
}
