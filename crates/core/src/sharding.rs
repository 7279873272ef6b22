//! Fleet attribution: many samples across many simulated clusters.
//!
//! A sharded [`Request`](crate::Request) runs on the
//! [`Session`](crate::Session) like any other: worker threads claim
//! chunks of sample indices and evaluate them, and the order in which
//! they finish is host scheduling noise. Only afterwards are the
//! deterministic per-sample cycle totals replayed through a [`ShardSet`]
//! (`snitch-sim`) by [`attribute_shards`]: samples are dispatched in
//! stream order, each to the shard with the least accumulated simulated
//! cycles (the paper's `next_rf` workload stealing, lifted from receptive
//! fields to batch samples). The assignment is a pure function of the
//! results, hence identical no matter how the host threads raced, and the
//! aggregate report stays bit-identical to a sequential request.

use snitch_sim::ShardSet;

use crate::report::{ShardSummary, ShardUtilization};

/// Atomic bump of the shared batch cursor plus the branch of the stealing
/// loop, charged per dispatched sample in simulated time (mirrors the
/// per-RF overhead the kernels charge for `next_rf` stealing).
pub const DISPATCH_CYCLES: f64 = 2.0;

/// Largest shard count a scenario file or the CLI may ask for. A shard
/// costs one [`ShardSet`] slot, so an unchecked count from outside input
/// (`shards = 4000000000`) would abort on allocation; the largest fleet
/// the repository itself runs is under 64 shards.
pub const MAX_SHARDS: usize = 4096;

/// Largest samples × timesteps product one run may ask for. A run's result
/// buffer holds one [`LayerSample`](crate::LayerSample) (80 bytes) per
/// sample per timestep per layer, so this bounds it at 80 MiB per network
/// layer (640 MiB for S-VGG11); an unchecked `timesteps = 1099511627776`
/// from outside input would abort on allocation instead. The largest run
/// the repository itself makes is the paper batch of 128 samples × 1 step.
pub const MAX_SAMPLE_STEPS: usize = 1 << 20;

/// The host worker-count sizing policy of the serving
/// [`Session`](crate::Session) pool: never run more workers than there
/// are chunks to steal (extra workers would claim nothing and pay wakeup
/// churn for no parallelism), and always run at least one.
pub(crate) fn clamp_workers(workers: usize, chunks: usize) -> usize {
    workers.clamp(1, chunks.max(1))
}

/// Deterministic fleet attribution of per-sample cycle totals to `shards`
/// simulated clusters: samples are dispatched in slice order, each to the
/// shard with the least accumulated simulated cycles, exactly as a
/// [`Session`](crate::Session) attributes a sharded request. A pure
/// function of its inputs, so a serving gateway that coalesces several
/// requests into one run can re-attribute each request's own samples
/// afterwards and obtain the bit-identical [`ShardSummary`] a bare
/// single-request session run would have produced.
pub fn attribute_shards(sample_cycles: &[f64], shards: usize) -> ShardSummary {
    let mut set = ShardSet::new(shards.max(1)).with_dispatch_cycles(DISPATCH_CYCLES);
    for &cycles in sample_cycles {
        set.assign(cycles);
    }
    fleet_summary(&set)
}

/// Fleet statistics of a populated [`ShardSet`].
fn fleet_summary(set: &ShardSet) -> ShardSummary {
    ShardSummary {
        shards: set
            .shards()
            .iter()
            .map(|s| ShardUtilization {
                shard: s.id(),
                samples: s.samples(),
                busy_cycles: s.busy_cycles(),
                utilization: set.utilization(s.id()),
            })
            .collect(),
        makespan_cycles: set.makespan_cycles(),
        imbalance: set.imbalance(),
        batch_speedup: set.batch_speedup(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{AnalyticBackend, ExecutionBackend, LayerSample};
    use crate::{Engine, FnSink, InferenceConfig, Request, TimingModel, WorkloadMode};
    use snitch_arch::fp::FpFormat;
    use spikestream_kernels::KernelVariant;

    fn config(batch: usize) -> InferenceConfig {
        InferenceConfig {
            variant: KernelVariant::SpikeStream,
            format: FpFormat::Fp16,
            timing: TimingModel::Analytic,
            batch,
            seed: 0xFEED,
            mode: WorkloadMode::Synthetic,
        }
    }

    #[test]
    fn flat_buffer_matches_per_sample_backend_output() {
        let engine = Engine::svgg11(4);
        let cfg = config(10);
        let ctx = engine.sample_context(&cfg);
        let layers = engine.network().len();
        // A three-worker request lands every sample in its slot of one
        // flat buffer, whichever worker ran it.
        let plan = engine.compile(&cfg);
        let flat = std::sync::Mutex::new(vec![LayerSample::default(); 10 * layers]);
        let mut sink = FnSink(|sample: usize, out: &[LayerSample]| {
            flat.lock().unwrap()[sample * layers..(sample + 1) * layers].copy_from_slice(out);
        });
        plan.open_session().run(&Request::batch(10).with_workers(3), &mut sink);
        let flat = flat.into_inner().unwrap();
        for sample in 0..10 {
            assert_eq!(
                &flat[sample * layers..(sample + 1) * layers],
                AnalyticBackend.run_sample(&ctx, sample).as_slice()
            );
        }
    }

    #[test]
    fn attribution_is_stable_across_worker_counts() {
        let plan = Engine::svgg11(4).compile(&config(32));
        let mut session = plan.open_session();
        let request = Request::batch(32).with_shards(4);
        let reference = session.infer(&request.clone().sequential());
        for workers in [2, 3, 8] {
            assert_eq!(session.infer(&request.clone().with_workers(workers)), reference);
        }
    }

    #[test]
    fn every_sample_is_attributed_exactly_once() {
        let cycles: Vec<f64> = (0..25).map(|s| 1_000.0 + 37.0 * (s % 7) as f64).collect();
        let summary = attribute_shards(&cycles, 8);
        assert_eq!(summary.shards.len(), 8);
        assert_eq!(summary.shards.iter().map(|s| s.samples).sum::<u64>(), 25);
        assert!(summary.shards.iter().all(|s| s.utilization > 0.0 && s.utilization <= 1.0));
        assert!(summary.imbalance >= 1.0);
        assert!(summary.batch_speedup > 1.0 && summary.batch_speedup <= 8.0);
    }
}
