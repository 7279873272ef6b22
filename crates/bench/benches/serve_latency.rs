//! Bench for the serving hot path's worker-pool dispatch.
//!
//! Sweeps workers {1, 2, 4, 8} × batch {1, 64, 512} over one warm
//! analytic [`Session`](spikestream::Session) per point and measures the
//! per-request latency of the parked-pool executor (`pool/w<N>/b<B>`).
//! Single-worker requests bypass the pool entirely (slot 0 is the calling
//! thread), so `pool/w1/...` is the no-dispatch baseline each multi-worker
//! point is read against: the gap is the cost of one condvar wakeup per
//! worker plus the shared claim loop, set against the parallel speedup
//! the host's cores allow.

use criterion::{criterion_group, criterion_main, Criterion};
use spikestream::{
    Engine, FpFormat, InferenceConfig, KernelVariant, Request, TimingModel, WorkloadMode,
};
use std::time::Duration;

fn config(batch: usize) -> InferenceConfig {
    InferenceConfig {
        variant: KernelVariant::SpikeStream,
        format: FpFormat::Fp16,
        timing: TimingModel::Analytic,
        batch,
        seed: 0xC1FA,
        mode: WorkloadMode::Synthetic,
    }
}

fn bench(c: &mut Criterion) {
    let engine = Engine::svgg11(1);

    for &batch in &[1usize, 64, 512] {
        let cfg = config(batch);
        let plan = engine.compile(&cfg);
        for &workers in &[1usize, 2, 4, 8] {
            let request = Request::batch(batch).with_workers(workers);

            let mut session = plan.open_session();
            session.infer(&request); // warm: spawn pool threads, size arenas
            let name = format!("pool/w{workers}/b{batch}");
            c.bench_function(name.as_str(), |b| {
                b.iter(|| session.infer(std::hint::black_box(&request)))
            });
        }
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_secs(1));
    targets = bench
}
criterion_main!(benches);
