//! Per-layer probes built only from public functions: the symbolic
//! lowering and cost integration of each S-VGG11 layer, and a replica of
//! the cycle-level temporal loop that times encoding, each layer's
//! kernel step and the simulator's phase close separately.

use std::collections::BTreeMap;
use std::time::Instant;

use snitch_sim::ClusterModel;
use spikestream::{CostModel, InferenceConfig, Plan, WorkloadMode};
use spikestream_ir::CostIntegrator;
use spikestream_kernels::{LayerExecutor, LayerInput, LayerScratch};
use spikestream_snn::encoding::pad_spikes;
use spikestream_snn::{LayerKind, SpikeMap, TemporalEncoder, Tensor3, WorkloadGenerator};

use crate::stats::median;
use crate::trace::{now_ns, thread_no, Trace};

/// Repetitions of each symbolic probe; the median is reported.
const PROBE_REPS: usize = 15;

/// `kernels.lower_us.<layer>`, `ir.cost.integrate_us.<layer>` and
/// `sim.cycles.<layer>` for `plan`'s network, variant and format at the
/// profile's steady-state rates — the lowering the plan's ahead-of-time
/// preload performs.
pub fn symbolic_probes(plan: &Plan, metrics: &mut BTreeMap<String, f64>) {
    let config = plan.config();
    let executor = LayerExecutor::new(config.variant, config.format);
    let integrator = CostIntegrator::new(plan.cluster_config().clone(), CostModel::default());
    let network = plan.network();
    let last = network.len() - 1;
    for (idx, layer) in network.layers().iter().enumerate() {
        let (input, output) = (plan.profile().rate(idx), plan.profile().rate((idx + 1).min(last)));
        let mut lower_us = Vec::with_capacity(PROBE_REPS);
        let mut integrate_us = Vec::with_capacity(PROBE_REPS);
        let mut cycles = 0;
        for _ in 0..PROBE_REPS {
            let t = Instant::now();
            let program = std::hint::black_box(executor.lower_symbolic(
                integrator.config(),
                layer,
                input,
                output,
            ));
            lower_us.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let cost = std::hint::black_box(integrator.integrate(&program));
            integrate_us.push(t.elapsed().as_secs_f64() * 1e6);
            cycles = cost.compute_cycles;
        }
        let name = &layer.name;
        metrics.insert(format!("kernels.lower_us.{name}"), median(&lower_us).unwrap_or(0.0));
        metrics
            .insert(format!("ir.cost.integrate_us.{name}"), median(&integrate_us).unwrap_or(0.0));
        metrics.insert(format!("sim.cycles.{name}"), cycles as f64);
    }
}

/// The backend's per-(sample, step) encoder seed domain: the replica must
/// draw the exact spike trains the cycle-level backend draws.
const ENCODER_DOMAIN: u64 = 0x5DEE_CE66_D1CE_5EED;

/// What one replica sample measured.
#[derive(Debug, Default)]
pub struct Replica {
    /// Simulated compute cycles per (step, layer), step-major — the
    /// `cycles` of the session's `LayerSample`s for the same sample.
    pub cycles: Vec<f64>,
    pub metrics: BTreeMap<String, f64>,
}

/// Replay one temporal sample of a cycle-level `plan` layer by layer,
/// recording `snn.encode`, `snn.stage`, `kernels.step.<layer>` and
/// `sim.finish_phase.<layer>` spans under one `backend.replica` root.
pub fn replica(
    plan: &Plan,
    config: &InferenceConfig,
    sample: usize,
    trace: &mut Trace,
    req: u64,
) -> Replica {
    let WorkloadMode::Temporal { encoding, timesteps } = config.mode else {
        panic!("the replica mirrors the temporal pipeline only");
    };
    let network = plan.network();
    let tid = thread_no();
    let root_start = now_ns();
    let root = trace.push("backend.replica", root_start, root_start, 0, req, tid);

    let image =
        WorkloadGenerator::new(plan.profile().clone(), config.seed).generate_image(network, sample);
    let encoder_seed = config.seed ^ (sample as u64).wrapping_mul(0x9e37_79b9) ^ ENCODER_DOMAIN;
    let encoder = TemporalEncoder::new(&image, encoding, encoder_seed);
    let executor = LayerExecutor::new(config.variant, config.format);
    let mut scratch = LayerScratch::new();
    scratch.begin_sample(network);
    let mut cluster = ClusterModel::new(plan.cluster_config().clone(), CostModel::default());

    let n = network.len();
    let mut step_ns = vec![0u64; n];
    let mut sums = vec![[0u64; 4]; n];
    let mut encode_ns = 0;
    let mut out = Replica::default();
    let mut encoded = Tensor3::zeros(image.shape());
    for step in 0..timesteps {
        let t0 = now_ns();
        encoder.encode_step_into(step, &mut encoded);
        let t1 = now_ns();
        trace.push("snn.encode", t0, t1, root, req, tid);
        encode_ns += t1 - t0;
        let mut carry: Option<SpikeMap> = None;
        for (idx, layer) in network.layers().iter().enumerate() {
            let staged;
            let input = if idx == 0 {
                LayerInput::Image(&encoded)
            } else {
                let t = now_ns();
                let prev = carry.take().expect("layer N feeds layer N+1");
                staged = match &layer.kind {
                    LayerKind::Conv(c) if c.padding > 0 => pad_spikes(&prev, c.padding),
                    _ => prev,
                };
                trace.push("snn.stage", t, now_ns(), root, req, tid);
                LayerInput::Spikes(&staged)
            };
            let t = now_ns();
            let (_, output) =
                executor.run_temporal_step(&mut cluster, layer, idx, input, &mut scratch);
            let t_step = now_ns();
            let stats = cluster.finish_phase(layer.name.as_str());
            let t_done = now_ns();
            trace.push(&format!("kernels.step.{}", layer.name), t, t_step, root, req, tid);
            trace.push(&format!("sim.finish_phase.{}", layer.name), t_step, t_done, root, req, tid);
            step_ns[idx] += t_step - t;
            let hidden =
                (stats.compute_cycles + stats.dma_busy_cycles).saturating_sub(stats.cycles);
            let s = &mut sums[idx];
            s[0] += stats.compute_cycles;
            s[1] += stats.dma_busy_cycles;
            s[2] += hidden;
            s[3] += stats.totals.stall_cycles();
            out.cycles.push(stats.compute_cycles as f64);
            carry = Some(output);
        }
    }
    trace.spans[root as usize - 1].end_ns = now_ns();
    for (idx, layer) in network.layers().iter().enumerate() {
        let name = &layer.name;
        let [compute, dma_busy, hidden, stall] = sums[idx];
        out.metrics.insert(format!("kernels.step_us.{name}"), step_ns[idx] as f64 / 1e3);
        out.metrics.insert(format!("sim.compute_cycles.{name}"), compute as f64);
        out.metrics.insert(format!("sim.dma_busy_cycles.{name}"), dma_busy as f64);
        out.metrics.insert(format!("sim.dma_hidden_cycles.{name}"), hidden as f64);
        out.metrics.insert(format!("sim.stall_cycles.{name}"), stall as f64);
    }
    out.metrics.insert("snn.encode_us".into(), encode_ns as f64 / 1e3);
    out
}
