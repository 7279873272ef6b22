//! Stream-program executor.
//!
//! [`ClusterExecutor`] runs an *exact* stream program on a
//! [`ClusterModel`] as a [`ProgramSink`]: the kernels' exact emitters write
//! into it directly, so each work item executes the moment it is complete
//! and its op buffer is reused for the next one — a simulated layer never
//! exists as a whole [`StreamProgram`]. DMA phases go to the cluster's DMA
//! engine (double-buffered transfers overlap compute, prologue loads gate
//! it, epilogue write-backs wait for it); work items are distributed over
//! the worker cores by workload stealing — always handing the next item to
//! the core whose pipeline is the least advanced in time, exactly the
//! atomic `next_rf` scheme of the paper's Fig. 2b — and every
//! [`KernelOp`] lowers to the trace operations of the per-core timing
//! model. [`execute_program`] replays a stored program through the same
//! executor, item by item, so there is one interpreter for both.
//!
//! The analytic backend prices the *same* emitter output, collected into a
//! [`StreamProgram`], with `spikestream_ir::CostIntegrator`; the two are
//! pinned against each other by the `ir_equivalence` property tests at the
//! repository root.

use snitch_arch::fp::FpFormat;
use snitch_arch::TraceOp;
use snitch_mem::dma::DmaDirection;
use spikestream_ir::{CodeRegion, DmaPhase, KernelOp, Phase, ProgramSink, StreamProgram};

use crate::cluster::ClusterModel;
use crate::core_model::WorkerCoreModel;

/// A [`ProgramSink`] that executes an exact program on a cluster as it is
/// emitted.
///
/// Timing accumulates in the cluster's cores and DMA engine; close the
/// phase with [`ClusterModel::finish_phase`] to collect the statistics.
/// The op buffer handed out by [`ProgramSink::begin_item`] is borrowed
/// from the caller, so a caller that keeps it across layers (the kernels'
/// `LayerScratch` does) allocates no work items once it is warm.
#[derive(Debug)]
pub struct ClusterExecutor<'a> {
    cluster: &'a mut ClusterModel,
    format: FpFormat,
    ops: &'a mut Vec<KernelOp>,
    code: Vec<CodeRegion>,
    /// Completion time of the latest prologue load the compute stream
    /// must wait for.
    prologue_floor: u64,
}

impl<'a> ClusterExecutor<'a> {
    /// An executor for programs of storage format `format` whose emitted
    /// items are written into `ops` (any previous contents are discarded).
    pub fn new(
        cluster: &'a mut ClusterModel,
        format: FpFormat,
        ops: &'a mut Vec<KernelOp>,
    ) -> Self {
        ClusterExecutor { cluster, format, ops, code: Vec::new(), prologue_floor: 0 }
    }
}

/// The per-item executor shared by [`ClusterExecutor`] and
/// [`execute_program`]: the least advanced core steals the item, fetches
/// the compute phase's `code` and executes `ops`.
fn run_item(cluster: &mut ClusterModel, code: &[CodeRegion], format: FpFormat, ops: &[KernelOp]) {
    let core = cluster.least_busy_core();
    for region in code {
        cluster.fetch_code(core, region.id, region.bytes);
    }
    let model = cluster.core_mut(core);
    for op in ops {
        exec_op(model, op, format);
    }
}

impl ProgramSink for ClusterExecutor<'_> {
    fn dma(&mut self, phase: DmaPhase) {
        let at = if phase.direction == DmaDirection::Out && !phase.double_buffered {
            // Epilogue write-back: wait for the compute stream.
            compute_time(self.cluster)
        } else {
            // Prologue loads and double-buffered transfers issue as early
            // as the engine allows.
            0
        };
        let done = self.cluster.dma_issue(phase.request(), at);
        if phase.direction == DmaDirection::In && !phase.double_buffered {
            self.prologue_floor = self.prologue_floor.max(done);
        }
    }

    fn begin_compute(&mut self, code: &[CodeRegion]) {
        self.cluster.stall_cores_until_dma(self.prologue_floor);
        self.code.clear();
        self.code.extend_from_slice(code);
    }

    fn begin_item(&mut self) -> &mut Vec<KernelOp> {
        self.ops.clear();
        self.ops
    }

    fn end_item(&mut self) {
        run_item(self.cluster, &self.code, self.format, self.ops);
    }

    fn end_compute(&mut self) {
        // Implicit end-of-phase barrier: every core joins its outstanding
        // FP work.
        for core in 0..self.cluster.worker_cores() {
            self.cluster.core_mut(core).exec(&TraceOp::Barrier);
        }
    }
}

/// Execute one stored exact stream program on the cluster: a replay of
/// its phases through [`ClusterExecutor`], each item instance run as if it
/// had just been emitted.
///
/// Timing accumulates in the cluster's cores and DMA engine; close the
/// phase with [`ClusterModel::finish_phase`] to collect the statistics.
///
/// # Panics
///
/// Panics if the program is symbolic (fractional repetition counts or
/// expected-length streams) — symbolic programs can only be integrated.
pub fn execute_program(cluster: &mut ClusterModel, program: &StreamProgram) {
    assert!(
        !program.is_symbolic(),
        "symbolic programs cannot be interpreted; use the analytic cost integration"
    );
    let mut unused = Vec::new();
    let mut executor = ClusterExecutor::new(cluster, program.format, &mut unused);
    for phase in &program.phases {
        match phase {
            Phase::Dma(d) => executor.dma(d.clone()),
            Phase::Compute(c) => {
                executor.begin_compute(&c.code);
                for item in &c.items {
                    for _ in 0..item.instances as u64 {
                        run_item(executor.cluster, &executor.code, executor.format, &item.ops);
                    }
                }
                executor.end_compute();
            }
        }
    }
}

/// Completion time of the slowest worker core so far.
fn compute_time(cluster: &ClusterModel) -> u64 {
    cluster.cores().iter().map(|c| c.counters().total_cycles()).max().unwrap_or(0)
}

fn exec_op(core: &mut WorkerCoreModel, op: &KernelOp, format: FpFormat) {
    match op {
        KernelOp::Int { op, addr: _, reps } => {
            core.exec_int_repeated(*op, int_reps(*reps));
        }
        KernelOp::Fp { op, addr: _, reps } => {
            core.exec_fp_repeated(*op, format, int_reps(*reps));
        }
        KernelOp::Loop { body, reps } => {
            let reps = int_reps(*reps);
            if reps == 0 {
                return;
            }
            if let Some(block) = straight_line_block(body, format) {
                core.exec_repeated(&block, reps);
            } else {
                for _ in 0..reps {
                    for inner in body {
                        exec_op(core, inner, format);
                    }
                }
            }
        }
        KernelOp::Stream { ssrs, op } => core.exec_stream(ssrs, *op, format),
        KernelOp::Barrier => core.exec(&TraceOp::Barrier),
    }
}

/// Expand a straight-line `Int`/`Fp` body into the trace block consumed by
/// the repetition fast path; `None` if the body contains control flow.
fn straight_line_block(body: &[KernelOp], format: FpFormat) -> Option<Vec<TraceOp>> {
    let mut block = Vec::with_capacity(body.len());
    for op in body {
        match op {
            KernelOp::Int { op, addr, reps } => {
                let trace = TraceOp::Int { op: *op, addr: *addr };
                for _ in 0..int_reps(*reps) {
                    block.push(trace.clone());
                }
            }
            KernelOp::Fp { op, addr, reps } => {
                let trace = TraceOp::Fp { op: *op, format, ssr_srcs: Vec::new(), addr: *addr };
                for _ in 0..int_reps(*reps) {
                    block.push(trace.clone());
                }
            }
            _ => return None,
        }
    }
    Some(block)
}

fn int_reps(reps: f64) -> u64 {
    debug_assert!(reps.fract() == 0.0, "exact programs carry integral repetition counts");
    reps as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use snitch_arch::isa::FpOp;
    use snitch_arch::{ClusterConfig, CostModel, SsrId};
    use spikestream_ir::{
        CodeRegion, ComputePhase, CostIntegrator, DmaPhase, IndexStream, StreamSpec, WorkItem,
    };

    fn cluster() -> ClusterModel {
        ClusterModel::new(ClusterConfig::default(), CostModel::default())
    }

    fn stream_item(n: u32) -> WorkItem {
        WorkItem::new(vec![
            KernelOp::amo(0),
            KernelOp::branch(),
            KernelOp::Stream {
                ssrs: vec![(
                    SsrId::Ssr0,
                    StreamSpec::Indirect {
                        index_base: 0x100,
                        index_bytes: 2,
                        data_base: 0x1000,
                        elem_bytes: 8,
                        indices: IndexStream::Exact((0..n).collect()),
                    },
                )],
                op: FpOp::Add,
            },
        ])
    }

    fn program(items: Vec<WorkItem>) -> StreamProgram {
        let mut p = StreamProgram::new("test", FpFormat::Fp16);
        p.push(Phase::Dma(DmaPhase::contiguous(DmaDirection::In, 4096, false)));
        p.push(Phase::Compute(ComputePhase {
            code: vec![CodeRegion { id: 0x99, bytes: 512 }],
            items,
        }));
        p.push(Phase::Dma(DmaPhase::contiguous(DmaDirection::Out, 256, false)));
        p
    }

    #[test]
    fn interpreter_and_integrator_agree_exactly_on_totals() {
        let p = program((0..32).map(|_| stream_item(128)).collect());
        let mut cl = cluster();
        execute_program(&mut cl, &p);
        let stats = cl.finish_phase("x");

        let cost = CostIntegrator::snitch().integrate(&p);
        assert_eq!(stats.totals.int_instrs as f64, cost.int_instrs);
        assert_eq!(stats.totals.fp_instrs as f64, cost.fp_instrs);
        assert_eq!(stats.totals.flops as f64, cost.flops);
        assert_eq!(stats.totals.stream_elements as f64, cost.stream_elements);
        assert_eq!(stats.dma_bytes_in, cost.dma_bytes_in);
        assert_eq!(stats.dma_bytes_out, cost.dma_bytes_out);
        // Cycle counts track each other closely (distribution is identical
        // here, so the only slack is bookkeeping).
        let rel = (stats.compute_cycles as f64 - cost.compute_cycles as f64).abs()
            / stats.compute_cycles as f64;
        assert!(
            rel < 0.02,
            "compute cycles within 2%: sim {} vs ir {}",
            stats.compute_cycles,
            cost.compute_cycles
        );
    }

    #[test]
    fn prologue_load_gates_compute() {
        let mut p = StreamProgram::new("gate", FpFormat::Fp16);
        p.push(Phase::Dma(DmaPhase::contiguous(DmaDirection::In, 1 << 16, false)));
        p.push(Phase::Compute(ComputePhase {
            code: vec![],
            items: vec![WorkItem::new(vec![KernelOp::alu()])],
        }));
        let mut cl = cluster();
        execute_program(&mut cl, &p);
        let stats = cl.finish_phase("gate");
        assert!(stats.compute_cycles > 1000, "cores wait for the tile load");
        assert!(stats.totals.stall_dma_wait > 0);
    }

    #[test]
    fn double_buffered_transfers_overlap_compute() {
        let mut p = StreamProgram::new("db", FpFormat::Fp16);
        p.push(Phase::Dma(DmaPhase::contiguous(DmaDirection::In, 1 << 14, false)));
        for _ in 0..4 {
            p.push(Phase::Dma(DmaPhase::contiguous(DmaDirection::In, 1 << 14, true)));
        }
        p.push(Phase::Compute(ComputePhase {
            code: vec![],
            items: (0..64).map(|_| stream_item(256)).collect(),
        }));
        let mut cl = cluster();
        execute_program(&mut cl, &p);
        let stats = cl.finish_phase("db");
        assert!(
            stats.cycles < stats.compute_cycles + stats.dma_busy_cycles,
            "double-buffered tiles must hide behind compute: cycles {} compute {} dma busy {}",
            stats.cycles,
            stats.compute_cycles,
            stats.dma_busy_cycles
        );
    }

    #[test]
    fn epilogue_writeback_waits_for_compute() {
        let mut p = StreamProgram::new("ep", FpFormat::Fp16);
        p.push(Phase::Compute(ComputePhase {
            code: vec![],
            items: (0..8).map(|_| stream_item(512)).collect(),
        }));
        p.push(Phase::Dma(DmaPhase::contiguous(DmaDirection::Out, 4096, false)));
        let mut cl = cluster();
        execute_program(&mut cl, &p);
        let stats = cl.finish_phase("ep");
        assert!(stats.dma_cycles > stats.compute_cycles, "write-back lands after compute");
        assert_eq!(stats.cycles, stats.dma_cycles);
    }

    #[test]
    #[should_panic(expected = "symbolic programs")]
    fn symbolic_program_is_rejected() {
        let mut p = StreamProgram::new("sym", FpFormat::Fp16);
        p.push(Phase::Compute(ComputePhase {
            code: vec![],
            items: vec![WorkItem::new(vec![KernelOp::alu().times(0.5)])],
        }));
        execute_program(&mut cluster(), &p);
    }

    #[test]
    fn work_items_spread_over_all_cores() {
        let p = program((0..16).map(|_| stream_item(64)).collect());
        let mut cl = cluster();
        execute_program(&mut cl, &p);
        assert!(cl.cores().iter().all(|c| c.counters().int_instrs > 0), "every core claims work");
    }
}
