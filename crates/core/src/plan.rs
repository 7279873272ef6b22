//! Ahead-of-time compilation: [`Compiler`] → [`Plan`].
//!
//! The serving lifecycle separates the work that depends only on the
//! *network and configuration* from the work that depends on each
//! *request*:
//!
//! ```text
//! Compiler ──compile──▶ Plan ──open_session──▶ Session ──run──▶ ResultSink
//! (model + profile +    (validated config,     (worker scratch   (per-sample
//!  hardware models)      bound backend,         arenas, per-      LayerSamples,
//!                        AOT-lowered program    sample membrane   fleet stats;
//!                        cache)                 state)            fold ⇒ report)
//! ```
//!
//! [`Compiler::compile`] performs every per-model step exactly once:
//! config/profile validation, binding the execution backend as a
//! *plan-owned value* (no `&'static` registry), and ahead-of-time lowering
//! of every layer's symbolic [`StreamProgram`](spikestream_ir::StreamProgram)
//! into the plan-owned [`ProgramCache`] — keyed by `(layer, kernel class,
//! format, sparsity bucket)`, with realized sparsities served by
//! `Expected`-count re-binding instead of re-emission. The per-sample hot
//! path of a [`Session`] then only looks programs up.
//!
//! A [`Plan`] is immutable, `Send + Sync` (asserted at compile time below)
//! and cheap to share: wrap it in an `Arc` and open one session per worker
//! task, or serve one long-lived session request after request.

use snitch_arch::{ClusterConfig, CostModel};
use spikestream_energy::EnergyModel;
use spikestream_ir::{CostIntegrator, ProgramCache};
use spikestream_kernels::LayerExecutor;
use spikestream_snn::{FiringProfile, Network};

use crate::backend::{backend_for, ExecutionBackend, LayerSample, SampleContext};
use crate::engine::{InferenceConfig, TimingModel};
use crate::report::InferenceReport;
use crate::session::{Request, Session};
use crate::sharding::MAX_SAMPLE_STEPS;

/// A validation failure of [`Compiler::compile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The firing profile does not cover every layer of the network.
    ProfileTooShort {
        /// Network name.
        network: String,
        /// Layers in the network.
        layers: usize,
        /// Rates in the profile.
        rates: usize,
    },
    /// The configured batch size is zero.
    EmptyBatch,
    /// The configured batch × timesteps product exceeds
    /// [`MAX_SAMPLE_STEPS`], which bounds every run's result buffer.
    TooManySampleSteps {
        /// Configured batch size.
        batch: usize,
        /// Configured timesteps per sample.
        timesteps: usize,
    },
    /// A layer's neuron-model parameters fail validation.
    InvalidNeuronParams {
        /// Name of the offending layer.
        layer: String,
        /// Model spelling (`lif` | `izhikevich`).
        model: &'static str,
        /// The parameter-level failure.
        message: String,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::ProfileTooShort { network, layers, rates } => write!(
                f,
                "firing profile covers {rates} layers but network `{network}` has {layers}"
            ),
            CompileError::EmptyBatch => write!(f, "batch must be at least 1"),
            CompileError::TooManySampleSteps { batch, timesteps } => write!(
                f,
                "batch × timesteps = {batch} × {timesteps} exceeds MAX_SAMPLE_STEPS \
                 ({MAX_SAMPLE_STEPS})"
            ),
            CompileError::InvalidNeuronParams { layer, model, message } => {
                write!(f, "layer `{layer}` has invalid {model} parameters: {message}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Builds [`Plan`]s: the one place in the workspace that assembles a
/// network, its firing profile, the hardware and energy models and an
/// execution backend into a servable unit. `Scenario` and the `spikestream`
/// CLI both construct engines through this type — neither assembles
/// backends by hand.
///
/// # Example
///
/// ```
/// use spikestream::{
///     Compiler, FpFormat, InferenceConfig, KernelVariant, Network, FiringProfile, Request,
/// };
///
/// let compiler = Compiler::new(Network::svgg11(7), FiringProfile::paper_svgg11());
/// let plan = compiler
///     .compile(InferenceConfig {
///         batch: 4,
///         ..InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16)
///     })
///     .unwrap();
/// let report = plan.open_session().infer(&Request::batch(4));
/// assert!(report.total_cycles() > 0.0);
/// ```
pub struct Compiler {
    network: Network,
    profile: FiringProfile,
    cluster: ClusterConfig,
    cost: CostModel,
    energy: EnergyModel,
    backend: Option<Box<dyn ExecutionBackend>>,
}

impl Compiler {
    /// A compiler for `network` under `profile` with the default cluster,
    /// cost and energy models.
    pub fn new(network: Network, profile: FiringProfile) -> Self {
        Compiler {
            network,
            profile,
            cluster: ClusterConfig::default(),
            cost: CostModel::default(),
            energy: EnergyModel::calibrated(),
            backend: None,
        }
    }

    /// Replace the cluster configuration.
    pub fn with_cluster(mut self, cluster: ClusterConfig) -> Self {
        self.cluster = cluster;
        self
    }

    /// Replace the cost model (used by the ablation experiments).
    pub fn with_cost_model(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Replace the energy model.
    pub fn with_energy_model(mut self, energy: EnergyModel) -> Self {
        self.energy = energy;
        self
    }

    /// Bind an explicit execution backend instead of the built-in one the
    /// config's timing model selects. The plan *owns* the backend; this is
    /// the supported path for third-party backends under the serving API.
    pub fn with_backend(mut self, backend: Box<dyn ExecutionBackend>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// Compile `config` into a servable [`Plan`]: validate, bind the
    /// backend, and lower every layer's symbolic stream program into the
    /// plan-owned cache at the profile's steady-state rates.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] when the profile does not cover the
    /// network, the batch is empty, batch × timesteps exceeds
    /// [`MAX_SAMPLE_STEPS`], or any layer carries invalid neuron-model
    /// parameters.
    pub fn compile(self, config: InferenceConfig) -> Result<Plan, CompileError> {
        let Compiler { network, profile, cluster, cost, energy, backend } = self;
        if profile.len() < network.len() {
            return Err(CompileError::ProfileTooShort {
                network: network.name.clone(),
                layers: network.len(),
                rates: profile.len(),
            });
        }
        if config.batch == 0 {
            return Err(CompileError::EmptyBatch);
        }
        if config.batch.saturating_mul(config.timesteps()) > MAX_SAMPLE_STEPS {
            return Err(CompileError::TooManySampleSteps {
                batch: config.batch,
                timesteps: config.timesteps(),
            });
        }
        for layer in network.layers() {
            if let Err(message) = layer.neuron.validate() {
                return Err(CompileError::InvalidNeuronParams {
                    layer: layer.name.clone(),
                    model: layer.neuron.as_str(),
                    message,
                });
            }
        }
        let backend = backend.unwrap_or_else(|| backend_for(config.timing));

        // The plan owns one cost integrator and one layer executor: the
        // preload below and every per-sample evaluation of every session
        // share them through the [`SampleContext`], so the serving hot
        // path never re-clones the cluster configuration or cost model.
        let integrator = CostIntegrator::new(cluster.clone(), cost.clone());
        let executor = LayerExecutor::new(config.variant, config.format);

        // Ahead-of-time lowering: every layer's template program, emitted
        // and integrated once at the profile's steady-state rates. Runtime
        // bindings at realized sparsities re-bind these templates (or hit
        // them exactly); the per-sample loop never emits from scratch on
        // the serving steady state. Only symbolic (analytic-timing) plans
        // read the cache — cycle-level plans lower exactly, per input, so
        // warming would be pure waste for them.
        let programs = ProgramCache::new();
        if config.timing == TimingModel::Analytic {
            let last = network.len().saturating_sub(1);
            for (idx, layer) in network.layers().iter().enumerate() {
                let input_rate = profile.rate(idx);
                let output_rate = profile.rate((idx + 1).min(last));
                executor.preload_symbolic(
                    &programs,
                    &integrator,
                    idx,
                    layer,
                    input_rate,
                    output_rate,
                );
            }
        }

        Ok(Plan {
            network,
            profile,
            cluster,
            cost,
            energy,
            config,
            backend,
            programs,
            integrator,
            executor,
        })
    }
}

impl std::fmt::Debug for Compiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Compiler")
            .field("network", &self.network.name)
            .field("backend", &self.backend.as_ref().map(|b| b.name()))
            .finish_non_exhaustive()
    }
}

/// A compiled, immutable, servable inference plan: the validated
/// configuration, the plan-owned execution backend and the AOT-lowered
/// program cache. Open sessions against it to serve requests; every
/// session of a plan shares its cache.
pub struct Plan {
    network: Network,
    profile: FiringProfile,
    cluster: ClusterConfig,
    cost: CostModel,
    energy: EnergyModel,
    config: InferenceConfig,
    backend: Box<dyn ExecutionBackend>,
    programs: ProgramCache,
    integrator: CostIntegrator,
    executor: LayerExecutor,
}

// `Plan` must stay shareable across serving threads: backends are owned
// values (`Box<dyn ExecutionBackend>` with `Send + Sync` supertraits) and
// the program cache is internally synchronized. Checked at compile time.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Plan>();
};

impl Plan {
    /// The configuration this plan was compiled from.
    pub fn config(&self) -> &InferenceConfig {
        &self.config
    }

    /// The network being served.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The firing profile driving workload generation.
    pub fn profile(&self) -> &FiringProfile {
        &self.profile
    }

    /// The cluster configuration.
    pub fn cluster_config(&self) -> &ClusterConfig {
        &self.cluster
    }

    /// The plan-owned execution backend.
    pub fn backend(&self) -> &dyn ExecutionBackend {
        self.backend.as_ref()
    }

    /// The plan-owned symbolic program cache (hit/rebind/emit counters
    /// included — see
    /// [`ProgramCache::counters`](spikestream_ir::ProgramCache::counters)).
    pub fn programs(&self) -> &ProgramCache {
        &self.programs
    }

    /// Open a long-lived serving session: worker scratch arenas and
    /// per-sample membrane state live in the session and are reused across
    /// every request it serves.
    pub fn open_session(&self) -> Session<'_> {
        Session::new(self)
    }

    /// One-shot convenience: serve the plan's full configured batch through
    /// a throwaway session and fold the results into a report. Equivalent
    /// to `plan.open_session().infer(&Request::batch(plan.config().batch))`.
    pub fn run(&self) -> InferenceReport {
        self.open_session().infer(&Request::batch(self.config.batch))
    }

    /// The request-effective configuration: the compiled config with the
    /// request's timestep override applied (see [`Request::timesteps`]).
    pub fn effective_config(&self, request: &Request) -> InferenceConfig {
        match request.timesteps {
            Some(t) => self.config.temporal_steps(t),
            None => self.config,
        }
    }

    /// Fold a slot-major flat buffer of per-layer measurements (the layout
    /// a [`ReportSink`](crate::session::ResultSink) demultiplexer
    /// accumulates: `batch` samples × one [`LayerSample`] per layer per
    /// timestep) into the [`InferenceReport`] a bare session would produce
    /// for an equivalent request — the demux half of a coalescing gateway,
    /// which re-folds each client's slice of a shared run separately.
    pub fn fold_report(
        &self,
        request: &Request,
        flat: &[LayerSample],
        batch: usize,
    ) -> InferenceReport {
        let config = self.effective_config(request);
        InferenceReport::fold_batch(&self.network, self.clock_hz(), &config, flat, batch)
    }

    /// The shared per-sample evaluation context for an effective config,
    /// bound to the plan's program cache.
    pub(crate) fn context<'a>(&'a self, config: &'a InferenceConfig) -> SampleContext<'a> {
        SampleContext {
            network: &self.network,
            profile: &self.profile,
            cluster: &self.cluster,
            cost: &self.cost,
            energy: &self.energy,
            config,
            programs: Some(&self.programs),
            integrator: &self.integrator,
            executor: self.executor,
        }
    }

    /// Clock frequency used to convert cycles to seconds in reports.
    pub fn clock_hz(&self) -> f64 {
        self.cluster.clock_hz
    }
}

impl std::fmt::Debug for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Plan")
            .field("network", &self.network.name)
            .field("config", &self.config)
            .field("backend", &self.backend.name())
            .field("cached_programs", &self.programs.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FpFormat, KernelVariant};

    #[test]
    fn compile_validates_the_profile_against_the_network() {
        let compiler = Compiler::new(Network::svgg11(1), FiringProfile::uniform(3, 0.2));
        let err = compiler
            .compile(InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16))
            .unwrap_err();
        assert_eq!(err.to_string(), "firing profile covers 3 layers but network `S-VGG11` has 8");
    }

    #[test]
    fn compile_rejects_an_empty_batch() {
        let compiler = Compiler::new(Network::svgg11(1), FiringProfile::paper_svgg11());
        let config = InferenceConfig {
            batch: 0,
            ..InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16)
        };
        assert_eq!(compiler.compile(config).unwrap_err(), CompileError::EmptyBatch);

        // Batch × timesteps is bounded too, without overflowing on the way.
        let paper = InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16);
        let cases = [
            (MAX_SAMPLE_STEPS + 1, paper),
            (1, paper.temporal_steps(usize::MAX)),
            (2, paper.temporal_steps(MAX_SAMPLE_STEPS / 2 + 1)),
        ];
        for (batch, config) in cases {
            let err = Compiler::new(Network::svgg11(1), FiringProfile::paper_svgg11())
                .compile(InferenceConfig { batch, ..config })
                .unwrap_err();
            assert_eq!(
                err,
                CompileError::TooManySampleSteps { batch, timesteps: config.timesteps() }
            );
            assert!(err.to_string().contains("MAX_SAMPLE_STEPS (1048576)"), "{err}");
        }
        let at_bound = InferenceConfig { batch: 2, ..paper.temporal_steps(MAX_SAMPLE_STEPS / 2) };
        assert!(Compiler::new(Network::svgg11(1), FiringProfile::paper_svgg11())
            .compile(at_bound)
            .is_ok());
    }

    #[test]
    fn compile_rejects_invalid_neuron_parameters() {
        use spikestream_snn::{IzhiParams, LifParams, NeuronModel};

        let mut network = Network::svgg11(1);
        network
            .set_neuron_model(NeuronModel::Lif(LifParams { alpha: 1.5, ..LifParams::default() }));
        let err = Compiler::new(network, FiringProfile::paper_svgg11())
            .compile(InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16))
            .unwrap_err();
        match &err {
            CompileError::InvalidNeuronParams { layer, model, message } => {
                assert_eq!(*model, "lif");
                assert!(!layer.is_empty());
                assert!(message.contains("alpha"), "{message}");
            }
            other => panic!("expected InvalidNeuronParams, got {other:?}"),
        }
        assert!(err.to_string().contains("invalid lif parameters"), "{err}");

        let mut network = Network::svgg11(1);
        network.set_neuron_model(NeuronModel::Izhikevich(IzhiParams {
            v_threshold: -80.0,
            ..IzhiParams::regular_spiking()
        }));
        let err = Compiler::new(network, FiringProfile::paper_svgg11())
            .compile(InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16))
            .unwrap_err();
        assert!(err.to_string().contains("invalid izhikevich parameters"), "{err}");
        assert!(err.to_string().contains("reset potential"), "{err}");
    }

    #[test]
    fn compilation_preloads_one_template_per_layer() {
        let plan = Compiler::new(Network::svgg11(1), FiringProfile::paper_svgg11())
            .compile(InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16))
            .unwrap();
        assert_eq!(plan.programs().len(), plan.network().len());
        assert_eq!(plan.programs().counters().lookups(), 0, "preloads are not lookups");
        assert_eq!(plan.backend().name(), "analytic");
    }
}
