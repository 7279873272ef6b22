//! `spikestream-serve`: a concurrent serving gateway over `spikestream`'s
//! compile-once serving core.
//!
//! The crate turns the single-caller [`Session`](spikestream::Session)
//! into a multi-tenant service front end, in three pieces:
//!
//! - [`PlanRegistry`] — named tenants, each holding the current
//!   [`Plan`](spikestream::Plan) generation with a monotonically
//!   increasing version. [`Gateway::publish`] hot-swaps a tenant's plan
//!   under live traffic: in-flight batches finish on the old generation
//!   (their results name the version they ran under), queued and later
//!   requests run on the new one, and nothing is dropped.
//! - [`Gateway`] — clients on any thread call [`Gateway::submit`] and
//!   park on the returned [`ResponseHandle`]. Requests land in a bounded
//!   per-tenant queue ([`ServeError::Full`] / timeout backpressure); a
//!   per-tenant dispatcher thread runs whatever compatible FIFO prefix is
//!   queued when it wakes, up to `max_batch` samples, as one
//!   `Session::run_gather` call. Nothing waits on a timer: a request that
//!   reaches an idle tenant runs at once, and requests that arrive while
//!   a batch runs form the next one, so batches grow with load. Samples
//!   are independently seeded by the core, so a coalesced request's
//!   results are byte-identical to running it alone on a bare session.
//! - [`GatewayStats`] — deterministic counters (submissions, batches and
//!   their size histogram, rejections, hot swaps, per-tenant queue
//!   depth), all readable without contending with serving.
//!
//! Everything is std threads and condvars — the same parked epoch/condvar
//! idiom as the core's worker pool; no async runtime.
//!
//! ```
//! use spikestream::{Engine, FpFormat, InferenceConfig, KernelVariant};
//! use spikestream_serve::{Gateway, GatewayConfig};
//!
//! let plan = Engine::svgg11(1).compile(&InferenceConfig {
//!     batch: 8,
//!     ..InferenceConfig::paper(KernelVariant::SpikeStream, FpFormat::Fp16)
//! });
//! let gateway = Gateway::new(GatewayConfig::default());
//! gateway.publish("svgg11", plan).unwrap();
//! let handle = gateway.submit("svgg11", &[0, 1]).unwrap();
//! let response = handle.wait().unwrap();
//! assert_eq!(response.plan_version(), 1);
//! assert!(response.report().total_cycles() > 0.0);
//! ```

mod gateway;
mod registry;
mod stats;

pub use gateway::{Gateway, GatewayResponse, ResponseHandle, SubmitOptions};
pub use registry::{PlanRegistry, VersionedPlan};
pub use stats::{
    batch_hist_bucket, GatewayStats, TenantStats, BATCH_HIST_BUCKETS, BATCH_HIST_LABELS,
};

/// Gateway-wide serving policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GatewayConfig {
    /// Close a micro-batch once it holds this many samples. A single
    /// request larger than the cap still runs, alone.
    pub max_batch: usize,
    /// Bounded per-tenant queue capacity, in requests. Submissions beyond
    /// it fail fast ([`ServeError::Full`]) or park with a timeout
    /// ([`Gateway::submit_timeout`]).
    pub queue_cap: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig { max_batch: 64, queue_cap: 256 }
    }
}

/// Everything that can go wrong between submission and response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// No plan has been published under this tenant name.
    UnknownTenant(String),
    /// A request must name at least one sample.
    EmptyRequest,
    /// The request's options are out of range; it was never queued.
    Rejected {
        /// What was wrong with the request.
        reason: String,
    },
    /// The tenant's bounded queue is at capacity (fail-fast submission).
    Full {
        /// Tenant whose queue was full.
        tenant: String,
        /// The configured queue capacity.
        cap: usize,
    },
    /// The tenant's queue stayed full for the whole submission timeout.
    Timeout {
        /// Tenant whose queue stayed full.
        tenant: String,
    },
    /// A batch panicked and poisoned the tenant; the payload message is
    /// preserved. Publishing a new plan clears the poison.
    Poisoned(String),
    /// The gateway has been shut down.
    Shutdown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownTenant(name) => write!(f, "unknown tenant `{name}`"),
            ServeError::EmptyRequest => write!(f, "request names no samples"),
            ServeError::Rejected { reason } => write!(f, "request rejected: {reason}"),
            ServeError::Full { tenant, cap } => {
                write!(f, "tenant `{tenant}` queue is full ({cap} requests)")
            }
            ServeError::Timeout { tenant } => {
                write!(f, "timed out waiting for space in tenant `{tenant}` queue")
            }
            ServeError::Poisoned(message) => {
                write!(f, "tenant poisoned by a panicked batch: {message}")
            }
            ServeError::Shutdown => write!(f, "gateway is shut down"),
        }
    }
}

impl std::error::Error for ServeError {}
