//! Deterministic gateway observability: [`GatewayStats`].
//!
//! Counters live in relaxed atomics on the gateway's shared state, so a
//! monitoring thread snapshots them without ever contending with
//! submitters or dispatchers — the same discipline as
//! [`Session::stats_handle`](spikestream::Session::stats_handle).
//! Every counter is a deterministic function of the request/batch/publish
//! history, never of wall-clock timing, so a paced driver (the
//! `serve-demo` CLI, the CI smoke) can pin a snapshot against a golden.

use std::sync::atomic::{AtomicU64, Ordering};

use spikestream::SessionStats;

/// Number of buckets in the batch-size histogram.
pub const BATCH_HIST_BUCKETS: usize = 8;

/// Labels of the batch-size histogram buckets, by samples per dispatched
/// batch: power-of-two ranges, last bucket open-ended.
pub const BATCH_HIST_LABELS: [&str; BATCH_HIST_BUCKETS] =
    ["1", "2", "3-4", "5-8", "9-16", "17-32", "33-64", "65+"];

/// The histogram bucket a batch of `samples` samples lands in.
pub fn batch_hist_bucket(samples: usize) -> usize {
    match samples {
        0 | 1 => 0,
        n => (usize::BITS - (n - 1).leading_zeros()).min(BATCH_HIST_BUCKETS as u32 - 1) as usize,
    }
}

/// A point-in-time snapshot of a gateway's counters (see
/// [`Gateway::stats`](crate::Gateway::stats)).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GatewayStats {
    /// Requests accepted into a tenant queue.
    pub submitted: u64,
    /// Requests completed successfully (response delivered).
    pub completed: u64,
    /// Requests rejected because a tenant queue was at capacity (includes
    /// submitters that timed out waiting for space).
    pub rejected_full: u64,
    /// Micro-batches dispatched (each one `Session::run_gather` call).
    pub batches: u64,
    /// Requests that shared their batch with at least one other request.
    pub coalesced: u64,
    /// Publishes that replaced a live tenant's plan.
    pub hot_swaps: u64,
    /// Batches whose execution panicked, poisoning their tenant.
    pub panics: u64,
    /// Histogram of dispatched batch sizes in samples; bucket ranges in
    /// [`BATCH_HIST_LABELS`].
    pub batch_hist: [u64; BATCH_HIST_BUCKETS],
    /// Per-tenant state, sorted by tenant name.
    pub tenants: Vec<TenantStats>,
}

/// Per-tenant slice of a [`GatewayStats`] snapshot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TenantStats {
    /// Tenant name.
    pub name: String,
    /// Currently published plan version.
    pub version: u64,
    /// Plan version the tenant's dispatcher session is currently open on
    /// (lags `version` briefly during a hot swap; 0 before the first
    /// batch boundary).
    pub serving_version: u64,
    /// Requests waiting in the tenant queue right now.
    pub queue_depth: usize,
    /// Whether a panic poisoned this tenant (cleared by the next publish).
    pub poisoned: bool,
    /// Serving-session counters of the tenant's dispatcher, as of its last
    /// completed batch (all zero before the first).
    pub session: SessionStats,
}

/// The gateway-global atomic counter cells behind [`GatewayStats`].
#[derive(Debug, Default)]
pub(crate) struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected_full: AtomicU64,
    batches: AtomicU64,
    coalesced: AtomicU64,
    hot_swaps: AtomicU64,
    panics: AtomicU64,
    batch_hist: [AtomicU64; BATCH_HIST_BUCKETS],
}

impl Counters {
    pub(crate) fn on_submitted(&self) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_completed(&self) {
        self.completed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_rejected_full(&self) {
        self.rejected_full.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_hot_swap(&self) {
        self.hot_swaps.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_panic(&self) {
        self.panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one dispatched batch of `requests` coalesced requests
    /// totalling `samples` samples.
    pub(crate) fn on_batch(&self, requests: usize, samples: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        if requests > 1 {
            self.coalesced.fetch_add(requests as u64, Ordering::Relaxed);
        }
        self.batch_hist[batch_hist_bucket(samples)].fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot the global counters; the caller fills in `tenants`.
    pub(crate) fn snapshot(&self) -> GatewayStats {
        GatewayStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            rejected_full: self.rejected_full.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            hot_swaps: self.hot_swaps.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            batch_hist: std::array::from_fn(|i| self.batch_hist[i].load(Ordering::Relaxed)),
            tenants: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_cover_the_powers_of_two() {
        let cases = [
            (1, 0),
            (2, 1),
            (3, 2),
            (4, 2),
            (5, 3),
            (8, 3),
            (9, 4),
            (16, 4),
            (17, 5),
            (32, 5),
            (33, 6),
            (64, 6),
            (65, 7),
            (1000, 7),
        ];
        for (samples, bucket) in cases {
            assert_eq!(batch_hist_bucket(samples), bucket, "samples={samples}");
        }
    }

    #[test]
    fn counters_fold_into_a_snapshot() {
        let counters = Counters::default();
        counters.on_submitted();
        counters.on_submitted();
        counters.on_batch(2, 2);
        counters.on_batch(1, 64);
        counters.on_completed();
        counters.on_rejected_full();
        counters.on_hot_swap();
        let stats = counters.snapshot();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.rejected_full, 1);
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.coalesced, 2);
        assert_eq!(stats.hot_swaps, 1);
        assert_eq!(stats.batch_hist, [0, 1, 0, 0, 0, 0, 1, 0]);
    }
}
