//! Load against one gateway tenant: a seeded open loop (Poisson arrivals,
//! one generator thread and one collector thread) and a closed-loop
//! saturation phase from one thread with a fixed in-flight window.
//!
//! Open-loop latency runs from each request's *due* time, so a stalled
//! generator charges its lateness to the requests behind it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use spikestream_serve::{Gateway, GatewayResponse, ResponseHandle, ServeError, SubmitOptions};

use crate::env::{Fnv, Rng};
use crate::trace::now_ns;

/// One generated request: sample ids plus the optional timestep override.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    pub ids: Vec<usize>,
    pub timesteps: Option<usize>,
}

impl Req {
    pub fn options(&self) -> SubmitOptions {
        match self.timesteps {
            Some(t) => SubmitOptions::default().with_timesteps(t),
            None => SubmitOptions::default(),
        }
    }
}

/// How long a submission may wait for queue space before it counts as
/// refused. A full queue parks the generator, and the wait shows as
/// lateness in every later request's latency.
const SUBMIT_TIMEOUT: Duration = Duration::from_secs(1);

/// Poisson arrival offsets (ns from phase start) at `rate` req/s over
/// `seconds`.
pub fn poisson_offsets(rng: &mut Rng, rate: f64, seconds: f64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push((t * 1e9) as u64);
    }
}

/// Evenly spaced arrival offsets at `rate` req/s over `seconds`, each
/// delayed by a seeded jitter of up to a quarter period.
pub fn spaced_offsets(rng: &mut Rng, rate: f64, seconds: f64) -> Vec<u64> {
    let n = (rate * seconds) as usize;
    (0..n).map(|k| ((k as f64 + 0.25 * rng.unit()) / rate * 1e9) as u64).collect()
}

/// One accepted submission.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    pub idx: usize,
    pub due_ns: u64,
    pub sub_start_ns: u64,
    pub sub_end_ns: u64,
    pub recv_ns: u64,
}

/// Everything one phase observed.
#[derive(Debug, Default)]
pub struct Phase {
    pub reqs: Vec<Req>,
    /// Accepted submissions in submission order (the gateway's FIFO order).
    pub sent: Vec<Sent>,
    pub attempted: usize,
    /// Refused at submission (queue full) or answered with an error.
    pub errors: usize,
    /// Answered, but not bit-identical to the reference.
    pub mismatches: usize,
    /// Request latency from due time (open loop) or submission (closed).
    pub lat_us: Vec<f64>,
    /// How late the generator submitted each request.
    pub late_us: Vec<f64>,
    /// Requests due but not yet answered at the quarter points of the
    /// schedule and when the last one was sent.
    pub backlog: [usize; 4],
    /// The backlog grew through every quarter: the offered rate exceeds
    /// what the tenant serves, so the phase's latency is not valid.
    pub overloaded: bool,
    pub batch_samples: Vec<f64>,
    pub batch_requests: Vec<f64>,
    pub samples: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Digest of every answer's measurements, in submission order.
    pub digest: u64,
}

impl Phase {
    pub fn failed(&self) -> usize {
        if self.overloaded {
            self.attempted
        } else {
            self.errors + self.mismatches
        }
    }
}

/// Verifies one answer; returns whether it matches the reference.
pub type Check<'a> = &'a (dyn Fn(usize, &Req, &GatewayResponse) -> bool + Sync);

struct Collected {
    idx: usize,
    recv_ns: u64,
    outcome: Result<(usize, usize), bool>,
}

fn collect(
    phase_digest: &mut Fnv,
    idx: usize,
    req: &Req,
    answer: Result<GatewayResponse, ServeError>,
    check: Check<'_>,
) -> Collected {
    let recv_ns = now_ns();
    let outcome = match answer {
        Ok(resp) => {
            phase_digest.word(idx as u64);
            phase_digest.layers(resp.layers());
            if check(idx, req, &resp) {
                Ok((resp.batch_samples(), resp.batch_requests()))
            } else {
                Err(true)
            }
        }
        Err(_) => Err(false),
    };
    Collected { idx, recv_ns, outcome }
}

fn record(phase: &mut Phase, sent: &mut [Sent], c: Collected, slot: usize, lat_from_ns: u64) {
    sent[slot].recv_ns = c.recv_ns;
    match c.outcome {
        Ok((bs, br)) => {
            phase.lat_us.push(c.recv_ns.saturating_sub(lat_from_ns) as f64 / 1e3);
            phase.batch_samples.push(bs as f64);
            phase.batch_requests.push(br as f64);
            phase.samples += phase.reqs[c.idx].ids.len();
        }
        Err(true) => phase.mismatches += 1,
        Err(false) => phase.errors += 1,
    }
}

/// Sleep until `due` (ns on the trace clock). The generator never spins:
/// on a two-CPU host a spinning generator would take a CPU from the
/// system under test. The sleep's overshoot (the kernel's timer slack,
/// about 50 us) is generator lateness, reported and charged to latency.
fn wait_until(due: u64) {
    let now = now_ns();
    if now < due {
        std::thread::sleep(Duration::from_nanos(due - now));
    }
}

/// Offer `reqs` at the given due offsets (open loop) and collect every
/// answer on a second thread.
pub fn open_loop(
    gateway: &Gateway,
    tenant: &str,
    reqs: Vec<Req>,
    offsets: &[u64],
    check: Check<'_>,
) -> Phase {
    assert_eq!(reqs.len(), offsets.len());
    let n = reqs.len();
    let mut phase = Phase { reqs, attempted: n, ..Phase::default() };
    let completed = AtomicUsize::new(0);
    let start = now_ns() + 1_000_000;
    phase.start_ns = start;
    let (tx, rx) = mpsc::channel::<(usize, usize, ResponseHandle)>();
    let reqs = &phase.reqs;
    let (sent_list, late, backlog, errors, collected, digest) = std::thread::scope(|scope| {
        let completed = &completed;
        let collector = scope.spawn(move || {
            let mut digest = Fnv::default();
            let mut out = Vec::with_capacity(n);
            for (slot, idx, handle) in rx {
                let c = collect(&mut digest, idx, &reqs[idx], handle.wait(), check);
                completed.fetch_add(1, Ordering::Release);
                out.push((slot, c));
            }
            (out, digest.0)
        });
        // Requests due by now, sent or not: a generator held up by a full
        // queue leaves its backlog here.
        let due_now = || offsets.partition_point(|&off| start + off <= now_ns());
        let mut sent = Vec::with_capacity(n);
        let mut late = Vec::with_capacity(n);
        let mut backlog = [0usize; 4];
        let mut errors = 0usize;
        for (i, (req, off)) in reqs.iter().zip(offsets).enumerate() {
            let due = start + off;
            wait_until(due);
            let sub_start = now_ns();
            late.push(sub_start.saturating_sub(due) as f64 / 1e3);
            match gateway.submit_timeout(tenant, &req.ids, req.options(), SUBMIT_TIMEOUT) {
                Ok(handle) => {
                    let sub_end = now_ns();
                    sent.push(Sent {
                        idx: i,
                        due_ns: due,
                        sub_start_ns: sub_start,
                        sub_end_ns: sub_end,
                        recv_ns: 0,
                    });
                    tx.send((sent.len() - 1, i, handle)).expect("collector alive");
                }
                Err(_) => errors += 1,
            }
            for (q, slot) in backlog.iter_mut().enumerate().take(3) {
                if i + 1 == n * (q + 1) / 4 {
                    *slot = due_now() - completed.load(Ordering::Acquire).min(due_now());
                }
            }
        }
        backlog[3] = n - completed.load(Ordering::Acquire).min(n);
        drop(tx);
        let (collected, digest) = collector.join().expect("collector thread panicked");
        (sent, late, backlog, errors, collected, digest)
    });
    let mut sent = sent_list;
    for (slot, c) in collected {
        let due = sent[slot].due_ns;
        record(&mut phase, &mut sent, c, slot, due);
    }
    phase.end_ns = sent.iter().map(|s| s.recv_ns).max().unwrap_or(start).max(start);
    phase.sent = sent;
    phase.late_us = late;
    phase.backlog = backlog;
    phase.errors += errors;
    phase.digest = digest;
    phase.overloaded = backlog.windows(2).all(|w| w[0] < w[1]) && backlog[3] > 64;
    phase
}

/// Closed loop from this thread: keep `window` requests in flight for
/// `seconds`, then drain. `next` generates request `i`. Keeps counts and
/// latencies only, so its memory does not grow with throughput.
pub fn closed_loop(
    gateway: &Gateway,
    tenant: &str,
    window: usize,
    seconds: f64,
    mut next: impl FnMut(usize) -> Req,
    check: Check<'_>,
) -> Phase {
    let mut phase = Phase::default();
    let mut digest = Fnv::default();
    let start = now_ns();
    let end = start + (seconds * 1e9) as u64;
    phase.start_ns = start;
    phase.end_ns = start;
    let mut inflight: VecDeque<(usize, Req, u64, ResponseHandle)> = VecDeque::with_capacity(window);
    loop {
        while inflight.len() < window && now_ns() < end {
            let i = phase.attempted;
            phase.attempted += 1;
            let req = next(i);
            let sub_start = now_ns();
            match gateway.submit_timeout(tenant, &req.ids, req.options(), SUBMIT_TIMEOUT) {
                Ok(handle) => inflight.push_back((i, req, sub_start, handle)),
                Err(_) => phase.errors += 1,
            }
        }
        let Some((i, req, sub_start, handle)) = inflight.pop_front() else { break };
        let c = collect(&mut digest, i, &req, handle.wait(), check);
        phase.end_ns = c.recv_ns;
        match c.outcome {
            Ok(_) => {
                phase.lat_us.push(c.recv_ns.saturating_sub(sub_start) as f64 / 1e3);
                phase.samples += req.ids.len();
            }
            Err(true) => phase.mismatches += 1,
            Err(false) => phase.errors += 1,
        }
    }
    phase.digest = digest.0;
    phase
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_offsets_are_seeded_sorted_and_near_the_rate() {
        let a = poisson_offsets(&mut Rng::new(3, 9), 5_000.0, 2.0);
        let b = poisson_offsets(&mut Rng::new(3, 9), 5_000.0, 2.0);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!((9_500..10_500).contains(&a.len()), "{}", a.len());
        assert!(*a.last().unwrap() < 2_000_000_000);
    }

    #[test]
    fn spaced_offsets_keep_at_least_three_quarters_of_a_period_apart() {
        let a = spaced_offsets(&mut Rng::new(5, 1), 400.0, 1.0);
        assert_eq!(a.len(), 400);
        assert_eq!(a, spaced_offsets(&mut Rng::new(5, 1), 400.0, 1.0));
        assert!(a.windows(2).all(|w| w[1] - w[0] >= 1_875_000), "gaps of at least 0.75 / rate");
    }
}
