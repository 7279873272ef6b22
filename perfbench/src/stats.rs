//! Order statistics used by every workload and by the spread summary.
//!
//! Latencies are summarised by nearest-rank percentiles; run-to-run
//! spread uses the same exclusive-method quartiles as Python's
//! `statistics.quantiles(values, n=4)`, so a spread printed here matches
//! the one computed over the same values with Python.

/// Percentile levels considered when picking the highest supported tail.
pub const TAIL_LEVELS: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile before it is reported as a
/// supported tail.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending): the smallest value
/// with at least `p` percent of the samples at or below it. `None` for
/// an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// One-based nearest rank of percentile `p` in a sample of `n` values.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps binary rounding (0.999 * 10000 = 9990.000000000002)
    // from pushing an exact rank up by one.
    let r = (p / 100.0 * n as f64 - 1e-9).ceil() as usize;
    r.clamp(1, n)
}

/// Number of samples strictly beyond the nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The highest level of [`TAIL_LEVELS`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, with its value. `None` when
/// even the median lacks that support.
pub fn supported_tail(sorted: &[f64]) -> Option<(f64, f64)> {
    TAIL_LEVELS
        .iter()
        .rev()
        .find(|&&p| beyond(sorted.len(), p) >= TAIL_MIN_BEYOND)
        .map(|&p| (p, percentile(sorted, p).expect("a supported tail has samples")))
}

/// Requests per window of [`windowed_percentile`].
pub const WINDOW: usize = 250;

/// Percentile `p` of each consecutive window of `WINDOW` values of
/// `in_order` (the last window absorbs the remainder), then the lower
/// quartile (nearest rank) over windows: the latency of the quieter
/// stretches of a run. On a virtual machine whose CPUs the host steals
/// in bursts, most windows' tails hold a stolen wakeup and their median
/// moves with the host's load from run to run; the lower quartile does
/// not. A sample shorter than two windows is one window.
pub fn windowed_percentile(in_order: &[f64], p: f64) -> Option<f64> {
    percentile(&sorted(&per_window(in_order, p)), 25.0)
}

/// Percentile `p` of each consecutive window of `WINDOW` values.
pub fn per_window(in_order: &[f64], p: f64) -> Vec<f64> {
    let windows = (in_order.len() / WINDOW).max(1);
    (0..windows)
        .filter_map(|w| {
            let end = if w + 1 == windows { in_order.len() } else { (w + 1) * WINDOW };
            percentile(&sorted(&in_order[w * WINDOW..end]), p)
        })
        .collect()
}

/// Sorted copy of `values` (NaN-free input assumed).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median as Python's `statistics.median`: the mean of the two middle
/// values for an even count.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartile by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`. `None` for fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(3)))
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread a metric's bound is compared against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let mid = median(values)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// Arithmetic mean; `0.0` for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v = one_to(100);
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        // Nearest rank rounds the rank up: p50 of 1..=5 is 3, p90 is 5.
        let v = one_to(5);
        assert_eq!(percentile(&v, 50.0), Some(3.0));
        assert_eq!(percentile(&v, 90.0), Some(5.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 has exactly 10 beyond it, p99.9 only 1.
        let v = one_to(1000);
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(supported_tail(&v), Some((99.0, 990.0)));
        // 999 samples: p99's rank rounds up to 990, leaving 9 beyond.
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(supported_tail(&one_to(999)), Some((90.0, 900.0)));
        // 20 samples: only the median (rank 10) leaves 10 beyond.
        assert_eq!(supported_tail(&one_to(20)), Some((50.0, 10.0)));
        assert_eq!(supported_tail(&one_to(19)), None);
        // 10 000 samples support p99.9 but not p99.99.
        assert_eq!(supported_tail(&one_to(10_000)).map(|t| t.0), Some(99.9));
    }

    #[test]
    fn windowed_percentile_takes_the_lower_quartile_over_windows() {
        // Four windows; two hold a stall that lifts their p99.
        let mut v: Vec<f64> = (0..4 * WINDOW).map(|i| (i % WINDOW) as f64).collect();
        for start in [WINDOW, 3 * WINDOW] {
            v[start..start + 10].fill(1e6);
        }
        assert_eq!(percentile(&sorted(&v), 99.0), Some(1e6));
        assert_eq!(per_window(&v, 99.0), vec![247.0, 1e6, 247.0, 1e6]);
        assert_eq!(windowed_percentile(&v, 99.0), Some(247.0));
        // Fewer than two windows' worth is a single window.
        let short: Vec<f64> = (1..=WINDOW + WINDOW / 2).map(|i| i as f64).collect();
        let expected = percentile(&short, 50.0);
        assert_eq!(windowed_percentile(&short, 50.0), expected);
        assert_eq!(windowed_percentile(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&one_to(10)), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 3.0, 1.0]), Some((1.25, 3.75)));
        // Small samples extrapolate past the ends, as Python does:
        // quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn spread_is_the_interquartile_share_of_the_median() {
        // quartiles 2.75 / 8.25 around a median of 5.5: (8.25 - 2.75) / 5.5 == 1.
        assert_eq!(spread(&one_to(10)), Some(1.0));
        let flat = [100.0, 100.0, 100.0, 100.0];
        assert_eq!(spread(&flat), Some(0.0));
        let tight = [99.0, 100.0, 100.0, 101.0, 100.0];
        let s = spread(&tight).unwrap();
        assert!(s > 0.0 && s < 0.02, "{s}");
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }
}
