//! Order statistics: medians, nearest-rank percentiles, the rule for
//! which tail percentile a sample supports, and the quartile spread the
//! repeatability criterion is stated in.

/// Median of `values` (mean of the two middle elements for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// The percentiles a tail may be reported at, ascending.
const TAIL_LADDER: [f64; 5] = [90.0, 95.0, 99.0, 99.9, 99.99];

/// The highest percentile of [`TAIL_LADDER`] that still has at least ten
/// samples beyond it in a sample of `n`, or `None` when even p90 does
/// not (n < 100). A tail read off fewer than ten samples is an anecdote.
pub fn supported_tail(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().copied().rev().find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// The repeatable part of a latency tail: the median, over consecutive
/// slices of the measured window, of each slice's `p`-th percentile.
///
/// `samples` are `(when, latency)` pairs; a sample belongs to slice
/// `(when − from) / slice_len`. A whole-window p99 is set by how many rare
/// pile-ups happened to fall into the window and moves by a third from
/// run to run; the typical slice's p99 does not.
pub fn sliced_percentile(samples: &[(u64, u64)], from: u64, slice_len: u64, p: f64) -> f64 {
    let mut slices: std::collections::BTreeMap<u64, Vec<u64>> = std::collections::BTreeMap::new();
    for &(when, latency) in samples.iter().filter(|(when, _)| *when >= from) {
        slices.entry((when - from) / slice_len.max(1)).or_default().push(latency);
    }
    if slices.is_empty() {
        return 0.0;
    }
    let tails: Vec<f64> = slices
        .into_values()
        .map(|mut slice| {
            slice.sort_unstable();
            percentile(&slice, p) as f64
        })
        .collect();
    median(&tails)
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// computes them — the driver judges repeatability with that function.
///
/// # Panics
///
/// Panics with fewer than two samples, like the Python function.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let m = data.len();
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread a bound is compared against. 0 for a single sample.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, _, q3] = quartiles(values);
    let mid = median(values);
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 99.0), 99);
        assert_eq!(percentile(&sorted, 100.0), 100);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn sliced_percentile_ignores_a_pile_up_in_one_slice() {
        // Three slices of 100 samples: latencies 1..=100, except that the
        // middle slice has a pile-up of ten huge ones.
        let mut samples = Vec::new();
        for slice in 0..3u64 {
            for i in 0..100u64 {
                let piled = slice == 1 && i >= 90;
                samples.push((1_000 + slice * 10 + i % 10, if piled { 5_000 } else { i + 1 }));
            }
        }
        assert_eq!(sliced_percentile(&samples, 1_000, 10, 99.0), 99.0);
        assert_eq!(sliced_percentile(&samples, 1_000, 10, 50.0), 50.0);
        // The whole-window p99 sees the pile-up.
        let mut all: Vec<u64> = samples.iter().map(|s| s.1).collect();
        all.sort_unstable();
        assert_eq!(percentile(&all, 99.0), 5_000);
        // Samples before `from` are not in any slice.
        assert_eq!(sliced_percentile(&[(5, 7)], 10, 10, 50.0), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(99), None);
        assert_eq!(supported_tail(100), Some(90.0));
        assert_eq!(supported_tail(199), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(supported_tail(9_999), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(supported_tail(100_000), Some(99.99));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
    }
}
