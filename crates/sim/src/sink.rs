//! Fixed-size latency statistics: a log-scale [`StreamingHistogram`]
//! per tracked distribution and exact integer moments, so summarising a
//! run never buffers or sorts its samples.
//!
//! Determinism: every accumulator is an integer (`u64`/`u128` counts and
//! sums), so a summary does not depend on the order the records are fed
//! in — validators can be read in any order, which is part of why
//! `--jobs N` emits byte-identical JSON for every `N`.
//!
//! [`LatencySummary::from_micros`] remains the exact oracle; the
//! histogram's percentiles are upper bounds within one bucket width
//! (≤ 1/32 relative) of it, which the property tests pin down.

use crate::experiment::ExperimentConfig;
use crate::metrics::LatencySummary;
use hammerhead::ExecRecord;

/// Sub-buckets per power of two: 32 ⇒ percentile estimates within
/// 1/32 ≈ 3.1 % (relative) of the exact sample.
const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;
/// Bucket count covering the whole `u64` microsecond range: one exact
/// bucket per value below `SUB`, then 32 per octave.
const BUCKETS: usize = (SUB + (64 - SUB_BITS as u64) * SUB) as usize;

/// Fixed-bucket log-scale latency histogram with exact streaming
/// moments.
///
/// `record` is O(1); the structure never allocates after construction
/// and never stores individual samples. Mean, standard deviation, count
/// and max are exact (integer accumulators); p50/p95 are bucket upper
/// bounds — at most one sub-bucket (1/32 relative) above the exact
/// nearest-rank percentile.
#[derive(Clone, Debug)]
pub struct StreamingHistogram {
    counts: Vec<u64>,
    count: u64,
    sum_us: u128,
    sum_sq_us: u128,
    max_us: u64,
}

impl Default for StreamingHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl StreamingHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        StreamingHistogram {
            counts: vec![0; BUCKETS],
            count: 0,
            sum_us: 0,
            sum_sq_us: 0,
            max_us: 0,
        }
    }

    /// The bucket index holding `value_us`. Values below `SUB` get a
    /// bucket each (exact); above, 32 sub-buckets per power of two.
    fn index(value_us: u64) -> usize {
        if value_us < SUB {
            value_us as usize
        } else {
            let msb = 63 - value_us.leading_zeros();
            let octave = msb - SUB_BITS;
            let sub = (value_us >> octave) - SUB;
            (SUB + octave as u64 * SUB + sub) as usize
        }
    }

    /// The largest value mapping to bucket `i` (the percentile estimate
    /// reported for ranks landing in it).
    fn upper(i: usize) -> u64 {
        let i = i as u64;
        if i < SUB {
            i
        } else {
            let octave = (i - SUB) / SUB;
            let sub = (i - SUB) % SUB;
            let bound = ((SUB + sub + 1) as u128) << octave;
            (bound - 1).min(u64::MAX as u128) as u64
        }
    }

    /// Records one latency sample (µs).
    pub fn record(&mut self, value_us: u64) {
        self.counts[Self::index(value_us)] += 1;
        self.count += 1;
        self.sum_us += value_us as u128;
        self.sum_sq_us += (value_us as u128) * (value_us as u128);
        self.max_us = self.max_us.max(value_us);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Nearest-rank percentile estimate in µs: the upper bound of the
    /// bucket holding the rank-`⌈p/100·n⌉` sample, clamped to the exact
    /// max. 0 when empty.
    fn percentile_us(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (((p / 100.0) * self.count as f64).ceil().max(1.0) as u64).min(self.count);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::upper(i).min(self.max_us);
            }
        }
        self.max_us
    }

    /// The summary in the paper's reporting shape. Mean/stddev/max are
    /// exact; p50/p95 are histogram estimates (see type docs).
    pub fn summary(&self) -> LatencySummary {
        if self.count == 0 {
            return LatencySummary::default();
        }
        let n = self.count as f64;
        let mean_us = self.sum_us as f64 / n;
        // Population variance from exact integer sums: n·Σx² − (Σx)² is a
        // non-negative integer (Cauchy–Schwarz), so no cancellation.
        let var_num = self.count as u128 * self.sum_sq_us - self.sum_us * self.sum_us;
        let stddev_us = (var_num as f64).sqrt() / n;
        LatencySummary {
            count: self.count as usize,
            mean: mean_us / 1e6,
            stddev: stddev_us / 1e6,
            p50: self.percentile_us(50.0) as f64 / 1e6,
            p95: self.percentile_us(95.0) as f64 / 1e6,
            max: self.max_us as f64 / 1e6,
        }
    }
}

/// One named submission-time window of the run.
#[derive(Debug)]
struct WindowSink {
    name: String,
    from_us: u64,
    /// Exclusive.
    to_us: u64,
    hist: StreamingHistogram,
}

/// The record-derived part of a [`RunResult`](crate::RunResult): what
/// [`collect_metrics`](crate::collect_metrics) feeds every counted
/// [`ExecRecord`] of a run into.
#[derive(Debug)]
pub(crate) struct MetricsSink {
    warmup_us: u64,
    /// Transactions that reached execution finality inside the run.
    pub(crate) executed: u64,
    /// Modeled wire bytes of those transactions (byte goodput).
    pub(crate) executed_bytes: u64,
    /// Post-warmup end-to-end latency.
    pub(crate) latency: StreamingHistogram,
    /// Post-warmup submission → commit latency.
    pub(crate) commit_latency: StreamingHistogram,
    windows: Vec<WindowSink>,
}

impl MetricsSink {
    /// An empty sink for a run of `config`: latency samples submitted
    /// before its warmup are excluded, and each of its windows gets a
    /// histogram of its own.
    pub(crate) fn new(config: &ExperimentConfig) -> Self {
        MetricsSink {
            warmup_us: config.warmup_secs * 1_000_000,
            executed: 0,
            executed_bytes: 0,
            latency: StreamingHistogram::new(),
            commit_latency: StreamingHistogram::new(),
            windows: config
                .windows
                .iter()
                .map(|(name, from_us, to_us)| WindowSink {
                    name: name.clone(),
                    from_us: *from_us,
                    to_us: *to_us,
                    hist: StreamingHistogram::new(),
                })
                .collect(),
        }
    }

    /// Counts one executed transaction.
    pub(crate) fn observe(&mut self, rec: ExecRecord) {
        self.executed += 1;
        self.executed_bytes += rec.bytes as u64;
        if rec.submitted_at < self.warmup_us {
            return;
        }
        let latency = rec.executed_at - rec.submitted_at;
        self.latency.record(latency);
        self.commit_latency.record(rec.committed_at - rec.submitted_at);
        for w in &mut self.windows {
            if rec.submitted_at >= w.from_us && rec.submitted_at < w.to_us {
                w.hist.record(latency);
            }
        }
    }

    /// `(name, latency summary)` per declared window, in declaration
    /// order.
    pub(crate) fn window_summaries(&self) -> Vec<(String, LatencySummary)> {
        self.windows.iter().map(|w| (w.name.clone(), w.hist.summary())).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_upper_are_consistent() {
        // Every value maps to a bucket whose bounds contain it, and the
        // bucket above starts strictly after this one ends.
        for v in (0..4096).chain([u64::MAX / 2, u64::MAX - 1, u64::MAX]) {
            let i = StreamingHistogram::index(v);
            assert!(v <= StreamingHistogram::upper(i), "v={v} above bucket {i} upper");
            if i > 0 {
                assert!(v > StreamingHistogram::upper(i - 1), "v={v} inside bucket {}", i - 1);
            }
        }
    }

    #[test]
    fn empty_histogram_is_zero_summary() {
        assert_eq!(StreamingHistogram::new().summary(), LatencySummary::default());
    }

    #[test]
    fn constant_samples_are_exact() {
        let mut h = StreamingHistogram::new();
        for _ in 0..10 {
            h.record(2_000_000);
        }
        let s = h.summary();
        assert_eq!(s.count, 10);
        assert!((s.mean - 2.0).abs() < 1e-9);
        assert!(s.stddev.abs() < 1e-9);
        // The percentile bucket upper bound is clamped to the exact max.
        assert!((s.p50 - 2.0).abs() < 1e-9);
        assert!((s.p95 - 2.0).abs() < 1e-9);
        assert!((s.max - 2.0).abs() < 1e-9);
    }

    #[test]
    fn feed_order_does_not_change_the_summary() {
        let samples: Vec<u64> = (0..500u64).map(|i| (i * 7919) % 3_000_000).collect();
        let mut fwd = StreamingHistogram::new();
        let mut rev = StreamingHistogram::new();
        for &s in &samples {
            fwd.record(s);
        }
        for &s in samples.iter().rev() {
            rev.record(s);
        }
        assert_eq!(fwd.summary(), rev.summary());
    }

    fn rec(submitted_at: u64, committed_at: u64, executed_at: u64) -> ExecRecord {
        ExecRecord { submitted_at, committed_at, executed_at, bytes: 20 }
    }

    /// A sink with the given warmup and `(name, from_us, to_us)` windows.
    fn sink_for(warmup_secs: u64, windows: &[(&str, u64, u64)]) -> MetricsSink {
        let mut config = ExperimentConfig::quick_test(crate::SystemKind::Bullshark);
        config.warmup_secs = warmup_secs;
        config.windows = windows.iter().map(|(n, from, to)| (n.to_string(), *from, *to)).collect();
        MetricsSink::new(&config)
    }

    #[test]
    fn sink_accumulates_executed_bytes() {
        let mut sink = sink_for(0, &[]);
        sink.observe(rec(0, 50, 100));
        sink.observe(rec(10, 60, 200));
        assert_eq!(sink.executed_bytes, 40);
    }

    #[test]
    fn sink_warmup_excludes_latency_but_counts_execution() {
        let mut sink = sink_for(1, &[]);
        sink.observe(rec(500_000, 600_000, 700_000)); // pre-warmup
        sink.observe(rec(2_000_000, 2_500_000, 3_000_000));
        assert_eq!(sink.executed, 2);
        let s = sink.latency.summary();
        assert_eq!(s.count, 1);
        assert!((s.mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sink_windows_partition_by_submission_time() {
        let mut sink = sink_for(0, &[("early", 0, 1_000), ("late", 1_000, 2_000)]);
        sink.observe(rec(100, 150, 200));
        sink.observe(rec(1_500, 1_600, 1_700));
        sink.observe(rec(999, 1_100, 1_200));
        let windows = sink.window_summaries();
        assert_eq!(windows[0].0, "early");
        assert_eq!(windows[0].1.count, 2);
        assert_eq!(windows[1].0, "late");
        assert_eq!(windows[1].1.count, 1);
    }
}
