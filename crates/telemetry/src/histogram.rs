//! Log-bucketed streaming histograms: constant-memory quantile
//! estimation with a bounded *relative* error.
//!
//! Buckets are geometric: bucket `i >= 1` covers
//! `(floor * growth^(i-1), floor * growth^i]` and bucket `0` collects
//! everything at or below `floor` (plus non-finite samples). Quantile
//! queries return the **upper bound** of the bucket holding the
//! nearest-rank sample, so any estimate is within one bucket's relative
//! error of the exact sorted-population percentile:
//! `exact / growth <= estimate <= exact * growth` (property-tested in
//! `tests/histogram_props.rs`).

use std::fmt;

/// Default lower edge of the first bucket (1 ns, in seconds — below any
/// modeled latency the workspace produces).
pub const DEFAULT_FLOOR: f64 = 1e-9;

/// Default bucket growth ratio: `2^(1/4)`, ~19% relative error.
pub const DEFAULT_GROWTH: f64 = 1.189_207_115_002_721;

/// A streaming histogram over positive samples with geometric buckets.
#[derive(Clone, Debug, PartialEq)]
pub struct LogHistogram {
    floor: f64,
    growth: f64,
    inv_ln_growth: f64,
    /// counts[0] is the underflow bucket (<= floor, or non-finite).
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram::new(DEFAULT_FLOOR, DEFAULT_GROWTH)
    }
}

impl LogHistogram {
    /// A histogram whose first bucket ends at `floor` and whose buckets
    /// grow by `growth` per step.
    ///
    /// # Panics
    ///
    /// Panics unless `floor > 0` and `growth > 1`.
    pub fn new(floor: f64, growth: f64) -> LogHistogram {
        assert!(floor > 0.0 && floor.is_finite(), "floor must be positive");
        assert!(growth > 1.0 && growth.is_finite(), "growth must exceed 1");
        LogHistogram {
            floor,
            growth,
            inv_ln_growth: 1.0 / growth.ln(),
            counts: Vec::new(),
            count: 0,
            sum: 0.0,
            max: f64::NEG_INFINITY,
        }
    }

    /// The bucket growth ratio — also the relative-error bound of
    /// [`quantile`](LogHistogram::quantile).
    pub fn growth(&self) -> f64 {
        self.growth
    }

    fn bucket_index(&self, v: f64) -> usize {
        if !v.is_finite() || v <= self.floor {
            return 0; // underflow (and NaN / infinities, defensively)
        }
        // ceil of log_growth(v / floor); the +1/-1 dance keeps exact
        // boundary values in the lower bucket within fp noise.
        let i = ((v / self.floor).ln() * self.inv_ln_growth).ceil();
        i.max(1.0) as usize
    }

    /// Upper bound of bucket `i` (`floor * growth^i`).
    fn bucket_upper(&self, i: usize) -> f64 {
        self.floor * self.growth.powi(i as i32)
    }

    /// Records one sample. Non-positive and non-finite samples land in
    /// the underflow bucket and are excluded from `sum`/`max`.
    pub fn record(&mut self, v: f64) {
        let i = self.bucket_index(v);
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        self.count += 1;
        if v.is_finite() && v > 0.0 {
            self.sum += v;
            self.max = self.max.max(v);
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of the finite positive samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Largest finite positive sample, or 0 when none was recorded.
    pub fn max(&self) -> f64 {
        if self.max.is_finite() {
            self.max
        } else {
            0.0
        }
    }

    /// Arithmetic mean of the finite positive samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Nearest-rank quantile estimate: the upper bound of the bucket
    /// containing the `ceil(q * count)`-th smallest sample. Returns 0
    /// for an empty histogram. Estimates are within one bucket's
    /// relative error of the exact sorted-population percentile.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i == 0 {
                    self.floor.min(self.max())
                } else {
                    self.bucket_upper(i)
                };
            }
        }
        self.bucket_upper(self.counts.len().saturating_sub(1))
    }

    /// Merges `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms have different bucket layouts.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert!(
            self.floor == other.floor && self.growth == other.growth,
            "cannot merge histograms with different bucket layouts"
        );
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Occupied buckets as `(upper_bound, cumulative_count)` pairs, in
    /// ascending bound order — the Prometheus `le` series (without the
    /// trailing `+Inf`, which equals [`count`](LogHistogram::count)).
    pub fn cumulative_buckets(&self) -> Vec<(f64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if c > 0 {
                let ub = if i == 0 {
                    self.floor
                } else {
                    self.bucket_upper(i)
                };
                out.push((ub, cum));
            }
        }
        out
    }
}

impl fmt::Display for LogHistogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n {} | p50 {:.6} | p95 {:.6} | p99 {:.6} | max {:.6} | mean {:.6}",
            self.count,
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
            self.max(),
            self.mean(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_bound_exact_values() {
        let mut h = LogHistogram::default();
        for i in 1..=1000 {
            h.record(i as f64 * 1e-3); // 1ms .. 1s
        }
        let p50 = h.quantile(0.50);
        assert!(p50 >= 0.5 / h.growth() && p50 <= 0.5 * h.growth(), "{p50}");
        let p99 = h.quantile(0.99);
        assert!(
            p99 >= 0.99 / h.growth() && p99 <= 0.99 * h.growth(),
            "{p99}"
        );
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 0.5005).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = LogHistogram::default();
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.cumulative_buckets().is_empty());
    }

    #[test]
    fn pathological_samples_go_to_underflow() {
        let mut h = LogHistogram::default();
        h.record(f64::NAN);
        h.record(-1.0);
        h.record(0.0);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert!(h.quantile(0.5) <= DEFAULT_FLOOR);
    }

    #[test]
    fn merge_matches_union() {
        let mut a = LogHistogram::default();
        let mut b = LogHistogram::default();
        let mut union = LogHistogram::default();
        for i in 1..200 {
            let v = i as f64 * 0.01;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            union.record(v);
        }
        a.merge(&b);
        assert_eq!(a, union);
    }

    #[test]
    fn cumulative_buckets_are_monotone() {
        let mut h = LogHistogram::default();
        for i in 1..=64 {
            h.record(i as f64);
        }
        let buckets = h.cumulative_buckets();
        assert!(!buckets.is_empty());
        for w in buckets.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(buckets.last().unwrap().1, 64);
    }
}
