//! Sample collections and distribution summaries.

use std::fmt;

/// A collection of latency samples (milliseconds) with summary statistics.
///
/// ```
/// use av_profiling::Distribution;
/// let mut d = Distribution::new();
/// for v in [1.0, 2.0, 3.0, 4.0, 100.0] {
///     d.record(v);
/// }
/// let s = d.summary();
/// assert_eq!(s.max, 100.0);
/// assert_eq!(s.median, 3.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Distribution {
    samples: Vec<f64>,
}

/// Summary statistics of a [`Distribution`] — the quantities Fig 5 plots
/// per node (mean marker, quartile lines, min/max whiskers) plus the tail
/// percentiles the analysis quotes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub p75: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile — the "tail latency" the findings quote.
    pub p99: f64,
    /// Maximum (peak latency).
    pub max: f64,
}

impl Summary {
    /// A summary of zero samples (all fields zero).
    pub fn empty() -> Summary {
        Summary {
            count: 0,
            mean: 0.0,
            std_dev: 0.0,
            min: 0.0,
            p25: 0.0,
            median: 0.0,
            p75: 0.0,
            p95: 0.0,
            p99: 0.0,
            max: 0.0,
        }
    }
}

impl Distribution {
    /// Creates an empty distribution.
    pub fn new() -> Distribution {
        Distribution::default()
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics on non-finite samples — those indicate an instrumentation
    /// bug, not data.
    pub fn record(&mut self, sample: f64) {
        assert!(sample.is_finite(), "latency samples must be finite");
        self.samples.push(sample);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Read-only view of the raw samples, in arrival order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Saves or restores the samples, in arrival order, for a checkpoint.
    pub fn snap(&mut self, s: &mut av_des::Snap<'_>) {
        s.leaf(&mut self.samples);
    }

    /// The percentile (0–100, linear interpolation) of the samples.
    ///
    /// Returns 0 for an empty distribution.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        percentile_of_sorted(&sorted, p)
    }

    /// Computes all summary statistics in one pass.
    pub fn summary(&self) -> Summary {
        if self.samples.is_empty() {
            return Summary::empty();
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let mean = sorted.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            sorted.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / (n - 1) as f64
        } else {
            0.0
        };
        Summary {
            count: n,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            p25: percentile_of_sorted(&sorted, 25.0),
            median: percentile_of_sorted(&sorted, 50.0),
            p75: percentile_of_sorted(&sorted, 75.0),
            p95: percentile_of_sorted(&sorted, 95.0),
            p99: percentile_of_sorted(&sorted, 99.0),
            max: sorted[n - 1],
        }
    }

    /// Histogram over `[min, max]` with `bins` buckets — the violin shape
    /// of Fig 5. Returns `(bucket_lower_edges, counts)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0`.
    pub fn histogram(&self, bins: usize) -> (Vec<f64>, Vec<u64>) {
        assert!(bins > 0, "histogram needs at least one bin");
        if self.samples.is_empty() {
            return (vec![0.0; bins], vec![0; bins]);
        }
        let min = self.samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = self.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let width = ((max - min) / bins as f64).max(1e-12);
        let edges: Vec<f64> = (0..bins).map(|i| min + i as f64 * width).collect();
        let mut counts = vec![0u64; bins];
        for &s in &self.samples {
            let idx = (((s - min) / width) as usize).min(bins - 1);
            counts[idx] += 1;
        }
        (edges, counts)
    }

    /// Fraction of samples strictly above `threshold`.
    pub fn fraction_above(&self, threshold: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().filter(|&&s| s > threshold).count() as f64 / self.samples.len() as f64
    }
}

impl Extend<f64> for Distribution {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for s in iter {
            self.record(s);
        }
    }
}

impl FromIterator<f64> for Distribution {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Distribution {
        let mut d = Distribution::new();
        d.extend(iter);
        d
    }
}

fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let rank = (p / 100.0) * (n - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi.min(n - 1)] * frac
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.2} σ={:.2} min={:.2} p50={:.2} p99={:.2} max={:.2}",
            self.count, self.mean, self.std_dev, self.min, self.median, self.p99, self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_values() {
        let d: Distribution = (1..=100).map(|i| i as f64).collect();
        let s = d.summary();
        assert_eq!(s.count, 100);
        assert!((s.mean - 50.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.median - 50.5).abs() < 1e-9);
        assert!((s.p25 - 25.75).abs() < 1e-9);
        assert!((s.p75 - 75.25).abs() < 1e-9);
        assert!((s.std_dev - 29.011).abs() < 0.01);
    }

    #[test]
    fn empty_distribution_summary() {
        let d = Distribution::new();
        assert_eq!(d.summary(), Summary::empty());
        assert!(d.is_empty());
        assert_eq!(d.percentile(50.0), 0.0);
        assert_eq!(d.fraction_above(1.0), 0.0);
    }

    #[test]
    fn single_sample() {
        let mut d = Distribution::new();
        d.record(7.0);
        let s = d.summary();
        assert_eq!(s.mean, 7.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.median, 7.0);
        assert_eq!(s.p99, 7.0);
    }

    #[test]
    fn percentiles_are_monotone() {
        let d: Distribution = (0..500).map(|i| ((i * 37) % 499) as f64).collect();
        let mut prev = f64::NEG_INFINITY;
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 100.0] {
            let v = d.percentile(p);
            assert!(v >= prev, "percentile({p}) = {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn histogram_covers_all_samples() {
        let d: Distribution = (0..1000).map(|i| (i % 50) as f64).collect();
        let (edges, counts) = d.histogram(10);
        assert_eq!(edges.len(), 10);
        assert_eq!(counts.iter().sum::<u64>(), 1000);
        // Uniform data: roughly equal bins.
        for &c in &counts {
            assert!((80..=120).contains(&(c as i64)), "bin count {c}");
        }
    }

    #[test]
    fn fraction_above_threshold() {
        let d: Distribution = (1..=10).map(|i| i as f64).collect();
        assert!((d.fraction_above(5.0) - 0.5).abs() < 1e-12);
        assert_eq!(d.fraction_above(10.0), 0.0);
        assert_eq!(d.fraction_above(0.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_sample_panics() {
        Distribution::new().record(f64::NAN);
    }

    #[test]
    fn constant_samples_zero_variance() {
        let d: Distribution = std::iter::repeat_n(3.5, 20).collect();
        let s = d.summary();
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.p25, 3.5);
        assert_eq!(s.p99, 3.5);
    }
}
