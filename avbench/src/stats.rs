//! Order statistics and the regression rule the ledger diff applies.

/// Median of `values` (mean of the middle pair for an even count);
/// `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let v = sorted(values);
    let m = v.len();
    if m % 2 == 1 {
        v[m / 2]
    } else {
        (v[m / 2 - 1] + v[m / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100); `NaN` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of the usual reporting percentiles that still has at
/// least ten samples beyond it, so a tail figure never rests on a
/// handful of outliers. `None` below twenty samples.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| samples as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// First and third quartile, computed exactly like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method). `None` below two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let n = 4usize;
    let q = |i: usize| {
        let j = (i * (m + 1) / n).clamp(1, m - 1);
        let delta = i as f64 * (m + 1) as f64 / n as f64 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((q(1), q(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread
/// a metric's regression bound is compared against.
pub fn relative_iqr(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1).abs() / med.abs())
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughputs).
    Higher,
}

impl Better {
    /// The wire name used in `BENCHMARK.json`.
    #[cfg(test)]
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How much worse `new` is than `base`, as a share of `base` (negative
/// when it improved).
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    let delta = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    delta / base.abs()
}

/// Verdict of one end-to-end metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The new median is within the bound of the base median.
    Ok,
    /// The new median is worse than the base median by more than the bound.
    Regressed,
    /// The base runs spread wider than the bound, and the new runs do
    /// not all beat every base run: the data cannot tell.
    Unresolved,
}

/// The no-regression rule: a metric regresses when its median worsens
/// by more than `bound`; when the base's own spread exceeds the bound
/// the comparison is unresolved, unless every new run reads better than
/// every base run.
pub fn judge(base: &[f64], new: &[f64], better: Better, bound: f64) -> Verdict {
    let all_better = match better {
        Better::Lower => {
            new.iter().copied().fold(f64::NEG_INFINITY, f64::max)
                < base.iter().copied().fold(f64::INFINITY, f64::min)
        }
        Better::Higher => {
            new.iter().copied().fold(f64::INFINITY, f64::min)
                > base.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        }
    };
    if all_better {
        return Verdict::Ok;
    }
    if relative_iqr(base).is_some_and(|spread| spread > bound) {
        return Verdict::Unresolved;
    }
    if worsening(median(base), median(new), better) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: with
        // few samples the method extrapolates past the data.
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_and_nearest_rank_percentile() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(1200), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn bound_check_respects_direction() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        // 5 % slower against a 10 % bound: fine; 20 % slower: regression.
        assert_eq!(judge(&base, &[10.5; 5], Better::Lower, 0.10), Verdict::Ok);
        assert_eq!(judge(&base, &[12.0; 5], Better::Lower, 0.10), Verdict::Regressed);
        // A throughput that drops 20 % regresses; one that rises is fine.
        assert_eq!(judge(&base, &[8.0; 5], Better::Higher, 0.10), Verdict::Regressed);
        assert_eq!(judge(&base, &[12.0; 5], Better::Higher, 0.10), Verdict::Ok);
        assert!((worsening(10.0, 12.0, Better::Lower) - 0.2).abs() < 1e-12);
        assert!((worsening(10.0, 12.0, Better::Higher) + 0.2).abs() < 1e-12);
    }

    #[test]
    fn wide_base_spread_is_unresolved_unless_every_new_run_wins() {
        let base = [5.0, 10.0, 15.0, 20.0, 8.0];
        assert!(relative_iqr(&base).unwrap() > 0.10);
        assert_eq!(judge(&base, &[11.0; 5], Better::Lower, 0.10), Verdict::Unresolved);
        assert_eq!(judge(&base, &[4.0; 5], Better::Lower, 0.10), Verdict::Ok);
    }
}
