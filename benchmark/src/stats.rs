//! Order statistics over per-unit samples.

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Ascending copy of `xs`.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Mean of the fastest quarter of `xs` (at least one sample): what the
/// per-layer rows report, for the reason the gated timing is the fast
/// edge.
pub fn fastest_quarter_mean(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    mean(&s[..(s.len() / 4).max(1)])
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    quantile(&sorted(xs), 0.5)
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the exclusive method): the rule the driver applies to
/// ten runs.
pub fn quartiles_exclusive(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Summary of one run's per-unit wall times (nanoseconds).
#[derive(Clone, Copy, Debug)]
pub struct UnitStats {
    /// Number of units.
    pub units: usize,
    /// The tenth-fastest unit: the gated estimator. Interference only
    /// ever adds time, so the fast edge of the distribution is what
    /// repeats on a shared machine (evidence in the README); the tenth
    /// rather than the first, so that no single reading decides.
    pub floor: f64,
    /// 5th percentile.
    pub p05: f64,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Mean.
    pub mean: f64,
}

impl UnitStats {
    /// Summarize unit times.
    pub fn of(unit_ns: &[u32]) -> UnitStats {
        let mut s: Vec<f64> = unit_ns.iter().map(|&x| x as f64).collect();
        s.sort_by(f64::total_cmp);
        UnitStats {
            units: s.len(),
            floor: s[9.min(s.len() - 1)],
            p05: quantile(&s, 0.05),
            p50: quantile(&s, 0.50),
            p99: quantile(&s, 0.99),
            mean: mean(&s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 1.0), 5.0);
        assert_eq!(quantile(&s, 0.125), 1.5);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&xs), (2.75, 8.25));
    }
}
