//! The estimators every reported number goes through.

/// Which direction of a metric is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolation quantile of an unsorted sample (`q` in 0..=1);
/// 0.0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The best of a run's per-block values. Everything that disturbs a run from
/// outside — a neighbour on the host, a scheduler hiccup — makes a block
/// slower, never faster, so the best block is the one least touched by it;
/// a change to the code moves every block and so moves the best one too.
/// 0.0 for no blocks.
pub fn best(values: &[f64], better: Better) -> f64 {
    let pick = match better {
        Better::Higher => values.iter().copied().max_by(f64::total_cmp),
        Better::Lower => values.iter().copied().min_by(f64::total_cmp),
    };
    pick.unwrap_or(0.0)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) gives them — the rule the acceptance check uses.
/// `None` below two values.
pub fn quartiles_exclusive(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |i: usize| {
        // Position i·(n+1)/4 in 1-based order statistics, clamped like CPython.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median (0.0 when undefined).
pub fn iqr_share(values: &[f64]) -> f64 {
    let m = median(values);
    match quartiles_exclusive(values) {
        Some((q1, q3)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// The highest of p99/p95/p90/p75 that still has at least ten samples beyond
/// it, with its label; falls back to the median on small samples.
pub fn tail(values: &[f64]) -> (&'static str, f64) {
    for (label, q) in [("p99", 0.99), ("p95", 0.95), ("p90", 0.90), ("p75", 0.75)] {
        if values.len() as f64 * (1.0 - q) >= 10.0 {
            return (label, quantile(values, q));
        }
    }
    ("p50", median(values))
}

/// How far `new` is worse than `old`, as a share of `old` (negative when it
/// is better).
pub fn worsening(old: f64, new: f64, better: Better) -> f64 {
    if old == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (new - old) / old.abs(),
        Better::Higher => (old - new) / old.abs(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn best_block_ignores_whatever_slowed_the_others() {
        // Six throughput windows, four of them hit by a disturbance.
        let windows = [330.0, 250.0, 290.0, 331.0, 260.0, 301.0];
        assert_eq!(best(&windows, Better::Higher), 331.0);
        // Latency: lower is better.
        let lat = [5.9, 6.0, 9.5, 5.8, 8.0, 6.1];
        assert_eq!(best(&lat, Better::Lower), 5.8);
        assert_eq!(best(&[5.0], Better::Higher), 5.0);
        assert_eq!(best(&[], Better::Lower), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles_exclusive(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles_exclusive(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert!(quartiles_exclusive(&[1.0]).is_none());
        assert!((iqr_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let big: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&big).0, "p99");
        let mid: Vec<f64> = (0..250).map(f64::from).collect();
        assert_eq!(tail(&mid).0, "p95");
        assert_eq!(tail(&[1.0, 2.0, 3.0]).0, "p50");
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(100.0, 90.0, Better::Higher) - 0.1).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, Better::Lower) + 0.1).abs() < 1e-12);
    }
}
