//! Order statistics, the tail-percentile rule, the quartile spread the
//! acceptance check uses, and the log-log slope fit.

/// Samples a tail percentile needs beyond it before it is reported.
pub const TAIL_SUPPORT: usize = 10;

/// The value at quantile `q` of an ascending slice (nearest rank).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median with the midpoint of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    assert!(!s.is_empty(), "median of no samples");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Quantile `q` of an ascending slice, or `None` when fewer than
/// [`TAIL_SUPPORT`] samples lie beyond it: a p99 of 300 samples rests on
/// three of them and is not reported.
pub fn tail_quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let beyond = sorted.len() - ((q * sorted.len() as f64).ceil() as usize).min(sorted.len());
    (beyond >= TAIL_SUPPORT).then(|| quantile_sorted(sorted, q))
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the exclusive method), which is what the acceptance check
/// is stated in.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    assert!(s.len() >= 2, "quartiles need two samples");
    let at = |k: usize| {
        let pos = k as f64 * (s.len() + 1) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, s.len() - 1);
        let frac = pos - lo as f64;
        s[lo - 1] + frac * (s[lo] - s[lo - 1])
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median's size; 0 for a
/// single value.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// Least-squares slope of `ln y` against `ln x`: the fitted exponent of a
/// scaling series.
pub fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    assert!(points.len() >= 2, "a slope needs two points");
    let logs: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let n = logs.len() as f64;
    let (sx, sy) = logs.iter().fold((0.0, 0.0), |(a, b), p| (a + p.0, b + p.1));
    let (sxx, sxy) = logs
        .iter()
        .fold((0.0, 0.0), |(a, b), p| (a + p.0 * p.0, b + p.0 * p.1));
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_quantile(&s, 0.99), Some(990.0));
        let s: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail_quantile(&s, 0.99), None, "9 samples beyond p99");
        assert_eq!(tail_quantile(&s, 0.95), Some(950.0));
        assert_eq!(tail_quantile(&s[..100], 0.90), Some(90.0));
        assert_eq!(tail_quantile(&s[..99], 0.90), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn slope_recovers_known_exponents() {
        let cubic: Vec<(f64, f64)> = [16.0f64, 32.0, 64.0]
            .iter()
            .map(|&n| (n, 2e-9 * n.powi(3)))
            .collect();
        assert!((log_log_slope(&cubic) - 3.0).abs() < 1e-9);
        let linear: Vec<(f64, f64)> = [300.0f64, 600.0, 1200.0]
            .iter()
            .map(|&n| (n, 7.0 * n))
            .collect();
        assert!((log_log_slope(&linear) - 1.0).abs() < 1e-9);
    }
}
