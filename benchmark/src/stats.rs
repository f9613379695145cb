//! Order statistics over small samples: the medians, quartiles and
//! percentiles every reported timing goes through.

/// Sort a copy of `xs` ascending.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    assert!(!v.is_empty(), "median of an empty sample");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method), so spreads
/// computed here and by an outside harness agree. A single sample is
/// its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    assert!(!v.is_empty(), "quartiles of an empty sample");
    if v.len() == 1 {
        return (v[0], v[0]);
    }
    let at = |p: f64| {
        let pos = p * (v.len() + 1) as f64;
        let j = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (at(0.25), at(0.75))
}

/// Nearest-rank percentile: the smallest sample with at least `p` of
/// the sample at or below it (`p` in `(0, 1]`).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(p > 0.0 && p <= 1.0, "percentile rank must be in (0, 1]");
    let v = sorted(xs);
    assert!(!v.is_empty(), "percentile of an empty sample");
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// [`percentile`] over integer nanosecond samples, as a float.
pub fn percentile_ns(xs: &[u64], p: f64) -> f64 {
    let v: Vec<f64> = xs.iter().map(|&x| x as f64).collect();
    percentile(&v, p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), (10.0, 30.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.99), 990.0);
        assert_eq!(percentile(&xs, 0.5), 500.0);
        assert_eq!(percentile(&xs, 1.0), 1000.0);
        assert_eq!(percentile(&[9.0], 0.99), 9.0);
        assert_eq!(percentile_ns(&[5, 1, 3], 0.5), 3.0);
    }
}
