//! Order statistics.

/// The `q`-quantile of `v` by nearest rank (`q` in `0..=1`); 0 for an
/// empty slice.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// The median of `v` (mean of the middle pair for even lengths); 0
/// for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First, second and third quartile, by the method of Python's
/// `statistics.quantiles(v, n=4)` (the default, exclusive one).
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let num = (i + 1) * m;
        let j = (num / 4).clamp(1, n - 1);
        let delta = num as f64 / 4.0 - j as f64;
        *slot = s[j - 1] + (s[j] - s[j - 1]) * delta;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
