//! Order statistics for host-time samples.

/// The median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The three quartile cut points of `values`, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method), so
/// spreads printed here match those a reader recomputes from the raw runs.
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values);
    let ld = s.len();
    if ld == 1 {
        return [s[0]; 3];
    }
    let (n, m) = (4i64, ld as i64 + 1);
    let mut out = [0.0; 3];
    for (i, q) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        // Negative for the outer quartiles of tiny samples, exactly as in
        // Python (extrapolation beyond the data).
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        *q = (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64;
    }
    out
}

/// Interquartile range as a share of the median: the run-to-run spread.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values)
}

/// Percentiles reported for tails, highest first.
const TAIL_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported percentile for it to mean
/// anything.
const MIN_BEYOND: usize = 10;

/// The highest of [`TAIL_PERCENTILES`] with at least [`MIN_BEYOND`] samples
/// above it, as `(percentile, nearest-rank value)`; `None` when there are
/// too few samples for any.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let n = s.len();
    TAIL_PERCENTILES.iter().find_map(|&p| {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        (rank >= 1 && n - rank >= MIN_BEYOND).then(|| (p, s[rank - 1]))
    })
}

/// The geometric mean of positive `values`.
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "order statistics of an empty sample");
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Min, median, max, spread, and sample count (plus the tail percentile
/// when there are enough samples), for human-readable lines.
pub fn summary(values: &[f64]) -> String {
    let s = sorted(values);
    let mut line = format!(
        "min {:.4} median {:.4} max {:.4} iqr/median {:.4} (n={})",
        s[0],
        median(&s),
        s[s.len() - 1],
        spread(&s),
        s.len()
    );
    if let Some((p, v)) = tail(&s) {
        line.push_str(&format!(" p{p} {v:.4}"));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0; 6]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // Ten samples: no percentile has ten beyond it.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        // Twenty samples: p50 (rank 10) leaves exactly ten beyond; p75
        // (rank 15) leaves five.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&twenty), Some((50.0, 10.0)));
        // 176 samples (one sweep pass): p90 is rank 159 with 17 beyond,
        // p95 is rank 168 with only 8 beyond.
        let sweep: Vec<f64> = (1..=176).map(f64::from).collect();
        assert_eq!(tail(&sweep), Some((90.0, 159.0)));
        // 1000 samples: p99 (rank 990) has exactly ten beyond.
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&many), Some((99.0, 990.0)));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.5]) - 1.5).abs() < 1e-12);
    }
}
