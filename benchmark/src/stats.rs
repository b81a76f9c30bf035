//! Order statistics over wall-clock samples.
//!
//! Timings are reported as a median plus the highest percentile that
//! still has at least ten samples beyond it; run-to-run agreement is
//! judged by the quartile spread the driver uses (Python's
//! `statistics.quantiles(values, n=4)`).

/// Ascending copy; wall-clock samples are never NaN.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated percentile (`p` in 0..=100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// Percentiles a tail may be reported at, ascending, in per mille (so
/// the ten-samples rule is exact integer arithmetic).
pub const TAIL_CANDIDATES_PER_MILLE: [u64; 5] = [750, 900, 950, 990, 999];

/// The highest candidate percentile with at least ten of `n` samples
/// beyond it, or `None` when even p75 has fewer (n < 40).
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES_PER_MILLE
        .iter()
        .rfind(|&&p| n as u64 * (1000 - p) >= 10 * 1000)
        .map(|&p| p as f64 / 10.0)
}

/// Merge the sample lists of several rounds into one pool (order is
/// irrelevant to every statistic taken from it).
pub fn pool<R: AsRef<[f64]>>(rounds: impl IntoIterator<Item = R>) -> Vec<f64> {
    let mut pooled = Vec::new();
    for round in rounds {
        pooled.extend_from_slice(round.as_ref());
    }
    pooled
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method) gives them. Needs two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let m = data.len();
    assert!(m >= 2, "quartiles need at least two values");
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median: the run-to-run spread a metric's bound is held against.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        return if q3 == q1 { 0.0 } else { f64::INFINITY };
    }
    (q3 - q1) / q2.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(110), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        // The property itself, for every size the benchmark can produce.
        for n in 40..5_000u64 {
            let per_mille = (tail_percentile(n as usize).unwrap() * 10.0).round() as u64;
            assert!(n * (1000 - per_mille) >= 10_000, "n={n} p={per_mille}");
        }
    }

    #[test]
    fn pooled_rounds_give_the_statistics_of_the_union() {
        let rounds = vec![vec![5.0, 1.0], vec![], vec![3.0], vec![4.0, 2.0]];
        let pooled = pool(&rounds);
        assert_eq!(pooled.len(), 5);
        assert_eq!(median(&pooled), 3.0);
        // Not the median of per-round medians (3.0, 3.0, 3.0 would hide
        // the skew of uneven rounds).
        let uneven = pool([vec![1.0, 1.0, 1.0, 1.0], vec![9.0]]);
        assert_eq!(median(&uneven), 1.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[3.0, 3.0, 3.0]), 0.0);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&s, 0.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 46.0);
    }
}
