//! Order statistics for repeated measurements: median, quartiles, and the
//! highest percentile that still has at least ten samples beyond it.

/// Samples a tail percentile must leave above it before it is reported.
pub const TAIL_SAMPLES: usize = 10;

/// The percentiles [`tail`] considers, highest first, in per-mille so that
/// nearest ranks are exact integer arithmetic.
const TAIL_LADDER_PER_MILLE: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Sorts a copy of `values` ascending (NaNs are a caller bug).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    v
}

/// The `p`-quantile (`0 ≤ p ≤ 1`) of ascending `sorted`, interpolating
/// linearly between the two closest ranks.
fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// First quartile, median and third quartile of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values);
    [0.25, 0.5, 0.75].map(|p| quantile_sorted(&s, p))
}

/// The nearest-rank percentile at `per_mille` (990 is p99) of `values`,
/// or `None` when fewer than [`TAIL_SAMPLES`] samples rank above it.
pub fn percentile(values: &[f64], per_mille: usize) -> Option<f64> {
    let s = sorted(values);
    let n = s.len();
    // Nearest rank: the smallest rank covering that share of samples.
    let rank = (per_mille * n).div_ceil(1_000).max(1);
    (n >= rank + TAIL_SAMPLES).then(|| s[rank - 1])
}

/// The highest percentile of [`TAIL_LADDER_PER_MILLE`] that [`percentile`]
/// can report, as `(percentile, value)`; `None` when even the median has
/// too few samples above it.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    TAIL_LADDER_PER_MILLE
        .iter()
        .find_map(|&per_mille| percentile(values, per_mille).map(|v| (per_mille as f64 / 10.0, v)))
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
    fn quartiles_interpolate_between_ranks() {
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.0, 3.0, 4.0]);
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(quartiles(&v), [25.0, 50.0, 75.0]);
    }

    #[test]
    fn quartiles_ignore_input_order() {
        let a = [9.0, 2.0, 5.0, 1.0, 7.0, 3.0];
        let mut b = a;
        b.reverse();
        assert_eq!(quartiles(&a), quartiles(&b));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.0, 990.0)));
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&v), Some((95.0, 950.0)));
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v), Some((99.9, 9_990.0)));
    }

    #[test]
    fn tail_is_absent_on_tiny_samples() {
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), Some((50.0, 10.0)));
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let v: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(percentile(&v, 990), Some(990.0));
        assert_eq!(percentile(&v, 999), None);
        assert_eq!(percentile(&v[..999], 990), None);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn median_of_nothing_panics() {
        median(&[]);
    }
}
