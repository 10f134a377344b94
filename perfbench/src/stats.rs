//! Order statistics of timing samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by linear interpolation
/// between closest ranks; 0 for an empty slice.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The mean of the middle half of `samples` (the interquartile mean); 0
/// for an empty slice. Like the median it ignores a preempted sample, but
/// where the median of samples taken at two machine speeds jumps from one
/// speed to the other as their shares cross one half, this moves smoothly
/// with the shares.
#[must_use]
pub fn interquartile_mean(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let quarter = sorted.len() / 4;
    let middle = &sorted[quarter..sorted.len() - quarter];
    ratio(middle.iter().sum(), middle.len() as f64)
}

/// `num / den`, or 0 when `den` is 0 (a layer the workload never entered).
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(median(&s), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(interquartile_mean(&[100.0, 2.0, 1.0, 3.0, 0.0]), 2.0);
        assert_eq!(interquartile_mean(&[5.0]), 5.0);
        assert_eq!(interquartile_mean(&[]), 0.0);
    }
}
