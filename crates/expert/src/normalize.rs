//! Feature normalization (§3): "To normalize the features, we compute
//! their z-score. … In practice, the features appear to be log-normally
//! distributed. Therefore, we take their logarithm to obtain Gaussian
//! distributions."

/// Natural log with an additive epsilon so zero-valued features stay
/// finite (`ln(0)` would sink the z-score to −∞ and poison the mean).
pub fn log_transform(x: f64, epsilon: f64) -> f64 {
    (x + epsilon).ln()
}

/// Z-scores of a sample: `(x − µ) / σ`. When the standard deviation is 0
/// (all candidates identical, or a single candidate), every z-score is 0.
pub fn z_scores(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    z_scores_in_place(&mut out);
    out
}

/// [`z_scores`] over the sample's own storage — the rank kernel's form,
/// and the one place the sums are written, so the allocating and the
/// in-place callers cannot differ in a single bit.
pub(crate) fn z_scores_in_place(values: &mut [f64]) {
    let n = values.len();
    if n == 0 {
        return;
    }
    let mean = values.iter().sum::<f64>() / n as f64;
    let variance = values.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
    let sd = variance.sqrt();
    if sd == 0.0 || !sd.is_finite() {
        values.fill(0.0);
        return;
    }
    for x in values {
        *x = (*x - mean) / sd;
    }
}

/// Apply the full paper pipeline to one feature column: log-transform then
/// z-score.
pub fn normalize_feature(values: &[f64], epsilon: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity(values.len());
    normalize_into(values.iter().copied(), epsilon, &mut out);
    out
}

/// [`normalize_feature`] into a reused buffer. MI and RI are zero for
/// most candidates and `ln` is the cost of this pass, so `ln(0 + ε)` is
/// taken once.
pub(crate) fn normalize_into(
    values: impl Iterator<Item = f64>,
    epsilon: f64,
    out: &mut Vec<f64>,
) {
    let ln_zero = log_transform(0.0, epsilon);
    out.clear();
    out.extend(values.map(|x| {
        if x == 0.0 {
            ln_zero
        } else {
            log_transform(x, epsilon)
        }
    }));
    z_scores_in_place(out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn z_scores_have_zero_mean_unit_sd() {
        let z = z_scores(&[1.0, 2.0, 3.0, 4.0]);
        let mean: f64 = z.iter().sum::<f64>() / z.len() as f64;
        assert!(mean.abs() < 1e-12);
        let var: f64 = z.iter().map(|x| x * x).sum::<f64>() / z.len() as f64;
        assert!((var - 1.0).abs() < 1e-9);
    }

    #[test]
    fn constant_sample_gives_zeros() {
        assert_eq!(z_scores(&[5.0, 5.0, 5.0]), vec![0.0, 0.0, 0.0]);
        assert_eq!(z_scores(&[42.0]), vec![0.0]);
        assert!(z_scores(&[]).is_empty());
    }

    #[test]
    fn log_transform_handles_zero() {
        let y = log_transform(0.0, 1e-6);
        assert!(y.is_finite());
        assert!(y < 0.0);
        assert!(log_transform(1.0, 1e-6) > y);
    }

    #[test]
    fn normalization_is_monotone() {
        let z = normalize_feature(&[0.0, 0.1, 0.5, 1.0], 1e-6);
        for pair in z.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }
}
