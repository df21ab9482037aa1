//! Feature normalization (§3): "To normalize the features, we compute
//! their z-score. … In practice, the features appear to be log-normally
//! distributed. Therefore, we take their logarithm to obtain Gaussian
//! distributions."

/// Natural log with an additive epsilon so zero-valued features stay
/// finite (`ln(0)` would sink the z-score to −∞ and poison the mean).
pub fn log_transform(x: f64, epsilon: f64) -> f64 {
    (x + epsilon).ln()
}

/// Z-scores of a sample, in place: `(x − µ) / σ`. When the standard
/// deviation is 0 (all candidates identical, or a single candidate),
/// every z-score is 0. The one place the sums are written, so the
/// reference's allocating `z_scores` cannot differ in a single bit.
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

/// Slots of the per-thread `ln` memo: a power of two, 64 KiB of pairs.
const LN_MEMO_SLOTS: usize = 4096;

/// A slot is the top `log2(LN_MEMO_SLOTS)` bits of the key's hash.
const SLOT_SHIFT: u32 = 64 - LN_MEMO_SLOTS.ilog2();

/// The key of a slot no ratio has filled yet. Its value is computed like
/// any other (`ln` of a NaN), so even a probe with these exact bits gets
/// what a miss would return.
const EMPTY: u64 = u64::MAX;

/// A direct-mapped memo of `ln(x + ε)` keyed by `x.to_bits()`. The
/// feature ratios are small fractions (1/2, 2/3, …) that repeat across a
/// query's candidates and across queries, and `ln` is the cost of the
/// normalization pass. A hit returns the very f64 a miss computes, so
/// the memo cannot change a score. Flushed when ε changes. The rank
/// kernel owns one per thread, in its scratch; the reference does not
/// use it.
#[derive(Debug, Default)]
pub(crate) struct LnMemo {
    /// The ε every filled slot was computed with.
    epsilon: f64,
    /// `(x bits, ln(x + ε))`, `LN_MEMO_SLOTS` of them once first used.
    slots: Vec<(u64, f64)>,
}

impl LnMemo {
    /// Make the memo answer for `epsilon`: a no-op unless ε changed
    /// since the last call (or this is the first), which refills every
    /// slot in place — allocation happens only on the thread's first use.
    fn prepare(&mut self, epsilon: f64) {
        if self.slots.len() == LN_MEMO_SLOTS && self.epsilon.to_bits() == epsilon.to_bits() {
            return;
        }
        self.epsilon = epsilon;
        let empty = (EMPTY, log_transform(f64::from_bits(EMPTY), epsilon));
        self.slots.clear();
        self.slots.resize(LN_MEMO_SLOTS, empty);
    }

    /// `log_transform(x, ε)` for the prepared ε.
    #[inline]
    fn ln(&mut self, x: f64) -> f64 {
        let bits = x.to_bits();
        // Fibonacci hashing: the top bits of the product mix every bit of
        // the mantissa, where nearby ratios differ.
        let slot = (bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> SLOT_SHIFT) as usize;
        let entry = &mut self.slots[slot];
        if entry.0 != bits {
            *entry = (bits, log_transform(x, self.epsilon));
        }
        entry.1
    }
}

/// The full paper pipeline over one feature column — log-transform then
/// z-score — into a reused buffer, the logs through `memo`. MI and RI
/// are zero for most candidates, so `ln(0 + ε)` is taken once.
pub(crate) fn normalize_into(
    values: impl Iterator<Item = f64>,
    epsilon: f64,
    memo: &mut LnMemo,
    out: &mut Vec<f64>,
) {
    memo.prepare(epsilon);
    let ln_zero = log_transform(0.0, epsilon);
    out.clear();
    out.extend(values.map(|x| if x == 0.0 { ln_zero } else { memo.ln(x) }));
    z_scores_in_place(out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{normalize_feature, z_scores};

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
    fn memo_hits_and_misses_return_the_plain_log() {
        let mut memo = LnMemo::default();
        let xs = [0.5, 1.0 / 3.0, 0.5, 2.0 / 3.0, 1.0 / 3.0, 1.0, f64::from_bits(EMPTY)];
        for epsilon in [1e-6, 1e-3, 1e-6] {
            memo.prepare(epsilon);
            for _ in 0..2 {
                for &x in &xs {
                    let plain = log_transform(x, epsilon);
                    assert_eq!(memo.ln(x).to_bits(), plain.to_bits(), "x {x}, ε {epsilon}");
                }
            }
        }
    }

    #[test]
    fn normalization_is_monotone() {
        let z = normalize_feature(&[0.0, 0.1, 0.5, 1.0], 1e-6);
        for pair in z.windows(2) {
            assert!(pair[0] < pair[1]);
        }
    }
}
