//! Pal & Counts' optional cluster-analysis filter.
//!
//! The original paper refines its ranking with Gaussian mixture clustering
//! over the feature space, keeping only the "authority" cluster. e#
//! discards the step — "computationally expensive, and … contrary to our
//! objective of improving recall" (§3) — but we implement a 2-means
//! variant so the ablation benches can quantify exactly what discarding it
//! buys and costs.

use crate::detector::ExpertResult;

/// Split results into two clusters by score (1-D 2-means, deterministic
/// initialization at min/max) and keep the higher-scoring cluster.
pub fn cluster_filter(results: Vec<ExpertResult>) -> Vec<ExpertResult> {
    let scores: Vec<f64> = results.iter().map(|r| r.score).collect();
    match cluster_cut(&scores) {
        None => results,
        Some(cut) => results.into_iter().filter(|r| r.score >= cut).collect(),
    }
}

/// The score at and above which a candidate is in the higher cluster —
/// all the filter is, once the scores are known. `None` when there is
/// nothing to separate: fewer than four candidates, or all identical.
pub(crate) fn cluster_cut(scores: &[f64]) -> Option<f64> {
    if scores.len() < 4 {
        return None;
    }
    let mut lo = scores.iter().copied().fold(f64::INFINITY, f64::min);
    let mut hi = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if (hi - lo).abs() < 1e-12 {
        return None;
    }
    // Lloyd iterations on one dimension converge in a handful of steps.
    let mut boundary = (lo + hi) / 2.0;
    for _ in 0..32 {
        let (mut sum_lo, mut n_lo, mut sum_hi, mut n_hi) = (0.0, 0usize, 0.0, 0usize);
        for &s in scores {
            if s < boundary {
                sum_lo += s;
                n_lo += 1;
            } else {
                sum_hi += s;
                n_hi += 1;
            }
        }
        if n_lo == 0 || n_hi == 0 {
            break;
        }
        let new_lo = sum_lo / n_lo as f64;
        let new_hi = sum_hi / n_hi as f64;
        let new_boundary = (new_lo + new_hi) / 2.0;
        if (new_boundary - boundary).abs() < 1e-12 {
            lo = new_lo;
            hi = new_hi;
            break;
        }
        boundary = new_boundary;
        lo = new_lo;
        hi = new_hi;
    }
    Some((lo + hi) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::Features;

    fn result(user: u32, score: f64) -> ExpertResult {
        ExpertResult {
            user,
            score,
            features: Features {
                ts: 0.0,
                mi: 0.0,
                ri: 0.0,
            },
        }
    }

    #[test]
    fn keeps_the_high_cluster() {
        let results = vec![
            result(0, 5.0),
            result(1, 4.8),
            result(2, 0.1),
            result(3, 0.2),
            result(4, 5.2),
        ];
        let kept = cluster_filter(results);
        let users: Vec<u32> = kept.iter().map(|r| r.user).collect();
        assert_eq!(users, vec![0, 1, 4]);
    }

    #[test]
    fn small_or_uniform_inputs_pass_through() {
        let small = vec![result(0, 1.0), result(1, 2.0)];
        assert_eq!(cluster_filter(small.clone()).len(), 2);
        let uniform = vec![result(0, 1.0); 6];
        assert_eq!(cluster_filter(uniform).len(), 6);
    }

    #[test]
    fn filter_reduces_recall() {
        // The exact property the paper discards it for.
        let results: Vec<ExpertResult> =
            (0..10).map(|i| result(i, i as f64)).collect();
        let kept = cluster_filter(results.clone());
        assert!(kept.len() < results.len());
    }
}
