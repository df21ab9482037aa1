//! Sparse click vectors and cosine similarity (§4.1, Figure 2).
//!
//! "Consider a vector space where each dimension represents a URL from the
//! query log. In this space, we associate each query to a vector. Each
//! component of the vector represents the number of clicks on the URL."
//!
//! Test-only: the builder's oracles are written over this type, while
//! `build_graph` keeps the same vectors as flat rows (`builder.rs`).

use esharp_querylog::UrlId;

/// A sparse vector over URL dimensions, sorted by URL id.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ClickVector {
    components: Vec<(UrlId, f64)>,
}

impl ClickVector {
    /// Build from unsorted `(url, clicks)` pairs; duplicate URLs are summed.
    pub fn from_pairs(mut pairs: Vec<(UrlId, f64)>) -> Self {
        pairs.sort_by_key(|&(url, _)| url);
        let mut components: Vec<(UrlId, f64)> = Vec::with_capacity(pairs.len());
        for (url, clicks) in pairs {
            match components.last_mut() {
                Some((last_url, acc)) if *last_url == url => *acc += clicks,
                _ => components.push((url, clicks)),
            }
        }
        ClickVector { components }
    }

    /// The sorted components.
    pub fn components(&self) -> &[(UrlId, f64)] {
        &self.components
    }

    /// True if the vector is all-zero.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        self.components
            .iter()
            .map(|&(_, x)| x * x)
            .sum::<f64>()
            .sqrt()
    }

    /// Dot product with another vector (merge join on sorted URL ids).
    pub fn dot(&self, other: &ClickVector) -> f64 {
        let (mut i, mut j) = (0, 0);
        let mut acc = 0.0;
        while i < self.components.len() && j < other.components.len() {
            let (ua, xa) = self.components[i];
            let (ub, xb) = other.components[j];
            match ua.cmp(&ub) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += xa * xb;
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }

    /// Cosine similarity in `[0, 1]` (both vectors are non-negative click
    /// counts). Zero if either vector is empty.
    pub fn cosine(&self, other: &ClickVector) -> f64 {
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            return 0.0;
        }
        (self.dot(other) / denom).clamp(0.0, 1.0)
    }

    /// Scale the vector to unit norm (no-op on empty vectors). Normalized
    /// vectors let the graph builder accumulate cosine similarity directly
    /// as a sum of per-URL products.
    pub fn normalize(&mut self) {
        let n = self.norm();
        if n > 0.0 {
            for (_, x) in &mut self.components {
                *x /= n;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn arb_vector(max_nnz: usize) -> impl Strategy<Value = ClickVector> {
        prop::collection::vec((0u32..40, 1.0f64..50.0), 0..max_nnz)
            .prop_map(ClickVector::from_pairs)
    }

    proptest! {
        #[test]
        fn cosine_is_symmetric_and_bounded(a in arb_vector(15), b in arb_vector(15)) {
            let ab = a.cosine(&b);
            let ba = b.cosine(&a);
            prop_assert!((ab - ba).abs() < 1e-12);
            prop_assert!((0.0..=1.0).contains(&ab));
        }

        #[test]
        fn cosine_self_is_one_for_nonempty(a in arb_vector(15)) {
            prop_assume!(!a.is_empty());
            prop_assert!((a.cosine(&a) - 1.0).abs() < 1e-9);
        }

        #[test]
        fn normalization_preserves_direction(a in arb_vector(15), b in arb_vector(15)) {
            prop_assume!(!a.is_empty() && !b.is_empty());
            let before = a.cosine(&b);
            let mut na = a.clone();
            let mut nb = b.clone();
            na.normalize();
            nb.normalize();
            // After normalization, cosine equals the plain dot product.
            prop_assert!((na.dot(&nb) - before).abs() < 1e-9);
        }
    }

    #[test]
    fn paper_figure2_example() {
        // 49ers: 49ers.com=25, espn.com=10 ; nfl: nfl.com=20, espn.com=15.
        // URLs: 0=49ers.com, 1=espn.com, 2=nfl.com.
        let niners = ClickVector::from_pairs(vec![(0, 25.0), (1, 10.0)]);
        let nfl = ClickVector::from_pairs(vec![(2, 20.0), (1, 15.0)]);
        let sim = niners.cosine(&nfl);
        // The paper's Figure 2 reports 0.22 after rounding the intermediate
        // norms; the exact value of 150 / (√725·√625) is 0.2228….
        assert!((sim - 0.2228).abs() < 1e-3, "sim = {sim}");
    }

    #[test]
    fn duplicate_urls_are_summed() {
        let v = ClickVector::from_pairs(vec![(3, 1.0), (3, 2.0), (1, 4.0)]);
        assert_eq!(v.components(), &[(1, 4.0), (3, 3.0)]);
    }

    #[test]
    fn cosine_bounds_and_identity() {
        let v = ClickVector::from_pairs(vec![(0, 3.0), (7, 4.0)]);
        assert!((v.cosine(&v) - 1.0).abs() < 1e-12);
        let w = ClickVector::from_pairs(vec![(1, 5.0)]);
        assert_eq!(v.cosine(&w), 0.0);
        let empty = ClickVector::default();
        assert_eq!(v.cosine(&empty), 0.0);
    }

    #[test]
    fn normalize_gives_unit_norm() {
        let mut v = ClickVector::from_pairs(vec![(0, 3.0), (1, 4.0)]);
        v.normalize();
        assert!((v.norm() - 1.0).abs() < 1e-12);
        let mut empty = ClickVector::default();
        empty.normalize(); // must not panic
    }

    #[test]
    fn dot_is_merge_join() {
        let a = ClickVector::from_pairs(vec![(0, 1.0), (2, 2.0), (4, 3.0)]);
        let b = ClickVector::from_pairs(vec![(1, 1.0), (2, 5.0), (4, 1.0)]);
        assert_eq!(a.dot(&b), 13.0);
    }
}
