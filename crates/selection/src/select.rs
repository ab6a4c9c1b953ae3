//! Constrained farthest-point selection (paper Algorithm 2, lines 2-10).
//!
//! Distances run through `pp_nn::gemm`: each greedy step computes the
//! dot products of the newly chosen sample against the whole feature
//! matrix as one skinny `[n, d]·[d, 1]` GEMM and recovers Euclidean
//! distances from precomputed row norms
//! (`‖a − b‖² = ‖a‖² + ‖b‖² − 2·a·b`). Selection is deterministic in
//! `seed`.

use pp_nn::gemm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// GEMM dots and row norms for one selection run.
struct Distances {
    flat: Vec<f32>,
    norms: Vec<f32>,
    dim: usize,
    /// Dot products of the last prepared sample against all rows.
    dots: Vec<f32>,
}

impl Distances {
    fn new(features: &[Vec<f32>]) -> Self {
        Distances {
            flat: features.concat(),
            norms: features
                .iter()
                .map(|f| f.iter().map(|&v| v * v).sum())
                .collect(),
            dim: features.first().map_or(0, Vec::len),
            dots: vec![0.0; features.len()],
        }
    }

    /// Makes `chosen` the reference point for subsequent [`Self::to`]
    /// calls: one GEMM over the whole matrix.
    fn prepare(&mut self, chosen: usize) {
        let (n, dim) = (self.dots.len(), self.dim);
        let b = &self.flat[chosen * dim..(chosen + 1) * dim];
        gemm::sgemm_nt(n, dim, 1, &self.flat, b, &mut self.dots, 0.0);
    }

    /// Euclidean distance from the prepared sample to row `i`.
    fn to(&self, chosen: usize, i: usize) -> f32 {
        (self.norms[i] + self.norms[chosen] - 2.0 * self.dots[i])
            .max(0.0)
            .sqrt()
    }
}

/// Greedily selects up to `k` diverse samples from `features`.
///
/// Follows the paper's Algorithm 2: start from a random eligible sample,
/// then repeatedly add the eligible sample maximising the *sum* of
/// Euclidean distances to everything already selected.
///
/// `eligible(i)` encodes the constraint set `C` (e.g. a density ceiling);
/// ineligible samples are never selected. Returns fewer than `k` indices
/// when fewer eligible samples exist. Deterministic in `seed`.
///
/// # Example
///
/// ```
/// use pp_selection::select_representatives;
///
/// let pts = vec![vec![0.0], vec![0.1], vec![10.0], vec![10.1]];
/// let picks = select_representatives(&pts, 2, |_| true, 0);
/// // The two picks always straddle the two clusters.
/// let (a, b) = (picks[0].min(picks[1]), picks[0].max(picks[1]));
/// assert!(a <= 1 && b >= 2);
/// ```
pub fn select_representatives<F>(
    features: &[Vec<f32>],
    k: usize,
    eligible: F,
    seed: u64,
) -> Vec<usize>
where
    F: Fn(usize) -> bool,
{
    let candidates: Vec<usize> = (0..features.len()).filter(|&i| eligible(i)).collect();
    if candidates.is_empty() || k == 0 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut selected: Vec<usize> = Vec::with_capacity(k);
    let mut remaining: Vec<usize> = candidates.clone();
    let mut distances = Distances::new(features);

    // Line 3: initial random sample.
    let first = remaining.swap_remove(rng.gen_range(0..remaining.len()));
    selected.push(first);

    // Running sum of distances from each remaining sample to the selected
    // set, updated incrementally (O(n·k) total instead of O(n·k²)).
    distances.prepare(first);
    let mut dist_sum: Vec<f32> = remaining.iter().map(|&i| distances.to(first, i)).collect();

    while selected.len() < k && !remaining.is_empty() {
        // Line 8: farthest point subject to constraints.
        let (best_pos, _) = dist_sum
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("remaining is non-empty");
        let chosen = remaining.swap_remove(best_pos);
        dist_sum.swap_remove(best_pos);
        distances.prepare(chosen);
        for (pos, &i) in remaining.iter().enumerate() {
            dist_sum[pos] += distances.to(chosen, i);
        }
        selected.push(chosen);
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn clusters() -> Vec<Vec<f32>> {
        vec![
            vec![0.0, 0.0],
            vec![0.2, 0.1],
            vec![0.1, 0.2],
            vec![8.0, 8.0],
            vec![8.1, 8.2],
            vec![-8.0, 8.0],
        ]
    }

    #[test]
    fn covers_clusters() {
        let picks = select_representatives(&clusters(), 3, |_| true, 42);
        assert_eq!(picks.len(), 3);
        // One pick from each spatial cluster.
        let near = |i: usize, x: f32, y: f32| {
            let p = &clusters()[i];
            (p[0] - x).abs() < 1.0 && (p[1] - y).abs() < 1.0
        };
        assert!(picks.iter().any(|&i| near(i, 0.0, 0.0)));
        assert!(picks.iter().any(|&i| near(i, 8.0, 8.0)));
        assert!(picks.iter().any(|&i| near(i, -8.0, 8.0)));
    }

    #[test]
    fn respects_constraint() {
        // Only even indices eligible.
        let picks = select_representatives(&clusters(), 3, |i| i % 2 == 0, 0);
        assert!(picks.iter().all(|&i| i % 2 == 0));
        assert_eq!(picks.len(), 3);
    }

    #[test]
    fn returns_fewer_when_starved() {
        let picks = select_representatives(&clusters(), 5, |i| i < 2, 0);
        assert_eq!(picks.len(), 2);
    }

    #[test]
    fn empty_when_no_candidates() {
        assert!(select_representatives(&clusters(), 3, |_| false, 0).is_empty());
        assert!(select_representatives(&[], 3, |_| true, 0).is_empty());
    }

    #[test]
    fn deterministic() {
        let a = select_representatives(&clusters(), 4, |_| true, 9);
        let b = select_representatives(&clusters(), 4, |_| true, 9);
        assert_eq!(a, b);
    }

    proptest! {
        /// Picks are always distinct, eligible, and at most k.
        #[test]
        fn prop_valid_picks(seed in 0u64..64, k in 1usize..8) {
            let picks = select_representatives(&clusters(), k, |i| i != 1, seed);
            let set: std::collections::HashSet<_> = picks.iter().collect();
            prop_assert_eq!(set.len(), picks.len());
            prop_assert!(picks.len() <= k);
            prop_assert!(picks.iter().all(|&i| i != 1));
        }

        /// With k=2 on two far clusters, picks never land in one cluster.
        #[test]
        fn prop_spreads(seed in 0u64..64) {
            let pts = vec![vec![0.0f32], vec![0.1], vec![100.0], vec![100.1]];
            let picks = select_representatives(&pts, 2, |_| true, seed);
            let lo = picks.iter().filter(|&&i| i < 2).count();
            prop_assert_eq!(lo, 1);
        }
    }
}
