//! Pins the GEMM-backed PCA fit and selection distances against the
//! pre-rework nested-loop implementation.

use pp_selection::{select_representatives, Pca, PcaSelector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_data(n: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..d).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
        .collect()
}

/// The GEMM fit agrees with the reference loop implementation to
/// tolerance: the blocked kernels reassociate float reductions, so bit
/// equality is not expected.
#[test]
fn pca_gemm_matches_reference() {
    for (n, d, k, seed) in [(30, 6, 6, 0u64), (64, 17, 8, 1), (200, 32, 12, 2)] {
        let data = random_data(n, d, seed);
        let reference = Pca::fit_reference(&data, 0.9, k, seed);
        let fast = Pca::fit(&data, 0.9, k, seed);
        assert_eq!(fast.n_components(), reference.n_components());
        assert!(
            (fast.explained_ratio() - reference.explained_ratio()).abs() < 1e-4,
            "explained ratio drifted: {} vs {}",
            fast.explained_ratio(),
            reference.explained_ratio()
        );
        for (a, b) in fast.eigenvalues().iter().zip(reference.eigenvalues()) {
            assert!((a - b).abs() < 1e-3 * b.abs().max(1.0), "{a} vs {b}");
        }
        // Components match up to sign.
        for row in &data {
            for (a, b) in fast.transform(row).iter().zip(reference.transform(row)) {
                assert!(
                    (a.abs() - b.abs()).abs() < 1e-2 * b.abs().max(1.0),
                    "projection drifted: {a} vs {b}"
                );
            }
        }
    }
}

/// Paper Algorithm 2 with every distance computed per pair: a random
/// first pick, then repeatedly the remaining sample whose summed
/// Euclidean distance to the picks is largest.
fn select_per_pair(features: &[Vec<f32>], k: usize, seed: u64) -> Vec<usize> {
    let euclidean = |a: &[f32], b: &[f32]| {
        a.iter()
            .zip(b)
            .map(|(&x, &y)| (x - y) * (x - y))
            .sum::<f32>()
            .sqrt()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut remaining: Vec<usize> = (0..features.len()).collect();
    let mut selected = vec![remaining.swap_remove(rng.gen_range(0..remaining.len()))];
    while selected.len() < k && !remaining.is_empty() {
        let (best_pos, _) = remaining
            .iter()
            .map(|&i| {
                selected
                    .iter()
                    .map(|&s| euclidean(&features[i], &features[s]))
                    .sum::<f32>()
            })
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("remaining is non-empty");
        selected.push(remaining.swap_remove(best_pos));
    }
    selected
}

/// The GEMM distance path must agree with the per-pair reference loop
/// on selection outcomes for well-separated data (ties are the only
/// place float rounding could legitimately flip a pick).
#[test]
fn selection_gemm_matches_reference_distances() {
    let mut rng = StdRng::seed_from_u64(7);
    let clusters: Vec<Vec<f32>> = (0..60)
        .map(|i| {
            let centre = (i % 5) as f32 * 40.0;
            vec![
                centre + rng.gen_range(-1.0f32..1.0),
                -centre + rng.gen_range(-1.0f32..1.0),
            ]
        })
        .collect();
    for seed in 0..8 {
        let fast = select_representatives(&clusters, 5, |_| true, seed);
        let reference = select_per_pair(&clusters, 5, seed);
        assert_eq!(fast, reference, "picks diverged at seed {seed}");
    }
}

/// End-to-end selector determinism: repeated selections over the same
/// library pick the same patterns.
#[test]
fn selector_deterministic_on_both_paths() {
    let library = pp_pdk::SynthNode::default().starter_patterns();
    let selector = PcaSelector::new(0.9, 0.4, 11);
    let first = selector.select(&library, 6);
    assert_eq!(first.len(), 6);
    assert_eq!(selector.select(&library, 6), first);
}
