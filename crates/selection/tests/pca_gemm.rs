//! Pins the GEMM-backed PCA fit and selection distances against the
//! pre-rework nested-loop implementation.
//!
//! This runs as its own integration-test process because
//! `gemm::set_force_naive` is process-global: toggling it here cannot
//! race the unit tests. The tests below run on parallel threads of this
//! process, so each holds [`NAIVE_SWITCH`] for its whole body.

use pp_nn::gemm;
use pp_selection::{select_representatives, Pca, PcaSelector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serialises the tests that toggle `gemm::set_force_naive`.
static NAIVE_SWITCH: Mutex<()> = Mutex::new(());

fn hold_switch() -> MutexGuard<'static, ()> {
    // A panic in another test already fails the run; take the guard
    // anyway so the remaining tests still report.
    NAIVE_SWITCH.lock().unwrap_or_else(PoisonError::into_inner)
}

fn random_data(n: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..d).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
        .collect()
}

/// Under the naive kernels the GEMM-formulated fit must reproduce the
/// reference loop implementation *bit for bit*: the kernels were chosen
/// so every accumulation happens in the same order.
#[test]
fn pca_gemm_matches_reference() {
    let _switch = hold_switch();
    for (n, d, k, seed) in [(30, 6, 6, 0u64), (64, 17, 8, 1), (200, 32, 12, 2)] {
        let data = random_data(n, d, seed);
        let reference = Pca::fit_reference(&data, 0.9, k, seed);

        gemm::set_force_naive(true);
        let naive = Pca::fit(&data, 0.9, k, seed);
        gemm::set_force_naive(false);
        assert_eq!(
            naive.eigenvalues(),
            reference.eigenvalues(),
            "naive-kernel fit diverged from the reference loop at n={n} d={d}"
        );
        for row in &data {
            assert_eq!(naive.transform(row), reference.transform(row));
        }

        // The blocked kernels reassociate float reductions, so demand
        // agreement to tolerance rather than bit equality.
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

/// The GEMM distance path must agree with the per-pair reference loop
/// on selection outcomes for well-separated data (ties are the only
/// place float rounding could legitimately flip a pick).
#[test]
fn selection_gemm_matches_reference_distances() {
    let _switch = hold_switch();
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
        gemm::set_force_naive(true);
        let reference = select_representatives(&clusters, 5, |_| true, seed);
        gemm::set_force_naive(false);
        assert_eq!(fast, reference, "picks diverged at seed {seed}");
    }
}

/// End-to-end selector determinism across both kernel paths.
#[test]
fn selector_deterministic_on_both_paths() {
    let _switch = hold_switch();
    let library = pp_pdk::SynthNode::default().starter_patterns();
    let selector = PcaSelector::new(0.9, 0.4, 11);
    let fast_a = selector.select(&library, 6);
    let fast_b = selector.select(&library, 6);
    assert_eq!(fast_a, fast_b);
    gemm::set_force_naive(true);
    let naive_a = selector.select(&library, 6);
    let naive_b = selector.select(&library, 6);
    gemm::set_force_naive(false);
    assert_eq!(naive_a, naive_b);
    assert_eq!(fast_a.len(), naive_a.len());
}
