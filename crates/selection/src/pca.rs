//! Principal component analysis from scratch.
//!
//! PCA here runs on flattened layout clips (dimension = clip², up to a few
//! thousand) over libraries of up to tens of thousands of samples, so an
//! explicit covariance eigendecomposition is out of the question. Instead
//! we use **subspace iteration** on the *implicit* covariance
//! `C = Xᶜᵀ Xᶜ / n` (where `Xᶜ` is the centred data): repeatedly apply
//! `V ← orth(Xᶜᵀ (Xᶜ V) / n)`, which converges to the dominant
//! eigenvectors without ever materialising `C`.
//!
//! The centred data is flattened into one row-major `[n, d]` matrix and
//! each subspace iteration runs as two `pp_nn::gemm` calls — `W = XᶜBᵀ`
//! (`sgemm_nt`) then `B ← WᵀXᶜ / n` (`sgemm_tn`) with the basis stored
//! as component rows `[k, d]` — so the fit rides the same blocked
//! AVX-512/AVX2 kernels as the sampler. The pre-rework nested-loop fit
//! stays as [`Pca::fit_reference`]: the `pca_gemm` test checks the fit
//! against it, and `pp-bench`'s `round_bench` times the fit against it.

use crate::error::SelectionError;
use pp_nn::gemm;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A fitted PCA model.
///
/// # Example
///
/// ```
/// use pp_selection::Pca;
///
/// // Points on a line in 3D: one component explains everything.
/// let data: Vec<Vec<f32>> = (0..20)
///     .map(|i| vec![i as f32, 2.0 * i as f32, -i as f32])
///     .collect();
/// let pca = Pca::fit(&data, 0.9, 4, 0);
/// assert_eq!(pca.n_components(), 1);
/// assert!(pca.explained_ratio() > 0.99);
/// ```
#[derive(Debug, Clone)]
pub struct Pca {
    mean: Vec<f32>,
    /// Row-major components, each of length `dim`.
    components: Vec<Vec<f32>>,
    /// Variance captured by each component.
    eigenvalues: Vec<f32>,
    /// Total variance of the (centred) data.
    total_variance: f32,
}

impl Pca {
    /// Fits PCA keeping the smallest number of components whose explained
    /// variance reaches `target_explained` (capped at `max_components`).
    ///
    /// Deterministic in `seed`.
    ///
    /// # Errors
    ///
    /// [`SelectionError::EmptyInput`] if `data` is empty,
    /// [`SelectionError::DimensionMismatch`] if rows have inconsistent
    /// lengths.
    pub fn try_fit(
        data: &[Vec<f32>],
        target_explained: f64,
        max_components: usize,
        seed: u64,
    ) -> Result<Pca, SelectionError> {
        if data.is_empty() {
            return Err(SelectionError::EmptyInput("pca sample set"));
        }
        let dim = data[0].len();
        if let Some(bad) = data.iter().find(|d| d.len() != dim) {
            return Err(SelectionError::DimensionMismatch {
                expected: dim,
                actual: bad.len(),
            });
        }
        Ok(Self::fit_checked(
            data,
            target_explained,
            max_components,
            seed,
        ))
    }

    /// [`Pca::try_fit`] for known-good data.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or rows have inconsistent lengths.
    pub fn fit(data: &[Vec<f32>], target_explained: f64, max_components: usize, seed: u64) -> Pca {
        Self::try_fit(data, target_explained, max_components, seed)
            .expect("pca needs non-empty samples of one dimension")
    }

    /// The fit itself, after input validation.
    fn fit_checked(
        data: &[Vec<f32>],
        target_explained: f64,
        max_components: usize,
        seed: u64,
    ) -> Pca {
        let dim = data[0].len();
        let n = data.len();
        let k_max = max_components.min(dim).min(n).max(1);

        // Centre the data into one flat row-major [n, d] matrix.
        let mut mean = vec![0.0f32; dim];
        for row in data {
            for (m, &v) in mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n as f32;
        }
        let mut centred = vec![0.0f32; n * dim];
        for (flat, row) in centred.chunks_exact_mut(dim).zip(data) {
            for ((c, &v), &m) in flat.iter_mut().zip(row).zip(&mean) {
                *c = v - m;
            }
        }
        let total_variance: f32 = centred
            .chunks_exact(dim)
            .flat_map(|r| r.iter().map(|&v| v * v))
            .sum::<f32>()
            / n as f32;

        if total_variance <= f32::EPSILON {
            // Degenerate: all samples identical.
            return Pca {
                mean,
                components: vec![unit_vector(dim, 0)],
                eigenvalues: vec![0.0],
                total_variance: 0.0,
            };
        }

        // Subspace iteration: basis stored as component rows [k, d].
        let mut rng = StdRng::seed_from_u64(seed);
        let mut basis: Vec<f32> = (0..k_max * dim)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        orthonormalise(&mut basis, dim);
        let mut proj = vec![0.0f32; n * k_max];
        let mut next = vec![0.0f32; k_max * dim];
        for _ in 0..30 {
            // W = Xᶜ Bᵀ (n × k): every element is a row·component dot.
            gemm::sgemm_nt(n, dim, k_max, &centred, &basis, &mut proj, 0.0);
            // B ← Wᵀ Xᶜ / n (k × d): accumulates sample by sample in
            // index order, matching the reference loop bit for bit
            // under the naive kernels.
            gemm::sgemm_tn(k_max, n, dim, &proj, &centred, &mut next, 0.0);
            for v in &mut next {
                *v /= n as f32;
            }
            std::mem::swap(&mut basis, &mut next);
            orthonormalise(&mut basis, dim);
        }

        // Eigenvalues = variance along each basis vector, read off one
        // final projection pass.
        gemm::sgemm_nt(n, dim, k_max, &centred, &basis, &mut proj, 0.0);
        let mut eig: Vec<(f32, Vec<f32>)> = basis
            .chunks_exact(dim)
            .enumerate()
            .map(|(c, b)| {
                let var: f32 = proj
                    .chunks_exact(k_max)
                    .map(|row| row[c] * row[c])
                    .sum::<f32>()
                    / n as f32;
                (var, b.to_vec())
            })
            .collect();
        // total_cmp: a NaN variance (degenerate or poisoned input) must
        // sort deterministically, not panic the round.
        eig.sort_by(|a, b| b.0.total_cmp(&a.0));

        // Keep components until the target explained variance is reached.
        let mut kept = Vec::new();
        let mut eigenvalues = Vec::new();
        let mut acc = 0.0f64;
        for (val, vec) in eig {
            kept.push(vec);
            eigenvalues.push(val);
            acc += f64::from(val);
            if acc / f64::from(total_variance) >= target_explained {
                break;
            }
        }
        Pca {
            mean,
            components: kept,
            eigenvalues,
            total_variance,
        }
    }

    /// The pre-GEMM nested-loop fit, kept verbatim as the arithmetic
    /// reference the `pca_gemm` integration test compares the fit
    /// against, and the baseline `round_bench` times. Not part of the
    /// public API.
    #[doc(hidden)]
    pub fn fit_reference(
        data: &[Vec<f32>],
        target_explained: f64,
        max_components: usize,
        seed: u64,
    ) -> Pca {
        let dim = data[0].len();
        let n = data.len();
        let k_max = max_components.min(dim).min(n).max(1);

        let mut mean = vec![0.0f32; dim];
        for row in data {
            for (m, &v) in mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut mean {
            *m /= n as f32;
        }
        let centred: Vec<Vec<f32>> = data
            .iter()
            .map(|row| row.iter().zip(&mean).map(|(&v, &m)| v - m).collect())
            .collect();
        let total_variance: f32 = centred
            .iter()
            .flat_map(|r| r.iter().map(|&v| v * v))
            .sum::<f32>()
            / n as f32;

        if total_variance <= f32::EPSILON {
            return Pca {
                mean,
                components: vec![unit_vector(dim, 0)],
                eigenvalues: vec![0.0],
                total_variance: 0.0,
            };
        }

        let mut rng = StdRng::seed_from_u64(seed);
        let mut basis: Vec<f32> = (0..k_max * dim)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        orthonormalise(&mut basis, dim);
        let mut rows: Vec<Vec<f32>> = basis.chunks_exact(dim).map(<[f32]>::to_vec).collect();
        for _ in 0..30 {
            let mut next: Vec<Vec<f32>> = vec![vec![0.0; dim]; rows.len()];
            for row in &centred {
                for (b, nx) in rows.iter().zip(next.iter_mut()) {
                    let proj: f32 = row.iter().zip(b).map(|(&r, &v)| r * v).sum();
                    for (nv, &r) in nx.iter_mut().zip(row) {
                        *nv += proj * r;
                    }
                }
            }
            for nx in &mut next {
                for v in nx.iter_mut() {
                    *v /= n as f32;
                }
            }
            rows = next;
            let mut flat: Vec<f32> = rows.concat();
            orthonormalise(&mut flat, dim);
            rows = flat.chunks_exact(dim).map(<[f32]>::to_vec).collect();
        }

        let mut eig: Vec<(f32, Vec<f32>)> = rows
            .into_iter()
            .map(|b| {
                let var: f32 = centred
                    .iter()
                    .map(|row| {
                        let p: f32 = row.iter().zip(&b).map(|(&r, &v)| r * v).sum();
                        p * p
                    })
                    .sum::<f32>()
                    / n as f32;
                (var, b)
            })
            .collect();
        eig.sort_by(|a, b| b.0.total_cmp(&a.0));

        let mut kept = Vec::new();
        let mut eigenvalues = Vec::new();
        let mut acc = 0.0f64;
        for (val, vec) in eig {
            kept.push(vec);
            eigenvalues.push(val);
            acc += f64::from(val);
            if acc / f64::from(total_variance) >= target_explained {
                break;
            }
        }
        Pca {
            mean,
            components: kept,
            eigenvalues,
            total_variance,
        }
    }

    /// Number of retained components.
    pub fn n_components(&self) -> usize {
        self.components.len()
    }

    /// Fraction of total variance explained by the retained components.
    pub fn explained_ratio(&self) -> f64 {
        if self.total_variance <= f32::EPSILON {
            return 1.0;
        }
        f64::from(self.eigenvalues.iter().sum::<f32>()) / f64::from(self.total_variance)
    }

    /// Variance captured per component, descending.
    pub fn eigenvalues(&self) -> &[f32] {
        &self.eigenvalues
    }

    /// Projects a sample onto the retained components.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training dimension.
    pub fn transform(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.mean.len(), "dimension mismatch");
        self.components
            .iter()
            .map(|c| {
                x.iter()
                    .zip(&self.mean)
                    .zip(c)
                    .map(|((&v, &m), &cv)| (v - m) * cv)
                    .sum()
            })
            .collect()
    }

    /// Projects many samples at once: one `[n, d]·[d, k]` GEMM instead
    /// of `n·k` scalar dot products. Agrees with mapping
    /// [`Pca::transform`] to float rounding (the blocked kernels split
    /// dot products across several accumulators).
    ///
    /// # Panics
    ///
    /// Panics if any row's length differs from the training dimension.
    pub fn transform_batch(&self, data: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let dim = self.mean.len();
        let n = data.len();
        let k = self.components.len();
        if n == 0 {
            return Vec::new();
        }
        let mut centred = vec![0.0f32; n * dim];
        for (flat, row) in centred.chunks_exact_mut(dim).zip(data) {
            assert_eq!(row.len(), dim, "dimension mismatch");
            for ((c, &v), &m) in flat.iter_mut().zip(row).zip(&self.mean) {
                *c = v - m;
            }
        }
        let flat_components: Vec<f32> = self.components.concat();
        let mut proj = vec![0.0f32; n * k];
        gemm::sgemm_nt(n, dim, k, &centred, &flat_components, &mut proj, 0.0);
        proj.chunks_exact(k).map(<[f32]>::to_vec).collect()
    }
}

/// Modified Gram-Schmidt over component rows of a flat `[k, d]` matrix;
/// drops near-zero vectors by replacing them with a deterministic axis
/// vector chosen from their index.
fn orthonormalise(basis: &mut [f32], dim: usize) {
    let k = basis.len() / dim;
    for i in 0..k {
        for j in 0..i {
            let (head, tail) = basis.split_at_mut(i * dim);
            let bi = &mut tail[..dim];
            let bj = &head[j * dim..(j + 1) * dim];
            let dot: f32 = bi.iter().zip(bj).map(|(&a, &b)| a * b).sum();
            for (v, &w) in bi.iter_mut().zip(bj) {
                *v -= dot * w;
            }
        }
        let bi = &mut basis[i * dim..(i + 1) * dim];
        let norm: f32 = bi.iter().map(|&v| v * v).sum::<f32>().sqrt();
        if norm > 1e-12 {
            for v in bi {
                *v /= norm;
            }
        } else {
            bi.fill(0.0);
            bi[i % dim] = 1.0;
        }
    }
}

fn unit_vector(dim: usize, axis: usize) -> Vec<f32> {
    let mut v = vec![0.0; dim];
    v[axis] = 1.0;
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::Rng;

    #[test]
    fn recovers_dominant_direction() {
        // Data spread along (1, 1)/√2 with small noise on (1, -1)/√2.
        let mut rng = StdRng::seed_from_u64(1);
        let data: Vec<Vec<f32>> = (0..200)
            .map(|_| {
                let t: f32 = rng.gen_range(-10.0..10.0);
                let n: f32 = rng.gen_range(-0.1..0.1);
                vec![t + n, t - n]
            })
            .collect();
        let pca = Pca::fit(&data, 0.9, 2, 0);
        assert_eq!(pca.n_components(), 1);
        // Component ≈ ±(0.707, 0.707).
        let c = &pca.transform(&[1.0, 1.0]);
        assert!(c[0].abs() > 1.3, "projection {c:?}");
    }

    #[test]
    fn explained_ratio_reaches_target() {
        let mut rng = StdRng::seed_from_u64(2);
        let data: Vec<Vec<f32>> = (0..100)
            .map(|_| (0..10).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect();
        let pca = Pca::fit(&data, 0.9, 10, 0);
        assert!(pca.explained_ratio() >= 0.9 - 1e-6);
    }

    #[test]
    fn identical_samples_degenerate_gracefully() {
        let data = vec![vec![3.0f32, 4.0]; 5];
        let pca = Pca::fit(&data, 0.9, 2, 0);
        assert_eq!(pca.n_components(), 1);
        assert_eq!(pca.transform(&[3.0, 4.0]), vec![0.0]);
    }

    #[test]
    fn transform_centres_data() {
        let data = vec![vec![1.0f32, 0.0], vec![3.0, 0.0]];
        let pca = Pca::fit(&data, 0.99, 2, 0);
        let a = pca.transform(&[1.0, 0.0]);
        let b = pca.transform(&[3.0, 0.0]);
        // Projections are symmetric about the mean.
        assert!((a[0] + b[0]).abs() < 1e-4, "{a:?} {b:?}");
    }

    #[test]
    fn nan_input_does_not_panic() {
        // Regression: the eigenvalue sort used partial_cmp().unwrap(),
        // which panicked the whole round when a poisoned feature slipped
        // in. total_cmp must order NaNs deterministically instead.
        let mut data: Vec<Vec<f32>> = (0..10)
            .map(|i| vec![i as f32, f32::NAN, -(i as f32)])
            .collect();
        let pca = Pca::fit(&data, 0.9, 3, 0);
        assert!(pca.n_components() >= 1);
        // A fully degenerate (constant) clean column alongside the NaN
        // column must also survive.
        for row in &mut data {
            row[1] = 7.0;
            row[2] = f32::NAN;
        }
        let pca = Pca::fit(&data, 0.9, 3, 1);
        assert!(pca.n_components() >= 1);
    }

    #[test]
    fn transform_batch_matches_transform() {
        let mut rng = StdRng::seed_from_u64(9);
        let data: Vec<Vec<f32>> = (0..40)
            .map(|_| (0..12).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
            .collect();
        let pca = Pca::fit(&data, 0.95, 8, 4);
        let batch = pca.transform_batch(&data);
        for (row, projected) in data.iter().zip(&batch) {
            for (a, b) in pca.transform(row).iter().zip(projected) {
                assert!((a - b).abs() < 1e-5, "{a} vs {b}");
            }
        }
        assert!(pca.transform_batch(&[]).is_empty());
    }

    #[test]
    fn eigenvalues_descend() {
        let mut rng = StdRng::seed_from_u64(3);
        let data: Vec<Vec<f32>> = (0..80)
            .map(|_| {
                let a: f32 = rng.gen_range(-5.0..5.0);
                let b: f32 = rng.gen_range(-1.0..1.0);
                let c: f32 = rng.gen_range(-0.2..0.2);
                vec![a, b, c]
            })
            .collect();
        let pca = Pca::fit(&data, 0.999, 3, 0);
        let e = pca.eigenvalues();
        assert!(e.windows(2).all(|w| w[0] >= w[1] - 1e-6));
    }

    proptest! {
        /// Projections of training points are finite and bounded by the
        /// data scale.
        #[test]
        fn prop_transform_finite(seed in 0u64..32) {
            let mut rng = StdRng::seed_from_u64(seed);
            let data: Vec<Vec<f32>> = (0..30)
                .map(|_| (0..6).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
                .collect();
            let pca = Pca::fit(&data, 0.9, 6, seed);
            for row in &data {
                for v in pca.transform(row) {
                    prop_assert!(v.is_finite());
                    prop_assert!(v.abs() < 20.0);
                }
            }
        }
    }
}
