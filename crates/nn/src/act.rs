//! Activation functions.

use crate::param::Param;
use crate::tensor::Tensor;
use crate::workspace::Workspace;
use crate::Layer;

/// SiLU (swish): `x · σ(x)` — the standard diffusion-U-Net activation.
///
/// # Example
///
/// ```
/// use pp_nn::{Layer, Silu, Tensor};
///
/// let mut act = Silu::new();
/// let y = act.forward(Tensor::from_vec([1, 1, 1, 2], vec![0.0, 10.0]));
/// assert_eq!(y.data()[0], 0.0);
/// assert!((y.data()[1] - 10.0).abs() < 1e-3);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Silu {
    cached_input: Option<Tensor>,
}

impl Silu {
    /// Creates the activation.
    pub fn new() -> Self {
        Silu::default()
    }
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Degree-5 polynomial for `2ʳ` on `r ∈ [-0.5, 0.5]` (Cephes exp2f
/// family; combined sigmoid error < 2e-6 relative).
const EXP2_POLY: [f32; 5] = [
    1.535_336_8e-4,
    1.339_887_e-3,
    9.618_437_e-3,
    5.550_332_7e-2,
    2.402_264_7e-1,
];
const LOG2E: f32 = std::f32::consts::LOG2_E;
const LN2: f32 = std::f32::consts::LN_2;

/// Scalar SiLU through the same polynomial (and FMA rounding, via
/// `mul_add`) as the vector kernel, so vector lanes and scalar tail
/// produce identical bits for identical inputs.
#[inline]
fn silu_poly_scalar(x: f32) -> f32 {
    let t = (-x * LOG2E).clamp(-126.0, 126.0);
    let n = t.round_ties_even();
    let r = t - n;
    let p = EXP2_POLY[0];
    let p = p.mul_add(r, EXP2_POLY[1]);
    let p = p.mul_add(r, EXP2_POLY[2]);
    let p = p.mul_add(r, EXP2_POLY[3]);
    let p = p.mul_add(r, EXP2_POLY[4]);
    // 2ʳ = 1 + ln2·r + p(r)·r².
    let p = (p * r).mul_add(r, LN2.mul_add(r, 1.0));
    let pow2n = f32::from_bits((((n as i32) + 127) << 23) as u32);
    x / (1.0 + p * pow2n)
}

/// The affine step GroupNorm applies to one plane before its SiLU:
/// `γ·((x − mean)·inv_σ) + β`, each operation rounded on its own, in
/// the order the training path runs them (x̂ first, then the affine
/// map).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Affine {
    pub(crate) mean: f32,
    pub(crate) inv_sigma: f32,
    pub(crate) gamma: f32,
    pub(crate) beta: f32,
}

impl Affine {
    #[inline]
    fn apply(self, x: f32) -> f32 {
        self.gamma * ((x - self.mean) * self.inv_sigma) + self.beta
    }
}

/// AVX2+FMA SiLU over full 8-lane chunks, after `affine` when one is
/// given; the caller handles the tail with [`silu_poly_scalar`] (and
/// [`Affine::apply`]), which match lane-for-lane.
///
/// # Safety
///
/// Requires AVX2+FMA; reads `src` and writes `dst` only within the
/// first `len - len % 8` elements.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn silu_avx(dst: &mut [f32], src: &[f32], affine: Option<Affine>) -> usize {
    use std::arch::x86_64::*;
    // SAFETY: the caller upholds this fn's `# Safety` contract (AVX2+FMA
    // present); `chunks = min(len) / 8` bounds every load/store.
    unsafe {
        let len = dst.len().min(src.len());
        let chunks = len / 8;
        let affine = affine.map(|a| {
            [
                _mm256_set1_ps(a.mean),
                _mm256_set1_ps(a.inv_sigma),
                _mm256_set1_ps(a.gamma),
                _mm256_set1_ps(a.beta),
            ]
        });
        let log2e = _mm256_set1_ps(-LOG2E);
        let lo = _mm256_set1_ps(-126.0);
        let hi = _mm256_set1_ps(126.0);
        let ln2 = _mm256_set1_ps(LN2);
        let one = _mm256_set1_ps(1.0);
        let bias = _mm256_set1_epi32(127);
        let c0 = _mm256_set1_ps(EXP2_POLY[0]);
        let c1 = _mm256_set1_ps(EXP2_POLY[1]);
        let c2 = _mm256_set1_ps(EXP2_POLY[2]);
        let c3 = _mm256_set1_ps(EXP2_POLY[3]);
        let c4 = _mm256_set1_ps(EXP2_POLY[4]);
        for i in 0..chunks {
            let mut x = _mm256_loadu_ps(src.as_ptr().add(i * 8));
            if let Some([mean, inv_sigma, gamma, beta]) = affine {
                // Mirror Affine::apply: no fused steps.
                let xh = _mm256_mul_ps(_mm256_sub_ps(x, mean), inv_sigma);
                x = _mm256_add_ps(_mm256_mul_ps(gamma, xh), beta);
            }
            let t = _mm256_max_ps(lo, _mm256_min_ps(hi, _mm256_mul_ps(x, log2e)));
            let n = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(t);
            let r = _mm256_sub_ps(t, n);
            let p = _mm256_fmadd_ps(c0, r, c1);
            let p = _mm256_fmadd_ps(p, r, c2);
            let p = _mm256_fmadd_ps(p, r, c3);
            let p = _mm256_fmadd_ps(p, r, c4);
            // Mirror the scalar ops exactly: 2ʳ = (p·r)·r + (ln2·r + 1).
            let p = _mm256_fmadd_ps(_mm256_mul_ps(p, r), r, _mm256_fmadd_ps(ln2, r, one));
            let pow2n = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_add_epi32(
                _mm256_cvtps_epi32(n),
                bias,
            )));
            let denom = _mm256_fmadd_ps(p, pow2n, one);
            _mm256_storeu_ps(dst.as_mut_ptr().add(i * 8), _mm256_div_ps(x, denom));
        }
        chunks * 8
    }
}

/// Writes `silu(src)` into `dst`, or `silu(affine(src))` when `affine`
/// is given, through the polynomial kernel (vectorised where the CPU
/// allows).
///
/// Plain SiLU never runs through an identity affine step: `1·x + 0`
/// turns −0.0 into +0.0.
pub(crate) fn silu_into(dst: &mut [f32], src: &[f32], affine: Option<Affine>) {
    let pre = |v: f32| affine.map_or(v, |a| a.apply(v));
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
        // SAFETY: feature-detected; silu_avx stays within both slices.
        done = unsafe { silu_avx(dst, src, affine) };
    }
    for (o, &v) in dst[done..].iter_mut().zip(&src[done..]) {
        *o = silu_poly_scalar(pre(v));
    }
}

impl Layer for Silu {
    fn forward(&mut self, x: Tensor) -> Tensor {
        let mut y = x.clone();
        silu_into(y.data_mut(), x.data(), None);
        self.cached_input = Some(x);
        y
    }

    fn forward_infer(&mut self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        let mut y = Tensor::from_vec(x.shape(), ws.take(x.len()));
        silu_into(y.data_mut(), x.data(), None);
        y
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        let x = self
            .cached_input
            .take()
            .expect("backward called without forward");
        let mut gx = grad;
        for (g, &xv) in gx.data_mut().iter_mut().zip(x.data()) {
            let s = sigmoid(xv);
            *g *= s + xv * s * (1.0 - s);
        }
        gx
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

/// Hyperbolic tangent (used as the CUP decoder output squashing).
#[derive(Debug, Clone, Default)]
pub struct Tanh {
    cached_output: Option<Tensor>,
}

impl Tanh {
    /// Creates the activation.
    pub fn new() -> Self {
        Tanh::default()
    }
}

impl Layer for Tanh {
    fn forward(&mut self, x: Tensor) -> Tensor {
        let mut y = x;
        for v in y.data_mut() {
            *v = v.tanh();
        }
        self.cached_output = Some(y.clone());
        y
    }

    fn forward_infer(&mut self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        let mut y = Tensor::from_vec(x.shape(), ws.take(x.len()));
        for (o, &v) in y.data_mut().iter_mut().zip(x.data()) {
            *o = v.tanh();
        }
        y
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        let y = self
            .cached_output
            .take()
            .expect("backward called without forward");
        let mut gx = grad;
        for (g, &yv) in gx.data_mut().iter_mut().zip(y.data()) {
            *g *= 1.0 - yv * yv;
        }
        gx
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tensor(seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::from_vec(
            [1, 2, 3, 3],
            (0..18).map(|_| rng.gen_range(-2.0f32..2.0)).collect(),
        )
    }

    #[test]
    fn silu_known_values() {
        let mut act = Silu::new();
        let y = act.forward(Tensor::from_vec([1, 1, 1, 3], vec![-20.0, 0.0, 20.0]));
        assert!(y.data()[0].abs() < 1e-3);
        assert_eq!(y.data()[1], 0.0);
        assert!((y.data()[2] - 20.0).abs() < 1e-3);
    }

    #[test]
    fn tanh_bounds() {
        let mut act = Tanh::new();
        let y = act.forward(Tensor::from_vec([1, 1, 1, 2], vec![-100.0, 100.0]));
        assert!((y.data()[0] + 1.0).abs() < 1e-6);
        assert!((y.data()[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn gradcheck_silu() {
        check_layer(&mut Silu::new(), random_tensor(1), 1e-2);
    }

    /// The polynomial SiLU (scalar and vector lanes) must agree with the
    /// libm reference to well under any tolerance the models care about,
    /// and both code paths must agree with each other bitwise.
    #[test]
    fn poly_silu_matches_libm_and_is_lane_stable() {
        let src: Vec<f32> = (-4000..4000)
            .map(|i| i as f32 * 0.025) // [-100, 100]
            .chain([0.0, -0.0, 1e-30, -1e-30, 500.0, -500.0])
            .collect();
        let mut out = vec![0.0f32; src.len()];
        silu_into(&mut out, &src, None);
        let mut worst = 0.0f32;
        for (&x, &y) in src.iter().zip(&out) {
            let reference = x * sigmoid(x);
            let err = (y - reference).abs() / (1.0 + reference.abs());
            worst = worst.max(err);
        }
        assert!(worst < 1e-5, "poly silu deviates by {worst}");
        // Lane stability: element j computes the same bits regardless of
        // whether it lands in a vector chunk or the scalar tail.
        for offset in [0usize, 1, 3, 7] {
            let sub = &src[offset..];
            let mut sub_out = vec![0.0f32; sub.len()];
            silu_into(&mut sub_out, sub, None);
            assert_eq!(
                &sub_out[..],
                &out[offset..],
                "lane split changed bits at offset {offset}"
            );
        }
    }

    #[test]
    fn gradcheck_tanh() {
        check_layer(&mut Tanh::new(), random_tensor(2), 1e-2);
    }
}
