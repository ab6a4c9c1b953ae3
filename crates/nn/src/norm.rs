//! Group normalisation.
//!
//! The statistics of a tensor come from one pass over all its planes
//! (`(sample, channel)` pairs). Each plane's sum, and in the second
//! pass its sum of `(v − mean)·(v − mean)`, is one in-order `f32`
//! chain started from −0.0, exactly as `Iterator::sum` runs it; group
//! totals add the plane sums in channel order. Only chains of
//! different planes advance together: 16 per block on AVX-512F,
//! transposed in registers so one vertical add extends all 16, and 8
//! through a portable interleave elsewhere. So every mean and inverse
//! σ is bit-identical to summing each plane on its own.

use crate::act::{silu_into, Affine};
use crate::gemm::Kernel;
use crate::param::Param;
use crate::tensor::Tensor;
use crate::workspace::Workspace;
use crate::Layer;

/// Group normalisation with per-channel affine parameters.
///
/// Each sample's channels are split into `groups`; every group is
/// normalised to zero mean / unit variance over its channels and spatial
/// extent, then scaled by γ and shifted by β per channel. GroupNorm is
/// the standard normaliser in diffusion U-Nets because it works at batch
/// size 1.
///
/// # Example
///
/// ```
/// use pp_nn::{GroupNorm, Layer, Tensor};
///
/// let mut gn = GroupNorm::new(4, 2);
/// let y = gn.forward(Tensor::zeros([1, 4, 3, 3]));
/// assert_eq!(y.shape(), [1, 4, 3, 3]);
/// ```
#[derive(Debug, Clone)]
pub struct GroupNorm {
    channels: usize,
    groups: usize,
    eps: f32,
    gamma: Param,
    beta: Param,
    /// Cached (x̂, inverse σ per (n, group)) from forward.
    cache: Option<(Tensor, Vec<f32>)>,
}

impl GroupNorm {
    /// Creates a group norm over `channels` split into `groups`.
    ///
    /// # Panics
    ///
    /// Panics unless `groups` divides `channels`.
    pub fn new(channels: usize, groups: usize) -> Self {
        assert!(
            groups > 0 && channels.is_multiple_of(groups),
            "groups must divide channels"
        );
        GroupNorm {
            channels,
            groups,
            eps: 1e-5,
            gamma: Param::constant(channels, 1.0),
            beta: Param::zeros(channels),
            cache: None,
        }
    }

    /// Scratch length [`GroupNorm::stats`] needs for `x`.
    fn stats_len(&self, x: &Tensor) -> usize {
        2 * x.n() * (x.c() + self.groups)
    }

    /// Mean and inverse σ of every (sample, group) of `x`, returned as
    /// `[mean, inv σ]` pairs in (sample, group) order from the front of
    /// `scratch` ([`GroupNorm::stats_len`] long).
    fn stats<'s>(&self, kern: Kernel, x: &Tensor, scratch: &'s mut [f32]) -> &'s [f32] {
        assert_eq!(x.c(), self.channels, "channel mismatch");
        let [n, c, h, w] = x.shape();
        let cpg = c / self.groups;
        let m = (cpg * h * w) as f32;
        let (stats, rest) = scratch.split_at_mut(2 * n * self.groups);
        let (sums, means) = rest.split_at_mut(n * c);
        plane_sums::<false>(kern, x.data(), h * w, means, sums);
        // Planes of one (sample, group) are adjacent, so the groups are
        // the cpg-chunks of the plane sums, in (sample, group) order.
        for ((s, st), mu) in sums
            .chunks_exact(cpg)
            .zip(stats.chunks_exact_mut(2))
            .zip(means.chunks_exact_mut(cpg))
        {
            st[0] = s.iter().fold(0.0f32, |acc, &v| acc + v) / m;
            mu.fill(st[0]);
        }
        plane_sums::<true>(kern, x.data(), h * w, means, sums);
        for (s, st) in sums.chunks_exact(cpg).zip(stats.chunks_exact_mut(2)) {
            let var = s.iter().fold(0.0f32, |acc, &v| acc + v) / m;
            st[1] = 1.0 / (var + self.eps).sqrt();
        }
        stats
    }

    /// Inference-only `silu(groupnorm(x))` in one pass: the statistics,
    /// then per element `(x − mean)·inv_σ`, `γ·x̂ + β` and SiLU, written
    /// to one tensor drawn from `ws` (the statistics scratch too).
    ///
    /// Bit-identical to [`Layer::forward`] followed by
    /// [`crate::Silu`]'s forward.
    ///
    /// # Panics
    ///
    /// Panics if `x` does not have this norm's channel count.
    pub fn forward_silu_infer(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        let [n, c, _h, _w] = x.shape();
        let cpg = c / self.groups;
        let mut scratch = ws.take(self.stats_len(x));
        let stats = self.stats(Kernel::detect(), x, &mut scratch);
        let mut y = Tensor::from_vec(x.shape(), ws.take(x.len()));
        for b in 0..n {
            for ci in 0..c {
                let g = 2 * (b * self.groups + ci / cpg);
                let affine = Affine {
                    mean: stats[g],
                    inv_sigma: stats[g + 1],
                    gamma: self.gamma.value[ci],
                    beta: self.beta.value[ci],
                };
                silu_into(y.plane_mut(b, ci), x.plane(b, ci), Some(affine));
            }
        }
        ws.give(scratch);
        y
    }
}

/// `out[p] = Σ_i f(x[p·hw + i])` for every plane `p` of `x`, each sum
/// one in-order chain started from −0.0, where `f(v) = v`, or
/// `(v − mean[p])·(v − mean[p])` when `SQ` (`mean` is as long as `out`
/// either way). Blocks of 16 planes run on AVX-512F when `kern` is that
/// kernel; the rest run portably.
fn plane_sums<const SQ: bool>(kern: Kernel, x: &[f32], hw: usize, mean: &[f32], out: &mut [f32]) {
    assert_eq!(x.len(), out.len() * hw, "plane sums: length mismatch");
    assert_eq!(mean.len(), out.len(), "plane sums: mean length mismatch");
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if kern.avx512() {
        done = out.len() - out.len() % 16;
        // SAFETY: a Kernel reports avx512() only when built by
        // Kernel::detect / Kernel::supported after the CPU reported
        // AVX-512F; plane_sums_avx512 asserts the lengths it reads by.
        unsafe {
            plane_sums_avx512::<SQ>(&x[..done * hw], hw, &mean[..done], &mut out[..done]);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = kern;
    plane_sums_portable::<SQ>(&x[done * hw..], hw, &mean[done..], &mut out[done..]);
}

/// [`plane_sums`] with 8 chains interleaved, and the last `len % 8`
/// planes one at a time.
fn plane_sums_portable<const SQ: bool>(x: &[f32], hw: usize, mean: &[f32], out: &mut [f32]) {
    let full = out.len() - out.len() % 8;
    for p in (0..full).step_by(8) {
        chains::<8, SQ>(&x[p * hw..], hw, &mean[p..], &mut out[p..p + 8]);
    }
    for p in full..out.len() {
        chains::<1, SQ>(&x[p * hw..], hw, &mean[p..], &mut out[p..p + 1]);
    }
}

/// The sums of the `K` planes at the front of `x`, advanced together
/// element by element so their add latencies overlap.
// One element index walks all K planes at once, so it is a range.
#[allow(clippy::needless_range_loop)]
#[inline(always)]
fn chains<const K: usize, const SQ: bool>(x: &[f32], hw: usize, mean: &[f32], out: &mut [f32]) {
    let planes: [&[f32]; K] = std::array::from_fn(|j| &x[j * hw..(j + 1) * hw]);
    let mu: [f32; K] = std::array::from_fn(|j| mean[j]);
    let mut acc = [-0.0f32; K];
    for i in 0..hw {
        for j in 0..K {
            let v = planes[j][i];
            acc[j] += if SQ { (v - mu[j]) * (v - mu[j]) } else { v };
        }
    }
    out.copy_from_slice(&acc);
}

/// [`plane_sums`] over blocks of 16 planes: per 16 elements, one load
/// from each plane, a 16×16 in-register transpose so register `k`
/// holds element `k` of all 16 planes, then 16 vertical adds in
/// element order — lane `j` is plane `j`'s chain. A plane's last
/// `hw % 16` elements come in through masked loads, and only their
/// transposed registers are added.
///
/// # Safety
///
/// The CPU must support AVX-512F. Every length the loads rely on is
/// checked with `assert!`, so any slices are sound to pass.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn plane_sums_avx512<const SQ: bool>(x: &[f32], hw: usize, mean: &[f32], out: &mut [f32]) {
    use std::arch::x86_64::*;
    assert!(out.len().is_multiple_of(16), "plane sums: partial block");
    assert_eq!(x.len(), out.len() * hw, "plane sums: length mismatch");
    assert_eq!(mean.len(), out.len(), "plane sums: mean length mismatch");
    let tail = hw % 16;
    let mask = ((1u32 << tail) - 1) as __mmask16;
    for (blk, o) in out.chunks_exact_mut(16).enumerate() {
        let base = x[blk * 16 * hw..].as_ptr();
        let mu = if SQ {
            // SAFETY: mean.len() == out.len() (asserted above), and this
            // block's 16 means start at blk·16 < out.len().
            unsafe { _mm512_loadu_ps(mean.as_ptr().add(blk * 16)) }
        } else {
            _mm512_setzero_ps()
        };
        let term = |v: __m512| -> __m512 {
            if SQ {
                let d = _mm512_sub_ps(v, mu);
                _mm512_mul_ps(d, d)
            } else {
                v
            }
        };
        let mut acc = _mm512_set1_ps(-0.0);
        let mut r = [_mm512_setzero_ps(); 16];
        let mut i = 0;
        while i + 16 <= hw {
            for (j, rj) in r.iter_mut().enumerate() {
                // SAFETY: plane j of this block spans base[j·hw..(j+1)·hw],
                // inside x because x.len() == out.len()·hw (asserted
                // above); i + 16 ≤ hw keeps all 16 lanes in that plane.
                *rj = unsafe { _mm512_loadu_ps(base.add(j * hw + i)) };
            }
            transpose16(&mut r);
            for &col in &r {
                acc = _mm512_add_ps(acc, term(col));
            }
            i += 16;
        }
        if tail > 0 {
            for (j, rj) in r.iter_mut().enumerate() {
                // SAFETY: as above; i + tail == hw and the mask enables
                // only lanes < tail, so no lane leaves plane j.
                *rj = unsafe { _mm512_maskz_loadu_ps(mask, base.add(j * hw + i)) };
            }
            transpose16(&mut r);
            for &col in &r[..tail] {
                acc = _mm512_add_ps(acc, term(col));
            }
        }
        // SAFETY: `o` is one 16-element chunk of `out`.
        unsafe { _mm512_storeu_ps(o.as_mut_ptr(), acc) };
    }
}

/// Transposes 16 rows of 16 lanes in registers: afterwards `r[k]`
/// lane `j` holds what `r[j]` lane `k` held.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
fn transpose16(r: &mut [std::arch::x86_64::__m512; 16]) {
    use std::arch::x86_64::*;
    // Pairs of rows interleaved within each 128-bit lane…
    let mut t = [_mm512_setzero_ps(); 16];
    for q in 0..8 {
        t[2 * q] = _mm512_unpacklo_ps(r[2 * q], r[2 * q + 1]);
        t[2 * q + 1] = _mm512_unpackhi_ps(r[2 * q], r[2 * q + 1]);
    }
    // …then quads: s[4q + e] lane L holds column 4L + e of rows 4q..4q+4.
    let (lo, hi) = (
        |a: __m512, b: __m512| {
            _mm512_castpd_ps(_mm512_unpacklo_pd(_mm512_castps_pd(a), _mm512_castps_pd(b)))
        },
        |a: __m512, b: __m512| {
            _mm512_castpd_ps(_mm512_unpackhi_pd(_mm512_castps_pd(a), _mm512_castps_pd(b)))
        },
    );
    let mut s = [_mm512_setzero_ps(); 16];
    for q in 0..4 {
        s[4 * q] = lo(t[4 * q], t[4 * q + 2]);
        s[4 * q + 1] = hi(t[4 * q], t[4 * q + 2]);
        s[4 * q + 2] = lo(t[4 * q + 1], t[4 * q + 3]);
        s[4 * q + 3] = hi(t[4 * q + 1], t[4 * q + 3]);
    }
    // Two rounds of 128-bit lane shuffles gather each column's four
    // quads in row order.
    for e in 0..4 {
        t[e] = _mm512_shuffle_f32x4::<0x88>(s[e], s[4 + e]);
        t[4 + e] = _mm512_shuffle_f32x4::<0xdd>(s[e], s[4 + e]);
        t[8 + e] = _mm512_shuffle_f32x4::<0x88>(s[8 + e], s[12 + e]);
        t[12 + e] = _mm512_shuffle_f32x4::<0xdd>(s[8 + e], s[12 + e]);
    }
    for e in 0..4 {
        r[e] = _mm512_shuffle_f32x4::<0x88>(t[e], t[8 + e]);
        r[4 + e] = _mm512_shuffle_f32x4::<0x88>(t[4 + e], t[12 + e]);
        r[8 + e] = _mm512_shuffle_f32x4::<0xdd>(t[e], t[8 + e]);
        r[12 + e] = _mm512_shuffle_f32x4::<0xdd>(t[4 + e], t[12 + e]);
    }
}

impl Layer for GroupNorm {
    fn forward(&mut self, x: Tensor) -> Tensor {
        let [n, c, _h, _w] = x.shape();
        let cpg = c / self.groups;
        let mut scratch = vec![0.0; self.stats_len(&x)];
        let stats = self.stats(Kernel::detect(), &x, &mut scratch);
        let mut xhat = Tensor::zeros(x.shape());
        for b in 0..n {
            for ci in 0..c {
                let g = 2 * (b * self.groups + ci / cpg);
                let (mean, is) = (stats[g], stats[g + 1]);
                for (d, &s) in xhat.plane_mut(b, ci).iter_mut().zip(x.plane(b, ci)) {
                    *d = (s - mean) * is;
                }
            }
        }
        let inv_sigma = stats.chunks_exact(2).map(|st| st[1]).collect();
        // y = γ·x̂ + β.
        let mut y = xhat.clone();
        for b in 0..n {
            for ci in 0..c {
                let (gam, bet) = (self.gamma.value[ci], self.beta.value[ci]);
                for v in y.plane_mut(b, ci) {
                    *v = gam * *v + bet;
                }
            }
        }
        self.cache = Some((xhat, inv_sigma));
        y
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        let (xhat, inv_sigma) = self.cache.take().expect("backward called without forward");
        let [n, c, h, w] = xhat.shape();
        let cpg = c / self.groups;
        let m = (cpg * h * w) as f32;
        let mut gx = Tensor::zeros(xhat.shape());
        for b in 0..n {
            for g in 0..self.groups {
                let is = inv_sigma[b * self.groups + g];
                // Accumulate means of γ·dy and γ·dy·x̂ over the group.
                let mut sum_gdy = 0.0f32;
                let mut sum_gdy_xhat = 0.0f32;
                for ci in g * cpg..(g + 1) * cpg {
                    let gam = self.gamma.value[ci];
                    let dyp = grad.plane(b, ci);
                    let xp = xhat.plane(b, ci);
                    // Parameter gradients while we're here.
                    self.beta.grad[ci] += dyp.iter().sum::<f32>();
                    self.gamma.grad[ci] += dyp.iter().zip(xp).map(|(&d, &xh)| d * xh).sum::<f32>();
                    for (&d, &xh) in dyp.iter().zip(xp) {
                        sum_gdy += gam * d;
                        sum_gdy_xhat += gam * d * xh;
                    }
                }
                let mean_gdy = sum_gdy / m;
                let mean_gdy_xhat = sum_gdy_xhat / m;
                for ci in g * cpg..(g + 1) * cpg {
                    let gam = self.gamma.value[ci];
                    let dyp = grad.plane(b, ci);
                    let xp = xhat.plane(b, ci);
                    let gxp = gx.plane_mut(b, ci);
                    for ((gxv, &d), &xh) in gxp.iter_mut().zip(dyp).zip(xp) {
                        *gxv = is * (gam * d - mean_gdy - xh * mean_gdy_xhat);
                    }
                }
            }
        }
        gx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer;
    use crate::Silu;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tensor(shape: [usize; 4], seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..shape.iter().product())
            .map(|_| rng.gen_range(-2.0f32..2.0))
            .collect();
        Tensor::from_vec(shape, data)
    }

    #[test]
    fn output_is_normalised() {
        let mut gn = GroupNorm::new(2, 1);
        let y = gn.forward(random_tensor([1, 2, 4, 4], 1));
        let mean = y.mean();
        let var = y
            .data()
            .iter()
            .map(|&v| (v - mean) * (v - mean))
            .sum::<f32>()
            / y.len() as f32;
        assert!(mean.abs() < 1e-5, "mean {mean}");
        assert!((var - 1.0).abs() < 1e-3, "var {var}");
    }

    #[test]
    fn groups_are_independent() {
        let mut gn = GroupNorm::new(2, 2);
        // Channel 0 large values, channel 1 small: per-group norm fixes both.
        let mut x = Tensor::zeros([1, 2, 2, 2]);
        x.plane_mut(0, 0)
            .copy_from_slice(&[100.0, 101.0, 102.0, 103.0]);
        x.plane_mut(0, 1).copy_from_slice(&[0.1, 0.2, 0.3, 0.4]);
        let y = gn.forward(x);
        for c in 0..2 {
            let p = y.plane(0, c);
            let mean: f32 = p.iter().sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-3);
        }
    }

    #[test]
    fn affine_params_apply() {
        let mut gn = GroupNorm::new(1, 1);
        gn.gamma.value[0] = 0.0;
        gn.beta.value[0] = 5.0;
        let y = gn.forward(random_tensor([1, 1, 3, 3], 2));
        assert!(y.data().iter().all(|&v| (v - 5.0).abs() < 1e-6));
    }

    #[test]
    fn gradcheck_two_groups() {
        let mut gn = GroupNorm::new(4, 2);
        check_layer(&mut gn, random_tensor([2, 4, 3, 3], 3), 3e-2);
    }

    #[test]
    fn gradcheck_single_group() {
        let mut gn = GroupNorm::new(2, 1);
        check_layer(&mut gn, random_tensor([1, 2, 4, 4], 4), 3e-2);
    }

    #[test]
    #[should_panic(expected = "divide channels")]
    fn rejects_bad_groups() {
        let _ = GroupNorm::new(5, 2);
    }

    /// The per-(sample, group) statistics this module computed before
    /// the one-pass version, kept as the reference: each plane one
    /// `Iterator::sum` chain, group totals in channel order.
    fn group_stats(gn: &GroupNorm, x: &Tensor, b: usize, g: usize) -> (f32, f32) {
        let [_, c, h, w] = x.shape();
        let cpg = c / gn.groups;
        let m = (cpg * h * w) as f32;
        let mut mean = 0.0f32;
        for ci in g * cpg..(g + 1) * cpg {
            mean += x.plane(b, ci).iter().sum::<f32>();
        }
        mean /= m;
        let mut var = 0.0f32;
        for ci in g * cpg..(g + 1) * cpg {
            var += x
                .plane(b, ci)
                .iter()
                .map(|&v| (v - mean) * (v - mean))
                .sum::<f32>();
        }
        var /= m;
        (mean, 1.0 / (var + gn.eps).sqrt())
    }

    /// `γ·x̂ + β` from the reference statistics, in the training path's
    /// rounding steps.
    fn reference_forward(gn: &GroupNorm, x: &Tensor) -> Tensor {
        let [n, c, _, _] = x.shape();
        let cpg = c / gn.groups;
        let mut y = Tensor::zeros(x.shape());
        for b in 0..n {
            for ci in 0..c {
                let (mean, is) = group_stats(gn, x, b, ci / cpg);
                let (gam, bet) = (gn.gamma.value[ci], gn.beta.value[ci]);
                for (d, &s) in y.plane_mut(b, ci).iter_mut().zip(x.plane(b, ci)) {
                    *d = gam * ((s - mean) * is) + bet;
                }
            }
        }
        y
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|f| f.to_bits()).collect()
    }

    /// Random planes, mixed by plane index with planes of −0.0, planes
    /// of one constant, planes of large magnitudes next to small ones
    /// (so a reordered sum would round differently), and scattered
    /// −0.0 entries.
    fn sweep_input(shape: [usize; 4], seed: u64) -> Tensor {
        let mut x = random_tensor(shape, seed);
        let hw = shape[2] * shape[3];
        for (p, plane) in x.data_mut().chunks_exact_mut(hw).enumerate() {
            match p % 5 {
                0 => plane.fill(-0.0),
                1 => plane.fill(3.25),
                2 => plane.iter_mut().step_by(3).for_each(|v| *v *= 1e12),
                3 => plane.iter_mut().step_by(2).for_each(|v| *v = -0.0),
                _ => {}
            }
        }
        x
    }

    /// The one-pass statistics equal the per-group reference bitwise on
    /// every kernel this CPU supports (portable always): planes of 2×2
    /// to 32×32, 1–4 groups, and plane counts on and off the 16- and
    /// 8-plane blocks. The fused GroupNorm→SiLU pass equals
    /// `GroupNorm::forward` then `Silu::forward` bitwise.
    #[test]
    fn stats_sweep_matches_reference() {
        for (si, &(h, w)) in [(2usize, 2usize), (4, 4), (12, 20), (32, 32)]
            .iter()
            .enumerate()
        {
            for groups in 1..=4 {
                for cpg in [1usize, 4, 5] {
                    for n in [1usize, 3] {
                        let c = groups * cpg;
                        let seed = (si * 1000 + groups * 100 + cpg * 10 + n) as u64;
                        let mut gn = GroupNorm::new(c, groups);
                        gn.gamma.value = random_tensor([1, c, 1, 1], seed + 1).into_vec();
                        gn.beta.value = random_tensor([1, c, 1, 1], seed + 2).into_vec();
                        let x = sweep_input([n, c, h, w], seed);
                        let case = format!("{n}x{c}x{h}x{w} groups={groups}");
                        let mut reference = Vec::new();
                        for b in 0..n {
                            for g in 0..groups {
                                let (mean, is) = group_stats(&gn, &x, b, g);
                                reference.extend([mean, is]);
                            }
                        }
                        for kern in Kernel::supported() {
                            let mut scratch = vec![f32::NAN; gn.stats_len(&x)];
                            let stats = gn.stats(kern, &x, &mut scratch);
                            assert_eq!(bits(stats), bits(&reference), "{kern:?} {case}");
                        }
                        let expected = reference_forward(&gn, &x);
                        let trained = gn.forward(x.clone());
                        assert_eq!(bits(trained.data()), bits(expected.data()), "{case}");
                        let silu = Silu::new().forward(trained);
                        let mut ws = Workspace::new();
                        let fused = gn.forward_silu_infer(&x, &mut ws);
                        assert_eq!(bits(fused.data()), bits(silu.data()), "fused {case}");
                    }
                }
            }
        }
    }
}
