//! 2-D convolution (stride 1, "same" padding) as an implicit GEMM.
//!
//! Forward multiplies the `[out_c, in_c·k²]` weight matrix with each
//! sample's im2col matrix without ever materialising it:
//!
//! 1. the weights are packed once per call into register-tile row
//!    panels per 256-deep k slice;
//! 2. each sample's input planes are copied inside a zero border
//!    `k/2` wide (1×1 convolutions use the planes as they are), so
//!    every im2col row over a run of output pixels in one image row
//!    is one contiguous segment of that copy;
//! 3. for every `nr`-pixel column panel and k slice, those segments
//!    are gathered into an L1-sized `[kc][nr]` B panel (zero-padded
//!    past the last pixel), and every row block's micro-kernel
//!    ([`crate::gemm`]) writes its tile of the output tensor, the
//!    first slice storing and later ones adding;
//! 4. the bias is added to the panel's pixels last.
//!
//! Backward, per sample:
//!
//! * the weight gradient `dW += dY · colᵀ` runs the NT dot tiles of
//!   [`crate::gemm`]; their B rows are the input itself (1×1), the
//!   forward's zero-bordered copy read one image row at a time where
//!   `w` is a multiple of 16, or else an explicit im2col matrix;
//! * the input gradient's column matrix `Wᵀ · dY` is computed six rows
//!   at a time (`sgemm_tn`'s bits), and each block is added into dX
//!   while it is in cache, one slice add per (tap, image row) strip.
//!
//! Every gradient element receives the same operations in the same
//! order as with a full im2col matrix, per-element dot products and a
//! per-pixel scatter; the tests keep that backward as their reference.

use crate::gemm::{
    nt_dots, pack_a, sgemm_tn, sgemm_tn_blocks, ALayout, Kernel, Run, Segments, KC, MR, NR_MAX,
};
use crate::param::Param;
use crate::tensor::Tensor;
use crate::workspace::Workspace;
use crate::Layer;

/// A stride-1 convolution with odd kernel size and same padding.
///
/// Weight layout is `[out_c][in_c][ky][kx]`; bias is per output channel.
/// Forward is an implicit GEMM (module docs): each output element is
/// one in-order multiply-add chain per k slice, the slices summed in
/// order, then the bias added — an order set by `in_c·k²` alone, never
/// by the batch width, the image size or the tile, so a batch row is
/// bit-identical to the same sample run alone. Backward recomputes
/// its im2col rows from the cached input (recompute-over-store) and
/// produces both parameter and input gradients through the transposed
/// GEMM layouts (module docs), bit-identical to the explicit im2col
/// backward. Packed weights, staged planes, B panels and backward
/// scratch persist across calls (training) or come from a caller
/// [`Workspace`] (inference), so steady-state passes perform no
/// scratch allocation.
///
/// # Example
///
/// ```
/// use pp_nn::{Conv2d, Layer, Tensor};
///
/// let mut conv = Conv2d::new(1, 4, 3, 0);
/// let y = conv.forward(Tensor::zeros([2, 1, 8, 8]));
/// assert_eq!(y.shape(), [2, 4, 8, 8]);
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_c: usize,
    out_c: usize,
    k: usize,
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
    scratch: Workspace,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-initialised weights.
    ///
    /// # Panics
    ///
    /// Panics if `k` is even (same padding needs odd kernels).
    pub fn new(in_c: usize, out_c: usize, k: usize, seed: u64) -> Self {
        assert!(k % 2 == 1, "kernel size must be odd");
        let fan_in = in_c * k * k;
        Conv2d {
            in_c,
            out_c,
            k,
            weight: Param::kaiming(out_c * fan_in, fan_in, seed),
            bias: Param::zeros(out_c),
            cached_input: None,
            scratch: Workspace::new(),
        }
    }

    /// Output channels.
    pub fn out_channels(&self) -> usize {
        self.out_c
    }

    /// Builds the im2col matrix `[in_c·k·k, h·w]` for one sample
    /// (backward, and the tests' reference forward).
    ///
    /// Each (channel, tap, row) strip is one contiguous copy of
    /// `w − |shift|` pixels plus zeroed edges, instead of a per-pixel
    /// branch; the tests check it against a per-pixel reference.
    fn im2col(&self, x: &Tensor, n: usize, col: &mut [f32]) {
        let (h, w) = (x.h(), x.w());
        let k = self.k;
        let pad = k / 2;
        let hw = h * w;
        for ic in 0..self.in_c {
            let plane = x.plane(n, ic);
            for ky in 0..k {
                for kx in 0..k {
                    let row = ((ic * k + ky) * k + kx) * hw;
                    // Source x = out x + shift; valid out x range is
                    // [d0, d0 + len) copied from source offset s0.
                    let shift = kx as isize - pad as isize;
                    let d0 = shift.unsigned_abs().min(w) * usize::from(shift < 0);
                    let s0 = (shift.max(0) as usize).min(w);
                    let len = w - shift.unsigned_abs().min(w);
                    for oy in 0..h {
                        let iy = oy + ky;
                        let dst = &mut col[row + oy * w..row + (oy + 1) * w];
                        if iy < pad || iy >= h + pad {
                            dst.fill(0.0);
                            continue;
                        }
                        let sy = iy - pad;
                        dst[..d0].fill(0.0);
                        dst[d0 + len..].fill(0.0);
                        dst[d0..d0 + len].copy_from_slice(&plane[sy * w + s0..sy * w + s0 + len]);
                    }
                }
            }
        }
    }

    /// Adds rows `p0, p0 + 1, …` of one sample's column gradient
    /// (`rows`, each `h·w` wide; row `p` is tap (ic, ky, kx)) into its
    /// input-gradient planes `gxb` (`[in_c][h·w]`): the transpose of
    /// [`Conv2d::im2col`].
    ///
    /// Each (row, image row) strip is one slice add of `w − |shift|`
    /// pixels, mirroring im2col's strip copies. Given the rows in
    /// ascending order, every input pixel receives its adds in tap
    /// order, as a per-pixel scatter would.
    fn col2im(&self, p0: usize, rows: &[f32], gxb: &mut [f32], h: usize, w: usize) {
        let (k, hw) = (self.k, h * w);
        let pad = k / 2;
        for (p, grow) in (p0..).zip(rows.chunks_exact(hw)) {
            let (ic, ky, kx) = (p / (k * k), p / k % k, p % k);
            let plane = &mut gxb[ic * hw..(ic + 1) * hw];
            // Column pixel x feeds input x + shift; the valid column
            // range is [s0, s0 + len), landing at d0.
            let shift = kx as isize - pad as isize;
            let s0 = shift.unsigned_abs().min(w) * usize::from(shift < 0);
            let d0 = (shift.max(0) as usize).min(w);
            let len = w - shift.unsigned_abs().min(w);
            for oy in 0..h {
                let iy = oy + ky;
                if iy < pad || iy >= h + pad {
                    continue;
                }
                let sy = iy - pad;
                let src = &grow[oy * w + s0..oy * w + s0 + len];
                let dst = &mut plane[sy * w + d0..sy * w + d0 + len];
                for (d, &g) in dst.iter_mut().zip(src) {
                    *d += g;
                }
            }
        }
    }

    /// The forward body shared by `forward` and `forward_infer`, with
    /// scratch and the output buffer drawn from `ws`.
    fn run_forward(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        self.forward_implicit(Kernel::detect(), x, ws)
    }

    /// `out[b] = W · col(x[b]) + bias` as one implicit GEMM on `kern`.
    fn forward_implicit(&self, kern: Kernel, x: &Tensor, ws: &mut Workspace) -> Tensor {
        assert_eq!(x.c(), self.in_c, "input channel mismatch");
        let (n, h, w) = (x.n(), x.h(), x.w());
        let (hw, pad) = (h * w, self.k / 2);
        let ick = self.in_c * self.k * self.k;
        let (mr, nr) = (kern.mr(), kern.nr());
        let blocks = self.out_c.div_ceil(mr);
        // Weights, once per call: k slice p0 holds `blocks` [kc][mr]
        // row panels starting at p0·blocks·mr.
        let mut wpack = ws.take(blocks * mr * ick);
        for p0 in (0..ick).step_by(KC) {
            let kc = KC.min(ick - p0);
            let slice = &mut wpack[p0 * blocks * mr..(p0 + kc) * blocks * mr];
            for (blk, ap) in slice.chunks_exact_mut(kc * mr).enumerate() {
                let weights = &self.weight.value;
                pack_a(
                    ALayout::Normal,
                    weights,
                    self.out_c,
                    ick,
                    blk * mr,
                    p0,
                    kc,
                    mr,
                    ap,
                );
            }
        }
        // B panels gather from a copy of each sample's planes inside a
        // zero border `pad` wide, so every panel row is plain row
        // segments; the border is zeroed once per call.
        let (hp, wp) = (h + 2 * pad, w + 2 * pad);
        let mut staged = ws.take(if pad > 0 { self.in_c * hp * wp } else { 0 });
        staged.fill(0.0);
        // The B panel, 64-byte aligned inside its buffer so every row
        // load covers whole cache lines.
        let mut panel_buf = ws.take(KC * nr + 15);
        let skew = panel_buf.as_ptr().align_offset(64).min(15);
        let panel = &mut panel_buf[skew..skew + KC * nr];
        let mut out = Tensor::from_vec([n, self.out_c, h, w], ws.take(n * self.out_c * hw));
        let outs = out.data_mut().chunks_exact_mut(self.out_c * hw);
        for (xb, ob) in x.data().chunks_exact(self.in_c * hw).zip(outs) {
            let xs = if pad > 0 {
                self.stage(kern, xb, h, w, &mut staged);
                &staged[..]
            } else {
                xb
            };
            for j0 in (0..hw).step_by(nr) {
                let cols = nr.min(hw - j0);
                let (runs, nruns) = row_runs(w, wp, j0, cols);
                for p0 in (0..ick).step_by(KC) {
                    let kc = KC.min(ick - p0);
                    let b = &mut panel[..kc * nr];
                    kern.gather(b, nr, xs, self.row_starts(hp, wp, p0), &runs[..nruns]);
                    if cols < nr {
                        b.chunks_exact_mut(nr).for_each(|row| row[cols..].fill(0.0));
                    }
                    let slice = &wpack[p0 * blocks * mr..(p0 + kc) * blocks * mr];
                    for (blk, ap) in slice.chunks_exact(kc * mr).enumerate() {
                        let i0 = blk * mr;
                        let rows = mr.min(self.out_c - i0);
                        let c = &mut ob[i0 * hw + j0..];
                        kern.tile(kc, ap, b, nr, c, hw, rows, cols, p0 == 0);
                    }
                }
                self.add_bias(ob, hw, j0, cols);
            }
        }
        ws.give(wpack);
        ws.give(staged);
        ws.give(panel_buf);
        out
    }

    /// Copies one sample's input planes (`xb`, `[in_c][h·w]`) into the
    /// interiors of `staged` (`[in_c][h + 2·pad][w + 2·pad]`), whose
    /// zero border the caller has set.
    fn stage(&self, kern: Kernel, xb: &[f32], h: usize, w: usize, staged: &mut [f32]) {
        let pad = self.k / 2;
        let (hp, wp) = (h + 2 * pad, w + 2 * pad);
        let interior = [Run {
            src: 0,
            col: pad,
            len: w,
        }];
        for (dst, src) in staged.chunks_exact_mut(hp * wp).zip(xb.chunks_exact(h * w)) {
            let rows = &mut dst[pad * wp..(pad + h) * wp];
            kern.gather(rows, wp, src, (0..h * w).step_by(w), &interior);
        }
    }

    /// Where im2col rows `p0, p0 + 1, …` start in the staged planes
    /// (`[in_c][hp][wp]`, see [`staged_start`]).
    fn row_starts(&self, hp: usize, wp: usize, p0: usize) -> impl Iterator<Item = usize> + Clone {
        let k = self.k;
        let mut start = staged_start(k, hp, wp, p0);
        let (mut ky, mut kx) = (p0 / k % k, p0 % k);
        std::iter::from_fn(move || {
            let row = start;
            kx += 1;
            start += 1;
            if kx == k {
                kx = 0;
                ky += 1;
                start += wp - k;
                if ky == k {
                    ky = 0;
                    start += (hp - k) * wp;
                }
            }
            Some(row)
        })
    }

    /// Adds each channel's bias to pixels `j0..j0 + cols` of one
    /// sample's output planes (`ob`, `[out_c][hw]`).
    fn add_bias(&self, ob: &mut [f32], hw: usize, j0: usize, cols: usize) {
        for (plane, &bias) in ob.chunks_exact_mut(hw).zip(&self.bias.value) {
            if bias != 0.0 {
                for v in &mut plane[j0..j0 + cols] {
                    *v += bias;
                }
            }
        }
    }
}

/// The gather runs covering the row-major output pixels `j0..j0 + cols`
/// of a `w`-wide image whose rows sit `wp` apart in the staged planes,
/// and how many there are (at most `cols`): one per image row, merged
/// where the source continues (`wp == w`).
fn row_runs(w: usize, wp: usize, j0: usize, cols: usize) -> ([Run; NR_MAX], usize) {
    let mut runs = [Run::default(); NR_MAX];
    let (mut j, mut count) = (j0, 0);
    while j < j0 + cols {
        let (oy, ox) = (j / w, j % w);
        let len = (w - ox).min(j0 + cols - j);
        let src = oy * wp + ox;
        match runs[..count].last_mut() {
            Some(prev) if prev.src + prev.len == src => prev.len += len,
            _ => {
                runs[count] = Run {
                    src,
                    col: j - j0,
                    len,
                };
                count += 1;
            }
        }
        j += len;
    }
    (runs, count)
}

impl Layer for Conv2d {
    fn forward(&mut self, x: Tensor) -> Tensor {
        let mut ws = std::mem::take(&mut self.scratch);
        let out = self.run_forward(&x, &mut ws);
        self.scratch = ws;
        self.cached_input = Some(x);
        out
    }

    fn forward_infer(&mut self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        self.run_forward(x, ws)
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        self.backward_on(Kernel::detect(), grad)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.weight);
        f(&mut self.bias);
    }
}

impl Conv2d {
    /// [`Layer::backward`] with the weight gradient's dot tiles on
    /// `kern`.
    fn backward_on(&mut self, kern: Kernel, grad: Tensor) -> Tensor {
        let x = self
            .cached_input
            .take()
            .expect("backward called without forward");
        let (n, h, w) = (x.n(), x.h(), x.w());
        let (hw, pad, k) = (h * w, self.k / 2, self.k);
        let (in_c, out_c, ick) = (self.in_c, self.out_c, self.in_c * k * k);
        let mut ws = std::mem::take(&mut self.scratch);
        let mut gx = Tensor::zeros(x.shape());
        // dW = gradOut · colᵀ takes im2col row (ic, ky, kx) as B row p.
        // A 1×1 conv's im2col matrix is the input itself. Where every
        // 16-pixel step lies inside one image row (w % 16 == 0), each row
        // is read from the zero-bordered copy of the input planes the
        // forward gathers from, one run per image row; elsewhere the
        // matrix is built.
        let (hp, wp) = (h + 2 * pad, w + 2 * pad);
        let staged_rows = pad == 0 || w.is_multiple_of(16);
        let segs = if pad > 0 && staged_rows {
            Segments {
                len: w,
                count: h,
                b_step: wp,
            }
        } else {
            Segments::contiguous(hw)
        };
        let b_row = |p: usize| {
            if staged_rows {
                staged_start(k, hp, wp, p)
            } else {
                p * hw
            }
        };
        let mut staged = ws.take(if pad > 0 && staged_rows {
            in_c * hp * wp
        } else {
            0
        });
        staged.fill(0.0);
        let mut col = ws.take(if staged_rows { 0 } else { ick * hw });
        let mut colg = ws.take(if pad > 0 { MR * hw } else { 0 });
        for b in 0..n {
            let go = &grad.data()[b * out_c * hw..(b + 1) * out_c * hw];
            // Bias gradient: per-channel sums of the output gradient.
            for oc in 0..out_c {
                self.bias.grad[oc] += go[oc * hw..(oc + 1) * hw].iter().sum::<f32>();
            }
            let xb = &x.data()[b * in_c * hw..(b + 1) * in_c * hw];
            let rows: &[f32] = if !staged_rows {
                self.im2col(&x, b, &mut col);
                &col
            } else if pad > 0 {
                self.stage(kern, xb, h, w, &mut staged);
                &staged
            } else {
                xb
            };
            // Weight gradient: Wg += gradOut · colᵀ.
            let wg = &mut self.weight.grad;
            nt_dots(kern, out_c, ick, segs, go, hw, rows, b_row, wg, ick);
            // Input gradient: colᵍ = Wᵀ · gradOut, added back by col2im
            // a few rows at a time while they are in cache; a 1×1
            // conv's col2im is the identity.
            let gxb = &mut gx.data_mut()[b * in_c * hw..(b + 1) * in_c * hw];
            let wt = &self.weight.value;
            if pad == 0 {
                sgemm_tn(ick, out_c, hw, wt, go, gxb, 0.0);
            } else {
                sgemm_tn_blocks(ick, out_c, hw, wt, go, &mut colg, |p0, rows| {
                    self.col2im(p0, rows, gxb, h, w)
                });
            }
        }
        ws.give(staged);
        ws.give(col);
        ws.give(colg);
        self.scratch = ws;
        gx
    }
}

/// Where im2col row `p` = (ic, ky, kx) of a `k×k` convolution starts in
/// its input planes staged `[in_c][hp][wp]`: row `p` reads output pixel
/// `(oy, ox)` from staged `(ic, oy + ky, ox + kx)`.
fn staged_start(k: usize, hp: usize, wp: usize, p: usize) -> usize {
    let (ic, ky, kx) = (p / (k * k), p / k % k, p % k);
    (ic * hp + ky) * wp + kx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::tests::reference_nt;
    use crate::gradcheck::check_layer;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_tensor(shape: [usize; 4], seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let data = (0..shape.iter().product())
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect();
        Tensor::from_vec(shape, data)
    }

    #[test]
    fn identity_kernel_preserves_input() {
        let mut conv = Conv2d::new(1, 1, 3, 0);
        conv.weight.value.fill(0.0);
        conv.weight.value[4] = 1.0; // centre tap
        conv.bias.value[0] = 0.0;
        let x = random_tensor([1, 1, 5, 5], 1);
        let y = conv.forward(x.clone());
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn bias_offsets_output() {
        let mut conv = Conv2d::new(1, 2, 1, 0);
        conv.weight.value.fill(0.0);
        conv.bias.value = vec![1.5, -2.0];
        let y = conv.forward(Tensor::zeros([1, 1, 2, 2]));
        assert!(y.plane(0, 0).iter().all(|&v| v == 1.5));
        assert!(y.plane(0, 1).iter().all(|&v| v == -2.0));
    }

    #[test]
    fn padding_zeroes_outside() {
        // All-ones 3x3 kernel over all-ones image: corners see 4 taps.
        let mut conv = Conv2d::new(1, 1, 3, 0);
        conv.weight.value.fill(1.0);
        let x = Tensor::from_vec([1, 1, 3, 3], vec![1.0; 9]);
        let y = conv.forward(x);
        assert_eq!(y.get(0, 0, 0, 0), 4.0);
        assert_eq!(y.get(0, 0, 1, 1), 9.0);
        assert_eq!(y.get(0, 0, 0, 1), 6.0);
    }

    #[test]
    fn gradcheck_3x3() {
        let mut conv = Conv2d::new(2, 3, 3, 7);
        check_layer(&mut conv, random_tensor([2, 2, 4, 4], 3), 2e-2);
    }

    #[test]
    fn gradcheck_1x1() {
        let mut conv = Conv2d::new(3, 2, 1, 9);
        check_layer(&mut conv, random_tensor([1, 3, 3, 3], 5), 2e-2);
    }

    #[test]
    fn infer_matches_forward_bitwise() {
        let mut conv = Conv2d::new(3, 5, 3, 13);
        let x = random_tensor([2, 3, 6, 6], 21);
        let y_train = conv.forward(x.clone());
        let mut ws = Workspace::new();
        let y_infer = conv.forward_infer(&x, &mut ws);
        assert_eq!(y_train.data(), y_infer.data());
        // Second call reuses pooled buffers and still matches.
        ws.give(y_infer.into_vec());
        let y_again = conv.forward_infer(&x, &mut ws);
        assert_eq!(y_train.data(), y_again.data());
    }

    /// Each sample in a batch must compute exactly what it computes
    /// alone — the invariant batched DDIM sampling relies on.
    #[test]
    fn batch_rows_match_solo_bitwise() {
        let mut conv = Conv2d::new(2, 4, 3, 17);
        let xb = random_tensor([3, 2, 5, 5], 31);
        let yb = conv.forward(xb.clone());
        for b in 0..3 {
            let mut xs = Tensor::zeros([1, 2, 5, 5]);
            for c in 0..2 {
                xs.plane_mut(0, c).copy_from_slice(xb.plane(b, c));
            }
            let ys = conv.forward(xs);
            for c in 0..4 {
                assert_eq!(ys.plane(0, c), yb.plane(b, c), "sample {b} channel {c}");
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The per-sample forward the implicit GEMM replaced, kept as the
    /// sweep's reference: the explicit im2col matrix times the weights
    /// through [`crate::gemm::sgemm`], then the bias.
    fn reference_forward(conv: &Conv2d, x: &Tensor) -> Vec<f32> {
        let hw = x.h() * x.w();
        let ick = conv.in_c * conv.k * conv.k;
        let mut col = vec![0.0; ick * hw];
        let mut out = vec![0.0; x.n() * conv.out_c * hw];
        for (b, c) in out.chunks_exact_mut(conv.out_c * hw).enumerate() {
            conv.im2col(x, b, &mut col);
            crate::gemm::sgemm(conv.out_c, ick, hw, &conv.weight.value, &col, c, 0.0);
            for (plane, &bias) in c.chunks_exact_mut(hw).zip(&conv.bias.value) {
                if bias != 0.0 {
                    for v in plane {
                        *v += bias;
                    }
                }
            }
        }
        out
    }

    /// The implicit-GEMM forward against the per-sample reference, on
    /// every micro-kernel this CPU supports (portable always): bitwise
    /// wherever `h·w` is a multiple of 16 and the kernel accumulates
    /// like `sgemm`'s full-width tiles (fused on SIMD hosts), within
    /// 1e-5 elsewhere — and every batch row bitwise equal to its solo
    /// run. `in_c·k²` is ~27–75 or crosses the 256-deep k slice (~300,
    /// ~600); sides cover image rows narrower and wider than a tile
    /// plus a non-square image whose rows straddle column panels.
    #[test]
    fn implicit_forward_sweep() {
        let sides = [
            (2usize, 2usize),
            (4, 4),
            (8, 8),
            (16, 16),
            (32, 32),
            (12, 20),
        ];
        let ms = [1usize, 5, 8, 16, 17, 64];
        let sgemm_fused = Kernel::detect().fused();
        for (ki, k) in [1usize, 3, 5].into_iter().enumerate() {
            let cins = [3, 300usize.div_ceil(k * k), 600usize.div_ceil(k * k)];
            for (si, &(h, w)) in sides.iter().enumerate() {
                for (mi, &m) in ms.iter().enumerate() {
                    let cin = cins[(si + mi) % 3];
                    let n = if (si + mi + ki) % 2 == 0 { 3 } else { 1 };
                    let seed = (ki * 100 + si * 10 + mi) as u64;
                    let mut conv = Conv2d::new(cin, m, k, seed);
                    conv.bias.value = random_tensor([1, m, 1, 1], seed + 1).into_vec();
                    let x = random_tensor([n, cin, h, w], seed + 2);
                    let reference = reference_forward(&conv, &x);
                    let case = format!("k={k} {h}x{w} m={m} in_c={cin} n={n}");
                    for kern in Kernel::supported() {
                        let mut ws = Workspace::new();
                        let y = conv.forward_implicit(kern, &x, &mut ws);
                        if (h * w) % 16 == 0 && kern.fused() == sgemm_fused {
                            assert_eq!(bits(y.data()), bits(&reference), "{kern:?} {case}");
                        } else {
                            for (i, (&p, &q)) in y.data().iter().zip(&reference).enumerate() {
                                assert!(
                                    (p - q).abs() <= 1e-5 * (1.0 + p.abs().max(q.abs())),
                                    "{kern:?} {case} at {i}: {p} vs {q}"
                                );
                            }
                        }
                        for b in 0..n {
                            let mut xs = Tensor::zeros([1, cin, h, w]);
                            for c in 0..cin {
                                xs.plane_mut(0, c).copy_from_slice(x.plane(b, c));
                            }
                            let ys = conv.forward_implicit(kern, &xs, &mut ws);
                            for c in 0..m {
                                let (solo, row) = (bits(ys.plane(0, c)), bits(y.plane(b, c)));
                                assert_eq!(solo, row, "{kern:?} {case} row {b}");
                            }
                        }
                    }
                }
            }
        }
    }

    /// The per-pixel im2col the strip-copy `im2col` replaced.
    fn im2col_reference(conv: &Conv2d, x: &Tensor, n: usize, col: &mut [f32]) {
        let (h, w) = (x.h(), x.w());
        let k = conv.k;
        let pad = k / 2;
        let hw = h * w;
        for ic in 0..conv.in_c {
            let plane = x.plane(n, ic);
            for ky in 0..k {
                for kx in 0..k {
                    let row = ((ic * k + ky) * k + kx) * hw;
                    for oy in 0..h {
                        let iy = oy + ky;
                        let out_row = row + oy * w;
                        if iy < pad || iy >= h + pad {
                            col[out_row..out_row + w].fill(0.0);
                            continue;
                        }
                        let sy = iy - pad;
                        for ox in 0..w {
                            let ix = ox + kx;
                            col[out_row + ox] = if ix < pad || ix >= w + pad {
                                0.0
                            } else {
                                plane[sy * w + (ix - pad)]
                            };
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn im2col_fast_matches_reference() {
        for &(ic, k, h, w) in &[
            (2usize, 3usize, 5usize, 5usize),
            (1, 1, 4, 6),
            (3, 5, 4, 4),
            (2, 3, 6, 3),
        ] {
            let conv = Conv2d::new(ic, 2, k, 3);
            let x = random_tensor([2, ic, h, w], (ic + k + h + w) as u64);
            let len = ic * k * k * h * w;
            let mut fast = vec![7.0f32; len];
            let mut reference = vec![-7.0f32; len];
            for b in 0..2 {
                conv.im2col(&x, b, &mut fast);
                im2col_reference(&conv, &x, b, &mut reference);
                assert_eq!(fast, reference, "ic={ic} k={k} {h}x{w} sample {b}");
            }
        }
    }

    /// The per-pixel scatter the strip-add `col2im` replaced.
    fn col2im_reference(conv: &Conv2d, colg: &[f32], gx: &mut Tensor, n: usize) {
        let (h, w) = (gx.h(), gx.w());
        let k = conv.k;
        let pad = k / 2;
        let hw = h * w;
        for ic in 0..conv.in_c {
            let plane = gx.plane_mut(n, ic);
            for ky in 0..k {
                for kx in 0..k {
                    let row = ((ic * k + ky) * k + kx) * hw;
                    for oy in 0..h {
                        let iy = oy + ky;
                        if iy < pad || iy >= h + pad {
                            continue;
                        }
                        let sy = iy - pad;
                        for ox in 0..w {
                            let ix = ox + kx;
                            if ix >= pad && ix < w + pad {
                                plane[sy * w + (ix - pad)] += colg[row + oy * w + ox];
                            }
                        }
                    }
                }
            }
        }
    }

    /// The backward the NT dot tiles and the strip-add `col2im`
    /// replaced, kept as the backward sweep's reference. Per sample:
    /// the bias sums; im2col (1×1: the input in place); the weight
    /// gradient as one dot product per element
    /// ([`crate::gemm::tests::reference_nt`], fused or not); the column
    /// gradient through `sgemm_tn`; the per-pixel scatter. Accumulates
    /// into `conv`'s gradients and returns dX.
    fn reference_backward(conv: &mut Conv2d, fused: bool, x: &Tensor, grad: &Tensor) -> Tensor {
        let (n, hw) = (x.n(), x.h() * x.w());
        let (ick, out_c) = (conv.in_c * conv.k * conv.k, conv.out_c);
        let mut gx = Tensor::zeros(x.shape());
        let mut col = vec![0.0; ick * hw];
        let mut colg = vec![0.0; ick * hw];
        for b in 0..n {
            let go = &grad.data()[b * out_c * hw..(b + 1) * out_c * hw];
            for oc in 0..out_c {
                conv.bias.grad[oc] += go[oc * hw..(oc + 1) * hw].iter().sum::<f32>();
            }
            if conv.k == 1 {
                let xb = &x.data()[b * ick * hw..(b + 1) * ick * hw];
                reference_nt(fused, out_c, hw, ick, go, xb, &mut conv.weight.grad, 1.0);
                let gxb = &mut gx.data_mut()[b * ick * hw..(b + 1) * ick * hw];
                sgemm_tn(ick, out_c, hw, &conv.weight.value, go, gxb, 0.0);
            } else {
                conv.im2col(x, b, &mut col);
                reference_nt(fused, out_c, hw, ick, go, &col, &mut conv.weight.grad, 1.0);
                sgemm_tn(ick, out_c, hw, &conv.weight.value, go, &mut colg, 0.0);
                col2im_reference(conv, &colg, &mut gx, b);
            }
        }
        gx
    }

    /// The backward against [`reference_backward`], bitwise on every
    /// micro-kernel this CPU supports (the SIMD kernels against the
    /// fused reference, portable against the unfused one): dX of each
    /// of two backward calls, then dW and db, which the second call
    /// accumulates onto the first's as training does without a
    /// `zero_grad` between them. The cases are
    /// `implicit_forward_sweep`'s.
    #[test]
    fn backward_sweep() {
        let sides = [
            (2usize, 2usize),
            (4, 4),
            (8, 8),
            (16, 16),
            (32, 32),
            (12, 20),
        ];
        let ms = [1usize, 5, 8, 16, 17, 64];
        for (ki, k) in [1usize, 3, 5].into_iter().enumerate() {
            let cins = [3, 300usize.div_ceil(k * k), 600usize.div_ceil(k * k)];
            for (si, &(h, w)) in sides.iter().enumerate() {
                for (mi, &m) in ms.iter().enumerate() {
                    let cin = cins[(si + mi) % 3];
                    let n = if (si + mi + ki) % 2 == 0 { 3 } else { 1 };
                    let seed = (ki * 100 + si * 10 + mi) as u64;
                    let conv = Conv2d::new(cin, m, k, seed);
                    let x = random_tensor([n, cin, h, w], seed + 2);
                    let grads = [
                        random_tensor([n, m, h, w], seed + 3),
                        random_tensor([n, m, h, w], seed + 4),
                    ];
                    let case = format!("k={k} {h}x{w} m={m} in_c={cin} n={n}");
                    for kern in Kernel::supported() {
                        let (mut got, mut want) = (conv.clone(), conv.clone());
                        for (call, g) in grads.iter().enumerate() {
                            let want_gx = reference_backward(&mut want, kern.fused(), &x, g);
                            got.cached_input = Some(x.clone());
                            let got_gx = got.backward_on(kern, g.clone());
                            let what = format!("{kern:?} {case} call {call}");
                            assert_eq!(bits(got_gx.data()), bits(want_gx.data()), "dX {what}");
                        }
                        let (gw, ww) = (&got.weight.grad, &want.weight.grad);
                        assert_eq!(bits(gw), bits(ww), "dW {kern:?} {case}");
                        let (gb, wb) = (&got.bias.grad, &want.bias.grad);
                        assert_eq!(bits(gb), bits(wb), "db {kern:?} {case}");
                    }
                }
            }
        }
    }

    #[test]
    fn param_count() {
        let mut conv = Conv2d::new(2, 4, 3, 0);
        assert_eq!(conv.param_count(), 4 * 2 * 9 + 4);
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn rejects_wrong_channels() {
        let mut conv = Conv2d::new(2, 2, 3, 0);
        let _ = conv.forward(Tensor::zeros([1, 3, 4, 4]));
    }
}
