//! The inpainting U-Net denoiser.
//!
//! A compact diffusion U-Net with two downsampling stages, residual
//! blocks, group normalisation, SiLU activations and sinusoidal time
//! embeddings. The input has three channels — noisy image `x_t`, binary
//! mask, and the masked clean image — making it an *inpainting* model in
//! the same sense as `stablediffusion-inpaint` (whose latent-space input
//! is likewise image+mask+masked-image).
//!
//! Backward passes are wired by hand in exact reverse topological order;
//! a finite-difference test validates the whole graph.

use pp_nn::{
    AvgPool2, Conv2d, GroupNorm, Layer, Linear, Param, Silu, Tensor, Upsample2, Workspace,
};
use serde::{Deserialize, Serialize};

/// Architecture hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UNetConfig {
    /// Image side (must be divisible by 4).
    pub image: u32,
    /// Base channel count (doubled at each downsampling).
    pub base_ch: usize,
    /// Time-embedding dimension.
    pub time_dim: usize,
}

impl UNetConfig {
    /// The configuration used by the main experiments (32×32 clips).
    pub fn standard(image: u32) -> Self {
        UNetConfig {
            image,
            base_ch: 16,
            time_dim: 32,
        }
    }

    /// A minimal configuration for fast tests.
    pub fn tiny(image: u32) -> Self {
        UNetConfig {
            image,
            base_ch: 2,
            time_dim: 4,
        }
    }
}

/// The GroupNorm group count the U-Net uses for `c` channels.
pub fn groups_for(c: usize) -> usize {
    if c.is_multiple_of(4) && c >= 8 {
        4
    } else if c.is_multiple_of(2) {
        2
    } else {
        1
    }
}

/// One residual block with time-bias injection.
#[derive(Debug, Clone)]
struct ResBlock {
    gn1: GroupNorm,
    silu1: Silu,
    conv1: Conv2d,
    time_proj: Linear,
    gn2: GroupNorm,
    silu2: Silu,
    conv2: Conv2d,
    skip: Option<Conv2d>,
    out_c: usize,
}

impl ResBlock {
    fn new(cin: usize, cout: usize, time_dim: usize, seed: u64) -> Self {
        ResBlock {
            gn1: GroupNorm::new(cin, groups_for(cin)),
            silu1: Silu::new(),
            conv1: Conv2d::new(cin, cout, 3, seed),
            time_proj: Linear::new(time_dim, cout, seed ^ 0xaaaa),
            gn2: GroupNorm::new(cout, groups_for(cout)),
            silu2: Silu::new(),
            conv2: Conv2d::new(cout, cout, 3, seed ^ 0x5555),
            skip: (cin != cout).then(|| Conv2d::new(cin, cout, 1, seed ^ 0x1234)),
            out_c: cout,
        }
    }

    fn forward(&mut self, x: Tensor, emb: &Tensor) -> Tensor {
        let skip_out = match &mut self.skip {
            Some(c) => c.forward(x.clone()),
            None => x.clone(),
        };
        let mut h = self.conv1.forward(self.silu1.forward(self.gn1.forward(x)));
        // Per-channel time bias, broadcast over the spatial extent.
        let tb = self.time_proj.forward(emb.clone());
        for b in 0..h.n() {
            for c in 0..self.out_c {
                let bias = tb.get(b, c, 0, 0);
                for v in h.plane_mut(b, c) {
                    *v += bias;
                }
            }
        }
        let mut out = self.conv2.forward(self.silu2.forward(self.gn2.forward(h)));
        out.add_assign(&skip_out);
        out
    }

    /// Returns (∂loss/∂x, ∂loss/∂emb).
    fn backward(&mut self, grad: Tensor) -> (Tensor, Tensor) {
        let g_skip = grad.clone();
        let g = self
            .gn2
            .backward(self.silu2.backward(self.conv2.backward(grad)));
        // Time-bias gradient: sum over spatial positions per channel.
        let n = g.n();
        let mut gtb = Tensor::zeros([n, self.out_c, 1, 1]);
        for b in 0..n {
            for c in 0..self.out_c {
                gtb.set(b, c, 0, 0, g.plane(b, c).iter().sum::<f32>());
            }
        }
        let g_emb = self.time_proj.backward(gtb);
        let mut gx = self
            .gn1
            .backward(self.silu1.backward(self.conv1.backward(g)));
        let gx_skip = match &mut self.skip {
            Some(c) => c.backward(g_skip),
            None => g_skip,
        };
        gx.add_assign(&gx_skip);
        (gx, g_emb)
    }

    /// Inference-only forward: borrows inputs, caches nothing, and
    /// recycles every intermediate through `ws`.
    fn forward_infer(&mut self, x: &Tensor, emb: &Tensor, ws: &mut Workspace) -> Tensor {
        let a = self.gn1.forward_silu_infer(x, ws);
        let mut h = self.conv1.forward_infer(&a, ws);
        ws.give(a.into_vec());
        let tb = self.time_proj.forward_infer(emb, ws);
        for b in 0..h.n() {
            for c in 0..self.out_c {
                let bias = tb.get(b, c, 0, 0);
                for v in h.plane_mut(b, c) {
                    *v += bias;
                }
            }
        }
        ws.give(tb.into_vec());
        let a = self.gn2.forward_silu_infer(&h, ws);
        ws.give(h.into_vec());
        let mut out = self.conv2.forward_infer(&a, ws);
        ws.give(a.into_vec());
        match &mut self.skip {
            Some(c) => {
                let s = c.forward_infer(x, ws);
                out.add_assign(&s);
                ws.give(s.into_vec());
            }
            None => out.add_assign(x),
        }
        out
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.gn1.visit_params(f);
        self.conv1.visit_params(f);
        self.time_proj.visit_params(f);
        self.gn2.visit_params(f);
        self.conv2.visit_params(f);
        if let Some(s) = &mut self.skip {
            s.visit_params(f);
        }
    }
}

/// The full denoiser network.
///
/// Input: `[n, 3, H, W]` (noisy image, mask, masked image); output:
/// `[n, 1, H, W]`, the predicted clean image `x̂0`.
#[derive(Debug, Clone)]
pub struct UNet {
    cfg: UNetConfig,
    t_max: usize,
    conv_in: Conv2d,
    emb_lin: Linear,
    emb_silu: Silu,
    rb1: ResBlock,
    down1: AvgPool2,
    rb2: ResBlock,
    down2: AvgPool2,
    rb3: ResBlock,
    mid: ResBlock,
    up2: Upsample2,
    rb4: ResBlock,
    up1: Upsample2,
    rb5: ResBlock,
    gn_out: GroupNorm,
    silu_out: Silu,
    conv_out: Conv2d,
    /// Buffer pool for the inference path (empty on clone; warms up on
    /// the first [`UNet::forward_infer`] call).
    ws: Workspace,
}

impl UNet {
    /// Builds a U-Net for diffusion horizon `t_max`.
    ///
    /// # Panics
    ///
    /// Panics unless the image side is divisible by 4.
    pub fn new(cfg: UNetConfig, t_max: usize, seed: u64) -> Self {
        assert!(
            cfg.image.is_multiple_of(4),
            "image side must be divisible by 4"
        );
        let c = cfg.base_ch;
        let td = cfg.time_dim;
        UNet {
            cfg,
            t_max,
            conv_in: Conv2d::new(3, c, 3, seed),
            emb_lin: Linear::new(td, td, seed ^ 1),
            emb_silu: Silu::new(),
            rb1: ResBlock::new(c, c, td, seed ^ 2),
            down1: AvgPool2::new(),
            rb2: ResBlock::new(c, 2 * c, td, seed ^ 3),
            down2: AvgPool2::new(),
            rb3: ResBlock::new(2 * c, 4 * c, td, seed ^ 4),
            mid: ResBlock::new(4 * c, 4 * c, td, seed ^ 5),
            up2: Upsample2::new(),
            rb4: ResBlock::new(6 * c, 2 * c, td, seed ^ 6),
            up1: Upsample2::new(),
            rb5: ResBlock::new(3 * c, c, td, seed ^ 7),
            gn_out: GroupNorm::new(c, groups_for(c)),
            silu_out: Silu::new(),
            conv_out: Conv2d::new(c, 1, 3, seed ^ 8),
            ws: Workspace::new(),
        }
    }

    /// The architecture configuration.
    pub fn config(&self) -> UNetConfig {
        self.cfg
    }

    /// Sinusoidal embedding of a batch of timesteps.
    fn embed(&self, ts: &[usize]) -> Tensor {
        let td = self.cfg.time_dim;
        let mut out = Tensor::zeros([ts.len(), td, 1, 1]);
        self.embed_into(ts, &mut out);
        out
    }

    /// Writes the sinusoidal embedding into a preallocated `[n, td]`
    /// tensor. Indices `0..2·(td/2)` are overwritten; with an odd
    /// `time_dim` the last element is left as-is, so callers must pass
    /// a zeroed tensor.
    fn embed_into(&self, ts: &[usize], out: &mut Tensor) {
        let td = self.cfg.time_dim;
        let half = td / 2;
        for (b, &t) in ts.iter().enumerate() {
            // Scale t into [0, 1000) like standard DDPM embeddings.
            let tv = t as f32 / self.t_max as f32 * 1000.0;
            for i in 0..half {
                let freq = 10000f32.powf(i as f32 / half as f32);
                out.set(b, i, 0, 0, (tv / freq).sin());
                out.set(b, half + i, 0, 0, (tv / freq).cos());
            }
        }
    }

    /// Predicts `x̂0` for a batch.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[n, 3, image, image]` or `ts.len() != n`.
    pub fn forward(&mut self, x: Tensor, ts: &[usize]) -> Tensor {
        assert_eq!(x.c(), 3, "expected 3 input channels");
        assert_eq!(x.n(), ts.len(), "batch size mismatch");
        let emb = self.emb_silu.forward(self.emb_lin.forward(self.embed(ts)));
        let h0 = self.conv_in.forward(x);
        let h1 = self.rb1.forward(h0, &emb);
        let h2 = self.rb2.forward(self.down1.forward(h1.clone()), &emb);
        let h3 = self.rb3.forward(self.down2.forward(h2.clone()), &emb);
        let hm = self.mid.forward(h3, &emb);
        let c2 = self.up2.forward(hm).concat_channels(&h2);
        let h4 = self.rb4.forward(c2, &emb);
        let c1 = self.up1.forward(h4).concat_channels(&h1);
        let h5 = self.rb5.forward(c1, &emb);
        self.conv_out
            .forward(self.silu_out.forward(self.gn_out.forward(h5)))
    }

    /// Inference-only prediction of `x̂0` for a batch.
    ///
    /// Bit-identical to [`UNet::forward`] (same kernels, same per-sample
    /// arithmetic) but borrows the input, caches nothing for backward,
    /// and recycles every intermediate through an internal buffer pool —
    /// after the first call a DDIM loop performs no heap allocation
    /// inside the network. Hand the returned tensor back via
    /// [`UNet::recycle`] once consumed to keep the pool closed.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `[n, 3, image, image]` or `ts.len() != n`.
    pub fn forward_infer(&mut self, x: &Tensor, ts: &[usize]) -> Tensor {
        assert_eq!(x.c(), 3, "expected 3 input channels");
        assert_eq!(x.n(), ts.len(), "batch size mismatch");
        let mut ws = std::mem::take(&mut self.ws);
        let td = self.cfg.time_dim;
        // Zeroed, not raw: embed_into leaves index td-1 untouched when
        // time_dim is odd, and forward() reads 0.0 there via
        // Tensor::zeros — stale pool contents would diverge from it.
        let mut emb_raw = Tensor::from_vec([ts.len(), td, 1, 1], ws.take_zeroed(ts.len() * td));
        self.embed_into(ts, &mut emb_raw);
        let emb_lin = self.emb_lin.forward_infer(&emb_raw, &mut ws);
        let emb = self.emb_silu.forward_infer(&emb_lin, &mut ws);
        ws.give(emb_raw.into_vec());
        ws.give(emb_lin.into_vec());

        let h0 = self.conv_in.forward_infer(x, &mut ws);
        let h1 = self.rb1.forward_infer(&h0, &emb, &mut ws);
        ws.give(h0.into_vec());
        let d1 = self.down1.forward_infer(&h1, &mut ws);
        let h2 = self.rb2.forward_infer(&d1, &emb, &mut ws);
        ws.give(d1.into_vec());
        let d2 = self.down2.forward_infer(&h2, &mut ws);
        let h3 = self.rb3.forward_infer(&d2, &emb, &mut ws);
        ws.give(d2.into_vec());
        let hm = self.mid.forward_infer(&h3, &emb, &mut ws);
        ws.give(h3.into_vec());

        let c2 = self.up2.forward_concat_infer(&hm, &h2, &mut ws);
        ws.give(hm.into_vec());
        ws.give(h2.into_vec());
        let h4 = self.rb4.forward_infer(&c2, &emb, &mut ws);
        ws.give(c2.into_vec());

        let c1 = self.up1.forward_concat_infer(&h4, &h1, &mut ws);
        ws.give(h4.into_vec());
        ws.give(h1.into_vec());
        let h5 = self.rb5.forward_infer(&c1, &emb, &mut ws);
        ws.give(c1.into_vec());
        ws.give(emb.into_vec());

        let s = self.gn_out.forward_silu_infer(&h5, &mut ws);
        ws.give(h5.into_vec());
        let y = self.conv_out.forward_infer(&s, &mut ws);
        ws.give(s.into_vec());
        self.ws = ws;
        y
    }

    /// Returns a tensor produced by [`UNet::forward_infer`] to the
    /// internal pool so the next step reuses its allocation.
    pub fn recycle(&mut self, t: Tensor) {
        self.ws.give(t.into_vec());
    }

    /// Backpropagates ∂loss/∂output, accumulating parameter gradients.
    ///
    /// Must follow a matching [`UNet::forward`]. Returns ∂loss/∂input.
    pub fn backward(&mut self, grad: Tensor) -> Tensor {
        let c = self.cfg.base_ch;
        let g = self
            .gn_out
            .backward(self.silu_out.backward(self.conv_out.backward(grad)));
        let (g_c1, ge5) = self.rb5.backward(g);
        let (g_u1, g_h1a) = g_c1.split_channels(2 * c);
        let (g_c2, ge4) = self.rb4.backward(self.up1.backward(g_u1));
        let (g_u2, g_h2a) = g_c2.split_channels(4 * c);
        let (g_h3, gem) = self.mid.backward(self.up2.backward(g_u2));
        let (g_d2, ge3) = self.rb3.backward(g_h3);
        let mut g_h2 = self.down2.backward(g_d2);
        g_h2.add_assign(&g_h2a);
        let (g_d1, ge2) = self.rb2.backward(g_h2);
        let mut g_h1 = self.down1.backward(g_d1);
        g_h1.add_assign(&g_h1a);
        let (g_h0, ge1) = self.rb1.backward(g_h1);
        let gx = self.conv_in.backward(g_h0);
        // Time-embedding gradient: sum of the per-block contributions.
        let mut gemb = ge1;
        for ge in [ge2, ge3, gem, ge4, ge5] {
            gemb.add_assign(&ge);
        }
        let _ = self.emb_lin.backward(self.emb_silu.backward(gemb));
        gx
    }
}

impl Layer for UNet {
    fn forward(&mut self, x: Tensor) -> Tensor {
        // Layer-trait entry point defaults to t = 0 for all samples (used
        // only by generic utilities; training uses the inherent method).
        let ts = vec![0usize; x.n()];
        UNet::forward(self, x, &ts)
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        UNet::backward(self, grad)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.conv_in.visit_params(f);
        self.emb_lin.visit_params(f);
        self.rb1.visit_params(f);
        self.rb2.visit_params(f);
        self.rb3.visit_params(f);
        self.mid.visit_params(f);
        self.rb4.visit_params(f);
        self.rb5.visit_params(f);
        self.gn_out.visit_params(f);
        self.conv_out.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_input(n: usize, image: u32, seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = n * 3 * (image * image) as usize;
        Tensor::from_vec(
            [n, 3, image as usize, image as usize],
            (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        )
    }

    #[test]
    fn forward_shapes() {
        let mut net = UNet::new(UNetConfig::tiny(8), 10, 0);
        let y = net.forward(random_input(2, 8, 1), &[3, 7]);
        assert_eq!(y.shape(), [2, 1, 8, 8]);
    }

    #[test]
    fn time_conditioning_changes_output() {
        let mut net = UNet::new(UNetConfig::tiny(8), 10, 0);
        let x = random_input(1, 8, 2);
        let a = net.forward(x.clone(), &[0]);
        let b = net.forward(x, &[9]);
        assert_ne!(a.data(), b.data());
    }

    /// `forward_infer` equals `forward` bitwise, also on a second call
    /// that reuses pooled buffers.
    fn check_infer_matches_forward(cfg: UNetConfig, ts: &[usize], seed: u64) {
        let mut net = UNet::new(cfg, 10, seed);
        let x = random_input(ts.len(), cfg.image, seed + 1);
        let trained = net.forward(x.clone(), ts);
        let inferred = net.forward_infer(&x, ts);
        assert_eq!(trained.data(), inferred.data());
        net.recycle(inferred);
        let again = net.forward_infer(&x, ts);
        assert_eq!(trained.data(), again.data());
    }

    /// Each sample of a batched inference pass computes exactly what it
    /// computes alone — the invariant batched DDIM sampling relies on.
    fn check_batch_rows_match_solo(cfg: UNetConfig, ts: &[usize], seed: u64) {
        let mut net = UNet::new(cfg, 10, seed);
        let side = cfg.image as usize;
        let xb = random_input(ts.len(), cfg.image, seed + 1);
        let yb = net.forward_infer(&xb, ts);
        for b in 0..ts.len() {
            let mut xs = Tensor::zeros([1, 3, side, side]);
            for c in 0..3 {
                xs.plane_mut(0, c).copy_from_slice(xb.plane(b, c));
            }
            let ys = net.forward_infer(&xs, &ts[b..b + 1]);
            assert_eq!(ys.plane(0, 0), yb.plane(b, 0), "sample {b} diverged");
            net.recycle(ys);
        }
    }

    /// The tiny preset, then the standard U-Net at widths 16 and 3 (up
    /// to 96 channels and 32×32 planes; the tiny preset has at most 12
    /// channels and 8×8 planes).
    fn identity_cases() -> [(UNetConfig, Vec<usize>); 3] {
        [
            (UNetConfig::tiny(8), vec![1, 5, 9]),
            (UNetConfig::standard(32), (0..16).map(|i| i % 10).collect()),
            (UNetConfig::standard(32), vec![2, 7, 3]),
        ]
    }

    #[test]
    fn infer_matches_forward_bitwise() {
        for (i, (cfg, ts)) in identity_cases().into_iter().enumerate() {
            check_infer_matches_forward(cfg, &ts, 11 + i as u64);
        }
    }

    #[test]
    fn infer_batch_rows_match_solo() {
        for (i, (cfg, ts)) in identity_cases().into_iter().enumerate() {
            check_batch_rows_match_solo(cfg, &ts, 13 + i as u64);
        }
    }

    #[test]
    fn clone_matches_original() {
        let mut net = UNet::new(UNetConfig::tiny(8), 10, 3);
        let mut copy = net.clone();
        let x = random_input(1, 8, 4);
        let a = net.forward(x.clone(), &[5]);
        let b = copy.forward(x, &[5]);
        assert_eq!(a.data(), b.data());
    }

    /// Full-graph finite-difference check of ∂loss/∂input.
    #[test]
    fn gradcheck_full_network() {
        let mut net = UNet::new(UNetConfig::tiny(8), 10, 5);
        let x = random_input(1, 8, 6);
        let ts = [4usize];
        net.zero_grad();
        let y = net.forward(x.clone(), &ts);
        let gx = net.backward(y); // loss = 0.5 Σ y²
        let eps = 1e-2f32;
        let loss = |net: &mut UNet, x: Tensor| {
            let y = net.forward(x, &ts);
            0.5 * y.data().iter().map(|v| v * v).sum::<f32>()
        };
        // Check a scattering of input positions.
        for &i in &[0usize, 17, 63, 100, 150] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&mut net, xp) - loss(&mut net, xm)) / (2.0 * eps);
            let ana = gx.data()[i];
            assert!(
                (num - ana).abs() <= 0.05 * (1.0 + num.abs().max(ana.abs())),
                "input grad mismatch at {i}: numeric {num}, analytic {ana}"
            );
        }
    }

    /// Finite-difference check of a few parameter gradients.
    #[test]
    fn gradcheck_parameters() {
        let mut net = UNet::new(UNetConfig::tiny(8), 10, 7);
        let x = random_input(1, 8, 8);
        let ts = [2usize];
        net.zero_grad();
        let y = net.forward(x.clone(), &ts);
        let _ = net.backward(y);
        let mut grads: Vec<Vec<f32>> = Vec::new();
        net.visit_params(&mut |p| grads.push(p.grad.clone()));
        let nparams = grads.len();
        let eps = 1e-2f32;
        // Check the first entry of a few parameter tensors.
        for pi in (0..nparams).step_by(nparams / 6 + 1) {
            let bump = |net: &mut UNet, delta: f32| {
                let mut k = 0;
                net.visit_params(&mut |p| {
                    if k == pi {
                        p.value[0] += delta;
                    }
                    k += 1;
                });
            };
            let loss = |net: &mut UNet| {
                let y = net.forward(x.clone(), &ts);
                0.5 * y.data().iter().map(|v| v * v).sum::<f32>()
            };
            bump(&mut net, eps);
            let lp = loss(&mut net);
            bump(&mut net, -2.0 * eps);
            let lm = loss(&mut net);
            bump(&mut net, eps);
            let num = (lp - lm) / (2.0 * eps);
            let ana = grads[pi][0];
            assert!(
                (num - ana).abs() <= 0.05 * (1.0 + num.abs().max(ana.abs())),
                "param {pi} grad mismatch: numeric {num}, analytic {ana}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "divisible by 4")]
    fn rejects_odd_image() {
        let _ = UNet::new(
            UNetConfig {
                image: 10,
                base_ch: 2,
                time_dim: 4,
            },
            10,
            0,
        );
    }
}
