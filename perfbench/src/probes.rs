//! Direct probes of `pp-nn` at the shapes the sampler and trainer use,
//! and a host reference loop that tells box drift from a regression.
//!
//! Every probe runs on the benchmark's thread with random weights:
//! runtime is set by shapes, not by what the weights have learned.

use crate::report::{median, Metrics};
use pp_diffusion::{DiffusionConfig, DiffusionModel, UNet, UNetConfig};
use pp_geometry::GrayImage;
use pp_nn::{gemm, Adam, Tensor};
use pp_pdk::SynthNode;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median of per-call seconds over `reps` calls of `f`, after one
/// untimed warm-up call.
fn time_calls(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// `UNet::forward_infer` on the standard 32×32 U-Net: milliseconds per
/// batch row at width `w`.
fn forward_ms_per_row(unet: &mut UNet, w: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(w as u64);
    let data: Vec<f32> = (0..w * 3 * 32 * 32)
        .map(|_| rng.gen_range(-1.0f32..1.0))
        .collect();
    let x = Tensor::from_vec([w, 3, 32, 32], data);
    let ts = vec![50usize; w];
    let secs = time_calls(6, || {
        let y = unet.forward_infer(black_box(&x), &ts);
        unet.recycle(black_box(y));
    });
    secs * 1e3 / w as f64
}

/// `gemm::sgemm` GFLOP/s at `m×k×n`: the median over 5 windows of
/// about 40 ms each.
fn gemm_gflops(m: usize, k: usize, n: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64((m * k + n) as u64);
    let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let mut c = vec![0.0f32; m * n];
    let flops = 2.0 * (m * k * n) as f64;
    let calls = ((4e8 / flops) as usize).max(1);
    let secs = time_calls(5, || {
        for _ in 0..calls {
            gemm::sgemm(m, k, n, black_box(&a), black_box(&b), &mut c, 0.0);
        }
        black_box(&c);
    });
    flops * calls as f64 / secs / 1e9
}

/// One `DiffusionModel::train_epoch` step at batch 4 on the standard
/// model, in milliseconds (median of per-step times over 10 steps).
fn train_step_ms() -> f64 {
    let node = SynthNode::default();
    let starters: Vec<GrayImage> = node
        .starter_patterns()
        .iter()
        .map(GrayImage::from_layout)
        .collect();
    let mut model = DiffusionModel::new(DiffusionConfig::standard(32), 3);
    let mut opt = Adam::new(1e-3);
    let mut rng = StdRng::seed_from_u64(3);
    time_calls(10, || {
        model
            .train_epoch(&starters, &[], 0.0, 1, 4, &mut opt, &mut rng, None)
            .expect("starter images match the standard model");
    }) * 1e3
}

/// Runs every `pp-nn` probe into `metrics`.
pub fn nn_probes(metrics: &mut Metrics) {
    let mut unet = UNet::new(UNetConfig::standard(32), 100, 11);
    metrics.set("nn.fwd_ms_per_row.w16", forward_ms_per_row(&mut unet, 16));
    metrics.set("nn.fwd_ms_per_row.w12", forward_ms_per_row(&mut unet, 12));
    metrics.set("nn.fwd_ms_per_row.w2", forward_ms_per_row(&mut unet, 2));
    metrics.set("nn.gemm_gflops.16x144x1024", gemm_gflops(16, 144, 1024));
    metrics.set("nn.gemm_gflops.32x288x256", gemm_gflops(32, 288, 256));
    metrics.set("nn.gemm_gflops.64x576x64", gemm_gflops(64, 576, 64));
    metrics.set("nn.train_step_ms", train_step_ms());
}

/// GFLOP/s of a benchmark-owned multiply-add loop over 64 independent
/// lanes, for about `window`; it never calls the program's kernels.
pub fn host_ref_gflops(window: Duration) -> f64 {
    const LANES: usize = 64;
    const ITERS: usize = 1 << 16;
    let mut acc = [1.0f32; LANES];
    let (mul, add) = (black_box(0.999_999f32), black_box(1e-6f32));
    let t = Instant::now();
    let mut rounds = 0u64;
    while t.elapsed() < window {
        for _ in 0..ITERS {
            for a in acc.iter_mut() {
                *a = *a * mul + add;
            }
        }
        acc = black_box(acc);
        rounds += 1;
    }
    2.0 * (LANES * ITERS) as f64 * rounds as f64 / t.elapsed().as_secs_f64() / 1e9
}
