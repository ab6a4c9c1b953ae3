//! Spatial down/up-sampling.

use crate::param::Param;
use crate::tensor::Tensor;
use crate::workspace::Workspace;
use crate::Layer;

/// 2×2 average pooling of `x` into `y` (shared by train/infer paths).
fn avgpool_into(x: &Tensor, y: &mut Tensor) {
    let [n, c, h, w] = x.shape();
    let (oh, ow) = (h / 2, w / 2);
    for b in 0..n {
        for ci in 0..c {
            let src = x.plane(b, ci);
            let dst = y.plane_mut(b, ci);
            for oy in 0..oh {
                for ox in 0..ow {
                    let s = src[(2 * oy) * w + 2 * ox]
                        + src[(2 * oy) * w + 2 * ox + 1]
                        + src[(2 * oy + 1) * w + 2 * ox]
                        + src[(2 * oy + 1) * w + 2 * ox + 1];
                    dst[oy * ow + ox] = 0.25 * s;
                }
            }
        }
    }
}

/// 2× nearest-neighbour upsampling of `x` into the first `x.c()`
/// channels of `y`, by rows: each source row is widened into an even
/// output row, which is then copied to the odd row below it.
fn upsample_into(x: &Tensor, y: &mut Tensor) {
    let [n, c, h, w] = x.shape();
    let ow = 2 * w;
    for b in 0..n {
        for ci in 0..c {
            let src = x.plane(b, ci);
            let dst = y.plane_mut(b, ci);
            for r in 0..h {
                let (even, odd) = dst[2 * r * ow..(2 * r + 2) * ow].split_at_mut(ow);
                for (pair, &v) in even.chunks_exact_mut(2).zip(&src[r * w..(r + 1) * w]) {
                    pair.fill(v);
                }
                odd.copy_from_slice(even);
            }
        }
    }
}

/// 2×2 average pooling (halves height and width).
///
/// # Example
///
/// ```
/// use pp_nn::{AvgPool2, Layer, Tensor};
///
/// let mut pool = AvgPool2::new();
/// let y = pool.forward(Tensor::zeros([1, 2, 8, 8]));
/// assert_eq!(y.shape(), [1, 2, 4, 4]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AvgPool2 {
    input_shape: Option<[usize; 4]>,
}

impl AvgPool2 {
    /// Creates the pool.
    pub fn new() -> Self {
        AvgPool2::default()
    }
}

impl Layer for AvgPool2 {
    fn forward(&mut self, x: Tensor) -> Tensor {
        let [n, c, h, w] = x.shape();
        assert!(h % 2 == 0 && w % 2 == 0, "spatial dims must be even");
        let mut y = Tensor::zeros([n, c, h / 2, w / 2]);
        avgpool_into(&x, &mut y);
        self.input_shape = Some(x.shape());
        y
    }

    fn forward_infer(&mut self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        let [n, c, h, w] = x.shape();
        assert!(h % 2 == 0 && w % 2 == 0, "spatial dims must be even");
        let mut y = Tensor::from_vec([n, c, h / 2, w / 2], ws.take(n * c * (h / 2) * (w / 2)));
        avgpool_into(x, &mut y);
        y
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        let shape = self.input_shape.take().expect("backward without forward");
        let [n, c, h, w] = shape;
        let (oh, ow) = (h / 2, w / 2);
        let mut gx = Tensor::zeros(shape);
        for b in 0..n {
            for ci in 0..c {
                let src = grad.plane(b, ci);
                let dst = gx.plane_mut(b, ci);
                for oy in 0..oh {
                    for ox in 0..ow {
                        let g = 0.25 * src[oy * ow + ox];
                        dst[(2 * oy) * w + 2 * ox] = g;
                        dst[(2 * oy) * w + 2 * ox + 1] = g;
                        dst[(2 * oy + 1) * w + 2 * ox] = g;
                        dst[(2 * oy + 1) * w + 2 * ox + 1] = g;
                    }
                }
            }
        }
        gx
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

/// 2× nearest-neighbour upsampling (doubles height and width).
#[derive(Debug, Clone, Default)]
pub struct Upsample2 {
    input_shape: Option<[usize; 4]>,
}

impl Upsample2 {
    /// Creates the upsampler.
    pub fn new() -> Self {
        Upsample2::default()
    }

    /// Inference-only `[upsample(x), skip]` along channels: `x` is
    /// upsampled straight into the first channels of one tensor drawn
    /// from `ws`, and `skip`'s planes are copied behind them.
    ///
    /// Bit-identical to [`Layer::forward`] followed by
    /// [`Tensor::concat_channels`] (both are copies).
    ///
    /// # Panics
    ///
    /// Panics unless `skip` is `[n, _, 2h, 2w]` for `x` of `[n, _, h, w]`.
    pub fn forward_concat_infer(&self, x: &Tensor, skip: &Tensor, ws: &mut Workspace) -> Tensor {
        let [n, cu, h, w] = x.shape();
        let [ns, cs, oh, ow] = skip.shape();
        assert_eq!([ns, oh, ow], [n, 2 * h, 2 * w], "skip shape mismatch");
        let mut y = Tensor::from_vec([n, cu + cs, oh, ow], ws.take(n * (cu + cs) * oh * ow));
        upsample_into(x, &mut y);
        for b in 0..n {
            for ci in 0..cs {
                y.plane_mut(b, cu + ci).copy_from_slice(skip.plane(b, ci));
            }
        }
        y
    }
}

impl Layer for Upsample2 {
    fn forward(&mut self, x: Tensor) -> Tensor {
        let [n, c, h, w] = x.shape();
        let mut y = Tensor::zeros([n, c, h * 2, w * 2]);
        upsample_into(&x, &mut y);
        self.input_shape = Some(x.shape());
        y
    }

    fn backward(&mut self, grad: Tensor) -> Tensor {
        let shape = self.input_shape.take().expect("backward without forward");
        let [n, c, h, w] = shape;
        let ow = w * 2;
        let mut gx = Tensor::zeros(shape);
        for b in 0..n {
            for ci in 0..c {
                let src = grad.plane(b, ci);
                let dst = gx.plane_mut(b, ci);
                for oy in 0..h * 2 {
                    for ox in 0..ow {
                        dst[(oy / 2) * w + ox / 2] += src[oy * ow + ox];
                    }
                }
            }
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

    fn random_tensor(shape: [usize; 4], seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::from_vec(
            shape,
            (0..shape.iter().product())
                .map(|_| rng.gen_range(-1.0f32..1.0))
                .collect(),
        )
    }

    #[test]
    fn avgpool_averages() {
        let mut pool = AvgPool2::new();
        let x = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let y = pool.forward(x);
        assert_eq!(y.data(), &[2.5]);
    }

    #[test]
    fn upsample_replicates() {
        let mut up = Upsample2::new();
        let x = Tensor::from_vec([1, 1, 1, 2], vec![1.0, 2.0]);
        let y = up.forward(x);
        assert_eq!(y.shape(), [1, 1, 2, 4]);
        assert_eq!(y.data(), &[1.0, 1.0, 2.0, 2.0, 1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn upsample_concat_matches_forward_then_concat() {
        let mut up = Upsample2::new();
        for (h, w) in [(1usize, 1usize), (2, 3), (8, 8)] {
            let x = random_tensor([2, 3, h, w], 4);
            let skip = random_tensor([2, 5, 2 * h, 2 * w], 5);
            let expected = up.forward(x.clone()).concat_channels(&skip);
            let mut ws = Workspace::new();
            assert_eq!(up.forward_concat_infer(&x, &skip, &mut ws), expected);
        }
    }

    #[test]
    fn pool_then_upsample_shape_roundtrip() {
        let mut pool = AvgPool2::new();
        let mut up = Upsample2::new();
        let x = random_tensor([2, 3, 4, 4], 1);
        let y = up.forward(pool.forward(x.clone()));
        assert_eq!(y.shape(), x.shape());
    }

    #[test]
    fn gradcheck_avgpool() {
        check_layer(&mut AvgPool2::new(), random_tensor([1, 2, 4, 4], 2), 1e-2);
    }

    #[test]
    fn gradcheck_upsample() {
        check_layer(&mut Upsample2::new(), random_tensor([1, 2, 3, 3], 3), 1e-2);
    }

    #[test]
    #[should_panic(expected = "must be even")]
    fn avgpool_rejects_odd() {
        let _ = AvgPool2::new().forward(Tensor::zeros([1, 1, 3, 4]));
    }
}
