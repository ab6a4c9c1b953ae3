//! Dense NCHW tensors.

use serde::{Deserialize, Serialize};

/// A dense 4-D tensor in NCHW layout (batch, channels, height, width).
///
/// Vectors and matrices are represented with trailing singleton
/// dimensions (e.g. a feature vector is `[n, c, 1, 1]`).
///
/// # Example
///
/// ```
/// use pp_nn::Tensor;
///
/// let mut t = Tensor::zeros([2, 3, 4, 4]);
/// t.set(1, 2, 3, 3, 7.0);
/// assert_eq!(t.get(1, 2, 3, 3), 7.0);
/// assert_eq!(t.len(), 2 * 3 * 4 * 4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: [usize; 4],
    data: Vec<f32>,
}

impl Tensor {
    /// An all-zero tensor.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn zeros(shape: [usize; 4]) -> Self {
        assert!(shape.iter().all(|&d| d > 0), "tensor dims must be nonzero");
        Tensor {
            shape,
            data: vec![0.0; shape.iter().product()],
        }
    }

    /// Wraps a data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the shape volume.
    pub fn from_vec(shape: [usize; 4], data: Vec<f32>) -> Self {
        assert!(shape.iter().all(|&d| d > 0), "tensor dims must be nonzero");
        assert_eq!(
            data.len(),
            shape.iter().product::<usize>(),
            "data length must match shape"
        );
        Tensor { shape, data }
    }

    /// The NCHW shape.
    pub fn shape(&self) -> [usize; 4] {
        self.shape
    }

    /// Batch size.
    pub fn n(&self) -> usize {
        self.shape[0]
    }

    /// Channels.
    pub fn c(&self) -> usize {
        self.shape[1]
    }

    /// Height.
    pub fn h(&self) -> usize {
        self.shape[2]
    }

    /// Width.
    pub fn w(&self) -> usize {
        self.shape[3]
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable raw data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable raw data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    #[inline]
    fn index(&self, n: usize, c: usize, y: usize, x: usize) -> usize {
        debug_assert!(
            n < self.shape[0] && c < self.shape[1] && y < self.shape[2] && x < self.shape[3]
        );
        ((n * self.shape[1] + c) * self.shape[2] + y) * self.shape[3] + x
    }

    /// Reads one element.
    #[inline]
    pub fn get(&self, n: usize, c: usize, y: usize, x: usize) -> f32 {
        self.data[self.index(n, c, y, x)]
    }

    /// Writes one element.
    #[inline]
    pub fn set(&mut self, n: usize, c: usize, y: usize, x: usize, v: f32) {
        let i = self.index(n, c, y, x);
        self.data[i] = v;
    }

    /// One image plane (channel `c` of sample `n`) as a slice.
    pub fn plane(&self, n: usize, c: usize) -> &[f32] {
        let hw = self.shape[2] * self.shape[3];
        let start = (n * self.shape[1] + c) * hw;
        &self.data[start..start + hw]
    }

    /// Mutable image plane.
    pub fn plane_mut(&mut self, n: usize, c: usize) -> &mut [f32] {
        let hw = self.shape[2] * self.shape[3];
        let start = (n * self.shape[1] + c) * hw;
        &mut self.data[start..start + hw]
    }

    /// Reinterprets with a new shape of identical volume.
    ///
    /// # Panics
    ///
    /// Panics on volume mismatch.
    pub fn reshape(mut self, shape: [usize; 4]) -> Tensor {
        assert_eq!(
            self.data.len(),
            shape.iter().product::<usize>(),
            "reshape must preserve volume"
        );
        self.shape = shape;
        self
    }

    /// Changes the batch dimension in place, keeping the buffer: rows
    /// that survive keep their contents, new rows read zero, and
    /// shrinking never reallocates.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn resize_batch(&mut self, n: usize) {
        assert!(n > 0, "tensor dims must be nonzero");
        self.shape[0] = n;
        self.data.resize(self.shape.iter().product(), 0.0);
    }

    /// Elementwise `self += other`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// Elementwise `self * s` into a new tensor.
    pub fn scaled(&self, s: f32) -> Tensor {
        Tensor {
            shape: self.shape,
            data: self.data.iter().map(|&v| v * s).collect(),
        }
    }

    /// Concatenates along the channel axis.
    ///
    /// # Panics
    ///
    /// Panics unless batch and spatial dims match.
    pub fn concat_channels(&self, other: &Tensor) -> Tensor {
        assert_eq!(self.shape[0], other.shape[0], "batch mismatch");
        assert_eq!(self.shape[2], other.shape[2], "height mismatch");
        assert_eq!(self.shape[3], other.shape[3], "width mismatch");
        let (n, c1, c2, h, w) = (
            self.shape[0],
            self.shape[1],
            other.shape[1],
            self.shape[2],
            self.shape[3],
        );
        let mut out = Tensor::zeros([n, c1 + c2, h, w]);
        for b in 0..n {
            for c in 0..c1 {
                out.plane_mut(b, c).copy_from_slice(self.plane(b, c));
            }
            for c in 0..c2 {
                out.plane_mut(b, c1 + c).copy_from_slice(other.plane(b, c));
            }
        }
        out
    }

    /// Channel-concatenates into a preallocated output (allocation-free
    /// variant of [`Tensor::concat_channels`]).
    ///
    /// # Panics
    ///
    /// Panics unless `out` is `[n, c1 + c2, h, w]` with matching batch
    /// and spatial dims.
    pub fn concat_channels_into(&self, other: &Tensor, out: &mut Tensor) {
        assert_eq!(self.shape[0], other.shape[0], "batch mismatch");
        assert_eq!(self.shape[2], other.shape[2], "height mismatch");
        assert_eq!(self.shape[3], other.shape[3], "width mismatch");
        let (n, c1, c2) = (self.shape[0], self.shape[1], other.shape[1]);
        assert_eq!(
            out.shape,
            [n, c1 + c2, self.shape[2], self.shape[3]],
            "output shape mismatch"
        );
        for b in 0..n {
            for c in 0..c1 {
                out.plane_mut(b, c).copy_from_slice(self.plane(b, c));
            }
            for c in 0..c2 {
                out.plane_mut(b, c1 + c).copy_from_slice(other.plane(b, c));
            }
        }
    }

    /// Splits channels `[0, c_split)` and `[c_split, C)` into two tensors
    /// (inverse of [`Tensor::concat_channels`]).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < c_split < C`.
    pub fn split_channels(&self, c_split: usize) -> (Tensor, Tensor) {
        let [n, c, h, w] = self.shape;
        assert!(c_split > 0 && c_split < c, "invalid split point");
        let mut a = Tensor::zeros([n, c_split, h, w]);
        let mut b = Tensor::zeros([n, c - c_split, h, w]);
        for bi in 0..n {
            for ci in 0..c_split {
                a.plane_mut(bi, ci).copy_from_slice(self.plane(bi, ci));
            }
            for ci in c_split..c {
                b.plane_mut(bi, ci - c_split)
                    .copy_from_slice(self.plane(bi, ci));
            }
        }
        (a, b)
    }

    /// Mean of all elements.
    pub fn mean(&self) -> f32 {
        self.data.iter().sum::<f32>() / self.data.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_roundtrip() {
        let mut t = Tensor::zeros([2, 3, 4, 5]);
        t.set(1, 2, 3, 4, 42.0);
        assert_eq!(t.get(1, 2, 3, 4), 42.0);
        assert_eq!(t.data()[t.len() - 1], 42.0); // last element
    }

    #[test]
    fn plane_is_contiguous() {
        let mut t = Tensor::zeros([1, 2, 2, 2]);
        for (i, v) in t.data_mut().iter_mut().enumerate() {
            *v = i as f32;
        }
        assert_eq!(t.plane(0, 1), &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn concat_then_split() {
        let a = Tensor::from_vec([1, 1, 1, 2], vec![1.0, 2.0]);
        let b = Tensor::from_vec([1, 2, 1, 2], vec![3.0, 4.0, 5.0, 6.0]);
        let c = a.concat_channels(&b);
        assert_eq!(c.shape(), [1, 3, 1, 2]);
        let (a2, b2) = c.split_channels(1);
        assert_eq!(a2, a);
        assert_eq!(b2, b);
        let mut pre = Tensor::zeros([1, 3, 1, 2]);
        a.concat_channels_into(&b, &mut pre);
        assert_eq!(pre, c);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec([1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let r = t.clone().reshape([1, 4, 1, 1]);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    fn resize_batch_keeps_surviving_rows_and_buffer() {
        let mut t = Tensor::from_vec([2, 1, 1, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let ptr = t.data().as_ptr();
        t.resize_batch(1);
        assert_eq!((t.shape(), t.data()), ([1, 1, 1, 2], &[1.0, 2.0][..]));
        t.resize_batch(2);
        assert_eq!(t.data(), &[1.0, 2.0, 0.0, 0.0]);
        assert_eq!(
            t.data().as_ptr(),
            ptr,
            "regrowing within capacity reallocated"
        );
    }

    #[test]
    fn add_and_scale() {
        let mut a = Tensor::from_vec([1, 1, 1, 2], vec![1.0, 2.0]);
        let b = Tensor::from_vec([1, 1, 1, 2], vec![10.0, 20.0]);
        a.add_assign(&b);
        assert_eq!(a.data(), &[11.0, 22.0]);
        assert_eq!(a.scaled(0.5).data(), &[5.5, 11.0]);
    }

    #[test]
    fn mean_of_constant() {
        let t = Tensor::from_vec([1, 1, 1, 4], vec![3.0; 4]);
        assert_eq!(t.mean(), 3.0);
    }

    #[test]
    #[should_panic(expected = "must match shape")]
    fn from_vec_checks_len() {
        let _ = Tensor::from_vec([1, 1, 1, 3], vec![0.0; 4]);
    }
}
