//! The layer abstraction shared by all network components.

use crate::param::Param;
use mgd_tensor::{Element, Tensor};

/// A differentiable network component with cached-activation backprop.
///
/// `forward` caches whatever the matching `backward` needs; calling
/// `backward` without a preceding `forward` panics. Gradients *accumulate*
/// into [`Param::grad`]; callers zero them between optimizer steps.
pub trait Layer: Send {
    /// Computes the layer output. `train` toggles training-time behaviour
    /// (batch statistics, activation caching).
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;

    /// Backpropagates `grad_out` (gradient w.r.t. the last forward output),
    /// accumulating parameter gradients and returning the gradient w.r.t.
    /// the layer input.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// [`Self::backward`] for a caller that drops the input gradient: it
    /// accumulates the same parameter gradients and buffers, bit for bit,
    /// and returns nothing. The default runs `backward` and discards its
    /// result; a layer whose input gradient costs work of its own (a
    /// convolution's `dX` product) overrides it to skip that work. A
    /// trainer calls it on the whole network, whose input gradient nobody
    /// reads.
    fn backward_params(&mut self, grad_out: &Tensor) {
        let _ = self.backward(grad_out);
    }

    /// Mutable access to learnable parameters (empty for stateless layers).
    fn params(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Mutable access to non-learnable persistent state (e.g. batch-norm
    /// running statistics) that checkpoints must carry.
    fn buffers(&mut self) -> Vec<&mut Vec<f64>> {
        Vec::new()
    }

    /// Human-readable identifier for debugging and checkpoints.
    fn name(&self) -> String;

    /// Total learnable scalar count.
    fn num_params(&mut self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }
}

/// Per-axis spatial triple (depth, height, width) used for kernels,
/// strides, paddings and pool windows.
pub type Triple = (usize, usize, usize);

/// NCDHW dimensions of an activation tensor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Dims5 {
    /// Batch size.
    pub n: usize,
    /// Channels.
    pub c: usize,
    /// Depth.
    pub d: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
}

impl Dims5 {
    /// Extracts NCDHW dims, panicking on non-rank-5 tensors.
    pub fn of<E: Element>(t: &Tensor<E>) -> Self {
        match *t.dims() {
            [n, c, d, h, w] => Dims5 { n, c, d, h, w },
            _ => panic!("expected NCDHW tensor, got shape {}", t.shape()),
        }
    }

    /// Spatial volume `d*h*w`.
    pub fn vol(&self) -> usize {
        self.d * self.h * self.w
    }

    /// Linear offset of `(n, c, d, h, w)`.
    #[inline]
    pub fn at(&self, n: usize, c: usize, d: usize, h: usize, w: usize) -> usize {
        (((n * self.c + c) * self.d + d) * self.h + h) * self.w + w
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims5_roundtrip() {
        let t: Tensor = Tensor::zeros([2, 3, 4, 5, 6]);
        let d = Dims5::of(&t);
        assert_eq!((d.n, d.c, d.d, d.h, d.w), (2, 3, 4, 5, 6));
        assert_eq!(d.vol(), 120);
        assert_eq!(d.at(1, 2, 3, 4, 5), t.shape().offset(&[1, 2, 3, 4, 5]));
    }

    #[test]
    #[should_panic(expected = "NCDHW")]
    fn dims5_wrong_rank_panics() {
        let _ = Dims5::of(&Tensor::<f64>::zeros([2, 3]));
    }
}
