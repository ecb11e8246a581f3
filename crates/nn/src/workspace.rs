//! Per-call inference scratch: the [`Workspace`] behind the `&self`
//! serving path.
//!
//! The training-side [`crate::layer::Layer::forward`] owns its scratch
//! buffers (patch matrices, GEMM chunk outputs) inside each layer, which is
//! why it takes `&mut self`. That is the wrong shape for serving: a model
//! published behind an `Arc` must answer `predict` from any number of
//! threads at once, so the transient buffers have to live with the *call*,
//! not with the shared weights. `Workspace` is that per-call home — every
//! concurrent reader owns one (cheaply default-constructed, grown on
//! demand, reusable across requests on the same thread) and threads it
//! through [`crate::ConvTranspose3d::infer`] / [`crate::UNet::infer`].
//! ([`crate::Conv3d::infer`] needs none: it gathers patches straight into
//! its GEMM's panels.)
//!
//! Buffers are shared across *layers* within a call: each layer resizes
//! them to its chunk geometry before use, so a whole U-Net forward touches
//! one pair of allocations in steady state.
//!
//! ```
//! use mgd_nn::{UNet, UNetConfig, Workspace};
//! use mgd_tensor::Tensor;
//!
//! let net = UNet::new(UNetConfig {
//!     depth: 1,
//!     base_filters: 2,
//!     two_d: true,
//!     ..Default::default()
//! });
//! let mut ws = Workspace::new();
//! // `net` is shared (`&net`) — only the workspace is mutable.
//! let y = net.infer(&Tensor::zeros([1, 1, 1, 4, 4]), &mut ws);
//! assert_eq!(y.dims(), &[1, 1, 1, 4, 4]);
//! ```

use mgd_tensor::Element;

/// Reusable scratch buffers for the lock-free `&self` inference path.
///
/// One `Workspace` belongs to one call chain at a time (it is `&mut`
/// through the whole forward); creating one is free — buffers start empty
/// and grow to the largest chunk the network needs, then stay warm for the
/// next request served by the same thread. The element type matches the
/// model it serves: `Workspace` (= `Workspace<f64>`) for the default
/// double-precision path, `Workspace<f32>` for the single-precision
/// serving fast path (half the scratch bytes per chunk).
#[derive(Debug, Default)]
pub struct Workspace<E: Element = f64> {
    /// Patch-matrix chunk (col2im source).
    pub(crate) col: Vec<E>,
    /// Contiguous copy of a strided row-chunk operand.
    pub(crate) tmp: Vec<E>,
}

impl<E: Element> Workspace<E> {
    /// Creates an empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Total scratch elements currently held (capacity diagnostics).
    pub fn len(&self) -> usize {
        self.col.len() + self.tmp.len()
    }

    /// Whether no scratch has been allocated yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all held buffers (e.g. after serving an unusually large
    /// request, to return the memory).
    pub fn reset(&mut self) {
        self.col = Vec::new();
        self.tmp = Vec::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_empty_and_resets() {
        let mut ws = Workspace::new();
        assert!(ws.is_empty());
        ws.col.resize(16, 0.0);
        assert_eq!(ws.len(), 16);
        ws.reset();
        assert!(ws.is_empty());
    }
}
