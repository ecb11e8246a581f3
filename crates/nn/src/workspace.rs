//! Per-call inference scratch: the [`Workspace`] handle of the `&self`
//! serving path.
//!
//! The serving entry points ([`crate::UNet::infer`],
//! [`crate::model::InferModel::infer`], [`crate::spatial::infer_slab`])
//! take a caller-owned `Workspace` so that transient buffers live with the
//! *call*, not with weights shared behind an `Arc`. All three run the one
//! inference walk of [`crate::spatial`] (`UNet::infer` on one rank), and
//! none of them hands the workspace to a layer. No layer uses its
//! buffers: every convolution gathers its patches straight into its GEMM's
//! panels, so they stay empty. The type is the per-call handle those
//! signatures (and the workspace pools of the serving engine) are written
//! against.
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

/// Per-call scratch handle for the lock-free `&self` inference path.
///
/// One `Workspace` belongs to one call chain at a time (it is `&mut`
/// through the whole forward); creating one is free — buffers start empty
/// and, since no layer uses them, stay empty. The element type matches the
/// model it serves: `Workspace` (= `Workspace<f64>`) for the default
/// double-precision path, `Workspace<f32>` for the single-precision
/// serving path.
#[derive(Debug, Default)]
pub struct Workspace<E: Element = f64> {
    /// Scratch buffer (unused by every layer).
    pub(crate) col: Vec<E>,
    /// Scratch buffer (unused by every layer).
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
