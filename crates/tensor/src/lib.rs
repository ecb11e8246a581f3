//! Dense, row-major N-dimensional tensors, generic over the element type.
//!
//! This crate is the storage/compute substrate shared by the neural-network
//! framework (`mgd-nn`), the finite-element kernels (`mgd-fem`) and the
//! field generators (`mgd-field`) of the MGDiffNet reproduction.
//!
//! Design points:
//! - **Owned, contiguous, row-major** storage only. Layers and FEM kernels
//!   index raw slices for speed; `Tensor` mainly carries a shape and a
//!   `Vec<E>`.
//! - **Generic element type** behind the [`Element`] trait: `f64` (the
//!   default — training, master weights, certification) and `f32` (the
//!   SIMD serving fast path with twice the lanes and half the working
//!   set). The `f64` instantiation is bit-for-bit the pre-generic code.
//! - **NCDHW layout convention** for network activations: `(batch, channel,
//!   depth, height, width)`. 2D problems use `depth == 1`.
//! - **Parallelism with a sequential fallback**: elementwise kernels switch
//!   to rayon above [`PAR_THRESHOLD`] elements so tiny tensors (unit tests,
//!   coarse multigrid levels) do not pay fork-join overhead.

pub mod element;
pub mod matmul;
mod microkernel;
mod ops;
pub mod par;
mod shape;
mod tensor;

pub use element::{Element, GemmElement, Precision, F64_DIV_GUARD};
pub use shape::Shape;
pub use tensor::Tensor;

/// Number of elements above which elementwise kernels use rayon.
///
/// Chosen so a 16x16 2D feature map stays sequential while any realistic
/// 3D activation goes parallel.
pub const PAR_THRESHOLD: usize = 16 * 1024;
