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
//! - **Parallelism with a sequential fallback**: every kernel forks onto
//!   [`par`]'s process-wide worker pool only above [`PAR_THRESHOLD`]
//!   touched elements, so tiny tensors (unit tests, coarse multigrid
//!   levels) do not pay a helper wake-up.

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

/// Number of touched elements from which the [`par`] helpers fork onto the
/// worker pool.
///
/// Chosen so a 16x16 2D feature map stays sequential while any realistic
/// 3D activation goes parallel.
pub const PAR_THRESHOLD: usize = 16 * 1024;

#[cfg(test)]
mod tests {
    use super::par::{maybe_par_map_collect, maybe_par_sum_map, maybe_par_zip_map, with_threads};

    #[test]
    fn slice_zip_for_each_writes_every_slot() {
        let n = 50_000;
        let a: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let b: Vec<f64> = (0..n).map(|i| 2.0 * i as f64).collect();
        let mut out = vec![0.0f64; n];
        with_threads(4, || maybe_par_zip_map(&a, &b, &mut out, &|x, y| x + y));
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 3.0 * i as f64);
        }
    }

    #[test]
    fn collect_preserves_order() {
        let v = with_threads(4, || maybe_par_map_collect(10_000, 4, |i| i * 2));
        assert_eq!(v.len(), 10_000);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i * 2);
        }
    }

    #[test]
    fn vec_into_par_iter_consumes_items() {
        let rows: Vec<(usize, String)> = (0..1000).map(|i| (i, format!("r{i}"))).collect();
        let sizes = with_threads(4, || {
            maybe_par_map_collect(rows.len(), 64, |k| {
                let (i, s) = &rows[k];
                i + s.len()
            })
        });
        let total: usize = sizes.into_iter().sum();
        let expect: usize = (0..1000).map(|i| i + format!("r{i}").len()).sum();
        assert_eq!(total, expect);
        let summed = with_threads(4, || {
            maybe_par_sum_map(rows.len(), 64, |k| (rows[k].0 + rows[k].1.len()) as f64)
        });
        assert_eq!(summed, expect as f64);
    }
}
