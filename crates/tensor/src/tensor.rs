//! The owned dense tensor type, generic over its element.

use crate::element::Element;
use crate::par::maybe_par_map_inplace;
use crate::Shape;
use rand::Rng;

/// A dense, contiguous, row-major tensor of [`Element`]s (default `f64`).
///
/// Network activations use the NCDHW convention `(batch, channel, depth,
/// height, width)`; scalar fields on structured grids use `(depth, height,
/// width)` (3D) or `(height, width)` (2D) with `x` on the fastest axis.
///
/// The element type `E` is `f64` for training, master weights and
/// certification, `f32` for the SIMD serving fast path; [`Tensor::cast`]
/// converts between them. Reductions ([`Tensor::sum`] and friends in the
/// ops module) accumulate in `f64` for every element type.
#[derive(Clone, Debug, PartialEq)]
pub struct Tensor<E: Element = f64> {
    shape: Shape,
    data: Vec<E>,
}

impl<E: Element> Tensor<E> {
    /// Zero-filled tensor of the given shape.
    pub fn zeros<S: Into<Shape>>(shape: S) -> Self {
        let shape = shape.into();
        let n = shape.len();
        Tensor {
            shape,
            data: vec![E::ZERO; n],
        }
    }

    /// Tensor filled with `v`.
    pub fn full<S: Into<Shape>>(shape: S, v: E) -> Self {
        let shape = shape.into();
        let n = shape.len();
        Tensor {
            shape,
            data: vec![v; n],
        }
    }

    /// Tensor of ones.
    pub fn ones<S: Into<Shape>>(shape: S) -> Self {
        Self::full(shape, E::ONE)
    }

    /// Builds a tensor from raw data; `data.len()` must equal the shape volume.
    pub fn from_vec<S: Into<Shape>>(shape: S, data: Vec<E>) -> Self {
        let shape = shape.into();
        assert_eq!(
            shape.len(),
            data.len(),
            "shape {shape} does not match data length {}",
            data.len()
        );
        Tensor { shape, data }
    }

    /// Shape accessor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.shape.0
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw data slice.
    pub fn as_slice(&self) -> &[E] {
        &self.data
    }

    /// Raw mutable data slice.
    pub fn as_mut_slice(&mut self) -> &mut [E] {
        &mut self.data
    }

    /// Consumes the tensor, returning its storage.
    pub fn into_vec(self) -> Vec<E> {
        self.data
    }

    /// Element at a multi-index.
    pub fn at(&self, idx: &[usize]) -> E {
        self.data[self.shape.offset(idx)]
    }

    /// Mutable element at a multi-index.
    pub fn at_mut(&mut self, idx: &[usize]) -> &mut E {
        let off = self.shape.offset(idx);
        &mut self.data[off]
    }

    /// Reinterprets the storage under a new shape of equal volume.
    pub fn reshape<S: Into<Shape>>(mut self, shape: S) -> Self {
        let shape = shape.into();
        assert_eq!(
            shape.len(),
            self.data.len(),
            "reshape to {shape} changes volume"
        );
        self.shape = shape;
        self
    }

    /// Sets every element to `v`.
    pub fn fill(&mut self, v: E) {
        self.data.iter_mut().for_each(|x| *x = v);
    }

    /// Applies `f` elementwise in place (parallel above the size threshold).
    pub fn map_inplace<F: Fn(E) -> E + Sync>(&mut self, f: F) {
        maybe_par_map_inplace(&mut self.data, &f);
    }

    /// Returns a new tensor with `f` applied elementwise.
    pub fn map<F: Fn(E) -> E + Sync>(&self, f: F) -> Self {
        let mut out = self.clone();
        out.map_inplace(f);
        out
    }

    /// True if any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }

    /// Converts every element through `f64` into another element type.
    ///
    /// `f64 → f32` rounds to nearest; `f32 → f64` is exact. Same-type casts
    /// are a plain copy.
    pub fn cast<T: Element>(&self) -> Tensor<T> {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| T::from_f64(x.to_f64())).collect(),
        }
    }
}

impl Tensor<f64> {
    /// Tensor with entries drawn uniformly from `[lo, hi)`.
    pub fn rand_uniform<S: Into<Shape>, R: Rng>(shape: S, lo: f64, hi: f64, rng: &mut R) -> Self {
        let shape = shape.into();
        let n = shape.len();
        let data = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor { shape, data }
    }

    /// Tensor with standard-normal entries (Box–Muller; avoids a rand_distr dep).
    pub fn randn<S: Into<Shape>, R: Rng>(shape: S, rng: &mut R) -> Self {
        let shape = shape.into();
        let n = shape.len();
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let (s, c) = (2.0 * std::f64::consts::PI * u2).sin_cos();
            data.push(r * c);
            if data.len() < n {
                data.push(r * s);
            }
        }
        Tensor { shape, data }
    }
}

impl<E: Element> std::ops::Index<usize> for Tensor<E> {
    type Output = E;
    fn index(&self, i: usize) -> &E {
        &self.data[i]
    }
}

impl<E: Element> std::ops::IndexMut<usize> for Tensor<E> {
    fn index_mut(&mut self, i: usize) -> &mut E {
        &mut self.data[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_and_indexing() {
        let mut t = Tensor::zeros([2, 3]);
        *t.at_mut(&[1, 2]) = 7.0;
        assert_eq!(t.at(&[1, 2]), 7.0);
        assert_eq!(t.len(), 6);
        assert_eq!(t.as_slice().iter().sum::<f64>(), 7.0);
    }

    #[test]
    fn from_vec_roundtrip() {
        let t = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.at(&[0, 1]), 2.0);
        assert_eq!(t.into_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_wrong_len_panics() {
        let _ = Tensor::from_vec([2, 2], vec![1.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec([2, 3], (0..6).map(|i| i as f64).collect());
        let r = t.reshape([3, 2]);
        assert_eq!(r.at(&[2, 1]), 5.0);
    }

    #[test]
    fn randn_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::randn([10_000], &mut rng);
        let mean = t.as_slice().iter().sum::<f64>() / t.len() as f64;
        let var = t
            .as_slice()
            .iter()
            .map(|x| (x - mean) * (x - mean))
            .sum::<f64>()
            / t.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn map_matches_sequential() {
        let t = Tensor::from_vec([4], vec![1.0, -2.0, 3.0, -4.0]);
        let m = t.map(|x| x.abs());
        assert_eq!(m.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros([3]);
        assert!(!t.has_non_finite());
        t[1] = f64::NAN;
        assert!(t.has_non_finite());
    }

    #[test]
    fn f32_tensor_basic_ops() {
        let mut t: Tensor<f32> = Tensor::zeros([2, 2]);
        *t.at_mut(&[0, 1]) = 2.5;
        assert_eq!(t.at(&[0, 1]), 2.5f32);
        t.fill(1.0);
        assert_eq!(t.as_slice(), &[1.0f32; 4]);
    }

    #[test]
    fn cast_roundtrips_f32_exactly() {
        let t = Tensor::from_vec([3], vec![1.5, -0.25, 1024.0]);
        let small: Tensor<f32> = t.cast();
        let back: Tensor<f64> = small.cast();
        assert_eq!(t, back);
        assert_eq!(small.shape(), t.shape());
    }
}
