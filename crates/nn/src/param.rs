//! Learnable parameters and initialization.

use mgd_tensor::{Element, Shape, Tensor};
use rand::Rng;

/// A learnable tensor paired with its gradient accumulator.
///
/// Training always instantiates this at the default `f64`; the `f32`
/// instantiation only carries converted copies of master weights for the
/// single-precision serving path (its `grad` stays empty of purpose there).
#[derive(Clone, Debug)]
pub struct Param<E: Element = f64> {
    /// Current value.
    pub data: Tensor<E>,
    /// Accumulated gradient (same shape as `data`).
    pub grad: Tensor<E>,
}

impl<E: Element> Param<E> {
    /// Zero-initialized parameter.
    pub fn zeros<S: Into<Shape> + Clone>(shape: S) -> Self {
        Param {
            data: Tensor::zeros(shape.clone()),
            grad: Tensor::zeros(shape),
        }
    }

    /// Parameter with the given value and a zero gradient.
    pub fn new(data: Tensor<E>) -> Self {
        let grad = Tensor::zeros(data.shape().clone());
        Param { data, grad }
    }

    /// Number of scalar weights.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True for empty parameters (never expected in practice).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Clears the gradient accumulator.
    pub fn zero_grad(&mut self) {
        self.grad.fill(E::ZERO);
    }

    /// Converts the parameter value to another element type (through `f64`);
    /// the gradient accumulator of the copy starts at zero.
    pub fn cast_as<T: Element>(&self) -> Param<T> {
        Param::new(self.data.cast())
    }
}

impl Param {
    /// Kaiming-uniform initialization for a convolution weight with
    /// `fan_in` inputs per output (gain for leaky-ReLU networks).
    /// Initialization draws stay in `f64` master precision.
    pub fn kaiming<S: Into<Shape>, R: Rng>(shape: S, fan_in: usize, rng: &mut R) -> Self {
        let bound = (6.0 / fan_in.max(1) as f64).sqrt();
        let data = Tensor::rand_uniform(shape, -bound, bound, rng);
        Param::new(data)
    }
}

/// Total scalar count across parameters.
pub fn total_len(params: &[&mut Param]) -> usize {
    params.iter().map(|p| p.len()).sum()
}

/// Copies all gradients into one flat buffer (all-reduce staging).
pub fn flatten_grads(params: &[&mut Param], out: &mut Vec<f64>) {
    out.clear();
    for p in params {
        out.extend_from_slice(p.grad.as_slice());
    }
}

/// Writes a flat buffer back into the per-parameter gradients.
pub fn unflatten_grads(params: &mut [&mut Param], flat: &[f64]) {
    let mut off = 0;
    for p in params.iter_mut() {
        let n = p.grad.len();
        p.grad.as_mut_slice().copy_from_slice(&flat[off..off + n]);
        off += n;
    }
    assert_eq!(off, flat.len(), "flat gradient length mismatch");
}

/// Copies all parameter values into one flat buffer (broadcast staging).
pub fn flatten_params(params: &[&mut Param], out: &mut Vec<f64>) {
    out.clear();
    for p in params {
        out.extend_from_slice(p.data.as_slice());
    }
}

/// Writes a flat buffer back into the parameter values.
pub fn unflatten_params(params: &mut [&mut Param], flat: &[f64]) {
    let mut off = 0;
    for p in params.iter_mut() {
        let n = p.data.len();
        p.data.as_mut_slice().copy_from_slice(&flat[off..off + n]);
        off += n;
    }
    assert_eq!(off, flat.len(), "flat parameter length mismatch");
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn kaiming_bound() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = Param::kaiming([8, 4, 3, 3, 3], 4 * 27, &mut rng);
        let bound = (6.0f64 / (4.0 * 27.0)).sqrt();
        assert!(p.data.as_slice().iter().all(|&w| w.abs() <= bound));
        assert!(p.grad.as_slice().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn flatten_roundtrip() {
        let mut a = Param::new(Tensor::from_vec([2], vec![1.0, 2.0]));
        let mut b = Param::new(Tensor::from_vec([3], vec![3.0, 4.0, 5.0]));
        a.grad = Tensor::from_vec([2], vec![0.1, 0.2]);
        b.grad = Tensor::from_vec([3], vec![0.3, 0.4, 0.5]);
        let mut params = vec![&mut a, &mut b];
        let mut flat = Vec::new();
        flatten_grads(&params, &mut flat);
        assert_eq!(flat, vec![0.1, 0.2, 0.3, 0.4, 0.5]);
        let doubled: Vec<f64> = flat.iter().map(|x| x * 2.0).collect();
        unflatten_grads(&mut params, &doubled);
        assert_eq!(a.grad.as_slice(), &[0.2, 0.4]);
        assert_eq!(b.grad.as_slice(), &[0.6, 0.8, 1.0]);
    }

    #[test]
    fn zero_grad() {
        let mut p: Param = Param::new(Tensor::ones([4]));
        p.grad = Tensor::ones([4]);
        p.zero_grad();
        assert!(p.grad.as_slice().iter().all(|&g| g == 0.0));
    }
}
