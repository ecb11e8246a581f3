//! Batch normalization over NCDHW activations.
//!
//! Channels are statistically independent, so both passes parallelize per
//! channel through [`par_jobs`]: every channel task reads/writes only its
//! own strided activation slabs and statistic slots, in a fixed internal
//! order, so results are bitwise deterministic at any thread count — the
//! same contract as the GEMM convolution kernels.

use crate::layer::{Dims5, Layer};
use crate::param::Param;
use mgd_tensor::par::{par_jobs, SyncSlice};
use mgd_tensor::{Element, Tensor};

/// Per-channel batch normalization (statistics over batch × spatial dims),
/// as used after every convolution block in the paper's U-Net (§4.1).
///
/// Only the affine weights γ/β follow the element type `E`; running
/// statistics stay `f64` in every instantiation (they are accumulated in
/// `f64` during training and only read at inference), so an `f32` copy of
/// the layer normalizes with exactly the statistics its `f64` master
/// learned.
#[derive(Clone, Debug)]
pub struct BatchNorm<E: Element = f64> {
    /// Channel count.
    pub c: usize,
    /// Scale γ.
    pub gamma: Param<E>,
    /// Shift β.
    pub beta: Param<E>,
    /// Running mean (inference).
    pub running_mean: Vec<f64>,
    /// Running variance (inference).
    pub running_var: Vec<f64>,
    /// Numerical floor inside the square root.
    pub eps: f64,
    /// Running-statistics update rate.
    pub momentum: f64,
    cache: Option<BnCache>,
}

#[derive(Clone, Debug)]
struct BnCache {
    xhat: Tensor,
    inv_std: Vec<f64>,
    dims: Dims5,
}

impl BatchNorm {
    /// Creates a batch-norm layer for `c` channels.
    pub fn new(c: usize) -> Self {
        BatchNorm {
            c,
            gamma: Param::new(Tensor::ones([c])),
            beta: Param::zeros([c]),
            running_mean: vec![0.0; c],
            running_var: vec![1.0; c],
            eps: <f64 as Element>::BN_EPS,
            momentum: 0.1,
            cache: None,
        }
    }
}

impl<E: Element> BatchNorm<E> {
    /// Shared-state inference forward: the per-channel affine map from the
    /// running statistics. `&self` — it reads weights and running stats
    /// only, so concurrent callers can share one layer. `forward(x, false)`
    /// delegates here, so the two are bitwise identical by construction
    /// (the per-channel mean and inverse std are computed in `f64` from the
    /// running statistics and converted once per channel, which is the
    /// identity for `E = f64`).
    pub fn infer(&self, x: &Tensor<E>) -> Tensor<E> {
        let dims = Dims5::of(x);
        assert_eq!(dims.c, self.c, "channel mismatch");
        let vol = dims.vol();
        let (n, c) = (dims.n, self.c);
        let xs = x.as_slice();
        let mut y: Tensor<E> = Tensor::zeros(x.shape().clone());
        let gamma = self.gamma.data.as_slice();
        let beta = self.beta.data.as_slice();
        let eps = self.eps;
        // Inference is a per-channel affine map from the running
        // statistics; x̂ is never materialized.
        let rm = &self.running_mean;
        let rv = &self.running_var;
        let yp = SyncSlice::new(y.as_mut_slice());
        par_jobs(c, 2 * n * vol, |ci| {
            let mean = E::from_f64(rm[ci]);
            let is = E::from_f64(1.0 / (rv[ci] + eps).sqrt());
            let (ga, be) = (gamma[ci], beta[ci]);
            for ni in 0..n {
                let base = (ni * c + ci) * vol;
                // SAFETY: the (·, ci) slabs are disjoint per task.
                let yy = unsafe { yp.slice_mut(base, vol) };
                for i in 0..vol {
                    yy[i] = ga * ((xs[base + i] - mean) * is) + be;
                }
            }
        });
        y
    }

    /// Fused in-place inference + LeakyReLU: `x ← leaky(bn(x))` in one
    /// memory walk. The per-element arithmetic is the exact sequence of
    /// [`Self::infer`] followed by the LeakyReLU map — `γ·((x−μ)·σ⁻¹)+β`,
    /// then the negative-slope select — so the result is bitwise identical
    /// to the two-tensor pipeline while allocating nothing. The slab
    /// serving path uses this to skip two activation-sized allocations
    /// (and their extra read/write passes) per conv block.
    pub fn infer_leaky_inplace(&self, x: &mut Tensor<E>, alpha: f64) {
        let dims = Dims5::of(x);
        assert_eq!(dims.c, self.c, "channel mismatch");
        let vol = dims.vol();
        let (n, c) = (dims.n, self.c);
        let gamma = self.gamma.data.as_slice();
        let beta = self.beta.data.as_slice();
        let eps = self.eps;
        let rm = &self.running_mean;
        let rv = &self.running_var;
        let a = E::from_f64(alpha);
        let xp = SyncSlice::new(x.as_mut_slice());
        par_jobs(c, 2 * n * vol, |ci| {
            let mean = E::from_f64(rm[ci]);
            let is = E::from_f64(1.0 / (rv[ci] + eps).sqrt());
            let (ga, be) = (gamma[ci], beta[ci]);
            for ni in 0..n {
                let base = (ni * c + ci) * vol;
                // SAFETY: the (·, ci) slabs are disjoint per task.
                let xx = unsafe { xp.slice_mut(base, vol) };
                for v in xx.iter_mut() {
                    let y = ga * ((*v - mean) * is) + be;
                    *v = if y > E::ZERO { y } else { a * y };
                }
            }
        });
    }

    /// Converts the layer to another element type: γ/β cast through `f64`,
    /// running statistics (already `f64`) copied verbatim.
    pub fn cast_as<T: Element>(&self) -> BatchNorm<T> {
        BatchNorm {
            c: self.c,
            gamma: self.gamma.cast_as(),
            beta: self.beta.cast_as(),
            running_mean: self.running_mean.clone(),
            running_var: self.running_var.clone(),
            eps: self.eps,
            momentum: self.momentum,
            cache: None,
        }
    }
}

impl Layer for BatchNorm {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let dims = Dims5::of(x);
        assert_eq!(dims.c, self.c, "channel mismatch");
        let vol = dims.vol();
        let (n, c) = (dims.n, self.c);
        let m = (n * vol) as f64;
        let xs = x.as_slice();
        let mut y: Tensor = Tensor::zeros(x.shape().clone());
        let gamma = self.gamma.data.as_slice();
        let beta = self.beta.data.as_slice();
        let eps = self.eps;

        if train {
            let momentum = self.momentum;
            let mut inv_std = vec![0.0; c];
            let mut xhat: Tensor = Tensor::zeros(x.shape().clone());
            {
                let yp = SyncSlice::new(y.as_mut_slice());
                let xhp = SyncSlice::new(xhat.as_mut_slice());
                let isp = SyncSlice::new(&mut inv_std);
                let rmp = SyncSlice::new(&mut self.running_mean);
                let rvp = SyncSlice::new(&mut self.running_var);
                par_jobs(c, 4 * n * vol, |ci| {
                    // Statistics accumulate in the same (n-major) order as
                    // the serial sweep, so values are unchanged.
                    let mut s = 0.0;
                    for ni in 0..n {
                        let base = (ni * c + ci) * vol;
                        for i in 0..vol {
                            s += xs[base + i];
                        }
                    }
                    let mean = s / m;
                    let mut v = 0.0;
                    for ni in 0..n {
                        let base = (ni * c + ci) * vol;
                        for i in 0..vol {
                            let d = xs[base + i] - mean;
                            v += d * d;
                        }
                    }
                    let var = v / m;
                    let is = 1.0 / (var + eps).sqrt();
                    // SAFETY: channel task `ci` exclusively owns slot ci of
                    // every per-channel statistic vector.
                    unsafe {
                        isp.slice_mut(ci, 1)[0] = is;
                        let rm = &mut rmp.slice_mut(ci, 1)[0];
                        *rm = (1.0 - momentum) * *rm + momentum * mean;
                        let rv = &mut rvp.slice_mut(ci, 1)[0];
                        *rv = (1.0 - momentum) * *rv + momentum * var;
                    }
                    let (ga, be) = (gamma[ci], beta[ci]);
                    for ni in 0..n {
                        let base = (ni * c + ci) * vol;
                        // SAFETY: the (·, ci) slabs are disjoint per task.
                        let (xh, yy) =
                            unsafe { (xhp.slice_mut(base, vol), yp.slice_mut(base, vol)) };
                        for i in 0..vol {
                            let h = (xs[base + i] - mean) * is;
                            xh[i] = h;
                            yy[i] = ga * h + be;
                        }
                    }
                });
            }
            self.cache = Some(BnCache {
                xhat,
                inv_std,
                dims,
            });
        } else {
            return self.infer(x);
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self.cache.as_ref().expect("backward before forward");
        let dims = cache.dims;
        assert_eq!(grad_out.dims(), &[dims.n, dims.c, dims.d, dims.h, dims.w]);
        let vol = dims.vol();
        let (n, c) = (dims.n, self.c);
        let m = (n * vol) as f64;
        let g = grad_out.as_slice();
        let xh = cache.xhat.as_slice();
        let inv_std = &cache.inv_std;
        let gamma = self.gamma.data.as_slice();
        let mut gx: Tensor = Tensor::zeros(grad_out.shape().clone());

        // Standard batch-norm backward, one task per channel:
        // dβ_c = Σ g, dγ_c = Σ g·x̂,
        // dx = γ·inv_std/m · (m·g − Σg − x̂·Σ(g·x̂))
        let gxp = SyncSlice::new(gx.as_mut_slice());
        let gbp = SyncSlice::new(self.beta.grad.as_mut_slice());
        let ggp = SyncSlice::new(self.gamma.grad.as_mut_slice());
        par_jobs(c, 3 * n * vol, |ci| {
            let mut sum_g = 0.0;
            let mut sum_gx = 0.0;
            for ni in 0..n {
                let base = (ni * c + ci) * vol;
                let mut sg = 0.0;
                let mut sgx = 0.0;
                for i in 0..vol {
                    sg += g[base + i];
                    sgx += g[base + i] * xh[base + i];
                }
                sum_g += sg;
                sum_gx += sgx;
            }
            // SAFETY: each channel task owns exactly slot ci of both
            // parameter gradients.
            unsafe {
                gbp.add(ci, sum_g);
                ggp.add(ci, sum_gx);
            }
            let k = gamma[ci] * inv_std[ci] / m;
            for ni in 0..n {
                let base = (ni * c + ci) * vol;
                // SAFETY: the (·, ci) slabs are disjoint per task.
                let gxs = unsafe { gxp.slice_mut(base, vol) };
                for i in 0..vol {
                    gxs[i] = k * (m * g[base + i] - sum_g - xh[base + i] * sum_gx);
                }
            }
        });
        gx
    }

    fn params(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn buffers(&mut self) -> Vec<&mut Vec<f64>> {
        vec![&mut self.running_mean, &mut self.running_var]
    }

    fn name(&self) -> String {
        format!("BatchNorm({})", self.c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{check_layer_gradient, FD_EPS, FD_TOL_STAT};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn normalizes_batch_statistics() {
        let mut bn = BatchNorm::new(2);
        let mut rng = StdRng::seed_from_u64(5);
        let x = Tensor::rand_uniform([4, 2, 1, 8, 8], -3.0, 7.0, &mut rng);
        let y = bn.forward(&x, true);
        // Per-channel mean ≈ 0, var ≈ 1.
        let dims = Dims5::of(&y);
        for c in 0..2 {
            let mut s = 0.0;
            let mut s2 = 0.0;
            let mut cnt = 0.0;
            for n in 0..dims.n {
                for i in 0..dims.vol() {
                    let v = y.as_slice()[(n * 2 + c) * dims.vol() + i];
                    s += v;
                    s2 += v * v;
                    cnt += 1.0;
                }
            }
            let mean = s / cnt;
            let var = s2 / cnt - mean * mean;
            assert!(mean.abs() < 1e-10, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "var {var}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm::new(1);
        let mut rng = StdRng::seed_from_u64(5);
        // Train a few batches to accumulate running stats around mean 4.
        for _ in 0..50 {
            let x = Tensor::rand_uniform([8, 1, 1, 4, 4], 3.0, 5.0, &mut rng);
            let _ = bn.forward(&x, true);
        }
        // Eval on a constant input equal to the accumulated mean: output ≈ 0.
        let x = Tensor::full([1, 1, 1, 4, 4], bn.running_mean[0]);
        let y = bn.forward(&x, false);
        assert!(y.norm_inf() < 1e-6, "{}", y.norm_inf());
    }

    #[test]
    fn gamma_beta_affect_output() {
        let mut bn = BatchNorm::new(1);
        bn.gamma.data = Tensor::from_vec([1], vec![2.0]);
        bn.beta.data = Tensor::from_vec([1], vec![1.0]);
        let x = Tensor::from_vec([2, 1, 1, 1, 1], vec![0.0, 2.0]);
        let y = bn.forward(&x, true);
        // x̂ = [-1, 1] (up to eps), y = 2x̂ + 1 = [-1, 3].
        assert!((y[0] + 1.0).abs() < 1e-2);
        assert!((y[1] - 3.0).abs() < 1e-2);
    }

    #[test]
    fn forward_backward_are_bitwise_deterministic() {
        // The per-channel jobs write disjoint slabs in a fixed order, so
        // repeated runs must agree bit for bit at any thread count.
        let mut rng = StdRng::seed_from_u64(17);
        let x = Tensor::rand_uniform([3, 4, 1, 16, 16], -2.0, 2.0, &mut rng);
        let g = Tensor::rand_uniform([3, 4, 1, 16, 16], -1.0, 1.0, &mut rng);
        let run = |train: bool| {
            let mut bn = BatchNorm::new(4);
            let y = bn.forward(&x, train);
            let gx = train.then(|| bn.backward(&g));
            (y, gx, bn.gamma.grad.clone(), bn.running_mean.clone())
        };
        for train in [false, true] {
            let (y1, gx1, gg1, rm1) = run(train);
            let (y2, gx2, gg2, rm2) = run(train);
            assert!(y1
                .as_slice()
                .iter()
                .zip(y2.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            assert_eq!(gg1, gg2);
            assert_eq!(rm1, rm2);
            if let (Some(a), Some(b)) = (gx1, gx2) {
                assert!(a
                    .as_slice()
                    .iter()
                    .zip(b.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits()));
            }
        }
    }

    #[test]
    fn gradcheck() {
        let bn = BatchNorm::new(3);
        check_layer_gradient(Box::new(bn), &[4, 3, 1, 3, 3], 0.5, FD_EPS, FD_TOL_STAT);
    }

    #[test]
    fn gradcheck_3d() {
        let bn = BatchNorm::new(2);
        check_layer_gradient(Box::new(bn), &[2, 2, 2, 3, 3], -0.2, FD_EPS, FD_TOL_STAT);
    }
}
