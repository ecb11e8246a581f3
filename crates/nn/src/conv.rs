//! 3D convolution with hand-written backprop: the forward and both
//! gradients are gathered GEMMs on the one lowering of [`crate::lowering`].

use crate::layer::{Dims5, Layer, Triple};
use crate::lowering::{bias_grad, conv_batch, conv_forward, pack_flipped, weight_grad, ConvGeom};
use crate::param::Param;
use crate::spatial::SplitAxis;
use mgd_tensor::matmul::{pack_a, PackedA};
use mgd_tensor::{Element, GemmElement, Tensor};
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of weight-panel packs built by [`Conv3d::prepack`].
static PREPACK_BUILDS: AtomicU64 = AtomicU64::new(0);
/// Process-wide count of inference calls that reused prepacked panels
/// instead of re-packing the weight matrix.
static PREPACK_REUSES: AtomicU64 = AtomicU64::new(0);

/// Returns `(builds, reuses)` for prepacked conv weight panels — tests and
/// benches use the deltas to assert that a model snapshot packs each layer
/// once and then serves every slab/request from the cached panels.
pub fn prepack_stats() -> (u64, u64) {
    (
        PREPACK_BUILDS.load(Ordering::Relaxed),
        PREPACK_REUSES.load(Ordering::Relaxed),
    )
}

/// A stride-1 "same" 3D convolution `y = W ⊛ x + b` over NCDHW tensors:
/// odd kernels, zero padding `(k − 1)/2` per axis, so the output grid is
/// the input grid.
///
/// Weight layout `[out_c, in_c, kd, kh, kw]`. 2D networks use kernels with
/// unit depth (`(1, k, k)`), so a single implementation serves both the 2D
/// and 3D experiments of the paper; the U-Net's 1×1×1 head is the `k = 1`
/// case.
///
/// Every pass is one blocked matrix product per sample whose patch operand
/// is gathered straight into the GEMM's panels (see [`crate::lowering`]):
/// `Y = W·P(X) + b`, `dX = flip(W)·P̃(dY)` and `dW += dY·P(X)ᵀ`.
#[derive(Clone, Debug)]
pub struct Conv3d<E: Element = f64> {
    /// Input channels.
    pub in_c: usize,
    /// Output channels.
    pub out_c: usize,
    /// Kernel extents (kd, kh, kw), all odd.
    pub kernel: Triple,
    /// Filter weights.
    pub weight: Param<E>,
    /// Per-output-channel bias.
    pub bias: Param<E>,
    /// Cached training activation — training is `f64`-only, so this stays
    /// concrete (always empty in non-`f64` instantiations).
    cache_x: Option<Tensor>,
    /// Weight panels packed once by [`Conv3d::prepack`] and reused by every
    /// inference call until the weights can change again (any training
    /// forward or `params()` borrow invalidates them).
    prepacked: Option<PackedA<E>>,
}

impl Conv3d {
    /// A "same" convolution with Kaiming-initialized weights and zero bias
    /// (odd kernels only).
    pub fn same<R: Rng>(in_c: usize, out_c: usize, kernel: Triple, rng: &mut R) -> Self {
        let (kd, kh, kw) = kernel;
        assert!(
            kd % 2 == 1 && kh % 2 == 1 && kw % 2 == 1,
            "same-padding needs odd kernels"
        );
        Conv3d {
            in_c,
            out_c,
            kernel,
            weight: Param::kaiming([out_c, in_c, kd, kh, kw], in_c * kd * kh * kw, rng),
            bias: Param::zeros([out_c]),
            cache_x: None,
            prepacked: None,
        }
    }
}

impl<E: Element> Conv3d<E> {
    /// Zero padding per axis: the halo `(k − 1)/2` a window reaches.
    pub(crate) fn padding(&self) -> Triple {
        let (kd, kh, kw) = self.kernel;
        (kd / 2, kh / 2, kw / 2)
    }

    /// Output dims for the given input dims: the input grid, `out_c`
    /// channels.
    pub fn out_dims(&self, din: &Dims5) -> Dims5 {
        Dims5 {
            c: self.out_c,
            ..*din
        }
    }

    /// Lowering geometry over the grid of one sample.
    fn geom(&self, din: &Dims5) -> ConvGeom {
        let dims = (din.d, din.h, din.w);
        ConvGeom::new(
            self.in_c,
            dims,
            self.kernel,
            (1, 1, 1),
            self.padding(),
            dims,
        )
    }

    /// Converts the layer weights to another element type (through `f64`);
    /// the copy starts with no cached activation.
    pub fn cast_as<T: Element>(&self) -> Conv3d<T> {
        Conv3d {
            in_c: self.in_c,
            out_c: self.out_c,
            kernel: self.kernel,
            weight: self.weight.cast_as(),
            bias: self.bias.cast_as(),
            cache_x: None,
            prepacked: None,
        }
    }
}

impl<E: GemmElement> Conv3d<E> {
    /// Packs the weight matrix into GEMM micro-panels once, so every
    /// subsequent [`Conv3d::infer`] / [`Conv3d::infer_planes_into`] call
    /// skips the pack — the "prepack once per snapshot, reuse across
    /// slabs, layers, and requests" half of the serving fast path. The
    /// panels are a pure function of the weight bytes, so cached and
    /// fresh packs produce bitwise-identical results.
    pub fn prepack(&mut self) {
        let (kd, kh, kw) = self.kernel;
        let kdim = self.in_c * kd * kh * kw;
        self.prepacked = Some(pack_a(self.weight.data.as_slice(), self.out_c, kdim, false));
        PREPACK_BUILDS.fetch_add(1, Ordering::Relaxed);
    }

    /// Borrows the prepacked panels if present (counting the reuse), else
    /// packs into `local` for this call only.
    fn packed<'a>(&'a self, kdim: usize, local: &'a mut Option<PackedA<E>>) -> &'a PackedA<E> {
        match &self.prepacked {
            Some(pa) => {
                PREPACK_REUSES.fetch_add(1, Ordering::Relaxed);
                pa
            }
            None => local.insert(pack_a(self.weight.data.as_slice(), self.out_c, kdim, false)),
        }
    }

    /// Shared-state inference forward: bitwise identical to
    /// `forward(x, false)` at the default `f64` element, but `&self` — so
    /// one set of weights behind an `Arc` can serve any number of
    /// concurrent callers. It needs no scratch: the lowering gathers
    /// patches straight into the GEMM's panels.
    pub fn infer(&self, x: &Tensor<E>) -> Tensor<E> {
        let mut local = None;
        let kdim = self.in_c * self.kernel.0 * self.kernel.1 * self.kernel.2;
        self.forward_packed(self.packed(kdim, &mut local), x)
    }

    /// The forward with packed weight panels `pa`: one [`conv_forward`]
    /// per sample, the bias added in the GEMM write-back.
    fn forward_packed(&self, pa: &PackedA<E>, x: &Tensor<E>) -> Tensor<E> {
        let din = Dims5::of(x);
        assert_eq!(din.c, self.in_c, "channel mismatch");
        let dout = self.out_dims(&din);
        let mut y = Tensor::zeros([dout.n, dout.c, dout.d, dout.h, dout.w]);
        let bias = Some(self.bias.data.as_slice());
        conv_batch(pa, &self.geom(&din), x.as_slice(), bias, y.as_mut_slice());
        y
    }

    /// Inference forward restricted to output planes `keep` along `axis`,
    /// written into `dst` starting at plane `dst_plane0` — the kernel of
    /// the slab-decomposed spatial forward ([`crate::spatial`]).
    ///
    /// `dst` is `[n, out_c, P, oh, ow]` for [`SplitAxis::Depth`] (any
    /// `P ≥ dst_plane0 + keep.len()`) and `[n, out_c, 1, P, ow]` for
    /// [`SplitAxis::Height`] (which requires a unit output depth axis).
    /// Writing disjoint `keep` bands of the same `dst` in any order
    /// yields bitwise-identical planes to one full [`Conv3d::infer`] on
    /// the union input: restricting the anchor-row range only drops patch
    /// columns, and every output element is still produced by one GEMM
    /// over the full shared dimension in a fixed order — this is what
    /// makes the interior/boundary split of the overlapped halo exchange
    /// exact. An empty `keep` is a no-op. No activation is cached (this
    /// is a serving-only path).
    pub fn infer_planes_into(
        &self,
        x: &Tensor<E>,
        keep: std::ops::Range<usize>,
        axis: SplitAxis,
        dst: &mut Tensor<E>,
        dst_plane0: usize,
    ) {
        let din = Dims5::of(x);
        assert_eq!(din.c, self.in_c, "channel mismatch");
        let dout = self.out_dims(&din);
        let ddst = Dims5::of(dst);
        assert_eq!(ddst.n, din.n, "dst batch mismatch");
        assert_eq!(ddst.c, self.out_c, "dst channel mismatch");
        assert_eq!(ddst.w, dout.w, "dst width mismatch");
        let (ar0, ar1, plane_rows) = match axis {
            SplitAxis::Depth => {
                assert!(keep.end <= dout.d, "plane range exceeds output depth");
                assert_eq!(ddst.h, dout.h, "dst height mismatch");
                (keep.start * dout.h, keep.end * dout.h, dout.h)
            }
            SplitAxis::Height => {
                assert_eq!(dout.d, 1, "height split needs a unit depth axis");
                assert!(keep.end <= dout.h, "plane range exceeds output height");
                assert_eq!(ddst.d, 1, "dst depth mismatch");
                (keep.start, keep.end, 1)
            }
        };
        if ar0 >= ar1 {
            return;
        }
        let ow = dout.w;
        let dst_row0 = dst_plane0 * plane_rows;
        let dst_rows = ddst.d * ddst.h;
        assert!(
            dst_row0 + (ar1 - ar0) <= dst_rows,
            "dst plane range out of bounds"
        );
        let pvol = ddst.vol();
        let ys = dst.as_mut_slice();
        let geom = self.geom(&din);
        let kdim = geom.rows();
        let mut local = None;
        let pa = self.packed(kdim, &mut local);
        let xs = x.as_slice();
        let bs = self.bias.data.as_slice();
        for ni in 0..din.n {
            let xslab = &xs[ni * self.in_c * geom.vol()..][..self.in_c * geom.vol()];
            // The kept rows land at `dst_row0` of each `pvol`-strided
            // output-channel plane block of `dst`.
            let yband = &mut ys[ni * self.out_c * pvol + dst_row0 * ow..]
                [..self.out_c * pvol - dst_row0 * ow];
            conv_forward(pa, &geom, xslab, Some(bs), ar0, ar1, yband, pvol);
        }
    }
}

#[cfg(test)]
thread_local! {
    /// `Conv3d` input-gradient products run on this thread: lets a test see
    /// that `backward_params` skipped one.
    pub(crate) static DX_PRODUCTS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl Conv3d {
    /// The parameter half of the backward: accumulates the bias and weight
    /// gradients of the cached forward and returns its input dims and
    /// gather, from which the `dX` product starts.
    fn param_grads(&mut self, grad_out: &Tensor) -> (Dims5, ConvGeom) {
        // `take` instead of clone: backward consumes the cached activation,
        // so the hot path never copies a full input tensor.
        let x = self.cache_x.take().expect("backward before forward");
        let din = Dims5::of(&x);
        let dout = self.out_dims(&din);
        assert_eq!(grad_out.dims(), &[dout.n, dout.c, dout.d, dout.h, dout.w]);
        let g = grad_out.as_slice();
        bias_grad(g, dout.n, dout.c, dout.vol(), self.bias.grad.as_mut_slice());
        let geom = self.geom(&din);
        let gw = self.weight.grad.as_mut_slice();
        weight_grad(&geom, x.as_slice(), g, din.n, gw);
        (din, geom)
    }
}

impl Layer for Conv3d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if train {
            // Training implies an upcoming weight update; stale panels
            // would silently serve old weights.
            self.prepacked = None;
        }
        let kdim = self.in_c * self.kernel.0 * self.kernel.1 * self.kernel.2;
        let pa = pack_a(self.weight.data.as_slice(), self.out_c, kdim, false);
        let y = self.forward_packed(&pa, x);
        if train {
            self.cache_x = Some(x.clone());
        }
        y
    }

    /// [`Self::backward_params`], then `dX` as the convolution of `dY`
    /// with the flipped, channel-transposed kernel — one
    /// `lowering::conv_forward` per sample over the adjoint gather, written
    /// straight into `dX`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (din, geom) = self.param_grads(grad_out);
        #[cfg(test)]
        DX_PRODUCTS.with(|n| n.set(n.get() + 1));
        let adj = geom.transposed(self.out_c);
        let w = self.weight.data.as_slice();
        let pa = pack_flipped(w, self.out_c, self.in_c, geom.kvol());
        let mut gx = Tensor::zeros([din.n, din.c, din.d, din.h, din.w]);
        conv_batch(&pa, &adj, grad_out.as_slice(), None, gx.as_mut_slice());
        gx
    }

    /// `db += Σ dY` and `dW += dY·P(X)ᵀ` through `lowering::weight_grad`
    /// (`P(X)ᵀ` read from `X`, or from the zero-padded rows a block of
    /// positions reaches); no `dX` product.
    fn backward_params(&mut self, grad_out: &Tensor) {
        self.param_grads(grad_out);
    }

    fn params(&mut self) -> Vec<&mut Param> {
        // Handing out &mut weights invalidates any prepacked panels.
        self.prepacked = None;
        vec![&mut self.weight, &mut self.bias]
    }

    fn name(&self) -> String {
        format!("Conv3d({}→{}, k{:?})", self.in_c, self.out_c, self.kernel)
    }
}

/// The direct sliding-window kernels: the test oracle every lowering is
/// checked against.
#[cfg(test)]
mod direct {
    use super::*;
    use crate::lowering::reference::DirectKernels;
    use crate::util::tap_range;
    use mgd_tensor::par::{maybe_par_for, SyncSlice};

    impl DirectKernels for Conv3d {
        /// Direct (sliding-window) backward — the reference kernels for the
        /// weight and input gradients (the bias gradient is left to the caller).
        fn backward_direct(&mut self, x: &Tensor, grad_out: &Tensor) -> Tensor {
            let din = Dims5::of(x);
            let dout = self.out_dims(&din);
            let (kd, kh, kw) = self.kernel;
            let (pd, ph, pw) = self.padding();
            let g = grad_out.as_slice();
            let xs = x.as_slice();

            // Weight gradient: each oc owns its grad_w slice (parallel over oc).
            {
                let kvol = self.in_c * kd * kh * kw;
                let ptr = SyncSlice::new(self.weight.grad.as_mut_slice());
                maybe_par_for(dout.c, dout.n * dout.vol() * kvol, |oc| {
                    // SAFETY: each oc task owns a disjoint weight-grad block.
                    let gw = unsafe { ptr.slice_mut(oc * kvol, kvol) };
                    for n in 0..dout.n {
                        let gbase = (n * dout.c + oc) * dout.vol();
                        let mut oi = 0usize;
                        for od in 0..dout.d {
                            let (kd_lo, kd_hi) = tap_range(od, 1, pd, kd, din.d);
                            for oh in 0..dout.h {
                                let (kh_lo, kh_hi) = tap_range(oh, 1, ph, kh, din.h);
                                for ow in 0..dout.w {
                                    let (kw_lo, kw_hi) = tap_range(ow, 1, pw, kw, din.w);
                                    let gv = g[gbase + oi];
                                    oi += 1;
                                    if gv == 0.0 {
                                        continue;
                                    }
                                    for ic in 0..self.in_c {
                                        let xbase = (n * self.in_c + ic) * din.vol();
                                        let wbase = ic * kd * kh * kw;
                                        for kdi in kd_lo..kd_hi {
                                            let id = od + kdi - pd;
                                            for khi in kh_lo..kh_hi {
                                                let ih = oh + khi - ph;
                                                let xrow = xbase
                                                    + (id * din.h + ih) * din.w
                                                    + (ow + kw_lo - pw);
                                                let wrow = wbase + (kdi * kh + khi) * kw + kw_lo;
                                                for t in 0..(kw_hi - kw_lo) {
                                                    gw[wrow + t] += gv * xs[xrow + t];
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                });
            }

            // Input gradient: scatter form, parallel over (n, ic)… but each
            // (n, ·) task needs all oc; parallelize over n and write the full
            // per-sample block.
            let mut gx: Tensor = Tensor::zeros([din.n, din.c, din.d, din.h, din.w]);
            {
                let ws = self.weight.data.as_slice();
                let sample_block = din.c * din.vol();
                let ptr = SyncSlice::new(gx.as_mut_slice());
                maybe_par_for(din.n, dout.c * dout.vol() * self.in_c * kd * kh * kw, |n| {
                    // SAFETY: each n task owns a disjoint input-grad block.
                    let gxb = unsafe { ptr.slice_mut(n * sample_block, sample_block) };
                    for oc in 0..dout.c {
                        let gbase = (n * dout.c + oc) * dout.vol();
                        let mut oi = 0usize;
                        for od in 0..dout.d {
                            let (kd_lo, kd_hi) = tap_range(od, 1, pd, kd, din.d);
                            for oh in 0..dout.h {
                                let (kh_lo, kh_hi) = tap_range(oh, 1, ph, kh, din.h);
                                for ow in 0..dout.w {
                                    let (kw_lo, kw_hi) = tap_range(ow, 1, pw, kw, din.w);
                                    let gv = g[gbase + oi];
                                    oi += 1;
                                    if gv == 0.0 {
                                        continue;
                                    }
                                    for ic in 0..self.in_c {
                                        let xbase = ic * din.vol();
                                        let wbase = (oc * self.in_c + ic) * kd * kh * kw;
                                        for kdi in kd_lo..kd_hi {
                                            let id = od + kdi - pd;
                                            for khi in kh_lo..kh_hi {
                                                let ih = oh + khi - ph;
                                                let xrow = xbase
                                                    + (id * din.h + ih) * din.w
                                                    + (ow + kw_lo - pw);
                                                let wrow = wbase + (kdi * kh + khi) * kw + kw_lo;
                                                for t in 0..(kw_hi - kw_lo) {
                                                    gxb[xrow + t] += gv * ws[wrow + t];
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                });
            }
            gx
        }

        /// Direct (sliding-window) forward — the reference kernel, generic over
        /// the element type (identical operation order for every `E`).
        fn forward_direct(&self, x: &Tensor) -> Tensor {
            let din = Dims5::of(x);
            let dout = self.out_dims(&din);
            let mut y: Tensor = Tensor::zeros([dout.n, dout.c, dout.d, dout.h, dout.w]);
            let (kd, kh, kw) = self.kernel;
            let (pd, ph, pw) = self.padding();
            let xs = x.as_slice();
            let ws = self.weight.data.as_slice();
            let bs = self.bias.data.as_slice();
            let ptr = SyncSlice::new(y.as_mut_slice());
            let out_block = dout.vol();
            maybe_par_for(
                dout.n * dout.c,
                out_block * self.in_c * kd * kh * kw,
                |nc| {
                    let n = nc / dout.c;
                    let oc = nc % dout.c;
                    // SAFETY: each (n, oc) task owns a disjoint output block.
                    let yblock = unsafe { ptr.slice_mut(nc * out_block, out_block) };
                    let b = bs[oc];
                    let mut oi = 0usize;
                    for od in 0..dout.d {
                        let (kd_lo, kd_hi) = tap_range(od, 1, pd, kd, din.d);
                        for oh in 0..dout.h {
                            let (kh_lo, kh_hi) = tap_range(oh, 1, ph, kh, din.h);
                            for ow in 0..dout.w {
                                let (kw_lo, kw_hi) = tap_range(ow, 1, pw, kw, din.w);
                                let mut acc = b;
                                for ic in 0..self.in_c {
                                    let xbase = (n * self.in_c + ic) * din.vol();
                                    let wbase = (oc * self.in_c + ic) * kd * kh * kw;
                                    for kdi in kd_lo..kd_hi {
                                        let id = od + kdi - pd;
                                        for khi in kh_lo..kh_hi {
                                            let ih = oh + khi - ph;
                                            let xrow = xbase
                                                + (id * din.h + ih) * din.w
                                                + (ow + kw_lo - pw);
                                            let wrow = wbase + (kdi * kh + khi) * kw + kw_lo;
                                            for t in 0..(kw_hi - kw_lo) {
                                                acc += xs[xrow + t] * ws[wrow + t];
                                            }
                                        }
                                    }
                                }
                                yblock[oi] = acc;
                                oi += 1;
                            }
                        }
                    }
                },
            );
            y
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{check_layer_gradient, FD_EPS, FD_TOL};
    use crate::lowering::reference::{assert_layers_agree, bits_eq, im2col, Direct, DirectKernels};
    use mgd_tensor::matmul::gemm_prepacked;
    use mgd_tensor::par::with_threads;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(3)
    }

    #[test]
    fn identity_kernel_passthrough() {
        let mut c = Conv3d::same(1, 1, (1, 1, 1), &mut rng());
        c.weight.data = Tensor::from_vec([1, 1, 1, 1, 1], vec![1.0]);
        c.bias.data = Tensor::from_vec([1], vec![0.0]);
        let x = Tensor::from_vec([1, 1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let y = c.forward(&x, false);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn known_1d_convolution() {
        // Width-3 kernel [1, 2, 3] over [1, 1, 1, 1, 4] input, same padding.
        let mut c = Conv3d::same(1, 1, (1, 1, 3), &mut rng());
        c.weight.data = Tensor::from_vec([1, 1, 1, 1, 3], vec![1.0, 2.0, 3.0]);
        c.bias.data = Tensor::from_vec([1], vec![0.5]);
        let x = Tensor::from_vec([1, 1, 1, 1, 4], vec![1.0, 2.0, 3.0, 4.0]);
        let y = c.forward(&x, false);
        // y[i] = 0.5 + 1*x[i-1] + 2*x[i] + 3*x[i+1] (zero-padded)
        assert_eq!(
            y.as_slice(),
            &[
                0.5 + 2.0 + 6.0,
                0.5 + 1.0 + 4.0 + 9.0,
                0.5 + 2.0 + 6.0 + 12.0,
                0.5 + 3.0 + 8.0
            ]
        );
    }

    #[test]
    fn same_padding_preserves_spatial_dims() {
        let mut c = Conv3d::same(2, 5, (3, 3, 3), &mut rng());
        let y = c.forward(&Tensor::zeros([2, 2, 4, 6, 8]), false);
        assert_eq!(y.dims(), &[2, 5, 4, 6, 8]);
    }

    #[test]
    fn resolution_agnostic_weights() {
        // The same filter applied at two resolutions of a constant input
        // produces the same interior value — the property multigrid training
        // relies on (paper §3.1.2).
        let mut c = Conv3d::same(1, 1, (1, 3, 3), &mut rng());
        let y1 = c.forward(&Tensor::ones([1, 1, 1, 8, 8]), false);
        let y2 = c.forward(&Tensor::ones([1, 1, 1, 16, 16]), false);
        let mid1 = y1.at(&[0, 0, 0, 4, 4]);
        let mid2 = y2.at(&[0, 0, 0, 8, 8]);
        assert!((mid1 - mid2).abs() < 1e-12);
    }

    #[test]
    fn linearity_in_input() {
        let mut c = Conv3d::same(2, 3, (1, 3, 3), &mut rng());
        let mut r = rng();
        let a = Tensor::rand_uniform([1, 2, 1, 5, 5], -1.0, 1.0, &mut r);
        let b = Tensor::rand_uniform([1, 2, 1, 5, 5], -1.0, 1.0, &mut r);
        let ya = c.forward(&a, false);
        let yb = c.forward(&b, false);
        let yab = c.forward(&a.add(&b), false);
        // Conv(a + b) = Conv(a) + Conv(b) - bias (bias counted twice).
        let mut expect = ya.add(&yb);
        for oc in 0..3 {
            let bias = c.bias.data[oc];
            for n in 0..1 {
                for d in 0..1 {
                    for h in 0..5 {
                        for w in 0..5 {
                            *expect.at_mut(&[n, oc, d, h, w]) -= bias;
                        }
                    }
                }
            }
        }
        assert!(yab.rel_l2_error(&expect) < 1e-12);
    }

    #[test]
    fn gradcheck_same_2d_kernel() {
        let c = Conv3d::same(2, 3, (1, 3, 3), &mut rng());
        check_layer_gradient(Box::new(c), &[2, 2, 1, 5, 5], 0.0, FD_EPS, FD_TOL);
    }

    #[test]
    fn gradcheck_3d_kernel() {
        let c = Conv3d::same(1, 2, (3, 3, 3), &mut rng());
        check_layer_gradient(Box::new(c), &[1, 1, 4, 4, 4], 0.0, FD_EPS, FD_TOL);
    }

    #[test]
    fn gradcheck_1x1() {
        let c = Conv3d::same(3, 2, (1, 1, 1), &mut rng());
        check_layer_gradient(Box::new(c), &[2, 3, 1, 3, 3], 0.0, FD_EPS, FD_TOL);
    }

    #[test]
    fn gradcheck_gemm_backend_explicit() {
        // The lowered layer itself at a 3D multi-channel shape (the oracle
        // is checked separately below).
        let c = Conv3d::same(2, 3, (3, 3, 3), &mut rng());
        check_layer_gradient(Box::new(c), &[1, 2, 4, 4, 4], 0.0, FD_EPS, FD_TOL);
    }

    #[test]
    fn gradcheck_direct_backend_explicit() {
        let c = Direct::new(Conv3d::same(2, 3, (3, 3, 3), &mut rng()));
        check_layer_gradient(Box::new(c), &[1, 2, 4, 4, 4], 0.0, FD_EPS, FD_TOL);
    }

    #[test]
    fn gemm_chunked_path_matches_direct_at_64cubed() {
        // A megavoxel-scale layer: the forward and every gradient against
        // the direct oracle.
        let mut r = rng();
        let mut conv = Conv3d::same(2, 2, (3, 3, 3), &mut r);
        let x = Tensor::rand_uniform([1, 2, 64, 64, 64], -1.0, 1.0, &mut r);
        assert_layers_agree(&mut Direct::new(conv.clone()), &mut conv, &x, 1e-12);
    }

    #[test]
    fn infer_matches_forward_bitwise_both_backends() {
        // infer, the inference forward and the training forward are one
        // lowering, bit for bit; the direct oracle agrees to round-off.
        let mut r = rng();
        let mut c = Conv3d::same(2, 3, (3, 3, 3), &mut r);
        let x = Tensor::rand_uniform([2, 2, 20, 20, 20], -1.0, 1.0, &mut r);
        let y = c.forward(&x, false);
        assert!(bits_eq(c.infer(&x).as_slice(), y.as_slice()));
        assert!(bits_eq(c.forward(&x, true).as_slice(), y.as_slice()));
        assert!(c.forward_direct(&x).rel_l2_error(&y) < 1e-12);
    }

    /// The inference loop before implicit im2col, kept as the oracle:
    /// materialize the patch matrix, GEMM it into scratch, then `b + s`.
    fn infer_im2col_reference<E: GemmElement>(c: &Conv3d<E>, x: &Tensor<E>) -> Tensor<E> {
        let din = Dims5::of(x);
        let dout = c.out_dims(&din);
        let geom = c.geom(&din);
        let (kdim, p) = (geom.rows(), geom.cols());
        let pa = pack_a(c.weight.data.as_slice(), c.out_c, kdim, false);
        let mut y = Tensor::zeros([dout.n, dout.c, dout.d, dout.h, dout.w]);
        let (mut col, mut ctmp) = (vec![E::ZERO; kdim * p], vec![E::ZERO; c.out_c * p]);
        for ni in 0..din.n {
            let xslab = &x.as_slice()[ni * c.in_c * geom.vol()..][..c.in_c * geom.vol()];
            im2col(&geom, xslab, &mut col);
            gemm_prepacked(&pa, &col, false, &mut ctmp, p, false);
            let yslab = &mut y.as_mut_slice()[ni * c.out_c * p..][..c.out_c * p];
            for (oc, (dst, src)) in yslab
                .chunks_exact_mut(p)
                .zip(ctmp.chunks_exact(p))
                .enumerate()
            {
                let b = c.bias.data.as_slice()[oc];
                for (d, s) in dst.iter_mut().zip(src) {
                    *d = b + *s;
                }
            }
        }
        y
    }

    /// `infer` and every band of `infer_planes_into` reproduce the
    /// im2col → GEMM → `b + s` loop bit for bit.
    fn check_against_im2col_reference<E: GemmElement>(c: &Conv3d<E>, x: &Tensor<E>) {
        let want = infer_im2col_reference(c, x);
        let case = (c.in_c, c.out_c, c.kernel, E::NAME);
        assert!(bits_eq(c.infer(x).as_slice(), want.as_slice()), "{case:?}");
        let w = Dims5::of(&want);
        let (axis, planes) = if w.d > 1 {
            (SplitAxis::Depth, w.d)
        } else {
            (SplitAxis::Height, w.h)
        };
        // Bands written out of order into one output, with odd boundaries.
        let mut y = Tensor::zeros(want.dims().to_vec());
        let cut = (planes / 3).max(1);
        for band in [cut..planes, 0..cut] {
            c.infer_planes_into(x, band.clone(), axis, &mut y, band.start);
        }
        assert!(bits_eq(y.as_slice(), want.as_slice()), "{case:?} bands");
    }

    #[test]
    fn infer_matches_im2col_reference_bitwise() {
        let mut r = rng();
        // (in_c, out_c, kernel, input dims): head-like m = 1 and m = 3, a
        // 2D conv, and m = 8 over 432 patch rows (two KC blocks, so the
        // bias must follow the last block).
        let cases = [
            (8, 1, (1, 1, 1), [2, 8, 3, 5, 7]),
            (4, 3, (3, 3, 3), [1, 4, 4, 6, 19]),
            (3, 5, (1, 3, 3), [2, 3, 1, 9, 37]),
            (16, 8, (3, 3, 3), [1, 16, 5, 6, 20]),
        ];
        for (in_c, out_c, k, dims) in cases {
            let mut c = Conv3d::same(in_c, out_c, k, &mut r);
            c.bias.data = Tensor::rand_uniform([out_c], -1.0, 1.0, &mut r);
            let x = Tensor::rand_uniform(dims.to_vec(), -1.0, 1.0, &mut r);
            check_against_im2col_reference(&c, &x);
            check_against_im2col_reference(&c.cast_as::<f32>(), &x.cast::<f32>());
        }
    }

    #[test]
    fn gemm_forward_is_bitwise_deterministic() {
        let mut r = rng();
        let mut c = Conv3d::same(4, 4, (3, 3, 3), &mut r);
        let x = Tensor::rand_uniform([1, 4, 16, 16, 16], -1.0, 1.0, &mut r);
        let y1 = c.forward(&x, false);
        let y2 = c.forward(&x, false);
        assert!(y1
            .as_slice()
            .iter()
            .zip(y2.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    /// Forward + backward of `layer` under `threads` workers: the output,
    /// the input gradient and both parameter gradients.
    fn train_step(mut layer: impl Layer, x: &Tensor, g: &Tensor, threads: usize) -> Vec<Tensor> {
        with_threads(threads, || {
            let y = layer.forward(x, true);
            let gx = layer.backward(g);
            let mut out = vec![y, gx];
            out.extend(layer.params().into_iter().map(|p| p.grad.clone()));
            out
        })
    }

    #[test]
    fn backward_is_bitwise_thread_count_independent() {
        // Several weight-gradient blocks and GEMM column slabs per sample,
        // for the U-Net's 3D, 2D and head kernels.
        let mut r = rng();
        for k in [(3, 3, 3), (1, 3, 3), (1, 1, 1)] {
            let conv = Conv3d::same(4, 3, k, &mut r);
            let x = Tensor::rand_uniform([2, 4, 6, 24, 40], -1.0, 1.0, &mut r);
            let dout = conv.out_dims(&Dims5::of(&x));
            let g = Tensor::rand_uniform([2, 3, dout.d, dout.h, dout.w], -1.0, 1.0, &mut r);
            let one = train_step(conv.clone(), &x, &g, 1);
            for threads in [2, 4] {
                let many = train_step(conv.clone(), &x, &g, threads);
                for (a, b) in one.iter().zip(&many) {
                    assert!(bits_eq(a.as_slice(), b.as_slice()), "{k:?} at {threads}");
                }
            }
        }
    }

    proptest! {
        /// The lowering computes the same convolution as the direct
        /// sliding-window kernels — forward and all three gradients — to
        /// 1e-12 at 1 and 2 workers, across random channels, extents and
        /// the kernels the U-Net runs: 3³, 2D `(1,3,3)` and the 1³ head.
        #[test]
        fn conv_gemm_matches_direct(
            n in 1usize..3, cin in 1usize..4, cout in 1usize..4,
            kind in 0usize..3, d in 1usize..5, hw in 1usize..7,
            seed in 0u64..1000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let k = [(3, 3, 3), (1, 3, 3), (1, 1, 1)][kind];
            let conv = Conv3d::same(cin, cout, k, &mut rng);
            let x = Tensor::rand_uniform([n, cin, d, hw, hw], -1.0, 1.0, &mut rng);
            for threads in [1, 2] {
                let (mut oracle, mut conv) = (Direct::new(conv.clone()), conv.clone());
                with_threads(threads, || assert_layers_agree(&mut oracle, &mut conv, &x, 1e-12));
            }
        }
    }
}
