//! Transpose (fractionally-strided) 3D convolution.

use crate::layer::{Dims5, Layer, Triple};
use crate::lowering::{
    bias_grad, conv_batch, pack_flipped, tiled_transpose_forward, weight_grad, ConvGeom,
};
use crate::param::Param;
use mgd_tensor::matmul::pack_a;
use mgd_tensor::{Element, GemmElement, Tensor};
use rand::Rng;

/// A 3D transpose convolution — the upsampling path of the U-Net decoder.
///
/// Weight layout `[in_c, out_c, kd, kh, kw]` (PyTorch convention). The
/// standard factor-2 upsampler of the paper's decoder uses `k = s = 2`,
/// `p = 0`, which exactly doubles each (pooled) axis.
///
/// A transpose convolution is the adjoint of a convolution with the same
/// kernel/stride/padding, so every pass is a gathered GEMM on the lowering
/// of [`crate::conv::Conv3d`] (see [`crate::lowering`]), with the patch
/// geometry living on this layer's **output** grid: `dX = V·P(dY)` and
/// `dV += X·P(dY)ᵀ`. When the windows tile the output (`k = s`, `p = 0`)
/// the forward is one GEMM `Vᵀ·X` per sample written straight to the
/// stride-`s` output positions; otherwise it is the flipped-kernel
/// convolution over the input dilated by the stride.
#[derive(Clone, Debug)]
pub struct ConvTranspose3d<E: Element = f64> {
    /// Input channels.
    pub in_c: usize,
    /// Output channels.
    pub out_c: usize,
    /// Kernel extents (kd, kh, kw).
    pub kernel: Triple,
    /// Strides (sd, sh, sw).
    pub stride: Triple,
    /// Padding (pd, ph, pw) — reduces the output extent like conv padding
    /// grows it.
    pub padding: Triple,
    /// Filter weights.
    pub weight: Param<E>,
    /// Per-output-channel bias.
    pub bias: Param<E>,
    /// Cached training activation — training is `f64`-only, so this stays
    /// concrete (always empty in non-`f64` instantiations).
    cache_x: Option<Tensor>,
}

impl ConvTranspose3d {
    /// Fully configured constructor with Kaiming initialization.
    pub fn new<R: Rng>(
        in_c: usize,
        out_c: usize,
        kernel: Triple,
        stride: Triple,
        padding: Triple,
        rng: &mut R,
    ) -> Self {
        let (kd, kh, kw) = kernel;
        let fan_in = in_c * kd * kh * kw;
        ConvTranspose3d {
            in_c,
            out_c,
            kernel,
            stride,
            padding,
            weight: Param::kaiming([in_c, out_c, kd, kh, kw], fan_in, rng),
            bias: Param::zeros([out_c]),
            cache_x: None,
        }
    }

    /// The factor-2 upsampler (`k = s = 2`); `two_d` keeps depth unscaled.
    pub fn up2<R: Rng>(in_c: usize, out_c: usize, two_d: bool, rng: &mut R) -> Self {
        let (k, s) = if two_d {
            ((1, 2, 2), (1, 2, 2))
        } else {
            ((2, 2, 2), (2, 2, 2))
        };
        ConvTranspose3d::new(in_c, out_c, k, s, (0, 0, 0), rng)
    }
}

impl<E: Element> ConvTranspose3d<E> {
    /// Output spatial dims: `o = (i-1)*s - 2p + k`.
    pub fn out_dims(&self, din: &Dims5) -> Dims5 {
        let o = |i: usize, k: usize, s: usize, p: usize| {
            let full = (i - 1) * s + k;
            assert!(full >= 2 * p, "padding too large");
            full - 2 * p
        };
        Dims5 {
            n: din.n,
            c: self.out_c,
            d: o(din.d, self.kernel.0, self.stride.0, self.padding.0),
            h: o(din.h, self.kernel.1, self.stride.1, self.padding.1),
            w: o(din.w, self.kernel.2, self.stride.2, self.padding.2),
        }
    }

    /// Lowering geometry over the *output* grid of one sample (the gather
    /// of a convolution reading that grid, anchored at this layer's input
    /// positions) — the geometry of the data and weight gradients.
    fn geom(&self, din: &Dims5, dout: &Dims5) -> ConvGeom {
        ConvGeom::new(
            self.out_c,
            (dout.d, dout.h, dout.w),
            self.kernel,
            self.stride,
            self.padding,
            (din.d, din.h, din.w),
        )
    }

    /// Converts the layer weights to another element type (through `f64`);
    /// the copy starts with no cached activation.
    pub fn cast_as<T: Element>(&self) -> ConvTranspose3d<T> {
        ConvTranspose3d {
            in_c: self.in_c,
            out_c: self.out_c,
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
            weight: self.weight.cast_as(),
            bias: self.bias.cast_as(),
            cache_x: None,
        }
    }
}

impl<E: GemmElement> ConvTranspose3d<E> {
    /// Shared-state inference forward: bitwise identical to
    /// `forward(x, false)` at the default `f64`, but `&self`, so shared
    /// weights serve concurrent callers. It needs no scratch.
    pub fn infer(&self, x: &Tensor<E>) -> Tensor<E> {
        let din = Dims5::of(x);
        assert_eq!(din.c, self.in_c, "channel mismatch");
        let dout = self.out_dims(&din);
        let geom = self.geom(&din, &dout);
        let mut y = Tensor::zeros([dout.n, dout.c, dout.d, dout.h, dout.w]);
        let (ws, bs) = (self.weight.data.as_slice(), self.bias.data.as_slice());
        if self.kernel == self.stride && self.padding == (0, 0, 0) {
            // The [in_c, out_c, kd, kh, kw] weight is the in_c × kdim
            // matrix row-major; its transpose is the kdim × in_c operand.
            let pa = pack_a(ws, geom.rows(), self.in_c, true);
            tiled_transpose_forward(&pa, &geom, x.as_slice(), bs, y.as_mut_slice());
        } else {
            let pa = pack_flipped(ws, self.in_c, self.out_c, geom.kvol());
            let adj = geom.transposed(self.in_c);
            conv_batch(&pa, &adj, x.as_slice(), Some(bs), y.as_mut_slice());
        }
        y
    }
}

impl Layer for ConvTranspose3d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let y = self.infer(x);
        if train {
            self.cache_x = Some(x.clone());
        }
        y
    }

    /// `dV += X·P(dY)ᵀ` through `lowering::weight_grad`, which reads
    /// `P(dY)ᵀ` straight from `dY` (the windows of an unpadded transpose
    /// convolution lie inside its output), then `dX = V·P(dY)` — one
    /// `lowering::conv_forward` per sample with `V` packed as stored.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // `take` instead of clone: backward consumes the cached activation,
        // so the hot path never copies a full input tensor.
        let x = self.cache_x.take().expect("backward before forward");
        let din = Dims5::of(&x);
        let dout = self.out_dims(&din);
        assert_eq!(grad_out.dims(), &[dout.n, dout.c, dout.d, dout.h, dout.w]);
        let g = grad_out.as_slice();
        bias_grad(g, dout.n, dout.c, dout.vol(), self.bias.grad.as_mut_slice());
        let geom = self.geom(&din, &dout);
        let gw = self.weight.grad.as_mut_slice();
        weight_grad(&geom, g, x.as_slice(), din.n, gw);
        let pa = pack_a(self.weight.data.as_slice(), self.in_c, geom.rows(), false);
        let mut gx = Tensor::zeros([din.n, din.c, din.d, din.h, din.w]);
        conv_batch(&pa, &geom, g, None, gx.as_mut_slice());
        gx
    }

    fn params(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn name(&self) -> String {
        format!(
            "ConvTranspose3d({}→{}, k{:?}, s{:?}, p{:?})",
            self.in_c, self.out_c, self.kernel, self.stride, self.padding
        )
    }
}

/// The direct loops: the test oracle every lowering is checked against.
#[cfg(test)]
mod direct {
    use super::*;
    use crate::lowering::reference::DirectKernels;
    use mgd_tensor::par::{maybe_par_for, SyncSlice};

    impl DirectKernels for ConvTranspose3d {
        /// Direct (scatter-loop) forward — the reference kernel, generic over
        /// the element type (identical operation order for every `E`).
        fn forward_direct(&self, x: &Tensor) -> Tensor {
            let din = Dims5::of(x);
            let dout = self.out_dims(&din);
            let mut y: Tensor = Tensor::zeros([dout.n, dout.c, dout.d, dout.h, dout.w]);
            let (kd, kh, kw) = self.kernel;
            let (sd, sh, sw) = self.stride;
            let (pd, ph, pw) = self.padding;
            let xs = x.as_slice();
            let ws = self.weight.data.as_slice();
            let bs = self.bias.data.as_slice();
            let out_block = dout.vol();
            let ptr = SyncSlice::new(y.as_mut_slice());
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
                        for oh in 0..dout.h {
                            for ow in 0..dout.w {
                                let mut acc = b;
                                contributions(od, sd, pd, kd, din.d, |id, kdi| {
                                    contributions(oh, sh, ph, kh, din.h, |ih, khi| {
                                        contributions(ow, sw, pw, kw, din.w, |iw, kwi| {
                                            for ic in 0..self.in_c {
                                                let xv = xs[(n * self.in_c + ic) * din.vol()
                                                    + (id * din.h + ih) * din.w
                                                    + iw];
                                                let wv = ws[((ic * self.out_c + oc) * kd + kdi)
                                                    * kh
                                                    * kw
                                                    + khi * kw
                                                    + kwi];
                                                acc += xv * wv;
                                            }
                                        });
                                    });
                                });
                                yblock[oi] = acc;
                                oi += 1;
                            }
                        }
                    }
                },
            );
            y
        }

        /// Direct (gather-loop) backward — the reference kernels for the input
        /// and weight gradients (the bias gradient is left to the caller).
        fn backward_direct(&mut self, x: &Tensor, grad_out: &Tensor) -> Tensor {
            let din = Dims5::of(x);
            let dout = self.out_dims(&din);
            let (kd, kh, kw) = self.kernel;
            let (sd, sh, sw) = self.stride;
            let (pd, ph, pw) = self.padding;
            let g = grad_out.as_slice();
            let xs = x.as_slice();

            // Input gradient: gx[n,ic,i] = Σ_{oc,k} g[n,oc,i*s+k-p] w[ic,oc,k]
            // — a *forward-conv* access pattern, parallel over (n, ic).
            let mut gx: Tensor = Tensor::zeros([din.n, din.c, din.d, din.h, din.w]);
            {
                let ws = self.weight.data.as_slice();
                let in_block = din.vol();
                let ptr = SyncSlice::new(gx.as_mut_slice());
                maybe_par_for(din.n * din.c, in_block * self.out_c * kd * kh * kw, |nc| {
                    let n = nc / din.c;
                    let ic = nc % din.c;
                    // SAFETY: each (n, ic) task owns a disjoint block.
                    let gxb = unsafe { ptr.slice_mut(nc * in_block, in_block) };
                    let mut ii = 0usize;
                    for id in 0..din.d {
                        for ih in 0..din.h {
                            for iw in 0..din.w {
                                let mut acc = 0.0;
                                for kdi in 0..kd {
                                    let od = id * sd + kdi;
                                    if od < pd || od - pd >= dout.d {
                                        continue;
                                    }
                                    for khi in 0..kh {
                                        let oh = ih * sh + khi;
                                        if oh < ph || oh - ph >= dout.h {
                                            continue;
                                        }
                                        for kwi in 0..kw {
                                            let ow = iw * sw + kwi;
                                            if ow < pw || ow - pw >= dout.w {
                                                continue;
                                            }
                                            for oc in 0..self.out_c {
                                                let gv = g[(n * dout.c + oc) * dout.vol()
                                                    + ((od - pd) * dout.h + (oh - ph)) * dout.w
                                                    + (ow - pw)];
                                                let wv = ws[((ic * self.out_c + oc) * kd + kdi)
                                                    * kh
                                                    * kw
                                                    + khi * kw
                                                    + kwi];
                                                acc += gv * wv;
                                            }
                                        }
                                    }
                                }
                                gxb[ii] = acc;
                                ii += 1;
                            }
                        }
                    }
                });
            }

            // Weight gradient: gw[ic,oc,k] = Σ_{n,i} x[n,ic,i] g[n,oc,i*s+k-p];
            // parallel over ic (each owns a disjoint gw block).
            {
                let kvol = self.out_c * kd * kh * kw;
                let ptr = SyncSlice::new(self.weight.grad.as_mut_slice());
                maybe_par_for(self.in_c, din.n * din.vol() * kvol, |ic| {
                    // SAFETY: each ic task owns a disjoint weight-grad block.
                    let gw = unsafe { ptr.slice_mut(ic * kvol, kvol) };
                    for n in 0..din.n {
                        let xbase = (n * self.in_c + ic) * din.vol();
                        let mut ii = 0usize;
                        for id in 0..din.d {
                            for ih in 0..din.h {
                                for iw in 0..din.w {
                                    let xv = xs[xbase + ii];
                                    ii += 1;
                                    if xv == 0.0 {
                                        continue;
                                    }
                                    for kdi in 0..kd {
                                        let od = id * sd + kdi;
                                        if od < pd || od - pd >= dout.d {
                                            continue;
                                        }
                                        for khi in 0..kh {
                                            let oh = ih * sh + khi;
                                            if oh < ph || oh - ph >= dout.h {
                                                continue;
                                            }
                                            for kwi in 0..kw {
                                                let ow = iw * sw + kwi;
                                                if ow < pw || ow - pw >= dout.w {
                                                    continue;
                                                }
                                                for oc in 0..self.out_c {
                                                    let gv = g[(n * dout.c + oc) * dout.vol()
                                                        + ((od - pd) * dout.h + (oh - ph))
                                                            * dout.w
                                                        + (ow - pw)];
                                                    gw[(oc * kd + kdi) * kh * kw
                                                        + khi * kw
                                                        + kwi] += xv * gv;
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
    }

    /// Iterates the (input-pos, tap) pairs contributing to output position `o`:
    /// `i*s + k - p == o` with `0 ≤ i < in_extent`, `0 ≤ k < ksize`.
    #[inline]
    fn contributions(
        o: usize,
        s: usize,
        p: usize,
        ksize: usize,
        in_extent: usize,
        mut f: impl FnMut(usize, usize),
    ) {
        let target = o + p;
        // k = target - i*s; need 0 <= k < ksize.
        let i_min = (target + 1).saturating_sub(ksize).div_ceil(s);
        let i_max = (target / s).min(in_extent.saturating_sub(1));
        let mut i = i_min;
        while i <= i_max {
            let k = target - i * s;
            if k < ksize {
                f(i, k);
            }
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{check_layer_gradient, FD_EPS, FD_TOL};
    use crate::lowering::reference::{
        anchor_chunks, assert_layers_agree, bits_eq, col2im_range_accumulate, Direct, DirectKernels,
    };
    use mgd_tensor::matmul::gemm_prepacked;
    use mgd_tensor::par::with_threads;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(11)
    }

    #[test]
    fn up2_doubles_spatial_dims() {
        let mut t = ConvTranspose3d::up2(4, 2, false, &mut rng());
        let y = t.forward(&Tensor::zeros([1, 4, 2, 3, 5]), false);
        assert_eq!(y.dims(), &[1, 2, 4, 6, 10]);
    }

    #[test]
    fn up2_2d_keeps_depth() {
        let mut t = ConvTranspose3d::up2(2, 1, true, &mut rng());
        let y = t.forward(&Tensor::zeros([1, 2, 1, 4, 4]), false);
        assert_eq!(y.dims(), &[1, 1, 1, 8, 8]);
    }

    #[test]
    fn known_upsample_values() {
        // 1 input channel, k=s=2 along width only: each input pixel expands
        // to [x*w0, x*w1].
        let mut t = ConvTranspose3d::new(1, 1, (1, 1, 2), (1, 1, 2), (0, 0, 0), &mut rng());
        t.weight.data = Tensor::from_vec([1, 1, 1, 1, 2], vec![2.0, 3.0]);
        t.bias.data = Tensor::from_vec([1], vec![0.0]);
        let x = Tensor::from_vec([1, 1, 1, 1, 2], vec![1.0, 10.0]);
        let y = t.forward(&x, false);
        assert_eq!(y.as_slice(), &[2.0, 3.0, 20.0, 30.0]);
    }

    #[test]
    fn transpose_is_adjoint_of_conv() {
        // For zero bias and matching configs, <ConvT(x), y> == <x, Conv(y)>
        // where Conv uses the flipped weight layout. We verify the adjoint
        // property numerically via gradients instead: Conv3d.backward's
        // input-grad is ConvT's forward with shared weights (up to layout),
        // so a direct inner-product check keeps the invariant honest.
        let mut t = ConvTranspose3d::new(2, 3, (1, 2, 2), (1, 2, 2), (0, 0, 0), &mut rng());
        for b in t.bias.data.as_mut_slice() {
            *b = 0.0;
        }
        let mut r = rng();
        let x = Tensor::rand_uniform([1, 2, 1, 3, 3], -1.0, 1.0, &mut r);
        let y = t.forward(&x, true);
        // Probe: <y, w> gradient w.r.t. x must equal ConvT^T applied to w.
        let w = Tensor::rand_uniform(y.dims().to_vec(), -1.0, 1.0, &mut r);
        let gx = t.backward(&w);
        // Inner-product identity: <ConvT(x), w> == <x, ConvT^T(w)> (+ bias=0)
        let lhs = y.dot(&w);
        let rhs = x.dot(&gx);
        assert!((lhs - rhs).abs() < 1e-10, "{lhs} vs {rhs}");
    }

    #[test]
    fn gradcheck_up2() {
        let t = ConvTranspose3d::up2(2, 2, true, &mut rng());
        check_layer_gradient(Box::new(t), &[1, 2, 1, 3, 3], 0.0, FD_EPS, FD_TOL);
    }

    #[test]
    fn gradcheck_3d_k3_s1() {
        let t = ConvTranspose3d::new(1, 2, (3, 3, 3), (1, 1, 1), (1, 1, 1), &mut rng());
        check_layer_gradient(Box::new(t), &[1, 1, 3, 3, 3], 0.0, FD_EPS, FD_TOL);
    }

    #[test]
    fn gradcheck_strided_padded() {
        let t = ConvTranspose3d::new(2, 1, (1, 3, 3), (1, 2, 2), (0, 1, 1), &mut rng());
        check_layer_gradient(Box::new(t), &[1, 2, 1, 3, 3], 0.0, FD_EPS, FD_TOL);
    }

    #[test]
    fn gradcheck_gemm_backend_explicit() {
        let t = ConvTranspose3d::up2(2, 2, false, &mut rng());
        check_layer_gradient(Box::new(t), &[1, 2, 3, 3, 3], 0.0, FD_EPS, FD_TOL);
    }

    #[test]
    fn gradcheck_direct_backend_explicit() {
        let t = Direct::new(ConvTranspose3d::up2(2, 2, false, &mut rng()));
        check_layer_gradient(Box::new(t), &[1, 2, 3, 3, 3], 0.0, FD_EPS, FD_TOL);
    }

    #[test]
    fn infer_matches_forward_bitwise_both_backends() {
        // infer, the inference forward and the training forward are one
        // lowering, bit for bit, on the tiled (up2) and the general path;
        // the direct oracle agrees to round-off.
        let mut r = rng();
        for mut t in [
            ConvTranspose3d::up2(3, 2, false, &mut r),
            ConvTranspose3d::new(3, 2, (3, 3, 3), (2, 2, 2), (1, 1, 1), &mut r),
        ] {
            let x = Tensor::rand_uniform([2, 3, 5, 6, 7], -1.0, 1.0, &mut r);
            let y = t.forward(&x, false);
            assert!(bits_eq(t.infer(&x).as_slice(), y.as_slice()));
            assert!(bits_eq(t.forward(&x, true).as_slice(), y.as_slice()));
            assert!(t.forward_direct(&x).rel_l2_error(&y) < 1e-12);
        }
    }

    #[test]
    fn gemm_chunked_path_matches_direct_at_64cubed() {
        // The up2 decoder shape at a 96³ output: the forward and every
        // gradient against the direct oracle.
        let mut r = rng();
        let mut t = ConvTranspose3d::up2(4, 2, false, &mut r);
        let x = Tensor::rand_uniform([1, 4, 48, 48, 48], -1.0, 1.0, &mut r);
        assert_eq!(t.out_dims(&Dims5::of(&x)).d, 96);
        assert_layers_agree(&mut Direct::new(t.clone()), &mut t, &x, 1e-12);
    }

    /// The forward before the tiled lowering, kept as the oracle: per
    /// sample and anchor-row chunk, copy the input columns, GEMM them by
    /// `Vᵀ` into a patch matrix, and scatter-add it onto the bias.
    fn infer_col2im_reference<E: GemmElement>(t: &ConvTranspose3d<E>, x: &Tensor<E>) -> Tensor<E> {
        let din = Dims5::of(x);
        let dout = t.out_dims(&din);
        let geom = t.geom(&din, &dout);
        let (kdim, p, ow) = (geom.rows(), geom.cols(), din.w);
        let pa = pack_a(t.weight.data.as_slice(), kdim, t.in_c, true);
        let mut y = Tensor::zeros([dout.n, dout.c, dout.d, dout.h, dout.w]);
        let outvol = geom.vol();
        let (mut col, mut tmp) = (Vec::new(), Vec::new());
        for ni in 0..din.n {
            let xslab = &x.as_slice()[ni * t.in_c * p..][..t.in_c * p];
            let yslab = &mut y.as_mut_slice()[ni * t.out_c * outvol..][..t.out_c * outvol];
            for (oc, row) in yslab.chunks_exact_mut(outvol).enumerate() {
                row.fill(t.bias.data.as_slice()[oc]);
            }
            for (ar0, ar1) in anchor_chunks(&geom) {
                let cc = (ar1 - ar0) * ow;
                tmp.resize(t.in_c * cc, E::ZERO);
                for ic in 0..t.in_c {
                    tmp[ic * cc..(ic + 1) * cc]
                        .copy_from_slice(&xslab[ic * p + ar0 * ow..ic * p + ar1 * ow]);
                }
                col.resize(kdim * cc, E::ZERO);
                gemm_prepacked(&pa, &tmp, false, &mut col, cc, false);
                col2im_range_accumulate(&geom, &col, yslab, ar0, ar1);
            }
        }
        y
    }

    #[test]
    fn infer_matches_col2im_reference_bitwise() {
        // (in_c, out_c, two_d, input dims): the U-Net's 2D and 3D up2
        // shapes, an odd-width input (slabs cut mid-row) and 260 input
        // channels (two KC blocks, so the bias must follow the last one).
        let mut r = rng();
        let cases = [
            (16, 8, false, [2, 16, 4, 8, 8]),
            (4, 3, true, [3, 4, 1, 13, 37]),
            (3, 5, false, [1, 3, 5, 6, 23]),
            (260, 2, true, [1, 260, 1, 3, 5]),
        ];
        for (in_c, out_c, two_d, dims) in cases {
            let mut t = ConvTranspose3d::up2(in_c, out_c, two_d, &mut r);
            t.bias.data = Tensor::rand_uniform([out_c], -1.0, 1.0, &mut r);
            let x = Tensor::rand_uniform(dims.to_vec(), -1.0, 1.0, &mut r);
            let want = infer_col2im_reference(&t, &x);
            assert!(bits_eq(t.infer(&x).as_slice(), want.as_slice()), "{dims:?}");
            assert!(
                bits_eq(t.forward(&x, false).as_slice(), want.as_slice()),
                "{dims:?}"
            );
            let (t32, x32) = (t.cast_as::<f32>(), x.cast::<f32>());
            let want32 = infer_col2im_reference(&t32, &x32);
            assert!(
                bits_eq(t32.infer(&x32).as_slice(), want32.as_slice()),
                "f32 {dims:?}"
            );
        }
    }

    #[test]
    fn backward_is_bitwise_thread_count_independent() {
        // up2 in 3D and a general (overlapping-window) layer, each with
        // several weight-gradient blocks and GEMM column slabs per sample.
        let mut r = rng();
        for t in [
            ConvTranspose3d::up2(4, 3, false, &mut r),
            ConvTranspose3d::new(4, 3, (1, 3, 3), (1, 2, 2), (0, 1, 1), &mut r),
        ] {
            let x = Tensor::rand_uniform([2, 4, 6, 12, 20], -1.0, 1.0, &mut r);
            let dout = t.out_dims(&Dims5::of(&x));
            let g = Tensor::rand_uniform([2, 3, dout.d, dout.h, dout.w], -1.0, 1.0, &mut r);
            let step = |threads| {
                let mut t = t.clone();
                with_threads(threads, || {
                    let mut out = vec![t.forward(&x, true), t.backward(&g)];
                    out.extend(t.params().into_iter().map(|p| p.grad.clone()));
                    out
                })
            };
            let one = step(1);
            for threads in [2, 4] {
                for (a, b) in one.iter().zip(&step(threads)) {
                    assert!(
                        bits_eq(a.as_slice(), b.as_slice()),
                        "{} at {threads}",
                        t.name()
                    );
                }
            }
        }
    }

    proptest! {
        /// The lowering computes the same transpose convolution as the
        /// direct loops — forward and all three gradients — to 1e-12,
        /// including strided upsampling (`k = s`: the tiled forward),
        /// overlapping windows and padding.
        #[test]
        fn convt_gemm_matches_direct(
            n in 1usize..3, cin in 1usize..4, cout in 1usize..4,
            kd in 1usize..4, khw in 1usize..4,
            sd in 1usize..3, shw in 1usize..3,
            p in 0usize..2,
            up2_bit in 0usize..2,
            extra in 0usize..4, seed in 0u64..1000,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            // i >= 3 keeps (i-1)s + k - 2p >= 1 for every drawn combination.
            let (d, hw) = (3 + extra, 3 + extra);
            let mut t = if up2_bit == 1 {
                ConvTranspose3d::up2(cin, cout, kd == 1, &mut rng)
            } else {
                ConvTranspose3d::new(cin, cout, (kd, khw, khw), (sd, shw, shw), (p, p, p), &mut rng)
            };
            let x = Tensor::rand_uniform([n, cin, d, hw, hw], -1.0, 1.0, &mut rng);
            assert_layers_agree(&mut Direct::new(t.clone()), &mut t, &x, 1e-12);
        }
    }
}
