//! Transpose (fractionally-strided) 3D convolution.

use crate::layer::{Dims5, Layer, Triple};
use crate::lowering::{
    anchor_chunks, bias_grad, col2im_range_accumulate, im2col_range, ConvBackend, ConvGeom, Scratch,
};
use crate::param::Param;
use crate::workspace::Workspace;
use mgd_tensor::matmul::{gemm, gemm_prepacked, gemm_prepacked_with, pack_a, pack_b_slab};
use mgd_tensor::par::{maybe_par_for, SyncSlice};
use mgd_tensor::{Element, GemmElement, Tensor};
use rand::Rng;

/// A 3D transpose convolution — the upsampling path of the U-Net decoder.
///
/// Weight layout `[in_c, out_c, kd, kh, kw]` (PyTorch convention). The
/// standard factor-2 upsampler of the paper's decoder uses `k = s = 2`,
/// `p = 0`, which exactly doubles each (pooled) axis.
///
/// A transpose convolution is the adjoint of a convolution with the same
/// kernel/stride/padding, so under [`ConvBackend::Gemm`] (the default) all
/// passes lower onto the *same* im2col/col2im + GEMM machinery as
/// [`crate::conv::Conv3d`], with the patch geometry living on this layer's
/// **output** grid: `Y = col2im(Vᵀ·X) + b`, `dX = V·im2col(dY)`,
/// `dV += X·im2col(dY)ᵀ`.
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
    /// Kernel implementation to run.
    pub backend: ConvBackend,
    /// Cached training activation — training is `f64`-only, so this stays
    /// concrete (always empty in non-`f64` instantiations).
    cache_x: Option<Tensor>,
    scratch: Scratch<E>,
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
            backend: ConvBackend::default(),
            cache_x: None,
            scratch: Scratch::default(),
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
    /// Selects the kernel implementation (builder-style).
    pub fn with_backend(mut self, backend: ConvBackend) -> Self {
        self.backend = backend;
        self
    }

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

    /// Lowering geometry over the *output* grid of one sample (the adjoint
    /// of a convolution gathering from that grid, anchored at this layer's
    /// input positions).
    fn geom(&self, din: &Dims5, dout: &Dims5) -> ConvGeom {
        ConvGeom {
            c: self.out_c,
            dims: (dout.d, dout.h, dout.w),
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
            out: (din.d, din.h, din.w),
        }
    }

    /// Converts the layer weights to another element type (through `f64`);
    /// the copy starts with empty scratch and no cached activation.
    pub fn cast_as<T: Element>(&self) -> ConvTranspose3d<T> {
        ConvTranspose3d {
            in_c: self.in_c,
            out_c: self.out_c,
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
            weight: self.weight.cast_as(),
            bias: self.bias.cast_as(),
            backend: self.backend,
            cache_x: None,
            scratch: Scratch::default(),
        }
    }

    /// Direct (scatter-loop) forward — the reference kernel, generic over
    /// the element type (identical operation order for every `E`).
    fn forward_direct(&self, x: &Tensor<E>, din: &Dims5, dout: &Dims5) -> Tensor<E> {
        let mut y: Tensor<E> = Tensor::zeros([dout.n, dout.c, dout.d, dout.h, dout.w]);
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
                                            let wv =
                                                ws[((ic * self.out_c + oc) * kd + kdi) * kh * kw
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
}

impl<E: GemmElement> ConvTranspose3d<E> {
    /// Shared-state inference forward: bitwise identical to
    /// `forward(x, false)` at the default `f64` element, but `&self` —
    /// transient buffers live in the caller's [`Workspace`] so shared
    /// weights serve concurrent callers.
    pub fn infer(&self, x: &Tensor<E>, ws: &mut Workspace<E>) -> Tensor<E> {
        let din = Dims5::of(x);
        assert_eq!(din.c, self.in_c, "channel mismatch");
        let dout = self.out_dims(&din);
        if self.backend == ConvBackend::Direct {
            return self.forward_direct(x, &din, &dout);
        }
        let geom = self.geom(&din, &dout);
        let (kdim, p) = (geom.rows(), geom.cols());
        let ow = din.w;
        let mut y = Tensor::zeros([dout.n, dout.c, dout.d, dout.h, dout.w]);
        let pa = pack_a(self.weight.data.as_slice(), kdim, self.in_c, true);
        let xs = x.as_slice();
        let bs = self.bias.data.as_slice();
        let outvol = geom.vol();
        let ys = y.as_mut_slice();
        let Workspace { col, tmp, .. } = ws;
        for ni in 0..din.n {
            let xslab = &xs[ni * self.in_c * p..][..self.in_c * p];
            let yslab = &mut ys[ni * self.out_c * outvol..][..self.out_c * outvol];
            for (oc, row) in yslab.chunks_exact_mut(outvol).enumerate() {
                row.fill(bs[oc]);
            }
            for (ar0, ar1) in anchor_chunks(&geom) {
                let cc = (ar1 - ar0) * ow;
                tmp.resize(self.in_c * cc, E::ZERO);
                for ic in 0..self.in_c {
                    tmp[ic * cc..(ic + 1) * cc]
                        .copy_from_slice(&xslab[ic * p + ar0 * ow..ic * p + ar1 * ow]);
                }
                col.resize(kdim * cc, E::ZERO);
                gemm_prepacked(&pa, tmp, false, col, cc, false);
                col2im_range_accumulate(&geom, col, yslab, ar0, ar1);
            }
        }
        y
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

impl ConvTranspose3d {
    /// GEMM forward: per sample, `Y_n = col2im(Vᵀ · X_n) + b`, sharing the
    /// packed `Vᵀ` panels across the batch and streaming cache-resident
    /// patch chunks at megavoxel grids.
    fn forward_gemm(&mut self, x: &Tensor, din: &Dims5, dout: &Dims5) -> Tensor {
        let geom = self.geom(din, dout);
        let (kdim, p) = (geom.rows(), geom.cols());
        let ow = din.w;
        let mut y = Tensor::zeros([dout.n, dout.c, dout.d, dout.h, dout.w]);
        // The [in_c, out_c, kd, kh, kw] weight is the in_c × kdim matrix
        // row-major; its transpose is the kdim × in_c left operand.
        let pa = pack_a(self.weight.data.as_slice(), kdim, self.in_c, true);
        let xs = x.as_slice();
        let bs = self.bias.data.as_slice();
        let outvol = geom.vol();
        let ys = y.as_mut_slice();
        let Scratch { col, tmp, .. } = &mut self.scratch;
        for ni in 0..din.n {
            let xslab = &xs[ni * self.in_c * p..][..self.in_c * p];
            let yslab = &mut ys[ni * self.out_c * outvol..][..self.out_c * outvol];
            for (oc, row) in yslab.chunks_exact_mut(outvol).enumerate() {
                row.fill(bs[oc]);
            }
            for (ar0, ar1) in anchor_chunks(&geom) {
                let cc = (ar1 - ar0) * ow;
                // Contiguous copy of this chunk's input columns (rows of
                // X_n are strided by the full position count).
                tmp.resize(self.in_c * cc, 0.0);
                for ic in 0..self.in_c {
                    tmp[ic * cc..(ic + 1) * cc]
                        .copy_from_slice(&xslab[ic * p + ar0 * ow..ic * p + ar1 * ow]);
                }
                col.resize(kdim * cc, 0.0);
                gemm_prepacked(&pa, tmp, false, col, cc, false);
                col2im_range_accumulate(&geom, col, yslab, ar0, ar1);
            }
        }
        y
    }

    /// GEMM backward: `dX_n = V · im2col(dY_n)` and
    /// `dV += X_n · im2col(dY_n)ᵀ`, reusing each chunk's gathered
    /// gradient-patch matrix for both products.
    fn backward_gemm(
        &mut self,
        x: &Tensor,
        grad_out: &Tensor,
        din: &Dims5,
        dout: &Dims5,
    ) -> Tensor {
        let geom = self.geom(din, dout);
        let (kdim, p) = (geom.rows(), geom.cols());
        let ow = din.w;
        let g = grad_out.as_slice();
        let xs = x.as_slice();
        let outvol = geom.vol();
        let pa = pack_a(self.weight.data.as_slice(), self.in_c, kdim, false);
        let gw = self.weight.grad.as_mut_slice();
        let mut gx = Tensor::zeros([din.n, din.c, din.d, din.h, din.w]);
        let gxs = gx.as_mut_slice();
        let Scratch { col, tmp, .. } = &mut self.scratch;
        for ni in 0..din.n {
            let gslab = &g[ni * self.out_c * outvol..][..self.out_c * outvol];
            let xslab = &xs[ni * self.in_c * p..][..self.in_c * p];
            let gxslab = &mut gxs[ni * self.in_c * p..][..self.in_c * p];
            for (ar0, ar1) in anchor_chunks(&geom) {
                let cc = (ar1 - ar0) * ow;
                col.resize(kdim * cc, 0.0);
                im2col_range(&geom, gslab, col, ar0, ar1);
                // Data gradient chunk, written straight into the strided
                // rows of dX_n.
                let col = &col[..];
                gemm_prepacked_with(
                    &pa,
                    cc,
                    |k0, kc_len, j0, jn, bp| pack_b_slab(col, cc, 1, k0, kc_len, j0, jn, bp),
                    &mut gxslab[ar0 * ow..],
                    p,
                    None,
                    false,
                );
                // Weight gradient over this chunk's input columns.
                tmp.resize(self.in_c * cc, 0.0);
                for ic in 0..self.in_c {
                    tmp[ic * cc..(ic + 1) * cc]
                        .copy_from_slice(&xslab[ic * p + ar0 * ow..ic * p + ar1 * ow]);
                }
                gemm(self.in_c, kdim, cc, tmp, false, col, true, gw, true);
            }
        }
        gx
    }

    /// Accumulates the per-channel bias gradient (shared lowering helper).
    fn bias_grad(&mut self, grad_out: &Tensor, dout: &Dims5) {
        bias_grad(
            grad_out.as_slice(),
            dout.n,
            dout.c,
            dout.vol(),
            self.bias.grad.as_mut_slice(),
        );
    }

    /// Direct (gather-loop) backward — the reference kernels for the input
    /// and weight gradients.
    fn backward_direct(
        &mut self,
        x: &Tensor,
        grad_out: &Tensor,
        din: &Dims5,
        dout: &Dims5,
    ) -> Tensor {
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
                                            let wv =
                                                ws[((ic * self.out_c + oc) * kd + kdi) * kh * kw
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
                                                    + ((od - pd) * dout.h + (oh - ph)) * dout.w
                                                    + (ow - pw)];
                                                gw[(oc * kd + kdi) * kh * kw + khi * kw + kwi] +=
                                                    xv * gv;
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

impl Layer for ConvTranspose3d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let din = Dims5::of(x);
        assert_eq!(din.c, self.in_c, "channel mismatch");
        let dout = self.out_dims(&din);
        let y = match self.backend {
            ConvBackend::Direct => self.forward_direct(x, &din, &dout),
            ConvBackend::Gemm => self.forward_gemm(x, &din, &dout),
        };
        if train {
            self.cache_x = Some(x.clone());
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // `take` instead of clone: backward consumes the cached activation,
        // so the hot path never copies a full input tensor.
        let x = self.cache_x.take().expect("backward before forward");
        let din = Dims5::of(&x);
        let dout = self.out_dims(&din);
        assert_eq!(grad_out.dims(), &[dout.n, dout.c, dout.d, dout.h, dout.w]);
        self.bias_grad(grad_out, &dout);
        match self.backend {
            ConvBackend::Direct => self.backward_direct(&x, grad_out, &din, &dout),
            ConvBackend::Gemm => self.backward_gemm(&x, grad_out, &din, &dout),
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{check_layer_gradient, FD_EPS, FD_TOL};
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
        let t = ConvTranspose3d::up2(2, 2, false, &mut rng()).with_backend(ConvBackend::Gemm);
        check_layer_gradient(Box::new(t), &[1, 2, 3, 3, 3], 0.0, FD_EPS, FD_TOL);
    }

    #[test]
    fn gradcheck_direct_backend_explicit() {
        let t = ConvTranspose3d::up2(2, 2, false, &mut rng()).with_backend(ConvBackend::Direct);
        check_layer_gradient(Box::new(t), &[1, 2, 3, 3, 3], 0.0, FD_EPS, FD_TOL);
    }

    #[test]
    fn infer_matches_forward_bitwise_both_backends() {
        let mut r = rng();
        for backend in [ConvBackend::Gemm, ConvBackend::Direct] {
            let mut t = ConvTranspose3d::up2(3, 2, false, &mut r).with_backend(backend);
            let x = Tensor::rand_uniform([2, 3, 5, 6, 7], -1.0, 1.0, &mut r);
            let y = t.forward(&x, false);
            let mut ws = crate::workspace::Workspace::new();
            let yi = t.infer(&x, &mut ws);
            assert!(y
                .as_slice()
                .iter()
                .zip(yi.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn gemm_chunked_path_matches_direct_at_64cubed() {
        // The up2 decoder shape at 64³ output exceeds the chunk budget, so
        // this exercises the streamed forward and backward GEMM paths.
        let mut r = rng();
        let mut direct =
            ConvTranspose3d::up2(4, 2, false, &mut r).with_backend(ConvBackend::Direct);
        let mut gemm = direct.clone().with_backend(ConvBackend::Gemm);
        let x = Tensor::rand_uniform([1, 4, 48, 48, 48], -1.0, 1.0, &mut r);
        let yd = direct.forward(&x, true);
        let yg = gemm.forward(&x, true);
        assert_eq!(yd.dims(), &[1, 2, 96, 96, 96]);
        assert!(yd.rel_l2_error(&yg) < 1e-12, "{}", yd.rel_l2_error(&yg));
        let g = Tensor::rand_uniform(yd.dims().to_vec(), -1.0, 1.0, &mut r);
        let gxd = direct.backward(&g);
        let gxg = gemm.backward(&g);
        assert!(gxd.rel_l2_error(&gxg) < 1e-12, "{}", gxd.rel_l2_error(&gxg));
        assert!(direct.weight.grad.rel_l2_error(&gemm.weight.grad) < 1e-12);
        assert!(direct.bias.grad.rel_l2_error(&gemm.bias.grad) < 1e-12);
    }
}
