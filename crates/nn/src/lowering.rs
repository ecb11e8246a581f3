//! Shared im2col / col2im lowering for the GEMM convolution backend.
//!
//! All four convolution passes in this crate reduce to one matrix product
//! per sample (computed by [`mgd_tensor::matmul`]):
//!
//! | pass                        | product                                     |
//! |-----------------------------|---------------------------------------------|
//! | `Conv3d` forward            | `Y = W · im2col(X)`                          |
//! | `Conv3d` ∂input             | `dX = col2im(Wᵀ · dY)`                       |
//! | `Conv3d` ∂weight            | `dW += dY · im2col(X)ᵀ`                      |
//! | `ConvTranspose3d` forward   | `Y = col2im(Vᵀ · X) + b`                     |
//! | `ConvTranspose3d` ∂input    | `dX = V · im2col(dY)`                        |
//! | `ConvTranspose3d` ∂weight   | `dV += X · im2col(dY)ᵀ`                      |
//!
//! where the patch matrix of a sample gathers one `(channel, kernel-tap)`
//! row per matrix row and one sliding-window position per column. A
//! transpose convolution is the adjoint of a convolution with the same
//! kernel/stride/padding, so the *same two* gather/scatter routines serve
//! both layers — `Conv3d` lowers over its input grid, `ConvTranspose3d`
//! over its output grid.
//!
//! The `Conv3d` forward — every inference pass and the training forward
//! that does not keep its patches — never forms `im2col(X)`: `conv_forward`
//! gathers patch values from `X` straight into the GEMM's packed B panels
//! (`PatchPanels`) and adds the bias in the GEMM write-back, over the
//! whole sample at once. The remaining passes materialize patch columns
//! in `CHUNK_ELEMS`-bounded (8 MiB) chunks.
//!
//! The gather/scatter routines parallelize over patch rows (gather) or
//! channels (scatter); every task writes a disjoint slice in a fixed
//! order, so results are bitwise deterministic for any thread count.

use crate::layer::Triple;
use mgd_tensor::matmul::{gemm_prepacked_with, PackedA};
use mgd_tensor::par::{par_jobs, SyncSlice};
use mgd_tensor::{Element, GemmElement};
use serde::{Deserialize, Serialize};

/// Which kernel implementation a convolution layer runs.
///
/// `Gemm` (the default) lowers onto the blocked matmul of
/// [`mgd_tensor::matmul`]; `Direct` keeps the original scalar triple-loop
/// kernels. The two are numerically equivalent to f64 round-off (enforced
/// by property tests), so `Direct` serves as a bisectable reference and a
/// fallback for debugging.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConvBackend {
    /// Scalar sliding-window loops (reference implementation).
    Direct,
    /// im2col / col2im lowering onto the blocked, register-tiled GEMM.
    #[default]
    Gemm,
}

/// Sliding-window geometry of one lowering: `c` channels of a
/// `dims`-shaped grid gathered through `kernel`/`stride`/`padding` windows
/// anchored at `out` positions.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ConvGeom {
    /// Channels of the gathered/scattered grid.
    pub c: usize,
    /// Spatial extents (d, h, w) of the gathered/scattered grid.
    pub dims: Triple,
    /// Kernel extents.
    pub kernel: Triple,
    /// Strides.
    pub stride: Triple,
    /// Zero padding.
    pub padding: Triple,
    /// Window-anchor counts (the patch-matrix column space).
    pub out: Triple,
}

impl ConvGeom {
    /// Kernel volume.
    pub fn kvol(&self) -> usize {
        self.kernel.0 * self.kernel.1 * self.kernel.2
    }

    /// Patch-matrix rows: one per `(channel, kernel tap)`.
    pub fn rows(&self) -> usize {
        self.c * self.kvol()
    }

    /// Patch-matrix columns: one per window position.
    pub fn cols(&self) -> usize {
        self.out.0 * self.out.1 * self.out.2
    }

    /// Grid volume per channel.
    pub fn vol(&self) -> usize {
        self.dims.0 * self.dims.1 * self.dims.2
    }
}

/// The valid anchor range `[lo, hi)` along one axis for kernel tap `k`:
/// anchors `o` with `0 <= o*stride + k - pad < extent`.
#[inline]
fn anchor_range(
    k: usize,
    stride: usize,
    pad: usize,
    extent: usize,
    anchors: usize,
) -> (usize, usize) {
    let lo = if k >= pad {
        0
    } else {
        (pad - k).div_ceil(stride)
    };
    let hi = if extent + pad > k {
        ((extent + pad - k - 1) / stride + 1).min(anchors)
    } else {
        0
    };
    (lo.min(hi), hi)
}

/// Gathers `src` (one sample, `c × dims` row-major) into the patch matrix
/// `col` (`rows() × cols()` row-major). Out-of-grid taps become zeros.
pub(crate) fn im2col<E: Element>(g: &ConvGeom, src: &[E], col: &mut [E]) {
    im2col_range(g, src, col, 0, g.out.0 * g.out.1);
}

/// [`im2col`] restricted to anchor rows `[ar0, ar1)` of the flattened
/// `(o_d, o_h)` space — the column blocks `[ar0*ow, ar1*ow)` of the full
/// patch matrix. Chunking along this axis bounds the patch scratch of the
/// backward passes at megavoxel grids (see [`CHUNK_ELEMS`]).
pub(crate) fn im2col_range<E: Element>(
    g: &ConvGeom,
    src: &[E],
    col: &mut [E],
    ar0: usize,
    ar1: usize,
) {
    let rows = g.rows();
    let cols = (ar1 - ar0) * g.out.2;
    assert_eq!(src.len(), g.c * g.vol());
    assert_eq!(col.len(), rows * cols);
    let (_, kh, kw) = g.kernel;
    let (sd, sh, sw) = g.stride;
    let (pd, ph, pw) = g.padding;
    let (dd, dh, dw) = g.dims;
    let (od, oh, ow) = g.out;
    let _ = od;
    let colptr = SyncSlice::new(col);
    par_jobs(rows, cols, |r| {
        // SAFETY: row task `r` exclusively owns col[r*cols .. (r+1)*cols].
        let dst = unsafe { colptr.slice_mut(r * cols, cols) };
        let (ci, tap) = (r / g.kvol(), r % g.kvol());
        let (kdi, rem) = (tap / (kh * kw), tap % (kh * kw));
        let (khi, kwi) = (rem / kw, rem % kw);
        let (dlo, dhi) = anchor_range(kdi, sd, pd, dd, g.out.0);
        let (hlo, hhi) = anchor_range(khi, sh, ph, dh, oh);
        let (wlo, whi) = anchor_range(kwi, sw, pw, dw, ow);
        let chan = &src[ci * dd * dh * dw..(ci + 1) * dd * dh * dw];
        let mut idx = 0usize;
        for a in ar0..ar1 {
            let (o_d, o_h) = (a / oh, a % oh);
            if o_d < dlo || o_d >= dhi || o_h < hlo || o_h >= hhi {
                dst[idx..idx + ow].fill(E::ZERO);
                idx += ow;
                continue;
            }
            let id = o_d * sd + kdi - pd;
            let ih = o_h * sh + khi - ph;
            let srow = (id * dh + ih) * dw;
            dst[idx..idx + wlo].fill(E::ZERO);
            if whi > wlo {
                let iw0 = wlo * sw + kwi - pw;
                if sw == 1 {
                    dst[idx + wlo..idx + whi]
                        .copy_from_slice(&chan[srow + iw0..srow + iw0 + (whi - wlo)]);
                } else {
                    for t in 0..whi - wlo {
                        dst[idx + wlo + t] = chan[srow + iw0 + t * sw];
                    }
                }
            }
            dst[idx + whi..idx + ow].fill(E::ZERO);
            idx += ow;
        }
    });
}

/// Scatters the patch matrix `col` back onto `dst` (one sample,
/// `c × dims` row-major), **accumulating** overlapping windows.
///
/// This is the exact adjoint of [`im2col`]; rows map to the same
/// `(channel, tap)` pairs, so tasks parallelize over channels (each channel
/// owns a disjoint `dst` slab).
pub(crate) fn col2im_accumulate<E: Element>(g: &ConvGeom, col: &[E], dst: &mut [E]) {
    col2im_range_accumulate(g, col, dst, 0, g.out.0 * g.out.1);
}

/// [`col2im_accumulate`] restricted to anchor rows `[ar0, ar1)` of the
/// flattened `(o_d, o_h)` space. Successive chunks scatter onto overlapping
/// window footprints, so chunks must be processed sequentially (tasks
/// inside one chunk still parallelize over channels).
pub(crate) fn col2im_range_accumulate<E: Element>(
    g: &ConvGeom,
    col: &[E],
    dst: &mut [E],
    ar0: usize,
    ar1: usize,
) {
    let rows = g.rows();
    let cols = (ar1 - ar0) * g.out.2;
    assert_eq!(dst.len(), g.c * g.vol());
    assert_eq!(col.len(), rows * cols);
    let (_, kh, kw) = g.kernel;
    let (sd, sh, sw) = g.stride;
    let (pd, ph, pw) = g.padding;
    let (dd, dh, dw) = g.dims;
    let (_, oh, ow) = g.out;
    let kvol = g.kvol();
    let dstptr = SyncSlice::new(dst);
    par_jobs(g.c, kvol * cols, |ci| {
        // SAFETY: channel task `ci` exclusively owns its dst slab.
        let chan = unsafe { dstptr.slice_mut(ci * dd * dh * dw, dd * dh * dw) };
        for tap in 0..kvol {
            let r = ci * kvol + tap;
            let src = &col[r * cols..(r + 1) * cols];
            let (kdi, rem) = (tap / (kh * kw), tap % (kh * kw));
            let (khi, kwi) = (rem / kw, rem % kw);
            let (dlo, dhi) = anchor_range(kdi, sd, pd, dd, g.out.0);
            let (hlo, hhi) = anchor_range(khi, sh, ph, dh, oh);
            let (wlo, whi) = anchor_range(kwi, sw, pw, dw, ow);
            if whi <= wlo {
                continue;
            }
            let iw0 = wlo * sw + kwi - pw;
            for a in ar0..ar1 {
                let (o_d, o_h) = (a / oh, a % oh);
                if o_d < dlo || o_d >= dhi || o_h < hlo || o_h >= hhi {
                    continue;
                }
                let id = o_d * sd + kdi - pd;
                let ih = o_h * sh + khi - ph;
                let drow = (id * dh + ih) * dw;
                let srow = (a - ar0) * ow;
                if sw == 1 {
                    for t in 0..whi - wlo {
                        chan[drow + iw0 + t] += src[srow + wlo + t];
                    }
                } else {
                    for t in 0..whi - wlo {
                        chan[drow + iw0 + t * sw] += src[srow + wlo + t];
                    }
                }
            }
        }
    });
}

/// One patch-matrix row — a `(channel, kernel tap)` pair — resolved once
/// per lowering so the panel gather does no index division per row.
#[derive(Clone, Copy, Debug)]
struct Tap {
    /// Offset of the tap's channel in the source sample.
    chan: usize,
    /// Kernel offsets along (d, h, w).
    kd: usize,
    kh: usize,
    kw: usize,
    /// Valid anchor range `[wlo, whi)` along w (see [`anchor_range`]).
    wlo: usize,
    whi: usize,
}

/// Implicit im2col: the patch matrix of one sample, restricted to the
/// anchor columns from `q0` on, gathered straight from the input tensor
/// into GEMM B panels — the gather is the pack, so the patch matrix is
/// never materialized. [`PatchPanels::fill`] is the B-panel fill of
/// [`gemm_prepacked_with`] and writes exactly the panels that
/// [`im2col_range`] followed by [`pack_b_slab`] would.
///
/// [`pack_b_slab`]: mgd_tensor::matmul::pack_b_slab
pub(crate) struct PatchPanels<'a, E> {
    g: &'a ConvGeom,
    src: &'a [E],
    taps: Vec<Tap>,
    q0: usize,
}

impl<'a, E: GemmElement> PatchPanels<'a, E> {
    /// Panels of sample `src` (`c × dims` row-major) over the patch columns
    /// `q0..` (a column is a flattened `(o_d, o_h, o_w)` anchor).
    pub(crate) fn new(g: &'a ConvGeom, src: &'a [E], q0: usize) -> Self {
        assert_eq!(src.len(), g.c * g.vol());
        let (_, kh, kw) = g.kernel;
        let taps = (0..g.rows())
            .map(|r| {
                let (ci, tap) = (r / g.kvol(), r % g.kvol());
                let (kdi, rem) = (tap / (kh * kw), tap % (kh * kw));
                let kwi = rem % kw;
                let (wlo, whi) = anchor_range(kwi, g.stride.2, g.padding.2, g.dims.2, g.out.2);
                Tap {
                    chan: ci * g.vol(),
                    kd: kdi,
                    kh: rem / kw,
                    kw: kwi,
                    wlo,
                    whi,
                }
            })
            .collect();
        PatchPanels { g, src, taps, q0 }
    }

    /// Writes patch rows `[k0, k0+kc_len)` × columns `[q0+j0, q0+j0+jn)`
    /// into `NR`-wide panels (`bpack[np][kk*NR + nr]`), zero-padding the
    /// ragged last panel.
    ///
    /// The columns are walked as anchor-row runs (one row of window
    /// positions: contiguous in the input along w). Per run and tap the
    /// in-grid range is copied and the padding zero-filled as whole
    /// ranges, cut only at panel boundaries.
    pub(crate) fn fill(&self, k0: usize, kc_len: usize, j0: usize, jn: usize, bpack: &mut [E]) {
        let nr = E::NR;
        let g = self.g;
        let (_, oh, ow) = g.out;
        let (sd, sh, sw) = g.stride;
        let (pd, ph, pw) = g.padding;
        let (dd, dh, dw) = g.dims;
        let taps = &self.taps[k0..k0 + kc_len];
        let mut out = Rows {
            bpack: &mut bpack[..jn.div_ceil(nr) * kc_len * nr],
            pstride: kc_len * nr,
        };
        let mut c = 0;
        while c < jn {
            let (a, w0) = ((self.q0 + j0 + c) / ow, (self.q0 + j0 + c) % ow);
            let len = (ow - w0).min(jn - c);
            // Padded input coordinates of this anchor row's tap-0 window.
            let (zd, zh) = ((a / oh) * sd, (a % oh) * sh);
            for (kk, t) in taps.iter().enumerate() {
                let (id, ih) = ((zd + t.kd).wrapping_sub(pd), (zh + t.kh).wrapping_sub(ph));
                let lo = t.wlo.clamp(w0, w0 + len);
                let hi = t.whi.clamp(lo, w0 + len);
                if id >= dd || ih >= dh || hi == lo {
                    out.zero(kk, c, len);
                    continue;
                }
                // `lo >= wlo`, so the first window column is in-grid.
                let iw0 = lo * sw + t.kw - pw;
                let row = &self.src[t.chan + (id * dh + ih) * dw..][..dw];
                out.zero(kk, c, lo - w0);
                out.copy(kk, c + lo - w0, hi - lo, &row[iw0..], sw);
                out.zero(kk, c + hi - w0, w0 + len - hi);
            }
            c += len;
        }
        let nvalid = jn - (jn - 1) / nr * nr;
        for kk in 0..kc_len {
            out.zero(kk, jn, nr - nvalid);
        }
    }
}

/// Row `kk` of a packed B slab seen as one logical row of columns, split
/// across `NR`-wide panels `pstride` elements apart.
struct Rows<'a, E> {
    bpack: &'a mut [E],
    pstride: usize,
}

impl<E: GemmElement> Rows<'_, E> {
    /// Copies the `n` values `src[0], src[sw], src[2·sw], …` into columns
    /// `[c, c + n)` of row `kk`.
    #[inline(always)]
    fn copy(&mut self, kk: usize, c: usize, n: usize, src: &[E], sw: usize) {
        self.put(kk, c, n, |dst, s| {
            if sw == 1 {
                dst.copy_from_slice(&src[s..s + dst.len()]);
            } else {
                for (d, &x) in dst.iter_mut().zip(src[s * sw..].iter().step_by(sw)) {
                    *d = x;
                }
            }
        });
    }

    /// Zero-fills columns `[c, c + len)` of row `kk`.
    #[inline(always)]
    fn zero(&mut self, kk: usize, c: usize, len: usize) {
        self.put(kk, c, len, |dst, _| dst.fill(E::ZERO));
    }

    /// Hands `f` each panel-bounded piece of columns `[c, c + len)` of row
    /// `kk` with its offset into the range; whole-panel pieces have the
    /// constant width `NR`, so their copies compile to a few vector moves.
    #[inline(always)]
    fn put(&mut self, kk: usize, c: usize, len: usize, mut f: impl FnMut(&mut [E], usize)) {
        let nr = E::NR;
        let (mut j, end) = (c, c + len);
        while j < end {
            let (np, lane) = (j / nr, j % nr);
            let start = np * self.pstride + kk * nr;
            if lane == 0 && end - j >= nr {
                f(&mut self.bpack[start..start + nr], j - c);
                j += nr;
            } else {
                let l = (nr - lane).min(end - j);
                f(&mut self.bpack[start + lane..start + lane + l], j - c);
                j += l;
            }
        }
    }
}

/// The `Conv3d` forward over anchor rows `[ar0, ar1)` of one sample:
/// `y[oc, j] = bias[oc] + (W · patches(src))[oc, ar0·ow + j]`, with the
/// rows of `y` at stride `ldy`. One GEMM over the whole range — no
/// chunking, no patch matrix, no separate bias pass — whose every output
/// element is one fixed-order reduction over the full shared dimension,
/// so any split of the anchor rows yields the same bits.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv_forward<E: GemmElement>(
    pa: &PackedA<E>,
    g: &ConvGeom,
    src: &[E],
    bias: &[E],
    ar0: usize,
    ar1: usize,
    y: &mut [E],
    ldy: usize,
) {
    let ow = g.out.2;
    let panels = PatchPanels::new(g, src, ar0 * ow);
    gemm_prepacked_with(
        pa,
        (ar1 - ar0) * ow,
        |k0, kc_len, j0, jn, bpack| panels.fill(k0, kc_len, j0, jn, bpack),
        y,
        ldy,
        Some(bias),
        false,
    );
}

/// Reusable per-layer lowering scratch: the patch-matrix buffers of the
/// GEMM backend, grown on demand and kept across calls so steady-state
/// training does no per-call allocation.
///
/// `Clone` intentionally produces an *empty* scratch: replicated models
/// (data-parallel workers, [`crate::unet::UNet::deepened`]) must not drag
/// megabytes of transient buffers through the copy.
#[derive(Debug, Default)]
pub(crate) struct Scratch<E: Element = f64> {
    /// Patch matrix of the chunk currently being processed.
    pub col: Vec<E>,
    /// Second patch buffer (data-gradient product target in backward).
    pub col2: Vec<E>,
    /// Contiguous copy of a strided row-chunk operand (gradient or input
    /// columns of one chunk).
    pub tmp: Vec<E>,
    /// Patch matrices of the whole last forward batch, cached for the
    /// weight-gradient GEMM when within [`PATCH_CACHE_MAX`].
    pub cached: Vec<E>,
    /// Whether `cached` holds the last training forward's patch matrices.
    pub cached_valid: bool,
}

impl<E: Element> Clone for Scratch<E> {
    fn clone(&self) -> Self {
        Scratch::default()
    }
}

/// Largest total patch-matrix element count (per layer, whole batch) kept
/// alive between forward and backward: 2^23 elements = 64 MiB of f64.
/// Above this, backward re-gathers patches per sample from the cached
/// input instead.
pub(crate) const PATCH_CACHE_MAX: usize = 1 << 23;

/// Target element count of one patch-matrix chunk (2^20 ≈ 8 MiB of f64)
/// for the passes that still materialize patch columns — the backward
/// passes and the `ConvTranspose3d` forward. It bounds their transient
/// scratch at megavoxel grids; at 8 MiB a chunk lives in L3, not in the
/// 2 MiB per-core L2. The `Conv3d` forward does not chunk: it gathers
/// straight into GEMM panels ([`conv_forward`]).
pub(crate) const CHUNK_ELEMS: usize = 1 << 20;

/// Splits a sample's anchor rows (flattened `(o_d, o_h)` space) into
/// chunks of roughly [`CHUNK_ELEMS`] patch elements each, returned as an
/// iterator of `(ar0, ar1)` ranges.
pub(crate) fn anchor_chunks(g: &ConvGeom) -> impl Iterator<Item = (usize, usize)> {
    let rows = g.out.0 * g.out.1;
    let per_row = g.rows() * g.out.2;
    let step = (CHUNK_ELEMS / per_row.max(1)).clamp(1, rows.max(1));
    (0..rows.div_ceil(step)).map(move |i| (i * step, ((i + 1) * step).min(rows)))
}

/// Bias gradient `gb[oc] += Σ_{n,voxel} grad[n, oc, voxel]` shared by
/// `Conv3d` and `ConvTranspose3d`, parallel over output channels (each
/// task owns exactly one accumulator slot).
pub(crate) fn bias_grad(grad: &[f64], n: usize, c: usize, vol: usize, gb: &mut [f64]) {
    assert_eq!(grad.len(), n * c * vol);
    assert_eq!(gb.len(), c);
    let gbptr = SyncSlice::new(gb);
    par_jobs(c, n * vol, |oc| {
        let mut s = 0.0;
        for ni in 0..n {
            let base = (ni * c + oc) * vol;
            for v in &grad[base..base + vol] {
                s += v;
            }
        }
        // SAFETY: each oc task owns exactly gb[oc].
        unsafe { gbptr.add(oc, s) };
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgd_tensor::matmul::pack_b_slab;
    use proptest::prelude::*;

    fn geom() -> ConvGeom {
        ConvGeom {
            c: 2,
            dims: (1, 4, 5),
            kernel: (1, 3, 3),
            stride: (1, 1, 1),
            padding: (0, 1, 1),
            out: (1, 4, 5),
        }
    }

    /// Brute-force reference gather.
    fn im2col_naive(g: &ConvGeom, src: &[f64]) -> Vec<f64> {
        let mut col = vec![0.0; g.rows() * g.cols()];
        let (_, kh, kw) = g.kernel;
        for r in 0..g.rows() {
            let (ci, tap) = (r / g.kvol(), r % g.kvol());
            let (kdi, rem) = (tap / (kh * kw), tap % (kh * kw));
            let (khi, kwi) = (rem / kw, rem % kw);
            let mut p = 0;
            for o_d in 0..g.out.0 {
                for o_h in 0..g.out.1 {
                    for o_w in 0..g.out.2 {
                        let id = (o_d * g.stride.0 + kdi) as isize - g.padding.0 as isize;
                        let ih = (o_h * g.stride.1 + khi) as isize - g.padding.1 as isize;
                        let iw = (o_w * g.stride.2 + kwi) as isize - g.padding.2 as isize;
                        let inside = id >= 0
                            && (id as usize) < g.dims.0
                            && ih >= 0
                            && (ih as usize) < g.dims.1
                            && iw >= 0
                            && (iw as usize) < g.dims.2;
                        if inside {
                            let off = ((ci * g.dims.0 + id as usize) * g.dims.1 + ih as usize)
                                * g.dims.2
                                + iw as usize;
                            col[r * g.cols() + p] = src[off];
                        }
                        p += 1;
                    }
                }
            }
        }
        col
    }

    #[test]
    fn im2col_matches_naive_gather() {
        for g in [
            geom(),
            ConvGeom {
                c: 3,
                dims: (4, 4, 4),
                kernel: (3, 3, 3),
                stride: (1, 1, 1),
                padding: (1, 1, 1),
                out: (4, 4, 4),
            },
            ConvGeom {
                c: 1,
                dims: (1, 6, 6),
                kernel: (1, 3, 3),
                stride: (1, 2, 2),
                padding: (0, 1, 1),
                out: (1, 3, 3),
            },
            ConvGeom {
                c: 2,
                dims: (3, 6, 10),
                kernel: (2, 2, 2),
                stride: (2, 2, 2),
                padding: (0, 0, 0),
                out: (1, 3, 5),
            },
        ] {
            let src: Vec<f64> = (0..g.c * g.vol()).map(|i| i as f64 + 0.5).collect();
            let mut col = vec![f64::NAN; g.rows() * g.cols()];
            im2col(&g, &src, &mut col);
            assert_eq!(col, im2col_naive(&g, &src), "geom {g:?}");
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), c> == <x, col2im(c)> for random-ish x, c — the
        // defining property that makes the backward lowerings correct.
        let g = ConvGeom {
            c: 2,
            dims: (2, 5, 4),
            kernel: (2, 3, 2),
            stride: (1, 2, 1),
            padding: (1, 1, 1),
            out: (3, 3, 5),
        };
        let x: Vec<f64> = (0..g.c * g.vol())
            .map(|i| ((i * 7 + 3) % 11) as f64 - 5.0)
            .collect();
        let cmat: Vec<f64> = (0..g.rows() * g.cols())
            .map(|i| ((i * 5 + 1) % 13) as f64 - 6.0)
            .collect();
        let mut col = vec![0.0; g.rows() * g.cols()];
        im2col(&g, &x, &mut col);
        let mut back = vec![0.0; g.c * g.vol()];
        col2im_accumulate(&g, &cmat, &mut back);
        let lhs: f64 = col.iter().zip(&cmat).map(|(a, b)| a * b).sum();
        let rhs: f64 = x.iter().zip(&back).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() < 1e-9, "{lhs} vs {rhs}");
    }

    #[test]
    fn chunked_gather_scatter_matches_whole() {
        let g = ConvGeom {
            c: 2,
            dims: (3, 5, 4),
            kernel: (2, 3, 2),
            stride: (1, 1, 2),
            padding: (1, 1, 0),
            out: (4, 5, 2),
        };
        let src: Vec<f64> = (0..g.c * g.vol()).map(|i| (i as f64).sin()).collect();
        let mut whole = vec![0.0; g.rows() * g.cols()];
        im2col(&g, &src, &mut whole);
        let arows = g.out.0 * g.out.1;
        // Gather in ragged chunks and compare column blocks.
        for step in [1usize, 3, 7, arows] {
            let mut ar0 = 0;
            while ar0 < arows {
                let ar1 = (ar0 + step).min(arows);
                let cols = (ar1 - ar0) * g.out.2;
                let mut part = vec![f64::NAN; g.rows() * cols];
                im2col_range(&g, &src, &mut part, ar0, ar1);
                for r in 0..g.rows() {
                    assert_eq!(
                        &part[r * cols..(r + 1) * cols],
                        &whole[r * g.cols() + ar0 * g.out.2..r * g.cols() + ar1 * g.out.2],
                        "step {step} ar {ar0}..{ar1} row {r}"
                    );
                }
                ar0 = ar1;
            }
        }
        // Scatter in chunks and compare against the whole scatter.
        let cmat: Vec<f64> = (0..g.rows() * g.cols()).map(|i| (i as f64).cos()).collect();
        let mut whole_dst = vec![0.0; g.c * g.vol()];
        col2im_accumulate(&g, &cmat, &mut whole_dst);
        let mut chunk_dst = vec![0.0; g.c * g.vol()];
        for (ar0, ar1) in [(0usize, 2usize), (2, 9), (9, arows)] {
            let cols = (ar1 - ar0) * g.out.2;
            let mut part = vec![0.0; g.rows() * cols];
            for r in 0..g.rows() {
                part[r * cols..(r + 1) * cols].copy_from_slice(
                    &cmat[r * g.cols() + ar0 * g.out.2..r * g.cols() + ar1 * g.out.2],
                );
            }
            col2im_range_accumulate(&g, &part, &mut chunk_dst, ar0, ar1);
        }
        for i in 0..whole_dst.len() {
            assert!((whole_dst[i] - chunk_dst[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn anchor_chunks_cover_all_rows() {
        let g = ConvGeom {
            c: 16,
            dims: (64, 64, 64),
            kernel: (3, 3, 3),
            stride: (1, 1, 1),
            padding: (1, 1, 1),
            out: (64, 64, 64),
        };
        let chunks: Vec<_> = anchor_chunks(&g).collect();
        assert!(chunks.len() > 1, "64³ must chunk");
        assert_eq!(chunks.first().unwrap().0, 0);
        assert_eq!(chunks.last().unwrap().1, g.out.0 * g.out.1);
        for w in chunks.windows(2) {
            assert_eq!(w[0].1, w[1].0, "chunks must tile contiguously");
        }
        for &(a, b) in &chunks {
            assert!(b > a && g.rows() * (b - a) * g.out.2 <= 2 * CHUNK_ELEMS);
        }
    }

    #[test]
    fn scratch_clone_is_empty() {
        let s = Scratch {
            col: vec![1.0; 8],
            col2: vec![2.0; 8],
            tmp: vec![4.0; 8],
            cached: vec![3.0; 8],
            cached_valid: true,
        };
        let c = s.clone();
        assert!(c.col.is_empty() && c.col2.is_empty() && c.cached.is_empty());
        assert!(!c.cached_valid);
    }

    /// The panel gather against the pipeline it replaces: `im2col_range`
    /// over the same anchor rows, then `pack_b_slab` — bit for bit, for
    /// every `KC` block and for a whole-range and an unaligned column slab.
    fn gather_matches_im2col_then_pack<E: GemmElement>(g: &ConvGeom, ar0: usize, ar1: usize) {
        let src: Vec<E> = (0..g.c * g.vol())
            .map(|i| E::from_f64(((i * 37 + 11) % 101) as f64 / 7.0 - 6.0))
            .collect();
        let cols = (ar1 - ar0) * g.out.2;
        let mut col = vec![E::ZERO; g.rows() * cols];
        im2col_range(g, &src, &mut col, ar0, ar1);
        let panels = PatchPanels::new(g, &src, ar0 * g.out.2);
        let slabs = [(0, cols), (3.min(cols - 1), cols - 3.min(cols - 1))];
        for k0 in (0..g.rows()).step_by(E::KC) {
            let kc_len = E::KC.min(g.rows() - k0);
            for (j0, jn) in slabs {
                // Sentinel-filled and one panel longer than needed: both
                // sides must write the same region and leave the rest.
                let len = (jn.div_ceil(E::NR) + 1) * kc_len * E::NR;
                let mut want = vec![E::from_f64(-7.25); len];
                let mut got = want.clone();
                pack_b_slab(&col, cols, 1, k0, kc_len, j0, jn, &mut want);
                panels.fill(k0, kc_len, j0, jn, &mut got);
                assert!(
                    want.iter().zip(&got).all(|(a, b)| a.bits() == b.bits()),
                    "{} {g:?} anchors {ar0}..{ar1} k0 {k0} cols {j0}+{jn}",
                    E::NAME
                );
            }
        }
    }

    proptest! {
        /// Random geometries: 2D (unit depth) and 3D, kernels 1–3, strides
        /// 1–2, padding 0–1, widths below, at and off multiples of both
        /// tiles' `NR` (ragged last panels), anchor ranges starting
        /// mid-plane.
        #[test]
        fn panel_gather_is_im2col_then_pack(
            two_d_bit in 0usize..=1,
            c in 1usize..=3,
            k in (1usize..=3, 1usize..=3, 1usize..=3),
            s in (1usize..=2, 1usize..=2, 1usize..=2),
            p in (0usize..=1, 0usize..=1, 0usize..=1),
            dims in (1usize..=4, 1usize..=6, 1usize..=40),
            range in (0usize..1000, 0usize..1000),
        ) {
            let two_d = two_d_bit == 1;
            let dims = (if two_d { 1 } else { dims.0 }, dims.1, dims.2);
            let pad = (if two_d { 0 } else { p.0 }, p.1, p.2);
            // Kernels never exceed the padded extent.
            let kern = (
                if two_d { 1 } else { k.0.min(dims.0 + 2 * pad.0) },
                k.1.min(dims.1 + 2 * pad.1),
                k.2.min(dims.2 + 2 * pad.2),
            );
            let out = |i: usize, k: usize, s: usize, p: usize| (i + 2 * p - k) / s + 1;
            let g = ConvGeom {
                c,
                dims,
                kernel: kern,
                stride: s,
                padding: pad,
                out: (
                    out(dims.0, kern.0, s.0, pad.0),
                    out(dims.1, kern.1, s.1, pad.1),
                    out(dims.2, kern.2, s.2, pad.2),
                ),
            };
            let rows = g.out.0 * g.out.1;
            let ar0 = range.0 % rows;
            let ar1 = ar0 + 1 + range.1 % (rows - ar0);
            gather_matches_im2col_then_pack::<f64>(&g, ar0, ar1);
            gather_matches_im2col_then_pack::<f32>(&g, ar0, ar1);
        }
    }

    #[test]
    fn panel_gather_covers_multiple_k_blocks() {
        // 16 channels × 3³ taps = 432 patch rows: two KC blocks, the second
        // ragged, over a mid-plane anchor range of a 3D grid.
        let g = ConvGeom {
            c: 16,
            dims: (3, 5, 21),
            kernel: (3, 3, 3),
            stride: (1, 1, 1),
            padding: (1, 1, 1),
            out: (3, 5, 21),
        };
        gather_matches_im2col_then_pack::<f64>(&g, 2, 13);
        gather_matches_im2col_then_pack::<f32>(&g, 2, 13);
    }
}
