//! The one convolution lowering: every convolution product in this crate
//! is a GEMM whose patch operand is gathered from an activation tensor
//! straight into the GEMM's packed panels, or read where it lies. No patch
//! matrix is ever formed.
//!
//! `P(X)` is the patch matrix of a sample: one row per `(channel, kernel
//! tap)`, one column per window position. The layers are the U-Net's: a
//! stride-1 "same" `Conv3d` and a `ConvTranspose3d` whose windows tile its
//! output (`k = s`, no padding). A transpose convolution is the adjoint of
//! a convolution with the same kernel and stride, and the data gradient of
//! a stride-1 convolution is a convolution of the output gradient with the
//! flipped, channel-transposed kernel (`flip(W)`) at padding `k − 1 − p`
//! (`ConvGeom::transposed`, written `P̃`). That gives six products:
//!
//! | pass                       | product                 | routine                   |
//! |----------------------------|-------------------------|---------------------------|
//! | `Conv3d` forward           | `Y = W · P(X) + b`      | `conv_forward`            |
//! | `Conv3d` ∂input            | `dX = flip(W) · P̃(dY)`  | `conv_forward`            |
//! | `Conv3d` ∂weight           | `dW += dY · P(X)ᵀ`      | `weight_grad`             |
//! | `ConvTranspose3d` forward  | `Y = place(Vᵀ · X) + b` | `tiled_transpose_forward` |
//! | `ConvTranspose3d` ∂input   | `dX = V · P(dY)`        | `conv_forward`            |
//! | `ConvTranspose3d` ∂weight  | `dV += X · P(dY)ᵀ`      | `weight_grad`             |
//!
//! `conv_forward` gathers `P` into the `B` panels of
//! [`gemm_prepacked_with`] (`PatchPanels::fill`). `weight_grad` packs no
//! `Pᵀ` panel: [`gemm_prepacked_indexed`] reads each patch element from
//! the source grid at a position's window origin plus a patch row's offset
//! (`block_reads`: the source itself when unpadded, else the few zero-padded
//! rows a block of positions reaches). The windows of the transpose
//! convolution tile its output, so no window position sees more than one
//! tap, and `place` writes each `(channel, tap)` row of the product to its
//! stride-`s` output positions without touching a zero tap.
//!
//! Every output element is one fixed-order reduction: GEMM column slabs
//! write disjoint elements, and `weight_grad` cuts positions into blocks
//! whose bounds depend only on their count and adds the block partials in
//! block order. Results are bitwise identical at any thread count.

use crate::layer::Triple;
use mgd_tensor::matmul::{
    gemm_prepacked_indexed, gemm_prepacked_serial, gemm_prepacked_with, pack_a, pack_a_cols,
    pack_b_slab, PackedA,
};
use mgd_tensor::par::{par_jobs, par_jobs_with, SyncSlice};
use mgd_tensor::GemmElement;

/// Sliding-window geometry of one gather: `c` channels of a `dims`-shaped
/// grid, zero-padded, read through `kernel`/`stride` windows anchored at
/// `out` positions.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ConvGeom {
    /// Channels of the gathered grid.
    pub c: usize,
    /// Spatial extents (d, h, w) of the gathered grid.
    pub dims: Triple,
    /// Kernel extents.
    pub kernel: Triple,
    /// Strides.
    pub stride: Triple,
    /// Zero padding of the grid.
    pub padding: Triple,
    /// Window-anchor counts (the patch-matrix column space).
    pub out: Triple,
}

impl ConvGeom {
    /// The gather of a strided, zero-padded convolution.
    pub fn new(
        c: usize,
        dims: Triple,
        kernel: Triple,
        stride: Triple,
        padding: Triple,
        out: Triple,
    ) -> Self {
        ConvGeom {
            c,
            dims,
            kernel,
            stride,
            padding,
            out,
        }
    }

    /// The gather of this stride-1 convolution's adjoint: `c` channels of
    /// the `out` grid padded by `k − 1 − p`, read through the flipped kernel
    /// at every position of the `dims` grid. Packed with [`pack_flipped`]
    /// weights, [`conv_forward`] over it computes the `Conv3d` data
    /// gradient.
    pub fn transposed(&self, c: usize) -> Self {
        assert_eq!(
            self.stride,
            (1, 1, 1),
            "the adjoint gather is of a stride-1 conv"
        );
        let (k, p) = (self.kernel, self.padding);
        ConvGeom {
            c,
            dims: self.out,
            kernel: k,
            stride: (1, 1, 1),
            padding: (k.0 - 1 - p.0, k.1 - 1 - p.1, k.2 - 1 - p.2),
            out: self.dims,
        }
    }

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

/// The anchors `[lo, hi)` along one axis whose window sample at offset
/// `off` (kernel tap minus padding) lies inside the grid:
/// `0 ≤ o·stride + off < extent`.
#[inline]
pub(crate) fn anchor_range(
    off: isize,
    stride: usize,
    extent: usize,
    anchors: usize,
) -> (usize, usize) {
    let lo = if off >= 0 {
        0
    } else {
        off.unsigned_abs().div_ceil(stride)
    };
    let top = extent as isize - 1 - off;
    let hi = if top >= 0 {
        (top as usize / stride + 1).min(anchors)
    } else {
        0
    };
    (lo.min(hi), hi)
}

/// One patch-matrix row — a `(channel, kernel tap)` pair — resolved once
/// per gather so the panel fills do no index division per row.
#[derive(Clone, Copy, Debug)]
struct Tap {
    /// Offset of the tap's channel in the source sample.
    chan: usize,
    /// Kernel offset minus padding along (d, h, w): the window sample of
    /// anchor `o` sits at coordinate `o·stride + off`.
    off: [isize; 3],
    /// Anchors `[wlo, whi)` along w whose sample is inside the grid (see
    /// [`anchor_range`]).
    wlo: usize,
    whi: usize,
}

/// The patch matrix of one sample, from the anchor column `q0` on,
/// gathered straight from the source tensor into GEMM `B` panels: the
/// gather is the pack. [`PatchPanels::fill`] writes `P` exactly as
/// [`pack_b_slab`] would from the materialized matrix.
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
        let (pd, ph, pw) = g.padding;
        let taps = (0..g.rows())
            .map(|r| {
                let (ci, tap) = (r / g.kvol(), r % g.kvol());
                let (kdi, rem) = (tap / (kh * kw), tap % (kh * kw));
                let off = [
                    kdi as isize - pd as isize,
                    (rem / kw) as isize - ph as isize,
                    (rem % kw) as isize - pw as isize,
                ];
                let (wlo, whi) = anchor_range(off[2], g.stride.2, g.dims.2, g.out.2);
                Tap {
                    chan: ci * g.vol(),
                    off,
                    wlo,
                    whi,
                }
            })
            .collect();
        PatchPanels { g, src, taps, q0 }
    }

    /// The (d, h) coordinates of tap 0's window in anchor row `a` (a
    /// flattened `(o_d, o_h)`).
    #[inline(always)]
    fn row_origin(&self, a: usize) -> (isize, isize) {
        let g = self.g;
        let (o_d, o_h) = (a / g.out.1, a % g.out.1);
        ((o_d * g.stride.0) as isize, (o_h * g.stride.1) as isize)
    }

    /// Where tap `t` reads over anchor columns
    /// `[w0, w1)` of the anchor row at [`Self::row_origin`] `z`: `None`
    /// when every column is padding, else `(lo, hi, row)` — columns
    /// `[lo, hi)` take `row[0], row[stride], …`, the others are padding.
    #[inline(always)]
    fn segment(
        &self,
        t: &Tap,
        z: (isize, isize),
        w0: usize,
        w1: usize,
    ) -> Option<(usize, usize, &'a [E])> {
        let (dd, dh, dw) = self.g.dims;
        // A negative coordinate wraps past every extent.
        let (id, ih) = ((z.0 + t.off[0]) as usize, (z.1 + t.off[1]) as usize);
        let lo = t.wlo.clamp(w0, w1);
        let hi = t.whi.clamp(lo, w1);
        if id >= dd || ih >= dh || lo == hi {
            return None;
        }
        // `lo >= wlo`, so the first window sample is in the grid.
        let iw = ((lo * self.g.stride.2) as isize + t.off[2]) as usize;
        let row = &self.src[t.chan + (id * dh + ih) * dw..][..dw];
        Some((lo, hi, &row[iw..]))
    }

    /// Writes patch rows `[k0, k0+kc_len)` × columns `[q0+j0, q0+j0+jn)`
    /// into `NR`-wide panels (`bpack[np][kk*NR + nr]`), zero-padding the
    /// ragged last panel.
    ///
    /// The columns are walked as anchor-row runs (one row of window
    /// positions: contiguous in the source along w). Per run and tap the
    /// in-grid range is copied and the padding zero-filled as whole
    /// ranges, cut only at panel boundaries.
    pub(crate) fn fill(&self, k0: usize, kc_len: usize, j0: usize, jn: usize, bpack: &mut [E]) {
        let nr = E::NR;
        let (ow, sw) = (self.g.out.2, self.g.stride.2);
        let taps = &self.taps[k0..k0 + kc_len];
        let mut out = Rows {
            bpack: &mut bpack[..jn.div_ceil(nr) * kc_len * nr],
            pstride: kc_len * nr,
        };
        let mut c = 0;
        while c < jn {
            let (a, w0) = ((self.q0 + j0 + c) / ow, (self.q0 + j0 + c) % ow);
            let len = (ow - w0).min(jn - c);
            let z = self.row_origin(a);
            for (kk, t) in taps.iter().enumerate() {
                match self.segment(t, z, w0, w0 + len) {
                    None => out.zero(kk, c, len),
                    Some((lo, hi, row)) => {
                        out.zero(kk, c, lo - w0);
                        out.copy(kk, c + lo - w0, hi - lo, row, sw);
                        out.zero(kk, c + hi - w0, w0 + len - hi);
                    }
                }
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

/// A convolution over anchor rows `[ar0, ar1)` of one sample:
/// `y[r, j] = bias[r] + (A · P(src))[r, ar0·ow + j]` (no bias term when
/// `bias` is `None`), with the rows of `y` at stride `ldy`. One GEMM over
/// the whole range — no chunking, no patch matrix, no separate bias pass —
/// whose every output element is one fixed-order reduction over the full
/// shared dimension, so any split of the anchor rows yields the same bits.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv_forward<E: GemmElement>(
    pa: &PackedA<E>,
    g: &ConvGeom,
    src: &[E],
    bias: Option<&[E]>,
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
        bias,
        false,
    );
}

/// [`conv_forward`] over every sample of a batch: `src` holds `c × vol()`
/// values per sample, `dst` receives `m × cols()` per sample.
pub(crate) fn conv_batch<E: GemmElement>(
    pa: &PackedA<E>,
    g: &ConvGeom,
    src: &[E],
    bias: Option<&[E]>,
    dst: &mut [E],
) {
    let (svol, p) = (g.c * g.vol(), g.cols());
    assert_eq!(src.len() / svol.max(1), dst.len() / (pa.m() * p).max(1));
    for (s, d) in src.chunks_exact(svol).zip(dst.chunks_exact_mut(pa.m() * p)) {
        conv_forward(pa, g, s, bias, 0, g.out.0 * g.out.1, d, p);
    }
}

/// Packs the adjoint kernel for [`ConvGeom::transposed`] gathers: `w`
/// holds an `[a, b, kvol]` kernel and the packed `b × (a·kvol)` matrix is
/// `A[j, i·kvol + t] = w[i, j, kvol − 1 − t]` — channels transposed, and
/// the flat tap index reversed, which flips all three kernel axes.
pub(crate) fn pack_flipped<E: GemmElement>(w: &[E], a: usize, b: usize, kvol: usize) -> PackedA<E> {
    assert_eq!(w.len(), a * b * kvol);
    let mut f = Vec::with_capacity(w.len());
    for j in 0..b {
        for i in 0..a {
            f.extend(w[(i * b + j) * kvol..][..kvol].iter().rev());
        }
    }
    pack_a(&f, b, a * kvol, false)
}

/// Positions per [`weight_grad`] block: the unit of parallel work.
const WGRAD_BLOCK: usize = 2048;
/// Most blocks one sample's positions are cut into.
const WGRAD_MAX_BLOCKS: usize = 64;

/// Weight gradient `gw += Σₙ lhsₙ · P(srcₙ)ᵀ` over a batch of `n` samples:
/// `lhs` holds an `m × cols()` matrix per sample, `src` the gathered grid
/// per sample, and `gw` the `m × rows()` product.
///
/// Each sample's positions are cut into blocks whose bounds depend only on
/// their count. Every block is one sequential product
/// ([`gemm_prepacked_indexed`]) whose `Pᵀ` operand is read where it lies
/// ([`block_reads`]: a row-base per position, an offset per patch row), so
/// no patch panel is formed; the blocks run in parallel and their partial
/// products are added into `gw` in (sample, block) order, so the result is
/// bitwise identical at any thread count.
pub(crate) fn weight_grad(g: &ConvGeom, src: &[f64], lhs: &[f64], n: usize, gw: &mut [f64]) {
    let (p, kdim, svol) = (g.cols(), g.rows(), g.c * g.vol());
    let m = gw.len() / kdim.max(1);
    assert_eq!(gw.len(), m * kdim);
    assert_eq!(src.len(), n * svol);
    assert_eq!(lhs.len(), n * m * p);
    if n * m * p * kdim == 0 {
        return;
    }
    let blen = p.div_ceil(p.div_ceil(WGRAD_BLOCK).min(WGRAD_MAX_BLOCKS));
    let per = p.div_ceil(blen);
    let mk = m * kdim;
    let mut partials = vec![0.0; n * per * mk];
    let pptr = SyncSlice::new(&mut partials);
    par_jobs_with(n * per, mk * blen, Default::default, |scratch, b| {
        let (ni, q0) = (b / per, b % per * blen);
        let q1 = (q0 + blen).min(p);
        let pa = pack_a_cols(&lhs[ni * m * p..][..m * p], m, p, q0..q1);
        let BlockScratch {
            padded,
            rows,
            cols,
            acc,
        } = scratch;
        let grid = block_reads(g, &src[ni * svol..][..svol], q0..q1, padded, rows, cols);
        // SAFETY: block `b` exclusively owns partials[b*mk .. (b+1)*mk].
        let part = unsafe { pptr.slice_mut(b * mk, mk) };
        gemm_prepacked_indexed(&pa, grid, rows, cols, part, kdim, acc);
    });
    for part in partials.chunks_exact(mk) {
        for (w, &s) in gw.iter_mut().zip(part) {
            *w += s;
        }
    }
}

/// Per-job scratch of [`weight_grad`]: the block's zero-padded source rows,
/// its position and patch-row tables, and the tile accumulators.
#[derive(Default)]
struct BlockScratch {
    padded: Vec<f64>,
    rows: Vec<usize>,
    cols: Vec<usize>,
    acc: Vec<f64>,
}

/// Where the window positions `qs` of one sample read `Pᵀ`: fills `rows`
/// with each position's window origin and `cols` with each patch row's
/// offset from it, and returns the grid they index, so that
/// `P[r, q] = grid[rows[q − qs.start] + cols[r]]`.
///
/// An unpadded gather reads `src` itself. A padded one reads `padded`: the
/// zero-padded rows its windows reach, copied from `src` — a block's span of
/// padded `(depth, height)` rows per channel, never the whole padded sample.
/// Every patch element of an out-of-grid tap reads a stored zero, so the
/// product still adds it.
fn block_reads<'a>(
    g: &ConvGeom,
    src: &'a [f64],
    qs: std::ops::Range<usize>,
    padded: &'a mut Vec<f64>,
    rows: &mut Vec<usize>,
    cols: &mut Vec<usize>,
) -> &'a [f64] {
    let ((pd, ph, pw), (kd, kh, kw), (sd, sh, sw)) = (g.padding, g.kernel, g.stride);
    let ((dd, dh, dw), (_, oh, ow)) = (g.dims, g.out);
    // The extents the windows span along each axis.
    let (ed, eh, ew) = (
        (g.out.0 - 1) * sd + kd,
        (oh - 1) * sh + kh,
        (ow - 1) * sw + kw,
    );
    let unpadded = pd + ph + pw == 0;
    // The grid read has `gh` rows of `gw` per depth plane: the source's own
    // when unpadded, else the windows' padded extents.
    let (gh, gw) = if unpadded { (dh, dw) } else { (eh, ew) };
    // The (depth, height) row of the grid read at anchor row `a`'s origin.
    let origin = |a: usize| (a / oh * sd) * gh + a % oh * sh;
    let (a0, a1) = (qs.start / ow, (qs.end - 1) / ow);
    let (grid, row0, chan): (&[f64], _, _) = if unpadded {
        assert!(ed <= dd && eh <= dh && ew <= dw, "windows overrun the grid");
        (src, 0, g.vol())
    } else {
        let (r0, r1) = (origin(a0), origin(a1) + (kd - 1) * eh + kh);
        let chan = (r1 - r0) * ew;
        padded.clear();
        padded.resize(g.c * chan, 0.0);
        let (lead, copy) = (pw.min(ew), dw.min(ew.saturating_sub(pw)));
        for (ci, plane) in padded.chunks_exact_mut(chan).enumerate() {
            for (r, dst) in (r0..r1).zip(plane.chunks_exact_mut(ew)) {
                let (d, h) = ((r / eh).wrapping_sub(pd), (r % eh).wrapping_sub(ph));
                if d < dd && h < dh {
                    let from = (ci * dd + d) * dh + h;
                    dst[lead..lead + copy].copy_from_slice(&src[from * dw..][..copy]);
                }
            }
        }
        (&padded[..], r0, chan)
    };
    rows.clear();
    for a in a0..=a1 {
        let base = (origin(a) - row0) * gw;
        let (w0, w1) = (
            if a == a0 { qs.start % ow } else { 0 },
            if a == a1 { (qs.end - 1) % ow + 1 } else { ow },
        );
        rows.extend((w0..w1).map(|w| base + w * sw));
    }
    cols.clear();
    for ci in 0..g.c {
        for t in 0..g.kvol() {
            let (td, th, tw) = (t / (kh * kw), t / kw % kh, t % kw);
            cols.push(ci * chan + (td * gh + th) * gw + tw);
        }
    }
    grid
}

/// The `ConvTranspose3d` forward when its windows tile the output
/// (`kernel == stride`, no padding): per sample one GEMM `Vᵀ · Xₙ` (rows
/// `(oc, tap)`, columns input positions) whose column slabs are written to
/// their stride-`s` output positions as `bias + acc`. Every output element
/// receives exactly one product row, so nothing accumulates and no zero tap
/// is multiplied.
///
/// `pa` is `Vᵀ` (`out_c·kvol × in_c`), `g` the gather of the layer's data
/// gradient (`c = out_c` over the output grid, anchored at input
/// positions), `x` and `y` the whole batch.
pub(crate) fn tiled_transpose_forward<E: GemmElement>(
    pa: &PackedA<E>,
    g: &ConvGeom,
    x: &[E],
    bias: &[E],
    y: &mut [E],
) {
    assert_eq!(g.kernel, g.stride, "windows must tile the output");
    assert_eq!(g.padding, (0, 0, 0), "windows must tile the output");
    let (kvol, p, ovol) = (g.kvol(), g.cols(), g.vol());
    let (m, in_c) = (pa.m(), pa.k());
    assert_eq!(m, g.rows());
    let n = y.len() / (g.c * ovol);
    assert_eq!(y.len(), n * g.c * ovol);
    assert_eq!(x.len(), n * in_c * p);
    let rbias: Vec<E> = (0..m).map(|r| bias[r / kvol]).collect();
    let ((_, kh, kw), (sd, sh, sw)) = (g.kernel, g.stride);
    let ((_, oh, ow), (_, in_h, in_w)) = (g.dims, g.out);
    let slabs = p.div_ceil(E::NC);
    let yptr = SyncSlice::new(y);
    par_jobs_with(
        n * slabs,
        m * in_c,
        || (Vec::new(), Vec::new()),
        |(bpack, acc), job| {
            let (ni, j0) = (job / slabs, job % slabs * E::NC);
            let j1 = (j0 + E::NC).min(p);
            let xs = &x[ni * in_c * p..][..in_c * p];
            let fill =
                |k0, kc_len, j0, jn, bp: &mut [E]| pack_b_slab(xs, p, 1, k0, kc_len, j0, jn, bp);
            acc.resize(m * (j1 - j0), E::ZERO);
            gemm_prepacked_serial(pa, j0..j1, &fill, acc, j1 - j0, Some(&rbias), bpack);
            for (r, row) in acc.chunks_exact(j1 - j0).enumerate() {
                let (oc, t) = (r / kvol, r % kvol);
                let (td, th, tw) = (t / (kh * kw), t / kw % kh, t % kw);
                let base = (ni * g.c + oc) * ovol;
                // Walk the slab as runs along one input row.
                let mut j = j0;
                while j < j1 {
                    let (a, w0) = (j / in_w, j % in_w);
                    let len = (in_w - w0).min(j1 - j);
                    let (i_d, i_h) = (a / in_h, a % in_h);
                    let o = base + ((i_d * sd + td) * oh + i_h * sh + th) * ow + w0 * sw + tw;
                    for (i, &v) in row[j - j0..j - j0 + len].iter().enumerate() {
                        // SAFETY: with kernel == stride, (sample, channel,
                        // tap, input position) ↦ output element is
                        // injective and in bounds, so jobs write disjoint
                        // elements of `y`.
                        unsafe { yptr.set(o + i * sw, v) };
                    }
                    j += len;
                }
            }
        },
    );
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

/// Test oracles: the explicit patch-matrix gather and scatter (im2col /
/// col2im) that the implicit gathers replaced — the reference they and
/// the tiled transpose forward are checked against bit for bit — and the
/// direct sliding-window kernels wrapped as a [`Layer`].
#[cfg(test)]
pub(crate) mod reference {
    use super::{anchor_range, bias_grad, ConvGeom};
    use crate::layer::{Dims5, Layer};
    use crate::param::Param;
    use mgd_tensor::{Element, Tensor};

    /// Target element count of one patch-matrix chunk (2^20 ≈ 8 MiB of
    /// f64) in [`anchor_chunks`].
    pub(crate) const CHUNK_ELEMS: usize = 1 << 20;

    /// Anchor range of one axis.
    fn range(k: usize, stride: usize, pad: usize, extent: usize, anchors: usize) -> (usize, usize) {
        anchor_range(k as isize - pad as isize, stride, extent, anchors)
    }

    /// Gathers `src` (one sample, `c × dims` row-major) into the patch
    /// matrix `col` (`rows() × cols()` row-major).
    pub(crate) fn im2col<E: Element>(g: &ConvGeom, src: &[E], col: &mut [E]) {
        im2col_range(g, src, col, 0, g.out.0 * g.out.1);
    }

    /// [`im2col`] restricted to anchor rows `[ar0, ar1)` of the flattened
    /// `(o_d, o_h)` space — the column blocks `[ar0*ow, ar1*ow)`.
    pub(crate) fn im2col_range<E: Element>(
        g: &ConvGeom,
        src: &[E],
        col: &mut [E],
        ar0: usize,
        ar1: usize,
    ) {
        let cols = (ar1 - ar0) * g.out.2;
        assert_eq!(src.len(), g.c * g.vol());
        assert_eq!(col.len(), g.rows() * cols);
        let (_, kh, kw) = g.kernel;
        let (sd, sh, sw) = g.stride;
        let (pd, ph, pw) = g.padding;
        let (dd, dh, dw) = g.dims;
        let (_, oh, ow) = g.out;
        for (r, dst) in col.chunks_exact_mut(cols).enumerate() {
            let (ci, tap) = (r / g.kvol(), r % g.kvol());
            let (kdi, rem) = (tap / (kh * kw), tap % (kh * kw));
            let (khi, kwi) = (rem / kw, rem % kw);
            let (dlo, dhi) = range(kdi, sd, pd, dd, g.out.0);
            let (hlo, hhi) = range(khi, sh, ph, dh, oh);
            let (wlo, whi) = range(kwi, sw, pw, dw, ow);
            let chan = &src[ci * dd * dh * dw..(ci + 1) * dd * dh * dw];
            dst.fill(E::ZERO);
            for (a, run) in (ar0..ar1).zip(dst.chunks_exact_mut(ow)) {
                let (o_d, o_h) = (a / oh, a % oh);
                if o_d < dlo || o_d >= dhi || o_h < hlo || o_h >= hhi {
                    continue;
                }
                let (id, ih) = (o_d * sd + kdi - pd, o_h * sh + khi - ph);
                let srow = (id * dh + ih) * dw;
                for o_w in wlo..whi {
                    run[o_w] = chan[srow + o_w * sw + kwi - pw];
                }
            }
        }
    }

    /// Scatters the patch matrix `col` back onto `dst`, **accumulating**
    /// overlapping windows: the adjoint of [`im2col`].
    pub(crate) fn col2im_accumulate<E: Element>(g: &ConvGeom, col: &[E], dst: &mut [E]) {
        col2im_range_accumulate(g, col, dst, 0, g.out.0 * g.out.1);
    }

    /// [`col2im_accumulate`] restricted to anchor rows `[ar0, ar1)`.
    pub(crate) fn col2im_range_accumulate<E: Element>(
        g: &ConvGeom,
        col: &[E],
        dst: &mut [E],
        ar0: usize,
        ar1: usize,
    ) {
        let cols = (ar1 - ar0) * g.out.2;
        assert_eq!(dst.len(), g.c * g.vol());
        assert_eq!(col.len(), g.rows() * cols);
        let (_, kh, kw) = g.kernel;
        let (sd, sh, sw) = g.stride;
        let (pd, ph, pw) = g.padding;
        let (dd, dh, dw) = g.dims;
        let (_, oh, ow) = g.out;
        for (r, src) in col.chunks_exact(cols).enumerate() {
            let (ci, tap) = (r / g.kvol(), r % g.kvol());
            let chan = &mut dst[ci * dd * dh * dw..(ci + 1) * dd * dh * dw];
            let (kdi, rem) = (tap / (kh * kw), tap % (kh * kw));
            let (khi, kwi) = (rem / kw, rem % kw);
            let (dlo, dhi) = range(kdi, sd, pd, dd, g.out.0);
            let (hlo, hhi) = range(khi, sh, ph, dh, oh);
            let (wlo, whi) = range(kwi, sw, pw, dw, ow);
            for (a, run) in (ar0..ar1).zip(src.chunks_exact(ow)) {
                let (o_d, o_h) = (a / oh, a % oh);
                if o_d < dlo || o_d >= dhi || o_h < hlo || o_h >= hhi {
                    continue;
                }
                let (id, ih) = (o_d * sd + kdi - pd, o_h * sh + khi - ph);
                let drow = (id * dh + ih) * dw;
                for o_w in wlo..whi {
                    chan[drow + o_w * sw + kwi - pw] += run[o_w];
                }
            }
        }
    }

    /// Splits a sample's anchor rows into chunks of roughly
    /// [`CHUNK_ELEMS`] patch elements each.
    pub(crate) fn anchor_chunks(g: &ConvGeom) -> impl Iterator<Item = (usize, usize)> {
        let rows = g.out.0 * g.out.1;
        let per_row = g.rows() * g.out.2;
        let step = (CHUNK_ELEMS / per_row.max(1)).clamp(1, rows.max(1));
        (0..rows.div_ceil(step)).map(move |i| (i * step, ((i + 1) * step).min(rows)))
    }

    /// Whether two slices hold the same bits.
    pub(crate) fn bits_eq<E: Element>(a: &[E], b: &[E]) -> bool {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.bits() == y.bits())
    }

    /// The direct sliding-window kernels of a convolution layer.
    pub(crate) trait DirectKernels {
        /// The forward, bias included.
        fn forward_direct(&self, x: &Tensor) -> Tensor;
        /// The input gradient; accumulates the weight (not the bias)
        /// gradient.
        fn backward_direct(&mut self, x: &Tensor, grad_out: &Tensor) -> Tensor;
    }

    /// A convolution layer running its direct kernels: the oracle as a
    /// [`Layer`], so that it can be gradchecked and compared pass by pass.
    #[derive(Clone, Debug)]
    pub(crate) struct Direct<L>(pub L, Option<Tensor>);

    impl<L> Direct<L> {
        pub(crate) fn new(layer: L) -> Self {
            Direct(layer, None)
        }
    }

    impl<L: Layer + DirectKernels> Layer for Direct<L> {
        fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
            if train {
                self.1 = Some(x.clone());
            }
            self.0.forward_direct(x)
        }

        fn backward(&mut self, grad_out: &Tensor) -> Tensor {
            let x = self.1.take().expect("backward before forward");
            let d = Dims5::of(grad_out);
            let bias = self.0.params().pop().expect("conv layers end with a bias");
            bias_grad(
                grad_out.as_slice(),
                d.n,
                d.c,
                d.vol(),
                bias.grad.as_mut_slice(),
            );
            self.0.backward_direct(&x, grad_out)
        }

        fn params(&mut self) -> Vec<&mut Param> {
            self.0.params()
        }

        fn name(&self) -> String {
            format!("Direct({})", self.0.name())
        }
    }

    /// Forward + backward `oracle` and `layer` (identical weights) on `x`
    /// and one random cotangent: the output, the input gradient and every
    /// parameter gradient must agree to `tol` relative L2 error.
    pub(crate) fn assert_layers_agree(
        oracle: &mut dyn Layer,
        layer: &mut dyn Layer,
        x: &Tensor,
        tol: f64,
    ) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xE0);
        let (yo, yl) = (oracle.forward(x, true), layer.forward(x, true));
        assert_eq!(yo.dims(), yl.dims());
        let err = yo.rel_l2_error(&yl);
        assert!(err < tol, "{}: forward diverges by {err}", layer.name());
        let g = Tensor::rand_uniform(yo.dims().to_vec(), -1.0, 1.0, &mut rng);
        let (go, gl) = (oracle.backward(&g), layer.backward(&g));
        let err = go.rel_l2_error(&gl);
        assert!(
            err < tol,
            "{}: input gradient diverges by {err}",
            layer.name()
        );
        for (po, pl) in oracle.params().into_iter().zip(layer.params()) {
            let err = po.grad.rel_l2_error(&pl.grad);
            assert!(
                err < tol,
                "{}: parameter gradient diverges by {err}",
                layer.name()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::*;
    use super::*;
    use mgd_tensor::matmul::KC;
    use mgd_tensor::par::with_threads;
    use mgd_tensor::Element;
    use proptest::prelude::*;

    fn geom() -> ConvGeom {
        ConvGeom::new(2, (1, 4, 5), (1, 3, 3), (1, 1, 1), (0, 1, 1), (1, 4, 5))
    }

    /// Brute-force gather of the patch matrix.
    fn im2col_naive<E: Element>(g: &ConvGeom, src: &[E]) -> Vec<E> {
        let mut col = vec![E::ZERO; g.rows() * g.cols()];
        let (_, kh, kw) = g.kernel;
        let pad = [g.padding.0, g.padding.1, g.padding.2];
        let dims = [g.dims.0, g.dims.1, g.dims.2];
        let sample = |axis: usize, o: usize, s: usize, k: usize| {
            let u = (o * s + k).checked_sub(pad[axis])?;
            (u < dims[axis]).then_some(u)
        };
        for r in 0..g.rows() {
            let (ci, tap) = (r / g.kvol(), r % g.kvol());
            let (kdi, rem) = (tap / (kh * kw), tap % (kh * kw));
            let (khi, kwi) = (rem / kw, rem % kw);
            let mut p = 0;
            for o_d in 0..g.out.0 {
                for o_h in 0..g.out.1 {
                    for o_w in 0..g.out.2 {
                        let at = (
                            sample(0, o_d, g.stride.0, kdi),
                            sample(1, o_h, g.stride.1, khi),
                            sample(2, o_w, g.stride.2, kwi),
                        );
                        if let (Some(id), Some(ih), Some(iw)) = at {
                            col[r * g.cols() + p] =
                                src[((ci * dims[0] + id) * dims[1] + ih) * dims[2] + iw];
                        }
                        p += 1;
                    }
                }
            }
        }
        col
    }

    fn ramp<E: Element>(len: usize) -> Vec<E> {
        (0..len)
            .map(|i| E::from_f64(((i * 37 + 11) % 101) as f64 / 7.0 - 6.0))
            .collect()
    }

    #[test]
    fn im2col_matches_naive_gather() {
        for g in [
            geom(),
            ConvGeom::new(3, (4, 4, 4), (3, 3, 3), (1, 1, 1), (1, 1, 1), (4, 4, 4)),
            ConvGeom::new(1, (1, 6, 6), (1, 3, 3), (1, 2, 2), (0, 1, 1), (1, 3, 3)),
            ConvGeom::new(2, (3, 6, 10), (2, 2, 2), (2, 2, 2), (0, 0, 0), (1, 3, 5)),
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
        // defining property of the reference scatter.
        let g = ConvGeom::new(2, (2, 5, 4), (2, 3, 2), (1, 2, 1), (1, 1, 1), (3, 3, 5));
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
        let g = ConvGeom::new(2, (3, 5, 4), (2, 3, 2), (1, 1, 2), (1, 1, 0), (4, 5, 2));
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
        let g = ConvGeom::new(
            16,
            (64, 64, 64),
            (3, 3, 3),
            (1, 1, 1),
            (1, 1, 1),
            (64, 64, 64),
        );
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

    /// The panel gather against the materialized patch matrix packed by
    /// `pack_b_slab` — bit for bit, for every `KC` block and for a whole
    /// and an unaligned slab of anchor rows `[ar0, ar1)`.
    fn gathers_match_pack<E: GemmElement>(g: &ConvGeom, ar0: usize, ar1: usize) {
        let src: Vec<E> = ramp(g.c * g.vol());
        let full = im2col_naive(g, &src);
        let (rows, all) = (g.rows(), g.cols());
        let (q0, cols) = (ar0 * g.out.2, (ar1 - ar0) * g.out.2);
        let panels = PatchPanels::new(g, &src, q0);
        let slabs = [(0, cols), (3.min(cols - 1), cols - 3.min(cols - 1))];
        for k0 in (0..rows).step_by(E::KC) {
            let kc_len = E::KC.min(rows - k0);
            for (j0, jn) in slabs {
                // Sentinel-filled and one panel longer than needed: both
                // sides must write the same region and leave the rest.
                let len = (jn.div_ceil(E::NR) + 1) * kc_len * E::NR;
                let mut want = vec![E::from_f64(-7.25); len];
                let mut got = want.clone();
                pack_b_slab(&full, all, 1, k0, kc_len, q0 + j0, jn, &mut want);
                panels.fill(k0, kc_len, j0, jn, &mut got);
                assert!(
                    bits_eq(&want, &got),
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
        /// mid-plane — and the adjoint gathers of stride-1 convolutions
        /// (padding `k − 1 − p`, with `p < k`).
        #[test]
        fn panel_gather_is_im2col_then_pack(
            two_d_bit in 0usize..=1,
            adjoint_bit in 0usize..=1,
            c in 1usize..=3,
            k in (1usize..=3, 1usize..=3, 1usize..=3),
            s in (1usize..=2, 1usize..=2, 1usize..=2),
            p in (0usize..=1, 0usize..=1, 0usize..=1),
            dims in (1usize..=4, 1usize..=6, 1usize..=40),
            range in (0usize..1000, 0usize..1000),
        ) {
            let (two_d, adjoint) = (two_d_bit == 1, adjoint_bit == 1);
            let dims = (if two_d { 1 } else { dims.0 }, dims.1, dims.2);
            let s = if adjoint { (1, 1, 1) } else { s };
            let pad = (if two_d { 0 } else { p.0 }, p.1, p.2);
            // Kernels never exceed the padded extent.
            let kern = (
                if two_d { 1 } else { k.0.min(dims.0 + 2 * pad.0) },
                k.1.min(dims.1 + 2 * pad.1),
                k.2.min(dims.2 + 2 * pad.2),
            );
            // An adjoint gather pads by `k − 1 − p`, so it needs `p < k`.
            let pad = if adjoint {
                (pad.0.min(kern.0 - 1), pad.1.min(kern.1 - 1), pad.2.min(kern.2 - 1))
            } else {
                pad
            };
            let out = |i: usize, k: usize, s: usize, p: usize| (i + 2 * p - k) / s + 1;
            let out = (
                out(dims.0, kern.0, s.0, pad.0),
                out(dims.1, kern.1, s.1, pad.1),
                out(dims.2, kern.2, s.2, pad.2),
            );
            let mut g = ConvGeom::new(c, dims, kern, s, pad, out);
            if adjoint {
                g = g.transposed(c + 1);
            }
            let rows = g.out.0 * g.out.1;
            let ar0 = range.0 % rows;
            let ar1 = ar0 + 1 + range.1 % (rows - ar0);
            gathers_match_pack::<f64>(&g, ar0, ar1);
            gathers_match_pack::<f32>(&g, ar0, ar1);
        }
    }

    #[test]
    fn panel_gather_covers_multiple_k_blocks() {
        // 16 channels × 3³ taps = 432 patch rows: two KC blocks, the second
        // ragged, over a mid-plane anchor range of a 3D grid.
        let g = ConvGeom::new(16, (3, 5, 21), (3, 3, 3), (1, 1, 1), (1, 1, 1), (3, 5, 21));
        gathers_match_pack::<f64>(&g, 2, 13);
        gathers_match_pack::<f32>(&g, 2, 13);
    }

    /// `weight_grad`'s operation order, scalar: per sample and block (the
    /// same cut), one sum from zero per `KC` chunk of positions in position
    /// order, the first chunk stored and later ones added, then the block
    /// partials added into `gw` in (sample, block) order.
    fn weight_grad_oracle(g: &ConvGeom, src: &[f64], lhs: &[f64], n: usize, gw: &mut [f64]) {
        let (p, kdim, svol) = (g.cols(), g.rows(), g.c * g.vol());
        let m = gw.len() / kdim;
        let blen = p.div_ceil(p.div_ceil(WGRAD_BLOCK).min(WGRAD_MAX_BLOCKS));
        for ni in 0..n {
            let col = im2col_naive(g, &src[ni * svol..][..svol]);
            let dy = &lhs[ni * m * p..][..m * p];
            for q0 in (0..p).step_by(blen) {
                let q1 = (q0 + blen).min(p);
                let mut part = vec![0.0; m * kdim];
                for (chunk, k0) in (q0..q1).step_by(KC).enumerate() {
                    for (i, w) in part.iter_mut().enumerate() {
                        let (o, r) = (i / kdim, i % kdim);
                        let mut s = 0.0;
                        for q in k0..(k0 + KC).min(q1) {
                            s += dy[o * p + q] * col[r * p + q];
                        }
                        *w = if chunk == 0 { s } else { *w + s };
                    }
                }
                for (w, s) in gw.iter_mut().zip(&part) {
                    *w += s;
                }
            }
        }
    }

    /// `weight_grad` is its scalar order bit for bit at 1, 2 and 4 workers:
    /// over 1 to 32 output rows (ragged and whole tiles), 27 and 432 patch
    /// rows, the 3D and 2D `up2` transpose gathers, a 2D conv and the 1³
    /// head, and positions spanning several blocks. An infinite output gradient at a
    /// corner position turns its out-of-grid taps' zero products into NaN,
    /// so a product that is skipped rather than added shows.
    #[test]
    fn weight_grad_is_its_scalar_order_at_any_thread_count() {
        let cases = [
            ConvGeom::new(1, (5, 9, 60), (3, 3, 3), (1, 1, 1), (1, 1, 1), (5, 9, 60)),
            ConvGeom::new(16, (3, 5, 21), (3, 3, 3), (1, 1, 1), (1, 1, 1), (3, 5, 21)),
            ConvGeom::new(8, (8, 6, 10), (2, 2, 2), (2, 2, 2), (0, 0, 0), (4, 3, 5)),
            ConvGeom::new(3, (1, 40, 60), (1, 3, 3), (1, 1, 1), (0, 1, 1), (1, 40, 60)),
            ConvGeom::new(4, (1, 12, 20), (1, 2, 2), (1, 2, 2), (0, 0, 0), (1, 6, 10)),
            ConvGeom::new(8, (2, 9, 13), (1, 1, 1), (1, 1, 1), (0, 0, 0), (2, 9, 13)),
        ];
        assert!(cases[0].cols() > WGRAD_BLOCK && cases[3].cols() > WGRAD_BLOCK);
        let n = 2;
        for g in &cases {
            let src: Vec<f64> = ramp(n * g.c * g.vol());
            for m in [1, 5, 8, 16, 32] {
                let mut lhs: Vec<f64> = (0..n * m * g.cols())
                    .map(|i| (i as f64 * 0.37).sin())
                    .collect();
                lhs[0] = f64::INFINITY;
                let mut want = vec![0.5; m * g.rows()];
                weight_grad_oracle(g, &src, &lhs, n, &mut want);
                for t in [1, 2, 4] {
                    let mut got = vec![0.5; m * g.rows()];
                    with_threads(t, || weight_grad(g, &src, &lhs, n, &mut got));
                    assert!(bits_eq(&want, &got), "{g:?} m={m} threads {t}");
                }
            }
        }
    }

    /// `weight_grad` against the materialized product `Σₙ lhsₙ · P(srcₙ)ᵀ`
    /// (to round-off), and bitwise equal to itself at 1, 2 and 4 workers,
    /// over a batch whose positions span several blocks.
    #[test]
    fn weight_grad_matches_patch_product_at_any_thread_count() {
        let g = ConvGeom::new(3, (5, 9, 60), (3, 3, 3), (1, 1, 1), (1, 1, 1), (5, 9, 60));
        let (n, m, p, kdim) = (2, 5, g.cols(), g.rows());
        assert!(p > WGRAD_BLOCK, "the batch must span several blocks");
        let src: Vec<f64> = ramp(n * g.c * g.vol());
        let lhs: Vec<f64> = (0..n * m * p).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut want = vec![0.5; m * kdim];
        for ni in 0..n {
            let col = im2col_naive(&g, &src[ni * g.c * g.vol()..][..g.c * g.vol()]);
            for (i, w) in want.iter_mut().enumerate() {
                let (row, r) = (&lhs[(ni * m + i / kdim) * p..][..p], i % kdim);
                *w += row
                    .iter()
                    .zip(&col[r * p..][..p])
                    .map(|(a, b)| a * b)
                    .sum::<f64>();
            }
        }
        let runs: Vec<Vec<f64>> = [1, 2, 4]
            .iter()
            .map(|&t| {
                let mut gw = vec![0.5; m * kdim];
                with_threads(t, || weight_grad(&g, &src, &lhs, n, &mut gw));
                gw
            })
            .collect();
        for (w, got) in want.iter().zip(&runs[0]) {
            assert!((w - got).abs() < 1e-10 * w.abs().max(1.0), "{w} vs {got}");
        }
        assert!(runs.windows(2).all(|r| bits_eq(&r[0], &r[1])));
    }
}
