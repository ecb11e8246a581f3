//! Cache-blocked, register-tiled matrix multiplication, generic over the
//! element type.
//!
//! This is the single compute kernel the convolution layers of `mgd-nn`
//! lower onto, gathering their patch operand straight into the packed
//! panels: `C = op(A) · op(B)` with optional accumulation into `C`. The
//! design follows the classic GotoBLAS/BLIS decomposition, scaled to this
//! workspace's shapes (a small-ish left operand — a weight matrix — times
//! a wide patch matrix):
//!
//! - **Packing**: `op(A)` is packed once into column-major micro-panels of
//!   `E::MR` rows ([`PackedA`], reusable across a whole mini-batch via
//!   [`gemm_prepacked`]); `op(B)` is packed per `(k-block, column-slab)`
//!   into row-major micro-panels of `E::NR` columns. Packing makes every
//!   micro-kernel read sequential regardless of the logical layout, and
//!   absorbs both transposes and edge-tile zero padding. The B panels can
//!   also come from a caller-supplied fill ([`gemm_prepacked_with`]) —
//!   the conv lowering gathers its patch panels straight from an
//!   activation tensor — with an optional per-row bias added in the
//!   write-back. [`gemm_prepacked_serial`] runs one column range of such a
//!   product on the calling thread, for callers that split it themselves;
//!   [`gemm_prepacked_indexed`] runs one whose `B` is read where it lies
//!   through a row-base and a column-offset table, with no panel at all.
//! - **Register tiling**: the micro-kernel accumulates an `MR × NR` tile in
//!   local accumulators over an `E::KC`-long stretch of the shared
//!   dimension, so each loaded element is reused `MR` (or `NR`) times. The
//!   tile geometry is per-precision ([`GemmElement`]): `f32` runs a tile
//!   twice as wide as `f64` for the same register budget, which is where
//!   its ~2× GEMM ceiling comes from.
//! - **Parallelism**: column slabs of `E::NC` columns are independent jobs
//!   dispatched through [`crate::par::par_jobs_with`]; when the shared
//!   dimension dominates (`k` huge, `m·n` tiny), [`gemm`] instead splits
//!   `k` into chunks reduced **in chunk order**, so results are bitwise
//!   deterministic for any thread count. No conv pass runs either path of
//!   [`gemm`]: the layers call the prepacked entry points directly.
//!
//! Every job writes a disjoint region of `C` with a fixed internal loop
//! order, and reductions happen in a deterministic order, so a given entry
//! point is bitwise reproducible run-to-run on any machine. The `f64`
//! instantiation performs the identical floating-point operation sequence
//! as the pre-generic kernel.

use crate::element::GemmElement;
use crate::par::{par_jobs_with, SyncSlice};

/// Micro-kernel tile rows of the `f64` instantiation.
pub const MR: usize = <f64 as GemmElement>::MR;
/// Micro-kernel tile columns of the `f64` instantiation.
pub const NR: usize = <f64 as GemmElement>::NR;
/// `k` cache block of the `f64` instantiation.
pub const KC: usize = <f64 as GemmElement>::KC;
/// Columns per parallel job of the `f64` instantiation.
pub const NC: usize = <f64 as GemmElement>::NC;

/// Minimum `k` chunk length of the split-k path.
const KSPLIT_LEN: usize = 8192;
/// Largest `m · n` for which the split-k path is considered (above this the
/// column-slab path already exposes enough parallelism).
const KSPLIT_MAX_MN: usize = 1 << 16;
/// Cap on total split-k scratch (elements) across all chunks.
const KSPLIT_MAX_SCRATCH: usize = 1 << 22;

/// `op(A)` packed into `E::MR`-row micro-panels, grouped by `E::KC` block.
///
/// Packing is the expensive-once half of the kernel: a conv layer packs its
/// weight matrix one time per forward/backward call and reuses it for every
/// sample in the batch through [`gemm_prepacked`].
///
/// Reuse contract: the panels depend only on `A`'s bytes and shape, so a
/// `PackedA` may be cached for as long as the source matrix is unchanged
/// and shared across calls, threads, and requests — [`gemm_prepacked`]
/// takes `&PackedA` and never mutates it. Inference engines exploit this
/// by packing each conv's weight matrix once per model snapshot (it is
/// `Clone`, so casting a model clones its panels too).
#[derive(Clone)]
pub struct PackedA<E = f64> {
    m: usize,
    k: usize,
    mpanels: usize,
    data: Vec<E>,
}

impl<E> std::fmt::Debug for PackedA<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedA")
            .field("m", &self.m)
            .field("k", &self.k)
            .field("mpanels", &self.mpanels)
            .finish_non_exhaustive()
    }
}

impl<E: GemmElement> PackedA<E> {
    /// Rows of `op(A)`.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Columns of `op(A)` (the shared dimension).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Packed panel of (`kb`-th `KC` block, `mp`-th `MR` panel).
    #[inline]
    fn panel(&self, kb: usize, mp: usize, kc_len: usize) -> &[E] {
        let base = kb * self.mpanels * E::KC * E::MR + mp * kc_len * E::MR;
        &self.data[base..base + kc_len * E::MR]
    }
}

/// Element strides `(row_stride, col_stride)` of `op(M)` for a matrix
/// stored row-major and logically transposed or not.
#[inline]
fn op_strides(rows_op: usize, cols_op: usize, trans: bool) -> (usize, usize) {
    if trans {
        // Stored as `cols_op × rows_op` row-major.
        (1, rows_op)
    } else {
        let _ = cols_op;
        (cols_op, 1)
    }
}

/// Packs `op(A)` (`m × k`) into [`PackedA`]. `trans_a` means `a` is stored
/// `k × m` row-major and used transposed.
pub fn pack_a<E: GemmElement>(a: &[E], m: usize, k: usize, trans_a: bool) -> PackedA<E> {
    assert_eq!(a.len(), m * k, "A storage must hold m*k elements");
    let (ars, acs) = op_strides(m, k, trans_a);
    pack_a_range(a, m, ars, acs, 0, k)
}

/// Packs columns `[j0, j0+jn)` of rows `[k0, k0+kc_len)` of `op(B)` into
/// `NR`-column micro-panels (`bpack[np][kk*NR + nr]`), zero-padding the
/// ragged last panel. `(brs, bcs)` are `op(B)`'s element strides.
///
/// This is the B-panel fill [`gemm_prepacked`] hands to
/// [`gemm_prepacked_with`]; callers that gather `op(B)` on the fly (the
/// conv lowering's patch panels) must produce exactly this layout.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn pack_b_slab<E: GemmElement>(
    b: &[E],
    brs: usize,
    bcs: usize,
    k0: usize,
    kc_len: usize,
    j0: usize,
    jn: usize,
    bpack: &mut [E],
) {
    let nr = E::NR;
    let npanels = jn.div_ceil(nr);
    for np in 0..npanels {
        let jbase = j0 + np * nr;
        let nvalid = nr.min(j0 + jn - jbase);
        let panel = &mut bpack[np * kc_len * nr..(np + 1) * kc_len * nr];
        if nvalid == nr && bcs == 1 {
            // Contiguous row fragments: bulk-copy each k row.
            for kk in 0..kc_len {
                let src = (k0 + kk) * brs + jbase;
                panel[kk * nr..kk * nr + nr].copy_from_slice(&b[src..src + nr]);
            }
        } else {
            for kk in 0..kc_len {
                let row = &mut panel[kk * nr..kk * nr + nr];
                for (col, slot) in row.iter_mut().enumerate() {
                    *slot = if col < nvalid {
                        b[(k0 + kk) * brs + (jbase + col) * bcs]
                    } else {
                        E::ZERO
                    };
                }
            }
        }
    }
}

/// Computes columns `[j0, j1)` of `op(A) · B (+ bias)` sequentially into
/// `c`, whose element `i * ldc + (j - j0)` holds product column `j` of row
/// `i`, packing `B` through `fill_b`.
///
/// Each `KC` block's partial tile is stored (first block, not
/// accumulating) or added into `C`; after the last block the row bias is
/// added in front, so every element is `bias + (acc₀ + acc₁ + …)`.
///
/// # Safety
/// `c` must be valid for `(m - 1) * ldc + (j1 - j0)` elements and no other
/// thread may touch those columns of any row concurrently.
#[allow(clippy::too_many_arguments)]
unsafe fn compute_cols<E: GemmElement, F: Fn(usize, usize, usize, usize, &mut [E])>(
    pa: &PackedA<E>,
    fill_b: &F,
    c: *mut E,
    ldc: usize,
    j0: usize,
    j1: usize,
    bias: Option<&[E]>,
    accumulate: bool,
    bpack: &mut Vec<E>,
) {
    let (mr_t, nr_t, kc_t) = (E::MR, E::NR, E::KC);
    let jn = j1 - j0;
    let npanels = jn.div_ceil(nr_t);
    let kblocks = pa.k.div_ceil(kc_t);
    bpack.resize(kc_t.min(pa.k) * npanels * nr_t, E::ZERO);
    let mut acc = vec![E::ZERO; mr_t * nr_t];
    for kb in 0..kblocks {
        let k0 = kb * kc_t;
        let kc_len = kc_t.min(pa.k - k0);
        let bslab = &mut bpack[..kc_len * npanels * nr_t];
        fill_b(k0, kc_len, j0, jn, bslab);
        let first = kb == 0 && !accumulate;
        let last_bias = if kb + 1 == kblocks { bias } else { None };
        for mp in 0..pa.mpanels {
            let i0 = mp * mr_t;
            let mvalid = mr_t.min(pa.m - i0);
            let apanel = pa.panel(kb, mp, kc_len);
            for np in 0..npanels {
                let jbase = j0 + np * nr_t;
                let nvalid = nr_t.min(j1 - jbase);
                E::microkernel(kc_len, apanel, &bslab[np * kc_len * nr_t..], &mut acc);
                for mr in 0..mvalid {
                    let i = i0 + mr;
                    // SAFETY: row `i < m` at product columns [jbase,
                    // jbase+nvalid) ⊆ [j0, j1) lies inside `c` and belongs
                    // to this job (caller contract).
                    let row = std::slice::from_raw_parts_mut(c.add(i * ldc + jbase - j0), nvalid);
                    let tile = &acc[mr * nr_t..mr * nr_t + nvalid];
                    match (first, last_bias.map(|b| b[i])) {
                        (true, None) => row.copy_from_slice(tile),
                        (true, Some(b)) => {
                            for (d, &v) in row.iter_mut().zip(tile) {
                                *d = b + v;
                            }
                        }
                        (false, None) => {
                            for (d, &v) in row.iter_mut().zip(tile) {
                                *d += v;
                            }
                        }
                        (false, Some(b)) => {
                            for (d, &v) in row.iter_mut().zip(tile) {
                                *d = b + (*d + v);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// `C (m × n) {=, +=} op(A) · op(B)` with `op(A)` already packed.
///
/// This is the batch-loop entry point: pack the (shared) weight matrix once
/// with [`pack_a`], then call this per sample. A thin wrapper over
/// [`gemm_prepacked_with`] with [`pack_b_slab`] as the panel fill; output
/// is bitwise deterministic for any thread count.
pub fn gemm_prepacked<E: GemmElement>(
    pa: &PackedA<E>,
    b: &[E],
    trans_b: bool,
    c: &mut [E],
    n: usize,
    accumulate: bool,
) {
    assert_eq!(b.len(), pa.k * n, "B storage must hold k*n elements");
    assert_eq!(c.len(), pa.m * n, "C storage must hold m*n elements");
    let (brs, bcs) = op_strides(pa.k, n, trans_b);
    gemm_prepacked_with(
        pa,
        n,
        |k0, kc_len, j0, jn, bpack| pack_b_slab(b, brs, bcs, k0, kc_len, j0, jn, bpack),
        c,
        n,
        None,
        accumulate,
    );
}

/// `C {=, +=} op(A) · B`, then `C[i, ·] = bias[i] + C[i, ·]` when a bias is
/// given — the one compute loop behind every prepacked product.
///
/// - `fill_b(k0, kc_len, j0, jn, bpack)` must write rows `[k0, k0+kc_len)`
///   × columns `[j0, j0+jn)` of the `k × n` operand `B` into
///   `bpack[..jn.div_ceil(NR) * kc_len * NR]` in [`pack_b_slab`]'s layout
///   (zero-padding the ragged last panel). Supplying the fill lets a
///   caller gather `B` straight from another layout — the conv forward
///   gathers patches from its input tensor — so `B` never exists whole.
/// - `C` holds `m` rows of `n` columns at row stride `ldc ≥ n` (so it can
///   be a band of a larger tensor); only those columns are written.
/// - The bias is added after the last `KC` block, so each element is
///   `bias[i] + (acc₀ + acc₁ + …)` — the order of a separate GEMM followed
///   by `b + c`, bit for bit.
///
/// Column slabs of `E::NC` columns run as parallel jobs; output is bitwise
/// deterministic for any thread count.
pub fn gemm_prepacked_with<E, F>(
    pa: &PackedA<E>,
    n: usize,
    fill_b: F,
    c: &mut [E],
    ldc: usize,
    bias: Option<&[E]>,
    accumulate: bool,
) where
    E: GemmElement,
    F: Fn(usize, usize, usize, usize, &mut [E]) + Sync,
{
    let (m, k) = (pa.m, pa.k);
    if m == 0 || n == 0 {
        return;
    }
    assert!(ldc >= n, "C row stride must cover n columns");
    assert!(
        c.len() >= (m - 1) * ldc + n,
        "C storage must hold m rows at stride ldc"
    );
    if let Some(b) = bias {
        assert_eq!(b.len(), m, "bias must hold one entry per row");
    }
    if k == 0 {
        for i in 0..m {
            for d in &mut c[i * ldc..i * ldc + n] {
                let v = if accumulate { *d } else { E::ZERO };
                *d = bias.map_or(v, |b| b[i] + v);
            }
        }
        return;
    }
    let jobs = n.div_ceil(E::NC);
    let cptr = SyncSlice::new(c);
    par_jobs_with(jobs, m * k, Vec::<E>::new, |bpack, job| {
        let j0 = job * E::NC;
        let j1 = (j0 + E::NC).min(n);
        // SAFETY: `c` holds (m-1)*ldc + n elements (asserted above) and job
        // `job` exclusively owns columns [j0, j1) of every row.
        unsafe {
            compute_cols(
                pa,
                &fill_b,
                cptr.as_mut_ptr().add(j0),
                ldc,
                j0,
                j1,
                bias,
                accumulate,
                bpack,
            );
        }
    });
}

/// Columns `cols` of `C = op(A) · B (+ bias)` on the calling thread, with
/// [`gemm_prepacked_with`]'s fill and bias semantics: `c` holds `m` rows of
/// `cols.len()` columns at row stride `ldc`, its column 0 being product
/// column `cols.start`. `bpack` is the caller's panel scratch.
///
/// The building block for callers that split a product themselves — over
/// `k` blocks reduced in a fixed order, or over column slabs whose results
/// are scattered — so every element is the same fixed-order reduction
/// [`gemm_prepacked_with`] would compute.
#[allow(clippy::too_many_arguments)]
pub fn gemm_prepacked_serial<E, F>(
    pa: &PackedA<E>,
    cols: std::ops::Range<usize>,
    fill_b: &F,
    c: &mut [E],
    ldc: usize,
    bias: Option<&[E]>,
    bpack: &mut Vec<E>,
) where
    E: GemmElement,
    F: Fn(usize, usize, usize, usize, &mut [E]),
{
    let jn = cols.len();
    if pa.m == 0 || jn == 0 {
        return;
    }
    assert!(
        pa.k > 0,
        "serial product needs a non-empty shared dimension"
    );
    assert!(ldc >= jn, "C row stride must cover the columns");
    assert!(
        c.len() >= (pa.m - 1) * ldc + jn,
        "C storage must hold m rows at stride ldc"
    );
    if let Some(b) = bias {
        assert_eq!(b.len(), pa.m, "bias must hold one entry per row");
    }
    // SAFETY: `c` is exclusively borrowed and holds every written element
    // (asserted above).
    unsafe {
        compute_cols(
            pa,
            fill_b,
            c.as_mut_ptr(),
            ldc,
            cols.start,
            cols.end,
            bias,
            false,
            bpack,
        );
    }
}

/// `C = op(A) · B` on the calling thread for a `B` read where it lies,
/// never packed: `B[k, j] = src[rows[k] + cols[j]]` for `k < pa.k()` and
/// `j < cols.len()`. `c` holds `m` rows of `cols.len()` columns at row
/// stride `ldc`; `acc` is the caller's tile scratch.
///
/// Every element is the fixed-order reduction [`gemm_prepacked_serial`]
/// computes for the same `B` packed: per `KC` block one tile sum from zero,
/// the first block stored and later ones added, so the two agree bit for
/// bit. The weight gradients of the conv lowering gather their patch
/// operand this way (`rows` a window position's origin in a source grid,
/// `cols` a kernel tap's offset from it). Panics unless every
/// `rows[k] + cols[j]` indexes `src`.
pub fn gemm_prepacked_indexed(
    pa: &PackedA<f64>,
    src: &[f64],
    rows: &[usize],
    cols: &[usize],
    c: &mut [f64],
    ldc: usize,
    acc: &mut Vec<f64>,
) {
    let (mr_t, kc_t, n) = (MR, KC, cols.len());
    if pa.m == 0 || n == 0 {
        return;
    }
    assert!(
        pa.k > 0,
        "indexed product needs a non-empty shared dimension"
    );
    assert_eq!(rows.len(), pa.k, "one row base per shared index");
    assert!(ldc >= n, "C row stride must cover the columns");
    assert!(
        c.len() >= (pa.m - 1) * ldc + n,
        "C storage must hold m rows at stride ldc"
    );
    acc.resize(n * mr_t, 0.0);
    for kb in 0..pa.k.div_ceil(kc_t) {
        let k0 = kb * kc_t;
        let kc_len = kc_t.min(pa.k - k0);
        for mp in 0..pa.mpanels {
            let i0 = mp * mr_t;
            let apanel = pa.panel(kb, mp, kc_len);
            crate::microkernel::INDEXED_F64(kc_len, apanel, src, &rows[k0..], cols, acc);
            for mr in 0..mr_t.min(pa.m - i0) {
                let row = &mut c[(i0 + mr) * ldc..][..n];
                let tile = acc.iter().skip(mr).step_by(mr_t);
                if kb == 0 {
                    row.iter_mut().zip(tile).for_each(|(d, &v)| *d = v);
                } else {
                    row.iter_mut().zip(tile).for_each(|(d, &v)| *d += v);
                }
            }
        }
    }
}

/// Packs columns `cols` of the `m`-row matrix stored row-major at row
/// stride `lda` in `a` — a column block of a wider operand, packed without
/// copying it out first.
pub fn pack_a_cols<E: GemmElement>(
    a: &[E],
    m: usize,
    lda: usize,
    cols: std::ops::Range<usize>,
) -> PackedA<E> {
    assert!(cols.end <= lda, "column block exceeds the row stride");
    assert!(
        m == 0 || a.len() >= (m - 1) * lda + cols.end,
        "A storage must hold m rows at stride lda"
    );
    pack_a_range(a, m, lda, 1, cols.start, cols.end)
}

/// `C (m × n) {=, +=} op(A) · op(B)`, all operands row-major slices of one
/// element type.
///
/// `trans_a` / `trans_b` mean the slice stores the transpose of the operand
/// (so `a` is `k × m`, resp. `b` is `n × k`); the transposition is absorbed
/// while packing. `accumulate = false` overwrites `C`, `true` adds into it.
///
/// Shape-adaptive dispatch: wide shapes run the packed column-slab path;
/// a huge shared dimension with a small `m·n` runs a split-k path whose
/// partial products are reduced in chunk order — both bitwise deterministic
/// across runs and thread counts.
#[allow(clippy::too_many_arguments)]
pub fn gemm<E: GemmElement>(
    m: usize,
    n: usize,
    k: usize,
    a: &[E],
    trans_a: bool,
    b: &[E],
    trans_b: bool,
    c: &mut [E],
    accumulate: bool,
) {
    assert_eq!(a.len(), m * k, "A storage must hold m*k elements");
    assert_eq!(b.len(), k * n, "B storage must hold k*n elements");
    assert_eq!(c.len(), m * n, "C storage must hold m*n elements");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        if !accumulate {
            c.fill(E::ZERO);
        }
        return;
    }
    let chunks = k
        .div_ceil(KSPLIT_LEN)
        .min(KSPLIT_MAX_SCRATCH / (m * n).max(1));
    if chunks >= 2 && m * n <= KSPLIT_MAX_MN {
        gemm_split_k(m, n, k, a, trans_a, b, trans_b, c, accumulate, chunks);
    } else {
        let pa = pack_a(a, m, k, trans_a);
        gemm_prepacked(&pa, b, trans_b, c, n, accumulate);
    }
}

/// Split-k evaluation: `chunks` partial `m × n` products computed in
/// parallel, then reduced **in chunk order** into `C`.
#[allow(clippy::too_many_arguments)]
fn gemm_split_k<E: GemmElement>(
    m: usize,
    n: usize,
    k: usize,
    a: &[E],
    trans_a: bool,
    b: &[E],
    trans_b: bool,
    c: &mut [E],
    accumulate: bool,
    chunks: usize,
) {
    let (ars, acs) = op_strides(m, k, trans_a);
    let (brs, bcs) = op_strides(k, n, trans_b);
    let chunk_len = k.div_ceil(chunks);
    let mn = m * n;
    let mut partials = vec![E::ZERO; chunks * mn];
    let pptr = SyncSlice::new(&mut partials);
    par_jobs_with(chunks, mn * chunk_len, Vec::<E>::new, |bpack, s| {
        let k0 = s * chunk_len;
        let k1 = (k0 + chunk_len).min(k);
        let pa = pack_a_range(a, m, ars, acs, k0, k1);
        let fill = |kk0, kc_len, j0, jn, bp: &mut [E]| {
            pack_b_slab(b, brs, bcs, k0 + kk0, kc_len, j0, jn, bp)
        };
        // SAFETY: chunk `s` exclusively owns partials[s*mn .. (s+1)*mn].
        unsafe {
            compute_cols(
                &pa,
                &fill,
                pptr.as_mut_ptr().add(s * mn),
                n,
                0,
                n,
                None,
                false,
                bpack,
            );
        }
    });
    if !accumulate {
        c.fill(E::ZERO);
    }
    for s in 0..chunks {
        let part = &partials[s * mn..(s + 1) * mn];
        for (dst, &src) in c.iter_mut().zip(part) {
            *dst += src;
        }
    }
}

/// Packs columns `[k0, k1)` of `op(A)` given explicit element strides.
fn pack_a_range<E: GemmElement>(
    a: &[E],
    m: usize,
    ars: usize,
    acs: usize,
    k0: usize,
    k1: usize,
) -> PackedA<E> {
    let (mr_t, kc_t) = (E::MR, E::KC);
    let k = k1 - k0;
    let mpanels = m.div_ceil(mr_t).max(1);
    let kblocks = k.div_ceil(kc_t);
    let mut data = vec![E::ZERO; kblocks.max(1) * mpanels * kc_t * mr_t];
    for kb in 0..kblocks {
        let kc0 = kb * kc_t;
        let kc_len = kc_t.min(k - kc0);
        let block_base = kb * mpanels * kc_t * mr_t;
        let mut out = block_base;
        for mp in 0..mpanels {
            let i0 = mp * mr_t;
            for kk in 0..kc_len {
                let l = k0 + kc0 + kk;
                for mr in 0..mr_t {
                    let i = i0 + mr;
                    data[out] = if i < m { a[i * ars + l * acs] } else { E::ZERO };
                    out += 1;
                }
            }
        }
    }
    PackedA {
        m,
        k,
        mpanels,
        data,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn naive<E: GemmElement>(
        m: usize,
        n: usize,
        k: usize,
        a: &[E],
        trans_a: bool,
        b: &[E],
        trans_b: bool,
    ) -> Vec<E> {
        let (ars, acs) = op_strides(m, k, trans_a);
        let (brs, bcs) = op_strides(k, n, trans_b);
        let mut c = vec![E::ZERO; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut s = E::ZERO;
                for l in 0..k {
                    s += a[i * ars + l * acs] * b[l * brs + j * bcs];
                }
                c[i * n + j] = s;
            }
        }
        c
    }

    fn rand_vec<E: GemmElement>(len: usize, rng: &mut StdRng) -> Vec<E> {
        (0..len)
            .map(|_| E::from_f64(rng.gen_range(-1.0..1.0)))
            .collect()
    }

    fn check_case<E: GemmElement>(
        m: usize,
        n: usize,
        k: usize,
        trans_a: bool,
        trans_b: bool,
        seed: u64,
        tol: f64,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<E> = rand_vec(m * k, &mut rng);
        let b: Vec<E> = rand_vec(k * n, &mut rng);
        let want = naive(m, n, k, &a, trans_a, &b, trans_b);
        let mut c = vec![E::ZERO; m * n];
        gemm(m, n, k, &a, trans_a, &b, trans_b, &mut c, false);
        for i in 0..m * n {
            let (ci, wi) = (c[i].to_f64(), want[i].to_f64());
            assert!(
                (ci - wi).abs() <= tol * wi.abs().max(1.0),
                "{} ({m}x{n}x{k}, ta={trans_a}, tb={trans_b})[{i}]: {ci} vs {wi}",
                E::NAME
            );
        }
    }

    #[test]
    fn matches_naive_across_shapes() {
        // Exercises full tiles, ragged edges in every dimension, tiny and
        // micro-kernel-sized operands — for both element types (the f32
        // tile is wider, so its edge cases sit at different shapes).
        for &(m, n, k) in &[
            (1, 1, 1),
            (MR, NR, KC),
            (MR + 1, NR + 3, KC + 5),
            (8, 32 + 5, KC + 5), // ragged edge of the f32 tile
            (3, 7, 2),
            (8, 600, 40),  // crosses an NC slab boundary for both tiles
            (17, 23, 300), // crosses a KC block boundary
            (2, 2, 513),
        ] {
            for &(ta, tb) in &[(false, false), (true, false), (false, true), (true, true)] {
                let seed = (m * 31 + n * 7 + k) as u64;
                check_case::<f64>(m, n, k, ta, tb, seed, 1e-11);
                check_case::<f32>(m, n, k, ta, tb, seed, 1e-4);
            }
        }
    }

    #[test]
    fn indexed_product_is_the_packed_product() {
        // `B[k, j] = src[rows[k] + cols[j]]` materialized and packed by
        // the serial GEMM against the indexed product: bit for bit, over
        // several `KC` blocks, ragged `MR` panels and a strided `C`.
        let mut rng = StdRng::seed_from_u64(29);
        let src: Vec<f64> = rand_vec(3000, &mut rng);
        for (m, k, n) in [(1, 5, 3), (5, 300, 27), (8, 2 * KC + 3, 40), (17, 513, 9)] {
            let rows: Vec<usize> = (0..k).map(|_| rng.gen_range(0..2000usize)).collect();
            let cols: Vec<usize> = (0..n).map(|_| rng.gen_range(0..1000usize)).collect();
            let b: Vec<f64> = rows
                .iter()
                .flat_map(|&r| cols.iter().map(move |&c| r + c))
                .map(|i| src[i])
                .collect();
            let a: Vec<f64> = rand_vec(m * k, &mut rng);
            let pa = pack_a(&a, m, k, false);
            let ldc = n + 2;
            let mut want = vec![7.5; m * ldc];
            let fill =
                |k0, kc_len, j0, jn, bp: &mut [f64]| pack_b_slab(&b, n, 1, k0, kc_len, j0, jn, bp);
            gemm_prepacked_serial(&pa, 0..n, &fill, &mut want, ldc, None, &mut Vec::new());
            let mut got = vec![7.5; m * ldc];
            gemm_prepacked_indexed(&pa, &src, &rows, &cols, &mut got, ldc, &mut Vec::new());
            assert!(
                want.iter()
                    .zip(&got)
                    .all(|(w, g)| w.to_bits() == g.to_bits()),
                "m={m} k={k} n={n}"
            );
        }
    }

    #[test]
    fn split_k_path_matches_naive() {
        // k large enough for >= 2 chunks, m*n small: hits gemm_split_k.
        check_case::<f64>(3, 5, 2 * KSPLIT_LEN + 17, false, true, 99, 1e-11);
        check_case::<f32>(3, 5, 2 * KSPLIT_LEN + 17, false, true, 99, 1e-3);
    }

    #[test]
    fn accumulate_adds_into_c() {
        let mut rng = StdRng::seed_from_u64(5);
        let (m, n, k) = (5, 9, 11);
        let a: Vec<f64> = rand_vec(m * k, &mut rng);
        let b: Vec<f64> = rand_vec(k * n, &mut rng);
        let base: Vec<f64> = rand_vec(m * n, &mut rng);
        let mut c = base.clone();
        gemm(m, n, k, &a, false, &b, false, &mut c, true);
        let prod = naive(m, n, k, &a, false, &b, false);
        for i in 0..m * n {
            assert!((c[i] - (base[i] + prod[i])).abs() < 1e-12);
        }
    }

    #[test]
    fn prepacked_matches_gemm_and_reuses_across_calls() {
        let mut rng = StdRng::seed_from_u64(8);
        let (m, n, k) = (6, 40, 30);
        let a: Vec<f64> = rand_vec(m * k, &mut rng);
        let pa = pack_a(&a, m, k, false);
        assert_eq!((pa.m(), pa.k()), (m, k));
        for trial in 0..3 {
            let b: Vec<f64> = rand_vec(k * n, &mut rng);
            let mut c1 = vec![0.0; m * n];
            let mut c2 = vec![0.0; m * n];
            gemm_prepacked(&pa, &b, false, &mut c1, n, false);
            gemm(m, n, k, &a, false, &b, false, &mut c2, false);
            assert_eq!(c1, c2, "trial {trial}");
        }
    }

    #[test]
    fn zero_k_zeroes_or_preserves_c() {
        let mut c = vec![3.0f64; 4];
        gemm(2, 2, 0, &[], false, &[], false, &mut c, true);
        assert_eq!(c, vec![3.0; 4]);
        gemm(2, 2, 0, &[], false, &[], false, &mut c, false);
        assert_eq!(c, vec![0.0; 4]);
    }

    #[test]
    fn bitwise_deterministic_across_runs() {
        fn check<E: GemmElement>() {
            let mut rng = StdRng::seed_from_u64(13);
            let (m, n, k) = (8, 1024, 216);
            let a: Vec<E> = rand_vec(m * k, &mut rng);
            let b: Vec<E> = rand_vec(k * n, &mut rng);
            let mut c1 = vec![E::ZERO; m * n];
            let mut c2 = vec![E::ZERO; m * n];
            gemm(m, n, k, &a, false, &b, false, &mut c1, false);
            gemm(m, n, k, &a, false, &b, false, &mut c2, false);
            assert!(
                c1.iter().zip(&c2).all(|(x, y)| x.bits() == y.bits()),
                "{} gemm not reproducible",
                E::NAME
            );
        }
        check::<f64>();
        check::<f32>();
    }

    #[test]
    fn f32_split_k_bitwise_deterministic() {
        let (m, n, k) = (3, 4, 2 * KSPLIT_LEN + 7);
        let mut rng = StdRng::seed_from_u64(29);
        let a: Vec<f32> = rand_vec(m * k, &mut rng);
        let b: Vec<f32> = rand_vec(k * n, &mut rng);
        let mut c1 = vec![0.0f32; m * n];
        let mut c2 = vec![0.0f32; m * n];
        gemm(m, n, k, &a, false, &b, false, &mut c1, false);
        gemm(m, n, k, &a, false, &b, false, &mut c2, false);
        assert!(c1.iter().zip(&c2).all(|(x, y)| x.to_bits() == y.to_bits()));
    }
}

#[cfg(test)]
mod perf_probe {
    use super::*;
    use crate::par::with_threads;

    /// Single-thread GFLOP/s of one prepacked product, best of three.
    fn probe<E: GemmElement>(m: usize, n: usize, k: usize) -> f64 {
        let a = vec![E::ONE; m * k];
        let b = vec![E::ONE; k * n];
        let mut c = vec![E::ZERO; m * n];
        let pa = pack_a(&a, m, k, false);
        let best = (0..3)
            .map(|_| {
                let t = std::time::Instant::now();
                with_threads(1, || gemm_prepacked(&pa, &b, false, &mut c, n, false));
                t.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min);
        std::hint::black_box(&c);
        2.0 * (m * n * k) as f64 / best / 1e9
    }

    /// The U-Net's conv GEMM shapes on one thread: m = out_c, k = in_c ·
    /// kernel volume (27 = 1·3³ … 1728 = 64·3³), n = one 128² plane of
    /// window positions.
    #[test]
    #[ignore]
    fn throughput_probe() {
        let n = 128 * 128;
        for m in [8, 16, 32, 64] {
            for k in [27, 216, 432, 864, 1728] {
                eprintln!(
                    "gemm m={m:>2} k={k:>4} n={n}: f64 {:6.2}  f32 {:6.2} GFLOP/s",
                    probe::<f64>(m, n, k),
                    probe::<f32>(m, n, k)
                );
            }
        }
    }
}
