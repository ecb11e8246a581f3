//! The register tiles behind [`GemmElement::microkernel`](crate::GemmElement::microkernel).
//!
//! Every variant computes the same `MR × NR` tile,
//! `acc[mr * NR + nr] = Σ_k apanel[k*MR + mr] * bpanel[k*NR + nr]`, starting
//! from zero and visiting `k` in order — so each output element sees one
//! fixed operation sequence regardless of the variant. `f64` multiplies then
//! adds (never fused), which keeps it bitwise identical across variants and
//! to every earlier build of this kernel; `f32` fuses (`mul_add`) wherever
//! the target has FMA.
//!
//! The variant is chosen at compile time from `cfg(target_feature)`:
//!
//! - **AVX-512** — one pass over `k` with the whole tile in registers:
//!   8 rows × 2 vectors = 16 accumulators (f64 8×16, f32 8×32).
//! - **AVX2 + FMA** — 16 ymm registers cannot hold the tile, so it runs as
//!   four 4-row × 2-vector blocks (8 accumulators each), re-reading the
//!   L1-resident panels.
//! - **portable** — plain loops over a local `[[E; NR]; MR]` array, left to
//!   the auto-vectorizer; correct everywhere, fast nowhere in particular.
//!
//! The SIMD variants are written with `std::arch` rather than left to the
//! auto-vectorizer, which maps an 8-row tile poorly (a few GFLOP/s).
//!
//! The **indexed** tile ([`IndexedTile`], `f64` only) is the same product
//! over a `B` that is never packed: `B[k, j] = src[rows[k] + cols[j]]`, read
//! where it lies. It keeps a run of columns × the `MR` rows in registers,
//! one vector of rows per column, and per step `k` broadcasts each column's
//! source value onto the step's `A` vector. The operation sequence per
//! element is the `f64` tile's (zero, then multiply and add in `k` order),
//! so an indexed product is bitwise the packed one. Its variants differ in
//! how many columns they hold: 24 on AVX-512 (one zmm of rows each), 6 on
//! AVX2 (two ymm each, within 16 registers), one at a time portably.

/// Tile rows shared by every element type: out_c ∈ {8, 16, 32, 64} fills
/// whole tiles.
pub(crate) const MR: usize = 8;
/// Tile columns of the `f64` kernels.
pub(crate) const NR_F64: usize = 16;
/// Tile columns of the `f32` kernels (twice the lanes per register).
pub(crate) const NR_F32: usize = 32;

/// Signature shared by every tile variant.
pub(crate) type Tile<E> = fn(usize, &[E], &[E], &mut [E]);

/// Signature shared by every indexed-tile variant:
/// `(kc_len, apanel, src, rows, cols, acc)` computes, for every column
/// `j < cols.len()` and row `mr < MR`,
/// `acc[j * MR + mr] = Σ_{k < kc_len} apanel[k*MR + mr] · src[rows[k] + cols[j]]`,
/// starting from zero and visiting `k` in order, multiply then add. It
/// panics unless every `rows[k] + cols[j]` indexes `src`.
pub(crate) type IndexedTile = fn(usize, &[f64], &[f64], &[usize], &[usize], &mut [f64]);

/// The index check every indexed tile makes before it reads `src`: the
/// largest row base plus the largest column offset stays inside it.
fn check_indexed(src: &[f64], rows: &[usize], cols: &[usize]) {
    if let (Some(&r), Some(&c)) = (rows.iter().max(), cols.iter().max()) {
        assert!(
            r < src.len() && c < src.len() - r,
            "indexed operand reads past its source"
        );
    }
}

/// Portable indexed tile: one column at a time, its `MR` rows left to the
/// auto-vectorizer.
#[cfg_attr(not(test), allow(dead_code))]
#[inline(never)]
pub(crate) fn portable_indexed(
    kc_len: usize,
    apanel: &[f64],
    src: &[f64],
    rows: &[usize],
    cols: &[usize],
    acc: &mut [f64],
) {
    let (a, rows) = (&apanel[..kc_len * MR], &rows[..kc_len]);
    check_indexed(src, rows, cols);
    for (&c, out) in cols.iter().zip(acc[..cols.len() * MR].chunks_exact_mut(MR)) {
        let mut tile = [0.0f64; MR];
        for (&r, avals) in rows.iter().zip(a.chunks_exact(MR)) {
            let x = src[r + c];
            for (t, &a) in tile.iter_mut().zip(avals) {
                *t += a * x;
            }
        }
        out.copy_from_slice(&tile);
    }
}

/// Portable `f64` tile (multiply, then add).
// Variants a build does not dispatch to stay compiled for the variant test.
#[cfg_attr(not(test), allow(dead_code))]
#[inline(never)]
pub(crate) fn portable_f64(kc_len: usize, apanel: &[f64], bpanel: &[f64], acc: &mut [f64]) {
    let mut tile = [[0.0f64; NR_F64]; MR];
    let a_steps = apanel[..kc_len * MR].chunks_exact(MR);
    let b_steps = bpanel[..kc_len * NR_F64].chunks_exact(NR_F64);
    for (avals, bvals) in a_steps.zip(b_steps) {
        for (row, &a) in tile.iter_mut().zip(avals) {
            for (t, &b) in row.iter_mut().zip(bvals) {
                *t += a * b;
            }
        }
    }
    for (dst, row) in acc[..MR * NR_F64].chunks_exact_mut(NR_F64).zip(&tile) {
        dst.copy_from_slice(row);
    }
}

/// Portable `f32` tile: fused multiply-add when the target has hardware
/// FMA (without it `f32::mul_add` is a libm call per lane), multiply then
/// add otherwise — a compile-time choice, so bits are fixed per build.
#[cfg_attr(not(test), allow(dead_code))]
#[inline(never)]
pub(crate) fn portable_f32(kc_len: usize, apanel: &[f32], bpanel: &[f32], acc: &mut [f32]) {
    let mut tile = [[0.0f32; NR_F32]; MR];
    let a_steps = apanel[..kc_len * MR].chunks_exact(MR);
    let b_steps = bpanel[..kc_len * NR_F32].chunks_exact(NR_F32);
    for (avals, bvals) in a_steps.zip(b_steps) {
        for (row, &a) in tile.iter_mut().zip(avals) {
            for (t, &b) in row.iter_mut().zip(bvals) {
                *t = if cfg!(target_feature = "fma") {
                    a.mul_add(b, *t)
                } else {
                    *t + a * b
                };
            }
        }
    }
    for (dst, row) in acc[..MR * NR_F32].chunks_exact_mut(NR_F32).zip(&tile) {
        dst.copy_from_slice(row);
    }
}

/// Expands to one SIMD tile function: the `MR × NR` tile computed as
/// `ROWS`-row × two-vector register blocks, each accumulated over all of
/// `k` before the next block starts.
#[cfg(all(
    target_arch = "x86_64",
    any(
        target_feature = "avx512f",
        all(target_feature = "avx2", target_feature = "fma")
    )
))]
macro_rules! simd_tile {
    (
        $name:ident, $e:ty, $nr:expr, $rows:expr, $lanes:expr,
        $zero:ident, $load:ident, $store:ident, $splat:ident, $madd:ident
    ) => {
        #[inline(never)]
        pub(crate) fn $name(kc_len: usize, apanel: &[$e], bpanel: &[$e], acc: &mut [$e]) {
            const NR: usize = $nr;
            const ROWS: usize = $rows;
            const LANES: usize = $lanes;
            let a = &apanel[..kc_len * MR];
            let b = &bpanel[..kc_len * NR];
            let acc = &mut acc[..MR * NR];
            for r0 in (0..MR).step_by(ROWS) {
                for c0 in (0..NR).step_by(2 * LANES) {
                    // SAFETY: the enclosing module is compiled only when
                    // the target enables the instructions used here. `a`
                    // and `b` hold exactly `kc_len` steps (sliced above),
                    // so with `k < kc_len`, `r0 + r < MR` and
                    // `c0 + 2*LANES <= NR` every load stays inside them;
                    // every store lands inside `acc` (`MR * NR` long).
                    unsafe {
                        let mut t = [[$zero(); 2]; ROWS];
                        for k in 0..kc_len {
                            let bp = b.as_ptr().add(k * NR + c0);
                            let (y0, y1) = ($load(bp), $load(bp.add(LANES)));
                            let ap = a.as_ptr().add(k * MR + r0);
                            for (r, row) in t.iter_mut().enumerate() {
                                let x = $splat(*ap.add(r));
                                row[0] = $madd(row[0], x, y0);
                                row[1] = $madd(row[1], x, y1);
                            }
                        }
                        for (r, row) in t.iter().enumerate() {
                            let dst = acc.as_mut_ptr().add((r0 + r) * NR + c0);
                            $store(dst, row[0]);
                            $store(dst.add(LANES), row[1]);
                        }
                    }
                }
            }
        }
    };
}

/// Expands to one SIMD indexed tile: columns in runs of at most the last
/// of `$taps` (ascending), each run held as `[vector of MR rows; run]` in
/// registers over all of `k`. A short last run takes the smallest listed
/// width that holds it, its spare columns reading `src[rows[k]]` and
/// discarded.
#[cfg(all(
    target_arch = "x86_64",
    any(
        target_feature = "avx512f",
        all(target_feature = "avx2", target_feature = "fma")
    )
))]
macro_rules! indexed_tile {
    (
        $name:ident, $vec:ty, $lanes:expr, [$($taps:literal),+],
        $zero:ident, $load:ident, $store:ident, $splat:ident, $madd:ident
    ) => {
        #[inline(never)]
        pub(crate) fn $name(
            kc_len: usize,
            apanel: &[f64],
            src: &[f64],
            rows: &[usize],
            cols: &[usize],
            acc: &mut [f64],
        ) {
            const WIDTHS: &[usize] = &[$($taps),+];
            let (a, rows) = (&apanel[..kc_len * MR], &rows[..kc_len]);
            let acc = &mut acc[..cols.len() * MR];
            super::check_indexed(src, rows, cols);
            let mut j = 0;
            while j < cols.len() {
                let n = (cols.len() - j).min(WIDTHS[WIDTHS.len() - 1]);
                let (cs, out) = (&cols[j..j + n], &mut acc[j * MR..(j + n) * MR]);
                $(
                    if n <= $taps {
                        run::<$taps>(a, src, rows, cs, out);
                        j += n;
                        continue;
                    }
                )+
                unreachable!("the widest run holds every remainder");
            }
        }

        /// One run of `cols.len() <= T` columns of the indexed tile.
        #[inline(always)]
        fn run<const T: usize>(
            a: &[f64],
            src: &[f64],
            rows: &[usize],
            cols: &[usize],
            out: &mut [f64],
        ) {
            const V: usize = MR / $lanes;
            let mut idx = [0usize; T];
            idx[..cols.len()].copy_from_slice(cols);
            // SAFETY: the enclosing module is compiled only when the target
            // enables the instructions used here. Every `rows[k] + idx[t]`
            // indexes `src`: the caller checked `rows[k] + cols[j]` for the
            // largest of both (`check_indexed`), and a spare `idx[t]` is 0.
            // Each `A` step holds `MR = V·LANES` values (`chunks_exact`),
            // and each store lands in one `MR`-long chunk of `out`.
            unsafe {
                let mut t = [[$zero(); V]; T];
                let load = |av: &[f64]| -> [$vec; V] {
                    std::array::from_fn(|v| $load(av.as_ptr().add(v * $lanes)))
                };
                // Steps in pairs, so each column offset read serves two
                // broadcasts; per element still step `k`, then `k + 1`.
                let (pairs, a_pairs) = (rows.chunks_exact(2), a.chunks_exact(2 * MR));
                let (last, a_last) = (pairs.remainder(), a_pairs.remainder());
                for (r, av) in pairs.zip(a_pairs) {
                    let (y0, y1) = (load(&av[..MR]), load(&av[MR..]));
                    let (s0, s1) = (src.as_ptr().add(r[0]), src.as_ptr().add(r[1]));
                    for (col, &o) in t.iter_mut().zip(&idx) {
                        let (x0, x1) = ($splat(*s0.add(o)), $splat(*s1.add(o)));
                        for ((acc, &u0), &u1) in col.iter_mut().zip(&y0).zip(&y1) {
                            *acc = $madd($madd(*acc, x0, u0), x1, u1);
                        }
                    }
                }
                for (&r, av) in last.iter().zip(a_last.chunks_exact(MR)) {
                    let y = load(av);
                    let s = src.as_ptr().add(r);
                    for (col, &o) in t.iter_mut().zip(&idx) {
                        let x = $splat(*s.add(o));
                        for (acc, &u) in col.iter_mut().zip(&y) {
                            *acc = $madd(*acc, x, u);
                        }
                    }
                }
                for (col, dst) in t.iter().zip(out.chunks_exact_mut(MR)) {
                    for (v, &acc) in col.iter().enumerate() {
                        $store(dst.as_mut_ptr().add(v * $lanes), acc);
                    }
                }
            }
        }
    };
}

#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
pub(crate) mod avx512 {
    use super::{MR, NR_F32, NR_F64};
    use std::arch::x86_64::*;

    /// # Safety
    /// The target must support AVX-512F (guaranteed by the module `cfg`).
    #[inline(always)]
    unsafe fn madd_pd(acc: __m512d, a: __m512d, b: __m512d) -> __m512d {
        // Deliberately unfused: `f64` tiles must round the product.
        _mm512_add_pd(acc, _mm512_mul_pd(a, b))
    }

    /// # Safety
    /// The target must support AVX-512F (guaranteed by the module `cfg`).
    #[inline(always)]
    unsafe fn madd_ps(acc: __m512, a: __m512, b: __m512) -> __m512 {
        _mm512_fmadd_ps(a, b, acc)
    }

    simd_tile!(
        tile_f64,
        f64,
        NR_F64,
        8,
        8,
        _mm512_setzero_pd,
        _mm512_loadu_pd,
        _mm512_storeu_pd,
        _mm512_set1_pd,
        madd_pd
    );
    simd_tile!(
        tile_f32,
        f32,
        NR_F32,
        8,
        16,
        _mm512_setzero_ps,
        _mm512_loadu_ps,
        _mm512_storeu_ps,
        _mm512_set1_ps,
        madd_ps
    );
    indexed_tile!(
        indexed_f64,
        __m512d,
        8,
        [4, 8, 12, 16, 20, 24],
        _mm512_setzero_pd,
        _mm512_loadu_pd,
        _mm512_storeu_pd,
        _mm512_set1_pd,
        madd_pd
    );
}

#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma"
))]
#[cfg_attr(not(test), allow(dead_code))]
pub(crate) mod avx2 {
    use super::{MR, NR_F32, NR_F64};
    use std::arch::x86_64::*;

    /// # Safety
    /// The target must support AVX (guaranteed by the module `cfg`).
    #[inline(always)]
    unsafe fn madd_pd(acc: __m256d, a: __m256d, b: __m256d) -> __m256d {
        // Deliberately unfused: `f64` tiles must round the product.
        _mm256_add_pd(acc, _mm256_mul_pd(a, b))
    }

    /// # Safety
    /// The target must support FMA (guaranteed by the module `cfg`).
    #[inline(always)]
    unsafe fn madd_ps(acc: __m256, a: __m256, b: __m256) -> __m256 {
        _mm256_fmadd_ps(a, b, acc)
    }

    simd_tile!(
        tile_f64,
        f64,
        NR_F64,
        4,
        4,
        _mm256_setzero_pd,
        _mm256_loadu_pd,
        _mm256_storeu_pd,
        _mm256_set1_pd,
        madd_pd
    );
    simd_tile!(
        tile_f32,
        f32,
        NR_F32,
        4,
        8,
        _mm256_setzero_ps,
        _mm256_loadu_ps,
        _mm256_storeu_ps,
        _mm256_set1_ps,
        madd_ps
    );
    indexed_tile!(
        indexed_f64,
        __m256d,
        4,
        [2, 4, 6],
        _mm256_setzero_pd,
        _mm256_loadu_pd,
        _mm256_storeu_pd,
        _mm256_set1_pd,
        madd_pd
    );
}

/// The `f64` tile this build runs.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
pub(crate) const TILE_F64: Tile<f64> = avx512::tile_f64;
/// The `f32` tile this build runs.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
pub(crate) const TILE_F32: Tile<f32> = avx512::tile_f32;
/// The indexed tile this build runs.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
pub(crate) const INDEXED_F64: IndexedTile = avx512::indexed_f64;

/// The `f64` tile this build runs.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma",
    not(target_feature = "avx512f")
))]
pub(crate) const TILE_F64: Tile<f64> = avx2::tile_f64;
/// The `f32` tile this build runs.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma",
    not(target_feature = "avx512f")
))]
pub(crate) const TILE_F32: Tile<f32> = avx2::tile_f32;
/// The indexed tile this build runs.
#[cfg(all(
    target_arch = "x86_64",
    target_feature = "avx2",
    target_feature = "fma",
    not(target_feature = "avx512f")
))]
pub(crate) const INDEXED_F64: IndexedTile = avx2::indexed_f64;

/// The `f64` tile this build runs.
#[cfg(not(all(
    target_arch = "x86_64",
    any(
        target_feature = "avx512f",
        all(target_feature = "avx2", target_feature = "fma")
    )
)))]
pub(crate) const TILE_F64: Tile<f64> = portable_f64;
/// The `f32` tile this build runs.
#[cfg(not(all(
    target_arch = "x86_64",
    any(
        target_feature = "avx512f",
        all(target_feature = "avx2", target_feature = "fma")
    )
)))]
pub(crate) const TILE_F32: Tile<f32> = portable_f32;
/// The indexed tile this build runs.
#[cfg(not(all(
    target_arch = "x86_64",
    any(
        target_feature = "avx512f",
        all(target_feature = "avx2", target_feature = "fma")
    )
)))]
pub(crate) const INDEXED_F64: IndexedTile = portable_indexed;

/// Every `f64` tile variant compiled into this build, by name.
#[cfg(test)]
pub(crate) fn compiled_f64() -> Vec<(&'static str, Tile<f64>)> {
    vec![
        ("portable", portable_f64 as Tile<f64>),
        #[cfg(all(
            target_arch = "x86_64",
            target_feature = "avx2",
            target_feature = "fma"
        ))]
        ("avx2", avx2::tile_f64),
        #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
        ("avx512", avx512::tile_f64),
    ]
}

/// Every `f32` tile variant compiled into this build, by name. All of them
/// fuse iff the target has FMA (the SIMD ones require it).
#[cfg(test)]
pub(crate) fn compiled_f32() -> Vec<(&'static str, Tile<f32>)> {
    vec![
        ("portable", portable_f32 as Tile<f32>),
        #[cfg(all(
            target_arch = "x86_64",
            target_feature = "avx2",
            target_feature = "fma"
        ))]
        ("avx2", avx2::tile_f32),
        #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
        ("avx512", avx512::tile_f32),
    ]
}

/// Every indexed tile variant compiled into this build, by name.
#[cfg(test)]
pub(crate) fn compiled_indexed() -> Vec<(&'static str, IndexedTile)> {
    vec![
        ("portable", portable_indexed as IndexedTile),
        #[cfg(all(
            target_arch = "x86_64",
            target_feature = "avx2",
            target_feature = "fma"
        ))]
        ("avx2", avx2::indexed_f64),
        #[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
        ("avx512", avx512::indexed_f64),
    ]
}
