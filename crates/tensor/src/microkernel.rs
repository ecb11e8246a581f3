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

/// Tile rows shared by every element type: out_c ∈ {8, 16, 32, 64} fills
/// whole tiles.
pub(crate) const MR: usize = 8;
/// Tile columns of the `f64` kernels.
pub(crate) const NR_F64: usize = 16;
/// Tile columns of the `f32` kernels (twice the lanes per register).
pub(crate) const NR_F32: usize = 32;

/// Signature shared by every tile variant.
pub(crate) type Tile<E> = fn(usize, &[E], &[E], &mut [E]);

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
}

/// The `f64` tile this build runs.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
pub(crate) const TILE_F64: Tile<f64> = avx512::tile_f64;
/// The `f32` tile this build runs.
#[cfg(all(target_arch = "x86_64", target_feature = "avx512f"))]
pub(crate) const TILE_F32: Tile<f32> = avx512::tile_f32;

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
