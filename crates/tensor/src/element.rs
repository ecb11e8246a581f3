//! The element-type abstraction behind generic tensors and kernels.
//!
//! Everything in this workspace computed in `f64` until the precision
//! refactor; [`Element`] is the seam that lets the same tensor, GEMM,
//! network-inference and multigrid-smoother code run in `f32` (2× SIMD
//! lanes, half the working set) while training and certification stay in
//! `f64`. The contract is deliberately small:
//!
//! - **Conversion** through `f64` ([`Element::from_f64`] /
//!   [`Element::to_f64`]). Reductions (sums, dots, norms) accumulate in
//!   `f64` regardless of the storage element, so `f32` tensors still report
//!   `f64`-quality statistics and the `f64` instantiation is bit-for-bit
//!   the pre-refactor code.
//! - **Named epsilons** that used to be scattered literals: the BatchNorm
//!   variance floor ([`Element::BN_EPS`]), the Adam denominator guard
//!   ([`Element::ADAM_EPS`]), and the documented equivalence tolerance of
//!   this element against an `f64` reference ([`Element::EQUIV_TOL`]).
//! - **Determinism hooks**: [`Element::bits`] exposes the raw IEEE pattern
//!   so bitwise-reproducibility tests work for any element.
//!
//! [`GemmElement`] layers the blocked-GEMM tuning knobs (`MR×NR` register
//! tile, `KC`/`NC` cache blocks) and the register-tiled micro-kernel on
//! top, because the optimal tile is precision-dependent: `f32` doubles the
//! lanes per vector register, so its 8-row tile is twice as wide.

use crate::microkernel;
use std::fmt::{Debug, Display};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// Division/curvature guard for `f64` solver code: denominators smaller in
/// magnitude than this are treated as zero (inverse-diagonal masking in the
/// FEM systems, line-search curvature and norm-ratio guards). Hoisted from
/// scattered `1e-300` literals.
pub const F64_DIV_GUARD: f64 = 1e-300;

/// Numeric-precision mode of an engine, snapshot, or solver path: the
/// element type its reduced-precision work runs at.
///
/// This is the user-facing knob the element-generic kernels hide behind:
///
/// - [`Precision::F64`] — every path runs in `f64`, bitwise identical to
///   the pre-refactor code. The default.
/// - [`Precision::F32`] — *serving* forward passes run single precision
///   (f32 weights and activations: half the memory traffic, twice the
///   SIMD lanes), and certified solves precondition
///   with the f32 multigrid V-cycle: smoothing, residuals and transfers in
///   `f32`, outer PCG / coarsest solve / certification in `f64` (iterative
///   refinement). Training and every residual certificate stay `f64`, so
///   `certify_tol` down to ~1e-12 remains reachable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Full double precision everywhere (the reference behavior).
    #[default]
    F64,
    /// Single-precision serving forwards and the `f32` V-cycle under
    /// `f64`-refined certified solves; training stays `f64`.
    F32,
}

impl Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Precision::F64 => "f64",
            Precision::F32 => "f32",
        })
    }
}

/// A scalar element type tensors and kernels can be generic over.
///
/// Implemented for `f64` (the master/training/certification precision) and
/// `f32` (the SIMD fast path). All mixed-precision logic converts through
/// `f64`; see the module docs for the accumulate-in-`f64` convention.
pub trait Element:
    Copy
    + Clone
    + Default
    + Send
    + Sync
    + 'static
    + PartialEq
    + PartialOrd
    + Debug
    + Display
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;
    /// Machine epsilon (distance from 1.0 to the next representable value).
    const EPSILON: Self;
    /// Lowercase type name, used as the precision tag in weight snapshots
    /// and bench reports (`"f64"` / `"f32"`).
    const NAME: &'static str;
    /// BatchNorm variance floor: added to the batch variance before the
    /// square root so normalization never divides by ~0.
    const BN_EPS: Self;
    /// Adam second-moment denominator guard.
    const ADAM_EPS: Self;
    /// Documented relative-L2 tolerance of this element's compute paths
    /// against an `f64` reference (the bound the equivalence test suite
    /// asserts). Identically-zero rounding gap for `f64` itself is covered
    /// by a tiny non-zero allowance so tests can share one code path.
    const EQUIV_TOL: f64;

    /// Rounds an `f64` into this element.
    fn from_f64(v: f64) -> Self;
    /// Widens this element to `f64` (exact for both implementations).
    fn to_f64(self) -> f64;
    /// Absolute value.
    fn abs(self) -> Self;
    /// Square root.
    fn sqrt(self) -> Self;
    /// Natural exponential.
    fn exp(self) -> Self;
    /// NaN-propagating-free maximum (IEEE `maxNum`, like `f64::max`).
    fn max(self, other: Self) -> Self;
    /// NaN-propagating-free minimum.
    fn min(self, other: Self) -> Self;
    /// Fused/contracted `self * a + b` (allowed to round once or twice,
    /// matching `f64::mul_add` availability).
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// False for NaN and ±∞.
    fn is_finite(self) -> bool;
    /// Raw IEEE bit pattern, zero-extended to 64 bits (for bitwise
    /// determinism assertions).
    fn bits(self) -> u64;
}

impl Element for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPSILON: Self = f64::EPSILON;
    const NAME: &'static str = "f64";
    const BN_EPS: Self = 1e-5;
    const ADAM_EPS: Self = 1e-8;
    const EQUIV_TOL: f64 = 1e-12;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline(always)]
    fn exp(self) -> Self {
        f64::exp(self)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }
    #[inline(always)]
    fn min(self, other: Self) -> Self {
        f64::min(self, other)
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
    #[inline(always)]
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

impl Element for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPSILON: Self = f32::EPSILON;
    const NAME: &'static str = "f32";
    const BN_EPS: Self = 1e-5;
    const ADAM_EPS: Self = 1e-8;
    // One part in ~10^4: conv/U-Net forwards measured ~1e-6..1e-5 relative
    // to f64; the bound leaves headroom for deep stacks and 64^3 domains.
    const EQUIV_TOL: f64 = 1e-4;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline(always)]
    fn exp(self) -> Self {
        f32::exp(self)
    }
    #[inline(always)]
    fn max(self, other: Self) -> Self {
        f32::max(self, other)
    }
    #[inline(always)]
    fn min(self, other: Self) -> Self {
        f32::min(self, other)
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f32::mul_add(self, a, b)
    }
    #[inline(always)]
    fn is_finite(self) -> bool {
        f32::is_finite(self)
    }
    #[inline(always)]
    fn bits(self) -> u64 {
        u64::from(self.to_bits())
    }
}

/// An [`Element`] with blocked-GEMM tuning parameters and a register-tiled
/// micro-kernel.
///
/// Both precisions use `MR = 8` rows, so the U-Net's out_c ∈ {8, 16, 32,
/// 64} fill whole tiles. With 32 SIMD registers of `W` lanes an `MR × NR`
/// tile needs `MR · NR / W` accumulators plus a broadcast and `NR / W`
/// loads: `f64` runs `8 × 16` (16 accumulators at 8 lanes), `f32` doubles
/// the width to `8 × 32` (still 16 accumulators at 16 lanes), doubling the
/// FLOPs per loaded byte along with the lane count. The kernels themselves
/// (AVX-512, AVX2, portable — one chosen per build) live in
/// `microkernel.rs`.
pub trait GemmElement: Element {
    /// Micro-kernel tile rows (rows of `op(A)` per register tile).
    const MR: usize;
    /// Micro-kernel tile columns (columns of `op(B)` per register tile).
    const NR: usize;
    /// Cache block along the shared dimension `k` (an `MR`-panel of A plus
    /// an `NR`-panel of B sized to stay L1-resident).
    const KC: usize;
    /// Columns per parallel job (one packed `KC × NC` B slab sized for L2).
    const NC: usize;

    /// Computes a full `MR × NR` register tile over `kc_len` packed steps:
    /// `acc[mr * NR + nr] = Σ_k apanel[k*MR + mr] * bpanel[k*NR + nr]`.
    ///
    /// `acc` (length `MR * NR`, row-major) is fully overwritten. Every
    /// element starts from zero and accumulates over `k` in order (`f64`
    /// multiplies then adds; `f32` fuses where the target has FMA), so
    /// results are bitwise deterministic.
    fn microkernel(kc_len: usize, apanel: &[Self], bpanel: &[Self], acc: &mut [Self]);
}

impl GemmElement for f64 {
    const MR: usize = microkernel::MR;
    const NR: usize = microkernel::NR_F64;
    const KC: usize = 256;
    const NC: usize = 256;

    #[inline(always)]
    fn microkernel(kc_len: usize, apanel: &[Self], bpanel: &[Self], acc: &mut [Self]) {
        microkernel::TILE_F64(kc_len, apanel, bpanel, acc);
    }
}

impl GemmElement for f32 {
    // Twice the tile width of f64 at the same KC, so a KC×NR B panel is
    // still 32 KiB — L1-resident. NC doubles so a packed B slab stays the
    // same 512 KiB in bytes.
    const MR: usize = microkernel::MR;
    const NR: usize = microkernel::NR_F32;
    const KC: usize = 256;
    const NC: usize = 512;

    #[inline(always)]
    fn microkernel(kc_len: usize, apanel: &[Self], bpanel: &[Self], acc: &mut [Self]) {
        microkernel::TILE_F32(kc_len, apanel, bpanel, acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn conversions_roundtrip() {
        assert_eq!(f64::from_f64(1.5), 1.5);
        assert_eq!(f32::from_f64(1.5), 1.5f32);
        assert_eq!(Element::to_f64(0.25f32), 0.25);
        assert_eq!(<f64 as Element>::NAME, "f64");
        assert_eq!(<f32 as Element>::NAME, "f32");
    }

    #[test]
    fn bits_distinguish_signed_zero() {
        assert_ne!(Element::bits(0.0f32), Element::bits(-0.0f32));
        assert_ne!(Element::bits(0.0f64), Element::bits(-0.0f64));
        assert_eq!(Element::bits(1.0f32), u64::from(1.0f32.to_bits()));
    }

    #[test]
    fn microkernel_matches_naive_dot() {
        // Random non-integer operands: an FMA in the f64 tile, or any
        // reordering of k, changes the rounding and fails the bitwise check.
        // Every variant compiled for this host is checked, not only the one
        // the build dispatches to.
        fn check<E: GemmElement>(variants: Vec<(&str, microkernel::Tile<E>)>, fused: bool) {
            let mut rng = StdRng::seed_from_u64(17);
            for kc in [1, 7, 256] {
                let apanel: Vec<E> = (0..kc * E::MR)
                    .map(|_| E::from_f64(rng.gen_range(-1.0..1.0)))
                    .collect();
                let bpanel: Vec<E> = (0..kc * E::NR)
                    .map(|_| E::from_f64(rng.gen_range(-1.0..1.0)))
                    .collect();
                for (name, tile) in &variants {
                    let mut acc = vec![E::from_f64(99.0); E::MR * E::NR];
                    tile(kc, &apanel, &bpanel, &mut acc);
                    for mr in 0..E::MR {
                        for nr in 0..E::NR {
                            let mut want = E::ZERO;
                            for k in 0..kc {
                                let (a, b) = (apanel[k * E::MR + mr], bpanel[k * E::NR + nr]);
                                want = if fused {
                                    a.mul_add(b, want)
                                } else {
                                    want + a * b
                                };
                            }
                            let got = acc[mr * E::NR + nr];
                            assert_eq!(
                                got.bits(),
                                want.bits(),
                                "{} {name} kc={kc} ({mr},{nr}): {got} vs {want}",
                                E::NAME
                            );
                        }
                    }
                }
            }
        }
        check::<f64>(microkernel::compiled_f64(), false);
        check::<f32>(microkernel::compiled_f32(), cfg!(target_feature = "fma"));
    }

    #[test]
    fn indexed_tile_matches_naive_dot() {
        // The indexed tile against the f64 tile's sequence (zero, then
        // multiply and add in k order) on a `B` read through row bases and
        // column offsets — odd step counts (the paired loop's remainder) and
        // column counts that end every variant's runs raggedly, each column
        // checked. Every variant compiled for this host is checked.
        let mut rng = StdRng::seed_from_u64(23);
        let src: Vec<f64> = (0..500).map(|_| rng.gen_range(-1.0..1.0)).collect();
        for (kc, ncols) in [(1, 1), (7, 3), (8, 27), (255, 30), (256, 49)] {
            let mr = microkernel::MR;
            let apanel: Vec<f64> = (0..kc * mr).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let rows: Vec<usize> = (0..kc).map(|_| rng.gen_range(0..400usize)).collect();
            let cols: Vec<usize> = (0..ncols).map(|_| rng.gen_range(0..100usize)).collect();
            for (name, tile) in microkernel::compiled_indexed() {
                let mut acc = vec![99.0; ncols * mr];
                tile(kc, &apanel, &src, &rows, &cols, &mut acc);
                for (j, &c) in cols.iter().enumerate() {
                    for i in 0..mr {
                        let mut want = 0.0;
                        for (k, &r) in rows.iter().enumerate() {
                            want += apanel[k * mr + i] * src[r + c];
                        }
                        let got = acc[j * mr + i];
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{name} kc={kc} col {j} row {i}: {got} vs {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "reads past its source")]
    fn indexed_tile_checks_its_reach() {
        let (src, apanel) = (vec![0.0; 10], vec![0.0; microkernel::MR]);
        let mut acc = vec![0.0; microkernel::MR];
        microkernel::INDEXED_F64(1, &apanel, &src, &[6], &[4], &mut acc);
    }
}
