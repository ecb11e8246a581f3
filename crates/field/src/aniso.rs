//! Parametric anisotropy: turn the scalar KL-expansion field into a
//! symmetric SPD tensor field.
//!
//! The anisotropic workload (Greenfeld et al.'s "diffusion with strongly
//! varying/anisotropic coefficients") keeps the paper's ω-parameterized
//! scalar field `s(x; ω)` as the *strong* principal diffusivity and derives
//! a rotated tensor from two extra knobs:
//!
//! ```text
//! T(x) = R(θ) · diag(s, s/ratio) · R(θ)ᵀ          (2D)
//! ```
//!
//! with `R(θ)` the in-plane rotation. In 3D the x–y plane rotates the same
//! way and the z-axis keeps the scalar value (`T_zz = s`, `T_xz = T_yz =
//! 0`) — an "extruded" anisotropy matching the extruded 3D scalar model.
//! Since `s > 0` and `ratio ≥ 1`, every nodal tensor is SPD by
//! construction; the FEM layer re-validates at system build.
//!
//! Components are emitted in `mgd_fem`'s coordinate order (x-first,
//! diagonal then off-diagonals): 2D `[T_xx, T_yy, T_xy]`, 3D
//! `[T_xx, T_yy, T_zz, T_xy, T_xz, T_yz]`.

use crate::dataset::FieldError;

/// Anisotropy parameters applied on top of a scalar diffusivity model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Anisotropy {
    /// Strong-to-weak principal-diffusivity ratio (≥ 1; 1 = isotropic).
    pub ratio: f64,
    /// In-plane rotation of the strong axis, radians.
    pub theta: f64,
}

impl Anisotropy {
    /// Validated constructor.
    pub fn new(ratio: f64, theta: f64) -> Result<Self, FieldError> {
        let a = Anisotropy { ratio, theta };
        a.validate()?;
        Ok(a)
    }

    /// Rejects ratios below 1 (would swap strong/weak axes and break the
    /// SPD-by-construction argument at ratio ≤ 0) and non-finite knobs.
    pub fn validate(&self) -> Result<(), FieldError> {
        if !self.ratio.is_finite() || self.ratio < 1.0 {
            return Err(FieldError::InvalidAnisotropy {
                reason: "ratio must be finite and >= 1",
            });
        }
        if !self.theta.is_finite() {
            return Err(FieldError::InvalidAnisotropy {
                reason: "theta must be finite",
            });
        }
        Ok(())
    }

    /// Symmetric-tensor components per node for `rank` spatial dims.
    pub fn ncomp(rank: usize) -> usize {
        rank * (rank + 1) / 2
    }

    /// Writes the tensor components for scalar value `s` into
    /// `out[..ncomp(rank)]` (coordinate order, see module docs).
    ///
    /// `ratio == 1.0` short-circuits to the exact isotropic tensor
    /// `[s, s(, s), 0, …]` so trigonometric rounding can never make an
    /// "isotropic" configuration differ from `diag(s)`.
    pub fn tensor_components(&self, s: f64, rank: usize, out: &mut [f64]) {
        let nc = Self::ncomp(rank);
        debug_assert!(out.len() >= nc);
        if self.ratio == 1.0 {
            out[..nc].iter_mut().for_each(|v| *v = 0.0);
            for v in out.iter_mut().take(rank) {
                *v = s;
            }
            return;
        }
        let a = s;
        let b = s / self.ratio;
        let (sn, cs) = self.theta.sin_cos();
        match rank {
            2 => {
                out[0] = a * cs * cs + b * sn * sn;
                out[1] = a * sn * sn + b * cs * cs;
                out[2] = (a - b) * cs * sn;
            }
            3 => {
                out[0] = a * cs * cs + b * sn * sn;
                out[1] = a * sn * sn + b * cs * cs;
                out[2] = s;
                out[3] = (a - b) * cs * sn;
                out[4] = 0.0;
                out[5] = 0.0;
            }
            _ => unreachable!("rank must be 2 or 3"),
        }
    }

    /// Stable code folded into cache keys (quantization matches the
    /// serving layer's `+0.0` normalization of signed zero).
    pub fn fingerprint(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = 0x000a_1507_e4a6_e150_u64;
        h ^= (self.ratio + 0.0).to_bits();
        h = h.wrapping_mul(PRIME);
        h ^= (self.theta + 0.0).to_bits();
        h.wrapping_mul(PRIME)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isotropic_ratio_is_exact_diagonal() {
        let a = Anisotropy::new(1.0, 0.7).unwrap();
        let mut t = [0.0; 6];
        a.tensor_components(2.5, 2, &mut t);
        assert_eq!(&t[..3], &[2.5, 2.5, 0.0]);
        a.tensor_components(2.5, 3, &mut t);
        assert_eq!(&t, &[2.5, 2.5, 2.5, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn rotation_preserves_eigenvalues() {
        let a = Anisotropy::new(4.0, 0.6).unwrap();
        let mut t = [0.0; 3];
        a.tensor_components(2.0, 2, &mut t);
        // trace = a + b, det = a*b for eigenvalues (2.0, 0.5).
        assert!((t[0] + t[1] - 2.5).abs() < 1e-12);
        assert!((t[0] * t[1] - t[2] * t[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn three_d_extrudes_z() {
        let a = Anisotropy::new(3.0, -0.4).unwrap();
        let mut t = [0.0; 6];
        a.tensor_components(1.5, 3, &mut t);
        assert_eq!(t[2], 1.5);
        assert_eq!(t[4], 0.0);
        assert_eq!(t[5], 0.0);
    }

    #[test]
    fn validation_rejects_bad_knobs() {
        assert!(Anisotropy::new(0.5, 0.0).is_err());
        assert!(Anisotropy::new(f64::NAN, 0.0).is_err());
        assert!(Anisotropy::new(2.0, f64::INFINITY).is_err());
        assert!(Anisotropy::new(1.0, 0.0).is_ok());
    }

    #[test]
    fn fingerprints_distinguish_knobs() {
        let a = Anisotropy::new(2.0, 0.3).unwrap();
        let b = Anisotropy::new(2.0, 0.4).unwrap();
        let c = Anisotropy::new(3.0, 0.3).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(
            a.fingerprint(),
            Anisotropy::new(2.0, 0.3).unwrap().fingerprint()
        );
    }
}
