//! The paper's parametric log-permeability field (Eq. 10).
//!
//! ```text
//! ν(x; ω) = exp( Σ_{i=1..m} ωᵢ λᵢ ξᵢ(x) ηᵢ(y) )          (2D, paper Eq. 10)
//! λᵢ = 1 / (1 + 0.25 aᵢ²),  a = (1.72, 4.05, 6.85, 9.82)
//! ξᵢ(t) = ηᵢ(t) = (aᵢ/2)·cos(aᵢ t) + sin(aᵢ t)
//! ```
//!
//! The paper trains on 256³/512³ maps "as described by Equation 10" without
//! spelling out the z-dependence; we provide both natural readings (see
//! [`ThreeDMode`], which documents the choice).

use mgd_tensor::par::maybe_par_rows;
use mgd_tensor::Tensor;

/// The paper's four KL-style modes `a = (1.72, 4.05, 6.85, 9.82)`.
pub const PAPER_MODES: [f64; 4] = [1.72, 4.05, 6.85, 9.82];

/// The paper's parameter box: ω ∈ [−3, 3]^4.
pub const OMEGA_RANGE: (f64, f64) = (-3.0, 3.0);

/// How Eq. 10 (written for (x, y)) extends to 3D domains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreeDMode {
    /// `ν(x,y,z) = exp(Σ ωᵢλᵢ ξᵢ(x) ηᵢ(y))` — the 2D field extruded along z
    /// (the most literal reading of "as described by Equation 10").
    Extrude,
    /// `ν(x,y,z) = exp(Σ ωᵢλᵢ ξᵢ(x) ηᵢ(y) ζᵢ(z)/sᵢ)` with `ζᵢ = ξᵢ` and
    /// `sᵢ = sup|ξᵢ| = sqrt(1 + aᵢ²/4)` — fully 3D variation with the same
    /// exponent magnitude as the 2D field (avoids `exp` overflow from the
    /// extra factor).
    Separable,
}

/// Evaluator/rasterizer for the parametric diffusivity ν(x; ω).
#[derive(Clone, Debug)]
pub struct DiffusivityModel {
    /// Mode frequencies aᵢ.
    pub a: Vec<f64>,
    /// Eigenvalue-like decay λᵢ = 1/(1 + 0.25 aᵢ²).
    pub lambda: Vec<f64>,
    /// 3D extension mode.
    pub mode3d: ThreeDMode,
}

impl Default for DiffusivityModel {
    fn default() -> Self {
        Self::paper()
    }
}

impl DiffusivityModel {
    /// The paper's model: m = 4 modes, `a = (1.72, 4.05, 6.85, 9.82)`.
    pub fn paper() -> Self {
        let a = PAPER_MODES.to_vec();
        let lambda = a.iter().map(|ai| 1.0 / (1.0 + 0.25 * ai * ai)).collect();
        DiffusivityModel {
            a,
            lambda,
            mode3d: ThreeDMode::Separable,
        }
    }

    /// Same model with the extruded 3D reading.
    pub fn paper_extruded() -> Self {
        DiffusivityModel {
            mode3d: ThreeDMode::Extrude,
            ..Self::paper()
        }
    }

    /// Number of modes m (the dimensionality of ω).
    pub fn num_modes(&self) -> usize {
        self.a.len()
    }

    /// The 1D factor ξᵢ(t) = (aᵢ/2) cos(aᵢ t) + sin(aᵢ t).
    #[inline]
    pub fn xi(&self, i: usize, t: f64) -> f64 {
        let a = self.a[i];
        0.5 * a * (a * t).cos() + (a * t).sin()
    }

    /// Amplitude bound sᵢ = sqrt(1 + aᵢ²/4) ≥ sup |ξᵢ|.
    #[inline]
    fn amp(&self, i: usize) -> f64 {
        (1.0 + 0.25 * self.a[i] * self.a[i]).sqrt()
    }

    /// Log-diffusivity at a 2D point.
    pub fn log_nu_2d(&self, omega: &[f64], x: f64, y: f64) -> f64 {
        assert_eq!(omega.len(), self.num_modes(), "omega has wrong dimension");
        (0..self.num_modes())
            .map(|i| omega[i] * self.lambda[i] * self.xi(i, x) * self.xi(i, y))
            .sum()
    }

    /// Log-diffusivity at a 3D point (per [`ThreeDMode`]).
    pub fn log_nu_3d(&self, omega: &[f64], x: f64, y: f64, z: f64) -> f64 {
        assert_eq!(omega.len(), self.num_modes(), "omega has wrong dimension");
        match self.mode3d {
            ThreeDMode::Extrude => self.log_nu_2d(omega, x, y),
            ThreeDMode::Separable => (0..self.num_modes())
                .map(|i| {
                    omega[i] * self.lambda[i] * self.xi(i, x) * self.xi(i, y) * self.xi(i, z)
                        / self.amp(i)
                })
                .sum(),
        }
    }

    /// Diffusivity ν = exp(log ν) at a 2D point.
    pub fn nu_2d(&self, omega: &[f64], x: f64, y: f64) -> f64 {
        self.log_nu_2d(omega, x, y).exp()
    }

    /// Diffusivity ν = exp(log ν) at a 3D point.
    pub fn nu_3d(&self, omega: &[f64], x: f64, y: f64, z: f64) -> f64 {
        self.log_nu_3d(omega, x, y, z).exp()
    }

    /// ξᵢ at the nodes of an `n`-point axis, mode-major (`[i * n + k]`);
    /// node k sits at `k · (1 / (n - 1))`.
    fn axis_table(&self, n: usize) -> Vec<f64> {
        let h = 1.0 / (n - 1) as f64;
        (0..self.num_modes())
            .flat_map(|i| (0..n).map(move |k| self.xi(i, k as f64 * h)))
            .collect()
    }

    /// Rasterizes log ν onto the nodes of a uniform grid over `[0,1]^d`.
    ///
    /// `dims` is `(height, width)` for 2D or `(depth, height, width)` for
    /// 3D, x on the fastest axis; node k of an n-point axis sits at
    /// `k · (1 / (n - 1))`. Each ξᵢ is evaluated once per axis node, and
    /// every term multiplies in [`Self::log_nu_2d`] / [`Self::log_nu_3d`]'s
    /// order, so each node is bitwise the pointwise value there.
    pub fn rasterize_log(&self, omega: &[f64], dims: &[usize]) -> Tensor {
        assert_eq!(omega.len(), self.num_modes(), "omega has wrong dimension");
        let m = self.num_modes();
        let (ny, nx) = match dims {
            [ny, nx] | [_, ny, nx] => (*ny, *nx),
            _ => panic!("rasterize_log expects 2 or 3 dims, got {dims:?}"),
        };
        // ωᵢλᵢ, the leading product of every term.
        let w: Vec<f64> = (0..m).map(|i| omega[i] * self.lambda[i]).collect();
        let (tx, ty) = (self.axis_table(nx), self.axis_table(ny));
        let mut out = Tensor::zeros(dims);
        match (dims, self.mode3d) {
            (&[nz, _, _], ThreeDMode::Separable) => {
                let tz = self.axis_table(nz);
                let amp: Vec<f64> = (0..m).map(|i| self.amp(i)).collect();
                maybe_par_rows(out.as_mut_slice(), nx, |jk, row| {
                    let (j, k) = (jk % ny, jk / ny);
                    for (x, v) in row.iter_mut().enumerate() {
                        *v = (0..m)
                            .map(|i| {
                                w[i] * tx[i * nx + x] * ty[i * ny + j] * tz[i * nz + k] / amp[i]
                            })
                            .sum();
                    }
                });
            }
            // 2D, or the 2D field repeated on every z-plane (`Extrude`).
            _ => maybe_par_rows(out.as_mut_slice(), nx, |jk, row| {
                let j = jk % ny;
                for (x, v) in row.iter_mut().enumerate() {
                    *v = (0..m).map(|i| w[i] * tx[i * nx + x] * ty[i * ny + j]).sum();
                }
            }),
        }
        out
    }

    /// Rasterizes ν = exp(log ν) onto grid nodes (see [`Self::rasterize_log`]).
    pub fn rasterize(&self, omega: &[f64], dims: &[usize]) -> Tensor {
        let mut t = self.rasterize_log(omega, dims);
        t.map_inplace(f64::exp);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: [f64; 4] = [0.3105, 1.5386, 0.0932, -1.2442]; // paper Table 3 ω

    #[test]
    fn lambda_matches_formula() {
        let m = DiffusivityModel::paper();
        for (i, &a) in PAPER_MODES.iter().enumerate() {
            assert!((m.lambda[i] - 1.0 / (1.0 + 0.25 * a * a)).abs() < 1e-15);
        }
    }

    #[test]
    fn nu_positive_everywhere() {
        let m = DiffusivityModel::paper();
        for &omega0 in &[-3.0, 0.0, 3.0] {
            let om = [omega0, -3.0, 3.0, -3.0];
            for i in 0..20 {
                for j in 0..20 {
                    let v = m.nu_2d(&om, i as f64 / 19.0, j as f64 / 19.0);
                    assert!(v > 0.0 && v.is_finite());
                }
            }
        }
    }

    #[test]
    fn zero_omega_gives_unit_nu() {
        let m = DiffusivityModel::paper();
        assert_eq!(m.nu_2d(&[0.0; 4], 0.3, 0.7), 1.0);
        assert_eq!(m.nu_3d(&[0.0; 4], 0.3, 0.7, 0.1), 1.0);
    }

    #[test]
    fn extrude_constant_in_z() {
        let m = DiffusivityModel::paper_extruded();
        let a = m.nu_3d(&W, 0.4, 0.6, 0.0);
        let b = m.nu_3d(&W, 0.4, 0.6, 0.77);
        assert_eq!(a, b);
        assert_eq!(a, m.nu_2d(&W, 0.4, 0.6));
    }

    #[test]
    fn separable_z_varies_and_is_bounded_like_2d() {
        let m = DiffusivityModel::paper();
        let a = m.log_nu_3d(&W, 0.4, 0.6, 0.1);
        let b = m.log_nu_3d(&W, 0.4, 0.6, 0.9);
        assert!((a - b).abs() > 1e-12, "z must vary");
        // Exponent magnitude stays within the 2D worst case bound
        // Σ |ω| λ s² (since |ξζ/s| ≤ s matches the 2D |ξη| ≤ s² bound).
        let bound: f64 = (0..4)
            .map(|i| 3.0 * m.lambda[i] * (1.0 + 0.25 * m.a[i] * m.a[i]))
            .sum();
        for k in 0..10 {
            let v = m.log_nu_3d(&W, 0.3, k as f64 / 9.0, 0.8).abs();
            assert!(v <= bound);
        }
    }

    /// Node k of an n-point axis, as the rasterizer places it.
    fn node(k: usize, n: usize) -> f64 {
        k as f64 * (1.0 / (n - 1) as f64)
    }

    #[test]
    fn rasterize_2d_matches_pointwise_eval() {
        let m = DiffusivityModel::paper();
        let t = m.rasterize_log(&W, &[5, 9]);
        assert_eq!(t.dims(), &[5, 9]);
        for j in 0..5 {
            for i in 0..9 {
                let want = m.log_nu_2d(&W, node(i, 9), node(j, 5));
                assert_eq!(t.at(&[j, i]).to_bits(), want.to_bits(), "node ({j}, {i})");
            }
        }
    }

    #[test]
    fn rasterize_3d_matches_pointwise_eval() {
        for m in [
            DiffusivityModel::paper(),
            DiffusivityModel::paper_extruded(),
        ] {
            let t = m.rasterize_log(&W, &[4, 7, 6]);
            assert_eq!(t.dims(), &[4, 7, 6]);
            for k in 0..4 {
                for j in 0..7 {
                    for i in 0..6 {
                        let want = m.log_nu_3d(&W, node(i, 6), node(j, 7), node(k, 4));
                        assert_eq!(
                            t.at(&[k, j, i]).to_bits(),
                            want.to_bits(),
                            "{:?} node ({k}, {j}, {i})",
                            m.mode3d
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn rasterize_exp_is_exp_of_log() {
        let m = DiffusivityModel::paper();
        let lg = m.rasterize_log(&W, &[8, 8]);
        let nu = m.rasterize(&W, &[8, 8]);
        for i in 0..nu.len() {
            assert!((nu[i] - lg[i].exp()).abs() < 1e-12);
        }
    }

    #[test]
    fn nu_range_reaches_paper_magnitudes() {
        // Paper Table 4 shows ν fields spanning up to O(100..1000); check an
        // extreme ω produces a dynamic range of at least ~100.
        let m = DiffusivityModel::paper();
        let t = m.rasterize(&[3.0, 3.0, 3.0, -3.0], &[64, 64]);
        assert!(t.max() / t.min() > 100.0);
    }
}
