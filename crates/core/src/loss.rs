//! The variational (FEM energy) loss with exact boundary imposition.
//!
//! For the paper's Poisson problem (Eq. 6–9) the Ritz energy
//! `J(u) = ½ ∫ ν |∇u|²` is minimized over fields satisfying `u = 1` on the
//! `x = 0` face and `u = 0` on the `x = 1` face. The network predicts
//! interior values; boundary nodes are overwritten (χ-masking), so no
//! boundary penalty weight exists to tune — one of the paper's stated
//! advantages over penalty-based PINNs.
//!
//! The loss is generic over the PDE via [`mgd_fem::PdeOperator`]: the same
//! χ-masked energy descent trains surrogates for scalar Poisson and for
//! anisotropic tensor-coefficient diffusion
//! (`J(u) = Σ_q w·detJ [½ ∇u·(T∇u) − f·u]`), with declarative boundaries
//! ([`mgd_fem::BoundarySpec`]) and an optional nodal forcing term. All of
//! that is bundled in [`LossSpec`]; [`FemLoss::new`] keeps the paper's
//! default (Poisson, x-face BC, no forcing) bitwise-identical to the
//! pre-operator-zoo implementation.

use crate::error::{MgdError, MgdResult};
use mgd_fem::pcg::{self, Precond};
use mgd_fem::{
    resample, BoundarySpec, CgOptions, CgStats, Dirichlet, ElementBasis, Grid, HierarchyOptions,
    PdeOperator,
};
use mgd_hybrid::{ErasedHierarchy, ErasedSystem};
use mgd_tensor::par::maybe_par_map_collect;
use mgd_tensor::Tensor;

/// Everything that defines the physics of a [`FemLoss`], independent of
/// grid resolution: the operator, the boundary data, and an optional
/// forcing field.
///
/// `forcing` is a nodal field at *any* resolution; building a loss at a
/// given grid resamples it multilinearly, so one spec serves every level
/// of a multigrid training hierarchy.
#[derive(Clone, Debug, Default)]
pub struct LossSpec {
    /// Which PDE the energy discretizes.
    pub op: PdeOperator,
    /// Declarative Dirichlet boundary data.
    pub boundary: BoundarySpec,
    /// Optional nodal forcing `f` (adds `−∫ f·u` to the energy). `None`
    /// reproduces the paper's homogeneous problem.
    pub forcing: Option<Tensor>,
}

impl LossSpec {
    /// The paper's default: scalar Poisson, `u(x=0)=1, u(x=1)=0`, no
    /// forcing.
    pub fn poisson() -> Self {
        LossSpec::default()
    }

    /// Stable code for cache-key derivation: folds the operator identity,
    /// the boundary data, and the forcing *content* so two specs that
    /// solve different physics can never alias in a prediction cache.
    pub fn fingerprint(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = self.op.fingerprint() ^ 0xcbf2_9ce4_8422_2325u64;
        h = h.wrapping_mul(PRIME);
        h ^= self.boundary.fingerprint();
        h = h.wrapping_mul(PRIME);
        if let Some(f) = &self.forcing {
            for d in f.dims() {
                h ^= *d as u64;
                h = h.wrapping_mul(PRIME);
            }
            for v in f.as_slice() {
                // `+ 0.0` folds -0.0 onto +0.0 like the serving layer does.
                h ^= (*v + 0.0).to_bits();
                h = h.wrapping_mul(PRIME);
            }
        }
        h
    }
}

/// Dimension-erased grid + basis pair. The operator dispatch lives in
/// [`PdeOperator`]; this enum only erases the const-generic rank.
enum Geom {
    D2 {
        grid: Grid<2>,
        basis: ElementBasis<2>,
    },
    D3 {
        grid: Grid<3>,
        basis: ElementBasis<3>,
    },
}

/// Runs `$body` with `$grid`/`$basis` bound at the concrete rank. Every
/// loss method is written once; the operator match lives in `PdeOperator`,
/// so adding an operator touches no code here.
macro_rules! with_geom {
    ($self:expr, |$grid:ident, $basis:ident| $body:expr) => {
        match &$self.geom {
            Geom::D2 {
                grid: $grid,
                basis: $basis,
            } => $body,
            Geom::D3 {
                grid: $grid,
                basis: $basis,
            } => $body,
        }
    };
}

/// A validated nodal `field` on `grid`'s nodes. Only a field at another
/// resolution is resampled, so one given at the grid's own is used
/// byte-for-byte.
fn on_grid<const D: usize>(field: &Tensor, grid: &Grid<D>) -> Vec<f64> {
    let from: [usize; D] = field.dims().try_into().expect("rank matches the grid");
    if from == grid.n {
        field.as_slice().to_vec()
    } else {
        resample(field.as_slice(), from, grid.n)
    }
}

/// FEM energy loss bound to one grid resolution and one [`LossSpec`].
pub struct FemLoss {
    geom: Geom,
    op: PdeOperator,
    boundary: BoundarySpec,
    bc: Dirichlet,
    forcing: Option<Vec<f64>>,
    /// [`LossSpec::fingerprint`] of the spec this loss was built from —
    /// the physics tag serving caches fold into every key.
    fp: u64,
}

impl FemLoss {
    /// Builds the loss for spatial `dims` (`[ny, nx]` or `[nz, ny, nx]`)
    /// with the paper's boundary data `u(x=0) = 1`, `u(x=1) = 0`.
    ///
    /// Returns [`MgdError::InvalidConfig`] for a rank other than 2/3 or any
    /// dimension below the 2-node minimum a grid needs.
    pub fn new(dims: &[usize]) -> MgdResult<Self> {
        Self::with_spec(dims, &LossSpec::default())
    }

    /// Builds the loss for `dims` with explicit physics. The forcing field
    /// (if any) is resampled onto `dims` multilinearly
    /// ([`mgd_fem::resample`]); its rank must match and each of its axes
    /// needs at least 2 nodes.
    pub fn with_spec(dims: &[usize], spec: &LossSpec) -> MgdResult<Self> {
        if let Some(&d) = dims.iter().find(|&&d| d < 2) {
            return Err(MgdError::InvalidConfig(format!(
                "grid dims {dims:?}: every dimension needs >= 2 nodes (got {d})"
            )));
        }
        spec.boundary.validate()?;
        let geom = match dims {
            [ny, nx] => {
                let grid: Grid<2> = Grid::new([*ny, *nx]);
                let basis = ElementBasis::new(&grid);
                Geom::D2 { grid, basis }
            }
            [nz, ny, nx] => {
                let grid: Grid<3> = Grid::new([*nz, *ny, *nx]);
                let basis = ElementBasis::new(&grid);
                Geom::D3 { grid, basis }
            }
            _ => {
                return Err(MgdError::InvalidConfig(format!(
                    "FemLoss expects 2 or 3 spatial dims, got {dims:?}"
                )))
            }
        };
        if let Some(f) = &spec.forcing {
            if f.dims().len() != dims.len() {
                return Err(MgdError::InvalidConfig(format!(
                    "forcing rank {:?} does not match grid dims {dims:?}",
                    f.dims()
                )));
            }
            if let Some(&n) = f.dims().iter().find(|&&n| n < 2) {
                return Err(MgdError::InvalidConfig(format!(
                    "forcing dims {:?}: every axis needs >= 2 nodes (got {n})",
                    f.dims()
                )));
            }
            if let Some(&bad) = f.as_slice().iter().find(|v| !v.is_finite()) {
                return Err(MgdError::InvalidConfig(format!(
                    "forcing field contains non-finite value {bad}"
                )));
            }
        }
        let forcing = spec.forcing.as_ref();
        let (bc, forcing) = match &geom {
            Geom::D2 { grid, .. } => (spec.boundary.build(grid), forcing.map(|f| on_grid(f, grid))),
            Geom::D3 { grid, .. } => (spec.boundary.build(grid), forcing.map(|f| on_grid(f, grid))),
        };
        Ok(FemLoss {
            geom,
            op: spec.op,
            boundary: spec.boundary,
            bc,
            forcing,
            fp: spec.fingerprint(),
        })
    }

    /// Spatial node count.
    pub fn num_nodes(&self) -> usize {
        with_geom!(self, |grid, _basis| grid.num_nodes())
    }

    /// Spatial rank (2 or 3).
    pub fn rank(&self) -> usize {
        match &self.geom {
            Geom::D2 { .. } => 2,
            Geom::D3 { .. } => 3,
        }
    }

    /// The PDE operator this loss discretizes.
    pub fn op(&self) -> PdeOperator {
        self.op
    }

    /// Coefficient components per node (1 scalar, `d(d+1)/2` tensor).
    pub fn ncomp(&self) -> usize {
        self.op.ncomp(self.rank())
    }

    /// Expected per-sample coefficient length (`ncomp × num_nodes`).
    pub fn coeff_len(&self) -> usize {
        self.ncomp() * self.num_nodes()
    }

    /// Checks one coefficient block the way [`Self::system`] does: its
    /// length, then per node finite and positive definite
    /// ([`PdeOperator::validate_coeff`] on this loss's grid). The first
    /// failing node is the same [`MgdError::InvalidConfig`] `system` gives.
    pub(crate) fn validate_coeff(&self, nu: &[f64]) -> MgdResult<()> {
        with_geom!(self, |grid, _basis| self.op.validate_coeff(grid, nu))?;
        Ok(())
    }

    /// Deterministic fingerprint of the physics (operator ⊕ boundary ⊕
    /// forcing) this loss encodes — equal specs at any resolution share it.
    /// Serving caches fold it into every key so identical coefficient
    /// fields under different physics never alias.
    pub fn fingerprint(&self) -> u64 {
        self.fp
    }

    /// Imposes the boundary values on every sample of an NCDHW batch
    /// (Algorithm 1: `U = U_int·χ_int + U_bc·χ_b`).
    ///
    /// Shape agreement is the caller's contract (the trainer/engine
    /// validate dims once up front), so this hot path only debug-asserts.
    pub fn apply_bc_batch(&self, u: &mut Tensor) {
        let vol = self.num_nodes();
        let b = u.dims()[0];
        debug_assert_eq!(u.len(), b * vol, "batch tensor volume mismatch");
        for s in 0..b {
            self.bc.apply(&mut u.as_mut_slice()[s * vol..(s + 1) * vol]);
        }
    }

    /// Energy and gradient for one nodal field (boundary entries of the
    /// gradient are masked to zero). `nu` is the operator's coefficient
    /// block (`coeff_len` values, component-major for tensor operators).
    pub fn energy_grad_single(&self, nu: &[f64], u: &[f64], grad: &mut [f64]) -> f64 {
        let j = with_geom!(self, |grid, basis| self.op.energy_grad(
            grid,
            basis,
            nu,
            u,
            self.forcing.as_deref(),
            grad
        ));
        self.bc.zero_fixed(grad);
        j
    }

    /// Mean energy over a batch and its gradient w.r.t. the (BC-imposed)
    /// network output, shaped like `u`.
    ///
    /// `nu` holds one coefficient block per sample; `u` is the NCDHW batch
    /// *after* [`Self::apply_bc_batch`]. The returned gradient is zero on
    /// Dirichlet nodes, which is exactly the chain rule through the masking
    /// (`∂u/∂y = χ_int`).
    pub fn energy_grad_batch(&self, nu: &[Tensor], u: &Tensor) -> (f64, Tensor) {
        let vol = self.num_nodes();
        let b = u.dims()[0];
        debug_assert_eq!(nu.len(), b, "need one coefficient block per sample");
        debug_assert_eq!(u.len(), b * vol, "batch tensor volume mismatch");
        let us = u.as_slice();
        // Per-sample results computed independently (parallel over samples),
        // then assembled; keeps the hot FEM loops free of shared writes.
        let per: Vec<(f64, Vec<f64>)> = maybe_par_map_collect(b, vol * 8, |s| {
            let mut grad = vec![0.0; vol];
            let j =
                self.energy_grad_single(nu[s].as_slice(), &us[s * vol..(s + 1) * vol], &mut grad);
            (j, grad)
        });
        let mut grad_out = Tensor::zeros(u.shape().clone());
        let inv_b = 1.0 / b as f64;
        let mut j_mean = 0.0;
        for (s, (j, g)) in per.into_iter().enumerate() {
            j_mean += j * inv_b;
            let dst = &mut grad_out.as_mut_slice()[s * vol..(s + 1) * vol];
            for i in 0..vol {
                dst[i] = g[i] * inv_b;
            }
        }
        (j_mean, grad_out)
    }

    /// Mean energy only (no gradient) — used for evaluation.
    pub fn energy_batch(&self, nu: &[Tensor], u: &Tensor) -> f64 {
        let vol = self.num_nodes();
        let b = u.dims()[0];
        let us = u.as_slice();
        let js: Vec<f64> = maybe_par_map_collect(b, vol * 8, |s| {
            with_geom!(self, |grid, basis| self.op.energy(
                grid,
                basis,
                nu[s].as_slice(),
                &us[s * vol..(s + 1) * vol],
                self.forcing.as_deref(),
            ))
        });
        js.iter().sum::<f64>() / b as f64
    }

    /// This loss's physics at coefficient block `nu` as a validated FEM
    /// system, with its right-hand side (the load vector of the forcing,
    /// or zero). Every FEM solve against the loss — [`Self::fem_solve`],
    /// the §4.3 comparison and certified serving — is built here, so a
    /// non-positive, non-finite or mis-sized `nu` is an
    /// [`MgdError::InvalidConfig`] before any solve runs.
    pub fn system(&self, nu: &[f64]) -> MgdResult<(ErasedSystem, Vec<f64>)> {
        let dims = with_geom!(self, |grid, _basis| grid.n.to_vec());
        let sys = ErasedSystem::with_operator(&dims, self.op, nu, &self.boundary)?;
        let rhs = match &self.forcing {
            Some(f) => sys.load_vector(f)?,
            None => vec![0.0; sys.num_nodes()],
        };
        Ok((sys, rhs))
    }

    /// Reference FEM solution for one coefficient block on this grid:
    /// MG-PCG on [`Self::system`] and its multigrid hierarchy, to relative
    /// residual `tol`, from `warm` if given (e.g. the network prediction,
    /// §3.1.2) or from zero. Invalid coefficients or a mis-sized `warm`
    /// are [`MgdError::InvalidConfig`].
    pub fn fem_solve(
        &self,
        nu: &[f64],
        warm: Option<&[f64]>,
        tol: f64,
    ) -> MgdResult<(Vec<f64>, CgStats)> {
        let (sys, rhs) = self.system(nu)?;
        let hier = ErasedHierarchy::build(&sys, HierarchyOptions::default())?;
        let opts = CgOptions {
            tol,
            max_iter: 50_000,
            ..Default::default()
        };
        cg_solve(&sys, &hier, &rhs, warm, opts)
    }
}

/// CG on `sys u = rhs` preconditioned by `pre` ([`pcg::solve`], the one CG
/// loop), from `warm` or zero with the system's Dirichlet values imposed.
pub(crate) fn cg_solve(
    sys: &ErasedSystem,
    pre: &dyn Precond,
    rhs: &[f64],
    warm: Option<&[f64]>,
    opts: CgOptions,
) -> MgdResult<(Vec<f64>, CgStats)> {
    let nn = sys.num_nodes();
    let mut u = warm.map_or_else(|| vec![0.0; nn], <[f64]>::to_vec);
    if u.len() != nn {
        return Err(MgdError::InvalidConfig(format!(
            "warm start has length {}, expected {nn}",
            u.len()
        )));
    }
    sys.impose_bc(&mut u);
    let stats = pcg::solve(sys, pre, &mut u, rhs, opts)?;
    Ok((u, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bc_batch_sets_faces() {
        let loss = FemLoss::new(&[4, 4]).unwrap();
        let mut u = Tensor::full([2, 1, 1, 4, 4], 0.5);
        loss.apply_bc_batch(&mut u);
        for s in 0..2 {
            for j in 0..4 {
                assert_eq!(u.at(&[s, 0, 0, j, 0]), 1.0);
                assert_eq!(u.at(&[s, 0, 0, j, 3]), 0.0);
                assert_eq!(u.at(&[s, 0, 0, j, 1]), 0.5);
            }
        }
    }

    #[test]
    fn linear_profile_minimizes_unit_nu_energy() {
        // For ν = 1 the minimizer is u = 1 - x with J = 1/2; any
        // BC-respecting perturbation has larger energy.
        let dims = [8usize, 8];
        let loss = FemLoss::new(&dims).unwrap();
        let nu = vec![Tensor::ones([8, 8])];
        let mut u = Tensor::zeros([1, 1, 1, 8, 8]);
        for j in 0..8 {
            for i in 0..8 {
                *u.at_mut(&[0, 0, 0, j, i]) = 1.0 - i as f64 / 7.0;
            }
        }
        let (j_star, grad) = loss.energy_grad_batch(&nu, &u);
        assert!((j_star - 0.5).abs() < 1e-12, "J = {j_star}");
        assert!(grad.norm_inf() < 1e-12, "gradient at minimum should vanish");
        // Perturb the interior.
        let mut v = u.clone();
        *v.at_mut(&[0, 0, 0, 3, 3]) += 0.1;
        let jv = loss.energy_batch(&nu, &v);
        assert!(jv > j_star);
    }

    #[test]
    fn gradient_zero_on_boundary_nodes() {
        let loss = FemLoss::new(&[4, 8]).unwrap();
        let nu = vec![Tensor::ones([4, 8])];
        let mut u = Tensor::rand_uniform(
            [1, 1, 1, 4, 8],
            0.0,
            1.0,
            &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3),
        );
        loss.apply_bc_batch(&mut u);
        let (_, grad) = loss.energy_grad_batch(&nu, &u);
        for j in 0..4 {
            assert_eq!(grad.at(&[0, 0, 0, j, 0]), 0.0);
            assert_eq!(grad.at(&[0, 0, 0, j, 7]), 0.0);
        }
    }

    #[test]
    fn batch_energy_is_mean_of_singles() {
        let loss = FemLoss::new(&[4, 4]).unwrap();
        let nu1 = Tensor::ones([4, 4]);
        let nu2 = Tensor::full([4, 4], 2.0);
        let mut u = Tensor::rand_uniform(
            [2, 1, 1, 4, 4],
            0.0,
            1.0,
            &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5),
        );
        loss.apply_bc_batch(&mut u);
        let (j, _) = loss.energy_grad_batch(&[nu1.clone(), nu2.clone()], &u);
        // Single-sample energies.
        let vol = 16;
        let j1 = loss.energy_batch(
            &[nu1],
            &Tensor::from_vec([1, 1, 1, 4, 4], u.as_slice()[0..vol].to_vec()),
        );
        let j2 = loss.energy_batch(
            &[nu2],
            &Tensor::from_vec([1, 1, 1, 4, 4], u.as_slice()[vol..2 * vol].to_vec()),
        );
        assert!((j - 0.5 * (j1 + j2)).abs() < 1e-12);
    }

    #[test]
    fn fem_solve_unit_nu_2d_and_3d() {
        let loss2 = FemLoss::new(&[8, 8]).unwrap();
        let (u, stats) = loss2.fem_solve(&vec![1.0; 64], None, 1e-10).unwrap();
        assert!(stats.converged);
        // u(x) = 1 - x.
        assert!((u[8 + 3] - (1.0 - 3.0 / 7.0)).abs() < 1e-8);

        let loss3 = FemLoss::new(&[4, 4, 4]).unwrap();
        let (u3, stats3) = loss3.fem_solve(&vec![1.0; 64], None, 1e-10).unwrap();
        assert!(stats3.converged);
        assert!((u3[1] - (1.0 - 1.0 / 3.0)).abs() < 1e-8);
    }

    #[test]
    fn fem_solve_rejects_invalid_inputs() {
        let loss = FemLoss::new(&[9, 9]).unwrap();
        let nn = loss.num_nodes();
        let msg = |nu: &[f64], warm: Option<&[f64]>| match loss.fem_solve(nu, warm, 1e-10) {
            Err(MgdError::InvalidConfig(m)) => m,
            other => panic!("expected InvalidConfig, got {other:?}"),
        };
        assert!(msg(&vec![-1.0; nn], None).contains("node 0"));
        let mut nu = vec![1.0; nn];
        nu[5] = f64::NAN;
        assert!(msg(&nu, None).contains("node 5"));
        assert!(msg(&vec![1.0; nn - 1], None).contains("nu has length"));
        let warm = vec![0.5; nn + 1];
        assert!(msg(&vec![1.0; nn], Some(&warm)).contains("warm start"));
    }

    #[test]
    fn three_d_loss_shape_handling() {
        let loss = FemLoss::new(&[4, 4, 8]).unwrap();
        let nu = vec![Tensor::ones([4, 4, 8]); 3];
        let mut u = Tensor::full([3, 1, 4, 4, 8], 0.3);
        loss.apply_bc_batch(&mut u);
        let (j, grad) = loss.energy_grad_batch(&nu, &u);
        assert!(j.is_finite());
        assert_eq!(grad.dims(), u.dims());
    }

    #[test]
    fn default_spec_is_bitwise_identical_to_new() {
        let dims = [6usize, 9];
        let a = FemLoss::new(&dims).unwrap();
        let b = FemLoss::with_spec(&dims, &LossSpec::poisson()).unwrap();
        let nu = vec![Tensor::rand_uniform(
            [6, 9],
            0.5,
            2.0,
            &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(11),
        )];
        let mut u = Tensor::rand_uniform(
            [1, 1, 1, 6, 9],
            0.0,
            1.0,
            &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(12),
        );
        a.apply_bc_batch(&mut u);
        let (ja, ga) = a.energy_grad_batch(&nu, &u);
        let (jb, gb) = b.energy_grad_batch(&nu, &u);
        assert_eq!(ja.to_bits(), jb.to_bits());
        for (x, y) in ga.as_slice().iter().zip(gb.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn anisotropic_spec_gradcheck() {
        // Tensor-coefficient loss: ∇J from the operator kernel must match
        // central finite differences of the energy.
        let dims = [5usize, 6];
        let spec = LossSpec {
            op: PdeOperator::AnisoDiffusion,
            ..LossSpec::default()
        };
        let loss = FemLoss::with_spec(&dims, &spec).unwrap();
        let vol = loss.num_nodes();
        assert_eq!(loss.ncomp(), 3);
        assert_eq!(loss.coeff_len(), 3 * vol);
        // SPD tensor field: diag-dominant with a small off-diagonal.
        let mut coeff = vec![0.0; 3 * vol];
        for i in 0..vol {
            coeff[i] = 2.0 + 0.1 * (i % 5) as f64;
            coeff[vol + i] = 1.0 + 0.05 * (i % 3) as f64;
            coeff[2 * vol + i] = 0.2;
        }
        let nu = vec![Tensor::from_vec([3 * vol], coeff)];
        let mut u = Tensor::rand_uniform(
            [1, 1, 1, 5, 6],
            0.0,
            1.0,
            &mut <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(21),
        );
        loss.apply_bc_batch(&mut u);
        let (_, grad) = loss.energy_grad_batch(&nu, &u);
        let eps = 1e-6;
        let vals = u.as_slice().to_vec();
        for i in (0..vol).step_by(7) {
            let mut up = Tensor::from_vec(u.shape().clone(), vals.clone());
            up.as_mut_slice()[i] += eps;
            let mut um = Tensor::from_vec(u.shape().clone(), vals.clone());
            um.as_mut_slice()[i] -= eps;
            let fd = (loss.energy_batch(&nu, &up) - loss.energy_batch(&nu, &um)) / (2.0 * eps);
            let g = grad.as_slice()[i];
            // Dirichlet nodes carry a masked (zero) gradient; skip them.
            if g == 0.0 && fd.abs() > 1e-9 {
                continue;
            }
            assert!((g - fd).abs() < 1e-7, "node {i}: {g} vs {fd}");
        }
    }

    #[test]
    fn forcing_shifts_the_minimizer() {
        // With f > 0 the solve of K u = F differs from the homogeneous one,
        // and a coarse forcing field resamples onto the loss grid.
        let dims = [8usize, 8];
        let spec = LossSpec {
            forcing: Some(Tensor::full([4, 4], 1.0)),
            ..LossSpec::default()
        };
        let loss = FemLoss::with_spec(&dims, &spec).unwrap();
        assert_eq!(loss.forcing.as_ref().unwrap().len(), 64);
        let nu = vec![1.0; 64];
        let (uf, sf) = loss.fem_solve(&nu, None, 1e-10).unwrap();
        assert!(sf.converged);
        let homog = FemLoss::new(&dims).unwrap();
        let (u0, s0) = homog.fem_solve(&nu, None, 1e-10).unwrap();
        assert!(s0.converged);
        let diff: f64 = uf
            .iter()
            .zip(&u0)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(diff > 1e-3, "forcing should move the solution ({diff})");
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn forcing_is_sampled_at_every_training_level() {
        // A 2-level hierarchy's losses, built from one spec whose forcing
        // is given at the finest size.
        use crate::mg_trainer::{MgConfig, MultigridTrainer};
        let mg = MgConfig {
            levels: 2,
            ..MgConfig::default()
        };
        let finest = [16usize, 12];
        let linear = |[y, x]: [f64; 2]| 1.0 + 2.0 * x - 0.5 * y;
        let mut f = Tensor::zeros(finest);
        for (j, i) in (0..16).flat_map(|j| (0..12).map(move |i| (j, i))) {
            *f.at_mut(&[j, i]) = linear([j as f64 / 15.0, i as f64 / 11.0]);
        }
        let spec = LossSpec {
            forcing: Some(f.clone()),
            ..LossSpec::default()
        };
        let t = MultigridTrainer::with_spec(mg, Default::default(), finest.to_vec(), spec).unwrap();
        for level in 0..2 {
            let dims = t.dims_at_level(level);
            let loss = FemLoss::with_spec(&dims, &t.spec).unwrap();
            let got = loss.forcing.as_deref().unwrap();
            if level == 0 {
                assert_eq!(bits(got), bits(f.as_slice()));
            } else {
                assert_eq!(dims, [8, 6]);
                assert_eq!(got, &resample(f.as_slice(), finest, [8, 6])[..]);
            }
            // A linear forcing is reproduced at every level.
            let (ny, nx) = (dims[0], dims[1]);
            for (k, &v) in got.iter().enumerate() {
                let (j, i) = (k / nx, k % nx);
                let want = linear([j as f64 / (ny - 1) as f64, i as f64 / (nx - 1) as f64]);
                assert!(
                    (v - want).abs() < 1e-12,
                    "level {level} node {k}: {v} vs {want}"
                );
            }
        }
        // At the loss's own size any forcing is used byte for byte, even a
        // -0.0 among positive values (resampling would make it +0.0).
        let mut raw = Tensor::from_vec(finest, (0..192).map(|k| 2.0 + (k as f64).sin()).collect());
        raw.as_mut_slice()[100] = -0.0;
        let spec = LossSpec {
            forcing: Some(raw.clone()),
            ..LossSpec::default()
        };
        let loss = FemLoss::with_spec(&finest, &spec).unwrap();
        assert_eq!(bits(loss.forcing.as_deref().unwrap()), bits(raw.as_slice()));
    }

    #[test]
    fn forcing_axis_below_two_nodes_is_invalid_config() {
        // The sampler needs two source nodes per axis; a one-node axis is
        // rejected, not extended.
        for (f, dims) in [
            (Tensor::full([1, 8], 1.0), vec![8, 8]),
            (Tensor::full([4, 4, 1], 1.0), vec![4, 4, 4]),
        ] {
            let spec = LossSpec {
                forcing: Some(f),
                ..LossSpec::default()
            };
            let err = FemLoss::with_spec(&dims, &spec);
            assert!(
                matches!(err, Err(MgdError::InvalidConfig(ref m)) if m.contains("2 nodes")),
                "{dims:?}"
            );
        }
    }

    #[test]
    fn with_spec_rejects_bad_configs() {
        // Mis-ranked forcing.
        let spec = LossSpec {
            forcing: Some(Tensor::full([4, 4, 4], 1.0)),
            ..LossSpec::default()
        };
        assert!(matches!(
            FemLoss::with_spec(&[8, 8], &spec),
            Err(MgdError::InvalidConfig(_))
        ));
        // Non-finite forcing.
        let spec = LossSpec {
            forcing: Some(Tensor::full([4, 4], f64::NAN)),
            ..LossSpec::default()
        };
        assert!(FemLoss::with_spec(&[8, 8], &spec).is_err());
        // Non-finite boundary value.
        let spec = LossSpec {
            boundary: BoundarySpec::AllFaces { value: f64::NAN },
            ..LossSpec::default()
        };
        assert!(FemLoss::with_spec(&[8, 8], &spec).is_err());
        // Original dim validation is intact.
        assert!(FemLoss::new(&[1, 8]).is_err());
        assert!(FemLoss::new(&[8]).is_err());
    }

    #[test]
    fn all_faces_boundary_builds_and_masks() {
        let spec = LossSpec {
            boundary: BoundarySpec::AllFaces { value: 0.0 },
            ..LossSpec::default()
        };
        let loss = FemLoss::with_spec(&[4, 4], &spec).unwrap();
        let mut u = Tensor::full([1, 1, 1, 4, 4], 0.7);
        loss.apply_bc_batch(&mut u);
        for j in 0..4 {
            for i in 0..4 {
                let on_boundary = j == 0 || j == 3 || i == 0 || i == 3;
                let v = u.at(&[0, 0, 0, j, i]);
                if on_boundary {
                    assert_eq!(v, 0.0);
                } else {
                    assert_eq!(v, 0.7);
                }
            }
        }
    }

    #[test]
    fn spec_fingerprints_distinguish_physics() {
        let base = LossSpec::poisson();
        let aniso = LossSpec {
            op: PdeOperator::AnisoDiffusion,
            ..LossSpec::default()
        };
        let forced = LossSpec {
            forcing: Some(Tensor::full([4, 4], 1.0)),
            ..LossSpec::default()
        };
        let allf = LossSpec {
            boundary: BoundarySpec::AllFaces { value: 0.0 },
            ..LossSpec::default()
        };
        let fps = [
            base.fingerprint(),
            aniso.fingerprint(),
            forced.fingerprint(),
            allf.fingerprint(),
        ];
        for i in 0..fps.len() {
            for j in (i + 1)..fps.len() {
                assert_ne!(fps[i], fps[j], "specs {i} and {j} alias");
            }
        }
        assert_eq!(base.fingerprint(), LossSpec::default().fingerprint());
    }
}
