//! A discrete variational system bound to one `(grid, operator, coeff, BC)`
//! tuple.
//!
//! [`FemSystem`] packages the residual / operator-application / smoothing
//! entry points of one discretization, so solvers — the multigrid levels of
//! [`crate::hierarchy`], the Jacobi-CG reference, and hybrid solvers outside
//! this crate — run the same FEM kernels: compute true residuals after
//! arbitrary (e.g. learned) updates, run ad-hoc smoothing sweeps, or feed a
//! pluggable-preconditioner CG ([`crate::pcg`]). The operator is pluggable
//! ([`PdeOperator`]) and is assembled once into a [`Stencil`] that every
//! apply, residual and smoothing sweep runs on.

use crate::basis::ElementBasis;
use crate::bc::Dirichlet;
use crate::error::FemError;
use crate::grid::Grid;
use crate::pde::PdeOperator;
use crate::stencil::Stencil;

/// The discrete operator `K(ν)` with its Dirichlet mask — the reusable
/// core of every solver in this crate.
pub struct FemSystem<const D: usize> {
    /// Structured grid the system is discretized on.
    pub grid: Grid<D>,
    /// Element basis (quadrature-tabulated shape gradients).
    pub basis: ElementBasis<D>,
    /// The variational operator being discretized.
    pub op: PdeOperator,
    /// Nodal coefficient block (component-major; scalar ν for Poisson).
    pub nu: Vec<f64>,
    /// Dirichlet boundary condition (mask + prescribed values).
    pub bc: Dirichlet,
    /// `K(ν)` assembled from `nu` (with the masked inverse diagonal).
    stencil: Stencil<f64, D>,
}

impl<const D: usize> std::fmt::Debug for FemSystem<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FemSystem")
            .field("op", &self.op.name())
            .field("n", &self.grid.n)
            .finish()
    }
}

impl<const D: usize> FemSystem<D> {
    /// Builds the scalar-ν Poisson system, validating slice lengths
    /// against the grid.
    pub fn new(grid: Grid<D>, nu: Vec<f64>, bc: Dirichlet) -> Result<Self, FemError> {
        Self::with_operator(grid, PdeOperator::Poisson, nu, bc)
    }

    /// Builds a system for an arbitrary [`PdeOperator`], validating the
    /// coefficient block (length + SPD for tensor operators) and BC mask.
    pub fn with_operator(
        grid: Grid<D>,
        op: PdeOperator,
        nu: Vec<f64>,
        bc: Dirichlet,
    ) -> Result<Self, FemError> {
        let nn = grid.num_nodes();
        op.validate_coeff(&grid, &nu)?;
        if bc.fixed.len() != nn {
            return Err(FemError::SizeMismatch {
                what: "bc.fixed",
                expected: nn,
                got: bc.fixed.len(),
            });
        }
        Ok(Self::assemble(grid, ElementBasis::new(&grid), op, nu, bc))
    }

    /// Assembles without validating the coefficients (lengths are still
    /// asserted) — for callers whose API predates the typed errors.
    pub(crate) fn assemble(
        grid: Grid<D>,
        basis: ElementBasis<D>,
        op: PdeOperator,
        nu: Vec<f64>,
        bc: Dirichlet,
    ) -> Self {
        let stencil = Stencil::assemble(&grid, &basis, op, &nu, &bc.fixed);
        FemSystem {
            grid,
            basis,
            op,
            nu,
            bc,
            stencil,
        }
    }

    /// Nodes in the system (vector length).
    pub fn num_nodes(&self) -> usize {
        self.grid.num_nodes()
    }

    /// Masked inverse diagonal of `K` (zero at fixed nodes) — the Jacobi
    /// preconditioner / smoother coefficients.
    pub fn diag_inv(&self) -> &[f64] {
        self.stencil.diag_inv()
    }

    /// The assembled operator.
    pub fn stencil(&self) -> &Stencil<f64, D> {
        &self.stencil
    }

    /// `out = K u` (overwrites `out`; rows of fixed nodes included).
    pub fn apply(&self, u: &[f64], out: &mut [f64]) {
        self.stencil.apply(u, out);
    }

    /// Zeroes fixed entries of `v`.
    pub fn mask(&self, v: &mut [f64]) {
        self.bc.zero_fixed(v);
    }

    /// Writes the prescribed Dirichlet values into `u`.
    pub fn impose_bc(&self, u: &mut [f64]) {
        self.bc.apply(u);
    }

    /// `r = mask(rhs − K u)` — the true interior residual.
    pub fn residual_into(&self, u: &[f64], rhs: &[f64], r: &mut [f64]) {
        self.stencil.residual_into(u, rhs, &self.bc.fixed, r);
    }

    /// ‖mask(rhs − K u)‖₂, recomputed from scratch (no recurrences) in one
    /// pass that stores nothing.
    pub fn residual_norm(&self, u: &[f64], rhs: &[f64]) -> f64 {
        self.stencil.residual_norm(u, rhs, &self.bc.fixed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_mis_sized_inputs() {
        let g: Grid<2> = Grid::cube(9);
        let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
        let err = FemSystem::new(g, vec![1.0; 3], bc).unwrap_err();
        assert!(matches!(err, FemError::SizeMismatch { what: "nu", .. }));
    }

    #[test]
    fn rejects_indefinite_tensor_coefficients() {
        let g: Grid<2> = Grid::cube(5);
        let nn = g.num_nodes();
        let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
        let mut t = vec![1.0; 3 * nn];
        t[2 * nn..].iter_mut().for_each(|v| *v = 3.0); // off-diag > diag
        let err = FemSystem::with_operator(g, PdeOperator::AnisoDiffusion, t, bc).unwrap_err();
        assert!(matches!(err, FemError::NotSpd { node: 0 }));
    }

    #[test]
    fn residual_vanishes_on_exact_solution() {
        // u = 1 − x is the exact FE solution for ν = 1 with x-face BC.
        let g: Grid<2> = Grid::cube(9);
        let nn = g.num_nodes();
        let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
        let sys = FemSystem::new(g, vec![1.0; nn], bc).unwrap();
        let u: Vec<f64> = (0..nn).map(|i| 1.0 - g.node_coords(i)[0]).collect();
        let rhs = vec![0.0; nn];
        assert!(sys.residual_norm(&u, &rhs) < 1e-12);
    }

    #[test]
    fn anisotropic_residual_vanishes_on_linear_profile() {
        // u = 1 − x stays exact for a constant *diagonal* tensor: the flux
        // T∇u = (−T_xx, 0) is constant and tangential fluxes vanish, so the
        // homogeneous-Neumann y-faces stay consistent. (An off-diagonal
        // T_xy would push flux through the y-faces and change the solution.)
        let g: Grid<2> = Grid::cube(9);
        let nn = g.num_nodes();
        let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
        let mut t = vec![0.0; 3 * nn];
        t[..nn].iter_mut().for_each(|v| *v = 2.0);
        t[nn..2 * nn].iter_mut().for_each(|v| *v = 0.5);
        let sys = FemSystem::with_operator(g, PdeOperator::AnisoDiffusion, t, bc).unwrap();
        let u: Vec<f64> = (0..nn).map(|i| 1.0 - g.node_coords(i)[0]).collect();
        let rhs = vec![0.0; nn];
        assert!(sys.residual_norm(&u, &rhs) < 1e-12);
    }

    #[test]
    fn jacobi_smoothing_reduces_residual() {
        let g: Grid<2> = Grid::cube(9);
        let nn = g.num_nodes();
        let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
        let sys = FemSystem::new(g, vec![1.0; nn], bc).unwrap();
        let mut u = vec![0.0; nn];
        sys.impose_bc(&mut u);
        let rhs = vec![0.0; nn];
        let r0 = sys.residual_norm(&u, &rhs);
        sys.stencil()
            .smooth(&mut u, &rhs, 0.7, 10, &mut vec![0.0; nn]);
        assert!(sys.residual_norm(&u, &rhs) < r0);
    }
}
