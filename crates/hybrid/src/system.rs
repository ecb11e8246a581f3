//! Dimension-erased Poisson systems and multigrid hierarchies.
//!
//! The engine side of the project works with runtime-shaped fields
//! (`dims: &[usize]`, 2D or 3D) while `mgd-fem` is generic over
//! `const D: usize`. [`ErasedSystem`] / [`ErasedHierarchy`] bridge the
//! two with the same convention as the training loss: 2D dims are
//! `[ny, nx]`, 3D dims are `[nz, ny, nx]`, and the paper's boundary
//! condition (`u = 1` on the `x = 0` face, `u = 0` on `x = 1`) is
//! imposed through `Dirichlet::x_faces`.

use mgd_fem::bc::BoundarySpec;
use mgd_fem::error::FemError;
use mgd_fem::grid::Grid;
use mgd_fem::hierarchy::{GridHierarchy, HierarchyOptions};
use mgd_fem::mixed::MixedHierarchy;
use mgd_fem::pcg::{JacobiPrecond, LinearOp, Precond};
use mgd_fem::pde::PdeOperator;
use mgd_fem::system::FemSystem;
use mgd_tensor::Precision;
use std::fmt;
use std::sync::Arc;

/// Errors raised by hybrid solver construction.
#[derive(Clone, Debug, PartialEq)]
pub enum HybridError {
    /// Unsupported or inconsistent input shapes.
    InvalidInput(String),
    /// A FEM-layer construction failure.
    Fem(FemError),
}

impl fmt::Display for HybridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HybridError::InvalidInput(m) => write!(f, "invalid hybrid solver input: {m}"),
            HybridError::Fem(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for HybridError {}

impl From<FemError> for HybridError {
    fn from(e: FemError) -> Self {
        HybridError::Fem(e)
    }
}

/// A FEM system over runtime-shaped (2D or 3D) grids. Shared (`Arc`) so
/// that hierarchies built from it reuse its assembled finest level.
#[derive(Debug)]
pub enum ErasedSystem {
    /// `dims = [ny, nx]`.
    D2(Arc<FemSystem<2>>),
    /// `dims = [nz, ny, nx]`.
    D3(Arc<FemSystem<3>>),
}

impl ErasedSystem {
    /// Builds the paper's BVP (`−∇·(ν∇u) = 0`, `u = 1` at `x = 0`,
    /// `u = 0` at `x = 1`) on a grid of the given dims.
    pub fn poisson(dims: &[usize], nu: &[f64]) -> Result<Self, HybridError> {
        Self::with_operator(dims, PdeOperator::Poisson, nu, &BoundarySpec::default())
    }

    /// Builds a system for an arbitrary operator and boundary spec. The
    /// coefficient block is component-major (`ncomp · Π dims` values);
    /// tensor operators are SPD-validated node-by-node.
    pub fn with_operator(
        dims: &[usize],
        op: PdeOperator,
        coeff: &[f64],
        boundary: &BoundarySpec,
    ) -> Result<Self, HybridError> {
        boundary.validate()?;
        match dims {
            [ny, nx] => {
                let grid: Grid<2> = Grid::new([*ny, *nx]);
                let bc = boundary.build(&grid);
                Ok(ErasedSystem::D2(Arc::new(FemSystem::with_operator(
                    grid,
                    op,
                    coeff.to_vec(),
                    bc,
                )?)))
            }
            [nz, ny, nx] => {
                let grid: Grid<3> = Grid::new([*nz, *ny, *nx]);
                let bc = boundary.build(&grid);
                Ok(ErasedSystem::D3(Arc::new(FemSystem::with_operator(
                    grid,
                    op,
                    coeff.to_vec(),
                    bc,
                )?)))
            }
            other => Err(HybridError::InvalidInput(format!(
                "expected 2 or 3 spatial dims, got {other:?}"
            ))),
        }
    }

    /// The variational operator this system discretizes.
    pub fn op(&self) -> PdeOperator {
        match self {
            ErasedSystem::D2(s) => s.op,
            ErasedSystem::D3(s) => s.op,
        }
    }

    /// Nodes in the system.
    pub fn num_nodes(&self) -> usize {
        match self {
            ErasedSystem::D2(s) => s.num_nodes(),
            ErasedSystem::D3(s) => s.num_nodes(),
        }
    }

    /// Nodes per axis.
    pub fn dims(&self) -> Vec<usize> {
        match self {
            ErasedSystem::D2(s) => s.grid.n.to_vec(),
            ErasedSystem::D3(s) => s.grid.n.to_vec(),
        }
    }

    /// ν on the finest grid.
    pub fn nu(&self) -> &[f64] {
        match self {
            ErasedSystem::D2(s) => &s.nu,
            ErasedSystem::D3(s) => &s.nu,
        }
    }

    /// Writes prescribed Dirichlet values into `u`.
    pub fn impose_bc(&self, u: &mut [f64]) {
        match self {
            ErasedSystem::D2(s) => s.impose_bc(u),
            ErasedSystem::D3(s) => s.impose_bc(u),
        }
    }

    /// `r = mask(rhs − K u)`.
    pub fn residual_into(&self, u: &[f64], rhs: &[f64], r: &mut [f64]) {
        match self {
            ErasedSystem::D2(s) => s.residual_into(u, rhs, r),
            ErasedSystem::D3(s) => s.residual_into(u, rhs, r),
        }
    }

    /// True residual norm ‖mask(rhs − K u)‖₂, recomputed from scratch.
    pub fn residual_norm(&self, u: &[f64], rhs: &[f64]) -> f64 {
        match self {
            ErasedSystem::D2(s) => s.residual_norm(u, rhs),
            ErasedSystem::D3(s) => s.residual_norm(u, rhs),
        }
    }

    /// The Jacobi preconditioner of this system.
    pub fn jacobi(&self) -> JacobiPrecond {
        match self {
            ErasedSystem::D2(s) => JacobiPrecond::of(s),
            ErasedSystem::D3(s) => JacobiPrecond::of(s),
        }
    }
}

impl LinearOp for ErasedSystem {
    fn len(&self) -> usize {
        self.num_nodes()
    }
    fn apply(&self, u: &[f64], out: &mut [f64]) {
        match self {
            ErasedSystem::D2(s) => s.apply(u, out),
            ErasedSystem::D3(s) => s.apply(u, out),
        }
    }
    fn mask(&self, v: &mut [f64]) {
        match self {
            ErasedSystem::D2(s) => s.mask(v),
            ErasedSystem::D3(s) => s.mask(v),
        }
    }
}

/// A dimension-erased [`GridHierarchy`], optionally carrying the
/// mixed-precision ([`MixedHierarchy`]) V-cycle as its preconditioner.
pub enum ErasedHierarchy {
    /// 2D hierarchy.
    D2(GridHierarchy<2>),
    /// 3D hierarchy.
    D3(GridHierarchy<3>),
    /// 2D hierarchy with an f32 V-cycle (f64 coarsest solve).
    D2Mixed(MixedHierarchy<2>),
    /// 3D hierarchy with an f32 V-cycle (f64 coarsest solve).
    D3Mixed(MixedHierarchy<3>),
}

impl ErasedHierarchy {
    /// Builds the V-cycle hierarchy matching `sys` (full f64 cycle). The
    /// finest level is `sys` itself, shared rather than re-assembled.
    pub fn build(sys: &ErasedSystem, opts: HierarchyOptions) -> Result<Self, HybridError> {
        Self::build_with_precision(sys, opts, Precision::F64)
    }

    /// Builds the hierarchy with a precision policy: [`Precision::F32`]
    /// selects the f32 V-cycle preconditioner ([`MixedHierarchy`]; setup
    /// and coarsest solve stay f64), [`Precision::F64`] the full f64
    /// cycle. The outer PCG and all residual certificates remain f64
    /// regardless, so solution accuracy is unaffected — only convergence
    /// rate can differ.
    pub fn build_with_precision(
        sys: &ErasedSystem,
        opts: HierarchyOptions,
        precision: Precision,
    ) -> Result<Self, HybridError> {
        let mixed = precision == Precision::F32;
        Ok(match sys {
            ErasedSystem::D2(s) => {
                let h = GridHierarchy::from_finest(Arc::clone(s), opts)?;
                if mixed {
                    ErasedHierarchy::D2Mixed(MixedHierarchy::new(h))
                } else {
                    ErasedHierarchy::D2(h)
                }
            }
            ErasedSystem::D3(s) => {
                let h = GridHierarchy::from_finest(Arc::clone(s), opts)?;
                if mixed {
                    ErasedHierarchy::D3Mixed(MixedHierarchy::new(h))
                } else {
                    ErasedHierarchy::D3(h)
                }
            }
        })
    }
}

impl Precond for ErasedHierarchy {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        match self {
            ErasedHierarchy::D2(h) => h.apply(r, z),
            ErasedHierarchy::D3(h) => h.apply(r, z),
            ErasedHierarchy::D2Mixed(h) => h.apply(r, z),
            ErasedHierarchy::D3Mixed(h) => h.apply(r, z),
        }
    }
}
