//! Structured-grid finite elements for the MGDiffNet reproduction.
//!
//! Implements the numerical backbone of the paper:
//! - the **Ritz energy functional** `J(u) = ½ B(u,u) − L(u)` (paper Eq. 14)
//!   and its gradient with respect to nodal values — this *is* the training
//!   loss of Algorithm 1;
//! - **matrix-free stiffness application** `v = K(ν) u` for multilinear
//!   (bilinear quad / trilinear hex) elements with 2-point Gauss quadrature,
//!   parallelized with **element coloring** — the loss path, and the oracle
//!   for the same operator **assembled once as a 9/27-point [`stencil`]**
//!   (symmetric half: 112 B/node in 3D at `f64`, half at `f32`) for solvers;
//! - **Jacobi-preconditioned conjugate gradients** and **geometric
//!   multigrid V-cycles** (damped Jacobi, `Pᵀ` restriction, multilinear
//!   prolongation) — the solvers the paper compares against in §4.3;
//! - exact **Dirichlet boundary handling** via masking, matching the
//!   network-side BC imposition `U = U_int·χ_int + U_bc·χ_b`.
//!
//! Everything is generic over the spatial dimension `const D: usize`
//! (2 and 3 are exercised); grids are uniform over `[0,1]^D` with `x` on the
//! fastest axis, matching the tensor layout used by `mgd-nn`.

pub mod basis;
pub mod bc;
pub mod cg;
pub mod color;
pub mod error;
pub mod gmg;
pub mod grid;
pub mod hierarchy;
pub mod mixed;
pub mod operator;
pub mod pcg;
pub mod pde;
pub mod solver;
pub mod stencil;
pub mod system;

pub use basis::ElementBasis;
pub use bc::{BoundarySpec, Dirichlet};
pub use cg::{solve_cg, solve_cg_op, CgOptions, CgStats};
pub use error::FemError;
pub use gmg::{GmgOptions, GmgSolver, GmgStats};
pub use grid::Grid;
pub use hierarchy::{GridHierarchy, HierarchyOptions};
pub use mixed::MixedHierarchy;
pub use operator::{
    apply_stiffness, apply_stiffness_serial, energy, energy_grad, load_vector, stiffness_diag,
};
pub use pcg::{JacobiPrecond, LinearOp, PcgStep, PcgWorkspace, Precond};
pub use pde::{sym_index, PdeOperator, MAX_NCOMP};
pub use solver::{solve_poisson, Method, SolveReport};
pub use stencil::Stencil;
pub use system::{FemSystem, PoissonSystem};
