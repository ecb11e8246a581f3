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
//! - the solvers the paper compares against in §4.3: **Jacobi-preconditioned
//!   CG** ([`solve_cg`], the reference every other solve is checked
//!   against) and **multigrid-preconditioned CG** ([`GridHierarchy::solve`]:
//!   one geometric V-cycle per iteration — damped Jacobi, `Pᵀ` restriction,
//!   multilinear prolongation — on any grid with ≥ 2 nodes per axis);
//! - exact **Dirichlet boundary handling** via masking, matching the
//!   network-side BC imposition `U = U_int·χ_int + U_bc·χ_b`.
//!
//! **One element-kernel family for every operator.** Energy, gradient,
//! colored and serial stiffness apply and the diagonal are each one loop
//! in [`operator`], generic over the coefficient evaluated at a quadrature
//! point: the scalar ν of the free functions and of
//! [`PdeOperator::Poisson`], or the symmetric tensor of
//! [`PdeOperator::AnisoDiffusion`]. A [`PdeOperator`] only picks that
//! coefficient type (see [`pde`] for adding one).
//!
//! Everything is generic over the spatial dimension `const D: usize`
//! (2 and 3 are exercised); grids are uniform over `[0,1]^D` with `x` on the
//! fastest axis, matching the tensor layout used by `mgd-nn`.

pub mod basis;
pub mod bc;
pub mod cg;
pub mod color;
pub mod error;
pub mod grid;
pub mod hierarchy;
pub mod mixed;
pub mod operator;
pub mod pcg;
pub mod pde;
pub mod stencil;
pub mod system;

pub use basis::ElementBasis;
pub use bc::{BoundarySpec, Dirichlet};
pub use cg::{solve_cg, solve_cg_op, CgOptions, CgStats};
pub use error::FemError;
pub use grid::Grid;
pub use hierarchy::{GridHierarchy, HierarchyOptions};
pub use mixed::MixedHierarchy;
pub use operator::{
    apply_stiffness, apply_stiffness_serial, energy, energy_grad, load_vector, stiffness_diag,
};
pub use pcg::{JacobiPrecond, LinearOp, PcgStep, PcgWorkspace, Precond};
pub use pde::{sym_index, PdeOperator, MAX_NCOMP};
pub use stencil::Stencil;
pub use system::FemSystem;

/// Geometric multigrid: MG-PCG ([`GridHierarchy::solve`]) against exact
/// solutions and the Jacobi-CG reference.
#[cfg(test)]
mod gmg {
    mod tests {
        use crate::{solve_cg, CgOptions, Dirichlet, ElementBasis, Grid};
        use crate::{GridHierarchy, HierarchyOptions};

        fn nu_var(g: &Grid<2>) -> Vec<f64> {
            (0..g.num_nodes())
                .map(|i| {
                    let c = g.node_coords(i);
                    (0.8 * (3.0 * c[0]).sin() * (2.0 * c[1]).cos()).exp()
                })
                .collect()
        }

        fn hierarchy<const D: usize>(g: Grid<D>, nu: &[f64]) -> GridHierarchy<D> {
            let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
            GridHierarchy::build(g, nu, &bc, HierarchyOptions::default()).unwrap()
        }

        fn tol(tol: f64) -> CgOptions {
            CgOptions {
                tol,
                ..Default::default()
            }
        }

        /// Relative L2 distance between the MG-PCG and the Jacobi-CG
        /// reference solutions, both at relative tolerance 1e-11.
        fn rel_err_vs_cg<const D: usize>(g: Grid<D>, nu: &[f64]) -> f64 {
            let (u_mg, st) = hierarchy(g, nu).solve(None, None, tol(1e-11));
            let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
            let b = ElementBasis::new(&g);
            let (u_cg, st_cg) = solve_cg(&g, &b, nu, &bc, None, None, tol(1e-11));
            assert!(st.converged && st_cg.converged, "{st:?} {st_cg:?}");
            let err: f64 = u_mg
                .iter()
                .zip(&u_cg)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            err / u_cg.iter().map(|x| x * x).sum::<f64>().sqrt()
        }

        /// Solves ν = 1 with x-face BC, whose exact FE solution is `1 − x`.
        fn assert_solves_linear_profile(h: &GridHierarchy<2>) {
            let (u, stats) = h.solve(None, None, CgOptions::default());
            assert!(stats.converged, "{stats:?}");
            let g = &h.finest().grid;
            for (i, ui) in u.iter().enumerate() {
                let c = g.node_coords(i);
                assert!((ui - (1.0 - c[0])).abs() < 1e-8, "node {i}");
            }
        }

        #[test]
        fn hierarchy_depth() {
            let g: Grid<2> = Grid::cube(33);
            let h = hierarchy(g, &vec![1.0; g.num_nodes()]);
            // 33 -> 17 -> 9 -> 5 = 4 levels
            assert_eq!(h.num_levels(), 4);
        }

        #[test]
        fn solves_linear_profile_exactly() {
            // Nested and power-of-two grids alike.
            for m in [17, 16] {
                let g: Grid<2> = Grid::cube(m);
                assert_solves_linear_profile(&hierarchy(g, &vec![1.0; g.num_nodes()]));
            }
        }

        #[test]
        fn agrees_with_cg_on_variable_nu() {
            let g: Grid<2> = Grid::cube(33);
            let rel = rel_err_vs_cg(g, &nu_var(&g));
            assert!(rel < 1e-7, "rel err {rel}");
        }

        #[test]
        fn cycle_count_is_h_independent() {
            // One V-cycle per MG-PCG iteration. Mesh independence on both
            // grid families, including the network-facing 2^k grids that
            // never vertex-nest.
            for family in [[17, 33, 65], [16, 32, 64]] {
                let cycles = family.map(|m| {
                    let g: Grid<2> = Grid::cube(m);
                    let (_, stats) = hierarchy(g, &nu_var(&g)).solve(None, None, tol(1e-8));
                    assert!(stats.converged, "m={m}: {stats:?}");
                    stats.iterations
                });
                let (lo, hi) = (cycles.iter().min().unwrap(), cycles.iter().max().unwrap());
                assert!(*hi <= 10, "{family:?}: {cycles:?} MG-PCG iterations");
                assert!(hi - lo <= 2, "{family:?}: {cycles:?} MG-PCG iterations");
            }
        }

        #[test]
        fn tiny_grid_is_fine_without_coarsening() {
            // At or below coarse_n the hierarchy is a single direct-CG level.
            let g: Grid<2> = Grid::cube(4);
            let h = hierarchy(g, &vec![1.0; g.num_nodes()]);
            assert_eq!(h.num_levels(), 1);
            assert_solves_linear_profile(&h);
        }

        #[test]
        fn three_d_solve() {
            let g: Grid<3> = Grid::cube(17);
            let nu: Vec<f64> = (0..g.num_nodes())
                .map(|i| {
                    let c = g.node_coords(i);
                    (0.5 * (2.0 * c[0]).sin() * (3.0 * c[1]).cos() * (c[2]).cos()).exp()
                })
                .collect();
            let rel = rel_err_vs_cg(g, &nu);
            assert!(rel < 1e-7, "rel err {rel}");
        }
    }
}

/// The crate's two solvers, Jacobi-CG ([`solve_cg`]) and MG-PCG
/// ([`GridHierarchy::solve`]), take the same inputs and run on every grid.
#[cfg(test)]
mod solver {
    mod tests {
        use crate::{solve_cg, CgOptions, Dirichlet, ElementBasis, Grid};
        use crate::{GridHierarchy, HierarchyOptions};

        #[test]
        fn gmg_and_cg_agree() {
            // Nested and power-of-two grids, with nodal forcing and a warm
            // start passed to both.
            let opts = CgOptions {
                tol: 1e-11,
                ..Default::default()
            };
            for m in [33, 32] {
                let g: Grid<2> = Grid::cube(m);
                let nn = g.num_nodes();
                let (mut nu, mut f) = (vec![0.0; nn], vec![0.0; nn]);
                for i in 0..nn {
                    let c = g.node_coords(i);
                    nu[i] = 1.0 + 0.8 * (c[0] * 5.0).sin().abs();
                    f[i] = (3.0 * c[0]).sin() * (2.0 * c[1]).cos();
                }
                let u0 = vec![0.5; nn];
                let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
                let h = GridHierarchy::build(g, &nu, &bc, HierarchyOptions::default()).unwrap();
                let (a, st_a) = h.solve(Some(&f), Some(&u0), opts);
                let basis = ElementBasis::new(&g);
                let (b, st_b) = solve_cg(&g, &basis, &nu, &bc, Some(&f), Some(&u0), opts);
                assert!(st_a.converged && st_b.converged, "m={m}: {st_a:?} {st_b:?}");
                let err: f64 = a
                    .iter()
                    .zip(&b)
                    .map(|(x, y)| (x - y) * (x - y))
                    .sum::<f64>()
                    .sqrt();
                assert!(err < 1e-6, "m={m}: err {err}");
            }
        }
    }
}
