//! Structured-grid finite elements for the MGDiffNet reproduction.
//!
//! Implements the numerical backbone of the paper:
//! - the **Ritz energy functional** `J(u) = ½ B(u,u) − L(u)` (paper Eq. 14)
//!   and its gradient with respect to nodal values — this *is* the training
//!   loss of Algorithm 1;
//! - **matrix-free stiffness application** `v = K(ν) u` for multilinear
//!   (bilinear quad / trilinear hex) elements with 2-point Gauss quadrature,
//!   parallelized with **element coloring** — the loss path
//!   ([`energy_grad`]), whose element kernel also builds the same operator
//!   **assembled once as a 9/27-point [`stencil`]** (symmetric half:
//!   112 B/node in 3D at `f64`, half at `f32`) for solvers. A serial apply
//!   and the stiffness diagonal are test-only oracles beside it;
//! - the FEM solve the paper compares against in §4.3: **one CG loop**
//!   ([`pcg::solve`]) over a validated [`FemSystem`], preconditioned by one
//!   geometric V-cycle per iteration (MG-PCG, [`GridHierarchy::solve`]:
//!   damped Jacobi, `Pᵀ` restriction, multilinear prolongation — on any
//!   grid with ≥ 2 nodes per axis) or by [`JacobiPrecond`] (Jacobi-CG: the
//!   §3.1.2 warm-start comparison, the certified driver's last resort, and
//!   the reference MG-PCG is tested against);
//! - **one multilinear sampler**, [`resample`], that moves nodal fields
//!   between resolutions: every coarse level's coefficients and Dirichlet
//!   mask, and a training loss's forcing given at another resolution;
//! - exact **Dirichlet boundary handling** via masking, matching the
//!   network-side BC imposition `U = U_int·χ_int + U_bc·χ_b`.
//!
//! **One element-kernel family for every operator.** Energy, gradient,
//! stiffness apply and the test oracles are each one loop
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
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod testing;

pub use basis::ElementBasis;
pub use bc::{BoundarySpec, Dirichlet};
pub use error::FemError;
pub use grid::Grid;
pub use hierarchy::{resample, GridHierarchy, HierarchyOptions};
pub use mixed::MixedHierarchy;
pub use operator::{energy, energy_grad, load_vector};
pub use pcg::{CgOptions, CgStats, JacobiPrecond, LinearOp, PcgStep, PcgWorkspace, Precond};
pub use pde::{sym_index, PdeOperator, MAX_NCOMP};
pub use stencil::Stencil;
pub use system::FemSystem;

/// Jacobi-CG: [`JacobiPrecond`] through the one CG loop ([`pcg::solve`]),
/// the reference the MG-PCG tests check against.
#[cfg(test)]
mod cg {
    use crate::operator::load_vector;
    use crate::pcg::{solve, CgOptions, CgStats, JacobiPrecond};
    use crate::{Dirichlet, FemSystem, Grid};

    /// Jacobi-CG reference: solves `K(ν) u = F` (`F` the load vector of
    /// nodal forcing `f`) through [`solve`] from `u0` or zero, with the
    /// Dirichlet values of `bc` imposed first.
    pub(crate) fn jacobi_cg<const D: usize>(
        g: &Grid<D>,
        nu: &[f64],
        bc: &Dirichlet,
        f: Option<&[f64]>,
        u0: Option<&[f64]>,
        opts: CgOptions,
    ) -> (Vec<f64>, CgStats) {
        let sys = FemSystem::new(*g, nu.to_vec(), bc.clone()).unwrap();
        let nn = sys.num_nodes();
        let mut rhs = vec![0.0; nn];
        if let Some(f) = f {
            load_vector(g, &sys.basis, f, &mut rhs);
        }
        let mut u = u0.map_or_else(|| vec![0.0; nn], <[f64]>::to_vec);
        sys.impose_bc(&mut u);
        let stats = solve(&sys, &JacobiPrecond::of(&sys), &mut u, &rhs, opts).unwrap();
        (u, stats)
    }

    mod tests {
        use super::jacobi_cg;
        use crate::operator::energy;
        use crate::pcg::CgOptions;
        use crate::{Dirichlet, Grid};

        #[test]
        fn unit_nu_solution_is_linear_profile() {
            // ν = 1, no forcing, u(0)=1, u(1)=0 with zero Neumann on y-faces:
            // the exact solution is u = 1 − x, which the FE space represents
            // exactly, so CG must recover it to solver tolerance.
            let g: Grid<2> = Grid::cube(17);
            let nn = g.num_nodes();
            let nu = vec![1.0; nn];
            let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
            let (u, stats) = jacobi_cg(&g, &nu, &bc, None, None, CgOptions::default());
            assert!(stats.converged, "{stats:?}");
            for i in 0..nn {
                let c = g.node_coords(i);
                assert!((u[i] - (1.0 - c[0])).abs() < 1e-8, "node {i}");
            }
        }

        #[test]
        fn solution_minimizes_energy() {
            // J(u*) ≤ J(u* + perturbation) for interior perturbations.
            let g: Grid<2> = Grid::cube(9);
            let b = crate::basis::ElementBasis::new(&g);
            let nn = g.num_nodes();
            let nu: Vec<f64> = (0..nn)
                .map(|i| 1.0 + 0.5 * ((i % 7) as f64) / 7.0)
                .collect();
            let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
            let (u, stats) = jacobi_cg(&g, &nu, &bc, None, None, CgOptions::default());
            assert!(stats.converged);
            let j_star = energy(&g, &b, &nu, &u, None);
            for s in 0..5u64 {
                let mut v = u.clone();
                for i in 0..nn {
                    if !bc.fixed[i] {
                        v[i] += 0.01 * ((((i as u64 + s) * 2654435761) % 100) as f64 / 50.0 - 1.0);
                    }
                }
                let j_pert = energy(&g, &b, &nu, &v, None);
                assert!(j_pert >= j_star - 1e-12, "perturbation lowered energy");
            }
        }

        #[test]
        fn warm_start_from_exact_solution_converges_immediately() {
            let g: Grid<2> = Grid::cube(17);
            let nn = g.num_nodes();
            let nu = vec![1.0; nn];
            let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
            let (u, _) = jacobi_cg(&g, &nu, &bc, None, None, CgOptions::default());
            let (_, stats2) = jacobi_cg(&g, &nu, &bc, None, Some(&u), CgOptions::default());
            assert!(
                stats2.iterations <= 2,
                "warm start took {} iters",
                stats2.iterations
            );
        }

        #[test]
        fn three_d_unit_nu_linear_profile() {
            let g: Grid<3> = Grid::cube(9);
            let nn = g.num_nodes();
            let nu = vec![1.0; nn];
            let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
            let (u, stats) = jacobi_cg(&g, &nu, &bc, None, None, CgOptions::default());
            assert!(stats.converged);
            for i in (0..nn).step_by(11) {
                let c = g.node_coords(i);
                assert!((u[i] - (1.0 - c[0])).abs() < 1e-8);
            }
        }

        #[test]
        fn manufactured_solution_converges_at_h2() {
            // -Δu = f with u* = sin(πx) sin(πy), f = 2π² u*, Dirichlet on all
            // faces. L2 error must shrink ~4x per refinement.
            let solve_at = |m: usize| -> f64 {
                let g: Grid<2> = Grid::cube(m);
                let nn = g.num_nodes();
                let nu = vec![1.0; nn];
                let pi = std::f64::consts::PI;
                let exact = |c: &[f64; 2]| (pi * c[0]).sin() * (pi * c[1]).sin();
                let f: Vec<f64> = (0..nn)
                    .map(|i| {
                        let c = g.node_coords(i);
                        2.0 * pi * pi * exact(&c)
                    })
                    .collect();
                let bc = Dirichlet::all_faces(&g, |c| exact(c));
                let (u, stats) = jacobi_cg(
                    &g,
                    &nu,
                    &bc,
                    Some(&f),
                    None,
                    CgOptions {
                        tol: 1e-12,
                        ..Default::default()
                    },
                );
                assert!(stats.converged);
                let mut err2 = 0.0;
                for i in 0..nn {
                    let c = g.node_coords(i);
                    let e = u[i] - exact(&c);
                    err2 += e * e;
                }
                (err2 / nn as f64).sqrt()
            };
            let e1 = solve_at(9);
            let e2 = solve_at(17);
            let e3 = solve_at(33);
            let rate12 = (e1 / e2).log2();
            let rate23 = (e2 / e3).log2();
            assert!(rate12 > 1.7, "rate {rate12} (e1={e1}, e2={e2})");
            assert!(rate23 > 1.7, "rate {rate23} (e2={e2}, e3={e3})");
        }
    }
}

/// Grid-to-grid transfer: [`resample`] reproduces the fields that its
/// multilinear interpolation spans exactly.
#[cfg(test)]
mod transfer {
    mod tests {
        use crate::resample;

        fn affine<const D: usize>(n: [usize; D], c: [f64; D], c0: f64) -> Vec<f64> {
            let nn: usize = n.iter().product();
            (0..nn)
                .map(|mut i| {
                    let mut v = c0;
                    for d in (0..D).rev() {
                        v += c[d] * (i % n[d]) as f64 / (n[d] - 1) as f64;
                        i /= n[d];
                    }
                    v
                })
                .collect()
        }

        fn rel_l2(a: &[f64], b: &[f64]) -> f64 {
            assert_eq!(a.len(), b.len());
            let e: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
            let n: f64 = b.iter().map(|y| y * y).sum();
            (e / n).sqrt()
        }

        #[test]
        fn resample_exact_for_linear_2d() {
            let f = affine([8, 8], [-3.0, 2.0], 1.0);
            for &to in &[[4, 4], [16, 16], [8, 16], [5, 13]] {
                let r = resample(&f, [8, 8], to);
                let want = affine(to, [-3.0, 2.0], 1.0);
                assert!(rel_l2(&r, &want) < 1e-12, "{to:?}");
            }
        }

        #[test]
        fn resample_preserves_constants_3d() {
            let f = vec![3.5; 4 * 4 * 4];
            let r = resample(&f, [4, 4, 4], [7, 5, 9]);
            assert_eq!(r.len(), 7 * 5 * 9);
            for v in r {
                assert!((v - 3.5).abs() < 1e-14);
            }
        }

        #[test]
        fn resample_exact_for_trilinear_3d() {
            let f = affine([4, 6, 8], [-1.0, 2.0, 1.0], 0.5);
            let r = resample(&f, [4, 6, 8], [8, 3, 5]);
            let want = affine([8, 3, 5], [-1.0, 2.0, 1.0], 0.5);
            assert!(rel_l2(&r, &want) < 1e-12);
        }
    }
}

/// Geometric multigrid: MG-PCG ([`GridHierarchy::solve`]) against exact
/// solutions and the Jacobi-CG reference.
#[cfg(test)]
mod gmg {
    mod tests {
        use crate::cg::jacobi_cg;
        use crate::{CgOptions, Dirichlet, Grid};
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
            let (u_mg, st) = hierarchy(g, nu).solve(None, None, tol(1e-11)).unwrap();
            let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
            let (u_cg, st_cg) = jacobi_cg(&g, nu, &bc, None, None, tol(1e-11));
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
            let (u, stats) = h.solve(None, None, CgOptions::default()).unwrap();
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
                    let (_, stats) = hierarchy(g, &nu_var(&g))
                        .solve(None, None, tol(1e-8))
                        .unwrap();
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

/// The loop's two preconditioners, Jacobi (the test reference) and the
/// V-cycle ([`GridHierarchy::solve`]), take the same inputs and run on
/// every grid.
#[cfg(test)]
mod solver {
    mod tests {
        use crate::cg::jacobi_cg;
        use crate::{CgOptions, Dirichlet, Grid};
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
                let (a, st_a) = h.solve(Some(&f), Some(&u0), opts).unwrap();
                let (b, st_b) = jacobi_cg(&g, &nu, &bc, Some(&f), Some(&u0), opts);
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
