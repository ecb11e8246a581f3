//! Jacobi-preconditioned conjugate gradients with Dirichlet masking.
//!
//! Solves `K(ν) u = F` on the interior degrees of freedom with prescribed
//! Dirichlet values held fixed; this is the reference solver for
//! network-vs-FEM comparisons (the grids match the network output exactly).
//! Every entry point is a thin wrapper over `run_cg`, the crate's one CG
//! loop, which steps a [`PcgWorkspace`] (whose curvature guard also
//! rejects NaN).

use crate::basis::ElementBasis;
use crate::bc::Dirichlet;
use crate::grid::Grid;
use crate::operator::load_vector;
use crate::pcg::{JacobiPrecond, LinearOp, PcgStep, PcgWorkspace, Precond};
use crate::pde::PdeOperator;
use crate::system::FemSystem;

/// CG solver options.
#[derive(Clone, Copy, Debug)]
pub struct CgOptions {
    /// Relative residual reduction target.
    pub tol: f64,
    /// Absolute residual floor: iteration also stops once ‖r‖₂ drops below
    /// this, which keeps warm starts from chasing an ever-smaller relative
    /// target.
    pub abs_tol: f64,
    /// Iteration cap.
    pub max_iter: usize,
}

impl Default for CgOptions {
    fn default() -> Self {
        CgOptions {
            tol: 1e-10,
            abs_tol: 1e-12,
            max_iter: 10_000,
        }
    }
}

/// Convergence report.
#[derive(Clone, Copy, Debug)]
pub struct CgStats {
    /// Iterations performed.
    pub iterations: usize,
    /// Final residual norm ‖r‖₂.
    pub residual: f64,
    /// Initial residual norm ‖r₀‖₂.
    pub initial_residual: f64,
    /// Whether the tolerance was met.
    pub converged: bool,
}

/// Solves the Poisson system. `u0` provides an optional warm start (e.g. a
/// network prediction — the paper's "excellent starting point" observation
/// in §3.1.2); Dirichlet values are enforced on it first.
pub fn solve_cg<const D: usize>(
    grid: &Grid<D>,
    basis: &ElementBasis<D>,
    nu: &[f64],
    bc: &Dirichlet,
    f: Option<&[f64]>,
    u0: Option<&[f64]>,
    opts: CgOptions,
) -> (Vec<f64>, CgStats) {
    solve_cg_op(grid, basis, PdeOperator::Poisson, nu, bc, f, u0, opts)
}

/// [`solve_cg`] over an arbitrary [`PdeOperator`]. The `Poisson` arm runs
/// the identical kernels, so `solve_cg` delegating here is bitwise-neutral.
#[allow(clippy::too_many_arguments)]
pub fn solve_cg_op<const D: usize>(
    grid: &Grid<D>,
    basis: &ElementBasis<D>,
    op: PdeOperator,
    nu: &[f64],
    bc: &Dirichlet,
    f: Option<&[f64]>,
    u0: Option<&[f64]>,
    opts: CgOptions,
) -> (Vec<f64>, CgStats) {
    let nn = grid.num_nodes();
    let mut u = match u0 {
        Some(v) => {
            assert_eq!(v.len(), nn);
            v.to_vec()
        }
        None => vec![0.0; nn],
    };
    bc.apply(&mut u);

    // Right-hand side F (zero unless forcing given).
    let mut rhs = vec![0.0; nn];
    if let Some(ff) = f {
        load_vector(grid, basis, ff, &mut rhs);
    }
    let sys = FemSystem::assemble(*grid, basis.clone(), op, nu.to_vec(), bc.clone());
    let (pre, mut ws) = (JacobiPrecond::of(&sys), PcgWorkspace::new(nn));
    let stats = run_cg(&sys, &pre, &mut ws, &mut u, &rhs, opts);
    (u, stats)
}

/// The CG loop: restarts `ws` on `op u = rhs` from the current `u`
/// (Dirichlet values already imposed) and steps until the relative or
/// absolute tolerance is met, the iteration cap is hit, or the recurrence
/// breaks down (non-positive or non-finite curvature — a NaN input stops
/// within one iteration, unconverged).
pub(crate) fn run_cg(
    op: &dyn LinearOp,
    pre: &dyn Precond,
    ws: &mut PcgWorkspace,
    u: &mut [f64],
    rhs: &[f64],
    opts: CgOptions,
) -> CgStats {
    ws.restart(op, pre, u, rhs);
    let r0 = ws.recurrence_residual();
    let mut stats = CgStats {
        iterations: 0,
        residual: r0,
        initial_residual: r0,
        converged: r0 <= opts.abs_tol,
    };
    while !stats.converged && stats.iterations < opts.max_iter {
        match ws.step(op, pre, u) {
            PcgStep::Breakdown => break,
            PcgStep::Advanced(rn) => {
                stats.iterations += 1;
                stats.residual = rn;
                stats.converged = rn <= opts.tol * r0 || rn <= opts.abs_tol;
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::energy;

    #[test]
    fn unit_nu_solution_is_linear_profile() {
        // ν = 1, no forcing, u(0)=1, u(1)=0 with zero Neumann on y-faces:
        // the exact solution is u = 1 − x, which the FE space represents
        // exactly, so CG must recover it to solver tolerance.
        let g: Grid<2> = Grid::cube(17);
        let b = ElementBasis::new(&g);
        let nn = g.num_nodes();
        let nu = vec![1.0; nn];
        let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
        let (u, stats) = solve_cg(&g, &b, &nu, &bc, None, None, CgOptions::default());
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
        let b = ElementBasis::new(&g);
        let nn = g.num_nodes();
        let nu: Vec<f64> = (0..nn)
            .map(|i| 1.0 + 0.5 * ((i % 7) as f64) / 7.0)
            .collect();
        let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
        let (u, stats) = solve_cg(&g, &b, &nu, &bc, None, None, CgOptions::default());
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
        let b = ElementBasis::new(&g);
        let nn = g.num_nodes();
        let nu = vec![1.0; nn];
        let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
        let (u, _) = solve_cg(&g, &b, &nu, &bc, None, None, CgOptions::default());
        let (_, stats2) = solve_cg(&g, &b, &nu, &bc, None, Some(&u), CgOptions::default());
        assert!(
            stats2.iterations <= 2,
            "warm start took {} iters",
            stats2.iterations
        );
    }

    #[test]
    fn three_d_unit_nu_linear_profile() {
        let g: Grid<3> = Grid::cube(9);
        let b = ElementBasis::new(&g);
        let nn = g.num_nodes();
        let nu = vec![1.0; nn];
        let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
        let (u, stats) = solve_cg(&g, &b, &nu, &bc, None, None, CgOptions::default());
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
            let b = ElementBasis::new(&g);
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
            let (u, stats) = solve_cg(
                &g,
                &b,
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
