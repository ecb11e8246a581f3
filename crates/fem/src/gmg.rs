//! Classical geometric multigrid (GMG) V-cycle solver (paper §2.3).
//!
//! This is the "traditional numerical linear algebra" side of the paper: a
//! vertex-centered multigrid hierarchy with damped-Jacobi smoothing,
//! full-weighting restriction and multilinear prolongation. It serves as
//! the fast FEM comparator for §4.3 ("time taken for one finite element
//! solve") and as the conceptual template the training cycles of
//! `mgdiffnet::cycle` are derived from.
//!
//! Grids must have `2^j + 1` nodes per axis so vertices nest; the arbitrary
//! `2^k`-node grids used by the network are solved with CG instead
//! (see [`crate::solver`]).

use crate::bc::Dirichlet;
use crate::cg::{run_cg, CgOptions};
use crate::error::FemError;
use crate::grid::Grid;
use crate::hierarchy::{sample_tables, transfer, AxisTable};
use crate::operator::load_vector;
use crate::pcg::{JacobiPrecond, PcgWorkspace};
use crate::system::PoissonSystem;

/// GMG options.
#[derive(Clone, Copy, Debug)]
pub struct GmgOptions {
    /// Pre-smoothing sweeps per level.
    pub pre_smooth: usize,
    /// Post-smoothing sweeps per level.
    pub post_smooth: usize,
    /// Damped-Jacobi relaxation factor.
    pub omega: f64,
    /// Relative residual target for the outer V-cycle iteration.
    pub tol: f64,
    /// Maximum V-cycles.
    pub max_cycles: usize,
    /// Coarsest-grid node count per axis at or below which CG solves directly.
    pub coarse_n: usize,
    /// Recursion count per level: 1 = V-cycle, 2 = W-cycle (paper §2.3:
    /// "the extra expense of the W-cycle ... is progressively lower for
    /// increasing spatial dimensions").
    pub gamma: usize,
}

impl Default for GmgOptions {
    fn default() -> Self {
        GmgOptions {
            pre_smooth: 2,
            post_smooth: 2,
            omega: 0.7,
            tol: 1e-10,
            max_cycles: 60,
            coarse_n: 5,
            gamma: 1,
        }
    }
}

/// Convergence report for a GMG solve.
#[derive(Clone, Debug)]
pub struct GmgStats {
    /// V-cycles performed.
    pub cycles: usize,
    /// Residual norm after each cycle.
    pub residual_history: Vec<f64>,
    /// Whether the tolerance was met.
    pub converged: bool,
}

/// A geometric multigrid solver bound to one (grid, ν, BC) triple.
///
/// Each level is a full [`PoissonSystem`] (coarse levels carry a
/// homogeneous-value Dirichlet mask), so the residual / apply / smoothing
/// entry points are the same ones exposed to hybrid solvers.
#[derive(Debug)]
pub struct GmgSolver<const D: usize> {
    levels: Vec<PoissonSystem<D>>,
    /// Prolongation tables from level `l+1` to level `l`.
    c2f: Vec<Vec<AxisTable>>,
    bc: Dirichlet,
    opts: GmgOptions,
}

/// True when `n` nodes per axis admits vertex-centered coarsening.
pub fn coarsenable(n: usize) -> bool {
    n >= 3 && (n - 1).is_multiple_of(2)
}

impl<const D: usize> GmgSolver<D> {
    /// Builds the level hierarchy. Every axis must satisfy `n = 2^j + 1`
    /// (vertex-centered coarsening) unless the grid is already at or below
    /// `opts.coarse_n` per axis; otherwise a typed
    /// [`FemError::NotCoarsenable`] is returned. Mis-sized `nu` / `bc`
    /// inputs yield [`FemError::SizeMismatch`].
    pub fn new(
        grid: Grid<D>,
        nu: &[f64],
        bc: Dirichlet,
        opts: GmgOptions,
    ) -> Result<Self, FemError> {
        let mut levels: Vec<PoissonSystem<D>> = Vec::new();
        let mut c2f = Vec::new();
        let mut g = grid;
        let mut nu_l = nu.to_vec();
        let mut bc_l = bc.clone();
        loop {
            let coarser =
                g.n.iter()
                    .all(|&m| coarsenable(m) && (m - 1) / 2 + 1 >= opts.coarse_n.min(3));
            let already_coarse = g.n.iter().any(|&m| m <= opts.coarse_n);
            if levels.is_empty() && !coarser && !already_coarse {
                return Err(FemError::NotCoarsenable {
                    n: g.n.to_vec(),
                    requirement: "vertex-centered coarsening needs 2^j + 1 nodes per axis",
                });
            }
            let stop = already_coarse || !coarser;
            levels.push(PoissonSystem::new(g, nu_l.clone(), bc_l.clone())?);
            if stop {
                break;
            }
            // Coarsen: n -> (n-1)/2 + 1 per axis; ν by injection; mask by
            // injection (faces align across levels). Coarse levels solve
            // error equations, so their Dirichlet values are homogeneous.
            let mut cn = [0usize; D];
            for d in 0..D {
                cn[d] = (g.n[d] - 1) / 2 + 1;
            }
            let cg: Grid<D> = Grid::new(cn);
            let mut cnu = vec![0.0; cg.num_nodes()];
            let mut cfix = vec![false; cg.num_nodes()];
            for ci in 0..cg.num_nodes() {
                let cm = cg.node_multi(ci);
                let mut fm = [0usize; D];
                for d in 0..D {
                    fm[d] = cm[d] * 2;
                }
                let fi = g.node(fm);
                cnu[ci] = nu_l[fi];
                cfix[ci] = bc_l.fixed[fi];
            }
            c2f.push(sample_tables(g.n, cn));
            g = cg;
            nu_l = cnu;
            bc_l = Dirichlet {
                values: vec![0.0; cfix.len()],
                fixed: cfix,
            };
        }
        Ok(GmgSolver {
            levels,
            c2f,
            bc,
            opts,
        })
    }

    /// Number of levels in the hierarchy.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    fn smooth(&self, l: usize, u: &mut [f64], b: &[f64], sweeps: usize) {
        let tmp = &mut vec![0.0; u.len()];
        self.levels[l]
            .stencil()
            .smooth(u, b, self.opts.omega, sweeps, tmp);
    }

    /// Multilinear prolongation of a coarse correction, or (`restrict`)
    /// its transpose `r_c = Pᵀ r` — the tensor product of the 1D stencil
    /// [1/2, 1, 1/2], i.e. the nested case of the hierarchy's separable
    /// transfers — masked on the output level.
    ///
    /// For multilinear FEM this is the variationally correct restriction
    /// (the Galerkin coarse operator `Pᵀ K P` then matches the rediscretized
    /// coarse stiffness); the finite-difference "full weighting"
    /// [1/4, 1/2, 1/4] under-scales the coarse correction by 2^D and
    /// degrades the V-cycle to smoother-speed convergence.
    fn transfer(&self, fine_l: usize, restrict: bool, v: &[f64]) -> Vec<f64> {
        let (fine, coarse) = (&self.levels[fine_l], &self.levels[fine_l + 1]);
        let mut out = vec![0.0; if restrict { coarse } else { fine }.num_nodes()];
        let mut t = [vec![0.0; fine.num_nodes()], vec![0.0; fine.num_nodes()]];
        transfer(
            &self.c2f[fine_l],
            fine,
            coarse,
            restrict,
            v,
            &mut out,
            &mut t,
        );
        out
    }

    fn v_cycle(&self, l: usize, u: &mut [f64], b: &[f64]) {
        let lv = &self.levels[l];
        if l + 1 == self.levels.len() {
            // Coarsest level: tight CG solve. Only the mask of the level's
            // BC is used (coarse levels are homogeneous by construction).
            let opts = CgOptions {
                tol: 1e-12,
                ..Default::default()
            };
            let mut ws = PcgWorkspace::new(u.len());
            run_cg(lv, &JacobiPrecond::of(lv), &mut ws, u, b, opts);
            return;
        }
        self.smooth(l, u, b, self.opts.pre_smooth);
        // γ coarse-grid corrections per visit (γ=1 V-cycle, γ=2 W-cycle).
        let nn = lv.num_nodes();
        for _ in 0..self.opts.gamma.max(1) {
            let mut r = vec![0.0; nn];
            lv.residual_into(u, b, &mut r);
            let rc = self.transfer(l, true, &r);
            let mut ec = vec![0.0; self.levels[l + 1].grid.num_nodes()];
            self.v_cycle(l + 1, &mut ec, &rc);
            let ef = self.transfer(l, false, &ec);
            for i in 0..nn {
                u[i] += ef[i];
            }
        }
        self.smooth(l, u, b, self.opts.post_smooth);
    }

    /// Solves `K(ν) u = F` (with `F` from optional nodal forcing `f`),
    /// returning the solution and per-cycle residual history.
    pub fn solve(&self, f: Option<&[f64]>, u0: Option<&[f64]>) -> (Vec<f64>, GmgStats) {
        let lv = &self.levels[0];
        let nn = lv.num_nodes();
        let mut u = match u0 {
            Some(v) => v.to_vec(),
            None => vec![0.0; nn],
        };
        self.bc.apply(&mut u);
        let mut rhs = vec![0.0; nn];
        if let Some(ff) = f {
            load_vector(&lv.grid, &lv.basis, ff, &mut rhs);
        }
        let residual = |u: &[f64]| -> Vec<f64> {
            let mut r = vec![0.0; nn];
            lv.residual_into(u, &rhs, &mut r);
            r
        };
        let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();
        let r0 = norm(&residual(&u));
        let mut stats = GmgStats {
            cycles: 0,
            residual_history: vec![r0],
            converged: r0 == 0.0,
        };
        if r0 == 0.0 {
            return (u, stats);
        }
        for cyc in 0..self.opts.max_cycles {
            let r = residual(&u);
            let mut e = vec![0.0; nn];
            self.v_cycle(0, &mut e, &r);
            for i in 0..nn {
                u[i] += e[i];
            }
            let rn = norm(&residual(&u));
            stats.cycles = cyc + 1;
            stats.residual_history.push(rn);
            if rn <= self.opts.tol * r0 {
                stats.converged = true;
                break;
            }
        }
        (u, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::ElementBasis;
    use crate::cg::solve_cg;

    fn nu_var(g: &Grid<2>) -> Vec<f64> {
        (0..g.num_nodes())
            .map(|i| {
                let c = g.node_coords(i);
                (0.8 * (3.0 * c[0]).sin() * (2.0 * c[1]).cos()).exp()
            })
            .collect()
    }

    #[test]
    fn hierarchy_depth() {
        let g: Grid<2> = Grid::cube(33);
        let nn = g.num_nodes();
        let s = GmgSolver::new(
            g,
            &vec![1.0; nn],
            Dirichlet::x_faces(&g, 1.0, 0.0),
            GmgOptions::default(),
        )
        .unwrap();
        // 33 -> 17 -> 9 -> 5 = 4 levels
        assert_eq!(s.num_levels(), 4);
    }

    #[test]
    fn solves_linear_profile_exactly() {
        let g: Grid<2> = Grid::cube(17);
        let nn = g.num_nodes();
        let nu = vec![1.0; nn];
        let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
        let s = GmgSolver::new(g, &nu, bc, GmgOptions::default()).unwrap();
        let (u, stats) = s.solve(None, None);
        assert!(stats.converged, "{stats:?}");
        for i in 0..nn {
            let c = g.node_coords(i);
            assert!((u[i] - (1.0 - c[0])).abs() < 1e-8);
        }
    }

    #[test]
    fn agrees_with_cg_on_variable_nu() {
        let g: Grid<2> = Grid::cube(33);
        let b = ElementBasis::new(&g);
        let nu = nu_var(&g);
        let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
        let s = GmgSolver::new(g, &nu, bc.clone(), GmgOptions::default()).unwrap();
        let (u_mg, st) = s.solve(None, None);
        assert!(st.converged);
        let (u_cg, st2) = solve_cg(
            &g,
            &b,
            &nu,
            &bc,
            None,
            None,
            CgOptions {
                tol: 1e-12,
                ..Default::default()
            },
        );
        assert!(st2.converged);
        let err: f64 = u_mg
            .iter()
            .zip(&u_cg)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let norm: f64 = u_cg.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(err / norm < 1e-7, "rel err {}", err / norm);
    }

    #[test]
    fn cycle_count_is_h_independent() {
        let cycles_at = |m: usize| -> usize {
            let g: Grid<2> = Grid::cube(m);
            let nu = nu_var(&g);
            let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
            let s = GmgSolver::new(
                g,
                &nu,
                bc,
                GmgOptions {
                    tol: 1e-8,
                    ..Default::default()
                },
            )
            .unwrap();
            let (_, stats) = s.solve(None, None);
            assert!(stats.converged, "m={m}");
            stats.cycles
        };
        let c17 = cycles_at(17);
        let c33 = cycles_at(33);
        let c65 = cycles_at(65);
        assert!(c17 <= 25 && c33 <= 25 && c65 <= 25, "{c17} {c33} {c65}");
        // Mesh-independence: growth bounded by a small additive band.
        assert!(c65 as i64 - c17 as i64 <= 5, "{c17} -> {c65}");
    }

    #[test]
    fn residual_contracts_monotonically() {
        let g: Grid<2> = Grid::cube(33);
        let nu = nu_var(&g);
        let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
        let s = GmgSolver::new(g, &nu, bc, GmgOptions::default()).unwrap();
        let (_, stats) = s.solve(None, None);
        for w in stats.residual_history.windows(2) {
            assert!(w[1] <= w[0] * 1.01, "residual grew: {w:?}");
        }
    }

    #[test]
    fn w_cycle_converges_in_fewer_or_equal_cycles() {
        // γ = 2 (W) does at least as much coarse work per cycle as γ = 1
        // (V): cycle count must not increase.
        let g: Grid<2> = Grid::cube(33);
        let nu = nu_var(&g);
        let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
        let run = |gamma: usize| {
            let s = GmgSolver::new(
                g,
                &nu,
                bc.clone(),
                GmgOptions {
                    gamma,
                    tol: 1e-9,
                    ..Default::default()
                },
            )
            .unwrap();
            let (u, stats) = s.solve(None, None);
            assert!(stats.converged, "gamma={gamma}");
            (u, stats.cycles)
        };
        let (u_v, c_v) = run(1);
        let (u_w, c_w) = run(2);
        assert!(c_w <= c_v, "W took {c_w} vs V {c_v}");
        let err: f64 = u_v
            .iter()
            .zip(&u_w)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(err < 1e-6);
    }

    #[test]
    fn non_coarsenable_grid_is_a_typed_error() {
        let g: Grid<2> = Grid::cube(16); // 2^k nodes never nest
        let nn = g.num_nodes();
        let err = GmgSolver::new(
            g,
            &vec![1.0; nn],
            Dirichlet::x_faces(&g, 1.0, 0.0),
            GmgOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, FemError::NotCoarsenable { .. }), "{err}");
    }

    #[test]
    fn tiny_grid_is_fine_without_coarsening() {
        // At or below coarse_n the "hierarchy" is a single direct-CG level.
        let g: Grid<2> = Grid::cube(4);
        let nn = g.num_nodes();
        let s = GmgSolver::new(
            g,
            &vec![1.0; nn],
            Dirichlet::x_faces(&g, 1.0, 0.0),
            GmgOptions::default(),
        )
        .unwrap();
        assert_eq!(s.num_levels(), 1);
        let (u, stats) = s.solve(None, None);
        assert!(stats.converged);
        for i in 0..nn {
            let c = g.node_coords(i);
            assert!((u[i] - (1.0 - c[0])).abs() < 1e-8);
        }
    }

    #[test]
    fn three_d_solve() {
        let g: Grid<3> = Grid::cube(17);
        let nn = g.num_nodes();
        let nu: Vec<f64> = (0..nn)
            .map(|i| {
                let c = g.node_coords(i);
                (0.5 * (2.0 * c[0]).sin() * (3.0 * c[1]).cos() * (c[2]).cos()).exp()
            })
            .collect();
        let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
        let s = GmgSolver::new(g, &nu, bc.clone(), GmgOptions::default()).unwrap();
        let (u_mg, st) = s.solve(None, None);
        assert!(st.converged, "{:?}", st.residual_history);
        let b = ElementBasis::new(&g);
        let (u_cg, _) = solve_cg(
            &g,
            &b,
            &nu,
            &bc,
            None,
            None,
            CgOptions {
                tol: 1e-11,
                ..Default::default()
            },
        );
        let err: f64 = u_mg
            .iter()
            .zip(&u_cg)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let norm: f64 = u_cg.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(err / norm < 1e-6);
    }
}
