//! Mixed-precision multigrid: an `f32` V-cycle under an `f64` outer
//! iteration.
//!
//! The V-cycle is a *preconditioner*, not the answer: the outer PCG (and
//! the certified driver above it) recomputes true residuals in `f64`, so
//! the preconditioner's arithmetic precision affects only the convergence
//! *rate*, never the correctness of the final certificate. That makes the
//! smoother/residual/transfer work — the bulk of every V-cycle — safe to
//! run in `f32`: half the memory traffic per sweep, twice the SIMD lanes,
//! while the parts that carry accuracy obligations stay in `f64`:
//!
//! - the **coarsest-level solve** (a tight CG whose tolerance is far below
//!   `f32` resolution);
//! - the **outer Krylov iteration** consuming this preconditioner;
//! - every **residual certificate** (`FemSystem::residual_norm` /
//!   `mgd_hybrid`'s certify loop).
//!
//! This is classical iterative refinement: the low-precision solve
//! produces a correction `z ≈ K⁻¹ r`; the high-precision outer loop
//! measures what the correction actually achieved and iterates on the
//! exact residual. Accuracy beyond `f32` (e.g. the default `1e-8`
//! certified tolerance) is reached because each refinement step only needs
//! the *correction* to low relative accuracy.
//!
//! [`MixedHierarchy`] runs the [`GridHierarchy`]'s own (element-generic)
//! V-cycle at `f32`, over each level's stencil planes demoted to `f32` once
//! at construction (56 B per node in 3D). Its [`Precond`] impl scales the
//! incoming residual by its max-norm before demotion (guarding against
//! underflow once the outer residual drops toward `1e-30`) and promotes the
//! correction back afterwards.

use crate::hierarchy::{GridHierarchy, Scratch, ScratchPool};
use crate::pcg::Precond;
use crate::stencil::Stencil;
use mgd_tensor::F64_DIV_GUARD;

/// A [`GridHierarchy`] whose preconditioner application is one
/// single-precision V-cycle (the coarsest level still solves in `f64`).
pub struct MixedHierarchy<const D: usize> {
    hier: GridHierarchy<D>,
    /// Each level's stencil, demoted to `f32`.
    levels32: Vec<Stencil<f32, D>>,
    pool: ScratchPool<Scratch<f32>>,
}

impl<const D: usize> MixedHierarchy<D> {
    /// Demotes an existing hierarchy's per-level stencils to `f32`.
    pub fn new(hier: GridHierarchy<D>) -> Self {
        let levels32 = hier.levels.iter().map(|s| s.stencil().demote()).collect();
        MixedHierarchy {
            hier,
            levels32,
            pool: ScratchPool::new(),
        }
    }

    /// The underlying `f64` hierarchy (levels, transfers, full-precision
    /// V-cycle) — everything except the preconditioner application.
    pub fn inner(&self) -> &GridHierarchy<D> {
        &self.hier
    }

    /// Applications that had to allocate working memory (see
    /// [`GridHierarchy::scratch_misses`]).
    pub fn scratch_misses(&self) -> usize {
        self.pool.misses()
    }
}

impl<const D: usize> Precond for MixedHierarchy<D> {
    /// `z ≈ K⁻¹ r` via one `f32` V-cycle from a zero initial error.
    ///
    /// The residual is scaled by its max-norm before demotion so that tiny
    /// late-iteration residuals (far below `f32`'s normal range once the
    /// outer solve closes in on `1e-12` absolute) neither underflow nor
    /// lose their leading digits; the correction is rescaled on promotion.
    /// The resulting operator is SPD up to `f32` rounding — the outer CG's
    /// breakdown detection and the certified driver's true-residual
    /// restarts absorb the perturbation.
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        let scale = r.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        if scale <= F64_DIV_GUARD || !scale.is_finite() {
            z.iter_mut().for_each(|x| *x = 0.0);
            return;
        }
        let inv = 1.0 / scale;
        self.pool.run(
            || self.hier.scratch(),
            |sc| {
                for (d, &v) in sc.b[0].iter_mut().zip(r) {
                    *d = (v * inv) as f32;
                }
                sc.e[0].fill(0.0);
                self.hier.cycle(&|l| &self.levels32[l], sc);
                for (zi, &ei) in z.iter_mut().zip(&sc.e[0]) {
                    *zi = scale * f64::from(ei);
                }
            },
        );
        self.hier.levels[0].mask(z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bc::Dirichlet;
    use crate::grid::Grid;
    use crate::hierarchy::HierarchyOptions;
    use crate::pcg::{PcgStep, PcgWorkspace};
    use crate::pde::PdeOperator;
    use crate::system::FemSystem;

    fn nu_var<const D: usize>(g: &Grid<D>) -> Vec<f64> {
        (0..g.num_nodes())
            .map(|i| {
                let c = g.node_coords(i);
                let mut s = 1.0;
                for (k, &x) in c.iter().enumerate() {
                    s *= ((k + 2) as f64 * x).sin().mul_add(0.4, 1.0);
                }
                s.abs() + 0.3
            })
            .collect()
    }

    fn pair2d(m: usize) -> (GridHierarchy<2>, MixedHierarchy<2>) {
        let g: Grid<2> = Grid::cube(m);
        let nu = nu_var(&g);
        let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
        let h64 = GridHierarchy::build(g, &nu, &bc, HierarchyOptions::default()).unwrap();
        let h32 = MixedHierarchy::new(
            GridHierarchy::build(g, &nu, &bc, HierarchyOptions::default()).unwrap(),
        );
        (h64, h32)
    }

    /// Residual norm after `u += M⁻¹ r` from a zero iterate with imposed
    /// BCs — the one-application contraction of preconditioner `M`.
    fn one_shot_residual(sys: &FemSystem<2>, pre: &dyn Precond) -> (f64, f64) {
        let nn = sys.num_nodes();
        let rhs = vec![0.0; nn];
        let mut u = vec![0.0; nn];
        sys.impose_bc(&mut u);
        let r0 = sys.residual_norm(&u, &rhs);
        let mut r = vec![0.0; nn];
        sys.residual_into(&u, &rhs, &mut r);
        let mut z = vec![0.0; nn];
        pre.apply(&r, &mut z);
        for (ui, zi) in u.iter_mut().zip(&z) {
            *ui += zi;
        }
        (r0, sys.residual_norm(&u, &rhs))
    }

    #[test]
    fn f32_vcycle_contracts_like_f64() {
        // Satellite: the demoted V-cycle must contract the residual at a
        // rate comparable to the f64 V-cycle — f32 rounding perturbs the
        // smoother, it must not defeat it.
        let (h64, h32) = pair2d(64);
        let sys = h64.finest();
        let (r0, r64) = one_shot_residual(sys, &h64);
        let (_, r32) = one_shot_residual(sys, &h32);
        let rho64 = r64 / r0;
        let rho32 = r32 / r0;
        assert!(rho64 < 0.5, "f64 V-cycle failed to contract: {rho64}");
        assert!(rho32 < 0.5, "f32 V-cycle failed to contract: {rho32}");
        assert!(
            rho32 <= rho64 * 2.0 + 1e-6,
            "f32 contraction {rho32} far worse than f64 {rho64}"
        );
    }

    #[test]
    fn mixed_pcg_reaches_beyond_f32_accuracy() {
        // Iterative refinement: the f32 preconditioner inside an f64 PCG
        // must converge to tolerances far below f32 resolution.
        let (h64, h32) = pair2d(64);
        let sys = h64.finest();
        let nn = sys.num_nodes();
        let rhs = vec![0.0; nn];
        let mut u = vec![0.0; nn];
        sys.impose_bc(&mut u);
        let r0 = sys.residual_norm(&u, &rhs);
        let mut ws = PcgWorkspace::start(sys, &h32, &u, &rhs);
        let mut iters = 0;
        for _ in 0..80 {
            iters += 1;
            match ws.step(sys, &h32, &mut u) {
                PcgStep::Advanced(rn) if rn <= 1e-11 * r0 => break,
                PcgStep::Advanced(_) => {}
                PcgStep::Breakdown => {
                    // f32 rounding can perturb SPD-ness; restart on the
                    // true residual like the certified driver does.
                    ws.restart(sys, &h32, &u, &rhs);
                }
            }
        }
        let rel = sys.residual_norm(&u, &rhs) / r0;
        assert!(
            rel <= 1e-10,
            "mixed PCG stuck at rel residual {rel} after {iters} iters"
        );
        assert!(iters <= 60, "mixed PCG took {iters} iterations");
    }

    #[test]
    fn mixed_matches_f64_solution() {
        let (h64, h32) = pair2d(32);
        let sys = h64.finest();
        let nn = sys.num_nodes();
        let rhs = vec![0.0; nn];
        let solve = |pre: &dyn Precond| {
            let mut u = vec![0.0; nn];
            sys.impose_bc(&mut u);
            let r0 = sys.residual_norm(&u, &rhs);
            let mut ws = PcgWorkspace::start(sys, pre, &u, &rhs);
            for _ in 0..60 {
                match ws.step(sys, pre, &mut u) {
                    PcgStep::Advanced(rn) if rn <= 1e-12 * r0 => break,
                    PcgStep::Advanced(_) => {}
                    PcgStep::Breakdown => ws.restart(sys, pre, &u, &rhs),
                }
            }
            u
        };
        let u64v = solve(&h64);
        let u32v = solve(&h32);
        let norm: f64 = u64v.iter().map(|x| x * x).sum::<f64>().sqrt();
        let diff: f64 = u64v
            .iter()
            .zip(&u32v)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(
            diff / norm < 1e-9,
            "mixed and f64 solutions diverge: rel {}",
            diff / norm
        );
    }

    #[test]
    fn mixed_pcg_converges_in_3d() {
        let g: Grid<3> = Grid::cube(16);
        let nu = nu_var(&g);
        let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
        let h32 = MixedHierarchy::new(
            GridHierarchy::build(g, &nu, &bc, HierarchyOptions::default()).unwrap(),
        );
        let sys = h32.inner().finest();
        let nn = sys.num_nodes();
        let rhs = vec![0.0; nn];
        let mut u = vec![0.0; nn];
        sys.impose_bc(&mut u);
        let r0 = sys.residual_norm(&u, &rhs);
        let mut ws = PcgWorkspace::start(sys, &h32, &u, &rhs);
        for _ in 0..60 {
            match ws.step(sys, &h32, &mut u) {
                PcgStep::Advanced(rn) if rn <= 1e-10 * r0 => break,
                PcgStep::Advanced(_) => {}
                PcgStep::Breakdown => ws.restart(sys, &h32, &u, &rhs),
            }
        }
        assert!(sys.residual_norm(&u, &rhs) / r0 <= 1e-9);
    }

    #[test]
    fn mixed_pcg_converges_on_anisotropic_operator() {
        let g: Grid<2> = Grid::cube(32);
        let nn = g.num_nodes();
        let mut t = vec![0.0; 3 * nn];
        let (sn, cs) = 0.8f64.sin_cos();
        for i in 0..nn {
            let c = g.node_coords(i);
            let s = 1.0 + 0.4 * (2.0 * c[0] + c[1]).sin() + 0.5;
            let a = s;
            let b = s / 5.0;
            t[i] = a * cs * cs + b * sn * sn;
            t[nn + i] = a * sn * sn + b * cs * cs;
            t[2 * nn + i] = (a - b) * cs * sn;
        }
        let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
        let h32 = MixedHierarchy::new(
            GridHierarchy::build_with_operator(
                g,
                PdeOperator::AnisoDiffusion,
                &t,
                &bc,
                HierarchyOptions::default(),
            )
            .unwrap(),
        );
        let sys = h32.inner().finest();
        let rhs = vec![0.0; nn];
        let mut u = vec![0.0; nn];
        sys.impose_bc(&mut u);
        let r0 = sys.residual_norm(&u, &rhs);
        let mut ws = PcgWorkspace::start(sys, &h32, &u, &rhs);
        for _ in 0..80 {
            match ws.step(sys, &h32, &mut u) {
                PcgStep::Advanced(rn) if rn <= 1e-10 * r0 => break,
                PcgStep::Advanced(_) => {}
                PcgStep::Breakdown => ws.restart(sys, &h32, &u, &rhs),
            }
        }
        assert!(sys.residual_norm(&u, &rhs) / r0 <= 1e-9);
    }

    #[test]
    fn tiny_residuals_do_not_underflow() {
        // Late-iteration residuals can sit near 1e-25 absolute; max-norm
        // scaling must keep the f32 cycle in its normal range.
        let (h64, h32) = pair2d(16);
        let sys = h64.finest();
        let nn = sys.num_nodes();
        let mut r = vec![0.0; nn];
        sys.residual_into(
            &{
                let mut u = vec![0.0; nn];
                sys.impose_bc(&mut u);
                u
            },
            &vec![0.0; nn],
            &mut r,
        );
        for ri in r.iter_mut() {
            *ri *= 1e-25;
        }
        let mut z = vec![0.0; nn];
        Precond::apply(&h32, &r, &mut z);
        assert!(z.iter().all(|v| v.is_finite()));
        let zmax = z.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
        assert!(zmax > 0.0, "scaled application lost the correction");
        // And an all-zero residual yields an all-zero correction.
        let zero = vec![0.0; nn];
        Precond::apply(&h32, &zero, &mut z);
        assert!(z.iter().all(|&v| v == 0.0));
    }
}
