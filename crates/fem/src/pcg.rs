//! Preconditioned conjugate gradients with a pluggable preconditioner —
//! the crate's one CG loop.
//!
//! [`solve`] runs a whole solve of `K u = rhs` against any [`LinearOp`] /
//! [`Precond`] pair: MG-PCG with a V-cycle
//! ([`crate::GridHierarchy::solve`]), Jacobi-CG with [`JacobiPrecond`]
//! (the §3.1.2 warm-start comparison, the certified driver's last resort,
//! and the reference the tests check MG-PCG against), and the coarsest
//! level of every V-cycle all step the same [`PcgWorkspace`]. Hybrid
//! solvers need more control: an outer driver that recomputes *true*
//! residuals between blocks of iterations, swaps preconditioners, and
//! restarts CG after out-of-band updates to the iterate (e.g. a learned
//! correction). [`PcgWorkspace`] exposes exactly that: one CG iteration
//! per [`step`] call, with explicit [`restart`].
//!
//! [`step`]: PcgWorkspace::step
//! [`restart`]: PcgWorkspace::restart

use crate::error::{check_len, FemError};
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

/// Solves `op u = rhs` by CG preconditioned with `pre`, from the current
/// `u` (Dirichlet values already imposed), until the relative or absolute
/// tolerance is met, the iteration cap is hit, or the recurrence breaks
/// down (non-positive or non-finite curvature — a NaN input stops within
/// one iteration, unconverged). Returns [`FemError::SizeMismatch`] when
/// `u` or `rhs` is not `op.len()` long.
pub fn solve(
    op: &dyn LinearOp,
    pre: &dyn Precond,
    u: &mut [f64],
    rhs: &[f64],
    opts: CgOptions,
) -> Result<CgStats, FemError> {
    let nn = op.len();
    check_len("u", nn, u.len())?;
    check_len("rhs", nn, rhs.len())?;
    Ok(PcgWorkspace::new(nn).run(op, pre, u, rhs, opts))
}

/// A masked symmetric positive-definite operator: the minimal surface CG
/// needs. Implemented by [`FemSystem`] and by dimension-erased
/// wrappers in higher crates.
pub trait LinearOp: Sync {
    /// Vector length.
    fn len(&self) -> usize;
    /// `out = K u` (overwrites `out`).
    fn apply(&self, u: &[f64], out: &mut [f64]);
    /// Zeroes constrained (Dirichlet-fixed) entries of `v`.
    fn mask(&self, v: &mut [f64]);
    /// True when the operator has zero rows/columns only at masked entries.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<const D: usize> LinearOp for FemSystem<D> {
    fn len(&self) -> usize {
        self.num_nodes()
    }
    fn apply(&self, u: &[f64], out: &mut [f64]) {
        FemSystem::apply(self, u, out);
    }
    fn mask(&self, v: &mut [f64]) {
        FemSystem::mask(self, v);
    }
}

/// An approximate inverse `z ≈ K⁻¹ r` on the interior degrees of freedom.
///
/// Implementations must be symmetric positive definite on the interior
/// (CG requirement) and must zero fixed entries of `z`.
pub trait Precond: Sync {
    /// Applies the preconditioner.
    fn apply(&self, r: &[f64], z: &mut [f64]);
}

/// Jacobi (inverse-diagonal) preconditioner.
pub struct JacobiPrecond {
    minv: Vec<f64>,
}

impl JacobiPrecond {
    /// Takes the masked inverse diagonal of the system.
    pub fn of<const D: usize>(sys: &FemSystem<D>) -> Self {
        JacobiPrecond {
            minv: sys.diag_inv().to_vec(),
        }
    }
}

impl Precond for JacobiPrecond {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        for (zi, (&ri, &mi)) in z.iter_mut().zip(r.iter().zip(&self.minv)) {
            *zi = ri * mi;
        }
    }
}

/// Outcome of one CG iteration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PcgStep {
    /// Iterate advanced; carries the recurrence residual norm ‖r‖₂.
    Advanced(f64),
    /// Curvature `pᵀKp ≤ 0` or the search direction degenerated — the
    /// iterate was left unchanged and the workspace needs a restart.
    Breakdown,
}

/// Stepwise preconditioned CG state (`r`, `z`, `p` and the `rᵀz` scalar).
///
/// The recurrence residual it tracks is *not* a certificate — callers that
/// need a guaranteed bound must recompute `‖rhs − K u‖` from scratch
/// (see `FemSystem::residual_norm`), which is exactly what the
/// certified driver in `mgd_hybrid` does between blocks of steps.
pub struct PcgWorkspace {
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
    rz: f64,
}

impl PcgWorkspace {
    /// Starts CG on `K u = rhs` from the current iterate `u` (Dirichlet
    /// values must already be imposed on `u`).
    pub fn start(op: &dyn LinearOp, pre: &dyn Precond, u: &[f64], rhs: &[f64]) -> Self {
        let mut ws = PcgWorkspace::new(op.len());
        ws.restart(op, pre, u, rhs);
        ws
    }

    /// Zeroed state for vectors of length `nn`; call [`restart`] before
    /// stepping. Lets a caller keep one workspace across many solves.
    ///
    /// [`restart`]: PcgWorkspace::restart
    pub(crate) fn new(nn: usize) -> Self {
        PcgWorkspace {
            r: vec![0.0; nn],
            z: vec![0.0; nn],
            p: vec![0.0; nn],
            ap: vec![0.0; nn],
            rz: 0.0,
        }
    }

    /// [`solve`]'s loop on this workspace, without the length checks:
    /// restarts on `op u = rhs` and steps to tolerance. Lets a V-cycle's
    /// coarsest solve reuse one workspace.
    pub(crate) fn run(
        &mut self,
        op: &dyn LinearOp,
        pre: &dyn Precond,
        u: &mut [f64],
        rhs: &[f64],
        opts: CgOptions,
    ) -> CgStats {
        self.restart(op, pre, u, rhs);
        let r0 = self.recurrence_residual();
        let mut stats = CgStats {
            iterations: 0,
            residual: r0,
            initial_residual: r0,
            converged: r0 <= opts.abs_tol,
        };
        while !stats.converged && stats.iterations < opts.max_iter {
            match self.step(op, pre, u) {
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

    /// Recomputes `r = mask(rhs − K u)` and restarts the Krylov recurrence.
    /// Call after any out-of-band modification of `u`.
    pub fn restart(&mut self, op: &dyn LinearOp, pre: &dyn Precond, u: &[f64], rhs: &[f64]) {
        op.apply(u, &mut self.r);
        for (ri, &bi) in self.r.iter_mut().zip(rhs) {
            *ri = bi - *ri;
        }
        op.mask(&mut self.r);
        pre.apply(&self.r, &mut self.z);
        op.mask(&mut self.z);
        self.p.copy_from_slice(&self.z);
        self.rz = dot(&self.r, &self.z);
    }

    /// Recurrence residual norm ‖r‖₂ (cheap; drifts from the true residual
    /// over many iterations).
    pub fn recurrence_residual(&self) -> f64 {
        dot(&self.r, &self.r).sqrt()
    }

    /// One PCG iteration: updates `u` in place.
    pub fn step(&mut self, op: &dyn LinearOp, pre: &dyn Precond, u: &mut [f64]) -> PcgStep {
        op.apply(&self.p, &mut self.ap);
        op.mask(&mut self.ap);
        let pap = dot(&self.p, &self.ap);
        // NaN must trip the breakdown path too, hence no plain `pap <= 0.0`.
        if pap.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) || !pap.is_finite() {
            return PcgStep::Breakdown;
        }
        let alpha = self.rz / pap;
        for i in 0..u.len() {
            u[i] += alpha * self.p[i];
            self.r[i] -= alpha * self.ap[i];
        }
        pre.apply(&self.r, &mut self.z);
        op.mask(&mut self.z);
        let rz_new = dot(&self.r, &self.z);
        if !rz_new.is_finite() {
            return PcgStep::Breakdown;
        }
        let beta = rz_new / self.rz;
        self.rz = rz_new;
        for i in 0..u.len() {
            self.p[i] = self.z[i] + beta * self.p[i];
        }
        op.mask(&mut self.p);
        PcgStep::Advanced(self.recurrence_residual())
    }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bc::Dirichlet;
    use crate::grid::Grid;

    fn sys2d(m: usize) -> FemSystem<2> {
        let g: Grid<2> = Grid::cube(m);
        let nn = g.num_nodes();
        let nu: Vec<f64> = (0..nn)
            .map(|i| {
                let c = g.node_coords(i);
                (0.6 * (2.0 * c[0]).sin() * (3.0 * c[1]).cos()).exp()
            })
            .collect();
        let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
        FemSystem::new(g, nu, bc).unwrap()
    }

    #[test]
    fn restart_recovers_from_external_update() {
        let sys = sys2d(9);
        let nn = sys.num_nodes();
        let rhs = vec![0.0; nn];
        let mut u = vec![0.0; nn];
        sys.impose_bc(&mut u);
        let pre = JacobiPrecond::of(&sys);
        let mut ws = PcgWorkspace::start(&sys, &pre, &u, &rhs);
        for _ in 0..3 {
            ws.step(&sys, &pre, &mut u);
        }
        // Out-of-band perturbation invalidates the recurrence; restart and
        // converge anyway.
        for (i, v) in u.iter_mut().enumerate() {
            if !sys.bc.fixed[i] {
                *v += 0.01;
            }
        }
        ws.restart(&sys, &pre, &u, &rhs);
        for _ in 0..2000 {
            if let PcgStep::Advanced(rn) = ws.step(&sys, &pre, &mut u) {
                if rn < 1e-11 {
                    break;
                }
            }
        }
        assert!(sys.residual_norm(&u, &rhs) < 1e-9);
    }

    #[test]
    fn solve_rejects_mis_sized_vectors() {
        let sys = sys2d(9);
        let nn = sys.num_nodes();
        let pre = JacobiPrecond::of(&sys);
        let opts = CgOptions::default();
        let err = solve(&sys, &pre, &mut vec![0.0; nn - 1], &vec![0.0; nn], opts).unwrap_err();
        assert_eq!(
            err,
            FemError::SizeMismatch {
                what: "u",
                expected: nn,
                got: nn - 1
            }
        );
        let err = solve(&sys, &pre, &mut vec![0.0; nn], &vec![0.0; nn + 1], opts).unwrap_err();
        assert!(matches!(err, FemError::SizeMismatch { what: "rhs", .. }));
    }
}
