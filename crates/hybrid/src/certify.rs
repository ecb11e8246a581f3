//! The certified-solve driver: a demotion chain of PCG runs, always a
//! residual bound.
//!
//! Every stage of the chain is one [`PcgWorkspace`] recurrence stepped
//! `block` iterations per outer step from a start iterate. The stages
//! differ only in whether that start is the surrogate's guess and whether
//! the V-cycle hierarchy or Jacobi preconditions the run:
//!
//! | stage (`strategy_used`) | start iterate | preconditioner |
//! |---|---|---|
//! | `initial-guess` | the surrogate's guess | hierarchy (MG-PCG) |
//! | `pure-multigrid` | the best iterate so far | hierarchy (MG-PCG) |
//! | `jacobi-cg` | the best iterate so far | Jacobi |
//!
//! After every outer step the driver recomputes the **true** residual
//! `‖mask(rhs − K u)‖₂` from scratch — never a Krylov recurrence — and
//! keeps the best iterate seen so far. A stage is demoted to the next row
//! when it breaks down, produces non-finite values, or stalls per
//! [`StallPolicy`]; the seeded stage is skipped when the surrogate has no
//! finite guess of the right length. Jacobi-CG is unconditionally
//! convergent for the SPD systems built here and is never stalled out, so
//! the driver always terminates with a certified [`CertifiedSolution`].

use crate::strategy::{StrategyKind, Surrogate};
use crate::system::{ErasedHierarchy, ErasedSystem};
use mgd_fem::pcg::{JacobiPrecond, PcgStep, PcgWorkspace, Precond};

/// Stall detection: demote when the best residual fails to shrink by at
/// least a factor `rho` over `window` consecutive outer steps.
#[derive(Clone, Copy, Debug)]
pub struct StallPolicy {
    /// Required reduction factor over the window (in `(0, 1)`).
    pub rho: f64,
    /// Window length in outer steps; `0` reads as `1`.
    pub window: usize,
}

impl Default for StallPolicy {
    fn default() -> Self {
        StallPolicy {
            rho: 0.9,
            window: 4,
        }
    }
}

/// Certified-solve options.
#[derive(Clone, Copy, Debug)]
pub struct CertifyOptions {
    /// Convergence target, relative to the reference residual of the
    /// zero (BC-imposed) iterate.
    pub tol: f64,
    /// Cap on outer steps across all stages (the driver returns the best
    /// certified iterate even if the cap is hit).
    pub max_outer: usize,
    /// Inner (Krylov) iterations per outer step — i.e. per true-residual
    /// recomputation; `0` reads as `1`. Small blocks keep the certificate
    /// granular: the head start a good surrogate guess buys converts into
    /// outer steps actually skipped instead of being absorbed by one long
    /// block's overshoot. The extra cost is one operator apply per block, a
    /// few percent of the block's V-cycles.
    pub block: usize,
    /// Stall detector.
    pub stall: StallPolicy,
}

impl Default for CertifyOptions {
    fn default() -> Self {
        CertifyOptions {
            tol: 1e-8,
            max_outer: 600,
            block: 2,
            stall: StallPolicy::default(),
        }
    }
}

/// A solution with a machine-checked residual certificate.
#[derive(Clone, Debug)]
pub struct CertifiedSolution {
    /// The nodal solution field (the best iterate encountered).
    pub u: Vec<f64>,
    /// True residual norm of `u`, recomputed from scratch at return.
    pub residual_norm: f64,
    /// Residual norm of the zero (BC-imposed) iterate — the reference
    /// the relative tolerance is measured against.
    pub reference_residual: f64,
    /// `residual_norm / reference_residual`.
    pub rel_residual: f64,
    /// Outer steps performed (true-residual recomputations).
    pub iterations: usize,
    /// Name of the stage that produced the final iterate.
    pub strategy_used: String,
    /// Whether the driver demoted out of the requested strategy.
    pub fell_back: bool,
    /// Whether `rel_residual ≤ tol` was reached.
    pub converged: bool,
    /// Best-so-far true residual after each outer step (monotone
    /// non-increasing by construction; index 0 is the reference).
    pub residual_history: Vec<f64>,
}

/// A stage of the demotion chain (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Stage {
    Seeded,
    Multigrid,
    Jacobi,
}

impl Stage {
    fn name(self) -> &'static str {
        match self {
            Stage::Seeded => StrategyKind::InitialGuess.name(),
            Stage::Multigrid => StrategyKind::PureMultigrid.name(),
            Stage::Jacobi => "jacobi-cg",
        }
    }

    /// The stage a demotion moves to; nothing is below Jacobi-CG.
    fn next(self) -> Option<Stage> {
        match self {
            Stage::Seeded => Some(Stage::Multigrid),
            Stage::Multigrid => Some(Stage::Jacobi),
            Stage::Jacobi => None,
        }
    }
}

/// The active stage: its PCG recurrence from its start iterate.
struct Run {
    stage: Stage,
    /// Jacobi-CG's preconditioner; the other stages run on the hierarchy.
    jacobi: Option<JacobiPrecond>,
    ws: PcgWorkspace,
}

fn precond<'a>(jacobi: &'a Option<JacobiPrecond>, hier: &'a ErasedHierarchy) -> &'a dyn Precond {
    match jacobi {
        Some(j) => j,
        None => hier,
    }
}

impl Run {
    /// Starts `stage` from `u` (Dirichlet values imposed).
    fn start(
        stage: Stage,
        sys: &ErasedSystem,
        hier: &ErasedHierarchy,
        u: &[f64],
        rhs: &[f64],
    ) -> Run {
        let jacobi = (stage == Stage::Jacobi).then(|| sys.jacobi());
        let ws = PcgWorkspace::start(sys, precond(&jacobi, hier), u, rhs);
        Run { stage, jacobi, ws }
    }

    /// One outer step: `block` PCG iterations on `u`. `false` when one
    /// breaks down, which ends the block.
    fn step(
        &mut self,
        sys: &ErasedSystem,
        hier: &ErasedHierarchy,
        u: &mut [f64],
        block: usize,
    ) -> bool {
        let pre = precond(&self.jacobi, hier);
        (0..block).all(|_| self.ws.step(sys, pre, u) != PcgStep::Breakdown)
    }
}

/// Writes the surrogate's guess into `u` and imposes the Dirichlet values.
/// Returns `false`, leaving `u` untouched, unless the guess is finite and
/// holds one value per node.
fn seed(sys: &ErasedSystem, surrogate: &dyn Surrogate, u: &mut [f64]) -> bool {
    match surrogate.guess(&sys.dims(), sys.nu()) {
        Some(g) if g.len() == u.len() && g.iter().all(|x| x.is_finite()) => {
            u.copy_from_slice(&g);
            sys.impose_bc(u);
            true
        }
        _ => false,
    }
}

/// Runs a certified solve of `K(ν) u = rhs` (zero `rhs` = the paper's
/// BC-driven problem) with the requested strategy.
///
/// # Panics
/// If `rhs` does not hold one value per node of `sys`.
pub fn solve_certified(
    sys: &ErasedSystem,
    hier: &ErasedHierarchy,
    surrogate: &dyn Surrogate,
    kind: StrategyKind,
    rhs: Option<&[f64]>,
    opts: &CertifyOptions,
) -> CertifiedSolution {
    let nn = sys.num_nodes();
    let rhs: Vec<f64> = match rhs {
        Some(b) => {
            assert!(
                b.len() == nn,
                "solve_certified: rhs has length {}, the system has {nn} nodes",
                b.len()
            );
            b.to_vec()
        }
        None => vec![0.0; nn],
    };
    let mut u = vec![0.0; nn];
    sys.impose_bc(&mut u);
    let r_ref = sys.residual_norm(&u, &rhs);
    let mut history = vec![r_ref];
    if r_ref == 0.0 {
        return CertifiedSolution {
            u,
            residual_norm: 0.0,
            reference_residual: 0.0,
            rel_residual: 0.0,
            iterations: 0,
            strategy_used: kind.name().to_string(),
            fell_back: false,
            converged: true,
            residual_history: history,
        };
    }
    let target = opts.tol * r_ref;
    let block = opts.block.max(1);
    let window = opts.stall.window.max(1);

    let mut best_u = u.clone();
    let mut best_r = r_ref;
    let mut iterations = 0usize;
    // Best residual at entry + steps taken, per active stage (stall scope).
    let mut stage_hist: Vec<f64> = vec![r_ref];

    // Without a usable guess the chain starts at pure MG-PCG.
    let mut fell_back = false;
    let first = match kind {
        StrategyKind::PureMultigrid => Stage::Multigrid,
        StrategyKind::InitialGuess if seed(sys, surrogate, &mut u) => Stage::Seeded,
        StrategyKind::InitialGuess => {
            fell_back = true;
            Stage::Multigrid
        }
    };
    let mut run = Run::start(first, sys, hier, &u, &rhs);
    // A seeded iterate may already be at (or near) the target — certify it
    // before stepping so an exact guess terminates cleanly instead of
    // breaking down on a zero residual.
    if first == Stage::Seeded {
        let rn = sys.residual_norm(&u, &rhs);
        if rn.is_finite() && rn < best_r {
            best_r = rn;
            best_u.copy_from_slice(&u);
            history.push(best_r);
            stage_hist.push(best_r);
        }
    }

    while iterations < opts.max_outer && best_r > target {
        let ok = run.step(sys, hier, &mut u, block);
        iterations += 1;
        let rn = sys.residual_norm(&u, &rhs);
        let finite = rn.is_finite() && u.iter().all(|x| x.is_finite());
        if finite && rn < best_r {
            best_r = rn;
            best_u.copy_from_slice(&u);
        }
        history.push(best_r);
        stage_hist.push(best_r);
        if best_r <= target {
            break;
        }
        // The last stage has nowhere to demote to and is unconditionally
        // convergent — never stall it out, only run it to the cap.
        let n = stage_hist.len();
        let stalled = run.stage != Stage::Jacobi
            && n > window
            && stage_hist[n - 1] > opts.stall.rho * stage_hist[n - 1 - window];
        if finite && ok && !stalled {
            continue;
        }
        // Demote: restart the next stage from the best certified iterate.
        let Some(next) = run.stage.next() else {
            break;
        };
        fell_back = true;
        u.copy_from_slice(&best_u);
        stage_hist.clear();
        stage_hist.push(best_r);
        run = Run::start(next, sys, hier, &u, &rhs);
    }

    let residual_norm = sys.residual_norm(&best_u, &rhs);
    CertifiedSolution {
        rel_residual: residual_norm / r_ref,
        converged: residual_norm <= target,
        u: best_u,
        residual_norm,
        reference_residual: r_ref,
        iterations,
        strategy_used: run.stage.name().to_string(),
        fell_back,
        residual_history: history,
    }
}
