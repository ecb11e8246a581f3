//! The `CertifiedSolve` driver: any strategy, always a residual bound.
//!
//! The driver owns the outer loop. After every outer step it recomputes
//! the **true** residual `‖mask(rhs − K u)‖₂` from scratch — never a
//! Krylov recurrence — and tracks the best iterate seen so far. A stage
//! is demoted (learned strategy → pure MG-PCG → Jacobi-CG) when it
//! reports itself unavailable, breaks down, produces non-finite values,
//! or stalls per [`StallPolicy`]. The final stage is Jacobi-CG from the
//! best iterate, stepping the same [`mgd_fem::pcg::PcgWorkspace`] as every
//! other CG solve. It is unconditionally convergent for the SPD systems
//! built here and is never stalled out, so the driver always terminates
//! with a certified [`CertifiedSolution`].

use crate::strategy::{stage_chain, SolveCtx, StageStatus, StrategyKind, Surrogate};
use crate::system::{ErasedHierarchy, ErasedSystem};

/// Stall detection: demote when the best residual fails to shrink by at
/// least a factor `rho` over `window` consecutive outer steps.
#[derive(Clone, Copy, Debug)]
pub struct StallPolicy {
    /// Required reduction factor over the window (in `(0, 1)`).
    pub rho: f64,
    /// Window length in outer steps (≥ 1).
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
    /// recomputation. Small blocks keep the certificate granular: the head
    /// start a good surrogate guess buys converts into outer steps actually
    /// skipped instead of being absorbed by one long block's overshoot. The
    /// extra cost is one operator apply per block, a few percent of the
    /// block's V-cycles.
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

/// Runs a certified solve of `K(ν) u = rhs` (zero `rhs` = the paper's
/// BC-driven problem) with the requested strategy.
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
        Some(b) => b.to_vec(),
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

    let mut stages = stage_chain(kind);
    stages.reverse(); // pop() yields the requested strategy first
    let mut best_u = u.clone();
    let mut best_r = r_ref;
    let mut fell_back = false;
    let mut iterations = 0usize;
    // Best residual at entry + steps taken, per active stage (stall scope).
    let mut stage_hist: Vec<f64> = vec![r_ref];

    let mut stage = stages.pop().expect("chain is never empty");
    // Activate the first stage; demote through the chain on init failure.
    loop {
        let mut ctx = SolveCtx {
            sys,
            hier,
            surrogate,
            rhs: &rhs,
            u: &mut u,
            block: opts.block,
        };
        match stage.init(&mut ctx) {
            StageStatus::Ok => break,
            _ => match stages.pop() {
                Some(next) => {
                    fell_back = true;
                    stage = next;
                    u.copy_from_slice(&best_u);
                }
                None => break,
            },
        }
    }

    // A seeding init may already be at (or near) the target — certify the
    // seeded iterate before stepping so an exact guess terminates cleanly
    // instead of breaking down on a zero residual.
    let rn = sys.residual_norm(&u, &rhs);
    if rn.is_finite() && u.iter().all(|x| x.is_finite()) && rn < best_r {
        best_r = rn;
        best_u.copy_from_slice(&u);
        history.push(best_r);
        stage_hist.push(best_r);
    }

    'outer: while iterations < opts.max_outer && best_r > target {
        let status = {
            let mut ctx = SolveCtx {
                sys,
                hier,
                surrogate,
                rhs: &rhs,
                u: &mut u,
                block: opts.block,
            };
            stage.step(&mut ctx)
        };
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
        let stalled = !stages.is_empty()
            && stage_hist.len() > opts.stall.window
            && stage_hist[stage_hist.len() - 1]
                > opts.stall.rho * stage_hist[stage_hist.len() - 1 - opts.stall.window];
        let demote = !finite || status != StageStatus::Ok || stalled;
        if demote {
            // Restart from the best certified iterate; walk the chain
            // until a stage initializes (the last stage always does).
            loop {
                match stages.pop() {
                    Some(next) => {
                        fell_back = true;
                        stage = next;
                    }
                    None => break 'outer, // nothing left below Jacobi-CG
                }
                u.copy_from_slice(&best_u);
                stage_hist = vec![best_r];
                let mut ctx = SolveCtx {
                    sys,
                    hier,
                    surrogate,
                    rhs: &rhs,
                    u: &mut u,
                    block: opts.block,
                };
                if stage.init(&mut ctx) == StageStatus::Ok {
                    break;
                }
            }
        }
    }

    let residual_norm = sys.residual_norm(&best_u, &rhs);
    CertifiedSolution {
        rel_residual: residual_norm / r_ref,
        converged: residual_norm <= target,
        u: best_u,
        residual_norm,
        reference_residual: r_ref,
        iterations,
        strategy_used: stage.name().to_string(),
        fell_back,
        residual_history: history,
    }
}
