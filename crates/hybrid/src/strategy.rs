//! Hybrid solve strategies: where the learned surrogate enters the
//! iteration.
//!
//! Every strategy advances the iterate in *outer steps*; after each step
//! the certified driver ([`crate::certify`]) recomputes the true residual
//! from scratch, so nothing a strategy does can corrupt the certificate —
//! a bad learned component only costs time before the driver demotes it.

use crate::system::{ErasedHierarchy, ErasedSystem};
use mgd_fem::pcg::{JacobiPrecond, PcgStep, PcgWorkspace};

/// A solution-estimate oracle (in practice: snapshot inference).
///
/// `guess` returns `None` when the surrogate cannot serve the requested
/// dims (e.g. a network whose pooling depth does not divide a coarse
/// level's shape); the driver treats that as "strategy unavailable" and
/// demotes. Finiteness of the returned values is checked by the caller.
pub trait Surrogate {
    /// Solution estimate for diffusivity `nu` on a grid of `dims` nodes
    /// per axis (same layout as the system field vectors).
    fn guess(&self, dims: &[usize], nu: &[f64]) -> Option<Vec<f64>>;
}

impl<F> Surrogate for F
where
    F: Fn(&[usize], &[f64]) -> Option<Vec<f64>>,
{
    fn guess(&self, dims: &[usize], nu: &[f64]) -> Option<Vec<f64>> {
        self(dims, nu)
    }
}

/// A surrogate that never answers — for running pure-FEM baselines
/// through the same certified driver.
pub struct NoSurrogate;

impl Surrogate for NoSurrogate {
    fn guess(&self, _dims: &[usize], _nu: &[f64]) -> Option<Vec<f64>> {
        None
    }
}

/// Which hybrid strategy drives the certified solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StrategyKind {
    /// No learned component: multigrid-preconditioned CG from the zero
    /// (BC-imposed) iterate. The certified baseline.
    PureMultigrid,
    /// Learned initial guess: snapshot inference seeds MG-PCG.
    InitialGuess,
    /// Learned coarse corrector: each outer step line-searches along the
    /// network's prediction at hierarchy level `level` (0 = finest),
    /// then polishes with a restarted MG-PCG block. The true fine-grid
    /// residual is recomputed after every application.
    CoarseCorrector {
        /// Hierarchy level the correction is predicted at.
        level: usize,
    },
}

impl StrategyKind {
    /// Stable human-readable name (also used in reports and benchmarks).
    pub fn name(&self) -> &'static str {
        match self {
            StrategyKind::PureMultigrid => "pure-multigrid",
            StrategyKind::InitialGuess => "initial-guess",
            StrategyKind::CoarseCorrector { .. } => "coarse-corrector",
        }
    }
}

/// Everything a strategy may touch during one solve.
pub struct SolveCtx<'a> {
    /// The fine-grid system.
    pub sys: &'a ErasedSystem,
    /// The multigrid hierarchy (also the V-cycle preconditioner).
    pub hier: &'a ErasedHierarchy,
    /// The learned solution oracle.
    pub surrogate: &'a dyn Surrogate,
    /// Assembled right-hand side.
    pub rhs: &'a [f64],
    /// Current iterate (Dirichlet values imposed).
    pub u: &'a mut Vec<f64>,
    /// Inner iterations per outer step.
    pub block: usize,
}

/// Result of a strategy init or step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageStatus {
    /// Keep iterating.
    Ok,
    /// The strategy cannot run here (no surrogate answer, bad shape,
    /// non-finite prediction) — demote without consuming an iteration.
    Unavailable,
    /// Krylov breakdown — demote.
    Breakdown,
}

/// One stage of the certified solve.
pub trait HybridStrategy {
    /// Stable name, reported as `strategy_used`.
    fn name(&self) -> &'static str;
    /// Called once when the stage becomes active (may seed the iterate).
    fn init(&mut self, ctx: &mut SolveCtx<'_>) -> StageStatus;
    /// One outer step: a block of inner iterations updating `ctx.u`.
    fn step(&mut self, ctx: &mut SolveCtx<'_>) -> StageStatus;
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn all_finite(v: &[f64]) -> bool {
    v.iter().all(|x| x.is_finite())
}

/// Fetches a finite, correctly sized surrogate guess or reports why not.
fn finite_guess(
    surrogate: &dyn Surrogate,
    dims: &[usize],
    nu: &[f64],
    expect_len: usize,
) -> Option<Vec<f64>> {
    let g = surrogate.guess(dims, nu)?;
    if g.len() != expect_len || !all_finite(&g) {
        return None;
    }
    Some(g)
}

/// MG-PCG (optionally seeded by the surrogate): strategies (baseline) and
/// (a) of the hybrid design.
pub struct MgPcgStage {
    seed: bool,
    ws: Option<PcgWorkspace>,
}

impl MgPcgStage {
    /// `seed = true` requests a learned initial guess.
    pub fn new(seed: bool) -> Self {
        MgPcgStage { seed, ws: None }
    }
}

impl HybridStrategy for MgPcgStage {
    fn name(&self) -> &'static str {
        if self.seed {
            "initial-guess"
        } else {
            "pure-multigrid"
        }
    }

    fn init(&mut self, ctx: &mut SolveCtx<'_>) -> StageStatus {
        if self.seed {
            let dims = ctx.sys.dims();
            match finite_guess(ctx.surrogate, &dims, ctx.sys.nu(), ctx.u.len()) {
                Some(g) => {
                    *ctx.u = g;
                    ctx.sys.impose_bc(ctx.u);
                }
                None => return StageStatus::Unavailable,
            }
        }
        self.ws = Some(PcgWorkspace::start(ctx.sys, ctx.hier, ctx.u, ctx.rhs));
        StageStatus::Ok
    }

    fn step(&mut self, ctx: &mut SolveCtx<'_>) -> StageStatus {
        let ws = self.ws.as_mut().expect("init before step");
        for _ in 0..ctx.block.max(1) {
            if let PcgStep::Breakdown = ws.step(ctx.sys, ctx.hier, ctx.u) {
                return StageStatus::Breakdown;
            }
        }
        StageStatus::Ok
    }
}

/// Jacobi-preconditioned CG from the best certified iterate: the
/// unconditional last-resort stage of every demotion chain.
#[derive(Default)]
pub struct JacobiCgStage {
    pre: Option<JacobiPrecond>,
    ws: Option<PcgWorkspace>,
}

impl HybridStrategy for JacobiCgStage {
    fn name(&self) -> &'static str {
        "jacobi-cg"
    }

    fn init(&mut self, ctx: &mut SolveCtx<'_>) -> StageStatus {
        let pre = ctx.sys.jacobi();
        self.ws = Some(PcgWorkspace::start(ctx.sys, &pre, ctx.u, ctx.rhs));
        self.pre = Some(pre);
        StageStatus::Ok
    }

    fn step(&mut self, ctx: &mut SolveCtx<'_>) -> StageStatus {
        let ws = self.ws.as_mut().expect("init before step");
        let pre = self.pre.as_ref().expect("init before step");
        for _ in 0..ctx.block.max(1) {
            if let PcgStep::Breakdown = ws.step(ctx.sys, pre, ctx.u) {
                return StageStatus::Breakdown;
            }
        }
        StageStatus::Ok
    }
}

/// Learned coarse corrector — strategy (b).
///
/// Each outer step forms the correction direction
/// `d = P(N(ν_ℓ) − u|_ℓ)` from the network's prediction at hierarchy
/// level `ℓ`, applies it with an exact energy line search
/// `α = ⟨r, d⟩ / ⟨K d, d⟩` (which can never increase the energy error),
/// then polishes with a *restarted* block of MG-PCG iterations. The
/// prediction is made once at init; the direction still changes every
/// step because the iterate moves.
pub struct CoarseCorrectorStage {
    level: usize,
    unet_c: Option<Vec<f64>>,
}

impl CoarseCorrectorStage {
    /// Corrector predicting at hierarchy level `level` (0 = finest).
    pub fn new(level: usize) -> Self {
        CoarseCorrectorStage {
            level,
            unet_c: None,
        }
    }
}

impl HybridStrategy for CoarseCorrectorStage {
    fn name(&self) -> &'static str {
        "coarse-corrector"
    }

    fn init(&mut self, ctx: &mut SolveCtx<'_>) -> StageStatus {
        if self.level >= ctx.hier.num_levels() {
            return StageStatus::Unavailable;
        }
        let dims = ctx.hier.dims_at(self.level);
        let nu_l = ctx.hier.nu_at(self.level);
        let expect: usize = dims.iter().product();
        match finite_guess(ctx.surrogate, &dims, nu_l, expect) {
            Some(g) => self.unet_c = Some(g),
            None => return StageStatus::Unavailable,
        }
        StageStatus::Ok
    }

    fn step(&mut self, ctx: &mut SolveCtx<'_>) -> StageStatus {
        use mgd_fem::pcg::LinearOp;
        let unet_c = self.unet_c.as_ref().expect("init before step");
        let nn = ctx.u.len();
        // Correction direction from the (fixed) coarse prediction and the
        // (moving) iterate, prolonged to the fine grid and masked.
        let u_c = ctx.hier.sample_to_level(self.level, ctx.u);
        let d_c: Vec<f64> = unet_c.iter().zip(&u_c).map(|(a, b)| a - b).collect();
        let mut d = ctx.hier.prolong_to_finest(self.level, &d_c);
        ctx.sys.mask(&mut d);
        let mut kd = vec![0.0; nn];
        ctx.sys.apply(&d, &mut kd);
        ctx.sys.mask(&mut kd);
        let dkd = dot(&d, &kd);
        if dkd > mgd_tensor::F64_DIV_GUARD && dkd.is_finite() {
            let mut r = vec![0.0; nn];
            ctx.sys.residual_into(ctx.u, ctx.rhs, &mut r);
            let alpha = dot(&r, &d) / dkd;
            if alpha.is_finite() {
                for i in 0..nn {
                    ctx.u[i] += alpha * d[i];
                }
            }
        }
        // Restarted MG-PCG polish (the out-of-band update above
        // invalidates any previous Krylov recurrence).
        let mut ws = PcgWorkspace::start(ctx.sys, ctx.hier, ctx.u, ctx.rhs);
        for _ in 0..ctx.block.max(1) {
            if let PcgStep::Breakdown = ws.step(ctx.sys, ctx.hier, ctx.u) {
                return StageStatus::Breakdown;
            }
        }
        StageStatus::Ok
    }
}

/// The demotion chain for a requested strategy: the strategy itself,
/// then pure MG-PCG, then unconditional Jacobi-CG.
pub fn stage_chain(kind: StrategyKind) -> Vec<Box<dyn HybridStrategy>> {
    let mut chain: Vec<Box<dyn HybridStrategy>> = Vec::new();
    match kind {
        StrategyKind::PureMultigrid => chain.push(Box::new(MgPcgStage::new(false))),
        StrategyKind::InitialGuess => {
            chain.push(Box::new(MgPcgStage::new(true)));
            chain.push(Box::new(MgPcgStage::new(false)));
        }
        StrategyKind::CoarseCorrector { level } => {
            chain.push(Box::new(CoarseCorrectorStage::new(level)));
            chain.push(Box::new(MgPcgStage::new(false)));
        }
    }
    chain.push(Box::<JacobiCgStage>::default());
    chain
}
