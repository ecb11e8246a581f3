//! Where the learned surrogate enters the certified solve.
//!
//! The surrogate's one role is the paper's warm start: its prediction is
//! the iterate multigrid-preconditioned CG starts from. The certified
//! driver ([`crate::solve_certified`]) recomputes the true residual from
//! scratch after every outer step, so a bad guess only costs time before
//! the driver demotes it.

/// A solution-estimate oracle (in practice: snapshot inference).
///
/// `guess` returns `None` when the surrogate cannot serve the requested
/// dims; the driver then starts from the zero (BC-imposed) iterate and
/// reports `fell_back`. The driver also checks the length and finiteness
/// of a returned guess.
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

/// Which strategy the certified solve starts with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StrategyKind {
    /// No learned component: multigrid-preconditioned CG from the zero
    /// (BC-imposed) iterate. The certified baseline.
    PureMultigrid,
    /// Learned initial guess: snapshot inference seeds MG-PCG.
    InitialGuess,
}

impl StrategyKind {
    /// Stable human-readable name (also used in reports and benchmarks).
    pub fn name(&self) -> &'static str {
        match self {
            StrategyKind::PureMultigrid => "pure-multigrid",
            StrategyKind::InitialGuess => "initial-guess",
        }
    }
}
