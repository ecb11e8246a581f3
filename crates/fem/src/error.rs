//! Typed errors for fallible FEM construction paths.

use std::fmt;

/// Errors raised by FEM solvers and hierarchy builders.
///
/// Kept dependency-free so higher layers (`mgdiffnet`) can map them onto
/// their own error taxonomy (`MgdError::InvalidConfig`).
#[derive(Clone, Debug, PartialEq)]
pub enum FemError {
    /// The grid cannot be coarsened into a multigrid hierarchy.
    NotCoarsenable {
        /// Nodes per axis of the offending grid.
        n: Vec<usize>,
        /// What the builder required (human-readable).
        requirement: &'static str,
    },
    /// An input slice length does not match the grid's node count.
    SizeMismatch {
        /// Which input was mis-sized.
        what: &'static str,
        /// Expected length (grid node count).
        expected: usize,
        /// Actual length supplied.
        got: usize,
    },
    /// A coefficient failed the positive-definiteness check at one node: a
    /// scalar ν ≤ 0, a tensor that is not symmetric positive definite, or
    /// a non-finite entry.
    NotSpd {
        /// Index of the first offending node.
        node: usize,
    },
    /// A boundary specification carried non-finite prescribed values.
    BadBoundary {
        /// What was wrong (human-readable).
        reason: &'static str,
    },
}

impl fmt::Display for FemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FemError::NotCoarsenable { n, requirement } => write!(
                f,
                "grid {n:?} does not admit multigrid coarsening ({requirement})"
            ),
            FemError::SizeMismatch {
                what,
                expected,
                got,
            } => write!(f, "{what} has length {got}, expected {expected}"),
            FemError::NotSpd { node } => write!(
                f,
                "coefficient at node {node} is not positive definite (scalar ν ≤ 0, \
                 tensor not SPD) or not finite"
            ),
            FemError::BadBoundary { reason } => {
                write!(f, "invalid boundary specification: {reason}")
            }
        }
    }
}

impl std::error::Error for FemError {}

/// [`FemError::SizeMismatch`] unless `got == expected`.
pub(crate) fn check_len(what: &'static str, expected: usize, got: usize) -> Result<(), FemError> {
    if got == expected {
        Ok(())
    } else {
        Err(FemError::SizeMismatch {
            what,
            expected,
            got,
        })
    }
}
