//! Typed errors for the MGDiffNet public API.
//!
//! Every fallible path of the redesigned API — builder validation, trainer
//! construction, training itself, serving — returns [`MgdError`] instead of
//! panicking, so embedding applications (servers, schedulers, parameter
//! sweeps) can react to bad configurations and numerical blow-ups without
//! unwinding.

use mgd_field::FieldError;

/// The error type of the `mgdiffnet` public API.
#[derive(Debug)]
pub enum MgdError {
    /// A configuration value (builder field, trainer hyper-parameter) is
    /// invalid; the message names the field and the constraint it violated.
    InvalidConfig(String),
    /// A tensor/grid shape disagreed with what the engine was built for.
    ShapeMismatch {
        /// Shape the engine expected.
        expected: Vec<usize>,
        /// Shape it received.
        got: Vec<usize>,
    },
    /// Training produced a non-finite loss or gradient (learning rate too
    /// high, degenerate coefficient field).
    NonFinite {
        /// Global epoch at which the blow-up occurred.
        epoch: u64,
        /// The offending loss value.
        loss: f64,
    },
    /// A serving request contained NaN/±∞ coefficients. Distinct from
    /// [`MgdError::NonFinite`] (a *training* blow-up): input validation
    /// reports which request of the batch is poisoned, not a bogus
    /// "epoch 0".
    NonFiniteInput {
        /// Index of the offending field within the submitted batch.
        index: usize,
        /// The first non-finite value found in that field.
        value: f64,
    },
    /// The serving queue is at its admission-control depth
    /// (`SolverEngineBuilder::queue_depth`); the request was rejected
    /// *before* queuing rather than growing latency without bound. Retry
    /// with backoff, or raise the depth / add serving capacity.
    QueueFull {
        /// The configured queue depth the request bounced off.
        depth: usize,
    },
    /// The serving queue was shut down before (or while) this request was
    /// waiting; the request was not (fully) processed.
    ServeShutdown,
    /// The forward (or certified solve) serving this request panicked; the
    /// message is the panic's. The serving worker survives it.
    ForwardPanicked(String),
    /// A data-layer failure (rasterization, batching, sampling).
    Field(FieldError),
    /// Checkpoint or report I/O failed.
    Io(std::io::Error),
    /// A model checkpoint did not match the model it was loaded into.
    Checkpoint(String),
}

impl std::fmt::Display for MgdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MgdError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            MgdError::ShapeMismatch { expected, got } => {
                write!(f, "shape mismatch: expected {expected:?}, got {got:?}")
            }
            MgdError::NonFinite { epoch, loss } => write!(
                f,
                "non-finite loss/gradient at epoch {epoch} (loss {loss}); \
                 lower the learning rate or check the input fields"
            ),
            MgdError::NonFiniteInput { index, value } => write!(
                f,
                "non-finite input: request {index} of the batch contains \
                 {value}; coefficient fields must be finite"
            ),
            MgdError::QueueFull { depth } => write!(
                f,
                "serving queue full: {depth} requests already waiting \
                 (admission control); retry with backoff or raise queue_depth"
            ),
            MgdError::ServeShutdown => {
                write!(f, "serving queue shut down before the request completed")
            }
            MgdError::ForwardPanicked(msg) => write!(f, "forward panicked: {msg}"),
            MgdError::Field(e) => write!(f, "data layer: {e}"),
            MgdError::Io(e) => write!(f, "i/o: {e}"),
            MgdError::Checkpoint(msg) => write!(f, "checkpoint: {msg}"),
        }
    }
}

impl std::error::Error for MgdError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MgdError::Field(e) => Some(e),
            MgdError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FieldError> for MgdError {
    fn from(e: FieldError) -> Self {
        MgdError::Field(e)
    }
}

impl From<mgd_fem::FemError> for MgdError {
    fn from(e: mgd_fem::FemError) -> Self {
        MgdError::InvalidConfig(e.to_string())
    }
}

impl From<mgd_hybrid::HybridError> for MgdError {
    fn from(e: mgd_hybrid::HybridError) -> Self {
        MgdError::InvalidConfig(e.to_string())
    }
}

impl From<std::io::Error> for MgdError {
    fn from(e: std::io::Error) -> Self {
        MgdError::Io(e)
    }
}

/// Convenience alias used throughout the crate.
pub type MgdResult<T> = Result<T, MgdError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_problem() {
        let e = MgdError::InvalidConfig("levels must be >= 1 (got 0)".into());
        assert!(e.to_string().contains("levels"));
        let e = MgdError::NonFinite {
            epoch: 3,
            loss: f64::NAN,
        };
        assert!(e.to_string().contains("epoch 3"));
        let e = MgdError::NonFiniteInput {
            index: 5,
            value: f64::INFINITY,
        };
        assert!(e.to_string().contains("request 5"));
        assert!(!e.to_string().contains("epoch"));
        let e: MgdError = FieldError::Empty.into();
        assert!(matches!(e, MgdError::Field(FieldError::Empty)));
        let e = MgdError::QueueFull { depth: 256 };
        assert!(e.to_string().contains("256"));
        assert!(e.to_string().contains("queue"));
        let e = MgdError::ServeShutdown;
        assert!(e.to_string().contains("shut down"));
        let e = MgdError::ForwardPanicked("index out of bounds".into());
        assert!(e.to_string().contains("panicked: index out of bounds"));
    }

    #[test]
    fn error_trait_chains_sources() {
        use std::error::Error;
        let e: MgdError = FieldError::Empty.into();
        assert!(e.source().is_some());
        let e = MgdError::InvalidConfig("x".into());
        assert!(e.source().is_none());
    }
}
