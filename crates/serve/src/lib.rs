//! `mgd_serve` — the concurrent serving front end for MGDiffNet.
//!
//! The engine crate publishes an immutable, `Sync` [`EngineSnapshot`]
//! through a [`SnapshotCell`]; this crate adds the machinery that turns
//! that snapshot into a service:
//!
//! [`queue::ServeQueue`], an admission-controlled request queue whose
//! worker threads answer each request through a [`Ticket`]: `Ticket` for a
//! prediction, `Ticket<CertifiedSolution>` for a certified solve. A free
//! worker dispatches at once whatever is waiting, up to `max_batch`, as one
//! micro-batch: requests that arrive while the workers are busy share the
//! next forward, and a request reaching an idle queue never waits for
//! company. Its latency and goodput under open-loop load are measured by
//! the `serve_queue_2d` workload of `benchmark/`.
//!
//! # Snapshot lifecycle and hot swap
//!
//! ```no_run
//! use mgdiffnet::prelude::*;
//! use mgd_serve::ServeQueue;
//!
//! let mut engine = SolverEngine::builder()
//!     .resolution([32, 32])
//!     .problem(Problem::poisson_2d(DiffusivityModel::paper()))
//!     .build()?;
//! engine.train()?;
//!
//! // The queue holds the engine's SnapshotCell, not the engine itself:
//! // the engine can keep training while the queue serves.
//! let queue = ServeQueue::for_engine(&engine, /*workers=*/ 2);
//!
//! // Submit from any number of threads; results arrive via tickets.
//! let nu = engine.dataset().nu_field(0, engine.resolution());
//! let ticket = queue.submit(InferenceRequest::coeff(nu))?;
//!
//! // Retraining republishes the cell atomically — the next micro-batch
//! // picks up the new weights, in-flight batches finish on the old ones.
//! engine.train()?;
//!
//! let solution = ticket.wait()?;
//! # let _ = solution;
//! # Ok::<(), MgdError>(())
//! ```
//!
//! # Backpressure
//!
//! `queue_depth` bounds the number of waiting requests. When the bound is
//! hit, [`ServeQueue::submit`] returns [`MgdError::QueueFull`]
//! *immediately* — the caller sheds load or backs off instead of growing an
//! unbounded latency tail. After shutdown begins, submissions get
//! [`MgdError::ServeShutdown`]; requests accepted before shutdown are
//! drained and answered.
//!
//! [`MgdError::QueueFull`]: mgdiffnet::MgdError::QueueFull
//! [`MgdError::ServeShutdown`]: mgdiffnet::MgdError::ServeShutdown

pub mod queue;

pub use queue::{ServeQueue, ServeQueueStats, Ticket};

// The snapshot types live in the engine crate (the builder constructs
// them); re-export the serving surface so `mgd_serve` is self-sufficient.
pub use mgdiffnet::{
    CacheShardStats, CertifiedSolution, EngineSnapshot, InferenceRequest, ServeOptions, ServeStats,
    SnapshotCell, StrategyKind,
};
