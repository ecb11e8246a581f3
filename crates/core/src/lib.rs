//! MGDiffNet — distributed multigrid neural PDE solver.
//!
//! This crate assembles the paper's contribution from the substrate crates:
//!
//! - [`engine::SolverEngine`] — **the front door**: a validated builder
//!   over problem/resolution/schedule, typed [`error::MgdError`] failures,
//!   and a serving surface (`predict`, cached single-pass `predict_batch`);
//! - [`loss::FemLoss`] — the variational (Ritz energy) training loss of
//!   §3.1.1 with *exact* Dirichlet imposition (Algorithm 1, line 8:
//!   `U = U_int·χ_int + U_bc·χ_b`), evaluated with the finite elements of
//!   `mgd-fem` on the same grid the network predicts;
//! - [`trainer::Trainer`] — Algorithm 1: sample mini-batch → forward →
//!   impose BC → energy loss → backprop → (all-reduce) → optimizer step,
//!   generic over the `mgd_nn::Model` / `mgd_nn::Optimizer` traits and the
//!   `mgd_dist::Comm` communicator so serial and data-parallel training of
//!   any architecture share one code path;
//! - [`cycle`] — the V / W / F / Half-V multigrid *training* schedules of
//!   §3.1.2 (restriction visits train a fixed number of epochs;
//!   prolongation visits and the coarsest level train to convergence);
//! - [`mg_trainer::MultigridTrainer`] — executes a schedule over a
//!   resolution hierarchy with one resolution-agnostic network, optionally
//!   deepening it on each prolongation (§4.1.2 architectural adaptation);
//! - [`compare`] — network-vs-FEM field comparisons and the §4.3
//!   inference-vs-solve timing.
//!
//! ## Quickstart
//!
//! Configure everything through the builder; every constraint violation is
//! a typed error, not a panic:
//!
//! ```no_run
//! use mgdiffnet::prelude::*;
//!
//! // 64x64 2D Poisson surrogate over the paper's diffusivity family,
//! // trained with the Half-V cycle over a 3-level hierarchy.
//! let mut engine = SolverEngine::builder()
//!     .resolution([64, 64])
//!     .problem(Problem::poisson_2d(DiffusivityModel::paper()))
//!     .cycle(CycleKind::HalfV)
//!     .levels(3)
//!     .samples(64)
//!     .batch_size(8)
//!     .build()?;
//! let log = engine.train()?;
//! println!("final loss {:.4} in {:.1}s", log.final_loss, log.total_seconds);
//!
//! // Serve: N coefficient fields -> N solution fields in ONE forward pass,
//! // with an LRU cache absorbing repeated queries.
//! let requests: Vec<_> =
//!     (0..8).map(|s| engine.dataset().nu_field(s, engine.resolution())).collect();
//! let solutions = engine.predict_batch(&requests)?;
//! assert_eq!(solutions.len(), 8);
//! # Ok::<(), MgdError>(())
//! ```
//!
//! ## Distributed training
//!
//! The paper's central mechanism — data-parallel workers with gradient
//! all-reduce (§3.2, Eq. 15) — is one builder knob away. `Threads(p)`
//! replicates the model onto `p` in-process ranks, shards every global
//! mini-batch, and averages gradients through the deterministic ring
//! all-reduce after each backward pass:
//!
//! ```no_run
//! use mgdiffnet::prelude::*;
//!
//! let mut engine = SolverEngine::builder()
//!     .resolution([64, 64])
//!     .problem(Problem::poisson_2d(DiffusivityModel::paper()))
//!     .samples(64)
//!     .batch_size(8) // global batch; must divide by the worker count
//!     .parallelism(Parallelism::Threads(4))
//!     .build()?;
//! let log = engine.train()?; // rank 0's model and log come back
//! # let _ = log;
//! # Ok::<(), MgdError>(())
//! ```
//!
//! Two guarantees hold (and are enforced by the test suite):
//!
//! - **worker-count independence**: at the same global batch size the
//!   epoch-loss trajectory of `Threads(p)` matches `Serial` up to
//!   floating-point reduction order (every rank shuffles with the shared
//!   seed, shard unions equal the global batch, gradients are exactly
//!   averaged). Batch normalization computes statistics over each worker's
//!   *local* batch, so configure `.batch_norm(false)` when you need this
//!   equivalence;
//! - **run-to-run determinism**: at a fixed `p`, repeated runs are bitwise
//!   identical — the ring all-reduce folds in rank order, so there is no
//!   scheduling-dependent reduction noise.
//!
//! ## Spatial parallelism (megavoxel serving)
//!
//! The second `Parallelism` mode decomposes the *domain* instead of the
//! data: [`Parallelism::SpatialThreads(p)`](engine::Parallelism) serves
//! every `predict`/`predict_batch` request by carving it into `p` z-slabs
//! (y-slabs for 2D), running the U-Net forward on `p` in-process ranks
//! with one halo plane exchanged before each stencil convolution
//! ([`mgd_nn::spatial`]), and stitching the owned output slabs. Per-rank
//! activation memory is ≈ `1/p` of the serial forward's and the result is
//! bitwise identical to `Serial` at any `p`. Slab sizes must be positive
//! multiples of `2^net_depth` along the split axis; violations are typed
//! [`MgdError::InvalidConfig`] errors at `build()`.
//!
//! ## Migrating from the pre-engine API
//!
//! The concrete-type entry points of the seed release map onto the engine
//! as follows (the old types remain available for research code that needs
//! distributed communicators or custom loops, but are now generic over
//! `Model`/`Optimizer`/`Comm` and return `Result`; a serial run passes the
//! size-1 communicator `ThreadComm::solo()`):
//!
//! | old (seed) | new |
//! |---|---|
//! | `Dataset::sobol(n, model, enc)` + hand-wiring | `SolverEngine::builder().samples(n).problem(...)` |
//! | `UNet::new(UNetConfig { .. })` | `.net_depth(d).base_filters(f)` (or `.model(Box::new(custom))`) |
//! | `Adam::new(lr)` | `.learning_rate(lr)` (or `.optimizer(Box::new(custom))`) |
//! | `MgConfig { cycle, levels, .. }` | `.cycle(..).levels(..).fixed_epochs(..)` (architectural adaptation stays on `MgConfig::adapt`) |
//! | `TrainConfig { batch_size, .. }` | `.batch_size(..).max_epochs(..).patience(..)` |
//! | `MultigridTrainer::new(mg, cfg, dims).run(&mut net, &mut opt, &data, &comm)` | `engine.train()?` |
//! | `predict_field(&mut net, &data, s, &dims)` | `engine.predict(&nu)?` / `engine.predict_omega(&omega)?` |
//! | N × `predict_field` | `engine.predict_batch(&fields)?` (one forward pass + cache) |

pub mod compare;
pub mod cycle;
pub mod engine;
pub mod error;
pub mod loss;
pub mod mg_trainer;
pub mod serve;
pub mod stopper;
pub mod trainer;

pub use compare::{compare_with_fem, compare_with_fem_loss, predict_field, FieldComparison};
pub use cycle::{level_sequence, schedule, Budget, CycleKind, Phase};
pub use engine::{Parallelism, Problem, ServeStats, SolverEngine, SolverEngineBuilder};
pub use error::{MgdError, MgdResult};
pub use loss::{FemLoss, LossSpec};
pub use mg_trainer::{MgConfig, MgRunLog, MultigridTrainer, PhaseLog};
pub use mgd_dist::SlabPartition;
pub use mgd_fem::{BoundarySpec, PdeOperator};
pub use mgd_field::Anisotropy;
pub use mgd_tensor::Precision;
pub use serve::{
    CacheKey, CacheShardStats, EngineSnapshot, InferenceRequest, PredictionCache, ServeOptions,
    SharedServeStats, SnapshotCell,
};
pub use stopper::EarlyStopping;
pub use trainer::{EpochStats, TrainConfig, TrainLog, Trainer};

// Certified solving: the learned surrogate inside a residual-certified
// iteration (`SolverEngine::solve_certified`). Re-exported so engine users
// configure strategies and read certificates without naming `mgd_hybrid`.
pub use mgd_hybrid::{CertifiedSolution, CertifyOptions, HybridError, StallPolicy, StrategyKind};

/// One-stop imports for examples and harnesses.
///
/// The engine facade ([`SolverEngine`], [`Problem`], [`MgdError`]) is the
/// supported entry point; the generic building blocks ([`Trainer`],
/// [`MultigridTrainer`], [`FemLoss`], the `Model`/`Optimizer` traits) stay
/// exported for distributed runs and research loops.
pub mod prelude {
    pub use crate::{
        compare_with_fem, predict_field, schedule, Anisotropy, BoundarySpec, Budget,
        CertifiedSolution, CycleKind, EarlyStopping, EngineSnapshot, EpochStats, FemLoss,
        FieldComparison, InferenceRequest, LossSpec, MgConfig, MgRunLog, MgdError, MgdResult,
        MultigridTrainer, Parallelism, PdeOperator, Phase, PhaseLog, Problem, ServeOptions,
        ServeStats, SnapshotCell, SolverEngine, SolverEngineBuilder, StallPolicy, StrategyKind,
        TrainConfig, TrainLog, Trainer,
    };
    pub use mgd_dist::{launch, Comm, ThreadComm};
    pub use mgd_field::{
        stack_fields, Dataset, DiffusivityModel, FieldError, InputEncoding, Sobol,
    };
    pub use mgd_nn::{Adam, Layer, Model, Optimizer, Sgd, UNet, UNetConfig, WeightSnapshot};
    pub use mgd_tensor::Tensor;
}
