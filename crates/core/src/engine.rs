//! The [`SolverEngine`] facade: one validated front door for training and
//! serving neural PDE surrogates.
//!
//! The engine bundles everything the scattered seed API made callers wire
//! by hand — dataset, network, optimizer, multigrid schedule, energy loss —
//! behind a builder with typed validation, and adds the serving surface the
//! ROADMAP's traffic goals need:
//!
//! - [`SolverEngine::train`] — runs the configured multigrid schedule;
//! - [`SolverEngine::predict`] — one coefficient field in, one solution
//!   field (with exact Dirichlet values) out, **`&self`**: the whole
//!   read path is shared-reference, so serving never needs exclusive
//!   access to the engine;
//! - [`SolverEngine::predict_batch`] — N requests rasterized into a single
//!   NCDHW tensor and answered in **one** forward pass, fronted by the
//!   sharded LRU [`PredictionCache`](crate::serve::PredictionCache) keyed
//!   by quantized coefficient fields so repeated queries never touch the
//!   network (hits return the stored `Arc<Tensor>` without copying); under
//!   [`Parallelism::SpatialThreads`] the forward runs slab-decomposed
//!   across in-process ranks with halo exchange ([`mgd_nn::spatial`]),
//!   bounding per-rank activation memory at megavoxel resolutions while
//!   staying bitwise identical to the serial pass;
//! - [`SolverEngine::predict_request`] / [`SolverEngine::predict_requests`]
//!   — the typed request surface ([`InferenceRequest`]): raw coefficient
//!   fields and ω parameter vectors flow through one front door;
//! - [`SolverEngine::snapshot`] / [`SolverEngine::serve_cell`] — the
//!   concurrent serving surface: an immutable [`EngineSnapshot`] any number
//!   of threads predict on simultaneously, hot-swapped atomically whenever
//!   the weights change (see [`crate::serve`] for the lifecycle);
//! - [`SolverEngine::save_weights`] / [`SolverEngine::load_weights`] —
//!   checkpointing through the [`Model`] trait.
//!
//! ```no_run
//! use mgdiffnet::prelude::*;
//!
//! let mut engine = SolverEngine::builder()
//!     .resolution([64, 64])
//!     .problem(Problem::poisson_2d(DiffusivityModel::paper()))
//!     .cycle(CycleKind::HalfV)
//!     .levels(3)
//!     .samples(64)
//!     .batch_size(8)
//!     .build()?;
//! engine.train()?;
//! let nu = engine.dataset().nu_field(0, engine.resolution());
//! let u = engine.predict(&nu)?;
//! # Ok::<(), MgdError>(())
//! ```

use crate::compare::{compare_with_fem_loss, FieldComparison};
use crate::cycle::CycleKind;
use crate::error::{MgdError, MgdResult};
use crate::loss::{FemLoss, LossSpec};
use crate::mg_trainer::{MgConfig, MgRunLog, MultigridTrainer};
use crate::serve::{
    EngineSnapshot, InferenceRequest, ServeOptions, SharedServeStats, SnapshotCell,
    SnapshotTemplate,
};
use crate::trainer::TrainConfig;
use mgd_dist::{launch_with, SlabPartition, ThreadComm};
use mgd_fem::{BoundarySpec, PdeOperator};
use mgd_field::{Anisotropy, Dataset, DiffusivityModel, InputEncoding};
use mgd_hybrid::{CertifiedSolution, StrategyKind};
use mgd_nn::{Adam, Model, Optimizer, SlabOpts, UNet, UNetConfig, WeightSnapshot};
use mgd_tensor::{Precision, Tensor};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

pub use crate::serve::{CacheShardStats, ServeStats};

/// How a [`SolverEngine`] distributes work across in-process ranks.
///
/// Under `Threads(p)` — **data parallelism**, paper §3.2 — [`SolverEngine::train`]
/// replicates its model and optimizer onto `p` in-process ranks
/// ([`mgd_dist::ThreadComm`]), shards every global mini-batch across them,
/// and averages gradients with the deterministic ring all-reduce after
/// each backward pass. Because every rank shuffles with the same seed and
/// the shard union equals the global batch (Eq. 15), the epoch-loss
/// trajectory matches [`Parallelism::Serial`] at the same global batch
/// size up to floating-point reduction order — for stat-free networks
/// (see [`SolverEngineBuilder::batch_norm`]) — and is bitwise reproducible
/// across runs at a fixed `p` either way.
///
/// Under `SpatialThreads(p)` — **spatial model parallelism**, the paper's
/// §5 "beyond megavoxels" outlook — the *serving* surface
/// ([`SolverEngine::predict`] / [`SolverEngine::predict_batch`]) carves
/// each request into `p` contiguous slabs along the slowest non-unit
/// spatial axis (z for 3D problems, y for 2D) and runs the U-Net forward
/// on `p` ranks with one halo plane exchanged before every stencil
/// convolution ([`mgd_nn::spatial`]). Per-rank activation memory is
/// ≈ `1/p` of the serial forward's (plus halos), and the assembled output
/// is **bitwise identical** to `Serial` at any `p`. The ranks live in a
/// persistent pool spawned when a snapshot is published; concurrent
/// predictions on one snapshot each take their own pool. Slab sizes must be
/// positive multiples of `2^net_depth` along the split axis — validated
/// as a typed error at [`SolverEngineBuilder::build`]. Training under
/// `SpatialThreads` runs serially (spatial decomposition is an inference
/// feature; combine with a `Threads` training run via weight checkpoints
/// if both are needed).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// Single-rank training and serving (default); training runs on the
    /// one rank of [`ThreadComm::solo`], the `p = 1` case of the
    /// distributed code path.
    #[default]
    Serial,
    /// Data-parallel training over `p` in-process worker threads.
    Threads(usize),
    /// Slab-decomposed (spatial model-parallel) serving over `p`
    /// in-process ranks with halo exchange; training stays serial.
    SpatialThreads(usize),
}

impl Parallelism {
    /// Number of data-parallel workers this mode trains with.
    pub fn workers(&self) -> usize {
        match *self {
            Parallelism::Threads(p) => p,
            _ => 1,
        }
    }

    /// Number of spatial (slab) ranks this mode serves with.
    pub fn spatial_ranks(&self) -> usize {
        match *self {
            Parallelism::SpatialThreads(p) => p,
            _ => 1,
        }
    }
}

/// The PDE family an engine solves — the "operator zoo" entry point.
///
/// `Poisson*` variants train a surrogate for the paper's isotropic
/// generalized Poisson operator `−∇·(ν∇u)`; `Anisotropic*` variants wrap
/// the same parametric scalar family in an SPD tensor field
/// `−∇·(T(x)∇u)` built from an [`Anisotropy`] (strong/weak ratio +
/// in-plane rotation), with coefficient blocks carried component-major
/// (`[ncomp, spatial...]`) through the dataset, the network input, and
/// the serving surface.
#[derive(Clone, Debug)]
pub enum Problem {
    /// 2D generalized Poisson with the paper's parametric diffusivity.
    Poisson2d(DiffusivityModel),
    /// 3D generalized Poisson.
    Poisson3d(DiffusivityModel),
    /// 2D anisotropic tensor-coefficient diffusion: the scalar family
    /// rotated into an SPD tensor field.
    Anisotropic2d(DiffusivityModel, Anisotropy),
    /// 3D anisotropic tensor diffusion (extruded in-plane rotation).
    Anisotropic3d(DiffusivityModel, Anisotropy),
}

impl Problem {
    /// 2D Poisson problem over the given diffusivity family.
    pub fn poisson_2d(model: DiffusivityModel) -> Self {
        Problem::Poisson2d(model)
    }

    /// 3D Poisson problem over the given diffusivity family.
    pub fn poisson_3d(model: DiffusivityModel) -> Self {
        Problem::Poisson3d(model)
    }

    /// 2D anisotropic diffusion over the given scalar family and
    /// anisotropy (ratio/rotation).
    pub fn anisotropic_2d(model: DiffusivityModel, aniso: Anisotropy) -> Self {
        Problem::Anisotropic2d(model, aniso)
    }

    /// 3D anisotropic diffusion (in-plane rotation, extruded z-axis).
    pub fn anisotropic_3d(model: DiffusivityModel, aniso: Anisotropy) -> Self {
        Problem::Anisotropic3d(model, aniso)
    }

    /// Spatial rank of the problem (2 or 3).
    pub fn rank(&self) -> usize {
        match self {
            Problem::Poisson2d(_) | Problem::Anisotropic2d(..) => 2,
            Problem::Poisson3d(_) | Problem::Anisotropic3d(..) => 3,
        }
    }

    /// The diffusivity family.
    pub fn diffusivity(&self) -> &DiffusivityModel {
        match self {
            Problem::Poisson2d(m)
            | Problem::Poisson3d(m)
            | Problem::Anisotropic2d(m, _)
            | Problem::Anisotropic3d(m, _) => m,
        }
    }

    /// The PDE operator this problem discretizes with.
    pub fn op(&self) -> PdeOperator {
        match self {
            Problem::Poisson2d(_) | Problem::Poisson3d(_) => PdeOperator::Poisson,
            Problem::Anisotropic2d(..) | Problem::Anisotropic3d(..) => PdeOperator::AnisoDiffusion,
        }
    }

    /// The anisotropy wrapped around the scalar family, if any.
    pub fn anisotropy(&self) -> Option<Anisotropy> {
        match self {
            Problem::Poisson2d(_) | Problem::Poisson3d(_) => None,
            Problem::Anisotropic2d(_, a) | Problem::Anisotropic3d(_, a) => Some(*a),
        }
    }

    /// Coefficient components per node (1 scalar, `d(d+1)/2` tensor).
    pub fn ncomp(&self) -> usize {
        self.op().ncomp(self.rank())
    }
}

/// Builder for [`SolverEngine`]; see the module docs for the shape of the
/// fluent API. Every setter is infallible — all validation happens in
/// [`SolverEngineBuilder::build`], which reports the *first* violated
/// constraint as a typed [`MgdError::InvalidConfig`].
pub struct SolverEngineBuilder {
    resolution: Option<Vec<usize>>,
    problem: Option<Problem>,
    boundary: BoundarySpec,
    forcing: Option<Tensor>,
    cycle: CycleKind,
    levels: usize,
    fixed_epochs: usize,
    train: TrainConfig,
    learning_rate: f64,
    samples: usize,
    net_depth: usize,
    base_filters: usize,
    batch_norm: bool,
    seed: u64,
    serve: ServeOptions,
    parallelism: Parallelism,
    spatial_spill_dir: Option<PathBuf>,
    hybrid_strategy: StrategyKind,
    certify_tol: f64,
    precision: Precision,
    model: Option<Box<dyn Model>>,
    optimizer: Option<Box<dyn Optimizer>>,
    dataset: Option<Dataset>,
}

impl Default for SolverEngineBuilder {
    fn default() -> Self {
        SolverEngineBuilder {
            resolution: None,
            problem: None,
            boundary: BoundarySpec::default(),
            forcing: None,
            cycle: CycleKind::HalfV,
            levels: 2,
            fixed_epochs: 3,
            train: TrainConfig::default(),
            learning_rate: 3e-3,
            samples: 16,
            net_depth: 2,
            base_filters: 8,
            batch_norm: true,
            seed: 0,
            serve: ServeOptions::default(),
            parallelism: Parallelism::Serial,
            spatial_spill_dir: None,
            hybrid_strategy: StrategyKind::InitialGuess,
            certify_tol: 1e-8,
            precision: Precision::F64,
            model: None,
            optimizer: None,
            dataset: None,
        }
    }
}

impl SolverEngineBuilder {
    /// Finest spatial resolution (`[ny, nx]` or `[nz, ny, nx]`).
    pub fn resolution(mut self, dims: impl Into<Vec<usize>>) -> Self {
        self.resolution = Some(dims.into());
        self
    }

    /// The PDE family to solve (required).
    pub fn problem(mut self, problem: Problem) -> Self {
        self.problem = Some(problem);
        self
    }

    /// Declarative Dirichlet boundary data (default: the paper's
    /// `u(x=0) = 1`, `u(x=1) = 0` with homogeneous Neumann elsewhere).
    /// Values must be finite — validated at [`Self::build`].
    pub fn boundary(mut self, boundary: BoundarySpec) -> Self {
        self.boundary = boundary;
        self
    }

    /// Optional nodal forcing `f` (the PDE's right-hand side). Its rank
    /// must match the resolution's and each axis needs at least 2 nodes;
    /// it is resampled multilinearly onto every hierarchy level
    /// ([`mgd_fem::resample`]). Validated at [`Self::build`].
    pub fn forcing(mut self, forcing: Tensor) -> Self {
        self.forcing = Some(forcing);
        self
    }

    /// Multigrid training cycle (default Half-V, the paper's winner).
    pub fn cycle(mut self, cycle: CycleKind) -> Self {
        self.cycle = cycle;
        self
    }

    /// Hierarchy levels (default 2).
    pub fn levels(mut self, levels: usize) -> Self {
        self.levels = levels;
        self
    }

    /// Epochs per restriction visit (default 3).
    pub fn fixed_epochs(mut self, epochs: usize) -> Self {
        self.fixed_epochs = epochs;
        self
    }

    /// Global mini-batch size (default 8).
    pub fn batch_size(mut self, batch: usize) -> Self {
        self.train.batch_size = batch;
        self
    }

    /// Epoch cap for convergence phases (default 200).
    pub fn max_epochs(mut self, epochs: usize) -> Self {
        self.train.max_epochs = epochs;
        self
    }

    /// Early-stopping patience in epochs (default 8).
    pub fn patience(mut self, patience: usize) -> Self {
        self.train.patience = patience;
        self
    }

    /// Early-stopping minimum relative improvement (default 1e-3).
    pub fn min_delta(mut self, min_delta: f64) -> Self {
        self.train.min_delta = min_delta;
        self
    }

    /// Learning rate of the default Adam optimizer (default 3e-3).
    pub fn learning_rate(mut self, lr: f64) -> Self {
        self.learning_rate = lr;
        self
    }

    /// Sobol sample count for the default dataset (default 16).
    pub fn samples(mut self, samples: usize) -> Self {
        self.samples = samples;
        self
    }

    /// Depth of the default U-Net (default 2).
    pub fn net_depth(mut self, depth: usize) -> Self {
        self.net_depth = depth;
        self
    }

    /// Base filter count of the default U-Net (default 8).
    pub fn base_filters(mut self, filters: usize) -> Self {
        self.base_filters = filters;
        self
    }

    /// Toggles batch normalization in the default U-Net (default on).
    ///
    /// Batch-norm statistics are computed over each worker's *local* batch
    /// (standard data-parallel semantics), so the Eq. 15 worker-count
    /// independence guarantee — `Threads(p)` matching `Serial`
    /// epoch-for-epoch — only holds bitwise/within reduction tolerance for
    /// stat-free networks. Disable it when you need that equivalence;
    /// run-to-run determinism at a *fixed* worker count holds either way.
    pub fn batch_norm(mut self, batch_norm: bool) -> Self {
        self.batch_norm = batch_norm;
        self
    }

    /// Seed for weight init and epoch shuffles (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Capacity of the serving-side prediction cache; 0 disables caching
    /// (default 64 entries). The cache is split over
    /// [`crate::serve::PredictionCache::auto_shards`] shards.
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.serve.cache_capacity = capacity;
        self
    }

    /// Admission-control depth of the `mgd_serve` micro-batching queue
    /// (default 256): requests beyond this many waiting are rejected with
    /// [`MgdError::QueueFull`] instead of growing latency without bound.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.serve.queue_depth = depth;
        self
    }

    /// Largest micro-batch the serving queue coalesces into one forward
    /// pass (default 8).
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.serve.max_batch = max_batch;
        self
    }

    /// Whether [`SolverEngine::solve_certified`] starts MG-PCG from the
    /// network's prediction ([`StrategyKind::InitialGuess`], the default)
    /// or from the zero iterate ([`StrategyKind::PureMultigrid`]). The
    /// certified driver may still demote to pure multigrid, then
    /// Jacobi-CG, at runtime; this knob only picks the first stage
    /// attempted.
    pub fn hybrid_strategy(mut self, strategy: StrategyKind) -> Self {
        self.hybrid_strategy = strategy;
        self
    }

    /// Default relative residual tolerance for certified solves submitted
    /// without an explicit one, e.g. through the serving queue (default
    /// 1e-8). Must be finite and positive.
    pub fn certify_tol(mut self, tol: f64) -> Self {
        self.certify_tol = tol;
        self
    }

    /// Numeric policy of the serving surface (default [`Precision::F64`]).
    ///
    /// - [`Precision::F64`]: everything runs in f64 — bitwise identical to
    ///   engines built before this knob existed.
    /// - [`Precision::F32`]: `predict*` forwards run through the f32 SIMD
    ///   kernels ([`mgd_nn::Model::share_f32`]) with one input demotion and
    ///   one (exact) output promotion per batch; the cache holds the served
    ///   f64 fields (8 B per node, as under `F64`). Certified solves
    ///   precondition with the f32 V-cycle ([`mgd_fem::MixedHierarchy`]);
    ///   the outer PCG, the coarsest-level solve, and every residual
    ///   certificate remain f64, so certified tolerances (down to ~1e-10
    ///   relative) are still met — iterative refinement, not wholesale
    ///   demotion. Training stays f64.
    ///
    /// `F32` requires a model with an f32 inference view
    /// ([`mgd_nn::Model::share_f32`]; the built-in U-Net has one). Combined
    /// with [`Parallelism::SpatialThreads`], the slab-decomposed forward
    /// runs at f32 and needs the f32 slab view
    /// ([`mgd_nn::Model::share_slab_f32`], which the U-Net also has)
    /// instead. A missing view is a typed error at [`Self::build`].
    pub fn precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// How training distributes across workers (default
    /// [`Parallelism::Serial`]).
    ///
    /// [`Parallelism::Threads(p)`](Parallelism::Threads) runs the full
    /// multigrid schedule data-parallel over `p` in-process ranks: every
    /// rank shuffles with the shared seed, trains its shard of each global
    /// mini-batch, and exchanges gradients through the deterministic ring
    /// all-reduce, so the resulting model and loss trajectory match a
    /// serial run at the same global batch size up to f64 reduction order.
    /// The global `batch_size` must divide evenly by `p`.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Enables out-of-core slab streaming: encoder skip activations spill
    /// to scratch files in `dir` and stream back at the decoder, capping
    /// per-rank resident memory near the largest single-level working set
    /// — how a rank serves domains whose full activation ladder exceeds
    /// RAM. Results are bit-exact; only latency and residency change.
    pub fn spatial_spill_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.spatial_spill_dir = Some(dir.into());
        self
    }

    /// Injects a custom model instead of the default U-Net. The model must
    /// accept NCDHW inputs at every hierarchy resolution, and provide the
    /// serving view the engine's precision and parallelism need
    /// ([`Model::share`], [`Model::share_f32`], [`Model::share_slab`] or
    /// [`Model::share_slab_f32`]); [`Self::build`] rejects it otherwise.
    pub fn model(mut self, model: Box<dyn Model>) -> Self {
        self.model = Some(model);
        self
    }

    /// Injects a custom optimizer instead of the default Adam.
    pub fn optimizer(mut self, optimizer: Box<dyn Optimizer>) -> Self {
        self.optimizer = Some(optimizer);
        self
    }

    /// Injects an explicit dataset instead of Sobol-sampling one (its
    /// diffusivity model must match the problem's). The engine trains and
    /// serves with the dataset's input encoding; the Sobol default encodes
    /// `LogNu`.
    pub fn dataset(mut self, dataset: Dataset) -> Self {
        self.dataset = Some(dataset);
        self
    }

    /// Validates the configuration and assembles the engine.
    pub fn build(self) -> MgdResult<SolverEngine> {
        let resolution = self
            .resolution
            .ok_or_else(|| MgdError::InvalidConfig("resolution is required".into()))?;
        let problem = self
            .problem
            .ok_or_else(|| MgdError::InvalidConfig("problem is required".into()))?;
        if resolution.len() != problem.rank() {
            return Err(MgdError::InvalidConfig(format!(
                "resolution {resolution:?} is rank {}, problem needs rank {}",
                resolution.len(),
                problem.rank()
            )));
        }
        if self.levels == 0 {
            return Err(MgdError::InvalidConfig(
                "levels must be >= 1 (got 0)".into(),
            ));
        }
        let depth = if self.model.is_some() {
            // A custom model's pooling depth is opaque; only the hierarchy
            // halvings constrain the resolution then.
            0
        } else {
            self.net_depth
        };
        let div = 1usize << (depth + self.levels - 1);
        for &d in &resolution {
            if d % 2 != 0 {
                return Err(MgdError::InvalidConfig(format!(
                    "resolution {resolution:?}: dim {d} is odd; the U-Net's \
                     pool/upsample stages need even dims at every level"
                )));
            }
            if d % div != 0 || d / div < 2 {
                return Err(MgdError::InvalidConfig(format!(
                    "resolution {resolution:?}: dim {d} must be a multiple of \
                     2^(net_depth + levels - 1) = {div} and keep >= 2 nodes \
                     at the coarsest level"
                )));
            }
        }
        if self.learning_rate <= 0.0 || !self.learning_rate.is_finite() {
            return Err(MgdError::InvalidConfig(format!(
                "learning_rate must be positive and finite (got {})",
                self.learning_rate
            )));
        }
        let data = match self.dataset {
            Some(d) => {
                if d.is_empty() {
                    return Err(MgdError::InvalidConfig("dataset is empty".into()));
                }
                if d.model.num_modes() != problem.diffusivity().num_modes() {
                    return Err(MgdError::InvalidConfig(format!(
                        "dataset diffusivity has {} modes, problem has {}",
                        d.model.num_modes(),
                        problem.diffusivity().num_modes()
                    )));
                }
                // The dataset's coefficient blocks must match the
                // problem's operator: a scalar dataset cannot feed a
                // tensor operator (and vice versa), and the anisotropy
                // parameters themselves must agree — the loss assembles
                // the operator straight from those blocks.
                if d.aniso != problem.anisotropy() {
                    return Err(MgdError::InvalidConfig(format!(
                        "dataset anisotropy {:?} does not match the problem's {:?} \
                         (build the dataset with Dataset::with_anisotropy)",
                        d.aniso,
                        problem.anisotropy()
                    )));
                }
                d
            }
            None => {
                if self.samples == 0 {
                    return Err(MgdError::InvalidConfig(
                        "samples must be >= 1 (got 0)".into(),
                    ));
                }
                let d = Dataset::sobol(
                    self.samples,
                    problem.diffusivity().clone(),
                    InputEncoding::LogNu,
                );
                match problem.anisotropy() {
                    None => d,
                    Some(a) => d.with_anisotropy(a).map_err(MgdError::Field)?,
                }
            }
        };
        if self.train.batch_size > data.len() {
            return Err(MgdError::InvalidConfig(format!(
                "batch_size {} exceeds the dataset's {} samples",
                self.train.batch_size,
                data.len()
            )));
        }
        if let Parallelism::Threads(0) = self.parallelism {
            return Err(MgdError::InvalidConfig(
                "Parallelism::Threads needs >= 1 worker (got 0)".into(),
            ));
        }
        if self.serve.queue_depth == 0 {
            return Err(MgdError::InvalidConfig(
                "queue_depth must be >= 1 (got 0)".into(),
            ));
        }
        if self.serve.max_batch == 0 {
            return Err(MgdError::InvalidConfig(
                "max_batch must be >= 1 (got 0)".into(),
            ));
        }
        if !(self.certify_tol.is_finite() && self.certify_tol > 0.0) {
            return Err(MgdError::InvalidConfig(format!(
                "certify_tol must be finite and positive (got {})",
                self.certify_tol
            )));
        }
        let mut train = self.train;
        train.seed = self.seed;
        train.validate(self.parallelism.workers())?;
        let mg = MgConfig {
            cycle: self.cycle,
            levels: self.levels,
            fixed_epochs: self.fixed_epochs,
            adapt: false,
            cycles: 1,
        };
        // The physics spec every layer shares: the trainer's loss at each
        // hierarchy level, the engine's serving loss, and (via its
        // fingerprint) the prediction-cache keys. Boundary and forcing are
        // validated here through FemLoss::with_spec — the first violated
        // constraint reports as a typed error at build time.
        let spec = LossSpec {
            op: problem.op(),
            boundary: self.boundary,
            forcing: self.forcing.clone(),
        };
        let schedule = MultigridTrainer::with_spec(mg, train, resolution.clone(), spec.clone())?;
        let model = match self.model {
            Some(m) => m,
            None => Box::new(UNet::new(UNetConfig {
                two_d: problem.rank() == 2,
                // Tensor operators feed component-major coefficient
                // planes; the first encoder block widens to match.
                in_channels: problem.ncomp(),
                depth: self.net_depth,
                base_filters: self.base_filters,
                batch_norm: self.batch_norm,
                seed: self.seed,
                ..Default::default()
            })) as Box<dyn Model>,
        };
        let optimizer = match self.optimizer {
            Some(o) => o,
            None => Box::new(Adam::new(self.learning_rate)) as Box<dyn Optimizer>,
        };
        if let Parallelism::SpatialThreads(p) = self.parallelism {
            if p == 0 {
                return Err(MgdError::InvalidConfig(
                    "Parallelism::SpatialThreads needs >= 1 rank (got 0)".into(),
                ));
            }
            let align = model.spatial_align();
            if align == 0 {
                return Err(MgdError::InvalidConfig(
                    "Parallelism::SpatialThreads requires a model that supports \
                     slab-decomposed inference (the built-in U-Net does); the \
                     configured model reports no spatial alignment"
                        .into(),
                ));
            }
            // Over-decomposed or misaligned slab configurations must fail
            // here as typed errors, not as rank panics that poison the
            // communicator at the first predict call.
            SlabPartition::aligned(resolution[0], p, align).map_err(|e| {
                MgdError::InvalidConfig(format!(
                    "Parallelism::SpatialThreads({p}) cannot split resolution \
                     {resolution:?} along its slowest axis: {e} (slab sizes \
                     must be positive multiples of 2^net_depth = {align})"
                ))
            })?;
        }
        let ncomp = problem.ncomp();
        let coeff_dims = if ncomp == 1 {
            resolution.clone()
        } else {
            std::iter::once(ncomp)
                .chain(resolution.iter().copied())
                .collect()
        };
        let template = Arc::new(SnapshotTemplate {
            loss: Arc::new(FemLoss::with_spec(&resolution, &spec)?),
            resolution,
            coeff_dims,
            three_d: problem.rank() == 3,
            encoding: data.encoding,
            diffusivity: problem.diffusivity().clone(),
            aniso: problem.anisotropy(),
            serve: self.serve,
            stats: Arc::new(SharedServeStats::default()),
            hybrid_strategy: self.hybrid_strategy,
            certify_tol: self.certify_tol,
            precision: self.precision,
            spatial_ranks: self.parallelism.spatial_ranks(),
            spatial_opts: SlabOpts {
                spill_dir: self.spatial_spill_dir,
            },
        });
        let snapshot = EngineSnapshot::build(Arc::clone(&template), 0, &*model)?;
        Ok(SolverEngine {
            model,
            optimizer,
            data,
            problem,
            schedule,
            parallelism: self.parallelism,
            template,
            cell: Arc::new(SnapshotCell::new(Arc::new(snapshot))),
            version: AtomicU64::new(0),
            dirty: AtomicBool::new(false),
            last_run: None,
        })
    }
}

/// A trained (or trainable) neural PDE solver with a serving surface.
///
/// Training mutates weights in place (`&mut self`); the whole serving
/// surface reads through an immutable [`EngineSnapshot`] and takes `&self`.
/// The engine republishes a fresh snapshot through its [`SnapshotCell`]
/// after every weight change, so external serving threads holding the cell
/// (see [`Self::serve_cell`]) atomically pick up retrained weights without
/// ever blocking on — or being blocked by — the trainer.
pub struct SolverEngine {
    model: Box<dyn Model>,
    optimizer: Box<dyn Optimizer>,
    data: Dataset,
    problem: Problem,
    schedule: MultigridTrainer,
    parallelism: Parallelism,
    /// The serving configuration every published snapshot shares: the
    /// physics, the cache and queue shape, the precision, the slab ranks,
    /// and the engine-lifetime serving counters (a republish never loses
    /// counts).
    template: Arc<SnapshotTemplate>,
    /// The publication point serving threads load snapshots from.
    cell: Arc<SnapshotCell>,
    /// Version of the most recently published snapshot.
    version: AtomicU64,
    /// Set by [`Self::model_mut`]: the published snapshot may be stale and
    /// must be rebuilt before the next predict.
    dirty: AtomicBool,
    last_run: Option<MgRunLog>,
}

impl std::fmt::Debug for SolverEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverEngine")
            .field("problem", &self.problem)
            .field("resolution", &self.template.resolution)
            .field("parallelism", &self.parallelism)
            .field("encoding", &self.data.encoding)
            .field("samples", &self.data.len())
            .field("cache_len", &self.cell.load().cache_len())
            .field("stats", &self.template.stats.snapshot())
            .finish_non_exhaustive()
    }
}

impl SolverEngine {
    /// Starts a builder with the scaled-down defaults.
    pub fn builder() -> SolverEngineBuilder {
        SolverEngineBuilder::default()
    }

    /// Runs the configured multigrid training schedule under the engine's
    /// [`Parallelism`] mode, then publishes a fresh [`EngineSnapshot`]
    /// (with an empty prediction cache — the weights changed).
    ///
    /// The snapshot is republished even when the run errors out
    /// mid-schedule: a failed run has still stepped the (serial-mode,
    /// in-place) weights, and stale cached predictions from the
    /// pre-training model must not survive it. Serving threads holding the
    /// old snapshot finish their in-flight requests on the old weights and
    /// pick up the new ones on their next [`SnapshotCell::load`].
    ///
    /// Under [`Parallelism::Threads(p)`](Parallelism::Threads) the engine
    /// replicates its model/optimizer onto `p` in-process ranks, trains
    /// data-parallel (shared-seed shuffles, per-rank shards, ring
    /// all-reduce after every backward pass, rank-0 broadcast before every
    /// phase), and keeps rank 0's model, optimizer state and run log — all
    /// ranks hold bitwise-identical replicas when the schedule finishes.
    pub fn train(&mut self) -> MgdResult<MgRunLog> {
        let result = self.train_inner();
        // Republish unconditionally — success or error, the weights may
        // have moved. This supersedes any pending `model_mut` dirtiness.
        self.dirty.store(false, Ordering::Release);
        self.republish();
        let log = result?;
        self.last_run = Some(log.clone());
        Ok(log)
    }

    fn train_inner(&mut self) -> MgdResult<MgRunLog> {
        let log = match self.parallelism {
            // Spatial decomposition parallelizes serving; training under it
            // runs the serial schedule (see the `Parallelism` docs).
            Parallelism::Serial | Parallelism::SpatialThreads(_) => {
                let comm = ThreadComm::solo();
                self.schedule
                    .run(&mut self.model, &mut self.optimizer, &self.data, &comm)?
            }
            Parallelism::Threads(p) => {
                let replicas: Vec<(Box<dyn Model>, Box<dyn Optimizer>)> = (0..p)
                    .map(|_| (self.model.clone_model(), self.optimizer.clone_optimizer()))
                    .collect();
                let schedule = &self.schedule;
                let data = &self.data;
                let results = launch_with(replicas, move |comm, (mut model, mut opt)| {
                    // Errors are returned (not unwrapped) so a failing rank
                    // unwinds cleanly; the post-all-reduce blow-up check in
                    // the trainer guarantees numerical failures strike all
                    // ranks in the same mini-batch, never leaving a peer
                    // blocked in a collective.
                    let log = schedule.run(&mut model, &mut opt, data, &comm)?;
                    Ok::<_, MgdError>((model, opt, log))
                });
                let mut rank0 = None;
                for (rank, res) in results.into_iter().enumerate() {
                    let out = res?;
                    if rank == 0 {
                        rank0 = Some(out);
                    }
                }
                let (model, opt, log) = rank0.expect("launch_with returns one result per rank");
                self.model = model;
                self.optimizer = opt;
                log
            }
        };
        Ok(log)
    }

    /// Builds a snapshot of the current weights from the engine's template
    /// and publishes it, bumping the version.
    ///
    /// # Panics
    ///
    /// If the model stopped providing the serving view it provided at
    /// build time (a breach of the [`Model::share`] contract).
    fn republish(&self) {
        let version = self.version.fetch_add(1, Ordering::Relaxed) + 1;
        let snapshot = EngineSnapshot::build(Arc::clone(&self.template), version, &*self.model)
            .unwrap_or_else(|e| panic!("{e}"));
        self.cell.store(Arc::new(snapshot));
    }

    /// The currently published [`EngineSnapshot`], republishing first if a
    /// [`Self::model_mut`] borrow left the published one stale.
    ///
    /// The returned `Arc` is self-contained: it keeps serving (and keeps
    /// its weights alive) even after the engine trains again or is dropped.
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        if self.dirty.swap(false, Ordering::AcqRel) {
            self.republish();
        }
        self.cell.load()
    }

    /// The engine's [`SnapshotCell`] — hand this to serving threads (or a
    /// `mgd_serve::ServeQueue`): they `load()` the current snapshot per
    /// request and atomically observe every republish, with no further
    /// coupling to the engine.
    pub fn serve_cell(&self) -> Arc<SnapshotCell> {
        // Flush any pending `model_mut` staleness so the cell's current
        // snapshot reflects the weights as of this call.
        let _ = self.snapshot();
        Arc::clone(&self.cell)
    }

    /// The serving configuration (queue depth, batch ceiling, cache shape)
    /// this engine was built with.
    pub fn serve_options(&self) -> ServeOptions {
        self.template.serve
    }

    /// Predicts the solution field for one raw coefficient field ν shaped
    /// like [`Self::resolution`]. Boundary values are imposed exactly.
    ///
    /// Takes `&self`: prediction never mutates the engine. Outputs are
    /// reference-counted: a cache hit returns the stored tensor without
    /// copying it.
    pub fn predict(&self, coeff: &Tensor) -> MgdResult<Arc<Tensor>> {
        self.snapshot().predict(coeff)
    }

    /// Predicts solution fields for N coefficient fields in **one** network
    /// forward pass (cache hits excluded). This is the serving hot path:
    /// requests are answered from the sharded LRU cache when an identical
    /// (up to quantization) field was already solved — returning the stored
    /// `Arc<Tensor>` without copying it — and all remaining requests are
    /// stacked into a single NCDHW batch.
    pub fn predict_batch(&self, coeffs: &[Tensor]) -> MgdResult<Vec<Arc<Tensor>>> {
        self.snapshot().predict_batch(coeffs)
    }

    /// Predicts the solution for one ω parameter vector, rasterizing the
    /// coefficient field at the engine's resolution server-side. Results
    /// are cached under the ω bits, so a repeat query skips rasterization
    /// too.
    pub fn predict_omega(&self, omega: &[f64]) -> MgdResult<Arc<Tensor>> {
        self.predict_request(&InferenceRequest::Omega(omega.to_vec()))
    }

    /// Predicts the solution for one typed [`InferenceRequest`].
    pub fn predict_request(&self, req: &InferenceRequest) -> MgdResult<Arc<Tensor>> {
        self.snapshot().predict_request(req)
    }

    /// Predicts solutions for N typed [`InferenceRequest`]s in one forward
    /// pass (cache hits excluded) — coefficient-field and ω requests mix
    /// freely in one batch.
    pub fn predict_requests(&self, reqs: &[InferenceRequest]) -> MgdResult<Vec<Arc<Tensor>>> {
        self.snapshot().predict_requests(reqs)
    }

    /// Solves one request to a **certified** relative residual tolerance:
    /// the learned surrogate runs inside an iterative solve whose progress
    /// is measured by the true FEM residual, with automatic demotion to
    /// pure multigrid whenever the learned component stalls or emits
    /// non-finite values (see [`mgd_hybrid`] and the engine's
    /// [`SolverEngineBuilder::hybrid_strategy`] knob).
    ///
    /// Always terminates; the returned [`CertifiedSolution`] carries the
    /// residual norm recomputed from scratch on the returned field. Takes
    /// `&self` like the whole serving surface.
    pub fn solve_certified(
        &self,
        req: &InferenceRequest,
        tol: f64,
    ) -> MgdResult<CertifiedSolution> {
        self.snapshot().solve_certified(req, tol)
    }

    /// §4.3-style comparison of the engine's prediction against a fresh FEM
    /// solve for dataset sample `sample` — ground truth, energies, and the
    /// warm-start study all use the engine's operator/boundary/forcing.
    pub fn compare_sample(&mut self, sample: usize) -> MgdResult<FieldComparison> {
        compare_with_fem_loss(
            &mut self.model,
            &self.data,
            sample,
            &self.template.resolution,
            &self.template.loss,
        )
    }

    /// Saves the model weights (via the [`Model`] trait) to a JSON file.
    pub fn save_weights<P: AsRef<std::path::Path>>(&mut self, path: P) -> MgdResult<()> {
        WeightSnapshot::capture(&mut self.model).save(path)?;
        Ok(())
    }

    /// Loads weights saved by [`Self::save_weights`] into the engine's
    /// model (which must be structurally identical), then publishes a fresh
    /// snapshot (with an empty prediction cache) carrying the new weights.
    /// A file that cannot be read is [`MgdError::Io`]; a malformed file or
    /// one that does not fit the model is [`MgdError::Checkpoint`], and the
    /// engine keeps serving its previous weights after a malformed file.
    pub fn load_weights<P: AsRef<std::path::Path>>(&mut self, path: P) -> MgdResult<()> {
        let snap = WeightSnapshot::load(path).map_err(|e| match e.kind() {
            std::io::ErrorKind::InvalidData => MgdError::Checkpoint(e.to_string()),
            _ => MgdError::Io(e),
        })?;
        snap.restore(&mut self.model)
            .map_err(MgdError::Checkpoint)?;
        self.dirty.store(false, Ordering::Release);
        self.republish();
        Ok(())
    }

    /// The engine's finest spatial resolution.
    pub fn resolution(&self) -> &[usize] {
        &self.template.resolution
    }

    /// The problem this engine was built for.
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// The parallelism mode [`Self::train`] runs under.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// The training dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.data
    }

    /// Serving statistics so far (engine-lifetime: they accumulate across
    /// snapshot republishes).
    pub fn stats(&self) -> ServeStats {
        self.template.stats.snapshot()
    }

    /// The numeric policy the engine serves at.
    pub fn precision(&self) -> Precision {
        self.template.precision
    }

    /// Entries currently held by the current snapshot's prediction cache.
    pub fn cache_len(&self) -> usize {
        self.snapshot().cache_len()
    }

    /// Per-shard hit/miss/eviction statistics of the current snapshot's
    /// prediction cache.
    pub fn cache_shard_stats(&self) -> Vec<CacheShardStats> {
        self.snapshot().shard_stats()
    }

    /// The log of the last completed [`Self::train`] call.
    pub fn last_run(&self) -> Option<&MgRunLog> {
        self.last_run.as_ref()
    }

    /// Mutable access to the underlying model (escape hatch for research
    /// code). Marks the published snapshot stale: the next predict (or
    /// [`Self::snapshot`] / [`Self::serve_cell`] call) republishes a fresh
    /// one — with an empty prediction cache — from the mutated weights.
    pub fn model_mut(&mut self) -> &mut dyn Model {
        self.dirty.store(true, Ordering::Release);
        &mut *self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_builder() -> SolverEngineBuilder {
        SolverEngine::builder()
            .resolution([16, 16])
            .problem(Problem::poisson_2d(DiffusivityModel::paper()))
            .levels(2)
            .samples(8)
            .batch_size(4)
            .max_epochs(4)
            .fixed_epochs(1)
            .seed(3)
    }

    #[test]
    fn builder_requires_resolution_and_problem() {
        let e = SolverEngine::builder().build();
        assert!(matches!(e, Err(MgdError::InvalidConfig(m)) if m.contains("resolution")));
        let e = SolverEngine::builder().resolution([16, 16]).build();
        assert!(matches!(e, Err(MgdError::InvalidConfig(m)) if m.contains("problem")));
    }

    #[test]
    fn serving_uses_the_dataset_encoding() {
        // An engine built on a raw-ν dataset must serve raw ν to the
        // network it trains, not the Sobol default's ln ν.
        let data = Dataset::sobol(8, DiffusivityModel::paper(), InputEncoding::RawNu);
        let mut engine = small_builder().dataset(data).build().unwrap();
        let nu = engine.dataset().nu_field(0, &[16, 16]);
        let served = engine.predict(&nu).unwrap();
        let x = mgd_field::stack_fields_with(std::slice::from_ref(&nu), 2).unwrap();
        let mut direct = engine.model_mut().predict(&x);
        engine.template.loss.apply_bc_batch(&mut direct);
        assert_eq!(served.len(), direct.len());
        for (i, (a, b)) in served.as_slice().iter().zip(direct.as_slice()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "element {i}: {a} vs {b}");
        }
    }

    #[test]
    fn builder_rejects_zero_levels() {
        let e = small_builder().levels(0).build();
        assert!(matches!(e, Err(MgdError::InvalidConfig(m)) if m.contains("levels")));
    }

    #[test]
    fn builder_rejects_odd_resolution() {
        let e = small_builder().resolution([15, 16]).build();
        assert!(
            matches!(e, Err(MgdError::InvalidConfig(m)) if m.contains("odd") || m.contains("multiple"))
        );
    }

    #[test]
    fn builder_rejects_batch_larger_than_dataset() {
        let e = small_builder().samples(4).batch_size(8).build();
        assert!(matches!(e, Err(MgdError::InvalidConfig(m)) if m.contains("batch_size")));
    }

    #[test]
    fn builder_rejects_rank_mismatch() {
        let e = small_builder().resolution([8, 16, 16]).build();
        assert!(matches!(e, Err(MgdError::InvalidConfig(m)) if m.contains("rank")));
    }

    #[test]
    fn predict_imposes_bcs_and_caches() {
        let engine = small_builder().build().unwrap();
        let nu = engine.dataset().nu_field(0, &[16, 16]);
        let u = engine.predict(&nu).unwrap();
        assert_eq!(u.dims(), &[16, 16]);
        for j in 0..16 {
            assert_eq!(u.at(&[j, 0]), 1.0);
            assert_eq!(u.at(&[j, 15]), 0.0);
        }
        assert_eq!(engine.stats().forward_passes, 1);
        // Second identical query: cache hit, no new forward pass.
        let u2 = engine.predict(&nu).unwrap();
        assert_eq!(u, u2);
        assert_eq!(engine.stats().forward_passes, 1);
        assert_eq!(engine.stats().cache_hits, 1);
    }

    #[test]
    fn predict_batch_is_one_forward_pass() {
        let engine = small_builder().build().unwrap();
        let fields: Vec<Tensor> = (0..6)
            .map(|s| engine.dataset().nu_field(s, &[16, 16]))
            .collect();
        let out = engine.predict_batch(&fields).unwrap();
        assert_eq!(out.len(), 6);
        assert_eq!(engine.stats().forward_passes, 1);
        assert_eq!(engine.stats().predicted_fields, 6);
    }

    #[test]
    fn predict_batch_deduplicates_identical_requests() {
        let engine = small_builder().build().unwrap();
        let nu = engine.dataset().nu_field(0, &[16, 16]);
        let out = engine.predict_batch(&[nu.clone(), nu.clone(), nu]).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], out[1]);
        assert_eq!(out[1], out[2]);
        // One unique field -> one predicted field.
        assert_eq!(engine.stats().predicted_fields, 1);
    }

    #[test]
    fn predict_rejects_wrong_shape() {
        let engine = small_builder().build().unwrap();
        let bad = Tensor::ones([8, 8]);
        assert!(matches!(
            engine.predict(&bad),
            Err(MgdError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn cache_disabled_still_correct() {
        let engine = small_builder().cache_capacity(0).build().unwrap();
        let nu = engine.dataset().nu_field(0, &[16, 16]);
        let a = engine.predict(&nu).unwrap();
        let b = engine.predict(&nu).unwrap();
        assert_eq!(a, b);
        assert_eq!(engine.stats().forward_passes, 2, "no caching when disabled");
        assert_eq!(engine.cache_len(), 0);
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let engine = small_builder().cache_capacity(2).build().unwrap();
        let f: Vec<Tensor> = (0..3)
            .map(|s| engine.dataset().nu_field(s, &[16, 16]))
            .collect();
        let _ = engine.predict(&f[0]).unwrap();
        let _ = engine.predict(&f[1]).unwrap();
        let _ = engine.predict(&f[0]).unwrap(); // refresh 0
        let _ = engine.predict(&f[2]).unwrap(); // evicts 1
        assert_eq!(engine.cache_len(), 2);
        let hits_before = engine.stats().cache_hits;
        let _ = engine.predict(&f[1]).unwrap(); // miss
        assert_eq!(engine.stats().cache_hits, hits_before);
        let _ = engine.predict(&f[0]).unwrap(); // 0 was refreshed: may or may not survive the second insert
    }

    #[test]
    fn predict_rejects_non_finite_inputs() {
        let engine = small_builder().build().unwrap();
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut bad = engine.dataset().nu_field(0, &[16, 16]);
            *bad.at_mut(&[7, 7]) = poison;
            assert!(
                matches!(
                    engine.predict(&bad),
                    Err(MgdError::NonFiniteInput { index: 0, .. })
                ),
                "poison {poison} must be rejected"
            );
        }
        assert_eq!(engine.cache_len(), 0, "rejected inputs never get cached");
        assert_eq!(engine.stats().forward_passes, 0);
        // The input-validation error reports the offending batch slot, not
        // the bogus "epoch 0" of the training-domain NonFinite variant.
        let good = engine.dataset().nu_field(0, &[16, 16]);
        let mut bad = engine.dataset().nu_field(1, &[16, 16]);
        *bad.at_mut(&[3, 3]) = f64::INFINITY;
        match engine.predict_batch(&[good, bad]) {
            Err(MgdError::NonFiniteInput { index, value }) => {
                assert_eq!(index, 1);
                assert_eq!(value, f64::INFINITY);
            }
            other => panic!("expected NonFiniteInput, got {other:?}"),
        }
        // Crucially: a NaN field must not cache-hit the field the old
        // `as i64` cast collapsed it onto — one whose node quantizes to 0
        // (ν = 1e-10 there: positive, so servable).
        let mut near_zero = Tensor::ones([16, 16]);
        *near_zero.at_mut(&[0, 0]) = 1e-10;
        let _ = engine.predict(&near_zero).unwrap();
        let mut nan_field = Tensor::ones([16, 16]);
        *nan_field.at_mut(&[0, 0]) = f64::NAN;
        assert!(matches!(
            engine.predict(&nan_field),
            Err(MgdError::NonFiniteInput { .. })
        ));
        assert_eq!(
            engine.stats().cache_hits,
            0,
            "NaN field must not alias the zero field's entry"
        );
    }

    #[test]
    fn cache_keeps_hot_keys_under_eviction_pressure() {
        // Ordered-LRU regression: a key that is touched between misses must
        // survive a stream of evictions that churns the rest of the cache.
        let engine = small_builder().cache_capacity(3).build().unwrap();
        let hot = engine.dataset().nu_field(0, &[16, 16]);
        let _ = engine.predict(&hot).unwrap();
        for s in 1..8 {
            let cold = engine.dataset().nu_field(s, &[16, 16]);
            let _ = engine.predict(&cold).unwrap(); // churn (evicts LRU colds)
            let passes = engine.stats().forward_passes;
            let _ = engine.predict(&hot).unwrap(); // must still be a hit
            assert_eq!(
                engine.stats().forward_passes,
                passes,
                "hot key evicted after {s} cold inserts"
            );
        }
        assert_eq!(engine.cache_len(), 3);
        assert_eq!(engine.stats().cache_hits, 7);
    }

    #[test]
    fn cache_hits_share_storage_instead_of_cloning() {
        let engine = small_builder().build().unwrap();
        let nu = engine.dataset().nu_field(0, &[16, 16]);
        let a = engine.predict(&nu).unwrap();
        let b = engine.predict(&nu).unwrap();
        // One allocation serves both the first answer and the cache hit.
        assert!(Arc::ptr_eq(&a, &b), "hit must return the cached Arc");
    }

    #[test]
    fn threads_training_runs_and_keeps_rank0_model() {
        let mut engine = small_builder()
            .parallelism(Parallelism::Threads(2))
            .build()
            .unwrap();
        assert_eq!(engine.parallelism(), Parallelism::Threads(2));
        let log = engine.train().unwrap();
        assert!(log.final_loss.is_finite());
        // The trained model serves immediately.
        let nu = engine.dataset().nu_field(1, &[16, 16]);
        let u = engine.predict(&nu).unwrap();
        assert!(u.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn builder_rejects_zero_threads_and_indivisible_batch() {
        let e = small_builder().parallelism(Parallelism::Threads(0)).build();
        assert!(
            matches!(e, Err(MgdError::InvalidConfig(ref m)) if m.contains("Threads")),
            "{e:?}"
        );
        // Global batch 4 cannot shard across 3 workers.
        let e = small_builder().parallelism(Parallelism::Threads(3)).build();
        assert!(
            matches!(e, Err(MgdError::InvalidConfig(ref m)) if m.contains("divide")),
            "{e:?}"
        );
    }

    #[test]
    fn spatial_threads_predict_is_bitwise_serial() {
        let serial = small_builder().build().unwrap();
        let fields: Vec<Tensor> = (0..3)
            .map(|s| serial.dataset().nu_field(s, &[16, 16]))
            .collect();
        let expect = serial.predict_batch(&fields).unwrap();
        for p in [1usize, 2, 4] {
            let spatial = small_builder()
                .parallelism(Parallelism::SpatialThreads(p))
                .build()
                .unwrap();
            assert_eq!(spatial.parallelism().spatial_ranks(), p);
            let got = spatial.predict_batch(&fields).unwrap();
            for (e, g) in expect.iter().zip(&got) {
                assert!(
                    e.as_slice()
                        .iter()
                        .zip(g.as_slice())
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "SpatialThreads({p}) diverged from Serial"
                );
            }
            // The spatial engine's cache works on the assembled outputs.
            let passes = spatial.stats().forward_passes;
            let _ = spatial.predict(&fields[0]).unwrap();
            assert_eq!(spatial.stats().forward_passes, passes);
            // A second forward through the *reused* rank pool (fresh field,
            // cache miss) must stay bitwise identical to serial too.
            let fresh = spatial.dataset().nu_field(5, &[16, 16]);
            let e = serial.predict(&fresh).unwrap();
            let g = spatial.predict(&fresh).unwrap();
            assert!(
                e.as_slice()
                    .iter()
                    .zip(g.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "pool reuse broke bitwise equality at p={p}"
            );
        }
    }

    #[test]
    fn builder_rejects_bad_spatial_configs() {
        let e = small_builder()
            .parallelism(Parallelism::SpatialThreads(0))
            .build();
        assert!(
            matches!(e, Err(MgdError::InvalidConfig(ref m)) if m.contains("SpatialThreads")),
            "{e:?}"
        );
        // 16 planes / align 4 = 4 slabs at most; 5 ranks over-decompose,
        // and must fail at build() with a typed error, not poison a
        // communicator at predict time.
        let e = small_builder()
            .parallelism(Parallelism::SpatialThreads(5))
            .build();
        assert!(
            matches!(e, Err(MgdError::InvalidConfig(ref m)) if m.contains("over-decomposed")),
            "{e:?}"
        );
    }

    #[test]
    fn train_invalidates_cache() {
        let mut engine = small_builder().max_epochs(1).build().unwrap();
        let nu = engine.dataset().nu_field(0, &[16, 16]);
        let before = engine.predict(&nu).unwrap();
        assert_eq!(engine.cache_len(), 1);
        let log = engine.train().unwrap();
        assert!(log.final_loss.is_finite());
        assert_eq!(engine.cache_len(), 0, "training must clear the cache");
        let after = engine.predict(&nu).unwrap();
        assert!(before.rel_l2_error(&after) > 0.0, "weights changed");
    }

    #[test]
    fn predict_is_shared_reference_and_snapshot_outlives_engine() {
        // The redesigned read path: no `mut` anywhere near serving.
        let engine = small_builder().build().unwrap();
        let nu = engine.dataset().nu_field(0, &[16, 16]);
        let u = engine.predict(&nu).unwrap();
        let snap = engine.snapshot();
        assert_eq!(snap.version(), 0);
        assert!(snap.is_lock_free(), "the built-in U-Net shares read-only");
        drop(engine);
        // The snapshot is self-contained: it serves after the engine died.
        let u2 = snap.predict(&nu).unwrap();
        assert!(u
            .as_slice()
            .iter()
            .zip(u2.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn snapshot_hot_swap_on_weight_changes() {
        let mut engine = small_builder().max_epochs(1).build().unwrap();
        let nu = engine.dataset().nu_field(0, &[16, 16]);
        let old_snap = engine.snapshot();
        let before = old_snap.predict(&nu).unwrap();
        engine.train().unwrap();
        // The engine republished; a fresh load sees new weights...
        let new_snap = engine.snapshot();
        assert!(new_snap.version() > old_snap.version());
        let after = new_snap.predict(&nu).unwrap();
        assert!(before.rel_l2_error(&after) > 0.0, "weights changed");
        // ...while the old snapshot still answers with the *old* weights
        // (in-flight readers are never torn mid-request).
        let before2 = old_snap.predict(&nu).unwrap();
        assert!(before
            .as_slice()
            .iter()
            .zip(before2.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn model_mut_marks_snapshot_stale() {
        let mut engine = small_builder().build().unwrap();
        let nu = engine.dataset().nu_field(0, &[16, 16]);
        let _ = engine.predict(&nu).unwrap();
        assert_eq!(engine.cache_len(), 1);
        let v0 = engine.snapshot().version();
        let _ = engine.model_mut(); // weights may now change
                                    // The next snapshot access republishes: higher version, fresh cache.
        assert!(engine.snapshot().version() > v0);
        assert_eq!(engine.cache_len(), 0);
    }

    #[test]
    fn typed_requests_mix_in_one_forward_pass() {
        let engine = small_builder().build().unwrap();
        let omega = engine.dataset().omegas[1].clone();
        let nu = engine.dataset().nu_field(0, &[16, 16]);
        let out = engine
            .predict_requests(&[InferenceRequest::coeff(nu), InferenceRequest::omega(omega)])
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(engine.stats().forward_passes, 1);
        assert_eq!(engine.stats().predicted_fields, 2);
        // Repeat ω request: cached under the ω bits, no rasterization or
        // forward pass.
        let omega = engine.dataset().omegas[1].clone();
        let again = engine
            .predict_request(&InferenceRequest::omega(omega))
            .unwrap();
        assert!(Arc::ptr_eq(&again, &out[1]));
        assert_eq!(engine.stats().forward_passes, 1);
    }

    #[test]
    fn omega_requests_validate_length_and_finiteness() {
        let engine = small_builder().build().unwrap();
        let modes = engine.problem().diffusivity().num_modes();
        let e = engine.predict_omega(&vec![0.1; modes + 1]);
        assert!(
            matches!(
                e,
                Err(MgdError::Field(mgd_field::FieldError::OmegaDimMismatch { got, expected }))
                    if got == modes + 1 && expected == modes
            ),
            "wrong-length omega must be a typed error"
        );
        let mut bad = vec![0.1; modes];
        bad[2] = f64::NAN;
        assert!(matches!(
            engine.predict_omega(&bad),
            Err(MgdError::NonFiniteInput { index: 0, .. })
        ));
        assert_eq!(engine.stats().forward_passes, 0);
        assert_eq!(engine.cache_len(), 0);
    }

    #[test]
    fn builder_rejects_zero_serve_knobs() {
        let e = small_builder().queue_depth(0).build();
        assert!(matches!(e, Err(MgdError::InvalidConfig(ref m)) if m.contains("queue_depth")));
        let e = small_builder().max_batch(0).build();
        assert!(matches!(e, Err(MgdError::InvalidConfig(ref m)) if m.contains("max_batch")));
        // The remaining serve knobs round-trip.
        let engine = small_builder().queue_depth(7).max_batch(3).build().unwrap();
        let opts = engine.serve_options();
        assert_eq!(opts.queue_depth, 7);
        assert_eq!(opts.max_batch, 3);
    }

    #[test]
    fn serve_cell_tracks_republishes() {
        let mut engine = small_builder().max_epochs(1).build().unwrap();
        let cell = engine.serve_cell();
        let v0 = cell.load().version();
        engine.train().unwrap();
        assert!(
            cell.load().version() > v0,
            "external cell holders must observe the hot swap"
        );
    }

    #[test]
    fn predict_omega_matches_manual_rasterization() {
        let engine = small_builder().build().unwrap();
        let omega = engine.dataset().omegas[0].clone();
        let via_omega = engine.predict_omega(&omega).unwrap();
        let nu = engine.dataset().nu_field(0, &[16, 16]);
        let via_field = engine.predict(&nu).unwrap();
        assert_eq!(via_omega, via_field);
    }

    #[test]
    fn builder_rejects_bad_certify_knobs() {
        let e = small_builder().certify_tol(0.0).build();
        assert!(matches!(e, Err(MgdError::InvalidConfig(ref m)) if m.contains("certify_tol")));
        let e = small_builder().certify_tol(f64::NAN).build();
        assert!(matches!(e, Err(MgdError::InvalidConfig(ref m)) if m.contains("certify_tol")));
    }

    #[test]
    fn solve_certified_reaches_tolerance() {
        let engine = small_builder().build().unwrap();
        let tol = 1e-8;
        for kind in [StrategyKind::PureMultigrid, StrategyKind::InitialGuess] {
            let engine = small_builder().hybrid_strategy(kind).build().unwrap();
            let req = InferenceRequest::omega(engine.dataset().omegas[1].clone());
            let sol = engine.solve_certified(&req, tol).unwrap();
            assert!(sol.converged, "{kind:?}: {:?}", sol.residual_history);
            assert!(sol.rel_residual <= tol);
            assert!(sol.u.iter().all(|x| x.is_finite()));
        }
        // Coefficient-field requests flow through the same front door.
        let nu = engine.dataset().nu_field(1, &[16, 16]);
        let sol = engine
            .solve_certified(&InferenceRequest::coeff(nu), tol)
            .unwrap();
        assert!(sol.converged);
        assert_eq!(sol.u.len(), 16 * 16);
    }

    #[test]
    fn solve_certified_rejects_bad_requests() {
        let engine = small_builder().build().unwrap();
        let req = InferenceRequest::coeff(Tensor::ones([8, 8]));
        assert!(matches!(
            engine.solve_certified(&req, 1e-8),
            Err(MgdError::ShapeMismatch { .. })
        ));
        let req = InferenceRequest::omega(engine.dataset().omegas[0].clone());
        assert!(matches!(
            engine.solve_certified(&req, -1.0),
            Err(MgdError::InvalidConfig(_))
        ));
    }

    #[test]
    fn solve_certified_rejects_non_positive_nu() {
        // ν ≤ 0 would assemble a non-SPD system: a typed error naming the
        // first bad node, not an unconverged `Ok`.
        let engine = small_builder().build().unwrap();
        let req = InferenceRequest::coeff(Tensor::full([16, 16], -1.0));
        let err = engine.solve_certified(&req, 1e-8);
        assert!(
            matches!(err, Err(MgdError::InvalidConfig(ref m)) if m.contains("node 0")),
            "{err:?}"
        );
    }

    #[test]
    fn predict_rejects_coefficients_that_are_not_positive_definite() {
        // ν ≤ 0 (or a tensor that is not SPD) has no solution to
        // approximate, and `ln` would feed the network −∞/NaN: predict
        // answers with the certified solve's typed error and caches nothing.
        let not_spd = |r: MgdResult<Arc<Tensor>>, node: usize| {
            matches!(r, Err(MgdError::InvalidConfig(ref m))
                if m.contains(&format!("node {node} is not positive definite")))
        };
        let engine = small_builder().build().unwrap();
        let mut nu = engine.dataset().nu_field(0, &[16, 16]);
        nu.as_mut_slice()[85] = -1.0;
        nu.as_mut_slice()[153] = 0.0;
        for _ in 0..2 {
            assert!(not_spd(engine.predict(&nu), 85));
        }
        let healthy = engine.dataset().nu_field(1, &[16, 16]);
        assert!(not_spd(
            engine
                .predict_batch(&[healthy, nu])
                .map(|mut v| v.remove(0)),
            85
        ));
        assert_eq!(engine.cache_len(), 0);
        // A tensor whose off-diagonal outgrows its diagonal at node 40.
        let aniso = aniso_builder().build().unwrap();
        let mut t = aniso.dataset().nu_field(0, &[16, 16]);
        let (nn, s) = (256, t.as_mut_slice());
        s[2 * nn + 40] = 2.0 * (s[40] * s[nn + 40]).sqrt();
        assert!(not_spd(aniso.predict(&t), 40));
        assert_eq!(aniso.cache_len(), 0);
    }

    /// Nudges every weight by a deterministic, *not*-f32-representable
    /// amount so the f32 and f64 forward paths must actually diverge (a
    /// freshly initialized U-Net outputs exactly sigmoid(0) = 0.5, which
    /// both precisions represent bitwise).
    fn perturb_weights(engine: &mut SolverEngine) {
        let mut i = 0u64;
        for p in engine.model_mut().params() {
            for v in p.data.as_mut_slice() {
                i += 1;
                *v += 0.01 * (((i * 2654435761) % 97) as f64 / 97.0 - 0.5) + 1e-3 / 3.0;
            }
        }
    }

    #[test]
    fn f32_precision_serves_within_tolerance_and_pools_workspaces() {
        let mut engine64 = small_builder().build().unwrap();
        let mut engine32 = small_builder().precision(Precision::F32).build().unwrap();
        perturb_weights(&mut engine64);
        perturb_weights(&mut engine32);
        assert_eq!(engine32.precision(), Precision::F32);
        assert!(engine32.snapshot().is_lock_free());
        let nu = engine64.dataset().nu_field(0, &[16, 16]);
        let u_f64 = engine64.predict(&nu).unwrap();
        let u_f32 = engine32.predict(&nu).unwrap();
        let worst = u_f64
            .as_slice()
            .iter()
            .zip(u_f32.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        // The same weights through the f32 kernels: small relative error,
        // nowhere near f64-path identity but far below solver tolerances.
        assert!(worst < 1e-3, "f32 forward drifted {worst}");
        assert!(worst > 0.0, "suspiciously exact — did the f32 path run?");
        // First forward allocates its workspace, repeats reuse it.
        let s = engine32.stats();
        assert_eq!(s.workspace_pool_misses, 1);
        assert_eq!(s.workspace_pool_hits, 0);
        let nu1 = engine32.dataset().nu_field(1, &[16, 16]);
        engine32.predict(&nu1).unwrap();
        let s = engine32.stats();
        assert_eq!(s.workspace_pool_misses, 1);
        assert_eq!(s.workspace_pool_hits, 1);
        // Cache hits replay the f32-stored entry losslessly.
        let again = engine32.predict(&nu).unwrap();
        assert_eq!(again.as_slice(), u_f32.as_slice());
        assert!(engine32.stats().cache_hits >= 1);
    }

    #[test]
    fn f32_cache_hit_is_bitwise_the_miss() {
        // The cache holds the served field, boundary values included: 0.1
        // is not an f32, so a hit rounded through f32 would differ on every
        // boundary node.
        let engine = small_builder()
            .precision(Precision::F32)
            .boundary(BoundarySpec::AllFaces { value: 0.1 })
            .build()
            .unwrap();
        let nu = engine.dataset().nu_field(1, &[16, 16]);
        let miss = engine.predict(&nu).unwrap();
        let hit = engine.predict(&nu).unwrap();
        assert_eq!(engine.stats().cache_hits, 1);
        assert_eq!(miss.at(&[0, 0]), 0.1);
        let pairs = hit.as_slice().iter().zip(miss.as_slice());
        let differing = pairs.filter(|(h, m)| h.to_bits() != m.to_bits()).count();
        assert_eq!(
            differing, 0,
            "{differing} nodes differ between the hit and the miss"
        );
    }

    #[test]
    fn f64_precision_keeps_pool_counters_live_too() {
        let engine = small_builder().build().unwrap();
        let nu = engine.dataset().nu_field(0, &[16, 16]);
        engine.predict(&nu).unwrap();
        let s = engine.stats();
        assert_eq!(s.workspace_pool_misses + s.workspace_pool_hits, 1);
    }

    #[test]
    fn mixed_precision_certified_solve_meets_tolerance() {
        // An F32 engine's certified solves run the f32 V-cycle under the
        // f64 outer PCG.
        let tol = 1e-8;
        let engine = small_builder()
            .precision(Precision::F32)
            .hybrid_strategy(StrategyKind::PureMultigrid)
            .build()
            .unwrap();
        let req = InferenceRequest::omega(engine.dataset().omegas[1].clone());
        let sol = engine.solve_certified(&req, tol).unwrap();
        assert!(sol.converged, "{:?}", sol.residual_history);
        assert!(sol.rel_residual <= tol);
        // Same answer as the f64-preconditioned solve (the preconditioner
        // only steers convergence; the certificate pins the solution).
        let engine64 = small_builder()
            .hybrid_strategy(StrategyKind::PureMultigrid)
            .build()
            .unwrap();
        let sol64 = engine64.solve_certified(&req, tol).unwrap();
        let norm: f64 = sol64.u.iter().map(|x| x * x).sum::<f64>().sqrt();
        let diff: f64 = sol
            .u
            .iter()
            .zip(&sol64.u)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(diff / norm < 1e-6, "mixed solution drifted {}", diff / norm);
        assert_ne!(
            sol.residual_history, sol64.residual_history,
            "an F32 engine must precondition with the f32 V-cycle"
        );
    }

    #[test]
    fn reduced_precision_spatial_matches_serial_f32() {
        // f32 slab serving must equal the *serial* f32 path bit for bit:
        // the serial forward is the same slab walk on one rank, so only the
        // halo decomposition differs, and it is exact.
        let serial32 = small_builder().precision(Precision::F32).build().unwrap();
        let fields: Vec<Tensor> = (0..2)
            .map(|s| serial32.dataset().nu_field(s, &[16, 16]))
            .collect();
        let expect = serial32.predict_batch(&fields).unwrap();
        let spatial = small_builder()
            .precision(Precision::F32)
            .parallelism(Parallelism::SpatialThreads(2))
            .build()
            .unwrap();
        let got = spatial.predict_batch(&fields).unwrap();
        for (e, g) in expect.iter().zip(&got) {
            for (a, b) in e.as_slice().iter().zip(g.as_slice()) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "f32 spatial differs from serial f32: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn sabotaged_network_demotes_and_still_certifies() {
        let mut engine = small_builder()
            .hybrid_strategy(StrategyKind::InitialGuess)
            .build()
            .unwrap();
        // Poison every weight: inference now emits NaN everywhere, as after
        // a training blow-up.
        for p in engine.model_mut().params() {
            p.data.fill(f64::NAN);
        }
        let req = InferenceRequest::omega(engine.dataset().omegas[1].clone());
        let tol = 1e-8;
        let sol = engine.solve_certified(&req, tol).unwrap();
        assert!(sol.fell_back, "NaN predictions must demote");
        assert!(sol.converged, "fallback must still hit tol");
        assert!(sol.rel_residual <= tol);
        assert!(sol.u.iter().all(|x| x.is_finite()));
        assert_eq!(sol.strategy_used, "pure-multigrid");
    }

    fn aniso_builder() -> SolverEngineBuilder {
        SolverEngine::builder()
            .resolution([16, 16])
            .problem(Problem::anisotropic_2d(
                DiffusivityModel::paper(),
                Anisotropy::new(4.0, 0.5).unwrap(),
            ))
            .levels(2)
            .samples(8)
            .batch_size(4)
            .max_epochs(4)
            .fixed_epochs(1)
            .seed(3)
    }

    #[test]
    fn anisotropic_engine_trains_serves_and_certifies() {
        let mut engine = aniso_builder().build().unwrap();
        // The default dataset picked up the problem's anisotropy, so its
        // coefficient blocks are component-major tensor planes.
        assert_eq!(engine.dataset().ncomp(2), 3);
        assert_eq!(engine.problem().ncomp(), 3);
        let log = engine.train().unwrap();
        assert!(log.final_loss.is_finite());
        // Serving accepts [3, 16, 16] tensor-coefficient requests...
        let nu = engine.dataset().nu_field(1, &[16, 16]);
        assert_eq!(nu.dims(), &[3, 16, 16]);
        let u = engine.predict(&nu).unwrap();
        assert_eq!(u.dims(), &[16, 16]);
        // ...with the paper's x-face boundary data imposed exactly.
        for j in 0..16 {
            assert_eq!(u.at(&[j, 0]), 1.0);
            assert_eq!(u.at(&[j, 15]), 0.0);
        }
        // ...and rejects the scalar shape the Poisson engine would take.
        let bad = engine.predict(&Tensor::ones([16, 16]));
        assert!(matches!(bad, Err(MgdError::ShapeMismatch { expected, .. })
            if expected == vec![3, 16, 16]));
        // ω requests rasterize + tensorize server-side and agree with the
        // explicit tensor field bitwise.
        let via_omega = engine
            .predict_omega(&engine.dataset().omegas[1].clone())
            .unwrap();
        assert_eq!(u.as_slice(), via_omega.as_slice());
        // Certified solves assemble the anisotropic operator: the returned
        // certificate is a machine-checked residual bound on K(T)u = F.
        let tol = 1e-8;
        let sol = engine
            .solve_certified(&InferenceRequest::coeff(nu.clone()), tol)
            .unwrap();
        assert!(sol.converged, "{:?}", sol.residual_history);
        assert!(sol.rel_residual <= tol);
        assert!(sol.u.iter().all(|x| x.is_finite()));
        // The certificate is backed by the operator itself, not by the
        // solver's bookkeeping: ‖b − K(T)u‖ recomputed on a freshly
        // assembled system must reproduce it.
        let sys = mgd_hybrid::ErasedSystem::with_operator(
            &[16, 16],
            PdeOperator::AnisoDiffusion,
            nu.as_slice(),
            &BoundarySpec::default(),
        )
        .unwrap();
        let zeros = vec![0.0; sys.num_nodes()];
        let check = sys.residual_norm(&sol.u, &zeros);
        assert!(
            (check - sol.residual_norm).abs() <= 1e-12 * (1.0 + check),
            "certificate {} drifted from recomputed residual {check}",
            sol.residual_norm
        );
        // And the §4.3 comparison runs against the anisotropic FEM truth.
        let c = engine.compare_sample(1).unwrap();
        assert!(c.rel_l2.is_finite());
        assert!(c.energy_nn >= c.energy_fem - 1e-9);
    }

    #[test]
    fn builder_rejects_mismatched_dataset_anisotropy() {
        // A scalar dataset cannot feed a tensor operator...
        let scalar = Dataset::sobol(8, DiffusivityModel::paper(), InputEncoding::LogNu);
        let e = aniso_builder().dataset(scalar).build();
        assert!(matches!(e, Err(MgdError::InvalidConfig(ref m)) if m.contains("anisotropy")));
        // ...and an anisotropic dataset cannot feed the Poisson operator.
        let tensor = Dataset::sobol(8, DiffusivityModel::paper(), InputEncoding::LogNu)
            .with_anisotropy(Anisotropy::new(4.0, 0.5).unwrap())
            .unwrap();
        let e = small_builder().dataset(tensor).build();
        assert!(matches!(e, Err(MgdError::InvalidConfig(ref m)) if m.contains("anisotropy")));
    }

    #[test]
    fn boundary_and_forcing_knobs_thread_through() {
        // All-faces Dirichlet + a forcing term: the predicted field pins
        // every boundary node, and the certified solve measures its
        // residual against the assembled load vector F ≠ 0.
        let engine = small_builder()
            .boundary(BoundarySpec::AllFaces { value: 0.0 })
            .forcing(Tensor::full([16, 16], 1.0))
            .build()
            .unwrap();
        let nu = engine.dataset().nu_field(1, &[16, 16]);
        let u = engine.predict(&nu).unwrap();
        for i in 0..16 {
            assert_eq!(u.at(&[0, i]), 0.0);
            assert_eq!(u.at(&[15, i]), 0.0);
            assert_eq!(u.at(&[i, 0]), 0.0);
            assert_eq!(u.at(&[i, 15]), 0.0);
        }
        let tol = 1e-8;
        let sol = engine
            .solve_certified(&InferenceRequest::coeff(nu), tol)
            .unwrap();
        assert!(sol.converged);
        assert!(sol.rel_residual <= tol);
        // With homogeneous Dirichlet walls and f = 1, the solution bulges
        // positive in the interior — zero only if the rhs were dropped.
        let mid = sol.u[8 * 16 + 8];
        assert!(mid > 1e-6, "forcing was lost: interior value {mid}");
        // Bad boundary data is a typed build error.
        let e = small_builder()
            .boundary(BoundarySpec::AllFaces { value: f64::NAN })
            .build();
        assert!(matches!(e, Err(MgdError::InvalidConfig(_))));
        // Mis-ranked forcing is too.
        let e = small_builder()
            .forcing(Tensor::full([4, 4, 4], 1.0))
            .build();
        assert!(matches!(e, Err(MgdError::InvalidConfig(ref m)) if m.contains("forcing")));
    }

    #[test]
    fn physics_changes_do_not_alias_cache_entries() {
        // Same ω queried through engines with different physics must miss
        // each other's keyspace — verified indirectly: the two snapshots'
        // losses fingerprint differently, which CacheKey folds in.
        let poisson = small_builder().build().unwrap();
        let forced = small_builder()
            .forcing(Tensor::full([16, 16], 1.0))
            .build()
            .unwrap();
        let aniso = aniso_builder().build().unwrap();
        let fp0 = poisson.snapshot().loss_fingerprint();
        let fp1 = forced.snapshot().loss_fingerprint();
        let fp2 = aniso.snapshot().loss_fingerprint();
        assert_ne!(fp0, fp1);
        assert_ne!(fp0, fp2);
        assert_ne!(fp1, fp2);
    }

    #[test]
    fn malformed_weight_file_is_a_checkpoint_error() {
        // A tensor entry with the model's shape but one value short must be
        // rejected by the reader, not panic in the copy into the model.
        let mut engine = small_builder().build().unwrap();
        let dir = std::env::temp_dir().join("mgd_engine_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("malformed_weights.json");
        engine.save_weights(&path).unwrap();
        let mut snap = WeightSnapshot::load(&path).unwrap();
        snap.tensors[0].1.pop();
        snap.save(&path).unwrap();
        let err = engine.load_weights(&path).unwrap_err();
        assert!(
            matches!(err, MgdError::Checkpoint(ref m) if m.contains("tensor 0")),
            "{err}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn weights_roundtrip_through_files() {
        let mut engine = small_builder().build().unwrap();
        // Sample 1, not 0: Sobol sample 0 is ω = 0, whose log-ν input is
        // identically zero — every zero-bias net answers 0.5 there.
        let nu = engine.dataset().nu_field(1, &[16, 16]);
        let y0 = engine.predict(&nu).unwrap();
        let dir = std::env::temp_dir().join("mgd_engine_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("weights.json");
        engine.save_weights(&path).unwrap();
        // A differently-seeded engine predicts differently, then matches
        // after loading the saved weights.
        let mut other = small_builder().seed(7).build().unwrap();
        assert!(other.predict(&nu).unwrap().rel_l2_error(&y0) > 1e-9);
        other.load_weights(&path).unwrap();
        assert!(other.predict(&nu).unwrap().rel_l2_error(&y0) < 1e-15);
        std::fs::remove_file(&path).ok();
    }
}
