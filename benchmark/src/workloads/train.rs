//! `train_halfv_3d`: the paper's headline path — one Half-V multigrid
//! training cycle (16³ → 32³) of a 3D Poisson surrogate, data-parallel
//! over two in-process workers with a ring all-reduce per mini-batch.
//!
//! `mgd_nn` forward+backward, `FemLoss`/`mgd_fem` energy+gradient and the
//! `mgd_dist` all-reduce do the work; cache, queue, hybrid solver and halo
//! exchange do none. The dataset is the paper's Sobol set and the model
//! seed is fixed, so the workload seed has no input to vary here — which
//! is what makes the loss trajectory an exact correctness gate, and
//! leaves `result_time_s` noisy only in seconds, never in epochs.

use super::{repeat_setup, same_bits, unet_config, EndToEnd, RunArgs};
use crate::frozen::*;
use crate::layers;
use crate::report::{Metric, Outcome, PhaseCounts};
use crate::stats::median;
use crate::trace::{
    Clock, CommStats, ModelStats, Sink, TracedComm, TracedModel, TracedOptimizer, Tracer,
};
use mgd_dist::launch_with;
use mgdiffnet::prelude::*;
use mgdiffnet::{LossSpec, SolverEngineBuilder};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Patience no phase can exhaust: every phase trains its whole budget.
const NO_EARLY_STOP: usize = 1_000_000;
const LEARNING_RATE: f64 = 3e-3;
const MIN_DELTA: f64 = 1e-3;

pub fn builder() -> SolverEngineBuilder {
    SolverEngine::builder()
        .resolution(TRAIN_DIMS)
        .problem(Problem::poisson_3d(DiffusivityModel::paper()))
        .cycle(CycleKind::HalfV)
        .levels(TRAIN_LEVELS)
        .samples(TRAIN_SAMPLES)
        .batch_size(TRAIN_BATCH)
        .parallelism(Parallelism::Threads(TRAIN_WORKERS))
        .max_epochs(TRAIN_EPOCHS)
        .patience(NO_EARLY_STOP)
        .min_delta(MIN_DELTA)
        .learning_rate(LEARNING_RATE)
        .net_depth(TRAIN_NET_DEPTH)
        .base_filters(TRAIN_FILTERS)
        .seed(MODEL_SEED)
}

fn level_dims(level: usize) -> Vec<usize> {
    TRAIN_DIMS.iter().map(|d| d >> level).collect()
}

/// Rasterizes every sample's network input and ν field at `dims`.
fn rasterize_dataset(data: &Dataset, dims: &[usize]) {
    for s in 0..data.len() {
        black_box(data.input_field(s, dims));
        black_box(data.nu_field(s, dims));
    }
}

/// What precedes the first timed epoch: engine build, the dataset at both
/// hierarchy levels, and one warm-up prediction through the snapshot.
fn setup() -> SolverEngine {
    let engine = builder().build().expect("train engine config is valid");
    for level in 0..TRAIN_LEVELS {
        rasterize_dataset(engine.dataset(), &level_dims(level));
    }
    let nu = engine.dataset().nu_field(0, &TRAIN_DIMS);
    black_box(engine.predict(&nu).expect("warm-up predict"));
    engine
}

fn losses(log: &MgRunLog) -> Vec<f64> {
    log.phases
        .iter()
        .flat_map(|p| p.losses.iter().copied())
        .collect()
}

/// The loss-trajectory gate: every epoch's loss equals the frozen
/// reference to rounding, and the run reaches L*.
fn check_trajectory(out: &mut Outcome, got: &[f64]) {
    out.gate(got.len() == TRAIN_REFERENCE_LOSSES.len(), || {
        format!(
            "trained {} epochs, reference has {}",
            got.len(),
            TRAIN_REFERENCE_LOSSES.len()
        )
    });
    for (epoch, (g, r)) in got.iter().zip(&TRAIN_REFERENCE_LOSSES).enumerate() {
        out.gate((g - r).abs() <= TRAIN_LOSS_REL_TOL * r.abs(), || {
            format!("epoch {epoch}: loss {g:e} differs from the frozen reference {r:e}")
        });
    }
    out.gate(got.iter().any(|&l| l <= TRAIN_TARGET_LOSS), || {
        format!("target loss {TRAIN_TARGET_LOSS} never reached")
    });
}

fn epochs_phase(log: &MgRunLog) -> PhaseCounts {
    let epochs: usize = log.phases.iter().map(|p| p.epochs).sum();
    PhaseCounts {
        phase: "epochs",
        attempted: (TRAIN_LEVELS * TRAIN_EPOCHS) as u64,
        succeeded: epochs as u64,
        failed: (TRAIN_LEVELS * TRAIN_EPOCHS).saturating_sub(epochs) as u64,
        refused: 0,
    }
}

pub fn run(args: RunArgs) -> Outcome {
    if args.trace {
        return traced(args);
    }
    let (mut engine, setup_s) = repeat_setup(setup);
    let log = engine.train().expect("training run");

    let mut out = Outcome {
        correct: true,
        ..Default::default()
    };
    let mut got = losses(&log);
    if args.corrupt {
        got[1] *= 1.0 + 1e-6;
    }
    check_trajectory(&mut out, &got);
    out.phases.push(epochs_phase(&log));

    let finest = log.phases.last().expect("schedule has phases");
    let epochs: usize = log.phases.iter().map(|p| p.epochs).sum();
    out.metrics = EndToEnd {
        result_time_s: (
            log.time_to_loss(TRAIN_TARGET_LOSS)
                .unwrap_or(log.total_seconds),
            epochs,
        ),
        variant_time_s: (finest.seconds / finest.epochs as f64, finest.epochs),
        throughput_per_s: (epochs * TRAIN_SAMPLES) as f64 / log.total_seconds,
        setup_s,
    }
    .metrics();
    out
}

// ---------------------------------------------------------------- traced

/// The U-Net `builder()` assembles by default, built here so it can be
/// wrapped before the trainer sees it.
fn unet() -> UNet {
    UNet::new(unet_config(false, TRAIN_NET_DEPTH, TRAIN_FILTERS))
}

fn schedule() -> MultigridTrainer {
    MultigridTrainer::with_spec(
        MgConfig {
            cycle: CycleKind::HalfV,
            levels: TRAIN_LEVELS,
            fixed_epochs: 3,
            adapt: false,
            cycles: 1,
        },
        TrainConfig {
            batch_size: TRAIN_BATCH,
            seed: MODEL_SEED,
            max_epochs: TRAIN_EPOCHS,
            patience: NO_EARLY_STOP,
            min_delta: MIN_DELTA,
        },
        TRAIN_DIMS.to_vec(),
        LossSpec::default(),
    )
    .expect("train schedule is valid")
}

fn dataset() -> Dataset {
    Dataset::sobol(
        TRAIN_SAMPLES,
        DiffusivityModel::paper(),
        InputEncoding::LogNu,
    )
}

/// Per-rank accounting of one traced training run.
struct TracedRun {
    log: MgRunLog,
    comm: Vec<Arc<CommStats>>,
    model: Vec<Arc<ModelStats>>,
    optimizer: Vec<Arc<Clock>>,
}

/// The engine's `Threads(p)` training path, reproduced through the public
/// `MultigridTrainer::run` with the model, optimizer and communicator of
/// every rank wrapped. Rank 0's spans hang under one root span.
fn run_traced(tracer: &Arc<Tracer>) -> TracedRun {
    let p = TRAIN_WORKERS;
    let comm: Vec<_> = (0..p).map(|_| Arc::new(CommStats::default())).collect();
    let model: Vec<_> = (0..p).map(|_| Arc::new(ModelStats::default())).collect();
    let optimizer: Vec<_> = (0..p).map(|_| Arc::new(Clock::default())).collect();
    let root = tracer.open("core.train", None, 0);
    let sink = |rank: usize| {
        (rank == 0).then(|| Sink {
            tracer: Arc::clone(tracer),
            parent: Some(root),
        })
    };
    let base = unet();
    let replicas: Vec<(TracedModel, TracedOptimizer)> = (0..p)
        .map(|r| {
            (
                TracedModel::new(Box::new(base.clone()), Arc::clone(&model[r]), sink(r)),
                TracedOptimizer::new(
                    Box::new(Adam::new(LEARNING_RATE)),
                    Arc::clone(&optimizer[r]),
                    sink(r),
                ),
            )
        })
        .collect();
    let (schedule, data) = (schedule(), dataset());
    let logs = launch_with(replicas, |c, (mut m, mut o)| {
        let rank = c.rank();
        let tc = TracedComm::new(c, Arc::clone(&comm[rank]), sink(rank));
        schedule.run(&mut m, &mut o, &data, &tc)
    });
    tracer.close(root);
    let log = logs
        .into_iter()
        .next()
        .expect("rank 0 ran")
        .expect("traced training run");
    TracedRun {
        log,
        comm,
        model,
        optimizer,
    }
}

/// Median milliseconds of `f` over `reps` calls after one warm-up.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let secs: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&secs) * 1e3
}

/// Replays one rank's share of a mini-batch directly at the layers the
/// trainer calls but no trait seam exposes: dataset rasterization
/// (`mgd_field`), the loss (`FemLoss` in core) and the energy+gradient
/// kernel under it (`mgd_fem`). Returns `(data_ms, loss_ms, fem_ms)`.
fn replay_minibatch(level: usize) -> (f64, f64, f64) {
    let dims = level_dims(level);
    let data = dataset();
    let local: Vec<usize> = (0..TRAIN_BATCH / TRAIN_WORKERS).collect();
    let data_ms = median_ms(5, || {
        black_box(data.try_batch_inputs(&local, &dims).expect("inputs"));
        black_box(data.try_batch_nu(&local, &dims).expect("nu"));
    });
    let x = data.try_batch_inputs(&local, &dims).expect("inputs");
    let nu = data.try_batch_nu(&local, &dims).expect("nu");
    let loss = FemLoss::with_spec(&dims, &LossSpec::default()).expect("loss");
    let u = unet().forward(&x, false);
    let loss_ms = median_ms(5, || {
        let mut u = u.clone();
        loss.apply_bc_batch(&mut u);
        black_box(loss.energy_grad_batch(&nu, &u));
    });
    let grid: mgd_fem::Grid<3> = mgd_fem::Grid::new([dims[0], dims[1], dims[2]]);
    let basis = mgd_fem::ElementBasis::new(&grid);
    let vol = grid.num_nodes();
    let mut grad = vec![0.0; vol];
    let fem_ms = median_ms(5, || {
        for (s, nu) in nu.iter().enumerate() {
            let us = &u.as_slice()[s * vol..(s + 1) * vol];
            black_box(mgd_fem::energy_grad(
                &grid,
                &basis,
                nu.as_slice(),
                us,
                None,
                &mut grad,
            ));
        }
    });
    (data_ms, loss_ms, fem_ms)
}

/// Cross-check of the communicator wrapper against the trainer's own
/// `EpochStats::comm_seconds` on one coarse-level epoch; both go to
/// stderr.
fn cross_check_comm_seconds() {
    let stats = Arc::new(CommStats::default());
    let (data, dims) = (dataset(), level_dims(1));
    let base = unet();
    let replicas: Vec<_> = (0..TRAIN_WORKERS)
        .map(|_| (base.clone(), Adam::new(LEARNING_RATE)))
        .collect();
    let reported = launch_with(replicas, |c, (mut m, mut o)| {
        let tc = TracedComm::new(c, Arc::clone(&stats), None);
        let cfg = schedule().train;
        let mut trainer =
            Trainer::new(&mut m, &mut o, &data, &tc, dims.clone(), cfg).expect("trainer");
        let log = trainer.train_fixed(1).expect("epoch");
        log.epochs.iter().map(|e| e.comm_seconds).sum::<f64>()
    });
    // Both ranks feed one accumulator; compare against both ranks' sums.
    eprintln!(
        "comm cross-check: TracedComm all-reduce {:.6} s vs EpochStats::comm_seconds {:.6} s",
        stats.allreduce.seconds(),
        reported.iter().sum::<f64>()
    );
}

fn traced(_args: RunArgs) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Default::default()
    };
    out.metrics = layers::tensor_metrics();

    // Untraced reference: the engine's own path.
    let mut engine = builder().build().expect("train engine config is valid");
    let plain = engine.train().expect("training run");

    let tracer = Tracer::new();
    let t = run_traced(&tracer);
    out.gate(same_bits(&losses(&plain), &losses(&t.log)), || {
        "traced and untraced loss trajectories differ".into()
    });
    check_trajectory(&mut out, &losses(&t.log));
    out.phases.push(epochs_phase(&t.log));

    // Level-0 mini-batches are the last `n0` of each span kind on rank 0.
    let minibatches = TRAIN_SAMPLES / TRAIN_BATCH;
    let n0 = TRAIN_EPOCHS * minibatches;
    let spans = tracer.spans();
    let level0_ms = |name: &str| {
        let ms: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.seconds() * 1e3)
            .collect();
        median(&ms[ms.len().saturating_sub(n0)..])
    };
    let m = &mut out.metrics;
    m.push(Metric::new(
        "nn.forward_ms",
        level0_ms("nn.forward"),
        "ms",
        n0,
    ));
    m.push(Metric::new(
        "nn.backward_ms",
        level0_ms("nn.backward"),
        "ms",
        n0,
    ));
    m.push(Metric::new(
        "nn.optimizer_ms",
        level0_ms("nn.optimizer"),
        "ms",
        n0,
    ));
    m.push(Metric::new(
        "dist.allreduce_ms",
        level0_ms("dist.allreduce"),
        "ms",
        n0,
    ));
    let comm0 = &t.comm[0];
    m.push(Metric::new(
        "dist.allreduce_calls",
        comm0.allreduce.calls() as f64,
        "count",
        0,
    ));
    m.push(Metric::new(
        "dist.allreduce_bytes",
        comm0
            .allreduce_bytes
            .load(std::sync::atomic::Ordering::Relaxed) as f64,
        "bytes",
        0,
    ));
    let wall = t.log.total_seconds;
    m.push(Metric::new(
        "dist.comm_share",
        comm0.allreduce.seconds() / wall,
        "share",
        0,
    ));
    m.push(Metric::new(
        "dist.rank_spawns",
        mgd_dist::total_rank_spawns() as f64,
        "count",
        0,
    ));

    // Replays below the trait seams, weighted by mini-batches per level.
    let mut replayed_s = 0.0;
    for level in 0..TRAIN_LEVELS {
        let (data_ms, loss_ms, fem_ms) = replay_minibatch(level);
        replayed_s += (TRAIN_EPOCHS * minibatches) as f64 * (data_ms + loss_ms) * 1e-3;
        if level == 0 {
            m.push(Metric::new("core.loss_ms", loss_ms, "ms", 5));
            m.push(Metric::new("fem.energy_grad_ms", fem_ms, "ms", 5));
        }
    }
    let t_data = Instant::now();
    rasterize_dataset(&dataset(), &TRAIN_DIMS);
    m.push(Metric::new(
        "field.dataset_build_s",
        t_data.elapsed().as_secs_f64(),
        "s",
        1,
    ));
    let seams_s = t.model[0].forward.seconds()
        + t.model[0].backward.seconds()
        + t.optimizer[0].seconds()
        + comm0.allreduce.seconds()
        + comm0.broadcast.seconds();
    m.push(Metric::new(
        "core.trainer_self_share",
        ((wall - seams_s - replayed_s) / wall).max(0.0),
        "share",
        0,
    ));
    let per_level = t.log.seconds_per_level(TRAIN_LEVELS);
    m.push(Metric::new(
        "core.level_time_share_l0",
        per_level[0] / wall,
        "share",
        0,
    ));
    m.push(Metric::new(
        "core.level_time_share_l1",
        per_level[1] / wall,
        "share",
        0,
    ));
    let to_target = losses(&t.log)
        .iter()
        .position(|&l| l <= TRAIN_TARGET_LOSS)
        .map_or(0, |i| i + 1);
    m.push(Metric::new(
        "core.epochs_to_target",
        to_target as f64,
        "count",
        0,
    ));
    m.push(Metric::new(
        "trace.overhead_share",
        (wall - plain.total_seconds) / plain.total_seconds,
        "share",
        0,
    ));
    eprintln!(
        "train trace: wall {wall:.3} s = seams {seams_s:.3} s + replayed loss/data {replayed_s:.3} s \
         + trainer self; untraced wall {:.3} s",
        plain.total_seconds
    );
    cross_check_comm_seconds();
    crate::write_spans("train_halfv_3d", &tracer);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traced path (public trainer + wrapped seams) and the engine's
    /// own path produce the same bits, on a budget small enough for a test.
    #[test]
    fn traced_training_is_bitwise_identical_to_the_engine() {
        let small = |b: SolverEngineBuilder| b.resolution([16, 16, 16]).max_epochs(1).samples(4);
        let mut engine = small(builder()).build().unwrap();
        let plain = engine.train().unwrap();

        let stats = Arc::new(ModelStats::default());
        let clock = Arc::new(Clock::default());
        let comm = Arc::new(CommStats::default());
        let schedule = MultigridTrainer::with_spec(
            schedule().mg,
            TrainConfig {
                max_epochs: 1,
                ..schedule().train
            },
            vec![16, 16, 16],
            LossSpec::default(),
        )
        .unwrap();
        let data = Dataset::sobol(4, DiffusivityModel::paper(), InputEncoding::LogNu);
        let replicas: Vec<_> = (0..TRAIN_WORKERS)
            .map(|_| {
                (
                    TracedModel::new(Box::new(unet()), Arc::clone(&stats), None),
                    TracedOptimizer::new(
                        Box::new(Adam::new(LEARNING_RATE)),
                        Arc::clone(&clock),
                        None,
                    ),
                )
            })
            .collect();
        let logs = launch_with(replicas, |c, (mut m, mut o)| {
            let tc = TracedComm::new(c, Arc::clone(&comm), None);
            schedule.run(&mut m, &mut o, &data, &tc).unwrap()
        });
        let (a, b) = (losses(&plain), losses(&logs[0]));
        assert_eq!(a.len(), 2);
        assert!(same_bits(&a, &b), "{a:?} vs {b:?}");
        // Every mini-batch went through every wrapper.
        assert_eq!(stats.forward.calls(), stats.backward.calls());
        assert_eq!(clock.calls(), stats.forward.calls());
        assert_eq!(comm.allreduce.calls(), stats.forward.calls());
    }
}
