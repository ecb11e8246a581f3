//! `slab_forward_3d`: the megavoxel path — closed loop, one client, a
//! 128·128·64 (1.05 Mvoxel) full-field prediction carved into two z-slabs
//! on a persistent rank pool with halo exchange overlapped with compute;
//! first at `Precision::F64`, then the same field at `Precision::F32`.
//!
//! `mgd_tensor` GEMM, `mgd_nn::spatial` and `mgd_dist` halo/`SlabPool` do
//! all the work; queue, cache, FEM and the hybrid solver are bypassed —
//! this is the "no change expected" control for serving, cache and solver
//! changes. The F32 half runs the same layers through other kernels and
//! another halo wire format, so an F64-only win that costs F32 shows.

use super::{repeat_setup, EndToEnd, RunArgs};
use crate::frozen::*;
use crate::gen::nu_fields;
use crate::layers;
use crate::report::{out_dir, Metric, Outcome, PhaseCounts};
use crate::stats::median;
use crate::trace::{CommStats, Sink, TracedComm, Tracer};
use mgd_cluster::{unet_flops_per_sample, ArchModel};
use mgd_dist::{assemble_planes, carve_planes, launch, Comm, SlabPartition};
use mgd_field::stack_fields;
use mgd_nn::layer::Dims5;
use mgd_nn::{SlabModel, SlabOpts, SplitAxis, WeightSnapshot, Workspace};
use mgd_tensor::Tensor;
use mgdiffnet::prelude::*;
use mgdiffnet::{Precision, SolverEngineBuilder};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Resolution of the set-up equivalence check.
const CHECK_DIMS: [usize; 3] = [32, 32, 32];

fn builder(
    dims: [usize; 3],
    parallelism: Parallelism,
    precision: Precision,
) -> SolverEngineBuilder {
    SolverEngine::builder()
        .resolution(dims)
        .problem(Problem::poisson_3d(DiffusivityModel::paper()))
        .levels(1)
        .parallelism(parallelism)
        .net_depth(SLAB_NET_DEPTH)
        .base_filters(SLAB_FILTERS)
        .cache_capacity(0)
        .precision(precision)
        .seed(MODEL_SEED)
}

fn unet_config() -> UNetConfig {
    super::unet_config(false, SLAB_NET_DEPTH, SLAB_FILTERS)
}

/// Trains the (resolution-agnostic) net briefly on a 16³ grid so the
/// megavoxel forwards run on non-trivial weights: an untrained net
/// predicts a constant, which would make every bitwise gate vacuous.
fn weight_file() -> PathBuf {
    let mut trainer = builder([16, 16, 16], Parallelism::Serial, Precision::F64)
        .cycle(CycleKind::Base)
        .samples(4)
        .batch_size(2)
        .max_epochs(2)
        .patience(usize::MAX)
        .build()
        .expect("pretraining engine config is valid");
    trainer.train().expect("pretraining");
    let path = out_dir().join(format!("slab_weights_{}.json", std::process::id()));
    trainer.save_weights(&path).expect("save weights");
    path
}

fn engine(
    dims: [usize; 3],
    parallelism: Parallelism,
    precision: Precision,
    weights: &Path,
) -> SolverEngine {
    let mut e = builder(dims, parallelism, precision)
        .build()
        .expect("slab engine config is valid");
    e.load_weights(weights).expect("load weights");
    e
}

fn bitwise_eq(a: &Tensor, b: &Tensor) -> bool {
    super::same_bits(a.as_slice(), b.as_slice())
}

struct Ctx {
    f64_engine: SolverEngine,
    f32_engine: SolverEngine,
    weights: PathBuf,
    nu: Tensor,
    /// The 32³ slab-vs-serial equivalence held in set-up.
    check_ok: bool,
}

impl Drop for Ctx {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.weights);
    }
}

/// The repeatable part of set-up: weights, both engines (each spawns its
/// rank pool at build), the seed's input field, and the 32³ check that
/// the slab forward equals the serial one bit for bit.
fn setup(args: RunArgs) -> Ctx {
    let weights = weight_file();
    let spatial = Parallelism::SpatialThreads(SLAB_RANKS);
    let model = DiffusivityModel::paper();
    let small = nu_fields(args.seed, 1, &model, &CHECK_DIMS).remove(0).1;
    let serial = engine(CHECK_DIMS, Parallelism::Serial, Precision::F64, &weights)
        .predict(&small)
        .expect("serial check predict");
    let slabbed = engine(CHECK_DIMS, spatial, Precision::F64, &weights)
        .predict(&small)
        .expect("slab check predict");
    Ctx {
        f64_engine: engine(SLAB_DIMS, spatial, Precision::F64, &weights),
        f32_engine: engine(SLAB_DIMS, spatial, Precision::F32, &weights),
        nu: nu_fields(args.seed, 1, &model, &SLAB_DIMS).remove(0).1,
        check_ok: bitwise_eq(&serial, &slabbed),
        weights,
    }
}

/// Forwards `nu` through `engine` until `window_s` has passed (at least
/// [`SLAB_MIN_FORWARDS`] times); returns per-forward seconds, the first
/// output, and whether every repeat reproduced it bit for bit.
fn forwards(
    engine: &SolverEngine,
    nu: &Tensor,
    window_s: f64,
    corrupt: bool,
) -> (Vec<f64>, Arc<Tensor>, bool) {
    let began = Instant::now();
    let mut secs = Vec::new();
    let mut first: Option<Arc<Tensor>> = None;
    let mut stable = true;
    while secs.len() < SLAB_MIN_FORWARDS || began.elapsed().as_secs_f64() < window_s {
        let t = Instant::now();
        let mut u = engine.predict(black_box(nu)).expect("slab forward");
        secs.push(t.elapsed().as_secs_f64());
        if corrupt && secs.len() == 2 {
            let mut bad = (*u).clone();
            let v = &mut bad.as_mut_slice()[12_345];
            *v = f64::from_bits(v.to_bits() ^ 1);
            u = Arc::new(bad);
        }
        match &first {
            None => first = Some(u),
            Some(f) => stable &= bitwise_eq(f, &u),
        }
    }
    (secs, first.expect("at least one forward"), stable)
}

fn max_abs_diff(a: &Tensor, b: &Tensor) -> f64 {
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

pub fn run(args: RunArgs) -> Outcome {
    if args.trace {
        return traced(args);
    }
    let (ctx, setup_repeat_s) = repeat_setup(|| setup(args));
    // One warm-up forward per precision (first-touch of the rank
    // workspaces), once: it is seconds long, so it needs no repeats.
    let t = Instant::now();
    black_box(ctx.f64_engine.predict(&ctx.nu).expect("warm-up"));
    black_box(ctx.f32_engine.predict(&ctx.nu).expect("warm-up"));
    let setup_s = setup_repeat_s + t.elapsed().as_secs_f64();

    let began = Instant::now();
    let (s64, u64_, stable64) = forwards(
        &ctx.f64_engine,
        &ctx.nu,
        args.seconds * SLAB_F64_SHARE,
        args.corrupt,
    );
    let (s32, u32_, stable32) = forwards(
        &ctx.f32_engine,
        &ctx.nu,
        args.seconds * (1.0 - SLAB_F64_SHARE),
        false,
    );
    let wall = began.elapsed().as_secs_f64();

    let mut out = Outcome {
        correct: true,
        ..Default::default()
    };
    out.gate(ctx.check_ok, || {
        "32³: SpatialThreads(2) and Serial forwards differ".into()
    });
    out.gate(stable64, || {
        "F64 forwards of one field did not repeat bit for bit".into()
    });
    out.gate(stable32, || {
        "F32 forwards of one field did not repeat bit for bit".into()
    });
    let dev = max_abs_diff(&u64_, &u32_);
    out.gate(dev <= SLAB_F32_TOL, || {
        format!("F32 deviates from F64 by {dev:e} (limit {SLAB_F32_TOL:e})")
    });
    for (phase, n) in [("f64", s64.len()), ("f32", s32.len())] {
        out.phases.push(PhaseCounts {
            phase,
            attempted: n as u64,
            succeeded: n as u64,
            ..Default::default()
        });
    }
    out.metrics = EndToEnd {
        result_time_s: (median(&s64), s64.len()),
        variant_time_s: (median(&s32), s32.len()),
        throughput_per_s: (s64.len() + s32.len()) as f64 / wall,
        setup_s,
    }
    .metrics();
    out
}

// ---------------------------------------------------------------- traced

/// Per-rank results of one replayed forward.
struct RankForward {
    seconds: f64,
    output: Vec<f64>,
}

/// Replays `n` slab forwards directly at `mgd_nn::spatial` on freshly
/// launched ranks, each rank's communicator wrapped when `stats` is given.
/// Returns `forwards[i][rank]`.
fn replay(
    model: &Arc<dyn SlabModel>,
    x: &Tensor,
    n: usize,
    stats: Option<(&[Arc<CommStats>], &Sink)>,
) -> Vec<Vec<RankForward>> {
    let d = Dims5::of(x);
    let layout = SplitAxis::Depth.layout(&d);
    let part = SlabPartition::aligned(d.d, SLAB_RANKS, model.spatial_align())
        .expect("frozen slab shape is aligned");
    let opts = SlabOpts::default();
    let per_rank: Vec<Vec<RankForward>> = launch(SLAB_RANKS, |comm| {
        let rank = comm.rank();
        let owned = part.owned_planes(rank);
        let slab = Tensor::from_vec(
            [d.n, d.c, owned.len(), d.h, d.w],
            carve_planes(x.as_slice(), &layout, owned.start, owned.end),
        );
        let mut ws = Workspace::new();
        let c: Box<dyn Comm> = match stats {
            Some((s, sink)) => {
                let sink = (rank == 0).then(|| sink.clone());
                Box::new(TracedComm::new(comm, Arc::clone(&s[rank]), sink))
            }
            None => Box::new(comm),
        };
        (0..n)
            .map(|_| {
                c.barrier();
                let t = Instant::now();
                let out = model.infer_slab(&slab, &*c, &mut ws, &opts);
                RankForward {
                    seconds: t.elapsed().as_secs_f64(),
                    output: out.into_vec(),
                }
            })
            .collect()
    });
    // Transpose to forward-major.
    let mut ranks: Vec<_> = per_rank.into_iter().map(Vec::into_iter).collect();
    (0..n)
        .map(|_| {
            ranks
                .iter_mut()
                .map(|r| r.next().expect("n forwards"))
                .collect()
        })
        .collect()
}

fn traced(args: RunArgs) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Default::default()
    };
    out.metrics = layers::tensor_metrics();
    let ctx = setup(args);
    out.gate(ctx.check_ok, || {
        "32³: SpatialThreads(2) and Serial forwards differ".into()
    });
    let n = SLAB_TRACE_FORWARDS;

    // Through the engine: rank pool, prepacked weights, stitching.
    black_box(ctx.f64_engine.predict(&ctx.nu).expect("warm-up"));
    let spawns0 = mgd_dist::total_rank_spawns();
    let (packs0, reuses0) = mgd_nn::prepack_stats();
    let tracer = Tracer::new();
    let root = tracer.open("slab.forwards", None, 0);
    let mut engine_s = Vec::new();
    let mut reference = None;
    for i in 0..n {
        let t = Instant::now();
        let u = ctx.f64_engine.predict(&ctx.nu).expect("slab forward");
        engine_s.push(t.elapsed().as_secs_f64());
        tracer.record("core.predict", t, Instant::now(), Some(root), i as u64);
        reference = Some(u);
    }
    let reference = reference.expect("n >= 1");
    let (packs1, reuses1) = mgd_nn::prepack_stats();
    let served = ctx.f64_engine.stats();
    let m = &mut out.metrics;
    m.push(Metric::new(
        "dist.rank_spawns",
        (mgd_dist::total_rank_spawns() - spawns0) as f64,
        "count",
        0,
    ));
    m.push(Metric::new(
        "dist.slab_pool_misses",
        served.slab_pool_misses as f64,
        "count",
        0,
    ));
    m.push(Metric::new(
        "core.forward_passes",
        served.forward_passes as f64,
        "count",
        0,
    ));
    m.push(Metric::new(
        "nn.prepack_builds",
        (packs1 - packs0) as f64,
        "count",
        0,
    ));
    m.push(Metric::new(
        "nn.prepack_reuses",
        (reuses1 - reuses0) as f64,
        "count",
        0,
    ));
    let arch = ArchModel {
        in_channels: 1,
        out_channels: 1,
        depth: SLAB_NET_DEPTH,
        base_filters: SLAB_FILTERS,
        two_d: false,
    };
    let flops = unet_flops_per_sample(&arch, (SLAB_DIMS[0], SLAB_DIMS[1], SLAB_DIMS[2]));
    // Computed operation count over measured time.
    m.push(Metric::new(
        "nn.forward_gflops",
        flops / median(&engine_s) / 1e9,
        "GFLOP/s",
        n,
    ));

    // One layer down: the same forward at `mgd_nn::spatial`, on plain and
    // on wrapped communicators.
    let mut net = UNet::new(unet_config());
    WeightSnapshot::load(&ctx.weights)
        .expect("load weights")
        .restore(&mut net)
        .expect("restore weights");
    let model = net.share_slab().expect("the U-Net has a slab view");
    let x = stack_fields(&[InputEncoding::LogNu.encode(&ctx.nu)]).expect("stack");
    let plain = replay(&model, &x, n, None);
    let stats: Vec<_> = (0..SLAB_RANKS)
        .map(|_| Arc::new(CommStats::default()))
        .collect();
    let replay_root = tracer.open("nn.infer_slab", None, 0);
    let sink = Sink {
        tracer: Arc::clone(&tracer),
        parent: Some(replay_root),
    };
    mgd_nn::reset_measured_peak();
    let wrapped = replay(&model, &x, n, Some((&stats, &sink)));
    tracer.close(replay_root);
    tracer.close(root);
    let peak_elems = mgd_nn::measured_peak_elems();

    // Traced, untraced and engine outputs are the same bits (the engine
    // imposes the boundary values after stitching).
    let loss = FemLoss::new(&SLAB_DIMS).expect("loss");
    for (what, forward) in [("untraced", &plain[0]), ("traced", &wrapped[0])] {
        let slabs: Vec<Vec<f64>> = forward.iter().map(|r| r.output.clone()).collect();
        let d = Dims5::of(&x);
        let mut u = Tensor::from_vec([1, 1, d.d, d.h, d.w], assemble_planes(&slabs, 1, d.h * d.w));
        loss.apply_bc_batch(&mut u);
        out.gate(bitwise_eq(&u, &reference), || {
            format!("{what} slab replay differs from the engine's forward")
        });
    }

    let wall = |f: &Vec<RankForward>| f.iter().map(|r| r.seconds).fold(0.0, f64::max);
    let plain_s: Vec<f64> = plain.iter().map(wall).collect();
    let wrapped_s: Vec<f64> = wrapped.iter().map(wall).collect();
    let calls = (n * SLAB_RANKS) as f64;
    let wait_s: Vec<f64> = stats.iter().map(|s| s.recv.seconds() / n as f64).collect();
    let sent = |f: fn(&CommStats) -> u64| stats.iter().map(|s| f(s)).sum::<u64>() as f64 / n as f64;
    let m = &mut out.metrics;
    m.push(Metric::new(
        "dist.halo_wait_ms",
        stats.iter().map(|s| s.recv.seconds()).sum::<f64>() / calls * 1e3,
        "ms",
        n * SLAB_RANKS,
    ));
    m.push(Metric::new(
        "dist.halo_messages",
        sent(|s| s.sent_messages.load(Ordering::Relaxed)),
        "count",
        0,
    ));
    m.push(Metric::new(
        "dist.halo_bytes",
        sent(|s| s.sent_bytes.load(Ordering::Relaxed)),
        "bytes",
        0,
    ));
    let rank_s: Vec<f64> = (0..SLAB_RANKS)
        .map(|r| median(&wrapped.iter().map(|f| f[r].seconds).collect::<Vec<_>>()))
        .collect();
    let mean_rank = rank_s.iter().sum::<f64>() / SLAB_RANKS as f64;
    m.push(Metric::new(
        "dist.rank_imbalance",
        rank_s.iter().copied().fold(0.0, f64::max) / mean_rank,
        "ratio",
        0,
    ));
    m.push(Metric::new(
        "nn.slab_compute_s",
        rank_s
            .iter()
            .zip(&wait_s)
            .map(|(t, w)| t - w)
            .fold(0.0, f64::max),
        "s",
        n,
    ));
    let slab_dims = [SLAB_DIMS[0] / SLAB_RANKS, SLAB_DIMS[1], SLAB_DIMS[2]];
    let model_elems =
        mgd_nn::activation_peak_elems_opts(&unet_config(), 1, slab_dims, 1, &SlabOpts::default());
    m.push(Metric::new(
        "nn.measured_peak_mb",
        peak_elems as f64 * 8.0 / 1e6,
        "MB",
        0,
    ));
    m.push(Metric::new(
        "nn.model_peak_mb",
        model_elems as f64 * 8.0 / 1e6,
        "MB",
        0,
    ));
    // Fastest forward of each kind: the two replays run one after the
    // other, and on a shared box only the quiet forwards are comparable.
    let fastest = |s: &[f64]| s.iter().copied().fold(f64::INFINITY, f64::min);
    m.push(Metric::new(
        "trace.overhead_share",
        (fastest(&wrapped_s) - fastest(&plain_s)) / fastest(&plain_s),
        "share",
        0,
    ));
    out.phases.push(PhaseCounts {
        phase: "f64",
        attempted: 3 * n as u64,
        succeeded: 3 * n as u64,
        ..Default::default()
    });
    eprintln!(
        "slab trace: engine {:.3} s, replay {:.3} s, wrapped replay {:.3} s per forward; \
         rank wait {:?} s",
        median(&engine_s),
        median(&plain_s),
        median(&wrapped_s),
        wait_s
    );
    crate::write_spans("slab_forward_3d", &tracer);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// At 32³: the slab forward replayed on wrapped communicators gives the
    /// bits of the replay on plain ones and of the engine's own forward,
    /// and the wrapper saw every halo message.
    #[test]
    fn traced_slab_replay_is_bitwise_identical_to_the_engine() {
        let weights = weight_file();
        let spatial = Parallelism::SpatialThreads(SLAB_RANKS);
        let nu = nu_fields(5, 1, &DiffusivityModel::paper(), &CHECK_DIMS)
            .remove(0)
            .1;
        let reference = engine(CHECK_DIMS, spatial, Precision::F64, &weights)
            .predict(&nu)
            .unwrap();
        let mut net = UNet::new(unet_config());
        WeightSnapshot::load(&weights)
            .unwrap()
            .restore(&mut net)
            .unwrap();
        std::fs::remove_file(&weights).unwrap();
        let model = net.share_slab().unwrap();
        let x = stack_fields(&[InputEncoding::LogNu.encode(&nu)]).unwrap();
        let stats: Vec<_> = (0..SLAB_RANKS)
            .map(|_| Arc::new(CommStats::default()))
            .collect();
        let sink = Sink {
            tracer: Tracer::new(),
            parent: None,
        };
        let plain = replay(&model, &x, 1, None);
        let wrapped = replay(&model, &x, 1, Some((&stats, &sink)));
        let loss = FemLoss::new(&CHECK_DIMS).unwrap();
        for forward in [&plain[0], &wrapped[0]] {
            let slabs: Vec<Vec<f64>> = forward.iter().map(|r| r.output.clone()).collect();
            let [d, h, w] = CHECK_DIMS;
            let mut u = Tensor::from_vec([1, 1, d, h, w], assemble_planes(&slabs, 1, h * w));
            loss.apply_bc_batch(&mut u);
            assert!(bitwise_eq(&u, &reference));
        }
        let sent: u64 = stats
            .iter()
            .map(|s| s.sent_messages.load(Ordering::Relaxed))
            .sum();
        let received: u64 = stats.iter().map(|s| s.recv.calls()).sum();
        assert!(sent > 0 && sent == received);
        assert!(!sink.tracer.spans().is_empty(), "rank 0 logged its waits");
    }
}
