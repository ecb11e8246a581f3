//! The four workloads. Each runs in its own process (the pipeline's
//! `--workload` call, or a child of the `run`/`trace`/`aa` commands), so
//! peak RSS and allocator state belong to one workload alone.

pub mod certify;
pub mod serve;
pub mod slab;
pub mod train;

use crate::report::{peak_rss_mb, Metric, Outcome};
use crate::stats::median;
use std::time::Instant;

/// Workload names, in the order `run` executes them.
pub const NAMES: [&str; 4] = [
    "train_halfv_3d",
    "serve_queue_2d",
    "slab_forward_3d",
    "certify_3d",
];

/// Arguments of one workload run.
#[derive(Clone, Copy, Debug)]
pub struct RunArgs {
    /// Seeds the generated inputs, and nothing else.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Test hook: corrupt one answer before the correctness gates look.
    pub corrupt: bool,
}

/// Runs one workload by name.
pub fn run(name: &str, args: RunArgs) -> Option<Outcome> {
    let mut outcome = match name {
        "train_halfv_3d" => train::run(args),
        "serve_queue_2d" => serve::run(args),
        "slab_forward_3d" => slab::run(args),
        "certify_3d" => certify::run(args),
        _ => return None,
    };
    if args.trace {
        outcome.metrics = per_layer(std::mem::take(&mut outcome.metrics));
    } else {
        outcome
            .metrics
            .push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB", 0));
    }
    Some(outcome)
}

/// The four workload-measured end-to-end metrics (`peak_rss_mb` is added
/// by [`run`] once the workload is over).
pub struct EndToEnd {
    /// Time to the result a user asked for: time to the target loss, a
    /// request's median latency, one forward, one certified solve.
    pub result_time_s: (f64, usize),
    /// The workload's second gated timing: finest-level epoch, p95
    /// latency, the F32 forward, the pure-multigrid solve.
    pub variant_time_s: (f64, usize),
    /// Work completed per second of the measured window.
    pub throughput_per_s: f64,
    pub setup_s: f64,
}

impl EndToEnd {
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            Metric::new(
                "result_time_s",
                self.result_time_s.0,
                "s",
                self.result_time_s.1,
            ),
            Metric::new(
                "variant_time_s",
                self.variant_time_s.0,
                "s",
                self.variant_time_s.1,
            ),
            Metric::new("throughput_per_s", self.throughput_per_s, "1/s", 0),
            Metric::new("setup_s", self.setup_s, "s", SETUP_REPEATS),
        ]
    }
}

/// The configuration `SolverEngineBuilder` gives its default U-Net, for
/// the places that must build the net themselves (to wrap it before an
/// engine or trainer sees it, or to take its slab view directly).
pub fn unet_config(two_d: bool, depth: usize, base_filters: usize) -> mgd_nn::UNetConfig {
    mgd_nn::UNetConfig {
        two_d,
        in_channels: 1,
        depth,
        base_filters,
        batch_norm: true,
        seed: crate::frozen::MODEL_SEED,
        ..Default::default()
    }
}

/// Whether two fields are the same bits (the equality every
/// traced-vs-untraced and repeat-vs-repeat gate means).
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Runs `setup` [`SETUP_REPEATS`] times, dropping each context before the
/// next so the repeats do not stack in memory, and returns the last
/// context with the median set-up time.
pub fn repeat_setup<C>(mut setup: impl FnMut() -> C) -> (C, f64) {
    let mut secs = Vec::with_capacity(SETUP_REPEATS);
    let mut ctx = None;
    for _ in 0..SETUP_REPEATS {
        drop(ctx.take());
        let t = Instant::now();
        ctx = Some(setup());
        secs.push(t.elapsed().as_secs_f64());
    }
    (ctx.expect("SETUP_REPEATS >= 1"), median(&secs))
}

/// `(name, unit)` of every per-layer metric, in report order. A traced run
/// of any workload reports all of them; a layer the workload never enters
/// reports 0 work, which is the "bypassed" half of each prediction.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("tensor.gemm_f64_gflops", "GFLOP/s"),
    ("tensor.gemm_f32_gflops", "GFLOP/s"),
    ("tensor.gemm_splitk_f64_gflops", "GFLOP/s"),
    ("tensor.peak_gemm_f64_gflops", "GFLOP/s"),
    ("tensor.stream_triad_gbps", "GB/s"),
    ("nn.forward_ms", "ms"),
    ("nn.backward_ms", "ms"),
    ("nn.optimizer_ms", "ms"),
    ("nn.infer_b1_ms", "ms"),
    ("nn.infer_b8_ms_per_field", "ms"),
    ("nn.slab_compute_s", "s"),
    ("nn.forward_gflops", "GFLOP/s"),
    ("nn.measured_peak_mb", "MB"),
    ("nn.model_peak_mb", "MB"),
    ("nn.prepack_builds", "count"),
    ("nn.prepack_reuses", "count"),
    ("fem.energy_grad_ms", "ms"),
    ("fem.system_build_ms", "ms"),
    ("fem.hierarchy_build_ms", "ms"),
    ("fem.apply_ms", "ms"),
    ("fem.vcycle_ms", "ms"),
    ("fem.apply_gbps_computed", "GB/s"),
    ("fem.pcg_iterations", "count"),
    ("field.dataset_build_s", "s"),
    ("field.nu_field_ms", "ms"),
    ("field.rasterize_omega_ms", "ms"),
    ("dist.allreduce_ms", "ms"),
    ("dist.allreduce_calls", "count"),
    ("dist.allreduce_bytes", "bytes"),
    ("dist.comm_share", "share"),
    ("dist.halo_wait_ms", "ms"),
    ("dist.halo_messages", "count"),
    ("dist.halo_bytes", "bytes"),
    ("dist.rank_imbalance", "ratio"),
    ("dist.rank_spawns", "count"),
    ("dist.slab_pool_misses", "count"),
    ("hybrid.outer_iterations", "count"),
    ("hybrid.surrogate_ms", "ms"),
    ("hybrid.driver_self_ms", "ms"),
    ("hybrid.fell_back_share", "share"),
    ("hybrid.speedup_vs_pure", "ratio"),
    ("core.cache_hit_ratio", "ratio"),
    ("core.cache_evictions", "count"),
    ("core.forward_passes", "count"),
    ("core.fields_per_forward", "ratio"),
    ("core.workspace_pool_misses", "count"),
    ("core.predict_self_ms", "ms"),
    ("core.publish_ms", "ms"),
    ("core.loss_ms", "ms"),
    ("core.trainer_self_share", "share"),
    ("core.level_time_share_l0", "share"),
    ("core.level_time_share_l1", "share"),
    ("core.epochs_to_target", "count"),
    ("serve.mean_batch", "ratio"),
    ("serve.max_batch", "count"),
    ("serve.batches", "count"),
    ("serve.rejected_share", "share"),
    ("serve.dispatch_overhead_us", "us"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.latency_p99_ms", "ms"),
    ("serve.post_swap_p95_ms", "ms"),
    ("serve.generator_lag_p99_ms", "ms"),
    ("trace.overhead_share", "share"),
];

/// Expands what a traced workload measured to the full per-layer list:
/// every name of [`PER_LAYER`] once, in order, 0 where the workload did no
/// work in that layer. Panics on a name outside the list (a typo would
/// otherwise vanish silently).
fn per_layer(measured: Vec<Metric>) -> Vec<Metric> {
    for m in &measured {
        assert!(
            PER_LAYER.iter().any(|(n, u)| *n == m.name && *u == m.unit),
            "per-layer metric {} [{}] is not declared",
            m.name,
            m.unit
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            measured
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::new(name, 0.0, unit, 0))
        })
        .collect()
}
