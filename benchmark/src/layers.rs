//! Kernel-level probes of `mgd_tensor`, run inside every traced run so
//! the roofline denominators (peak GEMM rate, sustainable bandwidth) come
//! from the same process and moment as the numbers they normalise.

use crate::report::{llc_bytes, Metric};
use crate::stats::median;
use mgd_tensor::matmul::gemm;
use mgd_tensor::GemmElement;
use std::hint::black_box;
use std::time::Instant;

/// The im2col GEMM that dominates `slab_forward_3d`: the level-0 merge
/// conv (16 → 8 channels, 3³ stencil ⇒ k = 432) over one ~8 MiB patch
/// chunk of columns.
const FORWARD_SHAPE: (usize, usize, usize) = (8, 2432, 432);
/// The same layer's weight-gradient product on one 32³ training sample:
/// tiny output, k = 32 768 — the split-k path.
const WGRAD_SHAPE: (usize, usize, usize) = (8, 432, 32_768);
const PEAK_SHAPE: (usize, usize, usize) = (1024, 1024, 1024);
/// Per-array cap of the triad probe; see [`stream_triad_gbps`].
const TRIAD_CAP_BYTES: u64 = 256 << 20;

fn fill<E: GemmElement>(n: usize, phase: f64) -> Vec<E> {
    (0..n)
        .map(|i| E::from_f64((i as f64 * 0.37 + phase).sin()))
        .collect()
}

/// Median GFLOP/s of `C = A·B` at `(m, n, k)` over `reps` timed calls
/// (after one warm-up), through the public `matmul::gemm`.
fn gemm_gflops<E: GemmElement>((m, n, k): (usize, usize, usize), reps: usize) -> f64 {
    let a = fill::<E>(m * k, 0.1);
    let b = fill::<E>(k * n, 0.7);
    let mut c = vec![E::ZERO; m * n];
    let flops = 2.0 * m as f64 * n as f64 * k as f64;
    let mut secs = Vec::with_capacity(reps);
    for rep in 0..=reps {
        let t = Instant::now();
        gemm(
            m,
            n,
            k,
            black_box(&a),
            false,
            black_box(&b),
            false,
            &mut c,
            false,
        );
        black_box(&c);
        if rep > 0 {
            secs.push(t.elapsed().as_secs_f64());
        }
    }
    flops / median(&secs) / 1e9
}

/// STREAM triad `a = b + s·c` bandwidth in GB/s (3 arrays × 8 B per
/// element moved). Each array is four times the last-level cache the
/// kernel reports, capped at 256 MiB: this VM reports its host's whole
/// 260 MiB L3, and 3 × 1 GiB of probe would dwarf the workloads. Both
/// sizes are printed so the cap is visible.
fn stream_triad_gbps() -> f64 {
    let llc = llc_bytes();
    let bytes = (4 * llc).clamp(32 << 20, TRIAD_CAP_BYTES);
    eprintln!("stream triad: array {bytes} B each, reported LLC {llc} B");
    let n = (bytes / 8) as usize;
    let b = vec![1.5f64; n];
    let c = vec![0.25f64; n];
    let mut a = vec![0.0f64; n];
    let mut secs = Vec::new();
    for rep in 0..4 {
        let t = Instant::now();
        for ((ai, bi), ci) in a.iter_mut().zip(black_box(&b)).zip(black_box(&c)) {
            *ai = bi + 3.0 * ci;
        }
        black_box(&a);
        if rep > 0 {
            secs.push(t.elapsed().as_secs_f64());
        }
    }
    3.0 * bytes as f64 / median(&secs) / 1e9
}

/// The five `tensor.*` metrics.
pub fn tensor_metrics() -> Vec<Metric> {
    vec![
        Metric::new(
            "tensor.gemm_f64_gflops",
            gemm_gflops::<f64>(FORWARD_SHAPE, 30),
            "GFLOP/s",
            30,
        ),
        Metric::new(
            "tensor.gemm_f32_gflops",
            gemm_gflops::<f32>(FORWARD_SHAPE, 30),
            "GFLOP/s",
            30,
        ),
        Metric::new(
            "tensor.gemm_splitk_f64_gflops",
            gemm_gflops::<f64>(WGRAD_SHAPE, 10),
            "GFLOP/s",
            10,
        ),
        Metric::new(
            "tensor.peak_gemm_f64_gflops",
            gemm_gflops::<f64>(PEAK_SHAPE, 5),
            "GFLOP/s",
            5,
        ),
        Metric::new("tensor.stream_triad_gbps", stream_triad_gbps(), "GB/s", 3),
    ]
}
