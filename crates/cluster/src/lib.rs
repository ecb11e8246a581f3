//! Performance model of the paper's GPU/CPU clusters.
//!
//! The paper's strong-scaling studies (Figures 9 and 10) ran on 512 V100
//! GPUs (Azure NDv2) and 128 AMD EPYC-7742 nodes (PSC Bridges2) — hardware
//! this reproduction cannot access. In their place, this crate models the
//! two quantities that govern those curves:
//!
//! 1. **compute per sample** — U-Net forward+backward FLOPs divided by an
//!    *effective* device throughput (peak × calibrated efficiency; the
//!    efficiency constant is anchored to the paper's 48 min/epoch single-GPU
//!    measurement at 256³);
//! 2. **ring all-reduce time** — `2(p−1)/p · bytes / bw + 2(p−1)·latency`
//!    per mini-batch, with the inter-node link shared by the co-located
//!    devices of a node.
//!
//! Small-scale *measured* scaling (the in-process ranks of `mgd-dist`)
//! validates the shape where we can measure; this model extends the curves
//! to paper scale. See `mgd-bench` bins `fig9_gpu_scaling` and
//! `fig10_cpu_scaling`.

pub mod model;
pub mod specs;

pub use model::{
    strong_scaling, unet_flops_per_sample, unet_params, weak_scaling, ArchModel, EpochTime,
    RunConfig, ScalingPoint,
};
pub use specs::{azure_ndv2, bridges2, MachineSpec};
