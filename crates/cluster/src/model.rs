//! The analytic epoch-time model.

use crate::specs::MachineSpec;

/// Architecture mirror of `mgd_nn::UNetConfig` (kept dependency-free so the
/// model can describe networks it never instantiates, e.g. the 256³ one).
#[derive(Clone, Copy, Debug)]
pub struct ArchModel {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Down/up stages.
    pub depth: usize,
    /// First-level filters.
    pub base_filters: usize,
    /// 2D networks use `(1,k,k)` kernels.
    pub two_d: bool,
}

impl Default for ArchModel {
    fn default() -> Self {
        ArchModel {
            in_channels: 1,
            out_channels: 1,
            depth: 3,
            base_filters: 16,
            two_d: false,
        }
    }
}

impl ArchModel {
    fn channels(&self, i: usize) -> usize {
        self.base_filters << i
    }

    fn conv_kernel_volume(&self) -> usize {
        if self.two_d {
            9
        } else {
            27
        }
    }

    fn up_kernel_volume(&self) -> usize {
        if self.two_d {
            4
        } else {
            8
        }
    }

    fn level_factor(&self) -> usize {
        if self.two_d {
            4
        } else {
            8
        }
    }
}

/// Learnable parameter count of the modeled U-Net (mirrors
/// `mgd_nn::UNet::num_parameters`, validated against it in the integration
/// tests).
pub fn unet_params(arch: &ArchModel) -> usize {
    let kv = arch.conv_kernel_volume();
    let ukv = arch.up_kernel_volume();
    let mut total = 0usize;
    let conv = |cin: usize, cout: usize, k: usize| cin * cout * k + cout /* bias */ + 2 * cout /* bn */;
    for i in 0..arch.depth {
        let cin = if i == 0 {
            arch.in_channels
        } else {
            arch.channels(i - 1)
        };
        total += conv(cin, arch.channels(i), kv);
    }
    total += conv(arch.channels(arch.depth - 1), arch.channels(arch.depth), kv);
    for i in 0..arch.depth {
        // Transpose conv (no BN) + merge block.
        total += arch.channels(i + 1) * arch.channels(i) * ukv + arch.channels(i);
        total += conv(2 * arch.channels(i), arch.channels(i), kv);
    }
    // Head conv 1×1 (no BN).
    total += arch.channels(0) * arch.out_channels + arch.out_channels;
    total
}

/// Forward-pass FLOPs for one sample at resolution `(d, h, w)` (counting a
/// multiply-add as 2 FLOPs; pooling/activations are negligible).
pub fn unet_flops_per_sample(arch: &ArchModel, dims: (usize, usize, usize)) -> f64 {
    let (d, h, w) = dims;
    let vox0 = (d * h * w) as f64;
    let kv = arch.conv_kernel_volume() as f64;
    let ukv = arch.up_kernel_volume() as f64;
    let lf = arch.level_factor() as f64;
    let conv = |vox: f64, cin: usize, cout: usize, k: f64| vox * cin as f64 * cout as f64 * k * 2.0;
    let mut flops = 0.0;
    for i in 0..arch.depth {
        let vox = vox0 / lf.powi(i as i32);
        let cin = if i == 0 {
            arch.in_channels
        } else {
            arch.channels(i - 1)
        };
        flops += conv(vox, cin, arch.channels(i), kv);
    }
    let vox_b = vox0 / lf.powi(arch.depth as i32);
    flops += conv(
        vox_b,
        arch.channels(arch.depth - 1),
        arch.channels(arch.depth),
        kv,
    );
    for i in 0..arch.depth {
        let vox = vox0 / lf.powi(i as i32);
        flops += conv(vox, arch.channels(i + 1), arch.channels(i), ukv / lf) * lf; // convT scatter
        flops += conv(vox, 2 * arch.channels(i), arch.channels(i), kv);
    }
    flops += conv(vox0, arch.channels(0), arch.out_channels, 1.0);
    flops
}

/// One strong-scaling run configuration.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Machine model.
    pub spec: MachineSpec,
    /// Network architecture.
    pub arch: ArchModel,
    /// Field resolution `(d, h, w)` (`d = 1` for 2D).
    pub resolution: (usize, usize, usize),
    /// Total training samples per epoch.
    pub samples: usize,
    /// Local (per-worker) mini-batch size.
    pub local_batch: usize,
    /// Gradient element width in bytes (the paper trains fp32).
    pub grad_bytes: usize,
}

/// Modeled epoch cost breakdown.
#[derive(Clone, Copy, Debug)]
pub struct EpochTime {
    /// Compute seconds per epoch.
    pub compute_s: f64,
    /// All-reduce seconds per epoch.
    pub comm_s: f64,
    /// Total seconds.
    pub total_s: f64,
    /// Mini-batch steps per epoch.
    pub steps: usize,
}

/// Models one epoch on `workers` devices.
pub fn epoch_time(cfg: &RunConfig, workers: usize) -> EpochTime {
    assert!(workers >= 1);
    let spec = &cfg.spec;
    let fwd = unet_flops_per_sample(&cfg.arch, cfg.resolution);
    // Backward ≈ 2× forward (grad-input + grad-weight passes).
    let flops_per_sample = 3.0 * fwd;
    let t_sample = flops_per_sample / (spec.device_peak_flops * spec.efficiency);

    let local_samples = cfg.samples.div_ceil(workers);
    let steps = local_samples.div_ceil(cfg.local_batch);
    let compute_s = local_samples as f64 * t_sample;

    // Ring all-reduce per step over the gradient vector.
    let nw = unet_params(&cfg.arch) as f64;
    let bytes = nw * cfg.grad_bytes as f64;
    let wpn = spec.workers_per_node();
    let nodes = workers.div_ceil(wpn);
    let comm_per_step = if workers == 1 {
        0.0
    } else {
        // Bottleneck link: intra-node fabric for single-node rings; the
        // node's injection bandwidth shared by its co-located workers when
        // the ring crosses nodes.
        let bw_gbps = if nodes == 1 {
            spec.intra_node_bw_gbps
        } else {
            spec.bandwidth_gbps / wpn.min(workers) as f64
        };
        let bw = bw_gbps * 1e9 / 8.0; // bytes/s
        let p = workers as f64;
        2.0 * (p - 1.0) / p * bytes / bw + 2.0 * (p - 1.0) * spec.latency_s
    };
    let comm_s = comm_per_step * steps as f64;
    EpochTime {
        compute_s,
        comm_s,
        total_s: compute_s + comm_s,
        steps,
    }
}

/// One row of a strong-scaling curve.
#[derive(Clone, Debug)]
pub struct ScalingPoint {
    /// Worker (device) count.
    pub workers: usize,
    /// Node count.
    pub nodes: usize,
    /// Epoch cost breakdown.
    pub epoch: EpochTime,
    /// Speedup vs. the 1-worker run.
    pub speedup: f64,
    /// Parallel efficiency `speedup / workers`.
    pub efficiency: f64,
}

/// Sweeps worker counts and returns the strong-scaling curve.
pub fn strong_scaling(cfg: &RunConfig, worker_counts: &[usize]) -> Vec<ScalingPoint> {
    let base = epoch_time(cfg, 1).total_s;
    worker_counts
        .iter()
        .map(|&p| {
            let epoch = epoch_time(cfg, p);
            let speedup = base / epoch.total_s;
            ScalingPoint {
                workers: p,
                nodes: p.div_ceil(cfg.spec.workers_per_node()),
                epoch,
                speedup,
                efficiency: speedup / p as f64,
            }
        })
        .collect()
}

/// Weak-scaling sweep: the per-worker workload is held constant
/// (`samples_per_worker`), so the ideal curve is a *flat* epoch time.
/// Complements the paper's strong-scaling Figures 9–10 with the other
/// standard HPC view of the same cost model.
pub fn weak_scaling(
    cfg: &RunConfig,
    samples_per_worker: usize,
    worker_counts: &[usize],
) -> Vec<ScalingPoint> {
    let base = {
        let mut c = cfg.clone();
        c.samples = samples_per_worker;
        epoch_time(&c, 1).total_s
    };
    worker_counts
        .iter()
        .map(|&p| {
            let mut c = cfg.clone();
            c.samples = samples_per_worker * p;
            let epoch = epoch_time(&c, p);
            // Weak-scaling efficiency: T(1) / T(p) for fixed per-worker work.
            let efficiency = base / epoch.total_s;
            ScalingPoint {
                workers: p,
                nodes: p.div_ceil(cfg.spec.workers_per_node()),
                epoch,
                speedup: p as f64 * efficiency,
                efficiency,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::specs::{azure_ndv2, bridges2};

    fn fig9_config() -> RunConfig {
        RunConfig {
            spec: azure_ndv2(),
            arch: ArchModel::default(),
            resolution: (256, 256, 256),
            samples: 1024,
            local_batch: 2,
            grad_bytes: 4,
        }
    }

    #[test]
    fn single_gpu_epoch_near_paper_anchor() {
        // Paper Figure 9: 48 minutes per epoch on one V100 at 256³.
        let t = epoch_time(&fig9_config(), 1);
        let minutes = t.total_s / 60.0;
        assert!(
            (30.0..70.0).contains(&minutes),
            "single-GPU epoch {minutes:.1} min should be near the 48 min anchor"
        );
    }

    #[test]
    fn full_cluster_epoch_near_six_seconds() {
        // Paper Figure 9: ~6 s/epoch on 512 GPUs (speedup ≈ 480×).
        let curve = strong_scaling(&fig9_config(), &[1, 512]);
        let t512 = curve[1].epoch.total_s;
        assert!((2.0..20.0).contains(&t512), "512-GPU epoch {t512:.1}s");
        assert!(curve[1].speedup > 300.0, "speedup {}", curve[1].speedup);
    }

    #[test]
    fn epoch_time_monotone_in_workers() {
        let cfg = fig9_config();
        let counts = [1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512];
        let curve = strong_scaling(&cfg, &counts);
        for w in curve.windows(2) {
            assert!(
                w[1].epoch.total_s <= w[0].epoch.total_s * 1.001,
                "{} -> {} workers grew epoch time",
                w[0].workers,
                w[1].workers
            );
        }
    }

    #[test]
    fn speedup_bounded_by_worker_count() {
        let curve = strong_scaling(&fig9_config(), &[1, 2, 8, 64, 512]);
        for p in curve {
            assert!(p.speedup <= p.workers as f64 + 1e-9);
            assert!(p.efficiency <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn comm_fraction_grows_with_workers() {
        let cfg = fig9_config();
        let t8 = epoch_time(&cfg, 8);
        let t512 = epoch_time(&cfg, 512);
        let f8 = t8.comm_s / t8.total_s;
        let f512 = t512.comm_s / t512.total_s;
        assert!(f512 > f8, "comm fraction must grow: {f8} -> {f512}");
    }

    #[test]
    fn cpu_cluster_scales_to_128_nodes() {
        // Figure 10 shape: near-linear to 128 Bridges2 nodes at 512³.
        let cfg = RunConfig {
            spec: bridges2(),
            arch: ArchModel::default(),
            resolution: (512, 512, 512),
            samples: 1024,
            local_batch: 2,
            grad_bytes: 4,
        };
        let curve = strong_scaling(&cfg, &[1, 2, 4, 8, 16, 32, 64, 128]);
        let last = curve.last().unwrap();
        assert!(
            last.efficiency > 0.8,
            "128-node efficiency {}",
            last.efficiency
        );
    }

    #[test]
    fn weak_scaling_stays_near_flat() {
        let cfg = fig9_config();
        let curve = weak_scaling(&cfg, 8, &[1, 8, 64, 512]);
        for pt in &curve {
            assert!(
                pt.efficiency > 0.9,
                "weak-scaling efficiency fell to {} at {} workers",
                pt.efficiency,
                pt.workers
            );
        }
    }

    #[test]
    fn params_model_counts_paper_scale_network() {
        let n = unet_params(&ArchModel::default());
        assert!(n > 100_000 && n < 5_000_000, "{n}");
    }

    #[test]
    fn flops_scale_with_volume() {
        let arch = ArchModel::default();
        let f64c = unet_flops_per_sample(&arch, (64, 64, 64));
        let f128 = unet_flops_per_sample(&arch, (128, 128, 128));
        let ratio = f128 / f64c;
        assert!(
            (ratio - 8.0).abs() < 0.5,
            "8x voxels -> ~8x FLOPs, got {ratio}"
        );
    }

    #[test]
    fn two_d_flops_quadratic_in_resolution() {
        // The Figure 2 observation: per-epoch time grows ~4x per 2D
        // resolution doubling at high resolution.
        let arch = ArchModel {
            two_d: true,
            ..Default::default()
        };
        let a = unet_flops_per_sample(&arch, (1, 256, 256));
        let b = unet_flops_per_sample(&arch, (1, 512, 512));
        let ratio = b / a;
        assert!((ratio - 4.0).abs() < 0.3, "{ratio}");
    }
}
