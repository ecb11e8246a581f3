//! Machine specifications (paper Table 6) plus modeling constants.

/// One machine type of Table 6, augmented with the constants the
/// performance model needs.
#[derive(Clone, Debug)]
pub struct MachineSpec {
    /// Display name.
    pub name: String,
    /// "Virtual Machine" / "Bare-Metal" (Table 6 row: Type).
    pub kind: String,
    /// CPU model string.
    pub cpu: String,
    /// CPU cores per node.
    pub cpu_cores: usize,
    /// Node memory in GB.
    pub memory_gb: usize,
    /// GPU model (empty for CPU-only nodes).
    pub gpu: String,
    /// GPU memory in GB (0 when no GPU).
    pub gpu_memory_gb: usize,
    /// GPUs per node (0 for CPU nodes).
    pub gpus_per_node: usize,
    /// Interconnect name.
    pub interconnect: String,
    /// Node injection bandwidth in Gb/s (Table 6: Bandwidth).
    pub bandwidth_gbps: f64,
    /// Network topology.
    pub topology: String,
    /// Peak device throughput in FLOP/s used by the model (per GPU, or per
    /// CPU node when `gpus_per_node == 0`).
    pub device_peak_flops: f64,
    /// Intra-node device-to-device bandwidth in Gb/s (NVLink for NDv2).
    pub intra_node_bw_gbps: f64,
    /// Per-hop message latency in seconds.
    pub latency_s: f64,
    /// Calibrated fraction of peak the training kernels sustain.
    pub efficiency: f64,
}

impl MachineSpec {
    /// Workers available per node (GPUs, or 1 MPI process per CPU node —
    /// the paper runs "one MPI process per node using all 128 CPU cores").
    pub fn workers_per_node(&self) -> usize {
        if self.gpus_per_node > 0 {
            self.gpus_per_node
        } else {
            1
        }
    }
}

/// Azure NDv2: 8× V100 32GB, Intel Xeon Platinum 8168, EDR InfiniBand
/// (Table 6, left column).
///
/// Efficiency is calibrated so one V100 takes ≈48 min/epoch on the 256³
/// workload of Figure 9 (1024 samples, local batch 2).
pub fn azure_ndv2() -> MachineSpec {
    MachineSpec {
        name: "Azure NDv2".into(),
        kind: "Virtual Machine".into(),
        cpu: "Intel Xeon Platinum 8168".into(),
        cpu_cores: 40,
        memory_gb: 672,
        gpu: "Tesla V100".into(),
        gpu_memory_gb: 32,
        gpus_per_node: 8,
        interconnect: "EDR InfiniBand".into(),
        bandwidth_gbps: 100.0,
        topology: "Fat tree".into(),
        device_peak_flops: 15.7e12, // V100 fp32
        intra_node_bw_gbps: 300.0,  // NVLink-2 aggregate per GPU
        latency_s: 5e-6,
        efficiency: 0.08,
    }
}

/// PSC Bridges2 regular-memory node: AMD EPYC 7742 ×2? The paper lists 128
/// cores / 256GB with HDR InfiniBand (Table 6, right column).
pub fn bridges2() -> MachineSpec {
    MachineSpec {
        name: "PSC Bridges2".into(),
        kind: "Bare-Metal".into(),
        cpu: "AMD EPYC 7742".into(),
        cpu_cores: 128,
        memory_gb: 256,
        gpu: String::new(),
        gpu_memory_gb: 0,
        gpus_per_node: 0,
        interconnect: "HDR InfiniBand".into(),
        bandwidth_gbps: 200.0,
        topology: "Fat tree".into(),
        // 128 cores × ~2.25 GHz × 16 fp32 FLOP/cycle (AVX2 FMA) ≈ 9.2 TF.
        device_peak_flops: 9.2e12,
        intra_node_bw_gbps: 200.0,
        latency_s: 2e-6,
        efficiency: 0.05,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_values() {
        let a = azure_ndv2();
        assert_eq!(a.cpu_cores, 40);
        assert_eq!(a.memory_gb, 672);
        assert_eq!(a.gpus_per_node, 8);
        assert_eq!(a.gpu_memory_gb, 32);
        assert_eq!(a.bandwidth_gbps, 100.0);
        let b = bridges2();
        assert_eq!(b.cpu_cores, 128);
        assert_eq!(b.memory_gb, 256);
        assert_eq!(b.gpus_per_node, 0);
        assert_eq!(b.bandwidth_gbps, 200.0);
    }

    #[test]
    fn workers_per_node() {
        assert_eq!(azure_ndv2().workers_per_node(), 8);
        assert_eq!(bridges2().workers_per_node(), 1);
    }
}
