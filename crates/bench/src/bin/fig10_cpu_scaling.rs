//! **Figure 10** — strong scaling on the CPU cluster (Bridges2, 512³).
//!
//! Paper: 512³ maps don't fit GPU memory (≈230 GB peak per node), so the
//! largest runs use 128-core EPYC-7742 nodes, one MPI process per node, two
//! samples per local batch, scaling near-linearly to 128 nodes.
//!
//! As with Figure 9, a measured in-process part validates the mechanism and
//! the calibrated model extends to paper scale.
//!
//! Run: `cargo run --release -p mgd-bench --bin fig10_cpu_scaling [--full]`

use mgd_bench::experiments::{train_cfg, ExperimentScale, HarnessArgs};
use mgd_bench::{results_dir, Table};
use mgd_cluster::{bridges2, strong_scaling, ArchModel, RunConfig};
use mgd_dist::launch;
use mgd_field::{Dataset, DiffusivityModel, InputEncoding};
use mgd_nn::{Adam, UNet, UNetConfig};
use mgdiffnet::Trainer;

fn main() {
    let args = HarnessArgs::parse();
    println!("== Figure 10: strong scaling, 3D DiffNet at 512^3 on EPYC-7742 cluster ==\n");

    // Measured: hybrid paradigm — each rank is one "process", the
    // `mgd_tensor::par` worker threads inside it are the OpenMP analogue.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("-- measured (in-process ranks; {cores} cores) --");
    let (res, samples, batch) = match args.scale {
        ExperimentScale::Quick => (16usize, 8usize, 4usize),
        ExperimentScale::Full => (32, 32, 8),
    };
    let dims = vec![res, res, res];
    let mut table = Table::new(["ranks", "epoch_s", "comm_s", "speedup"]);
    let mut t1 = None;
    for p in [1usize, 2] {
        let seed = args.seed;
        let dims_c = dims.clone();
        let stats = launch(p, move |comm| {
            let data = Dataset::sobol(samples, DiffusivityModel::paper(), InputEncoding::LogNu);
            let mut net = UNet::new(UNetConfig {
                depth: 2,
                base_filters: 4,
                seed,
                ..Default::default()
            });
            let mut opt = Adam::new(1e-3);
            let cfg = train_cfg(batch, 4, seed);
            let mut tr =
                Trainer::new(&mut net, &mut opt, &data, &comm, dims_c.clone(), cfg).unwrap();
            tr.sync_initial_params();
            let _ = tr.train_epoch().unwrap();
            tr.train_epoch().unwrap()
        });
        let epoch_s = stats.iter().map(|s| s.seconds).fold(0.0f64, f64::max);
        let comm_s = stats.iter().map(|s| s.comm_seconds).fold(0.0f64, f64::max);
        if t1.is_none() {
            t1 = Some(epoch_s);
        }
        table.row([
            p.to_string(),
            format!("{epoch_s:.3}"),
            format!("{comm_s:.4}"),
            format!("{:.2}x", t1.unwrap() / epoch_s),
        ]);
    }
    table.print();

    // Modeled: Bridges2 at 512³.
    println!("\n-- modeled (PSC Bridges2 spec, Table 6) --");
    let spec = bridges2();
    println!(
        "{}: {} cores, {} GB, {} {} Gb/s (1 MPI process/node)",
        spec.name, spec.cpu_cores, spec.memory_gb, spec.interconnect, spec.bandwidth_gbps
    );
    let cfg = RunConfig {
        spec,
        arch: ArchModel::default(),
        resolution: (512, 512, 512),
        samples: 1024,
        local_batch: 2,
        grad_bytes: 4,
    };
    let counts = [1usize, 2, 4, 8, 16, 32, 64, 128];
    let curve = strong_scaling(&cfg, &counts);
    let mut table = Table::new([
        "nodes",
        "epoch",
        "compute_s",
        "comm_s",
        "speedup",
        "efficiency",
    ]);
    let mut rows = Vec::new();
    for pt in &curve {
        let human = if pt.epoch.total_s >= 3600.0 {
            format!("{:.1} h", pt.epoch.total_s / 3600.0)
        } else if pt.epoch.total_s >= 60.0 {
            format!("{:.1} min", pt.epoch.total_s / 60.0)
        } else {
            format!("{:.1} s", pt.epoch.total_s)
        };
        table.row([
            pt.workers.to_string(),
            human,
            format!("{:.1}", pt.epoch.compute_s),
            format!("{:.2}", pt.epoch.comm_s),
            format!("{:.1}x", pt.speedup),
            format!("{:.1}%", pt.efficiency * 100.0),
        ]);
        rows.push(vec![
            pt.workers.to_string(),
            format!("{:.3}", pt.epoch.total_s),
            format!("{:.3}", pt.epoch.compute_s),
            format!("{:.4}", pt.epoch.comm_s),
            format!("{:.2}", pt.speedup),
        ]);
    }
    table.print();
    println!(
        "\npaper shape: near-linear to 128 nodes (230 GB peak/node; infeasible on 32 GB GPUs).\n\
         model 128-node efficiency: {:.1}%",
        curve.last().unwrap().efficiency * 100.0
    );
    // Memory feasibility check mirroring the paper's §4.2.2 argument,
    // scaled from the paper's own measurement ("each sample required
    // ~14GB during training" at 256^3, fp32).
    let per_sample_gb = 14.0 * (512f64 / 256.0).powi(3);
    println!(
        "activation footprint (scaled from the paper's 14 GB/sample at 256^3): \
         {:.0} GB/sample at 512^3; local batch 2 -> {:.0} GB \
         (paper reports 230 GB peak/node; a 32 GB GPU cannot hold it)",
        per_sample_gb,
        2.0 * per_sample_gb
    );
    let out = results_dir().join("fig10_modeled.csv");
    mgd_bench::write_csv(
        &out,
        &["nodes", "epoch_s", "compute_s", "comm_s", "speedup"],
        &rows,
    )
    .unwrap();
    println!("wrote {}", out.display());
}
