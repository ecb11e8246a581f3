//! **Figure 9** — strong scaling on the GPU cluster (Azure NDv2, 256³).
//!
//! Paper: 1024 samples of 256³, local batch 2, scaling from 1 to 512 V100s;
//! epoch time falls from 48 min to ~6 s (speedup ≈ 480x, near-linear).
//!
//! Two parts (the cluster is substituted by in-process ranks plus a model):
//! 1. *Measured*: real data-parallel training with in-process ranks over the
//!    ring all-reduce at a reduced resolution — validates the sharding,
//!    collective and trainer code end to end and reports real speedups for
//!    the worker counts this machine can host.
//! 2. *Modeled*: the calibrated performance model extends the curve to the
//!    paper's 512 GPUs.
//!
//! Run: `cargo run --release -p mgd-bench --bin fig9_gpu_scaling [--full]`

use mgd_bench::experiments::{train_cfg, ExperimentScale, HarnessArgs};
use mgd_bench::{results_dir, Table};
use mgd_cluster::{azure_ndv2, strong_scaling, ArchModel, RunConfig};
use mgd_dist::launch;
use mgd_field::{Dataset, DiffusivityModel, InputEncoding};
use mgd_nn::{Adam, UNet, UNetConfig};
use mgdiffnet::Trainer;

fn measured_part(args: &HarnessArgs) {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("-- measured (in-process ranks; {cores} cores available) --");
    let (res, samples, batch) = match args.scale {
        ExperimentScale::Quick => (16usize, 8usize, 4usize),
        ExperimentScale::Full => (32, 32, 8),
    };
    let dims = vec![res, res, res];
    let mut table = Table::new(["workers", "epoch_s", "comm_s", "speedup", "note"]);
    let mut t1 = None;
    let mut rows = Vec::new();
    for p in [1usize, 2, 4] {
        if batch % p != 0 {
            continue;
        }
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
            let _ = tr.train_epoch().unwrap(); // warm-up
            tr.train_epoch().unwrap()
        });
        let epoch_s = stats.iter().map(|s| s.seconds).fold(0.0f64, f64::max);
        let comm_s = stats.iter().map(|s| s.comm_seconds).fold(0.0f64, f64::max);
        if t1.is_none() {
            t1 = Some(epoch_s);
        }
        let speedup = t1.unwrap() / epoch_s;
        let note = if p > cores { "oversubscribed" } else { "" };
        table.row([
            p.to_string(),
            format!("{epoch_s:.3}"),
            format!("{comm_s:.4}"),
            format!("{speedup:.2}x"),
            note.to_string(),
        ]);
        rows.push(vec![
            p.to_string(),
            format!("{epoch_s:.5}"),
            format!("{comm_s:.6}"),
            format!("{speedup:.3}"),
        ]);
    }
    table.print();
    let out = results_dir().join("fig9_measured.csv");
    mgd_bench::write_csv(&out, &["workers", "epoch_s", "comm_s", "speedup"], &rows).unwrap();
}

fn modeled_part() {
    println!("\n-- modeled (Azure NDv2 spec, Table 6; calibrated to the 48 min anchor) --");
    let spec = azure_ndv2();
    println!(
        "{}: {} x {} {}GB per node, {} {} Gb/s",
        spec.name,
        spec.gpus_per_node,
        spec.gpu,
        spec.gpu_memory_gb,
        spec.interconnect,
        spec.bandwidth_gbps
    );
    let cfg = RunConfig {
        spec,
        arch: ArchModel::default(),
        resolution: (256, 256, 256),
        samples: 1024,
        local_batch: 2,
        grad_bytes: 4,
    };
    let counts = [1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512];
    let curve = strong_scaling(&cfg, &counts);
    let mut table = Table::new([
        "GPUs",
        "nodes",
        "epoch",
        "compute_s",
        "comm_s",
        "speedup",
        "efficiency",
    ]);
    let mut rows = Vec::new();
    for pt in &curve {
        let human = if pt.epoch.total_s >= 60.0 {
            format!("{:.1} min", pt.epoch.total_s / 60.0)
        } else {
            format!("{:.1} s", pt.epoch.total_s)
        };
        table.row([
            pt.workers.to_string(),
            pt.nodes.to_string(),
            human,
            format!("{:.1}", pt.epoch.compute_s),
            format!("{:.2}", pt.epoch.comm_s),
            format!("{:.1}x", pt.speedup),
            format!("{:.1}%", pt.efficiency * 100.0),
        ]);
        rows.push(vec![
            pt.workers.to_string(),
            pt.nodes.to_string(),
            format!("{:.3}", pt.epoch.total_s),
            format!("{:.3}", pt.epoch.compute_s),
            format!("{:.4}", pt.epoch.comm_s),
            format!("{:.2}", pt.speedup),
        ]);
    }
    table.print();
    let one = curve.first().unwrap().epoch.total_s / 60.0;
    let full = curve.last().unwrap();
    println!(
        "\npaper anchors: 48 min @1 GPU -> ~6 s @512 (480x). model: {:.0} min -> {:.1} s ({:.0}x)",
        one, full.epoch.total_s, full.speedup
    );
    let out = results_dir().join("fig9_modeled.csv");
    mgd_bench::write_csv(
        &out,
        &["gpus", "nodes", "epoch_s", "compute_s", "comm_s", "speedup"],
        &rows,
    )
    .unwrap();
    println!("wrote {}", out.display());
}

fn main() {
    let args = HarnessArgs::parse();
    println!("== Figure 9: strong scaling, 3D DiffNet at 256^3 on V100 cluster ==\n");
    measured_part(&args);
    modeled_part();
}
