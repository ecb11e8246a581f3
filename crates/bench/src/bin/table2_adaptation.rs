//! **Table 2** — architectural adaptation study (paper §4.1.2).
//!
//! Half-V training with and without deepening the U-Net on each move to a
//! finer resolution. Paper result (512² 2D): no-adaptation 1.94x speedup /
//! loss 0.0067 vs Base 0.0050; with adaptation 3.07x speedup / loss 0.0052
//! vs its (deeper) Base 0.0047 — i.e. adaptation both speeds up training
//! (cheap epochs while the net is shallow) and lands closer to Base loss.
//! Each variant's Base is full training of that variant's *final*
//! architecture at the finest resolution.
//!
//! Run: `cargo run --release -p mgd-bench --bin table2_adaptation [--full]`

use mgd_bench::experiments::{train_cfg, ExperimentScale, HarnessArgs};
use mgd_bench::{results_dir, Table};
use mgd_dist::ThreadComm;
use mgd_field::{Dataset, DiffusivityModel, InputEncoding};
use mgd_nn::{Adam, UNet, UNetConfig};
use mgdiffnet::{CycleKind, MgConfig, MultigridTrainer};

fn main() {
    let args = HarnessArgs::parse();
    println!("== Table 2: network adaptation study (Half-V cycle) ==");
    println!("paper: no-adaptation 1.94x, adaptation 3.07x with near-Base loss\n");

    let (res, levels, samples, batch, max_epochs, base_filters, depth0) = match args.scale {
        ExperimentScale::Quick => (64usize, 2usize, 16usize, 8usize, 30usize, 8usize, 2usize),
        ExperimentScale::Full => (512, 4, 1024, 8, 400, 16, 3),
    };
    let dims = vec![res, res];
    let comm = ThreadComm::solo();
    let cfg = train_cfg(batch, max_epochs, args.seed);
    let data = Dataset::sobol(samples, DiffusivityModel::paper(), InputEncoding::LogNu);

    let mk_net = |depth: usize, seed: u64| {
        UNet::new(UNetConfig {
            two_d: true,
            depth,
            base_filters,
            seed,
            ..Default::default()
        })
    };
    let base_run = |depth: usize| {
        let mut net = mk_net(depth, args.seed);
        let mut opt = Adam::new(3e-3);
        let mg = MgConfig {
            cycle: CycleKind::Base,
            levels: 1,
            fixed_epochs: 0,
            adapt: false,
            cycles: 1,
        };
        MultigridTrainer::new(mg, cfg, dims.clone())
            .unwrap()
            .run(&mut net, &mut opt, &data, &comm)
            .unwrap()
    };

    // Variant A: Half-V without adaptation (fixed depth0 network).
    let mut net_a = mk_net(depth0, args.seed);
    let mut opt_a = Adam::new(3e-3);
    let mg_a = MgConfig {
        cycle: CycleKind::HalfV,
        levels,
        fixed_epochs: 2,
        adapt: false,
        cycles: 1,
    };
    let log_a = MultigridTrainer::new(mg_a, cfg, dims.clone())
        .unwrap()
        .run(&mut net_a, &mut opt_a, &data, &comm)
        .unwrap();
    let base_a = base_run(depth0);

    // Variant B: Half-V with adaptation — starts at depth0 and deepens on
    // each refinement, ending at depth0 + (levels-1).
    let mut net_b = mk_net(depth0, args.seed);
    let mut opt_b = Adam::new(3e-3);
    let mg_b = MgConfig {
        cycle: CycleKind::HalfV,
        levels,
        fixed_epochs: 2,
        adapt: true,
        cycles: 1,
    };
    let log_b = MultigridTrainer::new(mg_b, cfg, dims.clone())
        .unwrap()
        .run(&mut net_b, &mut opt_b, &data, &comm)
        .unwrap();
    let final_depth = net_b.cfg.depth;
    // Its Base: full training of the *final* (deep) architecture.
    let base_b = base_run(final_depth);

    // Speedups are time-to-target against each variant's own Base (see
    // table1_strategies for the semantics).
    let (t_a, hit_a) = log_a
        .time_to_loss(base_a.final_loss)
        .map(|t| (t, true))
        .unwrap_or((log_a.total_seconds, false));
    let (t_b, hit_b) = log_b
        .time_to_loss(base_b.final_loss)
        .map(|t| (t, true))
        .unwrap_or((log_b.total_seconds, false));
    let mut table = Table::new([
        "Strategy",
        "Base Time (s)",
        "MG Time (s)",
        "Base Loss",
        "MG Loss",
        "Speedup",
    ]);
    table.row([
        format!("Half-V (no network adaptation, depth {depth0})"),
        format!("{:.1}", base_a.total_seconds),
        format!("{:.1}{}", t_a, if hit_a { "" } else { "*" }),
        format!("{:.5}", base_a.final_loss),
        format!("{:.5}", log_a.final_loss),
        format!("{:.2}x", base_a.total_seconds / t_a),
    ]);
    table.row([
        format!("Half-V (network adaptation, depth {depth0}->{final_depth})"),
        format!("{:.1}", base_b.total_seconds),
        format!("{:.1}{}", t_b, if hit_b { "" } else { "*" }),
        format!("{:.5}", base_b.final_loss),
        format!("{:.5}", log_b.final_loss),
        format!("{:.2}x", base_b.total_seconds / t_b),
    ]);
    table.print();
    if !hit_a || !hit_b {
        println!("(* = Base loss not reached within the budget; total time shown)");
    }
    let out = results_dir().join("table2_adaptation.csv");
    table.to_csv(&out).unwrap();
    println!("\nwrote {}", out.display());
}
