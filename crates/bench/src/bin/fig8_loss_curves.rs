//! **Figure 8** — loss vs wall-clock: Base vs Half-V multigrid (3D).
//!
//! The paper's curve shows the multigrid run dropping the loss early at the
//! cheap coarse levels, then refining at the fine level, reaching the Base
//! loss in ~1/6 of the time (the 128³ Half-V row of Table 1). This harness
//! emits both loss-vs-time series as CSV.
//!
//! Run: `cargo run --release -p mgd-bench --bin fig8_loss_curves [--full]`

use mgd_bench::experiments::{setup_3d, train_cfg, ExperimentScale, HarnessArgs};
use mgd_bench::results_dir;
use mgd_dist::ThreadComm;
use mgdiffnet::{CycleKind, MgConfig, MgRunLog, MultigridTrainer};

/// Flattens a run into cumulative (seconds, loss, level) points.
fn series(log: &MgRunLog) -> Vec<(f64, f64, usize)> {
    let mut out = Vec::new();
    let mut t = 0.0;
    for ph in &log.phases {
        let per_epoch = if ph.epochs > 0 {
            ph.seconds / ph.epochs as f64
        } else {
            0.0
        };
        for (i, &loss) in ph.losses.iter().enumerate() {
            t += per_epoch;
            let _ = i;
            out.push((t, loss, ph.level));
        }
    }
    out
}

fn main() {
    let args = HarnessArgs::parse();
    println!("== Figure 8: base vs Half-V multigrid loss curves (3D) ==");
    println!("paper shape: multigrid reduces loss at coarse levels first, then refines;");
    println!("it reaches the Base loss several times faster\n");

    let (res, levels, samples, batch, max_epochs) = match args.scale {
        ExperimentScale::Quick => (16usize, 2usize, 4usize, 2usize, 15usize),
        ExperimentScale::Full => (128, 3, 128, 2, 200),
    };
    let dims = vec![res, res, res];
    let comm = ThreadComm::solo();
    let cfg = train_cfg(batch, max_epochs, args.seed);

    let (mut net_b, mut opt_b, data) = setup_3d(samples, 4, 2, args.seed);
    let base = MultigridTrainer::new(
        MgConfig {
            cycle: CycleKind::Base,
            levels: 1,
            fixed_epochs: 0,
            adapt: false,
            cycles: 1,
        },
        cfg,
        dims.clone(),
    )
    .unwrap()
    .run(&mut net_b, &mut opt_b, &data, &comm)
    .unwrap();

    let (mut net_m, mut opt_m, _) = setup_3d(samples, 4, 2, args.seed);
    let mg = MultigridTrainer::new(
        MgConfig {
            cycle: CycleKind::HalfV,
            levels,
            fixed_epochs: 2,
            adapt: false,
            cycles: 1,
        },
        cfg,
        dims.clone(),
    )
    .unwrap()
    .run(&mut net_m, &mut opt_m, &data, &comm)
    .unwrap();

    println!(
        "Base:   {:.1}s to loss {:.5}\nHalf-V: {:.1}s to loss {:.5}  (speedup {:.2}x)",
        base.total_seconds,
        base.final_loss,
        mg.total_seconds,
        mg.final_loss,
        base.total_seconds / mg.total_seconds
    );

    let mut rows = Vec::new();
    for (t, loss, level) in series(&base) {
        rows.push(vec![
            "base".into(),
            format!("{t:.4}"),
            format!("{loss:.6}"),
            level.to_string(),
        ]);
    }
    for (t, loss, level) in series(&mg) {
        rows.push(vec![
            "half_v".into(),
            format!("{t:.4}"),
            format!("{loss:.6}"),
            level.to_string(),
        ]);
    }
    let out = results_dir().join("fig8_loss_curves.csv");
    mgd_bench::write_csv(&out, &["run", "seconds", "loss", "level"], &rows).unwrap();
    println!("wrote {} ({} points)", out.display(), rows.len());

    // Time-to-target comparison: when does each run first reach the Base
    // final loss (the Figure 8 crossover)?
    let target = base.final_loss;
    let first_reach =
        |s: &[(f64, f64, usize)]| s.iter().find(|(_, l, _)| *l <= target).map(|(t, _, _)| *t);
    let tb = first_reach(&series(&base));
    let tm = first_reach(&series(&mg));
    match (tb, tm) {
        (Some(tb), Some(tm)) => {
            println!("time to reach Base final loss {target:.5}: base {tb:.1}s vs half-v {tm:.1}s");
        }
        _ => println!("half-v did not cross the Base final loss in this quick run"),
    }
}
