//! **Table 1** — multigrid training strategies vs direct ("Base") training.
//!
//! For each (dimension, resolution, strategy, levels) the paper reports the
//! wall-clock to convergence, the converged loss and the speedup over full
//! training at the finest resolution. Expected shape (paper): all
//! strategies converge to a Base-comparable loss; speedups grow with
//! resolution; V is fastest at low resolution, Half-V wins at high
//! resolution and in 3D (6.04x at 128³).
//!
//! Speedup semantics: the scaled-down quick runs cap epochs rather than
//! waiting for full convergence, so the speedup is measured as
//! *time-to-target* — Base's total time divided by the time the multigrid
//! run needs to first reach Base's final loss (the same comparison as the
//! paper's Figure 8 crossover). "MG Time" is that time-to-target; the full
//! multigrid run continues afterwards and typically lands at a lower loss
//! (the "MG Loss" column).
//!
//! Run: `cargo run --release -p mgd-bench --bin table1_strategies [--full]`
//! Also writes `results/table1_phases.json` consumed by `fig7_time_share`.

use mgd_bench::experiments::{setup_2d, setup_3d, train_cfg, ExperimentScale, HarnessArgs};
use mgd_bench::{results_dir, Table};
use mgd_dist::ThreadComm;
use mgdiffnet::{CycleKind, MgConfig, MgRunLog, MultigridTrainer};

struct Case {
    two_d: bool,
    resolution: usize,
    levels: Vec<usize>,
    samples: usize,
    batch: usize,
    max_epochs: usize,
    fixed_epochs: usize,
}

fn run_case(case: &Case, seed: u64) -> (Table, Vec<(String, usize, MgRunLog)>) {
    let dims = if case.two_d {
        vec![case.resolution, case.resolution]
    } else {
        vec![case.resolution, case.resolution, case.resolution]
    };
    let dim_label = if case.two_d { "2D" } else { "3D" };
    let res_label = dims
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("x");
    println!("\n-- {dim_label} {res_label} --");
    let comm = ThreadComm::solo();
    let cfg = train_cfg(case.batch, case.max_epochs, seed);

    // Base: direct training at the finest resolution.
    let base_mg = MgConfig {
        cycle: CycleKind::Base,
        levels: 1,
        fixed_epochs: 0,
        adapt: false,
        cycles: 1,
    };
    let (mut net, mut opt, data) = if case.two_d {
        setup_2d(case.samples, 8, 2, seed)
    } else {
        setup_3d(case.samples, 4, 2, seed)
    };
    let base_log = MultigridTrainer::new(base_mg, cfg, dims.clone())
        .unwrap()
        .run(&mut net, &mut opt, &data, &comm)
        .unwrap();
    println!(
        "Base: {:.1}s, loss {:.5} ({} epochs)",
        base_log.total_seconds, base_log.final_loss, base_log.phases[0].epochs
    );

    let mut table = Table::new([
        "Dimension",
        "Resolution",
        "Strategy",
        "Levels",
        "Base Time (s)",
        "MG Time (s)",
        "Base Loss",
        "MG Loss",
        "Speedup",
    ]);
    let mut logs = Vec::new();
    for kind in CycleKind::ALL {
        for &levels in &case.levels {
            let (mut net, mut opt, data) = if case.two_d {
                setup_2d(case.samples, 8, 2, seed)
            } else {
                setup_3d(case.samples, 4, 2, seed)
            };
            let mg = MgConfig {
                cycle: kind,
                levels,
                fixed_epochs: case.fixed_epochs,
                adapt: false,
                cycles: 1,
            };
            let log = MultigridTrainer::new(mg, cfg, dims.clone())
                .unwrap()
                .run(&mut net, &mut opt, &data, &comm)
                .unwrap();
            // Time-to-target: when did the MG run first match Base's loss?
            let (mg_time, reached) = match log.time_to_loss(base_log.final_loss) {
                Some(t) => (t, true),
                None => (log.total_seconds, false),
            };
            let speedup = base_log.total_seconds / mg_time;
            table.row([
                dim_label.to_string(),
                res_label.clone(),
                kind.name().to_string(),
                levels.to_string(),
                format!("{:.1}", base_log.total_seconds),
                format!("{:.1}{}", mg_time, if reached { "" } else { "*" }),
                format!("{:.5}", base_log.final_loss),
                format!("{:.5}", log.final_loss),
                format!(
                    "{speedup:.2}x{}",
                    if reached { "" } else { " (not reached)" }
                ),
            ]);
            logs.push((
                format!("{dim_label}-{res_label}-{}", kind.name()),
                levels,
                log,
            ));
        }
    }
    (table, logs)
}

fn main() {
    let args = HarnessArgs::parse();
    println!("== Table 1: multigrid strategy comparison ==");
    println!("paper shape: similar losses everywhere; speedup grows with resolution;");
    println!("V best at 128²/256² 2D, Half-V best overall at 512² and 6.04x at 128³ 3D\n");

    let cases: Vec<Case> = match args.scale {
        ExperimentScale::Quick => vec![
            Case {
                two_d: true,
                resolution: 32,
                levels: vec![2],
                samples: 8,
                batch: 4,
                max_epochs: 25,
                fixed_epochs: 2,
            },
            Case {
                two_d: true,
                resolution: 64,
                levels: vec![2, 3],
                samples: 8,
                batch: 4,
                max_epochs: 25,
                fixed_epochs: 2,
            },
            Case {
                two_d: false,
                resolution: 16,
                levels: vec![2],
                samples: 4,
                batch: 2,
                max_epochs: 15,
                fixed_epochs: 2,
            },
        ],
        ExperimentScale::Full => vec![
            Case {
                two_d: true,
                resolution: 128,
                levels: vec![3, 4],
                samples: 1024,
                batch: 16,
                max_epochs: 400,
                fixed_epochs: 5,
            },
            Case {
                two_d: true,
                resolution: 256,
                levels: vec![3, 4],
                samples: 1024,
                batch: 16,
                max_epochs: 400,
                fixed_epochs: 5,
            },
            Case {
                two_d: true,
                resolution: 512,
                levels: vec![4],
                samples: 1024,
                batch: 8,
                max_epochs: 400,
                fixed_epochs: 5,
            },
            Case {
                two_d: false,
                resolution: 128,
                levels: vec![3],
                samples: 128,
                batch: 2,
                max_epochs: 200,
                fixed_epochs: 5,
            },
        ],
    };

    let mut all_logs = Vec::new();
    let mut tables = Vec::new();
    for case in &cases {
        let (table, logs) = run_case(case, args.seed);
        table.print();
        tables.push(table);
        all_logs.extend(logs);
    }

    // Persist phase logs for Figure 7 (% time per level).
    let json: Vec<serde_json::Value> = all_logs
        .iter()
        .map(|(label, levels, log)| {
            serde_json::json!({
                "label": label,
                "levels": levels,
                "cycle": format!("{:?}", log.cycle),
                "total_seconds": log.total_seconds,
                "final_loss": log.final_loss,
                "seconds_per_level": log.seconds_per_level(*levels),
                "phases": log.phases.iter().map(|p| serde_json::json!({
                    "level": p.level, "epochs": p.epochs, "seconds": p.seconds,
                    "final_loss": p.final_loss,
                })).collect::<Vec<_>>(),
            })
        })
        .collect();
    let out = results_dir().join("table1_phases.json");
    std::fs::write(&out, serde_json::to_string_pretty(&json).unwrap()).unwrap();
    let csv = results_dir().join("table1_strategies.csv");
    if let Some(t) = tables.first() {
        t.to_csv(&csv).unwrap();
    }
    println!("\nwrote {} and {}", out.display(), csv.display());
}
