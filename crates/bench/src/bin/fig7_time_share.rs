//! **Figure 7** — fraction of training time spent at each multigrid level.
//!
//! The paper's pie charts show where each strategy spends its time: Half-V
//! concentrates effort at coarse levels (which is why its speedup grows
//! with resolution), while W/F revisit intermediate levels. This harness
//! re-derives the shares from the phase logs written by
//! `table1_strategies`, or regenerates a quick run when none exist.
//!
//! Run: `cargo run --release -p mgd-bench --bin fig7_time_share`

use mgd_bench::experiments::{setup_2d, train_cfg, HarnessArgs};
use mgd_bench::{results_dir, Table};
use mgd_dist::ThreadComm;
use mgdiffnet::{CycleKind, MgConfig, MultigridTrainer};

fn main() {
    let args = HarnessArgs::parse();
    println!("== Figure 7: % time per multigrid level ==");
    println!("paper shape: Half-V spends the largest share at coarse levels;");
    println!("W/F split time across intermediate levels; L1 (finest) dominates V less than Base\n");

    let path = results_dir().join("table1_phases.json");
    let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
    if let Ok(s) = std::fs::read_to_string(&path) {
        println!("using phase logs from {}\n", path.display());
        let v: serde_json::Value = serde_json::from_str(&s).unwrap();
        for entry in v.as_array().unwrap() {
            let label = format!(
                "{} (levels={})",
                entry["label"].as_str().unwrap(),
                entry["levels"].as_u64().unwrap()
            );
            let per: Vec<f64> = entry["seconds_per_level"]
                .as_array()
                .unwrap()
                .iter()
                .map(|x| x.as_f64().unwrap())
                .collect();
            rows.push((label, per));
        }
    } else {
        println!("no table1 logs found; running a quick 2D sweep\n");
        let comm = ThreadComm::solo();
        let levels = 3usize;
        for kind in CycleKind::ALL {
            let (mut net, mut opt, data) = setup_2d(8, 8, 2, args.seed);
            let mg = MgConfig {
                cycle: kind,
                levels,
                fixed_epochs: 2,
                adapt: false,
                cycles: 1,
            };
            let cfg = train_cfg(4, 20, args.seed);
            let log = MultigridTrainer::new(mg, cfg, vec![64, 64])
                .unwrap()
                .run(&mut net, &mut opt, &data, &comm)
                .unwrap();
            rows.push((kind.name().to_string(), log.seconds_per_level(levels)));
        }
    }

    let max_levels = rows.iter().map(|(_, p)| p.len()).max().unwrap_or(0);
    let mut headers = vec!["strategy".to_string()];
    for l in 0..max_levels {
        headers.push(format!("L{} %", l + 1));
    }
    let mut table = Table::new(headers);
    let mut csv_rows = Vec::new();
    for (label, per) in &rows {
        let total: f64 = per.iter().sum();
        let mut cells = vec![label.clone()];
        let mut csv = vec![label.clone()];
        for l in 0..max_levels {
            let share = per.get(l).copied().unwrap_or(0.0) / total * 100.0;
            cells.push(format!("{share:.1}"));
            csv.push(format!("{share:.3}"));
        }
        table.row(cells);
        csv_rows.push(csv);
    }
    table.print();
    let out = results_dir().join("fig7_time_share.csv");
    let hdrs: Vec<String> = (0..=max_levels)
        .map(|i| {
            if i == 0 {
                "strategy".into()
            } else {
                format!("L{i}_pct")
            }
        })
        .collect();
    let hdr_refs: Vec<&str> = hdrs.iter().map(|s| s.as_str()).collect();
    mgd_bench::write_csv(&out, &hdr_refs, &csv_rows).unwrap();
    println!("\nwrote {}", out.display());
}
