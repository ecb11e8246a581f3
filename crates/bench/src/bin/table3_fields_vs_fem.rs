//! **Tables 3, 4, 5 & 7** — MGDiffNet predictions vs traditional FEM.
//!
//! The paper visualizes predicted fields and their FEM differences for
//! anecdotal ω values, per multigrid strategy (Table 3) and for extra ω
//! samples (Tables 4, 5, 7). We report the quantitative content — relative
//! L2 / max-norm errors and the energy gap — and dump the fields as CSV for
//! external plotting. Expected shape: all strategies produce small errors,
//! Half-V the smallest (the paper picks it as the winner).
//!
//! Run: `cargo run --release -p mgd-bench --bin table3_fields_vs_fem [--full]`

use mgd_bench::experiments::{setup_2d, train_cfg, ExperimentScale, HarnessArgs};
use mgd_bench::{results_dir, Table};
use mgd_dist::ThreadComm;
use mgd_field::{Dataset, DiffusivityModel, InputEncoding};
use mgdiffnet::compare::dump_field_csv;
use mgdiffnet::{compare_with_fem, predict_field, CycleKind, MgConfig, MultigridTrainer};

/// The ω vectors printed in the paper's tables.
const PAPER_OMEGAS: [[f64; 4]; 5] = [
    [0.3105, 1.5386, 0.0932, -1.2442],  // Tables 3, 5, 7
    [0.6681, 1.5354, 0.7644, -2.9709],  // Table 4
    [1.3821, 2.5508, 0.1750, 2.1269],   // Table 4
    [0.2838, -2.3550, 2.9574, -1.8963], // Table 7
    [0.0293, -2.0943, 0.1386, -2.3271], // Table 7
];

fn main() {
    let args = HarnessArgs::parse();
    println!("== Tables 3/4/5/7: MGDiffNet vs FEM fields ==");
    println!("paper shape: small field errors for every strategy; Half-V closest to FEM\n");

    let (res, samples, batch, max_epochs, levels) = match args.scale {
        ExperimentScale::Quick => (32usize, 24usize, 8usize, 120usize, 2usize),
        ExperimentScale::Full => (512, 1024, 16, 400, 4),
    };
    let dims = vec![res, res];
    let comm = ThreadComm::solo();
    let cfg = train_cfg(batch, max_epochs, args.seed);

    // Evaluation dataset: the paper's anecdotal ω values.
    let eval = Dataset::from_omegas(
        PAPER_OMEGAS.iter().map(|w| w.to_vec()).collect(),
        DiffusivityModel::paper(),
        InputEncoding::LogNu,
    );

    // Table 3: one trained network per strategy, evaluated on ω₀.
    println!(
        "-- Table 3 analogue: per-strategy error on ω = {:?} --",
        PAPER_OMEGAS[0]
    );
    let mut t3 = Table::new(["Strategy", "rel_L2", "L_inf", "energy_nn", "energy_fem"]);
    let mut best: Option<(f64, &'static str)> = None;
    for kind in CycleKind::ALL {
        let (mut net, mut opt, train_data) = setup_2d(samples, 8, 2, args.seed);
        let mg = MgConfig {
            cycle: kind,
            levels,
            fixed_epochs: 2,
            adapt: false,
            cycles: 1,
        };
        let _ = MultigridTrainer::new(mg, cfg, dims.clone())
            .unwrap()
            .run(&mut net, &mut opt, &train_data, &comm)
            .unwrap();
        let c = compare_with_fem(&mut net, &eval, 0, &dims).unwrap();
        t3.row([
            kind.name().to_string(),
            format!("{:.4}", c.rel_l2),
            format!("{:.4}", c.linf),
            format!("{:.5}", c.energy_nn),
            format!("{:.5}", c.energy_fem),
        ]);
        if best.map(|(b, _)| c.rel_l2 < b).unwrap_or(true) {
            best = Some((c.rel_l2, kind.name()));
        }
        // Dump the Half-V fields for plotting (the paper's visualization).
        if kind == CycleKind::HalfV {
            let pred = predict_field(&mut net, &eval, 0, &dims).unwrap();
            dump_field_csv(&pred, &results_dir().join("table3_halfv_prediction.csv")).unwrap();
            let nu = eval.nu_field(0, &dims);
            dump_field_csv(&nu, &results_dir().join("table3_nu.csv")).unwrap();
        }
    }
    t3.print();
    if let Some((err, name)) = best {
        println!("best strategy by rel_L2: {name} ({err:.4}); paper picks Half-V\n");
    }

    // Tables 4/5/7 analogue: one Half-V network across all paper ω values.
    println!("-- Tables 4/5/7 analogue: Half-V network across anecdotal ω --");
    let (mut net, mut opt, train_data) = setup_2d(samples, 8, 2, args.seed);
    let mg = MgConfig {
        cycle: CycleKind::HalfV,
        levels,
        fixed_epochs: 2,
        adapt: false,
        cycles: 1,
    };
    let _ = MultigridTrainer::new(mg, cfg, dims.clone())
        .unwrap()
        .run(&mut net, &mut opt, &train_data, &comm)
        .unwrap();
    let mut t47 = Table::new([
        "omega",
        "nu_range",
        "rel_L2",
        "L_inf",
        "fem_iters",
        "warm_start_iters",
    ]);
    let mut rows = Vec::new();
    for s in 0..eval.len() {
        let c = compare_with_fem(&mut net, &eval, s, &dims).unwrap();
        let nu = eval.nu_field(s, &dims);
        t47.row([
            format!("{:?}", eval.omegas[s]),
            format!("{:.2}..{:.1}", nu.min(), nu.max()),
            format!("{:.4}", c.rel_l2),
            format!("{:.4}", c.linf),
            c.fem_iterations.to_string(),
            c.warm_start_iterations.to_string(),
        ]);
        rows.push(vec![
            format!("{:?}", eval.omegas[s]).replace(',', ";"),
            format!("{:.6}", c.rel_l2),
            format!("{:.6}", c.linf),
            c.fem_iterations.to_string(),
            c.warm_start_iterations.to_string(),
        ]);
        let pred = predict_field(&mut net, &eval, s, &dims).unwrap();
        dump_field_csv(&pred, &results_dir().join(format!("table47_pred_{s}.csv"))).unwrap();
    }
    t47.print();
    println!("\nwarm-start column: CG iterations when initialized from the prediction —");
    println!("the paper's §3.1.2 'excellent starting point' claim (lower is better).");
    let out = results_dir().join("table47_errors.csv");
    mgd_bench::write_csv(
        &out,
        &["omega", "rel_l2", "linf", "fem_iters", "warm_iters"],
        &rows,
    )
    .unwrap();
    println!("wrote {} and field CSVs", out.display());
}
