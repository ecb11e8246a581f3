//! **Figure 2** — per-epoch training time vs 2D resolution.
//!
//! The paper reports epoch times growing ~quadratically with the degrees of
//! freedom (8.76 s at 2^8 DoF up to 237.8 s at 2^18 on their hardware).
//! This harness measures real epoch times of our trainer over a resolution
//! sweep and reports the observed growth exponent.
//!
//! Run: `cargo run --release -p mgd-bench --bin fig2_epoch_scaling [--full]`

use mgd_bench::experiments::{setup_2d, train_cfg, ExperimentScale, HarnessArgs};
use mgd_bench::{results_dir, Table};
use mgd_dist::ThreadComm;
use mgdiffnet::Trainer;

fn main() {
    let args = HarnessArgs::parse();
    let (resolutions, samples, batch): (Vec<usize>, usize, usize) = match args.scale {
        ExperimentScale::Quick => (vec![16, 32, 64, 128], 8, 4),
        ExperimentScale::Full => (vec![16, 32, 64, 128, 256, 512], 64, 8),
    };
    println!("== Figure 2: epoch time vs resolution (2D) ==");
    println!("paper anchor: 8.76s at 2^8 DoF -> 237.8s at 2^18 DoF (quadratic growth)\n");

    let mut table = Table::new(["resolution", "DoF", "epoch_time_s", "time_ratio"]);
    let mut rows = Vec::new();
    let mut prev: Option<f64> = None;
    for &r in &resolutions {
        let (mut net, mut opt, data) = setup_2d(samples, 8, 2, args.seed);
        let comm = ThreadComm::solo();
        let cfg = train_cfg(batch, 4, args.seed);
        let mut tr = Trainer::new(&mut net, &mut opt, &data, &comm, vec![r, r], cfg).unwrap();
        // Warm once (allocator, caches), then time the best of two.
        let _ = tr.train_epoch().unwrap();
        let t1 = tr.train_epoch().unwrap().seconds;
        let t2 = tr.train_epoch().unwrap().seconds;
        let t = t1.min(t2);
        let ratio = prev
            .map(|p| format!("{:.2}x", t / p))
            .unwrap_or_else(|| "-".into());
        table.row([
            format!("{r}x{r}"),
            format!("{}", r * r),
            format!("{t:.3}"),
            ratio,
        ]);
        rows.push(vec![r.to_string(), (r * r).to_string(), format!("{t:.6}")]);
        prev = Some(t);
    }
    table.print();

    // Growth exponent between the two largest resolutions: the paper's
    // "quadratic with DoF" corresponds to time ratio ≈ 4 per resolution
    // doubling at large sizes (per-voxel work is constant, voxels x4).
    if resolutions.len() >= 2 {
        let n = rows.len();
        let t_hi: f64 = rows[n - 1][2].parse().unwrap();
        let t_lo: f64 = rows[n - 2][2].parse().unwrap();
        println!(
            "\nlargest-step time ratio: {:.2}x (paper's asymptote: ~4x per doubling)",
            t_hi / t_lo
        );
    }
    let out = results_dir().join("fig2_epoch_scaling.csv");
    mgd_bench::write_csv(&out, &["resolution", "dof", "epoch_seconds"], &rows).unwrap();
    println!("wrote {}", out.display());
}
