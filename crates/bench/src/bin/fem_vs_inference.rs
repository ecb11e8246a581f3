//! **§4.3 timing** — one FEM solve vs one network inference.
//!
//! Paper: "the FEM simulation takes about 5 minutes for 128³ ... the
//! MGDiffNet inference takes less than 30 seconds" — and the inference cost
//! is amortized across the whole ω family, whereas FEM re-solves per
//! instance. This harness times both on matched grids across a resolution
//! sweep (FEM = multigrid-preconditioned CG, hierarchy build included) and
//! reports the ratio.
//!
//! Run: `cargo run --release -p mgd-bench --bin fem_vs_inference [--full]`

use mgd_bench::experiments::{ExperimentScale, HarnessArgs};
use mgd_bench::{results_dir, Table};
use mgd_fem::{CgOptions, Dirichlet, Grid, GridHierarchy, HierarchyOptions};
use mgd_field::{Dataset, DiffusivityModel, InputEncoding};
use mgd_nn::{Layer, UNet, UNetConfig};
use std::time::Instant;

/// Times one MG-PCG solve (hierarchy build included) and one forward pass
/// on `dims`; returns `(fem_s, inference_s, fem_iterations)`.
fn time_solve<const D: usize>(
    dims: [usize; D],
    data: &Dataset,
    net: &mut UNet,
) -> (f64, f64, usize) {
    let nu = data.nu_field(0, &dims);
    let grid: Grid<D> = Grid::new(dims);
    let bc = Dirichlet::x_faces(&grid, 1.0, 0.0);
    let t = Instant::now();
    let hier = GridHierarchy::build(grid, nu.as_slice(), &bc, HierarchyOptions::default())
        .expect("every axis has at least 2 nodes");
    let opts = CgOptions {
        tol: 1e-8,
        ..Default::default()
    };
    let (_, stats) = hier
        .solve(None, None, opts)
        .expect("no forcing or warm start");
    let fem = t.elapsed().as_secs_f64();
    assert!(stats.converged, "FEM did not converge at {dims:?}");
    let x = data
        .try_batch_inputs(&[0], &dims)
        .expect("batch rasterization");
    let t = Instant::now();
    let _ = net.forward(&x, false);
    (fem, t.elapsed().as_secs_f64(), stats.iterations)
}

fn main() {
    let args = HarnessArgs::parse();
    println!("== §4.3: FEM solve vs network inference ==");
    println!("paper anchor (their testbed): FEM ~5 min vs inference <30 s at 128^3\n");
    let data = Dataset::sobol(1, DiffusivityModel::paper(), InputEncoding::LogNu);

    let mut table = Table::new(["grid", "fem_iters", "fem_s", "inference_s", "fem/inference"]);
    let mut rows = Vec::new();
    let mut record = |grid: String, key: String, (fem_s, infer_s, iters): (f64, f64, usize)| {
        table.row([
            grid,
            iters.to_string(),
            format!("{fem_s:.3}"),
            format!("{infer_s:.3}"),
            format!("{:.2}", fem_s / infer_s),
        ]);
        rows.push(vec![key, format!("{fem_s:.5}"), format!("{infer_s:.5}")]);
    };

    let res_2d: Vec<usize> = match args.scale {
        ExperimentScale::Quick => vec![64, 128, 256],
        ExperimentScale::Full => vec![64, 128, 256, 512],
    };
    let mut net2 = UNet::new(UNetConfig {
        two_d: true,
        depth: 3,
        base_filters: 16,
        ..Default::default()
    });
    for r in res_2d {
        let t = time_solve([r, r], &data, &mut net2);
        record(format!("{r}x{r}"), format!("2d_{r}"), t);
    }

    let res_3d: Vec<usize> = match args.scale {
        ExperimentScale::Quick => vec![16, 32],
        ExperimentScale::Full => vec![16, 32, 64, 128],
    };
    let mut net3 = UNet::new(UNetConfig {
        two_d: false,
        depth: 3,
        base_filters: 16,
        ..Default::default()
    });
    for r in res_3d {
        let t = time_solve([r, r, r], &data, &mut net3);
        record(format!("{r}^3"), format!("3d_{r}"), t);
    }
    table.print();
    println!("\nnote: on CPU in f64 our un-optimized inference is not GPU-fast; the paper's");
    println!("claim is architectural. Multigrid holds the FEM iteration count constant, so");
    println!("per-ω FEM work grows with the voxel count and is paid again for every ω;");
    println!("inference is a fixed number of passes from one network trained once for");
    println!("the whole ω family.");
    let out = results_dir().join("fem_vs_inference.csv");
    mgd_bench::write_csv(&out, &["grid", "fem_s", "inference_s"], &rows).unwrap();
    println!("wrote {}", out.display());
}
