//! Domain-decomposed FEM solve across ranks — the substrate for the
//! paper's §5 future work ("scaling beyond megavoxels to gigavoxels",
//! model parallelism): no single worker ever holds the full field.
//!
//! Each rank owns a z-slab of the grid plus one halo plane per side;
//! conjugate gradients runs with halo exchanges and global reductions only.
//! The demo solves the same paper-family Poisson problem serially and
//! distributed, and reports per-rank memory alongside the agreement.
//!
//! `cargo run --release -p mgd-examples --bin gigavoxel_slabs`

use mgd_fem::{solve_cg, CgOptions, Dirichlet, ElementBasis, Grid};
use mgdiffnet::prelude::*;
use mgdiffnet::{DistPoisson, SlabPartition};

fn main() {
    let m = 33usize; // full-field node count per axis
    let grid: Grid<3> = Grid::cube(m);
    let model = DiffusivityModel::paper();
    let omega = [0.3105, 1.5386, 0.0932, -1.2442];
    let nu = model.rasterize(&omega, &[m, m, m]);
    let bc = Dirichlet::x_faces(&grid, 1.0, 0.0);
    println!(
        "domain-decomposed Poisson solve at {m}^3 = {} nodes\n",
        grid.num_nodes()
    );

    // Serial reference: Jacobi-CG, the same iteration the ranks run.
    let start = std::time::Instant::now();
    let opts = CgOptions {
        tol: 1e-10,
        max_iter: 50_000,
        ..Default::default()
    };
    let basis = ElementBasis::new(&grid);
    let (serial, stats) = solve_cg(&grid, &basis, nu.as_slice(), &bc, None, None, opts);
    assert!(stats.converged);
    println!(
        "serial CG: {} iterations, {:.2}s, full-field storage {:.1} MB",
        stats.iterations,
        start.elapsed().as_secs_f64(),
        (grid.num_nodes() * 8) as f64 / 1e6
    );

    // Distributed solve across 3 in-process ranks.
    let p = 3usize;
    let part = SlabPartition::new(m, p).expect("valid slab config");
    for r in 0..p {
        let planes = part.owned_planes(r);
        println!(
            "rank {r}: owns z-planes {:?} (~{:.1} MB local slab incl. halos)",
            planes.clone(),
            ((planes.len() + 2) * m * m * 8) as f64 / 1e6
        );
    }
    let nu_c = nu.clone();
    let bc_c = bc.clone();
    let slabs = launch(p, move |comm| {
        let dist =
            DistPoisson::new(&comm, grid, nu_c.as_slice(), &bc_c).expect("valid slab config");
        let start = std::time::Instant::now();
        let (owned, iters, converged) = dist.solve_cg(1e-10, 5000);
        (owned, iters, converged, start.elapsed().as_secs_f64())
    });

    let mut stitched = Vec::new();
    let mut max_t = 0.0f64;
    for (owned, iters, converged, secs) in &slabs {
        assert!(converged, "distributed CG did not converge");
        stitched.extend_from_slice(owned);
        max_t = max_t.max(*secs);
        let _ = iters;
    }
    let err: f64 = stitched
        .iter()
        .zip(&serial)
        .map(|(a, b)| (a - b) * (a - b))
        .sum::<f64>()
        .sqrt();
    let norm: f64 = serial.iter().map(|x| x * x).sum::<f64>().sqrt();
    println!(
        "\ndistributed CG across {p} ranks: {} iterations, {:.2}s",
        slabs[0].1, max_t
    );
    println!("stitched-vs-serial relative L2: {:.2e}", err / norm);
    println!(
        "\nscaling the same partitioning to 1024^3 (a gigavoxel): full field {:.0} GB,\n\
         but per-rank slabs of {:.1} GB on 8 ranks — the §5 growth path.",
        (1024f64.powi(3) * 8.0) / 1e9,
        (1024f64.powi(3) * 8.0) / 1e9 / 8.0
    );
}
