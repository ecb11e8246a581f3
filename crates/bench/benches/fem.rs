//! FEM kernel and solver benchmarks, including the element-coloring and
//! parallel-threshold ablations called out in DESIGN.md.

use criterion::{criterion_group, criterion_main, Criterion};
use mgd_fem::{
    apply_stiffness, apply_stiffness_serial, energy_grad, solve_cg, CgOptions, Dirichlet,
    ElementBasis, Grid, GridHierarchy, HierarchyOptions,
};
use std::time::Duration;

fn nu_field(g: &Grid<2>) -> Vec<f64> {
    (0..g.num_nodes())
        .map(|i| {
            let c = g.node_coords(i);
            (0.7 * (3.0 * c[0]).sin() * (2.0 * c[1]).cos()).exp()
        })
        .collect()
}

fn bench_fem(c: &mut Criterion) {
    let mut grp = c.benchmark_group("fem");
    grp.sample_size(10)
        .measurement_time(Duration::from_millis(1200))
        .warm_up_time(Duration::from_millis(300));

    let g: Grid<2> = Grid::cube(65);
    let basis = ElementBasis::new(&g);
    let nn = g.num_nodes();
    let nu = nu_field(&g);
    let u: Vec<f64> = (0..nn).map(|i| (i as f64 * 0.37).sin()).collect();
    let mut out = vec![0.0; nn];

    grp.bench_function("apply_stiffness_colored_65sq", |b| {
        b.iter(|| {
            out.iter_mut().for_each(|x| *x = 0.0);
            apply_stiffness(&g, &basis, &nu, std::hint::black_box(&u), &mut out);
        })
    });
    // Ablation: element coloring + rayon vs strict serial assembly.
    grp.bench_function("ablation_coloring_serial_65sq", |b| {
        b.iter(|| {
            out.iter_mut().for_each(|x| *x = 0.0);
            apply_stiffness_serial(&g, &basis, &nu, std::hint::black_box(&u), &mut out);
        })
    });

    let mut grad = vec![0.0; nn];
    grp.bench_function("energy_grad_65sq", |b| {
        b.iter(|| energy_grad(&g, &basis, &nu, std::hint::black_box(&u), None, &mut grad))
    });

    // Solvers: one full solve each. MG-PCG (hierarchy build included) runs
    // at the network-shaped 64², which never vertex-nests.
    let g64: Grid<2> = Grid::cube(64);
    let nu64 = nu_field(&g64);
    let bc64 = Dirichlet::x_faces(&g64, 1.0, 0.0);
    grp.bench_function("solve_mgpcg_64sq", |b| {
        b.iter(|| {
            let h = GridHierarchy::build(g64, &nu64, &bc64, HierarchyOptions::default())
                .expect("64^2 coarsens");
            let (u, stats) = h.solve(
                None,
                None,
                CgOptions {
                    tol: 1e-8,
                    ..Default::default()
                },
            );
            assert!(stats.converged);
            std::hint::black_box(u)
        })
    });
    let bc = Dirichlet::x_faces(&g, 1.0, 0.0);
    grp.bench_function("solve_cg_65sq", |b| {
        b.iter(|| {
            let (u, stats) = solve_cg(
                &g,
                &basis,
                &nu,
                &bc,
                None,
                None,
                CgOptions {
                    tol: 1e-8,
                    ..Default::default()
                },
            );
            assert!(stats.converged);
            std::hint::black_box(u)
        })
    });

    grp.finish();
}

criterion_group!(benches, bench_fem);
criterion_main!(benches);
