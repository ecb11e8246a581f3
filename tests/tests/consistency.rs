//! Cross-crate consistency checks.

use mgd_cluster::{unet_params, ArchModel};
use mgd_dist::ThreadComm;
use mgd_integration_tests::tiny_2d_setup;
use mgd_nn::{UNet, UNetConfig};
use mgdiffnet::prelude::*;

#[test]
fn cluster_model_param_count_matches_real_network() {
    // The performance model (Figure 9/10 substitution) must describe the
    // actual architecture: its parameter count has to match `mgd-nn`.
    for (depth, base, two_d) in [
        (3usize, 16usize, false),
        (2, 8, true),
        (3, 16, true),
        (4, 8, false),
    ] {
        let mut net = UNet::new(UNetConfig {
            depth,
            base_filters: base,
            two_d,
            ..Default::default()
        });
        let arch = ArchModel {
            in_channels: 1,
            out_channels: 1,
            depth,
            base_filters: base,
            two_d,
        };
        assert_eq!(
            unet_params(&arch),
            net.num_parameters(),
            "model/net mismatch for depth={depth} base={base} two_d={two_d}"
        );
    }
}

#[test]
fn trained_prediction_warm_starts_fem() {
    // §3.1.2: "the forward pass ... becomes an excellent starting point".
    // After training, CG warm-started from the prediction must need fewer
    // iterations than the cold solve.
    let (mut net, mut opt, data) = tiny_2d_setup(8, 21);
    let comm = ThreadComm::solo();
    let cfg = TrainConfig {
        batch_size: 4,
        max_epochs: 80,
        patience: 10,
        ..Default::default()
    };
    let mg = MgConfig {
        cycle: CycleKind::HalfV,
        levels: 2,
        fixed_epochs: 2,
        adapt: false,
        cycles: 1,
    };
    let dims = vec![32usize, 32];
    let _ = MultigridTrainer::new(mg, cfg, dims.clone())
        .unwrap()
        .run(&mut net, &mut opt, &data, &comm)
        .unwrap();
    let cmp = compare_with_fem(&mut net, &data, 1, &dims).unwrap();
    assert!(
        cmp.warm_start_iterations < cmp.fem_iterations,
        "warm start ({}) should beat cold start ({})",
        cmp.warm_start_iterations,
        cmp.fem_iterations
    );
}

#[test]
fn resolution_agnostic_inference_across_multigrid_levels() {
    // The same trained weights produce fields at every hierarchy level —
    // the property that makes multigrid training possible at all.
    let (mut net, mut opt, data) = tiny_2d_setup(4, 31);
    let comm = ThreadComm::solo();
    let cfg = TrainConfig {
        batch_size: 4,
        max_epochs: 20,
        patience: 5,
        ..Default::default()
    };
    let mg = MgConfig {
        cycle: CycleKind::HalfV,
        levels: 2,
        fixed_epochs: 2,
        adapt: false,
        cycles: 1,
    };
    let _ = MultigridTrainer::new(mg, cfg, vec![32, 32])
        .unwrap()
        .run(&mut net, &mut opt, &data, &comm)
        .unwrap();
    for dims in [[16usize, 16], [32, 32], [64, 64]] {
        let f = predict_field(&mut net, &data, 0, &dims).unwrap();
        assert_eq!(f.dims(), &dims);
        // Boundary exactness at every resolution.
        for j in 0..dims[0] {
            assert_eq!(f.at(&[j, 0]), 1.0);
            assert_eq!(f.at(&[j, dims[1] - 1]), 0.0);
        }
        // Field respects the maximum principle within a small slack.
        assert!(f.max() <= 1.0 + 1e-9 && f.min() >= -1e-9);
    }
}

#[test]
fn gmg_and_cg_agree_on_paper_diffusivity() {
    // The classical solver stack agrees with itself on a paper-family ν:
    // geometric-multigrid-preconditioned CG vs the Jacobi-CG reference, on
    // a nested and a network-shaped (never nested) grid.
    use mgd_fem::{
        pcg, CgOptions, Dirichlet, Grid, GridHierarchy, HierarchyOptions, JacobiPrecond,
    };
    let model = DiffusivityModel::paper();
    let omega = [0.3105, 1.5386, 0.0932, -1.2442];
    let opts = CgOptions {
        tol: 1e-11,
        ..Default::default()
    };
    for dims in [[33usize, 33], [32, 32]] {
        let nu = model.rasterize(&omega, &dims);
        let grid: Grid<2> = Grid::new(dims);
        let bc = Dirichlet::x_faces(&grid, 1.0, 0.0);
        let hier =
            GridHierarchy::build(grid, nu.as_slice(), &bc, HierarchyOptions::default()).unwrap();
        let (gmg, gmg_stats) = hier.solve(None, None, opts).unwrap();
        // Jacobi-CG through the same loop, on the hierarchy's finest system.
        let sys = hier.finest();
        let (mut cg, rhs) = (vec![0.0; sys.num_nodes()], vec![0.0; sys.num_nodes()]);
        sys.impose_bc(&mut cg);
        let cg_stats = pcg::solve(sys, &JacobiPrecond::of(sys), &mut cg, &rhs, opts).unwrap();
        assert!(gmg_stats.converged && cg_stats.converged);
        let err: f64 = gmg
            .iter()
            .zip(&cg)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        let norm: f64 = cg.iter().map(|x| x * x).sum::<f64>().sqrt();
        assert!(
            err / norm < 1e-7,
            "solvers disagree at {dims:?}: {}",
            err / norm
        );
    }
}

#[test]
fn energy_loss_matches_fem_stiffness_quadratic_form() {
    // J(u) computed by the loss equals ½ uᵀK u for the no-forcing problem —
    // ties the training loss to the solver operator (the assembled stencil).
    use mgd_fem::{Dirichlet, FemSystem, Grid};
    let dims = [8usize, 8];
    let loss = FemLoss::new(&dims).unwrap();
    let model = DiffusivityModel::paper();
    let nu = model.rasterize(&[0.5, -1.0, 0.7, 0.2], &dims);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(2);
    let u = Tensor::rand_uniform([1, 1, 1, 8, 8], 0.0, 1.0, &mut rng);
    let j = loss.energy_batch(std::slice::from_ref(&nu), &u);
    let grid: Grid<2> = Grid::new(dims);
    let bc = Dirichlet::x_faces(&grid, 1.0, 0.0);
    let sys = FemSystem::new(grid, nu.as_slice().to_vec(), bc).unwrap();
    let mut ku = vec![0.0; grid.num_nodes()];
    sys.apply(u.as_slice(), &mut ku);
    let quad: f64 = u.as_slice().iter().zip(&ku).map(|(a, b)| a * b).sum();
    assert!(
        (j - 0.5 * quad).abs() < 1e-10,
        "J = {j}, ½uᵀKu = {}",
        0.5 * quad
    );
}
