//! End-to-end pipelines: data generation → multigrid training → FEM
//! comparison, in 2D and 3D.

use mgd_dist::ThreadComm;
use mgd_integration_tests::tiny_2d_setup;
use mgdiffnet::prelude::*;

#[test]
fn half_v_training_approaches_fem_solution_2d() {
    let (mut net, mut opt, data) = tiny_2d_setup(8, 1);
    let comm = ThreadComm::solo();
    let cfg = TrainConfig {
        batch_size: 4,
        max_epochs: 200,
        patience: 20,
        min_delta: 1e-4,
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
    let log = MultigridTrainer::new(mg, cfg, dims.clone())
        .unwrap()
        .run(&mut net, &mut opt, &data, &comm)
        .unwrap();
    assert!(log.final_loss.is_finite());
    // Compare against FEM on a training sample: the trained surrogate must
    // beat the untrained baseline error by a wide margin.
    let cmp = compare_with_fem(&mut net, &data, 0, &dims).unwrap();
    let (mut fresh, _, _) = tiny_2d_setup(8, 99);
    let cmp0 = compare_with_fem(&mut fresh, &data, 0, &dims).unwrap();
    assert!(
        cmp.rel_l2 < 0.5 * cmp0.rel_l2,
        "training must at least halve the field error: {} -> {}",
        cmp0.rel_l2,
        cmp.rel_l2
    );
    assert!(cmp.rel_l2 < 0.25, "trained error too large: {}", cmp.rel_l2);
    // Energy ordering: FEM is the minimizer.
    assert!(cmp.energy_nn >= cmp.energy_fem - 1e-9);
}

#[test]
fn all_cycles_run_and_converge_to_similar_losses_2d() {
    // Table 1's qualitative claim: every strategy lands near the same loss.
    let comm = ThreadComm::solo();
    let dims = vec![16usize, 16];
    let mut finals = Vec::new();
    for kind in CycleKind::ALL {
        let (mut net, mut opt, data) = tiny_2d_setup(4, 3);
        let cfg = TrainConfig {
            batch_size: 4,
            max_epochs: 40,
            patience: 6,
            ..Default::default()
        };
        let mg = MgConfig {
            cycle: kind,
            levels: 2,
            fixed_epochs: 2,
            adapt: false,
            cycles: 1,
        };
        let log = MultigridTrainer::new(mg, cfg, dims.clone())
            .unwrap()
            .run(&mut net, &mut opt, &data, &comm)
            .unwrap();
        finals.push((kind.name(), log.final_loss));
    }
    let losses: Vec<f64> = finals.iter().map(|(_, l)| *l).collect();
    let max = losses.iter().cloned().fold(f64::MIN, f64::max);
    let min = losses.iter().cloned().fold(f64::MAX, f64::min);
    // All cycles within a reasonable band of each other.
    assert!(
        max - min < 0.5 * min.abs().max(0.1),
        "cycle losses too spread: {finals:?}"
    );
}

#[test]
fn three_d_pipeline_runs() {
    let comm = ThreadComm::solo();
    let data = mgd_field::Dataset::sobol(
        4,
        mgd_field::DiffusivityModel::paper(),
        mgd_field::InputEncoding::LogNu,
    );
    let mut net = UNet::new(UNetConfig {
        depth: 2,
        base_filters: 2,
        seed: 4,
        ..Default::default()
    });
    let mut opt = Adam::new(3e-3);
    let cfg = TrainConfig {
        batch_size: 2,
        max_epochs: 6,
        patience: 3,
        ..Default::default()
    };
    let mg = MgConfig {
        cycle: CycleKind::HalfV,
        levels: 2,
        fixed_epochs: 1,
        adapt: false,
        cycles: 1,
    };
    let dims = vec![16usize, 16, 16];
    let log = MultigridTrainer::new(mg, cfg, dims.clone())
        .unwrap()
        .run(&mut net, &mut opt, &data, &comm)
        .unwrap();
    assert_eq!(log.phases.len(), 2);
    assert_eq!(log.phases[0].dims, vec![8, 8, 8]);
    assert!(log.final_loss.is_finite());
    let cmp = compare_with_fem(&mut net, &data, 0, &dims).unwrap();
    assert!(cmp.rel_l2.is_finite());
}

#[test]
fn architectural_adaptation_pipeline() {
    // Table 2's mechanism end to end: adaptation deepens the net while the
    // training loss keeps improving across the refinement.
    let (mut net, mut opt, data) = tiny_2d_setup(4, 6);
    let depth0 = net.cfg.depth;
    let comm = ThreadComm::solo();
    let cfg = TrainConfig {
        batch_size: 4,
        max_epochs: 20,
        patience: 4,
        ..Default::default()
    };
    let mg = MgConfig {
        cycle: CycleKind::HalfV,
        levels: 2,
        fixed_epochs: 2,
        adapt: true,
        cycles: 1,
    };
    let log = MultigridTrainer::new(mg, cfg, vec![32, 32])
        .unwrap()
        .run(&mut net, &mut opt, &data, &comm)
        .unwrap();
    assert_eq!(net.cfg.depth, depth0 + 1);
    // Paper §4.1.2: "within 20-30 mini-batches of update, the loss ...
    // drops down" — by the end of the post-adaptation phase the loss must
    // be finite and not have exploded.
    let last = log.phases.last().unwrap();
    assert!(last.final_loss.is_finite());
    assert!(last.final_loss <= last.losses.first().unwrap() * 1.5 + 1.0);
}

#[test]
fn checkpoint_roundtrip_through_training() {
    let (mut net, mut opt, data) = tiny_2d_setup(4, 8);
    let comm = ThreadComm::solo();
    let cfg = TrainConfig {
        batch_size: 4,
        max_epochs: 5,
        ..Default::default()
    };
    let mg = MgConfig {
        cycle: CycleKind::Base,
        levels: 1,
        fixed_epochs: 0,
        adapt: false,
        cycles: 1,
    };
    let _ = MultigridTrainer::new(mg, cfg, vec![16, 16])
        .unwrap()
        .run(&mut net, &mut opt, &data, &comm)
        .unwrap();
    let snap = mgd_nn::WeightSnapshot::capture(&mut net);
    let dir = std::env::temp_dir().join("mgd_integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trained.json");
    snap.save(&path).unwrap();
    // Restore into a differently seeded net of the same architecture.
    let (mut restored, _, _) = tiny_2d_setup(4, 9);
    let untrained = predict_field(&mut restored, &data, 0, &[16, 16]).unwrap();
    mgd_nn::WeightSnapshot::load(&path)
        .unwrap()
        .restore(&mut restored)
        .unwrap();
    let a = predict_field(&mut net, &data, 0, &[16, 16]).unwrap();
    let b = predict_field(&mut restored, &data, 0, &[16, 16]).unwrap();
    assert!(a.rel_l2_error(&untrained) > 1e-6, "the restore must matter");
    assert!(a.rel_l2_error(&b) < 1e-14);
    std::fs::remove_file(&path).ok();
}
