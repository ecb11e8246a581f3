//! Distributed-training invariants (paper §3.2).

use mgd_dist::{launch, Comm};
use mgdiffnet::prelude::*;

fn train_losses(p: usize, epochs: usize) -> Vec<f64> {
    let results = launch(p, move |comm| {
        let data = Dataset::sobol(8, DiffusivityModel::paper(), InputEncoding::LogNu);
        // batch_norm off: BN statistics are computed over the *local*
        // batch (standard data-parallel semantics), which breaks bitwise
        // worker-count independence; the Eq. 15 guarantee applies to the
        // stat-free network.
        let mut net = UNet::new(UNetConfig {
            two_d: true,
            depth: 2,
            base_filters: 4,
            seed: 55,
            batch_norm: false,
            ..Default::default()
        });
        let mut opt = Adam::new(1e-3);
        let cfg = TrainConfig {
            batch_size: 4,
            max_epochs: epochs,
            ..Default::default()
        };
        let mut tr = Trainer::new(&mut net, &mut opt, &data, &comm, vec![16, 16], cfg).unwrap();
        tr.sync_initial_params();
        tr.train_fixed(epochs)
            .unwrap()
            .epochs
            .iter()
            .map(|e| e.loss)
            .collect::<Vec<f64>>()
    });
    results.into_iter().next().unwrap()
}

#[test]
fn worker_count_independence() {
    // Eq. 15 + exact gradient averaging: p = 1, 2, 4 follow the same
    // trajectory up to floating-point reduction order.
    let l1 = train_losses(1, 6);
    let l2 = train_losses(2, 6);
    let l4 = train_losses(4, 6);
    for e in 0..l1.len() {
        let d2 = (l1[e] - l2[e]).abs() / l1[e].abs().max(1e-12);
        let d4 = (l1[e] - l4[e]).abs() / l1[e].abs().max(1e-12);
        assert!(d2 < 1e-8, "epoch {e}: p2 deviation {d2}");
        assert!(d4 < 1e-8, "epoch {e}: p4 deviation {d4}");
    }
}

#[test]
fn ring_allreduce_handles_network_sized_gradients() {
    // A realistic parameter-count buffer (hundreds of k) through the ring.
    let n = mgd_nn::UNet::new(UNetConfig {
        two_d: true,
        depth: 2,
        base_filters: 8,
        ..Default::default()
    })
    .num_parameters();
    let results = launch(4, move |comm| {
        let mut buf: Vec<f64> = (0..n)
            .map(|i| (comm.rank() + 1) as f64 + i as f64 * 1e-9)
            .collect();
        comm.allreduce_sum(&mut buf);
        buf
    });
    let expect0: f64 = (1..=4).map(|r| r as f64).sum();
    for buf in &results {
        assert!((buf[0] - expect0).abs() < 1e-9);
        assert_eq!(buf.len(), n);
    }
}

#[test]
fn replicas_stay_in_sync_across_epochs() {
    // After several distributed epochs all ranks hold bitwise-identical
    // parameters (the §3.2 "in sync with every other worker" claim).
    let hashes = launch(2, |comm| {
        let data = Dataset::sobol(4, DiffusivityModel::paper(), InputEncoding::LogNu);
        let mut net = UNet::new(UNetConfig {
            two_d: true,
            depth: 1,
            base_filters: 2,
            seed: 9,
            batch_norm: false,
            ..Default::default()
        });
        let mut opt = Adam::new(1e-3);
        let cfg = TrainConfig {
            batch_size: 4,
            max_epochs: 4,
            ..Default::default()
        };
        let mut tr = Trainer::new(&mut net, &mut opt, &data, &comm, vec![16, 16], cfg).unwrap();
        tr.sync_initial_params();
        let _ = tr.train_fixed(4).unwrap();
        // Cheap structural hash of the final parameters.
        let mut flat = Vec::new();
        mgd_nn::param::flatten_params(&tr.net.params(), &mut flat);
        flat.iter()
            .enumerate()
            .map(|(i, x)| x * (i as f64 + 1.0))
            .sum::<f64>()
    });
    assert!(
        (hashes[0] - hashes[1]).abs() <= 1e-9 * hashes[0].abs().max(1.0),
        "replicas diverged: {hashes:?}"
    );
}

/// One tiny engine per call: stat-free net (batch norm computes local-batch
/// statistics, which breaks Eq. 15's worker-count independence), fixed seed,
/// global batch 4 so p ∈ {1, 2, 4} all shard it evenly.
fn tiny_engine(parallelism: Parallelism) -> SolverEngine {
    SolverEngine::builder()
        .resolution([16, 16])
        .problem(Problem::poisson_2d(DiffusivityModel::paper()))
        .levels(2)
        .fixed_epochs(2)
        .samples(8)
        .batch_size(4)
        .max_epochs(4)
        .batch_norm(false)
        .seed(11)
        .parallelism(parallelism)
        .build()
        .unwrap()
}

/// Flattened per-epoch loss trajectory over every phase of the run.
fn trajectory(log: &mgdiffnet::MgRunLog) -> Vec<f64> {
    log.phases.iter().flat_map(|p| p.losses.clone()).collect()
}

#[test]
fn engine_threads_trajectory_matches_serial() {
    // The acceptance bar: Threads(p) for p ∈ {2, 4} follows the Serial
    // epoch-loss trajectory at the same global batch size within f32
    // reduction tolerance, through the full multigrid schedule.
    let serial = trajectory(&tiny_engine(Parallelism::Serial).train().unwrap());
    assert!(!serial.is_empty());
    for p in [2usize, 4] {
        let dist = trajectory(&tiny_engine(Parallelism::Threads(p)).train().unwrap());
        assert_eq!(serial.len(), dist.len(), "p={p}: same schedule length");
        for (e, (a, b)) in serial.iter().zip(&dist).enumerate() {
            let rel = (a - b).abs() / a.abs().max(1e-12);
            assert!(
                rel < 1e-6,
                "p={p} epoch {e}: serial {a} vs threads {b} (rel {rel:.2e})"
            );
        }
    }
}

#[test]
fn engine_threads_predictions_match_serial() {
    // Beyond the loss trajectory: the *models* that come out agree — rank
    // 0's replica is the engine's result, and its predictions sit on top of
    // the serial model's up to reduction-order noise.
    let mut serial = tiny_engine(Parallelism::Serial);
    let mut dist = tiny_engine(Parallelism::Threads(2));
    serial.train().unwrap();
    dist.train().unwrap();
    let nu = serial.dataset().nu_field(1, &[16, 16]);
    let a = serial.predict(&nu).unwrap();
    let b = dist.predict(&nu).unwrap();
    assert!(
        a.rel_l2_error(&b) < 1e-7,
        "serial and 2-thread models diverged: {}",
        a.rel_l2_error(&b)
    );
}

#[test]
fn engine_threads_training_is_bitwise_deterministic() {
    // At a fixed rank count, repeated runs must be *bitwise* identical:
    // the ring all-reduce folds in rank order, shuffles share the seed,
    // and there is no scheduling-dependent reduction anywhere.
    for p in [2usize, 4] {
        let run1 = tiny_engine(Parallelism::Threads(p)).train().unwrap();
        let run2 = tiny_engine(Parallelism::Threads(p)).train().unwrap();
        let t1 = trajectory(&run1);
        let t2 = trajectory(&run2);
        assert_eq!(t1.len(), t2.len());
        for (e, (a, b)) in t1.iter().zip(&t2).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "p={p} epoch {e}: {a} != {b} across repeated runs"
            );
        }
        assert_eq!(run1.final_loss.to_bits(), run2.final_loss.to_bits());
    }
}

#[test]
fn anisotropic_threads_training_is_bitwise_deterministic() {
    // Operator-zoo acceptance: the tensor-coefficient operator must keep
    // the same run-to-run bitwise guarantee as Poisson — the element loop
    // over coefficient channels is fixed-order, so nothing about the
    // reduction schedule depends on the operator.
    let aniso = Anisotropy::new(4.0, 0.5).unwrap();
    let build = || {
        SolverEngine::builder()
            .resolution([16, 16])
            .problem(Problem::anisotropic_2d(DiffusivityModel::paper(), aniso))
            .levels(2)
            .fixed_epochs(2)
            .samples(8)
            .batch_size(4)
            .max_epochs(4)
            .batch_norm(false)
            .seed(11)
            .parallelism(Parallelism::Threads(2))
            .build()
            .unwrap()
    };
    let run1 = build().train().unwrap();
    let run2 = build().train().unwrap();
    let t1 = trajectory(&run1);
    let t2 = trajectory(&run2);
    assert_eq!(t1.len(), t2.len());
    assert!(!t1.is_empty());
    for (e, (a, b)) in t1.iter().zip(&t2).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "aniso epoch {e}: {a} != {b} across repeated runs"
        );
    }
    assert_eq!(run1.final_loss.to_bits(), run2.final_loss.to_bits());
}

#[test]
fn padded_dataset_divides_cleanly() {
    let data = Dataset::sobol(10, DiffusivityModel::paper(), InputEncoding::LogNu);
    let mut perm = data.epoch_permutation(1, 0);
    mgd_dist::pad_indices(&mut perm, 4);
    assert_eq!(perm.len() % 4, 0);
    // And sharding the padded permutation satisfies Eq. 15.
    for mb in mgd_dist::global_minibatches(&perm, 4) {
        let mut union = Vec::new();
        for r in 0..4 {
            union.extend_from_slice(mgd_dist::local_minibatch(&mb, r, 4));
        }
        assert_eq!(union, mb);
    }
}
