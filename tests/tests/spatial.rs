//! Spatial (slab-decomposed) serving through the `SolverEngine`:
//! `Parallelism::SpatialThreads(p)` must be **bitwise identical** to
//! `Serial` on 2D and 3D problems at the acceptance sizes, fail with typed
//! errors on bad decompositions, and keep the serving cache working on the
//! assembled outputs.

use mgdiffnet::prelude::*;
use mgdiffnet::Precision;
use std::sync::{PoisonError, RwLock};

/// Rank spawns and weight prepacks are counted process-wide, and tests run
/// on parallel threads: every test holds this shared, and the one that
/// asserts those counters do not move holds it exclusively.
static RANK_SPAWNS: RwLock<()> = RwLock::new(());

fn assert_bitwise(a: &Tensor, b: &Tensor, what: &str) {
    assert_eq!(a.dims(), b.dims(), "{what}: shape");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} differs ({x} vs {y})"
        );
    }
}

#[test]
fn spatial_threads_bitwise_on_2d_128() {
    let _spawns = RANK_SPAWNS.read().unwrap_or_else(PoisonError::into_inner);
    // 128² 2D problem, depth-3 U-Net (slab alignment 8 along y).
    let build = |par: Parallelism| {
        SolverEngine::builder()
            .resolution([128, 128])
            .problem(Problem::poisson_2d(DiffusivityModel::paper()))
            .levels(1)
            .net_depth(3)
            .base_filters(4)
            .samples(2)
            .batch_size(2)
            .seed(11)
            .parallelism(par)
            .build()
            .unwrap()
    };
    let serial = build(Parallelism::Serial);
    let fields: Vec<Tensor> = (0..2)
        .map(|s| serial.dataset().nu_field(s, &[128, 128]))
        .collect();
    let expect = serial.predict_batch(&fields).unwrap();
    for p in [2usize, 4] {
        let spatial = build(Parallelism::SpatialThreads(p));
        let got = spatial.predict_batch(&fields).unwrap();
        for (e, g) in expect.iter().zip(&got) {
            assert_bitwise(e, g, &format!("2D 128² p={p}"));
        }
        assert_eq!(spatial.stats().forward_passes, 1);
    }
}

#[test]
fn spatial_threads_bitwise_on_3d_64() {
    let _spawns = RANK_SPAWNS.read().unwrap_or_else(PoisonError::into_inner);
    // 64³ 3D problem (262k voxels), depth-2 U-Net (slab alignment 4
    // along z) — the acceptance configuration of the spatial tentpole.
    let build = |par: Parallelism| {
        SolverEngine::builder()
            .resolution([64, 64, 64])
            .problem(Problem::poisson_3d(DiffusivityModel::paper()))
            .levels(1)
            .net_depth(2)
            .base_filters(2)
            .samples(1)
            .batch_size(1)
            .seed(23)
            .parallelism(par)
            .build()
            .unwrap()
    };
    let serial = build(Parallelism::Serial);
    let nu = serial.dataset().nu_field(0, &[64, 64, 64]);
    let expect = serial.predict(&nu).unwrap();
    for p in [2usize, 4] {
        let spatial = build(Parallelism::SpatialThreads(p));
        let got = spatial.predict(&nu).unwrap();
        assert_bitwise(&expect, &got, &format!("3D 64³ p={p}"));
        // Cache replay on the spatial engine: no second forward pass.
        let passes = spatial.stats().forward_passes;
        let again = spatial.predict(&nu).unwrap();
        assert_eq!(spatial.stats().forward_passes, passes);
        assert_bitwise(&got, &again, "cache replay");
    }
}

#[test]
fn spatial_threads_bitwise_on_anisotropic_2d() {
    let _spawns = RANK_SPAWNS.read().unwrap_or_else(PoisonError::into_inner);
    // The operator-zoo acceptance: slab-decomposed serving of the
    // anisotropic tensor-coefficient problem (3-channel input) must stay
    // bitwise identical to Serial — halo exchange and panel packing are
    // coefficient-channel agnostic.
    let aniso = Anisotropy::new(4.0, 0.5).unwrap();
    let build = |par: Parallelism| {
        SolverEngine::builder()
            .resolution([64, 64])
            .problem(Problem::anisotropic_2d(DiffusivityModel::paper(), aniso))
            .levels(1)
            .net_depth(2)
            .base_filters(4)
            .samples(2)
            .batch_size(2)
            .seed(29)
            .parallelism(par)
            .build()
            .unwrap()
    };
    let serial = build(Parallelism::Serial);
    let fields: Vec<Tensor> = (0..2)
        .map(|s| serial.dataset().nu_field(s, &[64, 64]))
        .collect();
    assert_eq!(fields[0].dims(), &[3, 64, 64], "tensor coefficient blocks");
    let expect = serial.predict_batch(&fields).unwrap();
    for p in [2usize, 4] {
        let spatial = build(Parallelism::SpatialThreads(p));
        let got = spatial.predict_batch(&fields).unwrap();
        for (e, g) in expect.iter().zip(&got) {
            assert_bitwise(e, g, &format!("aniso 2D 64² p={p}"));
        }
        assert_eq!(spatial.stats().forward_passes, 1);
    }
}

#[test]
fn spatial_threads_respects_dirichlet_faces() {
    let _spawns = RANK_SPAWNS.read().unwrap_or_else(PoisonError::into_inner);
    let engine = SolverEngine::builder()
        .resolution([32, 32, 32])
        .problem(Problem::poisson_3d(DiffusivityModel::paper()))
        .levels(1)
        .net_depth(2)
        .base_filters(2)
        .samples(1)
        .batch_size(1)
        .parallelism(Parallelism::SpatialThreads(2))
        .build()
        .unwrap();
    let nu = engine.dataset().nu_field(0, &[32, 32, 32]);
    let u = engine.predict(&nu).unwrap();
    for z in 0..32 {
        for y in 0..32 {
            assert_eq!(u.at(&[z, y, 0]), 1.0, "exact Dirichlet at x=0");
            assert_eq!(u.at(&[z, y, 31]), 0.0, "exact Dirichlet at x=1");
        }
    }
}

#[test]
fn spatial_over_decomposition_is_a_typed_build_error() {
    let _spawns = RANK_SPAWNS.read().unwrap_or_else(PoisonError::into_inner);
    // 32 z-planes / alignment 2^3 = 4 slabs at most; 5 ranks must fail at
    // build() with InvalidConfig, never a rank panic at predict time.
    let e = SolverEngine::builder()
        .resolution([32, 32, 32])
        .problem(Problem::poisson_3d(DiffusivityModel::paper()))
        .levels(1)
        .net_depth(3)
        .samples(1)
        .batch_size(1)
        .parallelism(Parallelism::SpatialThreads(5))
        .build();
    match e {
        Err(MgdError::InvalidConfig(msg)) => {
            assert!(msg.contains("over-decomposed"), "{msg}");
            assert!(msg.contains("SpatialThreads"), "{msg}");
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
    // Zero ranks likewise.
    let e = SolverEngine::builder()
        .resolution([16, 16])
        .problem(Problem::poisson_2d(DiffusivityModel::paper()))
        .samples(1)
        .batch_size(1)
        .parallelism(Parallelism::SpatialThreads(0))
        .build();
    assert!(
        matches!(e, Err(MgdError::InvalidConfig(ref m)) if m.contains("SpatialThreads")),
        "{e:?}"
    );
}

#[test]
fn repeated_spatial_predicts_reuse_pool_and_prepacked_panels() {
    let _spawns = RANK_SPAWNS.write().unwrap_or_else(PoisonError::into_inner);
    // The persistent slab pool must be spawned once (at snapshot publish)
    // and reused across predicts — zero new rank threads, zero weight-panel
    // repacks after the snapshot's one-time prepack.
    let engine = SolverEngine::builder()
        .resolution([32, 32, 32])
        .problem(Problem::poisson_3d(DiffusivityModel::paper()))
        .levels(1)
        .net_depth(2)
        .base_filters(2)
        .samples(4)
        .batch_size(1)
        .cache_capacity(0) // every predict must reach the network
        .parallelism(Parallelism::SpatialThreads(2))
        .build()
        .unwrap();
    let fields: Vec<Tensor> = (0..4)
        .map(|s| engine.dataset().nu_field(s, &[32, 32, 32]))
        .collect();
    let _ = engine.predict(&fields[0]).unwrap(); // warm-up request
    let spawns_before = mgd_dist::total_rank_spawns();
    let (builds_before, reuses_before) = mgd_nn::prepack_stats();
    for f in &fields {
        let _ = engine.predict(f).unwrap();
    }
    assert_eq!(
        mgd_dist::total_rank_spawns(),
        spawns_before,
        "repeated predicts must not respawn rank threads"
    );
    let (builds_after, reuses_after) = mgd_nn::prepack_stats();
    assert_eq!(
        builds_after, builds_before,
        "repeated predicts must not repack weight panels"
    );
    assert!(
        reuses_after > reuses_before,
        "predicts must reuse the prepacked panels"
    );
    let stats = engine.stats();
    assert!(stats.slab_pool_hits >= 4, "{stats:?}");
    assert_eq!(stats.slab_pool_misses, 0, "{stats:?}");
}

#[test]
fn out_of_core_streaming_is_bitwise_serial() {
    let _spawns = RANK_SPAWNS.read().unwrap_or_else(PoisonError::into_inner);
    // Spill-to-scratch slab serving (the gigavoxel streaming mode) must
    // return bit-identical fields: spill files round-trip exactly.
    let dir = std::env::temp_dir().join("mgd_spatial_stream_test");
    std::fs::create_dir_all(&dir).unwrap();
    let build = |par: Parallelism, spill: bool| {
        let b = SolverEngine::builder()
            .resolution([32, 32, 32])
            .problem(Problem::poisson_3d(DiffusivityModel::paper()))
            .levels(1)
            .net_depth(2)
            .base_filters(2)
            .samples(1)
            .batch_size(1)
            .seed(7)
            .parallelism(par);
        let b = if spill { b.spatial_spill_dir(&dir) } else { b };
        b.build().unwrap()
    };
    let serial = build(Parallelism::Serial, false);
    let nu = serial.dataset().nu_field(0, &[32, 32, 32]);
    let expect = serial.predict(&nu).unwrap();
    let streamed = build(Parallelism::SpatialThreads(2), true);
    let got = streamed.predict(&nu).unwrap();
    assert_bitwise(&expect, &got, "spill-on spatial vs serial");
    // Overlap off (classic exchange) stays bitwise too.
    let plain = SolverEngine::builder()
        .resolution([32, 32, 32])
        .problem(Problem::poisson_3d(DiffusivityModel::paper()))
        .levels(1)
        .net_depth(2)
        .base_filters(2)
        .samples(1)
        .batch_size(1)
        .seed(7)
        .parallelism(Parallelism::SpatialThreads(2))
        .spatial_overlap(false)
        .build()
        .unwrap();
    let got = plain.predict(&nu).unwrap();
    assert_bitwise(&expect, &got, "overlap-off spatial vs serial");
}

#[test]
fn grid_parallelism_trains_and_serves_bitwise() {
    let _spawns = RANK_SPAWNS.read().unwrap_or_else(PoisonError::into_inner);
    // Grid(d, p): data-parallel training over d workers composed with
    // p-rank slab serving; batched predictions split across d lanes.
    let build = |par: Parallelism| {
        SolverEngine::builder()
            .resolution([32, 32])
            .problem(Problem::poisson_2d(DiffusivityModel::paper()))
            .levels(1)
            .net_depth(2)
            .base_filters(2)
            .samples(4)
            .batch_size(2)
            .max_epochs(2)
            .fixed_epochs(1)
            .seed(5)
            .parallelism(par)
            .build()
            .unwrap()
    };
    let serial = build(Parallelism::Serial);
    let grid = build(Parallelism::Grid(2, 2));
    assert_eq!(grid.parallelism().workers(), 2);
    assert_eq!(grid.parallelism().spatial_ranks(), 2);
    let fields: Vec<Tensor> = (0..3)
        .map(|s| serial.dataset().nu_field(s, &[32, 32]))
        .collect();
    let expect = serial.predict_batch(&fields).unwrap();
    let got = grid.predict_batch(&fields).unwrap();
    for (e, g) in expect.iter().zip(&got) {
        assert_bitwise(e, g, "Grid(2,2) vs Serial");
    }
    // Training under Grid runs the Threads(d) schedule.
    let mut grid = grid;
    let log = grid.train().unwrap();
    assert!(log.final_loss.is_finite());
    // Zero on either grid axis is a typed build error.
    let e = SolverEngine::builder()
        .resolution([16, 16])
        .problem(Problem::poisson_2d(DiffusivityModel::paper()))
        .samples(1)
        .batch_size(1)
        .parallelism(Parallelism::Grid(0, 2))
        .build();
    assert!(
        matches!(e, Err(MgdError::InvalidConfig(ref m)) if m.contains("Grid")),
        "{e:?}"
    );
}

#[test]
fn f32_spatial_serving_matches_serial_f32_to_tolerance() {
    let _spawns = RANK_SPAWNS.read().unwrap_or_else(PoisonError::into_inner);
    // The F32 × SpatialThreads combination (formerly rejected at build)
    // now serves through f32 slab replicas; outputs must agree with the
    // serial f32 path to rounding tolerance.
    let build = |par: Parallelism| {
        SolverEngine::builder()
            .resolution([32, 32, 32])
            .problem(Problem::poisson_3d(DiffusivityModel::paper()))
            .levels(1)
            .net_depth(2)
            .base_filters(2)
            .samples(1)
            .batch_size(1)
            .seed(13)
            .precision(Precision::F32)
            .parallelism(par)
            .build()
            .unwrap()
    };
    let serial = build(Parallelism::Serial);
    let nu = serial.dataset().nu_field(0, &[32, 32, 32]);
    let expect = serial.predict(&nu).unwrap();
    for p in [2usize, 4] {
        let spatial = build(Parallelism::SpatialThreads(p));
        let got = spatial.predict(&nu).unwrap();
        let scale = expect
            .as_slice()
            .iter()
            .map(|v| v.abs())
            .fold(0.0f64, f64::max)
            .max(1.0);
        for (i, (a, b)) in expect.as_slice().iter().zip(got.as_slice()).enumerate() {
            assert!(
                (a - b).abs() / scale < 1e-5,
                "f32 spatial p={p} elem {i}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn spatial_threads_after_training_still_matches_serial() {
    let _spawns = RANK_SPAWNS.read().unwrap_or_else(PoisonError::into_inner);
    // Train serially, checkpoint, serve spatially from the restored
    // weights: the resolution-agnostic network makes the trained weights
    // valid at any (aligned) serving resolution and rank count.
    let build = |par: Parallelism| {
        SolverEngine::builder()
            .resolution([32, 32])
            .problem(Problem::poisson_2d(DiffusivityModel::paper()))
            .levels(2)
            .net_depth(2)
            .base_filters(4)
            .samples(8)
            .batch_size(4)
            .max_epochs(3)
            .fixed_epochs(1)
            .seed(3)
            .parallelism(par)
            .build()
            .unwrap()
    };
    let mut serial = build(Parallelism::Serial);
    serial.train().unwrap();
    let dir = std::env::temp_dir().join("mgd_spatial_integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("weights.json");
    serial.save_weights(&path).unwrap();

    let mut spatial = build(Parallelism::SpatialThreads(2));
    spatial.load_weights(&path).unwrap();
    let nu = serial.dataset().nu_field(3, &[32, 32]);
    let expect = serial.predict(&nu).unwrap();
    let got = spatial.predict(&nu).unwrap();
    assert_bitwise(&expect, &got, "trained weights, p=2");
    std::fs::remove_file(&path).ok();
}
