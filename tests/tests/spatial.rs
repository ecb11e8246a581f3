//! Spatial (slab-decomposed) serving through the `SolverEngine`:
//! `Parallelism::SpatialThreads(p)` must be **bitwise identical** to
//! `Serial` on 2D and 3D problems at the acceptance sizes, fail with typed
//! errors on bad decompositions, and keep the serving cache working on the
//! assembled outputs.

use mgd_nn::{SlabModel, SlabOpts, Workspace};
use mgdiffnet::prelude::*;
use mgdiffnet::Precision;
use std::sync::{Arc, Condvar, Mutex, PoisonError, RwLock};
use std::time::Duration;

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
    // Minimal slabs of 2^depth = 4 planes are one plane deep at the
    // bottleneck, whose conv computes one band, the whole halo-extended
    // slab: bitwise too.
    let minimal = build(Parallelism::SpatialThreads(8), false);
    let got = minimal.predict(&nu).unwrap();
    assert_bitwise(&expect, &got, "minimal-slab spatial vs serial");
}

/// Holds a caller until a second one arrives, or ten seconds pass.
#[derive(Default)]
struct Rendezvous {
    arrived: Mutex<usize>,
    both_in: Condvar,
}

impl Rendezvous {
    fn meet(&self) {
        let mut arrived = self.arrived.lock().unwrap();
        *arrived += 1;
        self.both_in.notify_all();
        let _ = self
            .both_in
            .wait_timeout_while(arrived, Duration::from_secs(10), |n| *n < 2)
            .unwrap();
    }
}

/// A U-Net whose slab view holds every forward's rank 0 at a shared
/// [`Rendezvous`]: two predicts both pass it only while each runs on its
/// own rank pool.
struct GatedNet {
    net: UNet,
    gate: Arc<Rendezvous>,
}

impl Layer for GatedNet {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.net.forward(x, train)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.net.backward(grad_out)
    }

    fn params(&mut self) -> Vec<&mut mgd_nn::Param> {
        self.net.params()
    }

    fn buffers(&mut self) -> Vec<&mut Vec<f64>> {
        self.net.buffers()
    }

    fn name(&self) -> String {
        self.net.name()
    }
}

impl Model for GatedNet {
    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(GatedNet {
            net: self.net.clone(),
            gate: Arc::clone(&self.gate),
        })
    }

    fn spatial_align(&self) -> usize {
        Model::spatial_align(&self.net)
    }

    fn share_slab(&self) -> Option<Arc<dyn SlabModel>> {
        Some(Arc::new(GatedSlab {
            inner: self.net.share_slab()?,
            gate: Arc::clone(&self.gate),
        }))
    }
}

struct GatedSlab {
    inner: Arc<dyn SlabModel>,
    gate: Arc<Rendezvous>,
}

impl SlabModel for GatedSlab {
    fn spatial_align(&self) -> usize {
        self.inner.spatial_align()
    }

    fn infer_slab(
        &self,
        slab: &Tensor,
        comm: &dyn Comm,
        ws: &mut Workspace,
        opts: &SlabOpts,
    ) -> Tensor {
        if comm.rank() == 0 {
            self.gate.meet();
        }
        self.inner.infer_slab(slab, comm, ws, opts)
    }
}

#[allow(clippy::disallowed_methods)] // test: two concurrent predictors
#[test]
fn concurrent_spatial_predicts_are_bitwise_serial() {
    let _spawns = RANK_SPAWNS.read().unwrap_or_else(PoisonError::into_inner);
    // Two threads predict at once on one SpatialThreads(2) snapshot: the
    // second takes a fresh rank pool while the first holds the published
    // one, and both answers match Serial bit for bit.
    let net = UNet::new(UNetConfig {
        two_d: true,
        depth: 2,
        base_filters: 4,
        seed: 5,
        ..Default::default()
    });
    let build = |model: Box<dyn Model>, par: Parallelism| {
        SolverEngine::builder()
            .resolution([32, 32])
            .problem(Problem::poisson_2d(DiffusivityModel::paper()))
            .levels(1)
            .samples(2)
            .batch_size(1)
            .model(model)
            .parallelism(par)
            .build()
            .unwrap()
    };
    let serial = build(Box::new(net.clone()), Parallelism::Serial);
    let gate = Arc::new(Rendezvous::default());
    let spatial = build(
        Box::new(GatedNet { net, gate }),
        Parallelism::SpatialThreads(2),
    );
    let (serial_snap, snap) = (serial.snapshot(), spatial.snapshot());
    let fields: Vec<Tensor> = (0..2)
        .map(|s| serial.dataset().nu_field(s, &[32, 32]))
        .collect();
    std::thread::scope(|s| {
        for f in &fields {
            let (serial, snap) = (&serial_snap, &snap);
            s.spawn(move || {
                let got = snap.predict(f).unwrap();
                assert_bitwise(
                    &serial.predict(f).unwrap(),
                    &got,
                    "concurrent slab vs serial",
                );
            });
        }
    });
    let stats = snap.stats();
    assert_eq!(stats.forward_passes, 2, "{stats:?}");
    assert!(stats.slab_pool_misses >= 1, "{stats:?}");
}

#[test]
fn f32_spatial_serving_matches_serial_f32_bitwise() {
    let _spawns = RANK_SPAWNS.read().unwrap_or_else(PoisonError::into_inner);
    // The F32 × SpatialThreads combination serves through f32 slab
    // replicas; the serial f32 forward is the same walk on one rank, so
    // outputs must equal it bit for bit.
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
        for (i, (a, b)) in expect.as_slice().iter().zip(got.as_slice()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
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
