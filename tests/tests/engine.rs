//! Integration tests for the `SolverEngine` facade: builder validation,
//! the train-then-serve acceptance path, batched-inference equivalence,
//! and Model-trait checkpoint roundtrips.

use mgdiffnet::prelude::*;

fn builder_16() -> SolverEngineBuilder {
    SolverEngine::builder()
        .resolution([16, 16])
        .problem(Problem::poisson_2d(DiffusivityModel::paper()))
        .levels(2)
        .samples(8)
        .batch_size(4)
        .max_epochs(3)
        .fixed_epochs(1)
        .seed(5)
}

#[test]
fn builder_rejects_bad_configs_with_typed_errors() {
    // Zero levels.
    let e = builder_16().levels(0).build();
    assert!(
        matches!(e, Err(MgdError::InvalidConfig(ref m)) if m.contains("levels")),
        "{e:?}"
    );
    // Batch larger than the dataset.
    let e = builder_16().samples(4).batch_size(16).build();
    assert!(
        matches!(e, Err(MgdError::InvalidConfig(ref m)) if m.contains("batch_size")),
        "{e:?}"
    );
    // Odd resolution.
    let e = builder_16().resolution([17, 16]).build();
    assert!(matches!(e, Err(MgdError::InvalidConfig(_))), "{e:?}");
    // Rank/problem mismatch.
    let e = builder_16().resolution([8, 16, 16]).build();
    assert!(
        matches!(e, Err(MgdError::InvalidConfig(ref m)) if m.contains("rank")),
        "{e:?}"
    );
    // Resolution that cannot feed depth+levels poolings.
    let e = builder_16().resolution([8, 8]).levels(3).build();
    assert!(matches!(e, Err(MgdError::InvalidConfig(_))), "{e:?}");
}

#[test]
fn engine_trains_and_serves_batch_of_8_in_one_pass() {
    // The acceptance path: builder -> 32x32 Half-V training -> a batch of 8
    // coefficient fields answered by a single forward pass.
    let mut engine = SolverEngine::builder()
        .resolution([32, 32])
        .problem(Problem::poisson_2d(DiffusivityModel::paper()))
        .cycle(CycleKind::HalfV)
        .levels(2)
        .samples(16)
        .batch_size(8)
        .max_epochs(12)
        .patience(3)
        .seed(42)
        .build()
        .unwrap();

    let log = engine.train().unwrap();
    assert_eq!(log.cycle, CycleKind::HalfV);
    assert_eq!(
        log.phases.len(),
        2,
        "Half-V over 2 levels: coarse then fine"
    );
    assert_eq!(log.phases[0].dims, vec![16, 16]);
    assert_eq!(log.phases[1].dims, vec![32, 32]);
    assert!(log.final_loss.is_finite());

    let requests: Vec<Tensor> = (0..8)
        .map(|s| engine.dataset().nu_field(s, engine.resolution()))
        .collect();
    let solutions = engine.predict_batch(&requests).unwrap();
    assert_eq!(solutions.len(), 8);
    assert_eq!(
        engine.stats().forward_passes,
        1,
        "8 requests must share one forward pass"
    );
    for u in &solutions {
        assert_eq!(u.dims(), &[32, 32]);
        assert!(u.as_slice().iter().all(|v| v.is_finite()));
        for j in 0..32 {
            assert_eq!(u.at(&[j, 0]), 1.0, "exact Dirichlet at x=0");
            assert_eq!(u.at(&[j, 31]), 0.0, "exact Dirichlet at x=1");
        }
    }
}

#[test]
fn predict_batch_equals_looped_predict() {
    // Two identically-built engines (caching disabled so every request hits
    // the network): batching must not change any answer.
    let batched = builder_16().cache_capacity(0).build().unwrap();
    let looped = builder_16().cache_capacity(0).build().unwrap();
    let fields: Vec<Tensor> = (0..5)
        .map(|s| batched.dataset().nu_field(s, &[16, 16]))
        .collect();
    let ub = batched.predict_batch(&fields).unwrap();
    let ul: Vec<_> = fields.iter().map(|f| looped.predict(f).unwrap()).collect();
    assert_eq!(batched.stats().forward_passes, 1);
    assert_eq!(looped.stats().forward_passes, 5);
    for (a, b) in ub.iter().zip(&ul) {
        assert!(
            a.rel_l2_error(b) < 1e-14,
            "batched and looped serving disagree: {}",
            a.rel_l2_error(b)
        );
    }
    // And the cached path returns the same fields again.
    let cached = builder_16().build().unwrap();
    let first = cached.predict_batch(&fields).unwrap();
    let second = cached.predict_batch(&fields).unwrap();
    assert_eq!(first, second);
    assert_eq!(cached.stats().forward_passes, 1, "replay is pure cache");
    assert_eq!(cached.stats().cache_hits, 5);
}

#[test]
fn model_trait_checkpoint_roundtrips_through_io() {
    // Save through the engine (Model trait under the hood), load into a
    // fresh structurally identical engine, and into a bare UNet.
    let mut engine = builder_16().build().unwrap();
    let _ = engine.train().unwrap();
    // Sample 1: sample 0 is ω = 0 whose log-ν input is identically zero.
    let nu = engine.dataset().nu_field(1, &[16, 16]);
    let served = engine.predict(&nu).unwrap();
    let dir = std::env::temp_dir().join("mgd_engine_integration");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trained.json");
    engine.save_weights(&path).unwrap();

    let mut restored = builder_16().seed(9).build().unwrap();
    assert!(
        restored.predict(&nu).unwrap().rel_l2_error(&served) > 1e-9,
        "fresh net differs"
    );
    restored.load_weights(&path).unwrap();
    assert!(restored.predict(&nu).unwrap().rel_l2_error(&served) < 1e-15);

    // The same file loads into a bare UNet via the Model-trait snapshot.
    let mut bare = UNet::new(UNetConfig {
        two_d: true,
        depth: 2,
        base_filters: 8,
        seed: 1,
        ..Default::default()
    });
    WeightSnapshot::load(&path)
        .unwrap()
        .restore(&mut bare)
        .unwrap();
    let direct = predict_field(
        &mut bare,
        &Dataset::sobol(8, DiffusivityModel::paper(), InputEncoding::LogNu),
        1,
        &[16, 16],
    )
    .unwrap();
    assert!(direct.rel_l2_error(&served) < 1e-15);
    std::fs::remove_file(&path).ok();
}

#[test]
fn custom_optimizer_plugs_into_the_engine() {
    // The Optimizer trait admits SGD in place of the default Adam.
    let mut engine = builder_16()
        .optimizer(Box::new(Sgd::new(1e-2, 0.9)))
        .max_epochs(2)
        .build()
        .unwrap();
    let log = engine.train().unwrap();
    assert!(log.final_loss.is_finite());
}

/// A U-Net that keeps its exclusive paths (training, `predict`,
/// `predict_slab`) but exports none of the `&self` views serving runs on.
struct ViewlessNet(UNet);

impl Layer for ViewlessNet {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.0.forward(x, train)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.0.backward(grad_out)
    }

    fn params(&mut self) -> Vec<&mut mgd_nn::Param> {
        self.0.params()
    }

    fn buffers(&mut self) -> Vec<&mut Vec<f64>> {
        self.0.buffers()
    }

    fn name(&self) -> String {
        format!("Viewless{}", self.0.name())
    }
}

impl Model for ViewlessNet {
    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(ViewlessNet(self.0.clone()))
    }

    fn spatial_align(&self) -> usize {
        Model::spatial_align(&self.0)
    }

    fn predict_slab(&mut self, slab: &Tensor, comm: &dyn Comm) -> Option<Tensor> {
        self.0.predict_slab(slab, comm)
    }
}

#[test]
fn model_without_a_serving_view_is_rejected_at_build() {
    for (parallelism, method) in [
        (Parallelism::Serial, "Model::share"),
        (Parallelism::SpatialThreads(2), "Model::share_slab"),
    ] {
        let net = UNet::new(UNetConfig {
            two_d: true,
            depth: 2,
            base_filters: 2,
            seed: 5,
            ..Default::default()
        });
        let e = builder_16()
            .model(Box::new(ViewlessNet(net)))
            .parallelism(parallelism)
            .build();
        assert!(
            matches!(e, Err(MgdError::InvalidConfig(ref m)) if m.contains(&format!("{method},"))),
            "{parallelism:?}: {e:?}"
        );
    }
}
