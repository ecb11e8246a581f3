//! Concurrent serving through the snapshot API and `mgd_serve` queue:
//! many threads predicting on ONE shared [`EngineSnapshot`] (no `&mut`)
//! must be bitwise identical to serial, hot-swapping snapshots under load
//! must never tear weights, and micro-batched dispatch must equal
//! per-request dispatch bit for bit.

use mgd_serve::{InferenceRequest, ServeQueue};
use mgdiffnet::prelude::*;
use mgdiffnet::CacheKey;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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

/// Small 2D engine; `cache` 0 forces every predict through a real forward
/// pass, so concurrency tests exercise compute, not cache lookups.
fn engine(cache: usize) -> SolverEngine {
    SolverEngine::builder()
        .resolution([16, 16])
        .problem(Problem::poisson_2d(DiffusivityModel::paper()))
        .levels(2)
        .samples(8)
        .batch_size(4)
        .seed(17)
        .cache_capacity(cache)
        .build()
        .unwrap()
}

#[allow(clippy::disallowed_methods)] // test: concurrent snapshot readers
#[test]
fn four_threads_one_snapshot_bitwise_equals_serial() {
    let engine = engine(0);
    let fields: Vec<Tensor> = (0..8)
        .map(|s| engine.dataset().nu_field(s, &[16, 16]))
        .collect();
    // Serial references first; cache is off, so the threaded predictions
    // below recompute the same forwards rather than replaying these.
    let expect: Vec<Arc<Tensor>> = fields.iter().map(|f| engine.predict(f).unwrap()).collect();

    let snap = engine.snapshot(); // one shared snapshot, &self only
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let snap = Arc::clone(&snap);
                let fields = &fields;
                scope.spawn(move || {
                    // Each thread covers every field, offset so all four
                    // overlap on the same inputs at the same time.
                    (0..fields.len())
                        .map(|i| snap.predict(&fields[(t + i) % fields.len()]).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for (t, handle) in handles.into_iter().enumerate() {
            for (i, got) in handle.join().unwrap().into_iter().enumerate() {
                let want = &expect[(t + i) % fields.len()];
                assert_bitwise(&got, want, &format!("thread {t} field {i}"));
            }
        }
    });
}

#[allow(clippy::disallowed_methods)] // test: concurrent snapshot readers
#[test]
fn hot_swap_under_concurrent_readers_never_tears() {
    let dir = std::env::temp_dir().join("mgd_serving_hot_swap");
    std::fs::create_dir_all(&dir).unwrap();
    let w_init = dir.join("init.json");
    let w_trained = dir.join("trained.json");

    let mut engine = SolverEngine::builder()
        .resolution([16, 16])
        .problem(Problem::poisson_2d(DiffusivityModel::paper()))
        .levels(1)
        .samples(8)
        .batch_size(4)
        .max_epochs(1)
        .seed(23)
        .build()
        .unwrap();
    let nu = engine.dataset().nu_field(0, &[16, 16]);

    // Two weight versions and their reference outputs.
    engine.save_weights(&w_init).unwrap();
    let out_init = engine.predict(&nu).unwrap();
    engine.train().unwrap();
    engine.save_weights(&w_trained).unwrap();
    let out_trained = engine.predict(&nu).unwrap();
    assert!(
        out_init
            .as_slice()
            .iter()
            .zip(out_trained.as_slice())
            .any(|(a, b)| a.to_bits() != b.to_bits()),
        "training must change the output for the swap test to mean anything"
    );

    // Readers hammer the published cell while the main thread hot-swaps
    // between the two versions. Every result must be bitwise one of the
    // two reference outputs — a torn or half-republished snapshot would
    // produce a third value.
    let cell = engine.serve_cell();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                let (stop, nu) = (&stop, &nu);
                let (out_init, out_trained) = (&out_init, &out_trained);
                scope.spawn(move || {
                    let mut reads = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let got = cell.load().predict(nu).unwrap();
                        let matches = |want: &Arc<Tensor>| {
                            got.as_slice()
                                .iter()
                                .zip(want.as_slice())
                                .all(|(a, b)| a.to_bits() == b.to_bits())
                        };
                        assert!(
                            matches(out_init) || matches(out_trained),
                            "read {reads}: output matches neither weight version"
                        );
                        reads += 1;
                    }
                    reads
                })
            })
            .collect();
        for swap in 0..10 {
            let path = if swap % 2 == 0 { &w_init } else { &w_trained };
            engine.load_weights(path).unwrap(); // republishes atomically
        }
        stop.store(true, Ordering::Relaxed);
        let total: usize = readers.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(total >= 4, "readers made no progress");
    });
    assert!(engine.snapshot().version() >= 10, "each swap bumps version");
}

#[allow(clippy::disallowed_methods)] // test: concurrent snapshot readers
#[test]
fn micro_batched_queue_is_bitwise_identical_to_per_request() {
    let engine = engine(0);
    let fields: Vec<Tensor> = (0..8)
        .map(|s| engine.dataset().nu_field(s, &[16, 16]))
        .collect();
    let expect: Vec<Arc<Tensor>> = fields.iter().map(|f| engine.predict(f).unwrap()).collect();

    let queue = ServeQueue::for_engine(&engine, 2);
    // Submit from 4 threads at once so requests really interleave into
    // shared micro-batches.
    std::thread::scope(|scope| {
        for t in 0..4 {
            let (queue, fields, expect) = (&queue, &fields, &expect);
            scope.spawn(move || {
                for i in 0..fields.len() {
                    let k = (5 * t + i) % fields.len();
                    let got = queue
                        .predict(InferenceRequest::coeff(fields[k].clone()))
                        .unwrap();
                    assert_bitwise(&got, &expect[k], &format!("thread {t} request {i}"));
                }
            });
        }
    });
    let stats = queue.stats();
    assert_eq!(stats.served, 32);
    assert_eq!(stats.rejected, 0);
}

#[test]
fn queue_serves_mixed_typed_requests() {
    let engine = engine(16);
    let queue = ServeQueue::for_engine(&engine, 1);
    let nu = engine.dataset().nu_field(0, &[16, 16]);
    let omega = vec![0.25, -1.5, 0.75, 2.0];
    let got_c = queue.predict(InferenceRequest::coeff(nu.clone())).unwrap();
    let got_o = queue
        .predict(InferenceRequest::omega(omega.clone()))
        .unwrap();
    assert_bitwise(&got_c, &engine.predict(&nu).unwrap(), "coeff request");
    assert_bitwise(
        &got_o,
        &engine.predict_omega(&omega).unwrap(),
        "omega request",
    );
}

// ---------------------------------------------------------- shard keying

/// ω vectors from the paper's box [−3, 3]^k.
fn omega_strategy() -> impl Strategy<Value = Vec<f64>> {
    (1usize..8).prop_flat_map(|k| proptest::collection::vec(-3.0..3.0f64, k))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn shard_is_in_range_and_deterministic(
        omega in omega_strategy(), shards in 1usize..16, physics in 0u64..u64::MAX
    ) {
        let key = CacheKey::omega(&omega, physics);
        let s = key.shard(shards);
        prop_assert!(s < shards);
        prop_assert_eq!(s, key.shard(shards));
        // Rebuilding the key from equal inputs lands on the same shard.
        prop_assert_eq!(s, CacheKey::omega(&omega.clone(), physics).shard(shards));
    }

    #[test]
    fn coeff_and_omega_keys_never_collide_across_type(
        omega in omega_strategy(), physics in 0u64..u64::MAX
    ) {
        // The same raw numbers as a coefficient field vs a parameter vector
        // are different requests and must key differently.
        let n = omega.len();
        let coeff_key = CacheKey::coeff(&Tensor::from_vec([n], omega.clone()), physics);
        prop_assert_ne!(coeff_key, CacheKey::omega(&omega, physics));
    }

    #[test]
    fn physics_fingerprints_partition_the_keyspace(
        omega in omega_strategy(), a in 0u64..u64::MAX, delta in 1u64..u64::MAX
    ) {
        // The same request payload under different physics (operator /
        // boundary / forcing fingerprints) must never share a key.
        let b = a.wrapping_add(delta); // delta in [1, 2^64-1): b != a always
        prop_assert_ne!(CacheKey::omega(&omega, a), CacheKey::omega(&omega, b));
        let n = omega.len();
        let field = Tensor::from_vec([n], omega.clone());
        prop_assert_ne!(CacheKey::coeff(&field, a), CacheKey::coeff(&field, b));
    }

    #[test]
    fn negative_zero_normalizes_into_the_same_shard(
        omega in omega_strategy(), shards in 1usize..16
    ) {
        let flipped: Vec<f64> = omega
            .iter()
            .map(|&v| if v == 0.0 { -v } else { v })
            .collect();
        prop_assert_eq!(CacheKey::omega(&omega, 0), CacheKey::omega(&flipped, 0));
        prop_assert_eq!(
            CacheKey::omega(&omega, 0).shard(shards),
            CacheKey::omega(&flipped, 0).shard(shards)
        );
    }

    #[test]
    fn distinct_keys_spread_over_shards(seed in 0u64..1000) {
        // 64 distinct single-mode keys must touch several of 8 shards —
        // the digest's avalanche finalizer exists precisely because raw
        // FNV-1a low bits collapse such keys into one shard.
        let keys: Vec<CacheKey> = (0..64)
            .map(|i| CacheKey::omega(&[seed as f64 + i as f64 * 0.125], 0))
            .collect();
        let mut hit = [false; 8];
        for k in &keys {
            hit[k.shard(8)] = true;
        }
        let used = hit.iter().filter(|&&h| h).count();
        prop_assert!(used >= 4, "64 distinct keys used only {used}/8 shards");
    }
}
