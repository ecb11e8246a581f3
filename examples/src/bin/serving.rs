//! Serving demo: train a Half-V surrogate through `SolverEngine::builder()`
//! and answer a batch of 8 coefficient-field requests in ONE forward pass,
//! show the LRU cache absorbing repeated traffic, then serve the same
//! model concurrently — 4 threads sharing one immutable snapshot, and a
//! `mgd_serve::ServeQueue` coalescing concurrent submissions into
//! micro-batches.
//!
//! `cargo run --release -p mgd-examples --bin serving`

use mgd_serve::ServeQueue;
use mgdiffnet::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() -> Result<(), MgdError> {
    // One builder call subsumes the dataset/network/optimizer/schedule
    // wiring of the old API, with every constraint validated up front.
    let mut engine = SolverEngine::builder()
        .resolution([32, 32])
        .problem(Problem::poisson_2d(DiffusivityModel::paper()))
        .cycle(CycleKind::HalfV)
        .levels(2)
        .samples(16)
        .batch_size(8)
        .max_epochs(60)
        .patience(8)
        .seed(42)
        .build()?;

    println!("training Half-V over levels [16x16 -> 32x32] ...");
    let log = engine.train()?;
    for ph in &log.phases {
        println!(
            "  level {} ({:?}): {} epochs, {:.1}s, loss {:.5}",
            ph.level, ph.dims, ph.epochs, ph.seconds, ph.final_loss
        );
    }

    // Serving: 8 requests -> one NCDHW tensor -> one forward pass.
    let requests: Vec<Tensor> = (0..8)
        .map(|s| engine.dataset().nu_field(s, engine.resolution()))
        .collect();
    let t0 = Instant::now();
    let solutions = engine.predict_batch(&requests)?;
    let batched = t0.elapsed().as_secs_f64();
    assert_eq!(solutions.len(), 8);
    println!(
        "\nbatched serve : 8 fields in {batched:.4}s, {} forward pass(es)",
        engine.stats().forward_passes
    );

    // The same traffic again: all cache hits, zero forward passes.
    let passes_before = engine.stats().forward_passes;
    let t1 = Instant::now();
    let replay = engine.predict_batch(&requests)?;
    let cached = t1.elapsed().as_secs_f64();
    assert_eq!(
        engine.stats().forward_passes,
        passes_before,
        "replay must be pure cache"
    );
    assert_eq!(replay.len(), 8);
    println!(
        "cached replay : 8 fields in {cached:.4}s ({} cache hits so far)",
        engine.stats().cache_hits
    );

    // Concurrent serving: predictions are `&self` on an immutable
    // snapshot, so one Arc serves any number of threads with no lock.
    let snap = engine.snapshot();
    #[allow(clippy::disallowed_methods)] // demo: concurrent snapshot readers
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let snap = Arc::clone(&snap);
                let requests = &requests;
                scope.spawn(move || snap.predict(&requests[2 * t]).map(|u| u.len()))
            })
            .collect();
        for h in handles {
            h.join()
                .expect("reader thread")
                .expect("concurrent predict");
        }
    });
    println!(
        "\nconcurrent    : 4 threads served from one snapshot (version {})",
        snap.version()
    );

    // Micro-batching front end: concurrent submissions coalesce into one
    // forward pass per batch; ω requests rasterize (and cache) server-side.
    let queue = ServeQueue::for_engine(&engine, 2);
    let tickets: Vec<_> = (0..8)
        .map(|s| queue.submit(InferenceRequest::omega(engine.dataset().omegas[s].clone())))
        .collect::<Result<_, _>>()?;
    for t in tickets {
        t.wait()?;
    }
    let qs = queue.stats();
    println!(
        "queued        : {} ω requests in {} micro-batch(es), mean batch {:.1}",
        qs.served, qs.batches, qs.mean_batch
    );
    drop(queue);

    // Compare one served field against a fresh FEM solve.
    let cmp = engine.compare_sample(1)?;
    println!("\nserved field vs FEM (sample 1):");
    println!("  relative L2 error : {:.4}", cmp.rel_l2);
    println!(
        "  energy (nn / fem) : {:.5} / {:.5}",
        cmp.energy_nn, cmp.energy_fem
    );
    println!(
        "  inference         : {:.4}s vs FEM solve {:.4}s ({} iters)",
        cmp.inference_seconds, cmp.fem_seconds, cmp.fem_iterations
    );
    Ok(())
}
