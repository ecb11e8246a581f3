//! Megavoxel serving via slab-decomposed spatial parallelism — the
//! paper's §5 "model-parallel distributed deep learning" outlook, wired
//! through the engine's `Parallelism::SpatialThreads` knob.
//!
//! The network is resolution-agnostic (§3.1.2), so the workflow is: train
//! cheaply at a coarse resolution, checkpoint, and serve the *same
//! weights* at a megavoxel resolution where no rank ever materializes a
//! full-resolution activation — each of the `p` in-process ranks walks
//! the U-Net on its z-slab, exchanging one halo plane before every
//! stencil convolution, and the stitched output is bitwise identical to
//! the serial forward.
//!
//! ```text
//! cargo run --release -p mgd-examples --bin megavoxel_serving              # 128³ demo
//! cargo run --release -p mgd-examples --bin megavoxel_serving -- --ranks 2
//! cargo run --release -p mgd-examples --bin megavoxel_serving -- --quick --ranks 4   # CI smoke
//! cargo run --release -p mgd-examples --bin megavoxel_serving -- --quick --stream    # spill smoke
//! ```

use mgd_nn::{activation_peak_elems, UNetConfig};
use mgdiffnet::prelude::*;
use mgdiffnet::SlabPartition;
use std::time::Instant;

const MB: f64 = 1024.0 * 1024.0;

fn build(res: &[usize], depth: usize, filters: usize, par: Parallelism) -> SolverEngine {
    let problem = if res.len() == 3 {
        Problem::poisson_3d(DiffusivityModel::paper())
    } else {
        Problem::poisson_2d(DiffusivityModel::paper())
    };
    SolverEngine::builder()
        .resolution(res.to_vec())
        .problem(problem)
        .levels(1)
        .net_depth(depth)
        .base_filters(filters)
        .samples(2)
        .batch_size(2)
        .max_epochs(2)
        .fixed_epochs(1)
        .seed(17)
        .parallelism(par)
        .build()
        .expect("engine config")
}

/// Serial-vs-spatial bitwise check on one small configuration.
fn assert_bitwise_equal(res: &[usize], depth: usize, ranks: usize) {
    let serial = build(res, depth, 2, Parallelism::Serial);
    let nu = serial.dataset().nu_field(0, res);
    let expect = serial.predict(&nu).expect("serial predict");
    let spatial = build(res, depth, 2, Parallelism::SpatialThreads(ranks));
    let got = spatial.predict(&nu).expect("spatial predict");
    assert!(
        expect
            .as_slice()
            .iter()
            .zip(got.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "SpatialThreads({ranks}) diverged from Serial at {res:?}"
    );
    println!("  {res:?} x{ranks} ranks: bitwise identical to serial");
}

/// Serial-vs-streamed (out-of-core slab) bitwise check: the same forward
/// with per-rank skip tensors spilled to a scratch directory.
fn assert_streamed_equal(res: &[usize], depth: usize, ranks: usize) {
    let serial = build(res, depth, 2, Parallelism::Serial);
    let nu = serial.dataset().nu_field(0, res);
    let expect = serial.predict(&nu).expect("serial predict");
    let dir = std::env::temp_dir().join("mgd_megavoxel_serving_stream");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let problem = if res.len() == 3 {
        Problem::poisson_3d(DiffusivityModel::paper())
    } else {
        Problem::poisson_2d(DiffusivityModel::paper())
    };
    let streamed = SolverEngine::builder()
        .resolution(res.to_vec())
        .problem(problem)
        .levels(1)
        .net_depth(depth)
        .base_filters(2)
        .samples(2)
        .batch_size(2)
        .max_epochs(2)
        .fixed_epochs(1)
        .seed(17)
        .spatial_spill_dir(&dir)
        .parallelism(Parallelism::SpatialThreads(ranks))
        .build()
        .expect("streamed engine");
    let got = streamed.predict(&nu).expect("streamed predict");
    let leaked: Vec<_> = std::fs::read_dir(&dir)
        .expect("scratch dir")
        .filter_map(|e| e.ok().map(|e| e.file_name()))
        .filter(|n| n.to_string_lossy().starts_with("mgd-skip-"))
        .collect();
    assert!(leaked.is_empty(), "spill files left in scratch: {leaked:?}");
    assert!(
        expect
            .as_slice()
            .iter()
            .zip(got.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "streamed SpatialThreads({ranks}) diverged from Serial at {res:?}"
    );
    println!(
        "  {res:?} x{ranks} ranks (skip spill to scratch): bitwise identical to serial, \
         scratch left empty"
    );
}

fn quick(ranks: usize, stream: bool) {
    if stream {
        println!("out-of-core streaming smoke at {ranks} ranks:");
        assert_streamed_equal(&[32, 32], 2, ranks);
        assert_streamed_equal(&[16, 16, 16], 2, ranks);
    } else {
        println!("spatial serving smoke at {ranks} ranks:");
        assert_bitwise_equal(&[32, 32], 2, ranks);
        assert_bitwise_equal(&[16, 16, 16], 2, ranks);
    }
    println!("quick mode passed");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ranks = args
        .iter()
        .position(|a| a == "--ranks")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(4);
    if args.iter().any(|a| a == "--quick") {
        quick(ranks, args.iter().any(|a| a == "--stream"));
        return;
    }

    let (depth, filters) = (3usize, 8usize);
    let coarse = [32usize, 32, 32];
    let fine = [128usize, 128, 128]; // 2.1 Mvoxel
    println!(
        "megavoxel serving demo: train at {coarse:?}, serve at {fine:?} \
         ({:.1} Mvoxel) across {ranks} slab ranks\n",
        fine.iter().product::<usize>() as f64 / 1e6
    );

    // 1. Train briefly at the coarse resolution and checkpoint.
    let mut trainer = build(&coarse, depth, filters, Parallelism::Serial);
    let t = Instant::now();
    let log = trainer.train().expect("coarse training");
    println!(
        "trained at {coarse:?} for {:.1}s (final loss {:.4})",
        t.elapsed().as_secs_f64(),
        log.final_loss
    );
    let dir = std::env::temp_dir().join("mgd_megavoxel_serving");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ckpt = dir.join("weights.json");
    trainer.save_weights(&ckpt).expect("save weights");

    // 2. Load the same weights into a megavoxel spatial-serving engine.
    let mut server = build(&fine, depth, filters, Parallelism::SpatialThreads(ranks));
    server.load_weights(&ckpt).expect("load weights");

    // 3. Per-rank memory picture before serving.
    let cfg = UNetConfig {
        depth,
        base_filters: filters,
        two_d: false,
        ..Default::default()
    };
    let serial_mb = activation_peak_elems(&cfg, 1, fine, 0) as f64 * 8.0 / MB;
    let part = SlabPartition::aligned(fine[0], ranks, 1 << depth).expect("aligned slabs");
    let mut max_rank_mb = 0.0f64;
    for r in 0..ranks {
        let owned = part.owned_planes(r);
        let halo_sides = usize::from(r > 0) + usize::from(r + 1 < ranks);
        let mb = activation_peak_elems(&cfg, 1, [owned.len(), fine[1], fine[2]], halo_sides) as f64
            * 8.0
            / MB;
        max_rank_mb = max_rank_mb.max(mb);
        println!(
            "rank {r}: z-planes {:?} (+{halo_sides} halo side(s)) -> ~{mb:.0} MB peak activations",
            owned
        );
    }
    println!(
        "serial forward would peak at ~{serial_mb:.0} MB of activations; \
         spatial bound is {max_rank_mb:.0} MB/rank ({:.1}x smaller)\n",
        serial_mb / max_rank_mb
    );

    // 4. Serve one megavoxel field.
    let nu = server.dataset().nu_field(1, &fine);
    let t = Instant::now();
    let u = server.predict(&nu).expect("spatial predict");
    println!(
        "served {fine:?} in {:.1}s across {ranks} ranks \
         (u in [{:.3}, {:.3}], exact Dirichlet faces imposed)",
        t.elapsed().as_secs_f64(),
        u.as_slice().iter().cloned().fold(f64::INFINITY, f64::min),
        u.as_slice()
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max),
    );
    // A replay is answered from the LRU cache without another forward.
    let t = Instant::now();
    let _ = server.predict(&nu).expect("cached predict");
    println!(
        "cache replay: {:.1} ms ({} forward pass(es), {} hit(s))",
        t.elapsed().as_secs_f64() * 1e3,
        server.stats().forward_passes,
        server.stats().cache_hits
    );

    // 5. Equality spot-check at a size where the serial forward is cheap.
    println!("\nbitwise equality gate:");
    assert_bitwise_equal(&[32, 32, 32], 2, ranks.min(4));
    std::fs::remove_file(&ckpt).ok();
}
