//! In-process distributed communication for MGDiffNet (paper §3.2).
//!
//! The paper trains data-parallel: every worker holds a full replica of the
//! network, computes gradients on its shard of each global mini-batch, and
//! exchanges them through an all-reduce so that each step is identical to
//! serial training on the full batch (Eq. 15). This crate provides that
//! substrate with *in-process ranks* — `p` OS threads connected by
//! unbounded channels — so the distributed code paths run (and are tested)
//! on one machine, mirroring how the related learned-multigrid systems
//! simulate device parallelism:
//!
//! - [`Comm`] — the communicator interface: rank/size, all-reduce
//!   (sum/max), broadcast, barrier, and point-to-point send/recv (used by
//!   the halo exchange);
//! - [`ThreadComm`] — `p` in-process ranks over threads and mailboxes with
//!   a pipelined ring all-reduce whose reduction order is *rank-order
//!   deterministic*: results are bitwise identical on every rank and equal
//!   to the left-fold serial sum. [`ThreadComm::solo`] is its one-rank
//!   case, through which serial training runs as `p = 1` of one code path;
//! - [`launch`] — runs one closure per rank and collects rank-ordered
//!   results (panics on any rank surface as `rank panicked` in the caller);
//!   [`launch_with`] additionally moves an owned payload into each rank
//!   (how the engine ships one model/optimizer replica per worker);
//! - [`average_gradients`] / [`broadcast_params`] — the two collectives of
//!   Algorithm 1, over flat parameter views;
//! - [`global_minibatches`] / [`local_minibatch`] / [`pad_indices`] — the
//!   §3.2 sharding rules: pad so the sample count divides evenly, then
//!   give every rank an equal contiguous shard of each global mini-batch;
//! - [`halo`] — the shared spatial-decomposition substrate: fallible
//!   [`SlabPartition`]s of one spatial axis, `[pre, split, post]` slab
//!   carving/assembly, and the tagged halo-plane exchange of the
//!   slab-decomposed U-Net forward: a posted/finished split —
//!   [`exchange_post`] / [`PendingHalo`] — so local compute can overlap
//!   in-flight planes;
//! - [`SlabPool`] — a persistent rank pool (long-lived worker threads,
//!   each owning one rank plus per-rank state) that dispatches one
//!   closure per rank per request, amortizing thread spawns across the
//!   many `predict` calls of a serving workload.

mod comm;
pub mod halo;
mod pool;
mod shard;
mod thread_comm;

pub use comm::Comm;
pub use halo::{
    assemble_planes, carve_planes, exchange_post, place_planes, HaloElement, PartitionError,
    PendingHalo, SlabLayout, SlabPartition,
};
pub use pool::{total_rank_spawns, SlabPool};
pub use shard::{global_minibatches, local_minibatch, pad_indices};
pub use thread_comm::{launch, launch_with, ThreadComm};

use std::time::Instant;

/// All-reduce-averages a flat gradient vector across workers, in place.
///
/// Returns the wall-clock seconds spent in the collective, which the
/// trainer accounts as communication time. After the call every rank holds
/// `(Σ_r flat_r) / p`, bitwise identical across ranks.
pub fn average_gradients<C: Comm>(comm: &C, flat: &mut [f64]) -> f64 {
    let start = Instant::now();
    if comm.size() > 1 {
        comm.allreduce_sum(flat);
        let inv = 1.0 / comm.size() as f64;
        for x in flat.iter_mut() {
            *x *= inv;
        }
    }
    start.elapsed().as_secs_f64()
}

/// Broadcasts a flat parameter vector from rank 0 to all ranks, in place.
///
/// Call once before distributed training so every replica starts from
/// rank 0's initialization; a no-op for `p = 1`.
pub fn broadcast_params<C: Comm>(comm: &C, flat: &mut [f64]) {
    if comm.size() > 1 {
        comm.broadcast(0, flat);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn average_gradients_divides_by_worker_count() {
        let results = launch(4, |comm| {
            let mut g = vec![(comm.rank() + 1) as f64; 6];
            let secs = average_gradients(&comm, &mut g);
            assert!(secs >= 0.0);
            g
        });
        // (1 + 2 + 3 + 4) / 4 = 2.5 in every slot on every rank.
        for buf in &results {
            assert!(buf.iter().all(|&x| x == 2.5), "{buf:?}");
        }
    }

    #[test]
    fn average_gradients_serial_is_identity() {
        let comm = ThreadComm::solo();
        let mut g = vec![0.25, -1.5, 3.0];
        let orig = g.clone();
        average_gradients(&comm, &mut g);
        assert_eq!(g, orig);
    }

    #[test]
    fn broadcast_params_syncs_all_ranks_to_root() {
        let results = launch(3, |comm| {
            let mut w: Vec<f64> = if comm.rank() == 0 {
                (0..100).map(|i| (i as f64).sin()).collect()
            } else {
                vec![f64::NAN; 100]
            };
            broadcast_params(&comm, &mut w);
            w
        });
        let root = &results[0];
        assert!(root.iter().all(|x| x.is_finite()));
        for (r, w) in results.iter().enumerate() {
            for (a, b) in w.iter().zip(root) {
                assert_eq!(a.to_bits(), b.to_bits(), "rank {r} diverged from root");
            }
        }
    }
}
