//! The communicator trait.

/// Collective and point-to-point communication between `p` ranks.
///
/// The interface mirrors the slice of MPI the paper's training loop and
/// the slab-decomposed forward need. Collectives must be called by every
/// rank in the same program order (MPI semantics); point-to-point messages
/// between a `(from, to, tag)` triple are delivered in FIFO order.
///
/// All collectives are **rank-order deterministic**: the reduction order of
/// `allreduce_sum` is the left-fold `((v₀ + v₁) + v₂) + …`, so results are
/// bitwise identical on every rank and reproducible across runs — the
/// property behind the paper's Eq. 15 worker-count-independence guarantee
/// (up to the reduction-order difference against serial summation of a
/// differently-sharded batch).
pub trait Comm {
    /// This rank's index in `0..size()`.
    fn rank(&self) -> usize;

    /// Number of ranks.
    fn size(&self) -> usize;

    /// Element-wise sum of `buf` across all ranks, in place on every rank.
    fn allreduce_sum(&self, buf: &mut [f64]);

    /// Element-wise maximum of `buf` across all ranks, in place.
    fn allreduce_max(&self, buf: &mut [f64]);

    /// Gather-to-root reference for the ring all-reduce: same result, worse
    /// scaling. `naive_allreduce_matches_ring_bitwise` checks the ring
    /// against it.
    fn allreduce_sum_naive(&self, buf: &mut [f64]) {
        self.allreduce_sum(buf);
    }

    /// Replaces `buf` on every rank with `root`'s contents.
    fn broadcast(&self, root: usize, buf: &mut [f64]);

    /// Blocks until every rank has entered the barrier.
    fn barrier(&self);

    /// Sends `data` to rank `to` under `tag` (non-blocking, unbounded).
    fn send(&self, to: usize, tag: u64, data: Vec<f64>);

    /// Receives the next message from rank `from` under `tag` (blocking).
    fn recv(&self, from: usize, tag: u64) -> Vec<f64>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThreadComm;

    /// Serial runs are the `p = 1` case of the distributed code path: the
    /// one rank of [`ThreadComm::solo`] leaves every collective's buffer
    /// untouched.
    #[test]
    fn local_comm_is_serial_identity() {
        let c = ThreadComm::solo();
        assert_eq!(c.rank(), 0);
        assert_eq!(c.size(), 1);
        let mut buf = vec![1.0, -2.0, 3.5];
        let orig = buf.clone();
        c.allreduce_sum(&mut buf);
        assert_eq!(buf, orig);
        c.allreduce_max(&mut buf);
        assert_eq!(buf, orig);
        c.allreduce_sum_naive(&mut buf);
        assert_eq!(buf, orig);
        c.broadcast(0, &mut buf);
        assert_eq!(buf, orig);
        c.barrier();
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn local_comm_send_panics() {
        ThreadComm::solo().send(1, 0, vec![1.0]);
    }
}
