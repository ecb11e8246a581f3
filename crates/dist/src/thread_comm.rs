//! In-process ranks: threads, mailboxes, and pipelined ring collectives.

use crate::comm::Comm;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Messages are split into chunks of this many `f64`s so ring collectives
/// pipeline: while rank r reduces chunk c, rank r-1 already works on c+1.
const CHUNK_ELEMS: usize = 8192;

/// Tag bit reserved for internal collective traffic, keeping user
/// point-to-point tags (e.g. the slab halo exchange) in a disjoint space.
const INTERNAL: u64 = 1 << 63;
const TAG_REDUCE: u64 = INTERNAL;
const TAG_BCAST: u64 = INTERNAL | 1;
const TAG_GATHER: u64 = INTERNAL | 2;

/// Mailbox key: (from, to, tag). FIFO per key.
type Key = (usize, usize, u64);

struct BarrierState {
    arrived: usize,
    generation: u64,
}

struct Shared {
    size: usize,
    mail: Mutex<HashMap<Key, VecDeque<Vec<f64>>>>,
    mail_cv: Condvar,
    barrier: Mutex<BarrierState>,
    barrier_cv: Condvar,
    /// Set when any rank panics, so peers blocked in `recv`/`barrier` fail
    /// fast instead of deadlocking.
    poisoned: AtomicBool,
}

impl Shared {
    /// Locks ignoring std mutex poisoning: a panicking rank must still be
    /// able to flag its peers (our own `poisoned` flag carries the state).
    fn lock_mail(&self) -> std::sync::MutexGuard<'_, HashMap<Key, VecDeque<Vec<f64>>>> {
        self.mail
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn lock_barrier(&self) -> std::sync::MutexGuard<'_, BarrierState> {
        self.barrier
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        // Lock-then-notify so sleeping waiters cannot miss the wakeup.
        drop(self.lock_mail());
        self.mail_cv.notify_all();
        drop(self.lock_barrier());
        self.barrier_cv.notify_all();
    }

    fn check_poison(&self) {
        if self.poisoned.load(Ordering::SeqCst) {
            panic!("rank panicked: a peer rank died while this rank was communicating");
        }
    }
}

/// One rank of a `p`-way in-process communicator (paper §3.2's simulated
/// data-parallel workers). Create a full set with [`ThreadComm::ranks`] or
/// let [`launch`] manage threads and collection.
pub struct ThreadComm {
    rank: usize,
    shared: Arc<Shared>,
}

impl ThreadComm {
    /// Creates the `p` connected ranks of one communicator.
    pub fn ranks(p: usize) -> Vec<ThreadComm> {
        assert!(p >= 1, "need at least one rank");
        let shared = Arc::new(Shared {
            size: p,
            mail: Mutex::new(HashMap::new()),
            mail_cv: Condvar::new(),
            barrier: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
            }),
            barrier_cv: Condvar::new(),
            poisoned: AtomicBool::new(false),
        });
        (0..p)
            .map(|rank| ThreadComm {
                rank,
                shared: Arc::clone(&shared),
            })
            .collect()
    }

    /// The one rank of a size-1 communicator: how serial training and
    /// solving run the distributed code path with `p = 1`, where every
    /// collective leaves its buffer untouched.
    pub fn solo() -> ThreadComm {
        ThreadComm::ranks(1).pop().expect("one rank")
    }

    /// Flags the communicator as poisoned so peer ranks blocked in
    /// collectives or `recv` unwind instead of deadlocking. Used by the
    /// persistent [`crate::SlabPool`], whose workers catch job panics
    /// instead of unwinding through a `PanicGuard`.
    pub(crate) fn poison(&self) {
        self.shared.poison();
    }

    fn post(&self, to: usize, tag: u64, data: Vec<f64>) {
        let mut mail = self.shared.lock_mail();
        mail.entry((self.rank, to, tag))
            .or_default()
            .push_back(data);
        drop(mail);
        self.shared.mail_cv.notify_all();
    }

    fn take(&self, from: usize, tag: u64) -> Vec<f64> {
        let key = (from, self.rank, tag);
        let mut mail = self.shared.lock_mail();
        loop {
            if self.shared.poisoned.load(Ordering::SeqCst) {
                // Release the lock before unwinding so peers (and this
                // rank's own PanicGuard) never see a poisoned mutex held.
                drop(mail);
                self.shared.check_poison();
                unreachable!("poisoned flag was set");
            }
            if let Some(msg) = mail.get_mut(&key).and_then(VecDeque::pop_front) {
                return msg;
            }
            mail = self
                .shared
                .mail_cv
                .wait(mail)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Pipelined ring reduce-then-broadcast with a fixed reduction order.
    ///
    /// Reduce phase: chunks flow along the ring `0 → 1 → … → p-1`; rank r
    /// computes `acc = acc_{r-1} ⊕ own_r`, so the final value at rank `p-1`
    /// is the left-fold `((v₀ ⊕ v₁) ⊕ v₂) ⊕ …` — bitwise equal to the
    /// serial rank-order reduction. Broadcast phase: the result flows
    /// `p-1 → 0 → 1 → … → p-2`, each rank forwarding, so every rank ends
    /// with identical bytes. Per-rank traffic is ~2·n elements, matching
    /// the classic ring all-reduce's bandwidth behavior while keeping the
    /// reduction order deterministic.
    fn ring_allreduce(&self, buf: &mut [f64], op: impl Fn(f64, f64) -> f64) {
        let p = self.shared.size;
        if p == 1 || buf.is_empty() {
            return;
        }
        let r = self.rank;
        let chunk_starts: Vec<usize> = (0..buf.len()).step_by(CHUNK_ELEMS.max(1)).collect();
        // Reduce along the ring towards rank p-1.
        for &start in &chunk_starts {
            let end = (start + CHUNK_ELEMS).min(buf.len());
            if r > 0 {
                let incoming = self.take(r - 1, TAG_REDUCE);
                debug_assert_eq!(incoming.len(), end - start);
                for (own, acc) in buf[start..end].iter_mut().zip(&incoming) {
                    // `acc ⊕ own`: the accumulator stays on the left so the
                    // fold order matches the serial rank-order reduction.
                    *own = op(*acc, *own);
                }
            }
            if r + 1 < p {
                self.post(r + 1, TAG_REDUCE, buf[start..end].to_vec());
            }
        }
        // Broadcast the folded result from rank p-1 around the ring.
        for &start in &chunk_starts {
            let end = (start + CHUNK_ELEMS).min(buf.len());
            if r + 1 == p {
                self.post(0, TAG_BCAST, buf[start..end].to_vec());
            } else {
                let from = if r == 0 { p - 1 } else { r - 1 };
                let result = self.take(from, TAG_BCAST);
                buf[start..end].copy_from_slice(&result);
                if r + 1 < p - 1 {
                    self.post(r + 1, TAG_BCAST, result);
                }
            }
        }
    }
}

impl Comm for ThreadComm {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.shared.size
    }

    fn allreduce_sum(&self, buf: &mut [f64]) {
        self.ring_allreduce(buf, |acc, own| acc + own);
    }

    fn allreduce_max(&self, buf: &mut [f64]) {
        self.ring_allreduce(buf, f64::max);
    }

    fn allreduce_sum_naive(&self, buf: &mut [f64]) {
        // Gather-to-root baseline: every rank ships its full buffer to
        // rank 0, which folds in rank order and ships full copies back.
        // Same result as the ring, O(p·n) root traffic instead of O(n).
        let p = self.shared.size;
        if p == 1 || buf.is_empty() {
            return;
        }
        if self.rank == 0 {
            for from in 1..p {
                let incoming = self.take(from, TAG_GATHER);
                for (own, x) in buf.iter_mut().zip(&incoming) {
                    *own += x;
                }
            }
            for to in 1..p {
                self.post(to, TAG_BCAST, buf.to_vec());
            }
        } else {
            self.post(0, TAG_GATHER, buf.to_vec());
            let result = self.take(0, TAG_BCAST);
            buf.copy_from_slice(&result);
        }
    }

    fn broadcast(&self, root: usize, buf: &mut [f64]) {
        let p = self.shared.size;
        assert!(root < p, "broadcast root {root} out of range for {p} ranks");
        if p == 1 {
            return;
        }
        if self.rank == root {
            for to in (0..p).filter(|&t| t != root) {
                self.post(to, TAG_BCAST, buf.to_vec());
            }
        } else {
            let data = self.take(root, TAG_BCAST);
            buf.copy_from_slice(&data);
        }
    }

    fn barrier(&self) {
        let mut state = self.shared.lock_barrier();
        let generation = state.generation;
        state.arrived += 1;
        if state.arrived == self.shared.size {
            state.arrived = 0;
            state.generation += 1;
            drop(state);
            self.shared.barrier_cv.notify_all();
            return;
        }
        while state.generation == generation {
            if self.shared.poisoned.load(Ordering::SeqCst) {
                drop(state);
                self.shared.check_poison();
                unreachable!("poisoned flag was set");
            }
            state = self
                .shared
                .barrier_cv
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn send(&self, to: usize, tag: u64, data: Vec<f64>) {
        assert!(to < self.shared.size, "send to rank {to} out of range");
        assert_eq!(tag & INTERNAL, 0, "user tags must not set the internal bit");
        self.post(to, tag, data);
    }

    fn recv(&self, from: usize, tag: u64) -> Vec<f64> {
        assert!(
            from < self.shared.size,
            "recv from rank {from} out of range"
        );
        assert_eq!(tag & INTERNAL, 0, "user tags must not set the internal bit");
        self.take(from, tag)
    }
}

/// Notifies peers when a rank unwinds, so blocked ranks fail fast.
struct PanicGuard(Arc<Shared>);

impl Drop for PanicGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// Runs `f` once per rank on `p` in-process ranks and returns the results
/// in rank order.
///
/// The closure receives its rank's [`ThreadComm`] by value. If any rank
/// panics, `launch` panics with a message containing `rank panicked`
/// (peers blocked in collectives are woken and unwound rather than
/// deadlocking).
pub fn launch<R, F>(p: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(ThreadComm) -> R + Send + Sync,
{
    launch_with((0..p).map(|_| ()).collect(), |comm, ()| f(comm))
}

/// Like [`launch`], but moves one owned payload into each rank's closure.
///
/// `payloads.len()` determines the rank count; `payloads[r]` is handed to
/// rank `r` by value. This is how callers that own per-rank state (e.g. a
/// model replica and its optimizer for data-parallel training) ship it
/// across the thread boundary and get it back through the rank's return
/// value — a plain [`launch`] closure is `Fn` and can only borrow. Panic
/// semantics match [`launch`]: any rank panicking poisons the communicator
/// and surfaces as a `rank panicked` panic in the caller.
#[allow(clippy::disallowed_methods)] // rank launch: one thread per rank
pub fn launch_with<T, R, F>(payloads: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(ThreadComm, T) -> R + Send + Sync,
{
    let comms = ThreadComm::ranks(payloads.len());
    let shared = Arc::clone(&comms[0].shared);
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = comms
            .into_iter()
            .zip(payloads)
            .map(|(comm, payload)| {
                let guard_shared = Arc::clone(&shared);
                crate::pool::note_rank_spawn();
                s.spawn(move || {
                    let _guard = PanicGuard(guard_shared);
                    f(comm, payload)
                })
            })
            .collect();
        handles
            .into_iter()
            .enumerate()
            .map(|(rank, h)| match h.join() {
                Ok(result) => result,
                Err(payload) => {
                    let msg = payload
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| payload.downcast_ref::<&'static str>().copied())
                        .unwrap_or("non-string panic payload");
                    panic!("rank panicked (rank {rank}): {msg}");
                }
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serial left-fold reference: rank-order sum per element.
    fn serial_fold(p: usize, n: usize, value: impl Fn(usize, usize) -> f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let mut acc = value(0, i);
                for r in 1..p {
                    acc += value(r, i);
                }
                acc
            })
            .collect()
    }

    #[test]
    fn allreduce_sum_matches_serial_fold_bitwise_for_1_to_4_ranks() {
        // Awkward magnitudes so any reordering of the fold would change
        // low-order bits; sizes straddle the pipeline chunk boundary.
        let value = |r: usize, i: usize| {
            (1.0 + r as f64).powi(3) * 1e-3 + (i as f64 * 0.7183).sin() * 10.0_f64.powi(r as i32)
        };
        for p in 1..=4usize {
            for n in [1usize, 5, CHUNK_ELEMS - 1, CHUNK_ELEMS + 3] {
                let results = launch(p, |comm| {
                    let mut buf: Vec<f64> = (0..n).map(|i| value(comm.rank(), i)).collect();
                    comm.allreduce_sum(&mut buf);
                    buf
                });
                let expect = serial_fold(p, n, value);
                for (rank, buf) in results.iter().enumerate() {
                    for i in 0..n {
                        assert_eq!(
                            buf[i].to_bits(),
                            expect[i].to_bits(),
                            "p={p} n={n} rank={rank} element {i}: {} != {}",
                            buf[i],
                            expect[i]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn naive_allreduce_matches_ring_bitwise() {
        let value = |r: usize, i: usize| ((r * 37 + i * 11) % 23) as f64 * 0.37 - 3.0;
        for p in 2..=4usize {
            let n = 257;
            let ring = launch(p, |comm| {
                let mut buf: Vec<f64> = (0..n).map(|i| value(comm.rank(), i)).collect();
                comm.allreduce_sum(&mut buf);
                buf
            });
            let naive = launch(p, |comm| {
                let mut buf: Vec<f64> = (0..n).map(|i| value(comm.rank(), i)).collect();
                comm.allreduce_sum_naive(&mut buf);
                buf
            });
            for (a, b) in ring[0].iter().zip(&naive[0]) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn allreduce_max_takes_elementwise_maximum() {
        let results = launch(3, |comm| {
            let r = comm.rank() as f64;
            let mut buf = vec![r, -r, 10.0 - r];
            comm.allreduce_max(&mut buf);
            buf
        });
        for buf in &results {
            assert_eq!(buf, &vec![2.0, 0.0, 10.0]);
        }
    }

    #[test]
    fn results_come_back_in_rank_order() {
        let results = launch(4, |comm| comm.rank() * 100);
        assert_eq!(results, vec![0, 100, 200, 300]);
    }

    #[test]
    fn launch_with_moves_one_payload_per_rank() {
        // Owned (non-Clone-requiring) payloads go in; each rank gets its
        // own by value, collectives still work, and payloads come back
        // through the rank-ordered results.
        let payloads: Vec<Vec<f64>> = (0..3).map(|r| vec![r as f64; 4]).collect();
        let results = launch_with(payloads, |comm, mut own| {
            comm.allreduce_sum(&mut own);
            (comm.rank(), own)
        });
        for (r, (rank, buf)) in results.iter().enumerate() {
            assert_eq!(*rank, r);
            assert!(buf.iter().all(|&x| x == 3.0), "{buf:?}");
        }
    }

    #[test]
    fn send_recv_is_fifo_per_tag() {
        let results = launch(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, vec![1.0]);
                comm.send(1, 7, vec![2.0]);
                comm.send(1, 9, vec![9.0]);
                Vec::new()
            } else {
                // Tag 9 is ready regardless of tag 7's queue.
                let c = comm.recv(0, 9);
                let a = comm.recv(0, 7);
                let b = comm.recv(0, 7);
                vec![a[0], b[0], c[0]]
            }
        });
        assert_eq!(results[1], vec![1.0, 2.0, 9.0]);
    }

    #[test]
    fn barrier_separates_phases() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let before = AtomicUsize::new(0);
        let violations = AtomicUsize::new(0);
        launch(4, |comm| {
            before.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            // After the barrier every rank must observe all 4 arrivals.
            if before.load(Ordering::SeqCst) != 4 {
                violations.fetch_add(1, Ordering::SeqCst);
            }
            comm.barrier();
        });
        assert_eq!(violations.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn broadcast_from_nonzero_root() {
        let results = launch(3, |comm| {
            let mut buf = vec![comm.rank() as f64; 4];
            comm.broadcast(2, &mut buf);
            buf
        });
        for buf in &results {
            assert!(buf.iter().all(|&x| x == 2.0), "{buf:?}");
        }
    }

    #[test]
    #[should_panic(expected = "rank panicked")]
    fn panic_on_one_rank_propagates_to_caller() {
        launch(2, |comm| {
            if comm.rank() == 1 {
                panic!("deliberate failure on rank 1");
            }
            // Rank 0 blocks in a collective; poisoning must unwind it
            // instead of deadlocking the test.
            let mut buf = vec![0.0; 16];
            comm.allreduce_sum(&mut buf);
        });
    }
}
