//! Persistent rank pool: long-lived worker threads + per-request jobs.
//!
//! [`launch`](crate::launch) spawns `p` OS threads per call, which is fine
//! for training (one call per run) but dominates latency when every
//! `predict` re-creates the rank fleet. A [`SlabPool`] spawns the ranks
//! once — each worker owns its [`ThreadComm`] rank plus caller-provided
//! per-rank state (model handles, workspaces) — and then dispatches
//! closures to all ranks per request, collecting rank-ordered results.
//! Panic semantics match `launch`: a panicking job poisons the
//! communicator so peers blocked in collectives unwind, and the caller
//! sees a `rank panicked` panic; the pool is then permanently poisoned.

use crate::comm::Comm;
use crate::thread_comm::ThreadComm;
use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Total rank threads ever spawned in this process — by [`SlabPool`]s and
/// by the per-call [`crate::launch`]/[`crate::launch_with`] entry points.
///
/// Tests use this to assert that repeated requests reuse a pool instead of
/// respawning ranks: the counter must not move between two dispatches.
static TOTAL_RANK_SPAWNS: AtomicU64 = AtomicU64::new(0);

/// Returns the process-wide count of rank worker threads ever spawned.
pub fn total_rank_spawns() -> u64 {
    TOTAL_RANK_SPAWNS.load(Ordering::Relaxed)
}

/// Records one rank-thread spawn (pool workers and `launch_with` ranks).
pub(crate) fn note_rank_spawn() {
    TOTAL_RANK_SPAWNS.fetch_add(1, Ordering::Relaxed);
}

/// A job is one closure instance per rank; results are type-erased so the
/// worker loop is monomorphic in the per-rank state only.
type Job<S> = Box<dyn FnOnce(&ThreadComm, &mut S) -> Box<dyn Any + Send> + Send>;
type RankResult = (usize, std::thread::Result<Box<dyn Any + Send>>);

/// A persistent `p`-rank worker pool over [`ThreadComm`].
///
/// Each worker thread owns one rank of a shared communicator plus one
/// caller-provided state value `S` (created once, mutated across
/// requests — this is where slab models and reusable workspaces live).
/// [`SlabPool::run`] sends one closure to every rank and blocks until all
/// ranks return, yielding rank-ordered results.
pub struct SlabPool<S> {
    job_txs: Vec<Sender<Job<S>>>,
    result_rx: Receiver<RankResult>,
    handles: Vec<JoinHandle<()>>,
    dispatches: u64,
    poisoned: bool,
}

impl<S: Send + 'static> SlabPool<S> {
    /// Spawns one long-lived worker per entry of `states`; worker `r`
    /// owns rank `r` of a fresh communicator and `states[r]`.
    pub fn new(states: Vec<S>) -> Self {
        assert!(!states.is_empty(), "need at least one rank");
        let comms = ThreadComm::ranks(states.len());
        let (result_tx, result_rx) = channel::<RankResult>();
        let mut job_txs = Vec::with_capacity(states.len());
        let mut handles = Vec::with_capacity(states.len());
        for (comm, state) in comms.into_iter().zip(states) {
            let (job_tx, job_rx) = channel::<Job<S>>();
            let result_tx = result_tx.clone();
            note_rank_spawn();
            #[allow(clippy::disallowed_methods)] // SlabPool: one long-lived thread per rank
            handles.push(std::thread::spawn(move || {
                worker(comm, state, job_rx, result_tx);
            }));
            job_txs.push(job_tx);
        }
        SlabPool {
            job_txs,
            result_rx,
            handles,
            dispatches: 0,
            poisoned: false,
        }
    }

    /// Number of ranks in the pool.
    pub fn ranks(&self) -> usize {
        self.job_txs.len()
    }

    /// Number of requests this pool has served.
    pub fn dispatches(&self) -> u64 {
        self.dispatches
    }

    /// Runs `f` once per rank (against that rank's comm and state) and
    /// returns rank-ordered results. Blocks until every rank finishes.
    ///
    /// Panics with `rank panicked` if any rank's job panics; the pool is
    /// then poisoned and refuses further requests (the shared
    /// communicator cannot be un-poisoned).
    pub fn run<R, F>(&mut self, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(&ThreadComm, &mut S) -> R + Send + Sync + 'static,
    {
        assert!(
            !self.poisoned,
            "slab pool poisoned by an earlier rank panic"
        );
        let f = Arc::new(f);
        for tx in &self.job_txs {
            let f = Arc::clone(&f);
            let job: Job<S> =
                Box::new(move |comm, state| Box::new(f(comm, state)) as Box<dyn Any + Send>);
            tx.send(job).expect("pool worker thread died");
        }
        self.dispatches += 1;
        let mut slots: Vec<Option<R>> = (0..self.ranks()).map(|_| None).collect();
        let mut failure: Option<(usize, String)> = None;
        // Every rank sends exactly one result per request (panics are
        // caught in the worker), so collecting `ranks` messages cannot
        // hang even when some ranks fail.
        for _ in 0..self.ranks() {
            let (rank, result) = self
                .result_rx
                .recv()
                .expect("pool worker thread died mid-request");
            match result {
                Ok(boxed) => {
                    slots[rank] = Some(*boxed.downcast::<R>().expect("job result type"));
                }
                Err(payload) => {
                    self.poisoned = true;
                    if failure.is_none() {
                        let msg = payload
                            .downcast_ref::<String>()
                            .map(String::as_str)
                            .or_else(|| payload.downcast_ref::<&'static str>().copied())
                            .unwrap_or("non-string panic payload");
                        failure = Some((rank, msg.to_string()));
                    }
                }
            }
        }
        if let Some((rank, msg)) = failure {
            panic!("rank panicked (rank {rank}): {msg}");
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every rank reported"))
            .collect()
    }
}

impl<S> Drop for SlabPool<S> {
    fn drop(&mut self) {
        // Closing the job channels ends each worker's receive loop.
        self.job_txs.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker<S>(comm: ThreadComm, mut state: S, jobs: Receiver<Job<S>>, results: Sender<RankResult>) {
    let rank = comm.rank();
    while let Ok(job) = jobs.recv() {
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| job(&comm, &mut state)));
        if result.is_err() {
            // Wake peers blocked in collectives so they fail this request
            // too instead of deadlocking; the pool is poisoned for good.
            comm.poison();
        }
        if results.send((rank, result)).is_err() {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::Comm;

    #[test]
    fn pool_runs_collectives_and_returns_rank_ordered_results() {
        let mut pool = SlabPool::new(vec![10usize, 20, 30]);
        let out = pool.run(|comm, state| {
            let mut buf = vec![comm.rank() as f64; 4];
            comm.allreduce_sum(&mut buf);
            (comm.rank(), *state, buf[0])
        });
        assert_eq!(out, vec![(0, 10, 3.0), (1, 20, 3.0), (2, 30, 3.0)]);
    }

    #[test]
    fn pool_reuses_ranks_across_requests_and_keeps_state() {
        // The process-wide spawn counter also moves with sibling tests'
        // ranks, so reuse is checked on what this pool owns: the threads
        // that run its jobs.
        let mut pool = SlabPool::new(vec![0u64; 4]);
        assert_eq!(pool.handles.len(), 4);
        let workers: Vec<_> = pool.handles.iter().map(|h| h.thread().id()).collect();
        for round in 1..=5u64 {
            let ran = pool.run(|_comm, state| {
                *state += 1;
                (*state, std::thread::current().id())
            });
            let (counts, threads): (Vec<u64>, Vec<_>) = ran.into_iter().unzip();
            assert_eq!(counts, vec![round; 4]);
            // Five requests, zero new threads: every job ran on the rank
            // thread spawned for it at construction.
            assert_eq!(threads, workers);
        }
        assert_eq!(pool.handles.len(), 4);
        assert_eq!(pool.dispatches(), 5);
    }

    #[test]
    fn pool_point_to_point_matches_launch_semantics() {
        let mut pool = SlabPool::new(vec![(); 2]);
        let out = pool.run(|comm, ()| {
            if comm.rank() == 0 {
                comm.send(1, 7, vec![42.0]);
                0.0
            } else {
                comm.recv(0, 7)[0]
            }
        });
        assert_eq!(out, vec![0.0, 42.0]);
    }

    #[test]
    #[should_panic(expected = "rank panicked")]
    fn pool_propagates_rank_panics_without_deadlock() {
        let mut pool = SlabPool::new(vec![(); 2]);
        pool.run(|comm, ()| {
            if comm.rank() == 1 {
                panic!("deliberate failure on rank 1");
            }
            // Rank 0 blocks in a collective; poisoning must unwind it.
            let mut buf = vec![0.0; 16];
            comm.allreduce_sum(&mut buf);
        });
    }
}
