//! [`ServeQueue`]: continuous micro-batching over an Arc-snapshot model.
//!
//! Callers submit [`InferenceRequest`]s from any number of threads. A free
//! worker takes every prediction waiting (up to `max_batch`) and dispatches
//! it at once to the snapshot's one-forward-pass
//! [`predict_requests`](mgdiffnet::EngineSnapshot::predict_requests): a
//! batch is whatever arrived while the workers were busy, and a request
//! reaching an idle queue runs alone without waiting for company. Under
//! load this amortizes the per-forward fixed costs (GEMM weight packing,
//! buffer setup) across requests; the `serve_queue_2d` workload of
//! `benchmark/` measures it (`serve.mean_batch`,
//! `serve.dispatch_overhead_us`).
//!
//! Admission control is strict: at most `queue_depth` requests wait at any
//! time, and the `queue_depth + 1`-th submitter gets a typed
//! [`MgdError::QueueFull`] *immediately* instead of an unbounded latency
//! tail. Results are delivered through [`Ticket`]s, so submission never
//! blocks on inference. A forward that panics answers its request with a
//! typed [`MgdError::ForwardPanicked`]; the worker keeps serving, and
//! healthy requests of the same batch still get their answers.
//!
//! The queue holds an [`Arc<SnapshotCell>`], not an engine: it loads the
//! *currently published* snapshot per batch, so a retrain hot-swap
//! ([`SolverEngine::train`](mgdiffnet::SolverEngine::train) republishing
//! through the cell) is picked up on the very next batch with no queue
//! restart, while in-flight batches finish on the snapshot they started
//! with.

use mgd_tensor::Tensor;
use mgdiffnet::{
    CertifiedSolution, EngineSnapshot, InferenceRequest, MgdError, MgdResult, ServeOptions,
    SnapshotCell, SolverEngine,
};
use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// A queued request waiting for its batch.
struct Pending {
    req: InferenceRequest,
    tx: mpsc::SyncSender<(MgdResult<Arc<Tensor>>, Instant)>,
}

/// A queued certified-solve request (see [`ServeQueue::submit_certified`]).
struct CertifiedPending {
    req: InferenceRequest,
    tx: mpsc::SyncSender<(MgdResult<CertifiedSolution>, Instant)>,
}

/// One unit of queued work. Predictions coalesce into micro-batches;
/// certified solves are iterative FEM jobs with no batching win, so each
/// dispatches as its own unit.
enum Job {
    Predict(Pending),
    Certified(CertifiedPending),
}

struct QueueState {
    queue: VecDeque<Job>,
    shutdown: bool,
}

/// Monotonic counters of a [`ServeQueue`] (all atomic — safe to read from
/// any thread while the queue serves).
#[derive(Debug, Default)]
struct Counters {
    submitted: AtomicU64,
    rejected: AtomicU64,
    served: AtomicU64,
    batches: AtomicU64,
    max_batch: AtomicU64,
}

/// Point-in-time statistics of a [`ServeQueue`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ServeQueueStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Requests bounced by admission control ([`MgdError::QueueFull`]).
    pub rejected: u64,
    /// Requests answered (successfully or with a per-request error).
    pub served: u64,
    /// Micro-batches dispatched to the snapshot.
    pub batches: u64,
    /// Largest micro-batch dispatched so far.
    pub max_batch: u64,
    /// Mean requests per dispatched batch (1.0 = no coalescing happened).
    pub mean_batch: f64,
}

struct Shared {
    cell: Arc<SnapshotCell>,
    opts: ServeOptions,
    state: Mutex<QueueState>,
    cv: Condvar,
    counters: Counters,
}

/// A claim on one submitted request's future result.
///
/// Dropping the ticket abandons the result (the request is still served —
/// its output is simply discarded).
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<(MgdResult<Arc<Tensor>>, Instant)>,
}

impl Ticket {
    /// Blocks until the request is answered.
    pub fn wait(self) -> MgdResult<Arc<Tensor>> {
        self.wait_timed().0
    }

    /// Blocks until the request is answered, also returning the instant the
    /// worker completed it — measured at the server, so open-loop load
    /// harnesses can compute true per-request latency even when they
    /// collect tickets out of completion order.
    pub fn wait_timed(self) -> (MgdResult<Arc<Tensor>>, Instant) {
        match self.rx.recv() {
            Ok(out) => out,
            // The worker dropped the sender without answering: the queue
            // was torn down around this request.
            Err(_) => (Err(MgdError::ServeShutdown), Instant::now()),
        }
    }
}

/// A claim on one submitted certified-solve request's future
/// [`CertifiedSolution`]. Dropping the ticket abandons the result.
#[derive(Debug)]
pub struct CertifiedTicket {
    rx: mpsc::Receiver<(MgdResult<CertifiedSolution>, Instant)>,
}

impl CertifiedTicket {
    /// Blocks until the certified solve finishes.
    pub fn wait(self) -> MgdResult<CertifiedSolution> {
        self.wait_timed().0
    }

    /// Blocks until the solve finishes, also returning the server-side
    /// completion instant.
    pub fn wait_timed(self) -> (MgdResult<CertifiedSolution>, Instant) {
        match self.rx.recv() {
            Ok(out) => out,
            Err(_) => (Err(MgdError::ServeShutdown), Instant::now()),
        }
    }
}

/// The concurrent serving front end: admission-controlled request queue +
/// micro-batching worker threads over a hot-swappable [`SnapshotCell`].
///
/// See the [module docs](self) for the batching policy. Construction is
/// two-phase — [`ServeQueue::new`] (no workers yet) then
/// [`ServeQueue::spawn_workers`] — or one-shot via [`ServeQueue::start`] /
/// [`ServeQueue::for_engine`]. Dropping the queue shuts it down gracefully:
/// already-accepted requests are drained and answered, further submissions
/// get [`MgdError::ServeShutdown`].
pub struct ServeQueue {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl ServeQueue {
    /// Creates a queue over `cell` with no worker threads yet: submissions
    /// are accepted (up to `queue_depth`) but nothing is served until
    /// [`Self::spawn_workers`] runs. Useful for deterministic tests and for
    /// pre-loading a queue before opening the floodgates.
    pub fn new(cell: Arc<SnapshotCell>, opts: ServeOptions) -> Self {
        ServeQueue {
            shared: Arc::new(Shared {
                cell,
                opts,
                state: Mutex::new(QueueState {
                    queue: VecDeque::new(),
                    shutdown: false,
                }),
                cv: Condvar::new(),
                counters: Counters::default(),
            }),
            workers: Vec::new(),
        }
    }

    /// Creates the queue and spawns `workers` (at least 1) worker threads.
    pub fn start(cell: Arc<SnapshotCell>, opts: ServeOptions, workers: usize) -> Self {
        let mut q = Self::new(cell, opts);
        q.spawn_workers(workers.max(1));
        q
    }

    /// Starts a queue serving `engine`'s current snapshot cell with the
    /// engine's configured [`ServeOptions`].
    pub fn for_engine(engine: &SolverEngine, workers: usize) -> Self {
        Self::start(engine.serve_cell(), engine.serve_options(), workers)
    }

    /// Adds `n` worker threads to the queue.
    pub fn spawn_workers(&mut self, n: usize) {
        for i in 0..n {
            let shared = Arc::clone(&self.shared);
            #[allow(clippy::disallowed_methods)] // ServeQueue: long-lived worker threads
            let handle = std::thread::Builder::new()
                .name(format!("mgd-serve-{}", self.workers.len() + i))
                .spawn(move || worker_loop(&shared))
                .expect("spawn serve worker");
            self.workers.push(handle);
        }
    }

    /// Number of worker threads currently serving.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Requests currently waiting (not yet claimed by a worker).
    pub fn len(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("queue poisoned")
            .queue
            .len()
    }

    /// Whether no requests are waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Submits a request without blocking on inference.
    ///
    /// Returns [`MgdError::QueueFull`] when `queue_depth` requests are
    /// already waiting (admission control — the caller should back off) and
    /// [`MgdError::ServeShutdown`] after shutdown began. Otherwise the
    /// request is queued and the returned [`Ticket`] resolves to its
    /// result.
    pub fn submit(&self, req: InferenceRequest) -> MgdResult<Ticket> {
        let mut st = self.shared.state.lock().expect("queue poisoned");
        if st.shutdown {
            return Err(MgdError::ServeShutdown);
        }
        if st.queue.len() >= self.shared.opts.queue_depth {
            self.shared
                .counters
                .rejected
                .fetch_add(1, Ordering::Relaxed);
            return Err(MgdError::QueueFull {
                depth: self.shared.opts.queue_depth,
            });
        }
        let (tx, rx) = mpsc::sync_channel(1);
        st.queue.push_back(Job::Predict(Pending { req, tx }));
        self.shared
            .counters
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        drop(st);
        self.shared.cv.notify_one();
        Ok(Ticket { rx })
    }

    /// Submits a **certified-solve** request: instead of one network
    /// forward pass, the request is answered by
    /// [`EngineSnapshot::solve_certified`] — the learned surrogate inside
    /// an iterative FEM solve, demoted to pure multigrid if it misbehaves —
    /// at the snapshot's configured tolerance
    /// (`SolverEngineBuilder::certify_tol`). Certified jobs share the
    /// queue's admission control with predictions but dispatch one per
    /// worker (an iterative solve gains nothing from micro-batching, and
    /// batching behind one would wreck prediction latency).
    pub fn submit_certified(&self, req: InferenceRequest) -> MgdResult<CertifiedTicket> {
        let mut st = self.shared.state.lock().expect("queue poisoned");
        if st.shutdown {
            return Err(MgdError::ServeShutdown);
        }
        if st.queue.len() >= self.shared.opts.queue_depth {
            self.shared
                .counters
                .rejected
                .fetch_add(1, Ordering::Relaxed);
            return Err(MgdError::QueueFull {
                depth: self.shared.opts.queue_depth,
            });
        }
        let (tx, rx) = mpsc::sync_channel(1);
        st.queue
            .push_back(Job::Certified(CertifiedPending { req, tx }));
        self.shared
            .counters
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        drop(st);
        self.shared.cv.notify_one();
        Ok(CertifiedTicket { rx })
    }

    /// Submits and blocks for the result (convenience for callers that
    /// don't pipeline).
    pub fn predict(&self, req: InferenceRequest) -> MgdResult<Arc<Tensor>> {
        self.submit(req)?.wait()
    }

    /// Submits a certified-solve request and blocks for its certificate.
    pub fn solve_certified(&self, req: InferenceRequest) -> MgdResult<CertifiedSolution> {
        self.submit_certified(req)?.wait()
    }

    /// The queue's counters so far.
    pub fn stats(&self) -> ServeQueueStats {
        let c = &self.shared.counters;
        let batches = c.batches.load(Ordering::Relaxed);
        let served = c.served.load(Ordering::Relaxed);
        ServeQueueStats {
            submitted: c.submitted.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            served,
            batches,
            max_batch: c.max_batch.load(Ordering::Relaxed),
            mean_batch: if batches == 0 {
                0.0
            } else {
                served as f64 / batches as f64
            },
        }
    }

    /// The snapshot a batch dispatched right now would run on.
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        self.shared.cell.load()
    }

    /// Shuts the queue down: already-accepted requests are drained and
    /// answered, new submissions get [`MgdError::ServeShutdown`], and all
    /// worker threads are joined. Dropping the queue does the same.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("queue poisoned");
            st.shutdown = true;
        }
        self.shared.cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ServeQueue {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl std::fmt::Debug for ServeQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeQueue")
            .field("workers", &self.workers.len())
            .field("opts", &self.shared.opts)
            .field("stats", &self.stats())
            .finish()
    }
}

/// One worker: claim a seed request, coalesce what waits behind it up to
/// `max_batch`, dispatch, deliver.
fn worker_loop(shared: &Shared) {
    loop {
        let mut st = shared.state.lock().expect("queue poisoned");
        // Sleep until there is a seed request (or shutdown with an empty
        // queue — accepted requests are drained before exiting).
        loop {
            if let Some(seed) = st.queue.pop_front() {
                match seed {
                    Job::Predict(seed) => break collect_batch(shared, st, seed),
                    Job::Certified(job) => break run_certified(shared, st, job),
                }
            }
            if st.shutdown {
                return;
            }
            st = shared.cv.wait(st).expect("queue poisoned");
        }
    }
}

/// Dispatches one claimed certified-solve job (lock released during the
/// solve — predictions keep flowing through the other workers meanwhile).
fn run_certified(
    shared: &Shared,
    st: std::sync::MutexGuard<'_, QueueState>,
    job: CertifiedPending,
) {
    drop(st);
    let snap = shared.cell.load();
    shared.counters.batches.fetch_add(1, Ordering::Relaxed);
    shared.counters.served.fetch_add(1, Ordering::Relaxed);
    shared.counters.max_batch.fetch_max(1, Ordering::Relaxed);
    let res = guarded(|| snap.solve_certified(&job.req, snap.certify_tol()));
    let _ = job.tx.send((res, Instant::now()));
}

/// Runs one forward-side call, turning a panic into a typed
/// [`MgdError::ForwardPanicked`] so the worker survives it.
fn guarded<T>(call: impl FnOnce() -> MgdResult<T>) -> MgdResult<T> {
    std::panic::catch_unwind(AssertUnwindSafe(call)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into());
        Err(MgdError::ForwardPanicked(msg))
    })
}

/// With `seed` claimed, takes the predictions queued behind it (up to
/// `max_batch`) and dispatches them at once, lock released during
/// inference. Only predictions coalesce; a certified job at the queue head
/// ends collection so the next worker pass claims it whole.
fn collect_batch(shared: &Shared, mut st: std::sync::MutexGuard<'_, QueueState>, seed: Pending) {
    let mut batch = vec![seed];
    while batch.len() < shared.opts.max_batch {
        match st.queue.pop_front() {
            Some(Job::Predict(p)) => batch.push(p),
            Some(certified) => {
                st.queue.push_front(certified);
                break;
            }
            None => break,
        }
    }
    drop(st);

    // Load the *currently published* snapshot: a hot-swapped retrain is
    // picked up here, batch by batch.
    let snap = shared.cell.load();
    let (reqs, txs): (Vec<InferenceRequest>, Vec<_>) =
        batch.into_iter().map(|p| (p.req, p.tx)).unzip();
    let n = reqs.len() as u64;
    shared.counters.batches.fetch_add(1, Ordering::Relaxed);
    shared.counters.served.fetch_add(n, Ordering::Relaxed);
    shared.counters.max_batch.fetch_max(n, Ordering::Relaxed);
    match guarded(|| snap.predict_requests(&reqs)) {
        Ok(outs) => {
            let done = Instant::now();
            for (tx, out) in txs.iter().zip(outs) {
                // A dropped ticket is not an error — the result is simply
                // discarded.
                let _ = tx.send((Ok(out), done));
            }
        }
        Err(_) => {
            // One bad request fails (or panics) the whole batched call, and
            // MgdError is not Clone — re-run per request so every caller
            // gets its own typed verdict and healthy requests still succeed
            // (their answers come from the cache the batch attempt warmed,
            // or a per-request forward).
            for (tx, req) in txs.iter().zip(&reqs) {
                let res = guarded(|| snap.predict_request(req));
                let _ = tx.send((res, Instant::now()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgd_field::DiffusivityModel;
    use mgd_nn::{InferModel, Layer, Model, UNet, UNetConfig, Workspace};
    use mgdiffnet::{Problem, SolverEngine, SolverEngineBuilder};
    use std::time::Duration;

    fn builder() -> SolverEngineBuilder {
        SolverEngine::builder()
            .resolution([16, 16])
            .problem(Problem::poisson_2d(DiffusivityModel::paper()))
            .levels(2)
            .samples(8)
            .batch_size(4)
            .seed(3)
    }

    fn engine() -> SolverEngine {
        builder().build().unwrap()
    }

    #[test]
    fn queue_results_match_direct_predict_bitwise() {
        let engine = engine();
        let queue = ServeQueue::for_engine(&engine, 2);
        let fields: Vec<Tensor> = (0..6)
            .map(|s| engine.dataset().nu_field(s, &[16, 16]))
            .collect();
        let tickets: Vec<Ticket> = fields
            .iter()
            .map(|f| queue.submit(InferenceRequest::coeff(f.clone())).unwrap())
            .collect();
        for (ticket, field) in tickets.into_iter().zip(&fields) {
            let batched = ticket.wait().unwrap();
            let direct = engine.predict(field).unwrap();
            assert!(
                batched
                    .as_slice()
                    .iter()
                    .zip(direct.as_slice())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "micro-batched result differs from per-request predict"
            );
        }
        assert_eq!(queue.stats().served, 6);
    }

    #[test]
    fn preloaded_queue_coalesces_deterministically() {
        let engine = engine();
        // No workers yet: 16 requests pile up, then one worker drains them
        // in exactly ceil(16 / max_batch=8) = 2 micro-batches.
        let mut queue = ServeQueue::new(engine.serve_cell(), engine.serve_options());
        let nu = engine.dataset().nu_field(0, &[16, 16]);
        let tickets: Vec<Ticket> = (0..16)
            .map(|_| queue.submit(InferenceRequest::coeff(nu.clone())).unwrap())
            .collect();
        assert_eq!(queue.len(), 16);
        queue.spawn_workers(1);
        for t in tickets {
            t.wait().unwrap();
        }
        let stats = queue.stats();
        assert_eq!(stats.served, 16);
        assert_eq!(stats.batches, 2, "16 queued requests / max_batch 8");
        assert_eq!(stats.max_batch, 8);
        assert!((stats.mean_batch - 8.0).abs() < 1e-12);
    }

    #[test]
    fn admission_control_rejects_above_queue_depth() {
        let engine = engine();
        let mut opts = engine.serve_options();
        opts.queue_depth = 3;
        // No workers: nothing drains, so the bound is exact.
        let queue = ServeQueue::new(engine.serve_cell(), opts);
        let nu = engine.dataset().nu_field(0, &[16, 16]);
        let tickets: Vec<Ticket> = (0..3)
            .map(|_| queue.submit(InferenceRequest::coeff(nu.clone())).unwrap())
            .collect();
        let overflow = queue.submit(InferenceRequest::coeff(nu.clone()));
        assert!(
            matches!(overflow, Err(MgdError::QueueFull { depth: 3 })),
            "{overflow:?}"
        );
        assert_eq!(queue.stats().rejected, 1);
        // Tear the queue down with requests still waiting: every pending
        // ticket resolves to ServeShutdown instead of hanging. (Accepted
        // requests are only drained when workers exist to drain them.)
        drop(queue);
        for t in tickets {
            assert!(matches!(t.wait(), Err(MgdError::ServeShutdown)));
        }
    }

    #[test]
    fn shutdown_drains_accepted_requests() {
        let engine = engine();
        let queue = ServeQueue::for_engine(&engine, 2);
        let nu = engine.dataset().nu_field(1, &[16, 16]);
        let tickets: Vec<Ticket> = (0..8)
            .map(|_| queue.submit(InferenceRequest::coeff(nu.clone())).unwrap())
            .collect();
        queue.shutdown(); // joins workers; accepted requests still answered
        for t in tickets {
            assert!(t.wait().is_ok(), "accepted request dropped at shutdown");
        }
    }

    #[test]
    fn per_request_errors_do_not_poison_the_batch() {
        let engine = engine();
        // One worker + preloaded queue forces the good and bad requests
        // into the SAME micro-batch.
        let mut queue = ServeQueue::new(engine.serve_cell(), engine.serve_options());
        let good = engine.dataset().nu_field(0, &[16, 16]);
        let bad = Tensor::full([16, 16], f64::NAN);
        let t_good = queue.submit(InferenceRequest::coeff(good.clone())).unwrap();
        let t_bad = queue.submit(InferenceRequest::coeff(bad)).unwrap();
        let t_omega_bad = queue
            .submit(InferenceRequest::omega(vec![0.0; 1])) // wrong length
            .unwrap();
        queue.spawn_workers(1);
        let direct = engine.predict(&good).unwrap();
        let got = t_good.wait().unwrap();
        assert!(got
            .as_slice()
            .iter()
            .zip(direct.as_slice())
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        assert!(matches!(t_bad.wait(), Err(MgdError::NonFiniteInput { .. })));
        assert!(matches!(t_omega_bad.wait(), Err(MgdError::Field(_))));
    }

    #[test]
    fn non_positive_definite_request_fails_alone_in_its_batch() {
        let engine = engine();
        // One worker + preloaded queue: both requests share one batch.
        let mut queue = ServeQueue::new(engine.serve_cell(), engine.serve_options());
        let good = engine.dataset().nu_field(0, &[16, 16]);
        let mut bad = good.clone();
        bad.as_mut_slice()[85] = -1.0;
        let t_good = queue.submit(InferenceRequest::coeff(good.clone())).unwrap();
        let t_bad = queue.submit(InferenceRequest::coeff(bad)).unwrap();
        queue.spawn_workers(1);
        let got = t_good.wait().unwrap();
        assert!(
            matches!(t_bad.wait(), Err(MgdError::InvalidConfig(ref m)) if m.contains("node 85")),
            "a coefficient with ν ≤ 0 must be refused, not served"
        );
        // Against an identically built engine, so the answer is a forward
        // of its own and not a hit on the queue's cache.
        let want = builder()
            .build()
            .unwrap()
            .snapshot()
            .predict_request(&InferenceRequest::coeff(good))
            .unwrap();
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&got),
            bits(&want),
            "answer differs from predict_request"
        );
    }

    #[test]
    fn certified_requests_flow_through_the_queue() {
        let engine = engine();
        // Preload a mixed workload — predictions and a certified solve in
        // one queue — then let a single worker drain it.
        let mut queue = ServeQueue::new(engine.serve_cell(), engine.serve_options());
        let nu = engine.dataset().nu_field(1, &[16, 16]);
        let t_pred = queue.submit(InferenceRequest::coeff(nu.clone())).unwrap();
        let t_cert = queue
            .submit_certified(InferenceRequest::coeff(nu.clone()))
            .unwrap();
        let t_pred2 = queue.submit(InferenceRequest::coeff(nu)).unwrap();
        queue.spawn_workers(1);
        assert!(t_pred.wait().is_ok());
        let sol = t_cert.wait().unwrap();
        assert!(sol.converged, "{:?}", sol.residual_history);
        assert!(sol.rel_residual <= engine.snapshot().certify_tol());
        assert!(t_pred2.wait().is_ok());
        let stats = queue.stats();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.served, 3);
    }

    /// A U-Net whose serving view runs a test hook on each input batch
    /// before its forward.
    #[derive(Clone)]
    struct HookedNet {
        net: UNet,
        hook: Arc<dyn Fn(&Tensor) + Send + Sync>,
    }

    impl HookedNet {
        fn new(hook: impl Fn(&Tensor) + Send + Sync + 'static) -> Self {
            HookedNet {
                net: UNet::new(UNetConfig {
                    two_d: true,
                    depth: 2,
                    base_filters: 2,
                    seed: 5,
                    ..Default::default()
                }),
                hook: Arc::new(hook),
            }
        }
    }

    impl Layer for HookedNet {
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
            format!("Hooked{}", self.net.name())
        }
    }

    impl Model for HookedNet {
        fn clone_model(&self) -> Box<dyn Model> {
            Box::new(self.clone())
        }
        fn share(&self) -> Option<Arc<dyn InferModel>> {
            Some(Arc::new(self.clone()))
        }
    }

    impl InferModel for HookedNet {
        fn infer(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
            (self.hook)(x);
            self.net.infer(x, ws)
        }
    }

    /// The test engine's configuration serving `model`.
    fn engine_with(model: HookedNet) -> SolverEngineBuilder {
        builder().model(Box::new(model))
    }

    #[test]
    fn panicking_forward_is_a_typed_error_and_the_worker_survives() {
        // The serving view panics on a constant input field, the sentinel.
        let panicky = HookedNet::new(|x| {
            let sample = x.len() / x.dims()[0];
            for s in x.as_slice().chunks(sample) {
                assert!(s.iter().any(|&v| v != s[0]), "sentinel field");
            }
        });
        let engine = engine_with(panicky).build().unwrap();
        let within = Duration::from_secs(10);
        let answer = |t: Ticket| t.rx.recv_timeout(within).expect("no answer in 10 s").0;
        let healthy = engine.dataset().nu_field(1, &[16, 16]);
        let expect = engine
            .snapshot()
            .predict_request(&InferenceRequest::coeff(healthy.clone()))
            .unwrap();
        let same = |got: &Tensor| {
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(got),
                bits(&expect),
                "answer differs from predict_request"
            );
        };
        let sentinel = || InferenceRequest::coeff(Tensor::full([16, 16], 2.0));
        fn panicked<T>(r: MgdResult<T>) -> bool {
            matches!(r, Err(MgdError::ForwardPanicked(m)) if m.contains("sentinel"))
        }
        // Alone: the panic is the request's typed verdict, and so it is for
        // a certified solve seeded by the same forward; then the one worker
        // still answers the next request.
        let queue = ServeQueue::for_engine(&engine, 1);
        assert!(panicked(answer(queue.submit(sentinel()).unwrap())));
        let certified = queue.submit_certified(sentinel()).unwrap();
        assert!(panicked(certified.rx.recv_timeout(within).unwrap().0));
        let t_healthy = queue.submit(InferenceRequest::coeff(healthy.clone()));
        same(&answer(t_healthy.unwrap()).unwrap());
        // In one batch with a healthy request: the batch panics, the
        // per-request retry answers the healthy one.
        let mut queue = ServeQueue::new(engine.serve_cell(), engine.serve_options());
        let t_poisoned = queue.submit(sentinel()).unwrap();
        let t_healthy = queue.submit(InferenceRequest::coeff(healthy)).unwrap();
        queue.spawn_workers(1);
        assert!(panicked(answer(t_poisoned)));
        same(&answer(t_healthy).unwrap());
        assert_eq!(queue.stats().batches, 1);
    }

    /// Holds every forward at its door until the test opens it, counting
    /// the forwards that arrived.
    #[derive(Default)]
    struct Gate {
        /// (forwards arrived, open)
        state: Mutex<(usize, bool)>,
        cv: Condvar,
    }

    impl Gate {
        fn pass(&self) {
            let mut st = self.state.lock().unwrap();
            st.0 += 1;
            self.cv.notify_all();
            while !st.1 {
                st = self.cv.wait(st).unwrap();
            }
        }

        fn await_arrivals(&self, n: usize) {
            let st = self.state.lock().unwrap();
            let (st, _) = self
                .cv
                .wait_timeout_while(st, Duration::from_secs(10), |st| st.0 < n)
                .unwrap();
            assert!(st.0 >= n, "no forward began in 10 s");
        }

        fn open(&self) {
            self.state.lock().unwrap().1 = true;
            self.cv.notify_all();
        }
    }

    #[test]
    fn busy_worker_batches_what_arrived_meanwhile() {
        let gate = Arc::new(Gate::default());
        let door = Arc::clone(&gate);
        // No cache: every answer, and every reference below, is a forward.
        let engine = engine_with(HookedNet::new(move |_| door.pass()))
            .cache_capacity(0)
            .build()
            .unwrap();
        let reqs: Vec<InferenceRequest> = (0..6)
            .map(|s| InferenceRequest::coeff(engine.dataset().nu_field(s, &[16, 16])))
            .collect();
        let queue = ServeQueue::for_engine(&engine, 1);
        // A lone request on an idle queue is dispatched alone at once: the
        // worker is inside its forward, as a batch of one, before anything
        // else is submitted.
        let first = queue.submit(reqs[0].clone()).unwrap();
        gate.await_arrivals(1);
        let stats = queue.stats();
        assert_eq!((stats.batches, stats.max_batch), (1, 1));
        // Five arrivals while the worker is busy form the next batch.
        let mut tickets = vec![first];
        for req in &reqs[1..] {
            tickets.push(queue.submit(req.clone()).unwrap());
        }
        gate.open();
        let within = Duration::from_secs(10);
        let snap = engine.snapshot();
        for (ticket, req) in tickets.into_iter().zip(&reqs) {
            let got = ticket.rx.recv_timeout(within).expect("no answer in 10 s").0;
            let want = snap.predict_request(req).unwrap();
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got.unwrap()), bits(&want));
        }
        let stats = queue.stats();
        assert_eq!(stats.served, 6);
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.max_batch, 5);
    }

    #[test]
    fn submit_after_shutdown_is_a_typed_error() {
        let engine = engine();
        let mut queue = ServeQueue::for_engine(&engine, 1);
        queue.shutdown_inner();
        let nu = engine.dataset().nu_field(0, &[16, 16]);
        assert!(matches!(
            queue.submit(InferenceRequest::coeff(nu)),
            Err(MgdError::ServeShutdown)
        ));
    }
}
