//! Tracing from outside the program: an in-memory span log plus
//! delegating wrappers around the public trait seams (`mgd_dist::Comm`,
//! `mgd_nn::Model`/`Optimizer`/`InferModel`, `mgd_hybrid::Surrogate`,
//! `mgd_fem::pcg::{LinearOp, Precond}`).
//!
//! Every wrapper forwards **every** trait hook, so a traced run takes the
//! same fast paths as an untraced one (shared `&self` inference views,
//! prepacked slab views, f32 views) and produces bitwise-identical output;
//! the tests at the bottom hold that.

use mgd_dist::Comm;
use mgd_fem::pcg::{LinearOp, Precond};
use mgd_hybrid::Surrogate;
use mgd_nn::param::Param;
use mgd_nn::{InferModel, Layer, Model, Optimizer, SlabModel, Workspace};
use mgd_tensor::Tensor;
use serde_json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One traced interval. `parent` indexes the span that caused it; spans of
/// one operation (request, epoch, solve) share `op`.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span log, written out once when the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished interval and returns its span id.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op,
        };
        let mut spans = self.spans.lock().expect("span log poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a span now (so children can name it as parent); close it
    /// with [`Self::close`].
    pub fn open(&self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, op)
    }

    pub fn close(&self, id: usize) {
        let end = self.ns(Instant::now());
        self.spans.lock().expect("span log poisoned")[id].end_ns = end;
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Self time per span name: each span's duration minus the part its
    /// child spans cover.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut child = vec![0.0f64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child[p] += s.seconds();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in spans.iter().zip(&child) {
            *out.entry(s.name).or_insert(0.0) += (s.seconds() - c).max(0.0);
        }
        out
    }

    /// The span log as one JSON document (spans + per-name self times).
    pub fn to_json(&self) -> Value {
        let spans = self
            .spans()
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Value::Map(vec![
                    ("id".into(), Value::U64(id as u64)),
                    ("name".into(), Value::Str(s.name.into())),
                    ("start_ns".into(), Value::U64(s.start_ns)),
                    ("end_ns".into(), Value::U64(s.end_ns)),
                    (
                        "parent".into(),
                        s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                    ),
                    ("op".into(), Value::U64(s.op)),
                ])
            })
            .collect();
        let self_s = self
            .self_seconds()
            .into_iter()
            .map(|(k, v)| (k.to_string(), Value::F64(v)))
            .collect();
        Value::Map(vec![
            ("self_seconds".into(), Value::Map(self_s)),
            ("spans".into(), Value::Seq(spans)),
        ])
    }
}

/// A nanosecond + call accumulator shared between a wrapper and its
/// reader. `Relaxed` throughout: these are statistics that publish no
/// other data.
#[derive(Default, Debug)]
pub struct Clock {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Clock {
    pub fn add(&self, start: Instant) {
        self.ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.add(start);
        out
    }

    pub fn seconds(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Mean milliseconds per call (0 when never called).
    pub fn mean_ms(&self) -> f64 {
        match self.calls() {
            0 => 0.0,
            n => self.seconds() * 1e3 / n as f64,
        }
    }
}

/// Where a wrapper attaches its spans: a tracer and the parent span.
/// Wrappers without a sink only accumulate clocks.
#[derive(Clone)]
pub struct Sink {
    pub tracer: Arc<Tracer>,
    pub parent: Option<usize>,
}

fn timed<R>(clock: &Clock, sink: &Option<Sink>, name: &'static str, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    clock.add(start);
    if let Some(s) = sink {
        s.tracer.record(name, start, end, s.parent, 0);
    }
    out
}

// ------------------------------------------------------------------ Comm

/// Per-rank communication accounting of a [`TracedComm`].
#[derive(Default, Debug)]
pub struct CommStats {
    pub allreduce: Clock,
    pub allreduce_bytes: AtomicU64,
    pub broadcast: Clock,
    pub barrier: Clock,
    /// Blocking receives: time is the wait for the peer's message.
    pub recv: Clock,
    pub sent_messages: AtomicU64,
    pub sent_bytes: AtomicU64,
}

/// Delegating [`Comm`] that times collectives and receives and counts
/// messages and bytes.
pub struct TracedComm<C: Comm> {
    inner: C,
    stats: Arc<CommStats>,
    sink: Option<Sink>,
}

impl<C: Comm> TracedComm<C> {
    pub fn new(inner: C, stats: Arc<CommStats>, sink: Option<Sink>) -> Self {
        TracedComm { inner, stats, sink }
    }
}

impl<C: Comm> Comm for TracedComm<C> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn size(&self) -> usize {
        self.inner.size()
    }

    fn allreduce_sum(&self, buf: &mut [f64]) {
        self.stats
            .allreduce_bytes
            .fetch_add(8 * buf.len() as u64, Ordering::Relaxed);
        timed(&self.stats.allreduce, &self.sink, "dist.allreduce", || {
            self.inner.allreduce_sum(buf)
        })
    }

    fn allreduce_max(&self, buf: &mut [f64]) {
        self.stats
            .allreduce_bytes
            .fetch_add(8 * buf.len() as u64, Ordering::Relaxed);
        timed(&self.stats.allreduce, &self.sink, "dist.allreduce", || {
            self.inner.allreduce_max(buf)
        })
    }

    fn allreduce_sum_naive(&self, buf: &mut [f64]) {
        self.stats
            .allreduce_bytes
            .fetch_add(8 * buf.len() as u64, Ordering::Relaxed);
        timed(&self.stats.allreduce, &self.sink, "dist.allreduce", || {
            self.inner.allreduce_sum_naive(buf)
        })
    }

    fn broadcast(&self, root: usize, buf: &mut [f64]) {
        timed(&self.stats.broadcast, &self.sink, "dist.broadcast", || {
            self.inner.broadcast(root, buf)
        })
    }

    fn barrier(&self) {
        timed(&self.stats.barrier, &self.sink, "dist.barrier", || {
            self.inner.barrier()
        })
    }

    fn send(&self, to: usize, tag: u64, data: Vec<f64>) {
        self.stats.sent_messages.fetch_add(1, Ordering::Relaxed);
        self.stats
            .sent_bytes
            .fetch_add(8 * data.len() as u64, Ordering::Relaxed);
        self.inner.send(to, tag, data)
    }

    fn recv(&self, from: usize, tag: u64) -> Vec<f64> {
        timed(&self.stats.recv, &self.sink, "dist.halo_wait", || {
            self.inner.recv(from, tag)
        })
    }
}

// ----------------------------------------------------------------- Model

/// Accounting shared by a [`TracedModel`] and every replica cloned from it.
#[derive(Default, Debug)]
pub struct ModelStats {
    /// Training forwards (`forward(x, true)`).
    pub forward: Clock,
    pub backward: Clock,
    /// `&self` inference forwards through the shared serving view.
    pub infer: Clock,
}

/// Delegating [`Model`]: times forward/backward (and the shared inference
/// view it exports) and forwards every other hook untouched.
pub struct TracedModel {
    inner: Box<dyn Model>,
    stats: Arc<ModelStats>,
    sink: Option<Sink>,
}

impl TracedModel {
    pub fn new(inner: Box<dyn Model>, stats: Arc<ModelStats>, sink: Option<Sink>) -> Self {
        TracedModel { inner, stats, sink }
    }
}

impl Layer for TracedModel {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if !train {
            return self.inner.forward(x, train);
        }
        let inner = &mut self.inner;
        timed(&self.stats.forward, &self.sink, "nn.forward", || {
            inner.forward(x, train)
        })
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let inner = &mut self.inner;
        timed(&self.stats.backward, &self.sink, "nn.backward", || {
            inner.backward(grad_out)
        })
    }

    fn params(&mut self) -> Vec<&mut Param> {
        self.inner.params()
    }

    fn buffers(&mut self) -> Vec<&mut Vec<f64>> {
        self.inner.buffers()
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn num_params(&mut self) -> usize {
        self.inner.num_params()
    }
}

impl Model for TracedModel {
    fn predict(&mut self, x: &Tensor) -> Tensor {
        self.inner.predict(x)
    }

    fn deepen(&mut self) -> bool {
        self.inner.deepen()
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(TracedModel {
            inner: self.inner.clone_model(),
            stats: Arc::clone(&self.stats),
            sink: self.sink.clone(),
        })
    }

    fn spatial_align(&self) -> usize {
        self.inner.spatial_align()
    }

    fn predict_slab(&mut self, slab: &Tensor, comm: &dyn Comm) -> Option<Tensor> {
        self.inner.predict_slab(slab, comm)
    }

    fn share(&self) -> Option<Arc<dyn InferModel>> {
        let inner = self.inner.share()?;
        Some(Arc::new(TracedInfer {
            inner,
            stats: Arc::clone(&self.stats),
            sink: self.sink.clone(),
        }))
    }

    fn share_f32(&self) -> Option<Arc<dyn InferModel<f32>>> {
        self.inner.share_f32()
    }

    fn share_slab(&self) -> Option<Arc<dyn SlabModel>> {
        self.inner.share_slab()
    }

    fn share_slab_f32(&self) -> Option<Arc<dyn SlabModel<f32>>> {
        self.inner.share_slab_f32()
    }
}

/// The shared serving view of a [`TracedModel`]: one span per forward, so
/// a queue worker's batches are visible from outside the queue.
struct TracedInfer {
    inner: Arc<dyn InferModel>,
    stats: Arc<ModelStats>,
    sink: Option<Sink>,
}

impl InferModel for TracedInfer {
    fn infer(&self, x: &Tensor, ws: &mut Workspace) -> Tensor {
        timed(&self.stats.infer, &self.sink, "nn.infer", || {
            self.inner.infer(x, ws)
        })
    }
}

// ------------------------------------------------------------- Optimizer

/// Delegating [`Optimizer`] that times `step`.
pub struct TracedOptimizer {
    inner: Box<dyn Optimizer>,
    step: Arc<Clock>,
    sink: Option<Sink>,
}

impl TracedOptimizer {
    pub fn new(inner: Box<dyn Optimizer>, step: Arc<Clock>, sink: Option<Sink>) -> Self {
        TracedOptimizer { inner, step, sink }
    }
}

impl Optimizer for TracedOptimizer {
    fn step(&mut self, params: &mut [&mut Param]) {
        let inner = &mut self.inner;
        timed(&self.step, &self.sink, "nn.optimizer", || {
            inner.step(params)
        })
    }

    fn learning_rate(&self) -> f64 {
        self.inner.learning_rate()
    }

    fn set_learning_rate(&mut self, lr: f64) {
        self.inner.set_learning_rate(lr)
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn clone_optimizer(&self) -> Box<dyn Optimizer> {
        Box::new(TracedOptimizer {
            inner: self.inner.clone_optimizer(),
            step: Arc::clone(&self.step),
            sink: self.sink.clone(),
        })
    }
}

// ------------------------------------------------ Surrogate / FEM seams

/// Delegating [`Surrogate`] that times each guess.
pub struct TimedSurrogate<'a> {
    pub inner: &'a dyn Surrogate,
    pub clock: Clock,
}

impl Surrogate for TimedSurrogate<'_> {
    fn guess(&self, dims: &[usize], nu: &[f64]) -> Option<Vec<f64>> {
        self.clock.time(|| self.inner.guess(dims, nu))
    }
}

/// Delegating [`LinearOp`] that times `apply`.
pub struct TimedOp<'a> {
    pub inner: &'a dyn LinearOp,
    pub clock: Clock,
}

impl LinearOp for TimedOp<'_> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn apply(&self, u: &[f64], out: &mut [f64]) {
        self.clock.time(|| self.inner.apply(u, out))
    }

    fn mask(&self, v: &mut [f64]) {
        self.inner.mask(v)
    }

    fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }
}

/// Delegating [`Precond`] that times `apply` (one V-cycle for a hierarchy).
pub struct TimedPrecond<'a> {
    pub inner: &'a dyn Precond,
    pub clock: Clock,
}

impl Precond for TimedPrecond<'_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.clock.time(|| self.inner.apply(r, z))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::default();
        let e = t.epoch;
        let ms = |n: u64| e + std::time::Duration::from_millis(n);
        let root = t.record("root", ms(0), ms(100), None, 1);
        let a = t.record("a", ms(10), ms(60), Some(root), 1);
        t.record("b", ms(20), ms(30), Some(a), 1);
        t.record("a", ms(70), ms(80), Some(root), 1);
        let s = t.self_seconds();
        assert!((s["root"] - 0.040).abs() < 1e-9);
        assert!((s["a"] - 0.050).abs() < 1e-9);
        assert!((s["b"] - 0.010).abs() < 1e-9);
        // Self times add back up to the root's wall time.
        assert!((s.values().sum::<f64>() - 0.100).abs() < 1e-9);
    }

    #[test]
    fn traced_comm_counts_and_forwards() {
        let stats = Arc::new(CommStats::default());
        let sums = mgd_dist::launch(2, {
            let stats = Arc::clone(&stats);
            move |comm| {
                let rank = comm.rank();
                let tc = TracedComm::new(comm, Arc::clone(&stats), None);
                let mut buf = vec![rank as f64 + 1.0; 4];
                tc.allreduce_sum(&mut buf);
                tc.send(1 - rank, 9, vec![rank as f64; 3]);
                let got = tc.recv(1 - rank, 9);
                assert_eq!(got, vec![(1 - rank) as f64; 3]);
                tc.barrier();
                buf
            }
        });
        assert!(sums.iter().all(|b| b == &vec![3.0; 4]));
        assert_eq!(stats.allreduce.calls(), 2);
        assert_eq!(stats.allreduce_bytes.load(Ordering::Relaxed), 2 * 4 * 8);
        assert_eq!(stats.sent_messages.load(Ordering::Relaxed), 2);
        assert_eq!(stats.sent_bytes.load(Ordering::Relaxed), 2 * 3 * 8);
        assert_eq!(stats.recv.calls(), 2);
        assert_eq!(stats.barrier.calls(), 2);
    }
}
