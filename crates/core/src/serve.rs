//! The concurrent serving substrate: Arc-published [`EngineSnapshot`]s,
//! the sharded [`PredictionCache`], typed [`InferenceRequest`]s, and the
//! atomic [`ServeStats`] counters.
//!
//! The training side of the engine mutates weights in place, so it is
//! inherently exclusive (`&mut self`). Serving is the opposite: ROADMAP
//! item 3's "heavy traffic" goal needs *many* callers reading *one* trained
//! model at once. This module separates the two worlds:
//!
//! - [`EngineSnapshot`] — an immutable, `Sync` view of everything a
//!   prediction needs (weights, encoding, boundary operator, cache). All
//!   `predict*` methods take `&self`; any number of threads can call them
//!   on one shared `Arc<EngineSnapshot>` simultaneously, and the results
//!   are bitwise identical to the exclusive path (the network runs the
//!   same kernels through [`mgd_nn::Workspace`]-backed `&self` inference).
//! - [`SnapshotCell`] — the ArcSwap-style publication point. The engine
//!   `store`s a fresh snapshot after every weight change (train,
//!   `load_weights`, `model_mut`); serving threads `load` the current
//!   `Arc` (a short read-lock + refcount bump) and then run entirely
//!   lock-free on it. In-flight requests keep the old snapshot alive until
//!   they finish — hot-swap never blocks or torments a reader.
//! - [`PredictionCache`] — N independent LRU shards selected by a
//!   deterministic hash of the [`CacheKey`], so concurrent cache probes
//!   stop serializing on one lock. It holds the served f64 fields at
//!   either precision (8 B per node), so a hit is an `Arc` clone of the
//!   miss's answer, bit for bit. Per-shard hit/miss/eviction counters
//!   feed honest hit-rate reporting.
//! - [`InferenceRequest`] — the typed request surface: a raw coefficient
//!   field ([`InferenceRequest::Coeff`]) or a parameter vector
//!   ([`InferenceRequest::Omega`]) rasterized server-side. Engine, queue
//!   (`mgd_serve`), and cache keying all speak this one type.
//! - [`SharedServeStats`] / [`ServeStats`] — engine-lifetime serving
//!   counters as atomics, shared across snapshot generations so a republish
//!   never loses counts.
//!
//! A snapshot runs one forward per element type its [`Precision`] names:
//! f64 under `F64`, f32 under `F32` (the input demoted once, the output
//! promoted once, exactly). At either type the forward is the shared
//! one-rank [`InferModel`] view on the calling thread, or the [`SlabModel`]
//! view over a persistent rank fleet when the engine serves on more than
//! one slab rank; both draw their scratch from a snapshot-owned checkout
//! pool that the `workspace_pool_*` / `slab_pool_*` counters observe.

use crate::error::{MgdError, MgdResult};
use crate::loss::FemLoss;
use mgd_dist::{
    assemble_planes, carve_planes, Comm, SlabLayout, SlabPartition, SlabPool, ThreadComm,
};
use mgd_fem::hierarchy::HierarchyOptions;
use mgd_field::{
    stack_fields_with, tensorize, Anisotropy, DiffusivityModel, FieldError, InputEncoding,
};
use mgd_hybrid::{
    solve_certified, CertifiedSolution, CertifyOptions, ErasedHierarchy, StrategyKind, Surrogate,
};
use mgd_nn::{InferModel, Model, SlabModel, SlabOpts, Workspace};
use mgd_tensor::{Element, Precision, Tensor};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// A typed inference request: what a serving caller wants solved.
///
/// Replaces the old stringly `predict_omega(&[f64])` surface — the engine,
/// the `mgd_serve` micro-batching queue, and the cache all key off this one
/// enum, so a request means the same thing at every layer.
#[derive(Clone, Debug, PartialEq)]
pub enum InferenceRequest {
    /// A raw coefficient field ν shaped like the engine's resolution.
    Coeff(Tensor),
    /// A diffusivity parameter vector ω, rasterized server-side at the
    /// engine's resolution (cached under the ω bits themselves, so repeat
    /// ω queries skip rasterization entirely).
    Omega(Vec<f64>),
}

impl InferenceRequest {
    /// Wraps a coefficient field.
    pub fn coeff(field: Tensor) -> Self {
        InferenceRequest::Coeff(field)
    }

    /// Wraps a parameter vector.
    pub fn omega(omega: impl Into<Vec<f64>>) -> Self {
        InferenceRequest::Omega(omega.into())
    }

    fn view(&self) -> ReqView<'_> {
        match self {
            InferenceRequest::Coeff(t) => ReqView::Coeff(t),
            InferenceRequest::Omega(o) => ReqView::Omega(o),
        }
    }
}

/// Borrowed view of a request — lets `predict_batch(&[Tensor])` share the
/// serving core without cloning every field into an owned request.
enum ReqView<'a> {
    Coeff(&'a Tensor),
    Omega(&'a [f64]),
}

/// Cache key of one inference request.
///
/// Every key carries the snapshot's *physics fingerprint*
/// ([`crate::loss::FemLoss::fingerprint`]: operator ⊕ boundary ⊕ forcing)
/// alongside the request payload, so identical coefficient fields queried
/// under different operators or boundary data can never alias one cache
/// entry — even if a cache outlives a physics change.
///
/// `Coeff` bodies quantize every ν value to ~1e-9 absolute resolution, so
/// bitwise jitter below solver precision still hits; the full quantized
/// field is the key (no hash-collision false positives). `Omega` bodies are
/// the (finite, `-0.0`-normalized) parameter bits — ω requests are cached
/// without rasterizing first.
///
/// A key digests physics and body once, when it is minted: `Hash` and
/// [`CacheKey::shard`] read only the digest, and equality compares the
/// digest before the body, so keys whose digests collide still never
/// match. A collision costs a body comparison inside one shard, whose
/// occupancy its capacity bounds.
#[derive(Clone, Debug)]
pub struct CacheKey {
    digest: u64,
    /// Physics fingerprint of the snapshot that minted the key.
    physics: u64,
    body: KeyBody,
}

impl PartialEq for CacheKey {
    fn eq(&self, other: &Self) -> bool {
        self.digest == other.digest && self.physics == other.physics && self.body == other.body
    }
}

impl Eq for CacheKey {}

impl std::hash::Hash for CacheKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.digest);
    }
}

/// Request payload of a [`CacheKey`].
#[derive(Clone, Debug, PartialEq, Eq)]
enum KeyBody {
    /// Quantized coefficient field.
    Coeff(Vec<u128>),
    /// Bit patterns of the ω vector.
    Omega(Vec<u64>),
}

impl CacheKey {
    /// Keys a (finite — callers reject NaN/∞ first) coefficient field
    /// under the given physics fingerprint.
    ///
    /// The quantization stays in the float domain: `round(v·1e9)` is an
    /// exact integer-valued f64 whose bit pattern is the key element.
    /// An earlier `as i64` cast saturated everything ≥ ~9.2e9 to `i64::MAX`
    /// (distinct huge coefficients collided onto one entry) and collapsed
    /// NaN to 0 (a NaN field cache-hit an all-zero field). Adding `0.0`
    /// normalizes `-0.0` to `+0.0` so sub-resolution jitter around zero
    /// still maps to one key. When `v·1e9` itself overflows f64
    /// (|v| ≳ 1.8e299) the raw bit pattern is used instead, tagged into a
    /// disjoint keyspace so it can never alias a quantized value.
    pub fn coeff(field: &Tensor, physics: u64) -> CacheKey {
        let body = field
            .as_slice()
            .iter()
            .map(|&v| {
                let q = (v * 1e9).round() + 0.0;
                if q.is_finite() {
                    u128::from(q.to_bits())
                } else {
                    (1u128 << 64) | u128::from(v.to_bits())
                }
            })
            .collect();
        CacheKey::new(physics, KeyBody::Coeff(body))
    }

    /// Keys a (finite) ω parameter vector by exact bit pattern
    /// (`-0.0`-normalized) under the given physics fingerprint.
    pub fn omega(omega: &[f64], physics: u64) -> CacheKey {
        let body = omega.iter().map(|&v| (v + 0.0).to_bits()).collect();
        CacheKey::new(physics, KeyBody::Omega(body))
    }

    /// Mints a key with its digest: word-wise FNV-1a over the physics
    /// fingerprint, a variant tag (so a Coeff key and an Omega key of the
    /// same words digest apart) and one word per body element (a Coeff
    /// element's halves xor-folded; the body comparison keeps the tagged
    /// keyspace apart), then the MurmurHash3 `fmix64` avalanche. FNV's
    /// multiply carries entropy only upward, and integer-valued ν quantize
    /// to words that differ only in their high bits; without the avalanche
    /// every such key lands in one shard.
    fn new(physics: u64, body: KeyBody) -> CacheKey {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let eat = |h: u64, w: u64| (h ^ w).wrapping_mul(PRIME);
        let h = eat(0xcbf2_9ce4_8422_2325, physics);
        let mut h = match &body {
            KeyBody::Coeff(q) => q
                .iter()
                .fold(eat(h, 0), |h, &v| eat(h, v as u64 ^ (v >> 64) as u64)),
            KeyBody::Omega(q) => q.iter().fold(eat(h, 1), |h, &v| eat(h, v)),
        };
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^= h >> 33;
        CacheKey {
            digest: h,
            physics,
            body,
        }
    }

    fn of(req: &ReqView<'_>, physics: u64) -> CacheKey {
        match req {
            ReqView::Coeff(t) => CacheKey::coeff(t, physics),
            ReqView::Omega(o) => CacheKey::omega(o, physics),
        }
    }

    /// Deterministic shard index in `0..shards`: the key's digest (see
    /// [`CacheKey`]) modulo `shards`. Independent of process, run and the
    /// std `HashMap` hasher, so shard placement is reproducible and
    /// testable.
    pub fn shard(&self, shards: usize) -> usize {
        (self.digest % shards.max(1) as u64) as usize
    }
}

/// Engine-lifetime serving counters, all atomic.
///
/// One `Arc<SharedServeStats>` is shared by the engine and every snapshot
/// generation it publishes, so counts accumulate across hot-swaps and are
/// safe to bump from any number of serving threads. (The old `ServeStats`
/// fields were plain `u64`s mutated on the single-threaded path — under
/// concurrent serving they would race and under-count.)
#[derive(Debug, Default)]
pub struct SharedServeStats {
    forward_passes: AtomicU64,
    predicted_fields: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_evictions: AtomicU64,
    workspace_pool_hits: AtomicU64,
    workspace_pool_misses: AtomicU64,
    slab_pool_hits: AtomicU64,
    slab_pool_misses: AtomicU64,
}

impl SharedServeStats {
    /// A consistent-enough copy of the counters (each loaded atomically).
    pub fn snapshot(&self) -> ServeStats {
        ServeStats {
            forward_passes: self.forward_passes.load(Ordering::Relaxed),
            predicted_fields: self.predicted_fields.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            cache_evictions: self.cache_evictions.load(Ordering::Relaxed),
            workspace_pool_hits: self.workspace_pool_hits.load(Ordering::Relaxed),
            workspace_pool_misses: self.workspace_pool_misses.load(Ordering::Relaxed),
            slab_pool_hits: self.slab_pool_hits.load(Ordering::Relaxed),
            slab_pool_misses: self.slab_pool_misses.load(Ordering::Relaxed),
        }
    }
}

/// Serving statistics of a `SolverEngine` (a point-in-time copy of
/// [`SharedServeStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Batched forward passes executed (a `predict_batch` call contributes
    /// at most one, regardless of batch size).
    pub forward_passes: u64,
    /// Individual fields answered from the network.
    pub predicted_fields: u64,
    /// Individual fields answered from the cache.
    pub cache_hits: u64,
    /// Cache probes that missed.
    pub cache_misses: u64,
    /// Entries evicted to make room.
    pub cache_evictions: u64,
    /// Forward passes that reused a pooled inference workspace.
    pub workspace_pool_hits: u64,
    /// Forward passes that had to allocate a fresh workspace (the pool was
    /// empty — cold start or more concurrent predictions than ever before).
    pub workspace_pool_misses: u64,
    /// Spatial forwards that reused a persistent rank pool (no thread
    /// spawns, warm per-rank workspaces, prepacked weight panels).
    pub slab_pool_hits: u64,
    /// Spatial forwards that had to spawn a fresh rank pool (only more
    /// concurrent spatial predictions than ever before — one pool is
    /// spawned eagerly when the snapshot is published).
    pub slab_pool_misses: u64,
}

/// Point-in-time statistics of one cache shard.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheShardStats {
    /// Probes answered by this shard.
    pub hits: u64,
    /// Probes that missed in this shard.
    pub misses: u64,
    /// Entries this shard evicted.
    pub evictions: u64,
    /// Entries currently held.
    pub len: usize,
    /// Maximum entries this shard holds.
    pub capacity: usize,
}

/// One ordered-LRU shard core (exclusive behind its shard mutex).
///
/// `by_stamp` keeps keys sorted by their last-use clock stamp, so eviction
/// pops the least recently used entry in O(log n). Outputs are the served
/// f64 fields, stored and returned as `Arc`s — a hit hands out a
/// reference-counted pointer instead of deep-cloning the tensor, which at
/// megavoxel resolutions used to copy ~57 MB per hit on the serving hot
/// path.
struct LruCore {
    capacity: usize,
    entries: HashMap<Arc<CacheKey>, CacheSlot>,
    /// Last-use stamp → key. Stamps come from a strictly increasing clock,
    /// so they are unique and the first entry is always the LRU.
    by_stamp: BTreeMap<u64, Arc<CacheKey>>,
    clock: u64,
}

struct CacheSlot {
    out: Arc<Tensor>,
    stamp: u64,
}

impl LruCore {
    fn new(capacity: usize) -> Self {
        LruCore {
            capacity,
            entries: HashMap::new(),
            by_stamp: BTreeMap::new(),
            clock: 0,
        }
    }

    fn get(&mut self, key: &CacheKey) -> Option<Arc<Tensor>> {
        self.clock += 1;
        let clock = self.clock;
        let (key_arc, slot) = self.entries.get_key_value(key)?;
        let old = slot.stamp;
        let key_arc = Arc::clone(key_arc);
        let out = Arc::clone(&slot.out);
        self.by_stamp.remove(&old);
        self.by_stamp.insert(clock, Arc::clone(&key_arc));
        self.entries.get_mut(&key_arc).expect("slot exists").stamp = clock;
        Some(out)
    }

    /// Inserts (or refreshes) an entry; returns whether an eviction
    /// happened.
    fn insert(&mut self, key: Arc<CacheKey>, value: Arc<Tensor>) -> bool {
        if self.capacity == 0 {
            return false;
        }
        self.clock += 1;
        let clock = self.clock;
        if let Some(slot) = self.entries.get_mut(&key) {
            // Refresh an existing entry in place; `by_stamp` hands back the
            // shared key Arc, so one hash lookup suffices.
            let old = std::mem::replace(&mut slot.stamp, clock);
            slot.out = value;
            let key_arc = self.by_stamp.remove(&old).expect("stamped entry");
            self.by_stamp.insert(clock, key_arc);
            return false;
        }
        let mut evicted = false;
        if self.entries.len() >= self.capacity {
            // Evict the least recently used entry: the smallest stamp.
            if let Some((_, lru_key)) = self.by_stamp.pop_first() {
                self.entries.remove(&*lru_key);
                evicted = true;
            }
        }
        self.by_stamp.insert(clock, Arc::clone(&key));
        self.entries.insert(
            key,
            CacheSlot {
                out: value,
                stamp: clock,
            },
        );
        evicted
    }

    fn len(&self) -> usize {
        debug_assert_eq!(self.entries.len(), self.by_stamp.len());
        self.entries.len()
    }
}

struct CacheShard {
    lru: Mutex<LruCore>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// The serving-side prediction cache: N independent ordered-LRU shards
/// selected by [`CacheKey::shard`], holding the served f64 fields (with
/// boundary values imposed) at either [`Precision`].
///
/// A single-mutex cache serializes every concurrent `predict` on one lock;
/// sharding spreads unrelated keys over independent locks, so probes only
/// contend when they actually touch the same shard. Shard count 1 recovers
/// the exact global-LRU semantics of the old cache (and is what tiny
/// capacities fall back to — see [`PredictionCache::auto_shards`]).
pub struct PredictionCache {
    shards: Vec<CacheShard>,
    stats: Arc<SharedServeStats>,
}

impl PredictionCache {
    /// Builds a cache of `capacity` total entries over `shards` shards
    /// (clamped so every shard holds at least one entry; `shards == 0`
    /// means [`PredictionCache::auto_shards`]). Capacity 0 disables
    /// caching. `stats` receives the aggregate hit/miss/eviction counts.
    pub fn new(capacity: usize, shards: usize, stats: Arc<SharedServeStats>) -> Self {
        let shards = if shards == 0 {
            Self::auto_shards(capacity)
        } else {
            shards.clamp(1, capacity.max(1))
        };
        let (base, rem) = (capacity / shards, capacity % shards);
        let shards = (0..shards)
            .map(|i| {
                let cap = base + usize::from(i < rem);
                CacheShard {
                    lru: Mutex::new(LruCore::new(cap)),
                    capacity: cap,
                    hits: AtomicU64::new(0),
                    misses: AtomicU64::new(0),
                    evictions: AtomicU64::new(0),
                }
            })
            .collect();
        PredictionCache { shards, stats }
    }

    /// Default shard count for a given capacity: one shard per 8 entries,
    /// at most 8, at least 1 — tiny caches keep a single shard so their
    /// eviction order is the exact global LRU order callers of small
    /// caches (and the engine's own tests) rely on.
    pub fn auto_shards(capacity: usize) -> usize {
        (capacity / 8).clamp(1, 8)
    }

    fn shard_of(&self, key: &CacheKey) -> &CacheShard {
        &self.shards[key.shard(self.shards.len())]
    }

    /// Looks up a key, refreshing its LRU position and counting the
    /// hit/miss on both the shard and the shared stats.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<Tensor>> {
        let shard = self.shard_of(key);
        let out = shard.lru.lock().expect("cache shard poisoned").get(key);
        match &out {
            Some(_) => {
                shard.hits.fetch_add(1, Ordering::Relaxed);
                self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            }
            None => {
                shard.misses.fetch_add(1, Ordering::Relaxed);
                self.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        out
    }

    /// Inserts (or refreshes) an entry, counting any eviction it causes.
    /// The cache shares `key`, so a caller keeping it pays no copy.
    pub fn insert(&self, key: impl Into<Arc<CacheKey>>, value: Arc<Tensor>) {
        let key = key.into();
        let shard = self.shard_of(&key);
        let evicted = shard
            .lru
            .lock()
            .expect("cache shard poisoned")
            .insert(key, value);
        if evicted {
            shard.evictions.fetch_add(1, Ordering::Relaxed);
            self.stats.cache_evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Entries currently held across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lru.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of independent shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard statistics (hits, misses, evictions, occupancy).
    pub fn shard_stats(&self) -> Vec<CacheShardStats> {
        self.shards
            .iter()
            .map(|s| CacheShardStats {
                hits: s.hits.load(Ordering::Relaxed),
                misses: s.misses.load(Ordering::Relaxed),
                evictions: s.evictions.load(Ordering::Relaxed),
                len: s.lru.lock().expect("cache shard poisoned").len(),
                capacity: s.capacity,
            })
            .collect()
    }
}

/// Serving configuration of an engine (queue + cache shape), set through
/// the `SolverEngineBuilder` knobs and consumed by `mgd_serve`'s queue.
/// The queue dispatches as soon as a worker is free: a batch is whatever
/// waited while the workers were busy, up to `max_batch`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeOptions {
    /// Admission-control bound: requests beyond this many waiting in the
    /// queue are rejected with [`MgdError::QueueFull`].
    pub queue_depth: usize,
    /// Largest micro-batch the queue coalesces into one forward pass.
    pub max_batch: usize,
    /// Total prediction-cache capacity in entries (0 disables caching),
    /// split over [`PredictionCache::auto_shards`] shards.
    pub cache_capacity: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            queue_depth: 256,
            max_batch: 8,
            cache_capacity: 64,
        }
    }
}

/// A snapshot-owned checkout pool: [`Checkout::take`] pops a warm value
/// (a hit) or makes a fresh one (a miss), [`Checkout::put`] returns it, and
/// the pool dies with the snapshot.
///
/// Both of a snapshot's pools are one of these: inference workspaces on
/// one rank, persistent [`SlabPool`] rank fleets on more. Tying scratch to
/// the snapshot rather than to threads bounds its residency by the peak
/// number of *concurrent* forwards, not the historical thread count, and
/// the hit/miss counters in [`ServeStats`] make reuse observable.
struct Checkout<T> {
    slots: Mutex<Vec<T>>,
}

impl<T> Checkout<T> {
    fn new() -> Self {
        Checkout {
            slots: Mutex::new(Vec::new()),
        }
    }

    /// Pops a pooled value (counted on `hit`), or makes one with `fresh`
    /// when every pooled value is in use (counted on `miss`).
    fn take(&self, hit: &AtomicU64, miss: &AtomicU64, fresh: impl FnOnce() -> T) -> T {
        let pooled = self.slots.lock().expect("checkout pool poisoned").pop();
        match pooled {
            Some(v) => {
                hit.fetch_add(1, Ordering::Relaxed);
                v
            }
            None => {
                miss.fetch_add(1, Ordering::Relaxed);
                fresh()
            }
        }
    }

    /// Returns a value (with its warm buffers) to the pool.
    fn put(&self, v: T) {
        self.slots.lock().expect("checkout pool poisoned").push(v);
    }
}

/// A snapshot's forward at element type `E`: f64 under [`Precision::F64`],
/// f32 under [`Precision::F32`].
enum Served<E: Element> {
    /// The shared one-rank view ([`Model::share`] / [`Model::share_f32`]),
    /// run on the calling thread with a pooled workspace.
    Whole {
        model: Arc<dyn InferModel<E>>,
        pool: Checkout<Workspace<E>>,
    },
    /// The shared prepacked slab view ([`Model::share_slab`] /
    /// [`Model::share_slab_f32`]) over one persistent rank fleet per
    /// concurrent forward: no per-request thread spawns, no per-rank model
    /// replicas, warm per-rank workspaces.
    Slab {
        model: Arc<dyn SlabModel<E>>,
        ranks: usize,
        fleets: Checkout<SlabPool<Workspace<E>>>,
    },
}

impl<E: Element> Served<E> {
    /// Takes the view `cfg`'s rank count serves with: `whole` on one rank,
    /// `slab` on more, each paired with the name of the [`Model`] method
    /// that provides it. Fails with [`MgdError::InvalidConfig`], naming
    /// that method, when the model lacks the view.
    fn new(
        cfg: &SnapshotTemplate,
        whole: (&str, impl FnOnce() -> Option<Arc<dyn InferModel<E>>>),
        slab: (&str, impl FnOnce() -> Option<Arc<dyn SlabModel<E>>>),
    ) -> MgdResult<Self> {
        let missing = |method: &str| {
            MgdError::InvalidConfig(format!(
                "serving at precision {} on {} rank(s) needs Model::{method}, \
                 which the configured model does not provide",
                cfg.precision, cfg.spatial_ranks
            ))
        };
        let ranks = cfg.spatial_ranks;
        if ranks <= 1 {
            let model = whole.1().ok_or_else(|| missing(whole.0))?;
            return Ok(Served::Whole {
                model,
                pool: Checkout::new(),
            });
        }
        let model = slab.1().ok_or_else(|| missing(slab.0))?;
        // Spawn the persistent rank fleet once at publish time so the
        // first predict is already a pool hit.
        let fleets = Checkout::new();
        fleets.put(Self::fleet(ranks));
        Ok(Served::Slab {
            model,
            ranks,
            fleets,
        })
    }

    fn fleet(ranks: usize) -> SlabPool<Workspace<E>> {
        SlabPool::new((0..ranks).map(|_| Workspace::new()).collect())
    }

    /// One batched forward: the one-rank view on the calling thread, or
    /// the slab view over `ranks` in-process ranks with halo exchange
    /// (bitwise identical to the one-rank forward at the same `E`).
    fn forward(&self, x: Tensor<E>, cfg: &SnapshotTemplate) -> MgdResult<Tensor<E>> {
        let stats = &cfg.stats;
        match self {
            Served::Whole { model, pool } => {
                let mut ws = pool.take(
                    &stats.workspace_pool_hits,
                    &stats.workspace_pool_misses,
                    Workspace::new,
                );
                let out = model.infer(&x, &mut ws);
                pool.put(ws);
                Ok(out)
            }
            Served::Slab {
                model,
                ranks,
                fleets,
            } => {
                let align = model.spatial_align().max(1);
                let part = SlabPartition::aligned(cfg.resolution[0], *ranks, align)
                    .map_err(|e| MgdError::InvalidConfig(format!("spatial predict: {e}")))?;
                let dims = x.dims().to_vec();
                let batch = dims[0];
                // [B, C, D, H, W] viewed as [pre, split, post] along z (3D)
                // / y (2D); the coefficient channels (C > 1 for tensor
                // operators) sit slower than the split axis, so they fold
                // into `pre`.
                let (split, post) = if cfg.three_d {
                    (dims[2], dims[3] * dims[4])
                } else {
                    (dims[3], dims[4])
                };
                let layout = SlabLayout {
                    pre: batch * dims[1],
                    split,
                    post,
                };
                // The network output is single-channel regardless of how
                // many coefficient components went in.
                let mut out_dims = dims.clone();
                out_dims[1] = 1;
                let (model, x) = (Arc::clone(model), Arc::new(x));
                let (three_d, opts) = (cfg.three_d, cfg.spatial_opts.clone());
                let mut fleet = fleets.take(&stats.slab_pool_hits, &stats.slab_pool_misses, || {
                    Self::fleet(*ranks)
                });
                let slabs = fleet.run(move |comm: &ThreadComm, ws: &mut Workspace<E>| {
                    let slab = carve_rank_slab(&x, &part, &layout, &dims, three_d, comm.rank());
                    model.infer_slab(&slab, comm, ws, &opts).into_vec()
                });
                fleets.put(fleet);
                Ok(Tensor::from_vec(
                    out_dims,
                    assemble_planes(&slabs, batch, post),
                ))
            }
        }
    }
}

/// The snapshot's forward at the element type its precision names.
enum Forward {
    F64(Served<f64>),
    F32(Served<f32>),
}

/// An immutable, Arc-published view of a trained engine: everything a
/// prediction needs, readable from any number of threads at once.
///
/// Snapshots are created by the engine (initially at `build()`, then after
/// every weight change) and published through a [`SnapshotCell`]. All
/// methods take `&self`; outputs are bitwise identical to the exclusive
/// `&mut` path at any concurrency level. See the module docs for the
/// lifecycle.
pub struct EngineSnapshot {
    version: u64,
    /// The serving configuration, shared by every snapshot the engine
    /// publishes.
    cfg: Arc<SnapshotTemplate>,
    forward: Forward,
    cache: PredictionCache,
}

impl std::fmt::Debug for EngineSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineSnapshot")
            .field("version", &self.version)
            .field("resolution", &self.cfg.resolution)
            .field("precision", &self.cfg.precision)
            .field("spatial_ranks", &self.cfg.spatial_ranks)
            .field("cache_len", &self.cache.len())
            .finish_non_exhaustive()
    }
}

/// [`Surrogate`] view of a snapshot: network inference as the certified
/// solve's initial guess. Guesses are served through
/// [`EngineSnapshot::predict`] (so they hit the prediction cache) and only
/// at the snapshot's native resolution; any other request reports
/// unavailable and the certified driver starts from the zero iterate.
struct SnapshotSurrogate<'a> {
    snap: &'a EngineSnapshot,
}

impl Surrogate for SnapshotSurrogate<'_> {
    fn guess(&self, dims: &[usize], nu: &[f64]) -> Option<Vec<f64>> {
        let cfg = &self.snap.cfg;
        if dims != &cfg.resolution[..] {
            return None;
        }
        // The hybrid system hands over the operator's full coefficient
        // block (`ncomp · vol` values, component-major) — exactly the
        // `coeff_dims` shape the predict surface validates against.
        let vol: usize = dims.iter().product();
        if nu.len() != cfg.loss.ncomp() * vol {
            return None;
        }
        let coeff = Tensor::from_vec(cfg.coeff_dims.clone(), nu.to_vec());
        let u = self.snap.predict(&coeff).ok()?;
        Some(u.as_slice().to_vec())
    }
}

/// Everything a snapshot serves with except its weights. The engine builds
/// one when it is built and stamps every snapshot it publishes from it,
/// adding a version and the current model.
pub(crate) struct SnapshotTemplate {
    pub resolution: Vec<usize>,
    /// Expected dims of a `Coeff` request: `resolution` for scalar
    /// operators, `[ncomp, resolution...]` (component-major tensor planes)
    /// for tensor operators.
    pub coeff_dims: Vec<usize>,
    pub three_d: bool,
    pub encoding: InputEncoding,
    pub diffusivity: DiffusivityModel,
    /// Scalar→tensor expansion ω requests rasterize through when the
    /// physics is anisotropic.
    pub aniso: Option<Anisotropy>,
    pub loss: Arc<FemLoss>,
    pub serve: ServeOptions,
    pub stats: Arc<SharedServeStats>,
    pub hybrid_strategy: StrategyKind,
    pub certify_tol: f64,
    pub precision: Precision,
    /// Slab ranks of the forward; 1 serves the whole field on one rank.
    pub spatial_ranks: usize,
    pub spatial_opts: SlabOpts,
}

impl EngineSnapshot {
    /// Publishes `model`'s current weights under `cfg` as snapshot
    /// `version`. Fails with [`MgdError::InvalidConfig`], naming the
    /// [`Model`] method, when the model lacks the serving view `cfg`'s
    /// precision and rank count need.
    pub(crate) fn build(
        cfg: Arc<SnapshotTemplate>,
        version: u64,
        model: &dyn Model,
    ) -> MgdResult<EngineSnapshot> {
        let forward = match cfg.precision {
            Precision::F64 => Forward::F64(Served::new(
                &cfg,
                ("share", || model.share()),
                ("share_slab", || model.share_slab()),
            )?),
            Precision::F32 => Forward::F32(Served::new(
                &cfg,
                ("share_f32", || model.share_f32()),
                ("share_slab_f32", || model.share_slab_f32()),
            )?),
        };
        let cap = cfg.serve.cache_capacity;
        let cache = PredictionCache::new(
            cap,
            PredictionCache::auto_shards(cap),
            Arc::clone(&cfg.stats),
        );
        Ok(EngineSnapshot {
            version,
            cfg,
            forward,
            cache,
        })
    }

    /// Monotonic publish version (0 = the initial snapshot); each weight
    /// change publishes a higher version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The spatial resolution predictions are shaped as.
    pub fn resolution(&self) -> &[usize] {
        &self.cfg.resolution
    }

    /// Expected dims of a coefficient-field request: the spatial
    /// resolution for scalar operators, `[ncomp, spatial...]`
    /// (component-major symmetric tensor planes) for tensor operators.
    pub fn coeff_dims(&self) -> &[usize] {
        &self.cfg.coeff_dims
    }

    /// Fingerprint of the physics (operator ⊕ boundary ⊕ forcing) this
    /// snapshot serves — folded into every prediction-cache key.
    pub fn loss_fingerprint(&self) -> u64 {
        self.cfg.loss.fingerprint()
    }

    /// Rasterizes one ω vector at the serving resolution, expanding
    /// scalars to component-major tensor planes when the snapshot's
    /// physics is anisotropic.
    fn rasterize(&self, omega: &[f64]) -> Tensor {
        let scalar = self.cfg.diffusivity.rasterize(omega, &self.cfg.resolution);
        match self.cfg.aniso {
            None => scalar,
            Some(a) => tensorize(&scalar, a, &self.cfg.resolution),
        }
    }

    /// Whether this snapshot serves without a slab forward: every predict
    /// runs the shared [`InferModel`] view on the calling thread, taking no
    /// lock beyond the workspace pool's pop and push.
    pub fn is_lock_free(&self) -> bool {
        self.cfg.spatial_ranks <= 1
    }

    /// The numeric policy this snapshot serves at.
    pub fn precision(&self) -> Precision {
        self.cfg.precision
    }

    /// Entries currently held by this snapshot's cache.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Per-shard cache statistics of this snapshot.
    pub fn shard_stats(&self) -> Vec<CacheShardStats> {
        self.cache.shard_stats()
    }

    /// Engine-lifetime serving counters (shared across snapshot
    /// generations).
    pub fn stats(&self) -> ServeStats {
        self.cfg.stats.snapshot()
    }

    /// Predicts the solution field for one raw coefficient field ν shaped
    /// like [`Self::resolution`]. Boundary values are imposed exactly.
    /// Callable concurrently from any number of threads.
    pub fn predict(&self, coeff: &Tensor) -> MgdResult<Arc<Tensor>> {
        Ok(self
            .predict_views(&[ReqView::Coeff(coeff)])?
            .pop()
            .expect("one output"))
    }

    /// Predicts solution fields for N coefficient fields in **one** network
    /// forward pass (cache hits excluded).
    pub fn predict_batch(&self, coeffs: &[Tensor]) -> MgdResult<Vec<Arc<Tensor>>> {
        let views: Vec<ReqView<'_>> = coeffs.iter().map(ReqView::Coeff).collect();
        self.predict_views(&views)
    }

    /// Predicts the solution for one typed request.
    pub fn predict_request(&self, req: &InferenceRequest) -> MgdResult<Arc<Tensor>> {
        Ok(self
            .predict_views(&[req.view()])?
            .pop()
            .expect("one output"))
    }

    /// Predicts solutions for N typed requests in one forward pass (cache
    /// hits excluded) — the entry point the micro-batching queue feeds.
    pub fn predict_requests(&self, reqs: &[InferenceRequest]) -> MgdResult<Vec<Arc<Tensor>>> {
        let views: Vec<ReqView<'_>> = reqs.iter().map(InferenceRequest::view).collect();
        self.predict_views(&views)
    }

    /// The learned strategy certified solves on this snapshot start from.
    pub fn hybrid_strategy(&self) -> StrategyKind {
        self.cfg.hybrid_strategy
    }

    /// The default certified-solve tolerance this snapshot was built with
    /// (used by serving paths that carry no explicit tolerance).
    pub fn certify_tol(&self) -> f64 {
        self.cfg.certify_tol
    }

    /// Solves one request to a **certified** relative residual tolerance.
    ///
    /// Unlike [`Self::predict`] — one forward pass, no error bound — this
    /// assembles the true FEM operator `K(ν)` for the request's
    /// coefficient field and runs the configured `mgd_hybrid` strategy
    /// (network inference seeding or correcting an MG-PCG iteration) under
    /// the certified driver: the true residual `‖rhs − K u‖` is recomputed
    /// from scratch after every outer step, and the solve demotes to pure
    /// FEM multigrid whenever the learned component stalls, is unavailable,
    /// or emits non-finite values. The returned [`CertifiedSolution`]
    /// always carries the recomputed residual norm of the returned field.
    ///
    /// Callable concurrently from any number of threads, like the whole
    /// snapshot surface. Network predictions made inside the solve go
    /// through [`Self::predict`] and therefore hit the prediction cache.
    pub fn solve_certified(
        &self,
        req: &InferenceRequest,
        tol: f64,
    ) -> MgdResult<CertifiedSolution> {
        if !(tol.is_finite() && tol > 0.0) {
            return Err(MgdError::InvalidConfig(format!(
                "certified-solve tol must be finite and positive (got {tol})"
            )));
        }
        self.validate(0, &req.view())?;
        let nu: Vec<f64> = match req {
            InferenceRequest::Coeff(c) => c.as_slice().to_vec(),
            InferenceRequest::Omega(o) => self.rasterize(o).as_slice().to_vec(),
        };
        // Assemble the operator the snapshot was trained for — certified
        // residuals are measured against the *same* physics (operator,
        // boundary data, forcing) the loss discretizes.
        let (sys, rhs) = self.cfg.loss.system(&nu)?;
        let hier = ErasedHierarchy::build_with_precision(
            &sys,
            HierarchyOptions::default(),
            self.cfg.precision,
        )?;
        let surrogate = SnapshotSurrogate { snap: self };
        let opts = CertifyOptions {
            tol,
            ..Default::default()
        };
        Ok(solve_certified(
            &sys,
            &hier,
            &surrogate,
            self.cfg.hybrid_strategy,
            Some(&rhs),
            &opts,
        ))
    }

    /// Validates one request view; `i` is its batch slot for error
    /// reporting.
    fn validate(&self, i: usize, req: &ReqView<'_>) -> MgdResult<()> {
        match req {
            ReqView::Coeff(c) => {
                if c.dims() != &self.cfg.coeff_dims[..] {
                    return Err(MgdError::ShapeMismatch {
                        expected: self.cfg.coeff_dims.clone(),
                        got: c.dims().to_vec(),
                    });
                }
                // Reject NaN/∞ *before* keying: quantization cannot
                // represent them faithfully (a NaN coefficient must never
                // alias a valid field's cache entry), and the network would
                // only propagate the poison anyway.
                if c.has_non_finite() {
                    let bad = c
                        .as_slice()
                        .iter()
                        .copied()
                        .find(|v| !v.is_finite())
                        .unwrap_or(f64::NAN);
                    return Err(MgdError::NonFiniteInput {
                        index: i,
                        value: bad,
                    });
                }
                // A coefficient that is not positive definite has no
                // solution to approximate, and `ln` would feed the network
                // −∞/NaN for ν ≤ 0: reject it as the certified solve does.
                self.cfg.loss.validate_coeff(c.as_slice())?;
            }
            ReqView::Omega(o) => {
                if o.len() != self.cfg.diffusivity.num_modes() {
                    return Err(MgdError::Field(FieldError::OmegaDimMismatch {
                        got: o.len(),
                        expected: self.cfg.diffusivity.num_modes(),
                    }));
                }
                if let Some(&bad) = o.iter().find(|v| !v.is_finite()) {
                    return Err(MgdError::NonFiniteInput {
                        index: i,
                        value: bad,
                    });
                }
            }
        }
        Ok(())
    }

    /// The serving core: validate → probe cache → dedup misses → one
    /// forward over the unique misses → impose BCs → fill + cache.
    fn predict_views(&self, reqs: &[ReqView<'_>]) -> MgdResult<Vec<Arc<Tensor>>> {
        if reqs.is_empty() {
            return Err(MgdError::Field(FieldError::Empty));
        }
        for (i, req) in reqs.iter().enumerate() {
            self.validate(i, req)?;
        }
        let physics = self.cfg.loss.fingerprint();
        let keys: Vec<Arc<CacheKey>> = reqs
            .iter()
            .map(|r| Arc::new(CacheKey::of(r, physics)))
            .collect();
        let mut outputs: Vec<Option<Arc<Tensor>>> = Vec::with_capacity(reqs.len());
        let mut miss_idx: Vec<usize> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            match self.cache.get(key) {
                Some(hit) => outputs.push(Some(hit)),
                None => {
                    outputs.push(None);
                    miss_idx.push(i);
                }
            }
        }
        if !miss_idx.is_empty() {
            // Deduplicate identical requests inside the batch: solve each
            // distinct field once.
            let mut unique: Vec<usize> = Vec::new();
            for &i in &miss_idx {
                if !unique.iter().any(|&u| keys[u] == keys[i]) {
                    unique.push(i);
                }
            }
            let ncomp = self.cfg.loss.ncomp();
            let encoded: Vec<Tensor> = unique
                .iter()
                .map(|&i| match &reqs[i] {
                    ReqView::Coeff(c) => self.cfg.encoding.encode_coeff(c, ncomp),
                    ReqView::Omega(o) => self.cfg.encoding.encode_coeff(&self.rasterize(o), ncomp),
                })
                .collect();
            let x =
                stack_fields_with(&encoded, self.cfg.resolution.len()).map_err(MgdError::Field)?;
            let mut u = self.forward(x)?;
            self.cfg.loss.apply_bc_batch(&mut u);
            self.cfg
                .stats
                .forward_passes
                .fetch_add(1, Ordering::Relaxed);
            self.cfg
                .stats
                .predicted_fields
                .fetch_add(unique.len() as u64, Ordering::Relaxed);
            let vol: usize = self.cfg.resolution.iter().product();
            let solved: Vec<Arc<Tensor>> = unique
                .iter()
                .enumerate()
                .map(|(slot, _)| {
                    Arc::new(Tensor::from_vec(
                        self.cfg.resolution.clone(),
                        u.as_slice()[slot * vol..(slot + 1) * vol].to_vec(),
                    ))
                })
                .collect();
            for (field, &i) in solved.iter().zip(&unique) {
                self.cache.insert(Arc::clone(&keys[i]), Arc::clone(field));
            }
            // Fill every miss (including intra-batch duplicates) from the
            // solved set, not the cache — caching may be disabled.
            for &i in &miss_idx {
                let slot = unique
                    .iter()
                    .position(|&u| keys[u] == keys[i])
                    .expect("every miss has a unique representative");
                outputs[i] = Some(Arc::clone(&solved[slot]));
            }
        }
        Ok(outputs
            .into_iter()
            .map(|o| o.expect("all slots filled"))
            .collect())
    }

    /// One batched network forward through the snapshot's [`Served`]
    /// view. An f32 snapshot demotes the input once and promotes the
    /// output once (exactly); the forward between runs the f32 kernels.
    fn forward(&self, x: Tensor) -> MgdResult<Tensor> {
        match &self.forward {
            Forward::F64(served) => served.forward(x, &self.cfg),
            Forward::F32(served) => Ok(served.forward(x.cast(), &self.cfg)?.cast()),
        }
    }
}

/// Carves rank `r`'s owned slab of the (shared) full input field.
fn carve_rank_slab<E: Element>(
    x: &Tensor<E>,
    part: &SlabPartition,
    layout: &SlabLayout,
    dims: &[usize],
    three_d: bool,
    r: usize,
) -> Tensor<E> {
    let owned = part.owned_planes(r);
    let data = carve_planes(x.as_slice(), layout, owned.start, owned.end);
    let sdims = if three_d {
        vec![dims[0], dims[1], owned.len(), dims[3], dims[4]]
    } else {
        vec![dims[0], dims[1], 1, owned.len(), dims[4]]
    };
    Tensor::from_vec(sdims, data)
}

/// The ArcSwap-style publication point connecting the training side to the
/// serving side.
///
/// The engine `store`s a new `Arc<EngineSnapshot>` after every weight
/// change; serving threads `load` the current one (a short read-lock to
/// bump the refcount) and then predict lock-free on it for as long as they
/// like. A swap never invalidates in-flight work — readers of the old
/// snapshot finish on the old weights, and the old snapshot is freed when
/// its last reader drops it.
pub struct SnapshotCell {
    slot: RwLock<Arc<EngineSnapshot>>,
}

impl SnapshotCell {
    /// Creates a cell publishing `snapshot`.
    pub fn new(snapshot: Arc<EngineSnapshot>) -> Self {
        SnapshotCell {
            slot: RwLock::new(snapshot),
        }
    }

    /// The currently published snapshot.
    pub fn load(&self) -> Arc<EngineSnapshot> {
        Arc::clone(&self.slot.read().expect("snapshot cell poisoned"))
    }

    /// Atomically publishes a new snapshot; subsequent `load`s see it.
    pub fn store(&self, snapshot: Arc<EngineSnapshot>) {
        *self.slot.write().expect("snapshot cell poisoned") = snapshot;
    }
}

impl std::fmt::Debug for SnapshotCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCell")
            .field("current", &self.load())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arc_field(v: f64) -> Arc<Tensor> {
        Arc::new(Tensor::full([2, 2], v))
    }

    fn key_of(v: f64) -> CacheKey {
        CacheKey::coeff(&Tensor::full([2, 2], v), 0)
    }

    #[test]
    fn cache_key_does_not_saturate_on_huge_values() {
        // The old `(v * 1e9).round() as i64` saturated every value beyond
        // ~9.2e9 to i64::MAX, so distinct huge coefficient fields collided
        // onto one cache entry. The float-domain key keeps them apart.
        let a = Tensor::from_vec([2, 2], vec![1.0e10, 1.0, 1.0, 1.0]);
        let b = Tensor::from_vec([2, 2], vec![2.0e10, 1.0, 1.0, 1.0]);
        assert_ne!(
            CacheKey::coeff(&a, 0),
            CacheKey::coeff(&b, 0),
            "values past the old i64 saturation point must keep distinct keys"
        );
        // Sub-resolution jitter still lands on the same key (the cache's
        // reason to exist), including across the ±0.0 boundary.
        let c = Tensor::from_vec([2, 2], vec![1.0e10, 1.0 + 1e-12, 1.0, 1.0]);
        assert_eq!(CacheKey::coeff(&a, 0), CacheKey::coeff(&c, 0));
        let z_pos = Tensor::from_vec([1, 2], vec![0.0, 1.0]);
        let z_neg = Tensor::from_vec([1, 2], vec![-1e-12, 1.0]);
        assert_eq!(CacheKey::coeff(&z_pos, 0), CacheKey::coeff(&z_neg, 0));
        // Even past f64's own v*1e9 overflow point (~1.8e299) distinct
        // values keep distinct keys, and the tagged fallback keyspace
        // cannot alias a quantized value with the same bit pattern.
        let h1 = Tensor::from_vec([1, 2], vec![1.0e300, 1.0]);
        let h2 = Tensor::from_vec([1, 2], vec![2.0e300, 1.0]);
        assert_ne!(CacheKey::coeff(&h1, 0), CacheKey::coeff(&h2, 0));
        let overflow = Tensor::from_vec([1, 1], vec![1.0e300]);
        let quantized_twin = Tensor::from_vec([1, 1], vec![1.0e300 / 1e9]);
        assert_ne!(
            CacheKey::coeff(&overflow, 0),
            CacheKey::coeff(&quantized_twin, 0),
            "tagged fallback must not alias round(v*1e9) of a smaller value"
        );
    }

    #[test]
    fn omega_keys_normalize_negative_zero_and_stay_typed() {
        assert_eq!(
            CacheKey::omega(&[0.0, 1.0], 0),
            CacheKey::omega(&[-0.0, 1.0], 0)
        );
        assert_ne!(CacheKey::omega(&[1.0], 0), CacheKey::omega(&[2.0], 0));
        // An Omega key can never alias a Coeff key (different variants).
        let t = Tensor::from_vec([1, 1], vec![1.0]);
        assert_ne!(CacheKey::coeff(&t, 0), CacheKey::omega(&[1.0], 0));
    }

    #[test]
    fn physics_fingerprint_keeps_identical_fields_apart() {
        use crate::loss::LossSpec;
        use mgd_fem::PdeOperator;
        // The same coefficient payload under different physics must mint
        // different keys — the satellite guarantee that a cache can never
        // serve a Poisson solution to an anisotropic query (or a query
        // under different boundary data).
        let poisson = FemLoss::new(&[8, 8]).unwrap();
        let aniso = FemLoss::with_spec(
            &[8, 8],
            &LossSpec {
                op: PdeOperator::AnisoDiffusion,
                ..LossSpec::default()
            },
        )
        .unwrap();
        let all_faces = FemLoss::with_spec(
            &[8, 8],
            &LossSpec {
                boundary: mgd_fem::BoundarySpec::AllFaces { value: 0.0 },
                ..LossSpec::default()
            },
        )
        .unwrap();
        assert_ne!(poisson.fingerprint(), aniso.fingerprint());
        assert_ne!(poisson.fingerprint(), all_faces.fingerprint());
        let t = Tensor::full([2, 2], 1.5);
        assert_ne!(
            CacheKey::coeff(&t, poisson.fingerprint()),
            CacheKey::coeff(&t, aniso.fingerprint())
        );
        assert_ne!(
            CacheKey::coeff(&t, poisson.fingerprint()),
            CacheKey::coeff(&t, all_faces.fingerprint())
        );
        assert_ne!(
            CacheKey::omega(&[1.0], poisson.fingerprint()),
            CacheKey::omega(&[1.0], aniso.fingerprint())
        );
        // Same physics → same key (the fingerprint is deterministic).
        let poisson2 = FemLoss::new(&[8, 8]).unwrap();
        assert_eq!(
            CacheKey::coeff(&t, poisson.fingerprint()),
            CacheKey::coeff(&t, poisson2.fingerprint())
        );
    }

    #[test]
    fn shard_is_deterministic_and_in_range() {
        for shards in [1usize, 2, 4, 8] {
            for v in 0..32 {
                let k = key_of(v as f64);
                let s = k.shard(shards);
                assert!(s < shards);
                assert_eq!(s, k.shard(shards), "deterministic");
            }
        }
    }

    #[test]
    fn single_shard_cache_is_exact_lru() {
        let stats = Arc::new(SharedServeStats::default());
        let cache = PredictionCache::new(2, 1, Arc::clone(&stats));
        cache.insert(key_of(0.0), arc_field(0.0));
        cache.insert(key_of(1.0), arc_field(1.0));
        assert!(cache.get(&key_of(0.0)).is_some()); // refresh 0
        cache.insert(key_of(2.0), arc_field(2.0)); // evicts 1
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&key_of(1.0)).is_none(), "1 was the LRU");
        assert!(cache.get(&key_of(0.0)).is_some());
        assert!(cache.get(&key_of(2.0)).is_some());
        let s = stats.snapshot();
        assert_eq!(s.cache_evictions, 1);
        assert_eq!(s.cache_hits, 3);
        assert_eq!(s.cache_misses, 1);
    }

    #[test]
    fn sharded_cache_spreads_keys_and_counts_per_shard() {
        // Every shard has room for all 32 keys, so no placement evicts and
        // the count checks the cache, not one hash's spread.
        let stats = Arc::new(SharedServeStats::default());
        let cache = PredictionCache::new(256, 8, Arc::clone(&stats));
        assert_eq!(cache.num_shards(), 8);
        for v in 0..32 {
            cache.insert(key_of(v as f64), arc_field(v as f64));
        }
        assert_eq!(cache.len(), 32);
        assert_eq!(stats.snapshot().cache_evictions, 0);
        // Keys spread over more than one shard (integer-valued fields differ
        // only in high bits; the digest's avalanche spreads them).
        let occupied = cache.shard_stats().iter().filter(|s| s.len > 0).count();
        assert!(occupied > 1, "all 32 keys landed in one shard");
        // Hits count on the right shard.
        assert!(cache.get(&key_of(3.0)).is_some());
        assert!(cache.get(&key_of(999.0)).is_none());
        let shard_hits: u64 = cache.shard_stats().iter().map(|s| s.hits).sum();
        let shard_misses: u64 = cache.shard_stats().iter().map(|s| s.misses).sum();
        assert_eq!(shard_hits, 1);
        assert_eq!(shard_misses, 1);
        assert_eq!(stats.snapshot().cache_hits, 1);
        assert_eq!(stats.snapshot().cache_misses, 1);
        // Total shard capacity equals the requested capacity.
        let total: usize = cache.shard_stats().iter().map(|s| s.capacity).sum();
        assert_eq!(total, 256);
    }

    #[test]
    fn digest_collisions_stay_distinct_entries_of_one_shard() {
        let twin = |w: u64| CacheKey {
            digest: 7,
            physics: 0,
            body: KeyBody::Omega(vec![w]),
        };
        let (a, b) = (twin(1), twin(2));
        assert_ne!(a, b);
        let stats = Arc::new(SharedServeStats::default());
        let cache = PredictionCache::new(8, 4, stats);
        cache.insert(a.clone(), arc_field(1.0));
        cache.insert(b.clone(), arc_field(2.0));
        let lens: Vec<usize> = cache.shard_stats().iter().map(|s| s.len).collect();
        assert_eq!(lens, [0, 0, 0, 2], "both keys in shard 7 % 4, apart");
        for (key, v) in [(a, 1.0), (b, 2.0)] {
            let hit = cache.get(&key).expect("each twin keeps its entry");
            assert_eq!(hit.as_slice(), &[v; 4]);
        }
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let stats = Arc::new(SharedServeStats::default());
        let cache = PredictionCache::new(0, 0, stats);
        cache.insert(key_of(1.0), arc_field(1.0));
        assert_eq!(cache.len(), 0);
        assert!(cache.get(&key_of(1.0)).is_none());
    }

    #[test]
    fn auto_shards_scale_with_capacity() {
        assert_eq!(PredictionCache::auto_shards(0), 1);
        assert_eq!(PredictionCache::auto_shards(2), 1);
        assert_eq!(PredictionCache::auto_shards(64), 8);
        assert_eq!(PredictionCache::auto_shards(10_000), 8);
        // More shards than entries degrades to one entry per shard, never
        // to zero-capacity shards that would silently drop inserts.
        let stats = Arc::new(SharedServeStats::default());
        let cache = PredictionCache::new(4, 16, stats);
        assert_eq!(cache.num_shards(), 4);
        assert!(cache.shard_stats().iter().all(|s| s.capacity == 1));
    }

    #[allow(clippy::disallowed_methods)] // test: concurrent cache readers
    #[test]
    fn concurrent_cache_access_is_safe() {
        let stats = Arc::new(SharedServeStats::default());
        let cache = Arc::new(PredictionCache::new(64, 8, Arc::clone(&stats)));
        std::thread::scope(|s| {
            for t in 0..4 {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    for i in 0..100 {
                        let v = ((t * 100 + i) % 40) as f64;
                        if cache.get(&key_of(v)).is_none() {
                            cache.insert(key_of(v), arc_field(v));
                        }
                    }
                });
            }
        });
        let s = stats.snapshot();
        assert_eq!(s.cache_hits + s.cache_misses, 400, "every probe counted");
        assert!(cache.len() <= 64);
    }
}
