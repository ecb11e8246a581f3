//! The one place compute threads fork.
//!
//! [`par_jobs`] / [`par_jobs_with`] run a number of jobs on one
//! process-wide pool: the calling thread and up to one parked helper per
//! further core pull job indices from a shared cursor. The helpers are
//! started once, on the first fork, and then woken per call, so a fork
//! costs a wake-up rather than a thread spawn. Every concurrent caller
//! (training ranks, slab ranks, serve workers) shares the same helpers; a
//! helper that finishes one caller's jobs joins the next caller's fork. A
//! `par_jobs` call made inside a job runs inline on that job's thread.
//!
//! Every other function here is built on them: [`par_chunks`] hands each job
//! a disjoint piece of an output slice, and [`SyncSlice`] is the
//! raw-pointer wrapper for the disjoint writes that are not one contiguous
//! piece per job.
//!
//! The `maybe_par_*` helpers are size-gated item loops. Below
//! [`crate::PAR_THRESHOLD`] touched elements, or below a floor of 512
//! items, they run on the calling thread as plain sequential loops. Above
//! it they cut `0..n` into at most 64 fixed, contiguous blocks whose
//! boundaries depend only on `n`, never on the worker count. Reductions
//! ([`maybe_par_sum`], [`maybe_par_dot`], [`maybe_par_sum_map`]) add the
//! block partials in block order, so every result is bitwise independent
//! of the worker count. They take any [`Element`] and accumulate in `f64`
//! (an identity widening for `f64` itself).

use crate::element::Element;
use crate::PAR_THRESHOLD;
use std::any::Any;
use std::cell::Cell;
use std::marker::PhantomData;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::LocalKey;
use std::time::{Duration, Instant};

/// Item loops shorter than this stay on the calling thread, whatever their
/// work hint. It keeps `maybe_par_for` over a batch's samples, the
/// per-sample loss map and the colour sweeps of coarse grids sequential.
/// Re-measured against the pool on a 2-core x86-64 VM, the floor no longer
/// pays for itself in isolation: a 64–511-item loop at the
/// [`PAR_THRESHOLD`] work product runs forked in about 0.6× its one-core
/// time. It stays because some of those loops fork again inside each item
/// (the per-sample loss map's energy sums), and an inner fork runs inline
/// once the outer loop forks; no workload has measured that trade.
const MIN_PAR_LEN: usize = 512;

/// Most blocks a size-gated item loop is cut into (and the length of the
/// stack array its reductions keep one partial per block in).
const MAX_BLOCKS: usize = 64;

thread_local! {
    /// Worker count forced by [`with_threads`] on this thread (0: one per
    /// core).
    static THREADS: Cell<usize> = const { Cell::new(0) };
    /// Set while this thread runs jobs of a fork (always, on a pool
    /// helper): a fork made inside a job runs inline.
    static IN_JOB: Cell<bool> = const { Cell::new(false) };
}

/// Sets a thread-local cell until dropped, then restores its old value —
/// also when the scope unwinds.
struct Scoped<T: Copy + 'static> {
    key: &'static LocalKey<Cell<T>>,
    prev: T,
}

impl<T: Copy + 'static> Scoped<T> {
    fn set(key: &'static LocalKey<Cell<T>>, value: T) -> Self {
        let prev = key.with(|c| c.replace(value));
        Scoped { key, prev }
    }
}

impl<T: Copy + 'static> Drop for Scoped<T> {
    fn drop(&mut self) {
        self.key.with(|c| c.set(self.prev));
    }
}

/// Runs `f` with every [`par_jobs`] / [`par_jobs_with`] call it makes on
/// the calling thread that passes the size gate using at most `threads`
/// workers: the caller plus up to `threads − 1` pool helpers (0 restores
/// one per core). A test hook: it lets determinism tests compare results
/// across worker counts. The previous count is restored when `f` returns
/// or unwinds.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let _restore = Scoped::set(&THREADS, threads);
    f()
}

/// One worker per core, read once per process: `available_parallelism`
/// reads cgroup files, which costs more than a small parallel job.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Workers a fork of `jobs` jobs of `work_hint` touched elements each runs
/// on, the caller included (1: it runs inline).
fn workers(jobs: usize, work_hint: usize) -> usize {
    let small = jobs <= 1 || jobs.saturating_mul(work_hint.max(1)) < PAR_THRESHOLD;
    match THREADS.with(Cell::get) {
        _ if small || IN_JOB.with(Cell::get) => 1,
        0 => cores(),
        forced => forced,
    }
}

/// One fork in progress, on its caller's stack: the worker loop every
/// participant runs, the helpers inside it, and the first panic a helper
/// caught.
struct Fork<'a> {
    work: &'a (dyn Fn(bool) + Sync),
    /// Helpers running `work` (raised under the pool lock).
    inside: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// A fork that still takes helpers (at least one).
struct Open {
    fork: *const Fork<'static>,
    /// Helpers it still takes.
    want: usize,
}

// SAFETY: the pointer is only dereferenced by helpers that joined the fork
// under the pool lock, and its caller does not return before every one of
// them has left (`Fork::inside` back to 0).
unsafe impl Send for Open {}

/// What the pool lock guards: the forks open to helpers, oldest first,
/// and how many helpers are parked on [`Pool::wake`].
struct State {
    open: Vec<Open>,
    parked: usize,
}

/// The process-wide pool.
struct Pool {
    state: Mutex<State>,
    /// Parked helpers wait here for a fork.
    wake: Condvar,
    /// Callers wait here for their fork's helpers to leave.
    left: Condvar,
    /// Forks opened so far, which an idle helper watches while it spins.
    opened: AtomicUsize,
    /// Callers asleep on [`Pool::left`].
    sleepers: AtomicUsize,
}

static POOL: Pool = Pool {
    state: Mutex::new(State {
        open: Vec::new(),
        parked: 0,
    }),
    wake: Condvar::new(),
    left: Condvar::new(),
    opened: AtomicUsize::new(0),
    sleepers: AtomicUsize::new(0),
};

/// How long an idle helper, or a caller whose helpers are still inside its
/// fork, spins before it sleeps on a condvar. Solver sweeps fork back to
/// back, microseconds apart, and waking a parked thread takes longer than
/// that.
const SPIN: Duration = Duration::from_micros(50);

/// Spins until `done()` holds or [`SPIN`] has passed; returns `done()`.
fn spin_until(done: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    loop {
        for _ in 0..64 {
            if done() {
                return true;
            }
            std::hint::spin_loop();
        }
        if start.elapsed() >= SPIN {
            return done();
        }
    }
}

/// The pool lock. Nothing panics while it is held, so a poisoned lock
/// still guards a consistent state.
fn lock() -> MutexGuard<'static, State> {
    POOL.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Waits on `cv`, recovering a poisoned lock as [`lock`] does.
fn wait<'a>(cv: &Condvar, st: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
    cv.wait(st).unwrap_or_else(PoisonError::into_inner)
}

/// Helpers in the pool, started on first use: one per core beyond the
/// first, and at least one so that a forced worker count forks on a
/// single core too.
fn helpers() -> usize {
    static HELPERS: OnceLock<usize> = OnceLock::new();
    *HELPERS.get_or_init(|| {
        (0..cores().max(2) - 1)
            .take_while(|i| {
                #[allow(clippy::disallowed_methods)] // the pool's one lazy start
                let spawned = std::thread::Builder::new()
                    .name(format!("mgd-par-{i}"))
                    .spawn(helper);
                spawned.is_ok()
            })
            .count()
    })
}

/// A pool helper's life: join the oldest open fork, run its worker loop
/// until its cursor is exhausted, leave, repeat; when none is open, spin
/// briefly for the next one, then park.
fn helper() {
    IN_JOB.with(|c| c.set(true));
    loop {
        let seen = POOL.opened.load(Ordering::Acquire);
        let mut st = lock();
        let Some(open) = st.open.first_mut() else {
            drop(st);
            if spin_until(|| POOL.opened.load(Ordering::Acquire) != seen) {
                continue;
            }
            let mut st = lock();
            if st.open.is_empty() {
                st.parked += 1;
                st = wait(&POOL.wake, st);
                st.parked -= 1;
            }
            continue;
        };
        // SAFETY: see `Open`; this helper is counted inside before the
        // lock is released.
        let fork = unsafe { &*open.fork };
        open.want -= 1;
        if open.want == 0 {
            st.open.remove(0);
        }
        fork.inside.fetch_add(1, Ordering::Relaxed);
        drop(st);
        if let Err(p) = catch_unwind(AssertUnwindSafe(|| (fork.work)(true))) {
            let mut first = fork.panic.lock().unwrap_or_else(PoisonError::into_inner);
            first.get_or_insert(p);
        }
        // The caller may free `fork` as soon as this count reaches 0. A
        // caller counts itself a sleeper before its last look at the
        // count, so one of the two sees the other; taking the lock waits
        // until a sleeping caller is inside `wait`.
        if fork.inside.fetch_sub(1, Ordering::SeqCst) == 1
            && POOL.sleepers.load(Ordering::SeqCst) > 0
        {
            let _st = lock();
            POOL.left.notify_all();
        }
    }
}

/// Runs `jobs` coarse-grained tasks on the process-wide worker pool.
///
/// The calling thread and up to `min(jobs, cores) − 1` pool helpers pull
/// job indices from a shared atomic cursor, the caller from its front and
/// the helpers from its back — the right shape for a handful of heavy,
/// possibly imbalanced tasks such as GEMM column panels. Runs as
/// a sequential loop on the caller when `jobs <= 1`, when `jobs *
/// work_hint` (an estimate of total element touches) is below
/// [`PAR_THRESHOLD`], or when called from inside another fork's job. A
/// panicking job is re-raised on the caller once every helper has left
/// the fork.
///
/// Which worker runs which job is nondeterministic; callers must make jobs
/// write disjoint outputs (each with a fixed internal order) so results stay
/// bitwise deterministic regardless of scheduling.
pub fn par_jobs<F: Fn(usize) + Sync>(jobs: usize, work_hint: usize, f: F) {
    par_jobs_with(jobs, work_hint, || (), |(), j| f(j));
}

/// [`par_jobs`] with per-worker scratch state.
///
/// `init` runs at most once per participating worker, before its first
/// job (and once for the sequential fallback); the resulting state is
/// threaded through every job that worker executes, so expensive scratch
/// buffers are allocated `O(cores)` times instead of `O(jobs)` times.
pub fn par_jobs_with<S, I, F>(jobs: usize, work_hint: usize, init: I, f: F)
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) + Sync,
{
    let threads = workers(jobs, work_hint);
    let want = threads.min(jobs).saturating_sub(1);
    if want == 0 || helpers() == 0 {
        let mut state = init();
        for j in 0..jobs {
            f(&mut state, j);
        }
        return;
    }
    // Jobs taken from the front (low half) and from the back (high half).
    // The caller takes from the front and helpers from the back, so the
    // caller keeps the leading jobs from call to call and their data stays
    // in its core's cache across the sweeps of a solve.
    assert!(jobs < 1 << 31, "{jobs} jobs");
    let cursor = AtomicU64::new(0);
    let work = |back: bool| {
        let mut state = None;
        loop {
            let taken = cursor.fetch_add(if back { 1 << 32 } else { 1 }, Ordering::Relaxed);
            let (front, behind) = ((taken & 0xffff_ffff) as usize, (taken >> 32) as usize);
            if front + behind >= jobs {
                break;
            }
            let j = if back { jobs - 1 - behind } else { front };
            f(state.get_or_insert_with(&init), j);
        }
    };
    let fork = Fork {
        work: &work,
        inside: AtomicUsize::new(0),
        panic: Mutex::new(None),
    };
    let ptr = std::ptr::from_ref(&fork).cast::<Fork<'static>>();
    let parked = {
        let mut st = lock();
        st.open.push(Open { fork: ptr, want });
        st.parked
    };
    POOL.opened.fetch_add(1, Ordering::Release);
    for _ in 0..want.min(parked) {
        POOL.wake.notify_one();
    }
    let mine = {
        let _in_job = Scoped::set(&IN_JOB, true);
        catch_unwind(AssertUnwindSafe(|| work(false)))
    };
    lock().open.retain(|o| !std::ptr::eq(o.fork, ptr));
    let gone = || fork.inside.load(Ordering::SeqCst) == 0;
    if !spin_until(gone) {
        let mut st = lock();
        POOL.sleepers.fetch_add(1, Ordering::SeqCst);
        while !gone() {
            st = wait(&POOL.left, st);
        }
        POOL.sleepers.fetch_sub(1, Ordering::SeqCst);
    }
    let theirs = fork
        .panic
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(p) = mine.err().or(theirs) {
        resume_unwind(p);
    }
}

/// Cuts `out` into `chunk`-long pieces (the last may be shorter) and runs
/// `f(i, piece i)` for each, one [`par_jobs`] job per piece, in parallel
/// when `work_hint` per piece is large. Every element belongs to exactly
/// one job.
pub fn par_chunks<T: Send>(
    out: &mut [T],
    chunk: usize,
    work_hint: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    let len = out.len();
    let sync = SyncSlice::new(out);
    par_jobs(len.div_ceil(chunk), work_hint, |b| {
        // SAFETY: job `b` is the only one touching [b·chunk, (b+1)·chunk)
        // (clipped to `len`), and runs once.
        f(b, unsafe {
            sync.slice_mut(b * chunk, chunk.min(len - b * chunk))
        });
    });
}

/// Shared mutable slice for provably disjoint writes from parallel jobs.
pub struct SyncSlice<'a, T = f64> {
    ptr: *mut T,
    len: usize,
    _marker: PhantomData<&'a mut [T]>,
}

// SAFETY: the only field is a pointer into a `&'a mut [T]` borrow; callers
// only write through disjoint index sets (one block, row, channel or
// element colour per job), so sharing it across threads moves `T` values
// between threads — hence `T: Send`.
unsafe impl<T: Send> Send for SyncSlice<'_, T> {}
unsafe impl<T: Send> Sync for SyncSlice<'_, T> {}

impl<'a, T> SyncSlice<'a, T> {
    /// Wraps a mutable slice.
    pub fn new(data: &'a mut [T]) -> Self {
        SyncSlice {
            ptr: data.as_mut_ptr(),
            len: data.len(),
            _marker: PhantomData,
        }
    }

    /// The wrapped slice's base pointer, for disjoint writes that are not
    /// one contiguous range (such as a column block of a row-major matrix).
    #[inline]
    pub fn as_mut_ptr(&self) -> *mut T {
        self.ptr
    }

    /// Adds `v` at index `i`.
    ///
    /// # Safety
    /// Concurrent callers must target disjoint index sets (e.g. by writing
    /// only within one color class of an element coloring).
    #[inline]
    pub unsafe fn add(&self, i: usize, v: T)
    where
        T: std::ops::AddAssign,
    {
        debug_assert!(i < self.len);
        *self.ptr.add(i) += v;
    }

    /// Stores `v` at index `i`.
    ///
    /// # Safety
    /// Concurrent callers must target disjoint index sets, and `i` must be
    /// in bounds (checked only in debug builds).
    #[inline]
    pub unsafe fn set(&self, i: usize, v: T) {
        debug_assert!(i < self.len);
        *self.ptr.add(i) = v;
    }

    /// The sub-slice `[start, start + len)` (bounds are checked).
    ///
    /// # Safety
    /// No other live reference — from this call or any other — may overlap
    /// the returned range while it is alive.
    #[allow(clippy::mut_from_ref)]
    #[inline]
    pub unsafe fn slice_mut(&self, start: usize, len: usize) -> &'a mut [T] {
        assert!(start <= self.len && len <= self.len - start);
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }
}

/// Block length of an `n`-item loop touching `work_hint` elements per
/// item, or `None` when the loop stays on the calling thread.
fn block_len(n: usize, work_hint: usize) -> Option<usize> {
    let fork = n >= MIN_PAR_LEN && n.saturating_mul(work_hint.max(1)) >= PAR_THRESHOLD;
    fork.then(|| n.div_ceil(MAX_BLOCKS))
}

/// Items of block `b` when `0..n` is cut into `bl`-long blocks.
fn block(b: usize, bl: usize, n: usize) -> Range<usize> {
    b * bl..(b * bl + bl).min(n)
}

/// Runs `f(i0, items)` over `out` read as `piece`-long items: once over all
/// of `out` below the size gate, else once per fixed block of whole items
/// (`i0` is the block's first item).
fn gated_blocks<T: Send>(
    out: &mut [T],
    piece: usize,
    work_hint: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    match block_len(out.len() / piece, work_hint) {
        None => f(0, out),
        Some(bl) => par_chunks(out, bl * piece, PAR_THRESHOLD, |b, c| f(b * bl, c)),
    }
}

/// Sum of `f(block)` over the fixed blocks of an `n`-item loop, partials
/// added in block order; one call `f(0..n)` below the size gate.
fn sum_blocks(n: usize, work_hint: usize, f: impl Fn(Range<usize>) -> f64 + Sync) -> f64 {
    let Some(bl) = block_len(n, work_hint) else {
        return f(0..n);
    };
    let mut part = [0.0f64; MAX_BLOCKS];
    let nb = n.div_ceil(bl);
    par_chunks(&mut part[..nb], 1, PAR_THRESHOLD, |b, p| {
        p[0] = f(block(b, bl, n))
    });
    part[..nb].iter().sum()
}

/// In-place elementwise map, parallel for large slices.
pub fn maybe_par_map_inplace<T, F>(data: &mut [T], f: &F)
where
    T: Copy + Send + Sync,
    F: Fn(T) -> T + Sync,
{
    gated_blocks(data, 1, 1, |_, c| c.iter_mut().for_each(|x| *x = f(*x)));
}

/// Elementwise binary op `out[i] = f(a[i], b[i])`, parallel for large slices.
pub fn maybe_par_zip_map<T, F>(a: &[T], b: &[T], out: &mut [T], f: &F)
where
    T: Copy + Send + Sync,
    F: Fn(T, T) -> T + Sync,
{
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len(), out.len());
    gated_blocks(out, 1, 1, |i0, o| {
        let ab = a[i0..].iter().zip(&b[i0..]);
        for (o, (&x, &y)) in o.iter_mut().zip(ab) {
            *o = f(x, y);
        }
    });
}

/// In-place binary op `a[i] = f(a[i], b[i])`, parallel for large slices.
pub fn maybe_par_zip_inplace<T, F>(a: &mut [T], b: &[T], f: &F)
where
    T: Copy + Send + Sync,
    F: Fn(T, T) -> T + Sync,
{
    assert_eq!(a.len(), b.len());
    gated_blocks(a, 1, 1, |i0, c| {
        for (x, &y) in c.iter_mut().zip(&b[i0..]) {
            *x = f(*x, y);
        }
    });
}

/// Sum accumulated in `f64`, bitwise independent of the worker count.
pub fn maybe_par_sum<E: Element>(data: &[E]) -> f64 {
    sum_blocks(data.len(), 1, |r| data[r].iter().map(|x| x.to_f64()).sum())
}

/// Dot product accumulated in `f64`, bitwise independent of the worker
/// count.
pub fn maybe_par_dot<E: Element>(a: &[E], b: &[E]) -> f64 {
    assert_eq!(a.len(), b.len());
    sum_blocks(a.len(), 1, |r| {
        a[r.clone()]
            .iter()
            .zip(&b[r])
            .map(|(&x, &y)| x.to_f64() * y.to_f64())
            .sum()
    })
}

/// `Σ f(i)` over `0..n`, in parallel when the product with `work_hint` is
/// large; bitwise independent of the worker count.
pub fn maybe_par_sum_map<F: Fn(usize) -> f64 + Sync>(n: usize, work_hint: usize, f: F) -> f64 {
    sum_blocks(n, work_hint, |r| r.map(&f).sum())
}

/// Runs `f(i)` for every `i in 0..n`, in parallel when `n * work_hint` is
/// large. `work_hint` approximates the per-iteration element count so loops
/// over few-but-heavy items still parallelize once there are enough items.
pub fn maybe_par_for<F: Fn(usize) + Sync>(n: usize, work_hint: usize, f: F) {
    match block_len(n, work_hint) {
        None => (0..n).for_each(f),
        Some(bl) => par_jobs(n.div_ceil(bl), PAR_THRESHOLD, |b| {
            block(b, bl, n).for_each(&f)
        }),
    }
}

/// Runs `f(i, row i)` for every `row_len`-long row of `out`, forking
/// exactly as [`maybe_par_for`] over the rows with `row_len` as work hint.
pub fn maybe_par_rows<T: Send>(out: &mut [T], row_len: usize, f: impl Fn(usize, &mut [T]) + Sync) {
    if row_len == 0 {
        return;
    }
    gated_blocks(out, row_len, row_len, |i0, rows| {
        for (k, row) in rows.chunks_mut(row_len).enumerate() {
            f(i0 + k, row);
        }
    });
}

/// Maps `0..n` to values, in parallel when the product with `work_hint` is
/// large, preserving index order in the output.
pub fn maybe_par_map_collect<T: Send, F: Fn(usize) -> T + Sync>(
    n: usize,
    work_hint: usize,
    f: F,
) -> Vec<T> {
    let Some(bl) = block_len(n, work_hint) else {
        return (0..n).map(f).collect();
    };
    let mut parts: Vec<Vec<T>> = (0..n.div_ceil(bl)).map(|_| Vec::new()).collect();
    par_chunks(&mut parts, 1, PAR_THRESHOLD, |b, p| {
        p[0] = block(b, bl, n).map(&f).collect()
    });
    parts.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    /// `f()` under 1, 2 and 4 workers, asserting all three agree.
    fn same_at_any_worker_count<R: PartialEq + std::fmt::Debug>(f: impl Fn() -> R) -> R {
        let one = with_threads(1, &f);
        for threads in [2, 4] {
            assert_eq!(with_threads(threads, &f), one, "{threads} workers");
        }
        one
    }

    /// Values whose f64 sum depends on the order it is taken in.
    fn ragged(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 7919) % 1013) as f64 * 1e-3 + 1e8 * (i % 3) as f64)
            .collect()
    }

    #[test]
    fn zip_map_small_and_large() {
        for n in [8usize, PAR_THRESHOLD + 1] {
            let a: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let b: Vec<f64> = (0..n).map(|i| 2.0 * i as f64).collect();
            let mut out = vec![0.0; n];
            maybe_par_zip_map(&a, &b, &mut out, &|x, y| x + y);
            for i in 0..n {
                assert_eq!(out[i], 3.0 * i as f64);
            }
            let mut inplace = a.clone();
            maybe_par_zip_inplace(&mut inplace, &b, &|x, y| x + y);
            assert_eq!(inplace, out);
            maybe_par_map_inplace(&mut inplace, &|x| x / 3.0);
            assert_eq!(inplace, a);
        }
    }

    #[test]
    fn sum_and_dot_agree_with_serial() {
        let n = PAR_THRESHOLD + 13;
        let a: Vec<f64> = (0..n).map(|i| (i % 17) as f64).collect();
        let serial: f64 = a.iter().sum();
        assert!((maybe_par_sum(&a) - serial).abs() < 1e-9);
        let dot_serial: f64 = a.iter().map(|x| x * x).sum();
        assert!((maybe_par_dot(&a, &a) - dot_serial).abs() < 1e-6);
    }

    #[test]
    fn f32_reductions_widen_to_f64() {
        let n = PAR_THRESHOLD + 5;
        let a: Vec<f32> = (0..n).map(|i| (i % 7) as f32).collect();
        let want: f64 = a.iter().map(|&x| f64::from(x)).sum();
        assert_eq!(maybe_par_sum(&a), want);
        let want_dot: f64 = a.iter().map(|&x| f64::from(x) * f64::from(x)).sum();
        assert_eq!(maybe_par_dot(&a, &a), want_dot);
    }

    #[test]
    fn small_reductions_are_plain_sequential_sums() {
        let a = ragged(1000);
        assert_eq!(maybe_par_sum(&a), a.iter().sum::<f64>());
        let dot: f64 = a.iter().map(|x| x * x).sum();
        assert_eq!(maybe_par_dot(&a, &a), dot);
    }

    #[test]
    fn reductions_are_bitwise_independent_of_worker_count() {
        let a = ragged(PAR_THRESHOLD * 3 + 17);
        let b: Vec<f64> = a.iter().rev().copied().collect();
        let sum = same_at_any_worker_count(|| maybe_par_sum(&a).to_bits());
        assert_ne!(
            sum,
            a.iter().sum::<f64>().to_bits(),
            "order must matter here"
        );
        same_at_any_worker_count(|| maybe_par_dot(&a, &b).to_bits());
        same_at_any_worker_count(|| maybe_par_sum_map(a.len(), 1, |i| a[i].sin()).to_bits());
        // Few heavy items fork too once there are enough of them.
        same_at_any_worker_count(|| maybe_par_sum_map(600, 64, |i| a[i] * 0.1).to_bits());
    }

    #[test]
    fn collect_and_chunks_are_independent_of_worker_count() {
        let v = same_at_any_worker_count(|| maybe_par_map_collect(10_000, 4, |i| i * 2));
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 2));
        let rows = same_at_any_worker_count(|| {
            let mut out = vec![0usize; 700 * 33];
            maybe_par_rows(&mut out, 33, |r, row| {
                row.iter_mut()
                    .enumerate()
                    .for_each(|(c, x)| *x = r * 33 + c)
            });
            out
        });
        assert!(rows.iter().enumerate().all(|(i, &x)| x == i));
        let chunks = same_at_any_worker_count(|| {
            let mut out = vec![0usize; 1000];
            par_chunks(&mut out, 37, PAR_THRESHOLD, |b, c| c.fill(b));
            out
        });
        assert!(chunks.iter().enumerate().all(|(i, &b)| b == i / 37));
    }

    #[test]
    fn map_collect_preserves_order() {
        for n in [100, 10_000] {
            let v = maybe_par_map_collect(n, PAR_THRESHOLD, |i| i * i);
            assert!(v.iter().enumerate().all(|(i, &x)| x == i * i));
        }
        // Owned, non-`Copy` items keep their order too.
        let rows: Vec<String> = (0..1000).map(|i| format!("r{i}")).collect();
        let lens = maybe_par_map_collect(rows.len(), PAR_THRESHOLD, |i| rows[i].clone() + "!");
        let want: Vec<String> = rows.iter().map(|s| s.clone() + "!").collect();
        assert_eq!(lens, want);
    }

    /// Spins until `flag` is set; fails instead of hanging when it never is.
    fn wait_for(flag: &AtomicBool) {
        let start = Instant::now();
        while !flag.load(Ordering::Acquire) {
            assert!(start.elapsed().as_secs() < 60, "no pool helper joined");
            std::thread::yield_now();
        }
    }

    #[test]
    fn short_item_loops_stay_on_the_calling_thread() {
        let me = std::thread::current().id();
        // A heavy hint does not fork a loop below the 512-item floor...
        let seen = Mutex::new(Vec::new());
        with_threads(4, || {
            maybe_par_for(511, PAR_THRESHOLD, |_| {
                seen.lock().unwrap().push(std::thread::current().id())
            })
        });
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 511);
        assert!(seen.iter().all(|&t| t == me));
        // ...while one at the floor reaches a pool helper: the caller's
        // items wait until a helper has run one, so this cannot pass by luck
        // or hang on a loop that stayed serial.
        let helped = AtomicBool::new(false);
        with_threads(2, || {
            maybe_par_for(512, PAR_THRESHOLD, |_| {
                if std::thread::current().id() == me {
                    wait_for(&helped);
                } else {
                    helped.store(true, Ordering::Release);
                }
            })
        });
    }

    #[test]
    fn a_job_panic_on_a_helper_is_raised_on_the_caller() {
        let me = std::thread::current().id();
        let helper_ran = AtomicBool::new(false);
        let caught = catch_unwind(|| {
            with_threads(2, || {
                par_jobs(2, PAR_THRESHOLD, |_| {
                    if std::thread::current().id() == me {
                        wait_for(&helper_ran);
                    } else {
                        helper_ran.store(true, Ordering::Release);
                        panic!("job panic on a helper");
                    }
                })
            })
        });
        let payload = caught.expect_err("the helper's panic reaches the caller");
        assert_eq!(payload.downcast_ref(), Some(&"job panic on a helper"));
        // The pool survives: the next fork returns the serial bits.
        let a = ragged(PAR_THRESHOLD * 3 + 17);
        same_at_any_worker_count(|| maybe_par_sum(&a).to_bits());
    }

    #[test]
    fn a_caught_panic_restores_the_worker_count() {
        let default = workers(64, PAR_THRESHOLD);
        assert_eq!(default, cores());
        let caught = catch_unwind(|| with_threads(4, || panic!("inside with_threads")));
        assert!(caught.is_err());
        assert_eq!(workers(64, PAR_THRESHOLD), default, "count left forced");
        // A job that panics on the caller leaves the caller outside any job.
        let caught = catch_unwind(|| {
            with_threads(2, || par_jobs(2, PAR_THRESHOLD, |_| panic!("every job")))
        });
        assert!(caught.is_err());
        assert_eq!(workers(64, PAR_THRESHOLD), default, "caller left in a job");
    }

    #[test]
    fn nested_and_concurrent_forks_give_the_serial_bits() {
        let a = ragged(PAR_THRESHOLD * 2 + 5);
        // Eight forked jobs, each making a forked reduction of its own,
        // which runs inline.
        let nested = || {
            let mut out = vec![0u64; 8];
            par_chunks(&mut out, 1, PAR_THRESHOLD, |j, o| {
                assert_eq!(workers(64, PAR_THRESHOLD), 1, "a job's fork runs inline");
                o[0] = maybe_par_sum_map(a.len(), 1, |i| a[i] * (j + 1) as f64).to_bits();
            });
            out
        };
        let want = same_at_any_worker_count(nested);
        // Two callers forking at once share the pool's helpers.
        #[allow(clippy::disallowed_methods)] // the test's two concurrent callers
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..50 {
                        assert_eq!(with_threads(2, nested), want);
                    }
                });
            }
        });
    }

    #[test]
    fn par_for_covers_all_indices() {
        let n = 1000;
        let count = AtomicUsize::new(0);
        maybe_par_for(n, PAR_THRESHOLD, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), n);
    }

    #[test]
    fn par_jobs_covers_all_indices() {
        for jobs in [0usize, 1, 3, 17] {
            let count = AtomicUsize::new(0);
            par_jobs(jobs, PAR_THRESHOLD, |_| {
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), jobs);
        }
    }

    #[test]
    fn par_jobs_with_runs_every_job_once() {
        let n = 37;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        par_jobs_with(
            n,
            PAR_THRESHOLD,
            || 0usize,
            |local, j| {
                *local += 1;
                hits[j].fetch_add(1, Ordering::Relaxed);
            },
        );
        for h in &hits {
            assert_eq!(h.load(Ordering::Relaxed), 1);
        }
    }
}
