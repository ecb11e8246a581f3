//! The one place compute threads fork.
//!
//! [`par_jobs`] / [`par_jobs_with`] run a number of jobs on scoped worker
//! threads that pull job indices from a shared cursor. Every other helper
//! here is built on them: [`par_chunks`] hands each job a disjoint piece of
//! an output slice, and [`SyncSlice`] is the raw-pointer wrapper for the
//! disjoint writes that are not one contiguous piece per job.
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
use std::cell::Cell;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Item loops shorter than this stay on the calling thread, whatever their
/// work hint: a per-call thread spawn costs more than a few hundred items
/// save. This keeps `maybe_par_for` over a batch's samples, the per-sample
/// loss map and the colour sweeps of coarse grids sequential.
const MIN_PAR_LEN: usize = 512;

/// Most blocks a size-gated item loop is cut into (and the length of the
/// stack array its reductions keep one partial per block in).
const MAX_BLOCKS: usize = 64;

thread_local! {
    /// Worker count forced by [`with_threads`] on this thread (0: one per
    /// core).
    static THREADS: Cell<usize> = const { Cell::new(0) };
}

/// Runs `f` with every [`par_jobs`] / [`par_jobs_with`] call it makes on
/// the calling thread that passes the size gate using exactly `threads`
/// workers (0 restores one per core) — lets determinism tests compare
/// results across thread counts.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let prev = THREADS.with(|t| t.replace(threads));
    let out = f();
    THREADS.with(|t| t.set(prev));
    out
}

/// One worker per core, read once per process: `available_parallelism`
/// reads cgroup files, which costs more than a small parallel job.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs `jobs` coarse-grained tasks on a dynamically scheduled worker pool.
///
/// Spawns up to `min(jobs, cores)` workers that pull job indices from a
/// shared atomic cursor — the right shape for a handful of heavy, possibly
/// imbalanced tasks such as GEMM column panels. Falls back to a sequential
/// loop when `jobs <= 1`, the machine has one core, or `jobs * work_hint`
/// (an estimate of total element touches) is below [`PAR_THRESHOLD`].
///
/// Which worker runs which job is nondeterministic; callers must make jobs
/// write disjoint outputs (each with a fixed internal order) so results stay
/// bitwise deterministic regardless of scheduling.
pub fn par_jobs<F: Fn(usize) + Sync>(jobs: usize, work_hint: usize, f: F) {
    par_jobs_with(jobs, work_hint, || (), |(), j| f(j));
}

/// [`par_jobs`] with per-worker scratch state.
///
/// `init` runs once per worker (and once for the sequential fallback); the
/// resulting state is threaded through every job that worker executes, so
/// expensive scratch buffers are allocated `O(cores)` times instead of
/// `O(jobs)` times.
pub fn par_jobs_with<S, I, F>(jobs: usize, work_hint: usize, init: I, f: F)
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) + Sync,
{
    let small = jobs <= 1 || jobs.saturating_mul(work_hint.max(1)) < PAR_THRESHOLD;
    let threads = match THREADS.with(Cell::get) {
        _ if small => 1,
        0 => cores(),
        forced => forced,
    };
    if threads <= 1 {
        let mut state = init();
        for j in 0..jobs {
            f(&mut state, j);
        }
        return;
    }
    let cursor = AtomicUsize::new(0);
    #[allow(clippy::disallowed_methods)] // the sanctioned compute fork
    std::thread::scope(|scope| {
        for _ in 0..threads.min(jobs) {
            scope.spawn(|| {
                let mut state = init();
                loop {
                    let j = cursor.fetch_add(1, Ordering::Relaxed);
                    if j >= jobs {
                        break;
                    }
                    f(&mut state, j);
                }
            });
        }
    });
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

    #[test]
    fn short_item_loops_stay_on_the_calling_thread() {
        use std::sync::Mutex;
        let me = std::thread::current().id();
        let threads_of = |n: usize| {
            let seen = Mutex::new(Vec::new());
            with_threads(4, || {
                maybe_par_for(n, PAR_THRESHOLD, |_| {
                    seen.lock().unwrap().push(std::thread::current().id())
                })
            });
            let seen = seen.into_inner().unwrap();
            assert_eq!(seen.len(), n);
            seen
        };
        // A heavy hint does not fork a loop below the 512-item floor...
        assert!(threads_of(511).iter().all(|&t| t == me));
        // ...while one at the floor does.
        assert!(threads_of(512).iter().all(|&t| t != me));
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
