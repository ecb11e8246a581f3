//! Size-gated parallel helpers.
//!
//! Every kernel here has a sequential fast path below
//! [`crate::PAR_THRESHOLD`] elements: coarse multigrid levels and unit tests
//! operate on tensors where rayon's fork-join overhead would dominate.
//!
//! Elementwise helpers are generic over any `Copy` item; the reductions
//! ([`maybe_par_sum`], [`maybe_par_dot`]) take any [`Element`] and
//! accumulate in `f64` (an identity widening for `f64` itself, so the
//! historical behavior is unchanged).

use crate::element::Element;
use crate::PAR_THRESHOLD;
use rayon::prelude::*;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

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

/// In-place elementwise map, parallel for large slices.
pub fn maybe_par_map_inplace<T, F>(data: &mut [T], f: &F)
where
    T: Copy + Send + Sync,
    F: Fn(T) -> T + Sync,
{
    if data.len() >= PAR_THRESHOLD {
        data.par_iter_mut().for_each(|x| *x = f(*x));
    } else {
        data.iter_mut().for_each(|x| *x = f(*x));
    }
}

/// Elementwise binary op `out[i] = f(a[i], b[i])`, parallel for large slices.
pub fn maybe_par_zip_map<T, F>(a: &[T], b: &[T], out: &mut [T], f: &F)
where
    T: Copy + Send + Sync,
    F: Fn(T, T) -> T + Sync,
{
    assert_eq!(a.len(), b.len());
    assert_eq!(a.len(), out.len());
    if a.len() >= PAR_THRESHOLD {
        out.par_iter_mut()
            .zip(a.par_iter().zip(b.par_iter()))
            .for_each(|(o, (&x, &y))| *o = f(x, y));
    } else {
        for i in 0..a.len() {
            out[i] = f(a[i], b[i]);
        }
    }
}

/// In-place binary op `a[i] = f(a[i], b[i])`, parallel for large slices.
pub fn maybe_par_zip_inplace<T, F>(a: &mut [T], b: &[T], f: &F)
where
    T: Copy + Send + Sync,
    F: Fn(T, T) -> T + Sync,
{
    assert_eq!(a.len(), b.len());
    if a.len() >= PAR_THRESHOLD {
        a.par_iter_mut()
            .zip(b.par_iter())
            .for_each(|(x, &y)| *x = f(*x, y));
    } else {
        for i in 0..a.len() {
            a[i] = f(a[i], b[i]);
        }
    }
}

/// Parallel sum accumulated in `f64`, with a deterministic sequential
/// fallback.
pub fn maybe_par_sum<E: Element>(data: &[E]) -> f64 {
    if data.len() >= PAR_THRESHOLD {
        data.par_iter().map(|x| x.to_f64()).sum()
    } else {
        data.iter().map(|x| x.to_f64()).sum()
    }
}

/// Parallel dot product accumulated in `f64`, with a sequential fallback.
pub fn maybe_par_dot<E: Element>(a: &[E], b: &[E]) -> f64 {
    assert_eq!(a.len(), b.len());
    if a.len() >= PAR_THRESHOLD {
        a.par_iter()
            .zip(b.par_iter())
            .map(|(&x, &y)| x.to_f64() * y.to_f64())
            .sum()
    } else {
        a.iter()
            .zip(b.iter())
            .map(|(&x, &y)| x.to_f64() * y.to_f64())
            .sum()
    }
}

/// Runs `f(i)` for every `i in 0..n`, in parallel when `n * work_hint` is
/// large. `work_hint` approximates the per-iteration element count so loops
/// over few-but-heavy items (e.g. batch samples) still parallelize.
pub fn maybe_par_for<F: Fn(usize) + Sync + Send>(n: usize, work_hint: usize, f: F) {
    if n.saturating_mul(work_hint.max(1)) >= PAR_THRESHOLD && n > 1 {
        (0..n).into_par_iter().for_each(&f);
    } else {
        for i in 0..n {
            f(i);
        }
    }
}

/// Runs `jobs` coarse-grained tasks on a dynamically scheduled worker pool.
///
/// Unlike [`maybe_par_for`] (which hands contiguous index ranges to a fixed
/// set of threads and therefore only pays off for *many* uniform items),
/// this spawns up to `min(jobs, cores)` workers that pull job indices from a
/// shared atomic cursor — the right shape for a handful of heavy,
/// possibly imbalanced tasks such as GEMM column panels. Falls back to a
/// sequential loop when `jobs <= 1`, the machine has one core, or
/// `jobs * work_hint` (an estimate of total element touches) is below
/// [`PAR_THRESHOLD`].
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
    // Size gate first: `available_parallelism` reads cgroup limits from the
    // filesystem, which costs more than a small sequential job.
    let small = jobs <= 1 || jobs.saturating_mul(work_hint.max(1)) < PAR_THRESHOLD;
    let threads = match THREADS.with(Cell::get) {
        _ if small => 1,
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
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

/// Maps `0..n` to values, in parallel when the product with `work_hint` is
/// large, preserving index order in the output.
pub fn maybe_par_map_collect<T: Send, F: Fn(usize) -> T + Sync + Send>(
    n: usize,
    work_hint: usize,
    f: F,
) -> Vec<T> {
    if n.saturating_mul(work_hint.max(1)) >= PAR_THRESHOLD && n > 1 {
        (0..n).into_par_iter().map(f).collect()
    } else {
        (0..n).map(f).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn par_for_covers_all_indices() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = 1000;
        let count = AtomicUsize::new(0);
        maybe_par_for(n, PAR_THRESHOLD, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), n);
    }

    #[test]
    fn par_jobs_covers_all_indices() {
        use std::sync::atomic::{AtomicUsize, Ordering};
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
        use std::sync::atomic::{AtomicUsize, Ordering};
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

    #[test]
    fn map_collect_preserves_order() {
        let v = maybe_par_map_collect(100, PAR_THRESHOLD, |i| i * i);
        for (i, x) in v.iter().enumerate() {
            assert_eq!(*x, i * i);
        }
    }
}
