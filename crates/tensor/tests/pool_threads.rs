//! The worker pool starts its helpers once. This test has its own binary:
//! in a binary with other tests, the test harness starts a thread per
//! running test, which moves the process's thread count under it.

use mgd_tensor::par::{par_chunks, with_threads};
use mgd_tensor::PAR_THRESHOLD;

/// The `Threads:` line of `/proc/self/status`.
#[cfg(target_os = "linux")]
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"));
    line.unwrap().trim().parse().unwrap()
}

/// 10 000 forked calls neither spawn a thread per call nor leave one
/// behind.
#[cfg(target_os = "linux")]
#[test]
fn forked_calls_spawn_no_threads() {
    let mut out = vec![0u64; 1 << 16];
    let fork = |out: &mut [u64]| {
        with_threads(2, || {
            par_chunks(out, 1024, PAR_THRESHOLD, |b, c| c.fill(b as u64));
        })
    };
    fork(&mut out);
    let before = process_threads();
    for _ in 0..10_000 {
        fork(&mut out);
    }
    assert_eq!(process_threads(), before);
    assert!(out.iter().enumerate().all(|(i, &b)| b == (i / 1024) as u64));
}
