//! Open-loop Poisson load harness for [`ServeQueue`].
//!
//! The harness is *open-loop*: request arrival times are drawn from a
//! Poisson process up front and the submitter sticks to that schedule no
//! matter how the server is doing. This is the honest way to load-test a
//! queueing system — a closed loop (submit, wait, submit) silently slows
//! the offered load down whenever the server struggles, hiding exactly the
//! latency tail micro-batching is supposed to fix (coordinated omission).
//!
//! Latency for each request is `completion − scheduled_arrival`, with the
//! completion instant stamped by the serving worker
//! ([`Ticket::wait_timed`](crate::Ticket::wait_timed)), so collecting
//! tickets out of completion order cannot skew the numbers. Requests
//! rejected by admission control are counted separately, not folded into
//! the latency distribution.

use crate::{InferenceRequest, ServeOptions, ServeQueue, SnapshotCell};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Latency distribution of one load-test run, in milliseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencySummary {
    /// Median latency.
    pub p50_ms: f64,
    /// 95th-percentile latency.
    pub p95_ms: f64,
    /// 99th-percentile latency.
    pub p99_ms: f64,
    /// Mean latency.
    pub mean_ms: f64,
    /// Worst observed latency.
    pub max_ms: f64,
}

impl LatencySummary {
    /// Summarizes a set of latencies (milliseconds). Empty input → zeros.
    pub fn of(latencies_ms: &mut [f64]) -> Self {
        if latencies_ms.is_empty() {
            return Self::default();
        }
        latencies_ms.sort_by(f64::total_cmp);
        let mean = latencies_ms.iter().sum::<f64>() / latencies_ms.len() as f64;
        LatencySummary {
            p50_ms: percentile(latencies_ms, 0.50),
            p95_ms: percentile(latencies_ms, 0.95),
            p99_ms: percentile(latencies_ms, 0.99),
            mean_ms: mean,
            max_ms: *latencies_ms.last().unwrap(),
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted slice; `p` in `[0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample");
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Draws `n` arrival offsets (from test start) of a Poisson process with
/// the given mean rate, via exponential inter-arrival gaps `−ln(U)/λ`.
pub fn poisson_arrivals(n: usize, rate_hz: f64, seed: u64) -> Vec<Duration> {
    assert!(rate_hz > 0.0, "arrival rate must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            // gen_range samples [0, 1); flip to (0, 1] so ln() is finite.
            let u: f64 = 1.0 - rng.gen_range(0.0..1.0);
            t += -u.ln() / rate_hz;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// Everything one load-test run produced.
#[derive(Clone, Copy, Debug)]
pub struct RunReport {
    /// Requests offered to the queue on the Poisson schedule.
    pub offered: usize,
    /// Requests answered successfully.
    pub completed: usize,
    /// Requests bounced by admission control (`QueueFull`).
    pub rejected: usize,
    /// Requests that failed for any other reason.
    pub failed: usize,
    /// Completed-request latency distribution.
    pub latency: LatencySummary,
    /// Completed requests per second of wall-clock run time.
    pub throughput_rps: f64,
    /// Wall-clock duration of the run.
    pub wall_seconds: f64,
    /// Mean requests per dispatched micro-batch (1.0 ⇒ no coalescing).
    pub mean_batch: f64,
    /// Largest micro-batch the queue dispatched.
    pub max_batch: u64,
}

/// Runs one open-loop load test: `workers` threads serve `cell` under
/// `opts` while requests are offered at their pre-drawn `arrivals`
/// offsets. `requests` is cycled if shorter than `arrivals`.
pub fn run_open_loop(
    cell: Arc<SnapshotCell>,
    opts: ServeOptions,
    workers: usize,
    requests: &[InferenceRequest],
    arrivals: &[Duration],
) -> RunReport {
    assert!(!requests.is_empty(), "need at least one request template");
    let queue = ServeQueue::start(cell, opts, workers);
    let start = Instant::now();

    // Submit on schedule, never waiting on results: tickets are collected
    // with their *scheduled* arrival so submitter lag cannot hide latency.
    let mut tickets = Vec::with_capacity(arrivals.len());
    let mut rejected = 0usize;
    let mut failed = 0usize;
    for (i, &offset) in arrivals.iter().enumerate() {
        let scheduled = start + offset;
        if let Some(sleep) = scheduled.checked_duration_since(Instant::now()) {
            std::thread::sleep(sleep);
        }
        match queue.submit(requests[i % requests.len()].clone()) {
            Ok(t) => tickets.push((scheduled, t)),
            Err(mgdiffnet::MgdError::QueueFull { .. }) => rejected += 1,
            Err(_) => failed += 1,
        }
    }

    let mut latencies_ms = Vec::with_capacity(tickets.len());
    let mut completed = 0usize;
    for (scheduled, ticket) in tickets {
        let (res, done) = ticket.wait_timed();
        match res {
            Ok(_) => {
                completed += 1;
                latencies_ms.push(done.saturating_duration_since(scheduled).as_secs_f64() * 1e3);
            }
            Err(_) => failed += 1,
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let stats = queue.stats();
    queue.shutdown();

    RunReport {
        offered: arrivals.len(),
        completed,
        rejected,
        failed,
        latency: LatencySummary::of(&mut latencies_ms),
        throughput_rps: if wall > 0.0 {
            completed as f64 / wall
        } else {
            0.0
        },
        wall_seconds: wall,
        mean_batch: stats.mean_batch,
        max_batch: stats.max_batch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&s, 0.50), 5.0);
        assert_eq!(percentile(&s, 0.95), 10.0);
        assert_eq!(percentile(&s, 0.99), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 10.0);
        assert_eq!(percentile(&[7.5], 0.99), 7.5);
    }

    #[test]
    fn summary_of_empty_is_zeros() {
        let s = LatencySummary::of(&mut []);
        assert_eq!(s.p50_ms, 0.0);
        assert_eq!(s.max_ms, 0.0);
    }

    #[test]
    fn poisson_arrivals_are_monotone_and_near_rate() {
        let rate = 200.0;
        let arrivals = poisson_arrivals(2000, rate, 42);
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        // Mean of 2000 exponential gaps: well within 15% of 1/λ.
        let span = arrivals.last().unwrap().as_secs_f64();
        let empirical = 2000.0 / span;
        assert!(
            (empirical - rate).abs() / rate < 0.15,
            "empirical rate {empirical:.1} Hz vs {rate:.1} Hz"
        );
        // Deterministic for a fixed seed.
        assert_eq!(arrivals, poisson_arrivals(2000, rate, 42));
    }
}
