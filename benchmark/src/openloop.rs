//! Open-loop load driver: requests leave on a pre-drawn schedule whatever
//! the server is doing, and each is timed from the instant it was *due*,
//! so a stall is charged to every request it delays (no coordinated
//! omission). How late the generator itself ran is reported per request.

use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What submitting one request produced.
pub enum Submit<T> {
    /// Accepted; `T` is the claim on the eventual answer.
    Accepted(T),
    /// Turned away by admission control.
    Refused,
    /// Failed outright.
    Failed,
}

/// How one scheduled request ended.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fate {
    /// Answered; latency from the scheduled instant to completion.
    Answered {
        latency: Duration,
    },
    Refused,
    Failed,
}

/// One scheduled request's record.
#[derive(Clone, Copy, Debug)]
pub struct Record {
    pub idx: usize,
    /// Offset of the scheduled send instant from the phase start.
    pub offset: Duration,
    /// How long after its scheduled instant the generator submitted it.
    pub lag: Duration,
    pub fate: Fate,
}

/// Offers one request per entry of `offsets` (ascending, from the phase
/// start) on a generator thread, resolves the claims on a collector
/// thread, and meanwhile runs `during(start)` on the calling thread
/// (mid-phase events such as weight swaps).
///
/// `submit(idx)` must not block on the answer. `resolve(idx, claim)`
/// blocks until request `idx` is answered and returns its completion
/// instant, or `None` if it failed.
pub fn run<T: Send>(
    offsets: &[Duration],
    mut submit: impl FnMut(usize) -> Submit<T> + Send,
    mut resolve: impl FnMut(usize, T) -> Option<Instant> + Send,
    during: impl FnOnce(Instant),
) -> Vec<Record> {
    let (tx, rx) = mpsc::channel::<(usize, Instant, Duration, Submit<T>)>();
    let start = Instant::now();
    std::thread::scope(|s| {
        s.spawn(move || {
            for (idx, &offset) in offsets.iter().enumerate() {
                let scheduled = start + offset;
                if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let lag = Instant::now().saturating_duration_since(scheduled);
                let outcome = submit(idx);
                if tx.send((idx, scheduled, lag, outcome)).is_err() {
                    return; // collector gone: nothing left to report to
                }
            }
        });
        let collector = s.spawn(move || {
            let mut records = Vec::with_capacity(offsets.len());
            for (idx, scheduled, lag, outcome) in rx {
                let fate = match outcome {
                    Submit::Accepted(claim) => match resolve(idx, claim) {
                        Some(done) => Fate::Answered {
                            latency: done.saturating_duration_since(scheduled),
                        },
                        None => Fate::Failed,
                    },
                    Submit::Refused => Fate::Refused,
                    Submit::Failed => Fate::Failed,
                };
                records.push(Record {
                    idx,
                    offset: offsets[idx],
                    lag,
                    fate,
                });
            }
            records
        });
        during(start);
        collector.join().expect("collector thread panicked")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// A fake single-lane server whose admission is synchronous: request 2
    /// stalls the caller for 60 ms. A closed loop (or a latency clock
    /// started at the actual send) would hide that from requests 3..; the
    /// open-loop clock charges it to each of them.
    #[test]
    fn latency_counts_from_the_scheduled_instant() {
        let offsets: Vec<Duration> = (0..8).map(|i| Duration::from_millis(2 * i)).collect();
        let sent_at = Mutex::new(Vec::new());
        let records = run(
            &offsets,
            |idx| {
                if idx == 2 {
                    std::thread::sleep(Duration::from_millis(60));
                }
                let now = Instant::now();
                sent_at.lock().unwrap().push(now);
                // Service time 1 ms from the actual send.
                Submit::Accepted(now + Duration::from_millis(1))
            },
            |_, done: Instant| {
                if let Some(wait) = done.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                Some(done)
            },
            |_| {},
        );
        assert_eq!(records.len(), 8);
        let latency = |i: usize| match records[i].fate {
            Fate::Answered { latency } => latency,
            other => panic!("request {i}: {other:?}"),
        };
        // Before the stall: about the 1 ms of service.
        assert!(latency(0) < Duration::from_millis(30), "{:?}", latency(0));
        // Requests due during the stall were sent late; their latency holds
        // the wait although each was served 1 ms after it was finally sent.
        for (i, record) in records.iter().enumerate().take(6).skip(3) {
            assert!(
                latency(i) > Duration::from_millis(40),
                "{i}: {:?}",
                latency(i)
            );
            assert!(record.lag > Duration::from_millis(40));
            assert!(latency(i) >= record.lag);
        }
    }

    #[test]
    fn refusals_and_failures_are_kept_apart() {
        let offsets = vec![Duration::ZERO; 4];
        let records = run(
            &offsets,
            |idx| match idx {
                0 => Submit::Accepted(()),
                1 => Submit::Refused,
                2 => Submit::Failed,
                _ => Submit::Accepted(()),
            },
            |idx, ()| (idx == 0).then(Instant::now),
            |_| {},
        );
        assert!(matches!(records[0].fate, Fate::Answered { .. }));
        assert_eq!(records[1].fate, Fate::Refused);
        assert_eq!(records[2].fate, Fate::Failed);
        assert_eq!(records[3].fate, Fate::Failed);
    }
}
