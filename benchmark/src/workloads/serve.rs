//! `serve_queue_2d`: the millions-of-small-requests path — an open-loop
//! Poisson stream of 64² predictions through `mgd_serve`'s micro-batching
//! queue (one worker, one generator thread), half of it Zipf-repeated keys
//! the prediction cache can answer, 30 % of keys asked as ω vectors the
//! server rasterizes itself.
//!
//! Phase A offers the frozen reference rate (≈0.6× the seed commit's
//! capacity) and hot-swaps the weights a third and two thirds of the way
//! through — a write beside the reads: fresh snapshot, empty cache. Phase
//! B offers the frozen overload rate (≈1.3×) and counts goodput: answers
//! inside the frozen latency limit per second; refusals, errors and late
//! answers all miss. `mgd_serve` queueing/batching, the core cache and
//! snapshot, and `mgd_field` rasterization dominate; `mgd_fem` and
//! `mgd_dist` do nothing.

use super::{repeat_setup, same_bits, unet_config, EndToEnd, RunArgs};
use crate::frozen::*;
use crate::gen::{key_mix, poisson_arrivals, Key, Rng};
use crate::layers;
use crate::openloop::{self, Fate, Record, Submit};
use crate::report::{out_dir, Metric, Outcome, PhaseCounts};
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::trace::{ModelStats, Sink, TracedModel, Tracer};
use mgd_field::stack_fields;
use mgd_nn::WeightSnapshot;
use mgd_serve::{ServeQueue, Ticket};
use mgd_tensor::Tensor;
use mgdiffnet::prelude::*;
use mgdiffnet::SolverEngineBuilder;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Weight generations: the engine starts on 0 and swaps to 1, then 2.
const GENERATIONS: usize = 3;
/// Closed-loop warm-up predictions before the first timed request.
const WARMUP_REQUESTS: usize = 16;

fn builder() -> SolverEngineBuilder {
    SolverEngine::builder()
        .resolution(SERVE_DIMS)
        .problem(Problem::poisson_2d(DiffusivityModel::paper()))
        .levels(1)
        .net_depth(SERVE_NET_DEPTH)
        .base_filters(SERVE_FILTERS)
        .cache_capacity(SERVE_CACHE_CAPACITY)
        .max_batch(SERVE_MAX_BATCH)
        .queue_depth(SERVE_QUEUE_DEPTH)
        .seed(MODEL_SEED)
}

/// The U-Net `builder()` assembles by default (for the traced run, which
/// wraps it before the engine sees it).
fn unet() -> UNet {
    UNet::new(unet_config(true, SERVE_NET_DEPTH, SERVE_FILTERS))
}

/// Trains three successive weight generations on a coarse grid (the net
/// is resolution-agnostic) and saves each: non-trivial, pairwise distinct
/// weights for the hot swaps, so a wrong-generation answer cannot pass.
fn weight_files() -> Vec<PathBuf> {
    let mut trainer = builder()
        .resolution([32, 32])
        .cycle(CycleKind::Base)
        .samples(8)
        .batch_size(4)
        .max_epochs(1)
        .build()
        .expect("pretraining engine config is valid");
    (0..GENERATIONS)
        .map(|g| {
            trainer.train().expect("pretraining epoch");
            let path = out_dir().join(format!("serve_weights_{}_{g}.json", std::process::id()));
            trainer.save_weights(&path).expect("save weights");
            path
        })
        .collect()
}

/// One phase's offered traffic.
struct Phase {
    duration: Duration,
    arrivals: Vec<Duration>,
    requests: Vec<InferenceRequest>,
}

/// Generates a phase's schedule and requests from the workload seed.
/// Hot key `k` is the same ω (and the same kind) in both phases.
fn phase(
    seed: u64,
    stream: u64,
    rate_hz: f64,
    duration: Duration,
    hot: &mut HashMap<usize, InferenceRequest>,
) -> Phase {
    let model = DiffusivityModel::paper();
    let arrivals = poisson_arrivals(seed, stream, rate_hz, duration);
    let keys = key_mix(seed, stream + 1, arrivals.len(), SERVE_KEY_MIX);
    let mut unique_rng = Rng::new(seed, stream + 2);
    let request = |rng: &mut Rng| {
        let as_omega = rng.unit() < SERVE_OMEGA_SHARE;
        let omega = rng.omega(model.num_modes());
        if as_omega {
            InferenceRequest::omega(omega)
        } else {
            InferenceRequest::coeff(model.rasterize(&omega, &SERVE_DIMS))
        }
    };
    let requests = keys
        .iter()
        .map(|key| match *key {
            Key::Unique => request(&mut unique_rng),
            Key::Hot(k) => hot
                .entry(k)
                .or_insert_with(|| request(&mut Rng::new(seed, 1000 + k as u64)))
                .clone(),
        })
        .collect();
    Phase {
        duration,
        arrivals,
        requests,
    }
}

/// Everything set up before the first timed request.
struct Ctx {
    engine: SolverEngine,
    queue: ServeQueue,
    weights: Vec<PathBuf>,
    phases: Vec<Phase>,
}

impl Drop for Ctx {
    fn drop(&mut self) {
        for w in &self.weights {
            let _ = std::fs::remove_file(w);
        }
    }
}

fn setup(args: RunArgs, model: Option<Box<dyn Model>>) -> Ctx {
    let weights = weight_files();
    let b = match model {
        Some(m) => builder().model(m),
        None => builder(),
    };
    let mut engine = b.build().expect("serve engine config is valid");
    engine.load_weights(&weights[0]).expect("load generation 0");
    let a = Duration::from_secs_f64(args.seconds * SERVE_PHASE_A_SHARE);
    let b = Duration::from_secs_f64(args.seconds * (1.0 - SERVE_PHASE_A_SHARE));
    let mut hot = HashMap::new();
    let phases = vec![
        phase(args.seed, 10, SERVE_RATE_A_HZ, a, &mut hot),
        phase(args.seed, 20, SERVE_RATE_B_HZ, b, &mut hot),
    ];
    let queue = ServeQueue::start(engine.serve_cell(), engine.serve_options(), SERVE_WORKERS);
    for req in unique_requests(args.seed, 30, WARMUP_REQUESTS) {
        black_box(queue.predict(req).expect("warm-up predict"));
    }
    Ctx {
        engine,
        queue,
        weights,
        phases,
    }
}

/// `n` coefficient-field requests no other stream of this seed shares.
fn unique_requests(seed: u64, stream: u64, n: usize) -> Vec<InferenceRequest> {
    let model = DiffusivityModel::paper();
    let mut rng = Rng::new(seed, stream);
    (0..n)
        .map(|_| {
            InferenceRequest::coeff(model.rasterize(&rng.omega(model.num_modes()), &SERVE_DIMS))
        })
        .collect()
}

/// A sampled answer kept for the bitwise check.
struct Sampled {
    request: InferenceRequest,
    answer: Arc<Tensor>,
    /// When the request was due and when its answer was stamped.
    lifetime: (Instant, Instant),
}

/// One weight swap: when `load_weights` was entered and when it returned.
#[derive(Clone, Copy)]
struct Swap {
    began: Instant,
    ended: Instant,
}

/// What one phase produced.
struct PhaseRun {
    records: Vec<Record>,
    sampled: Vec<Sampled>,
    swaps: Vec<Swap>,
    start: Instant,
    wall: Duration,
}

/// Offers one phase open-loop; `swap_to` lists `(share of the phase,
/// weight file)` hot swaps performed on the calling thread meanwhile.
fn offer(
    queue: &ServeQueue,
    engine: &mut SolverEngine,
    phase: &mut Phase,
    swap_to: &[(f64, &PathBuf)],
) -> PhaseRun {
    let mut pending: Vec<Option<InferenceRequest>> = std::mem::take(&mut phase.requests)
        .into_iter()
        .map(Some)
        .collect();
    let kept: std::sync::Mutex<HashMap<usize, InferenceRequest>> = Default::default();
    let mut answers: Vec<(usize, Arc<Tensor>, Instant)> = Vec::new();
    let mut swaps = Vec::new();
    let mut start = Instant::now();
    let began = Instant::now();
    let records = openloop::run(
        &phase.arrivals,
        |idx| {
            let req = pending[idx].take().expect("each request is sent once");
            if idx % SERVE_VERIFY_EVERY == 0 {
                kept.lock().expect("kept").insert(idx, req.clone());
            }
            match queue.submit(req) {
                Ok(ticket) => Submit::Accepted(ticket),
                Err(MgdError::QueueFull { .. }) => Submit::Refused,
                Err(_) => Submit::Failed,
            }
        },
        |idx, ticket: Ticket| match ticket.wait_timed() {
            (Ok(answer), done) => {
                if idx % SERVE_VERIFY_EVERY == 0 {
                    answers.push((idx, answer, done));
                }
                Some(done)
            }
            (Err(_), _) => None,
        },
        |phase_start| {
            start = phase_start;
            for &(share, path) in swap_to {
                let due = phase_start + phase.duration.mul_f64(share);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let began = Instant::now();
                engine.load_weights(path).expect("hot swap");
                swaps.push(Swap {
                    began,
                    ended: Instant::now(),
                });
            }
        },
    );
    let wall = began.elapsed();
    let mut kept = kept.into_inner().expect("kept");
    let sampled = answers
        .into_iter()
        .map(|(idx, answer, done)| Sampled {
            request: kept.remove(&idx).expect("sampled request was kept"),
            answer,
            lifetime: (start + phase.arrivals[idx], done),
        })
        .collect();
    PhaseRun {
        records,
        sampled,
        swaps,
        start,
        wall,
    }
}

fn latencies_s(records: &[Record]) -> Vec<f64> {
    let mut v: Vec<f64> = records
        .iter()
        .filter_map(|r| match r.fate {
            Fate::Answered { latency } => Some(latency.as_secs_f64()),
            _ => None,
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Answered latencies (seconds, ascending) of the requests due in each
/// full [`SERVE_WINDOW_S`] window of a phase; a phase shorter than one
/// window is a single window. Windows in which nothing was answered are
/// kept (empty): under overload that is a window of zero goodput.
fn windows(run: &PhaseRun, phase: &Phase) -> Vec<Vec<f64>> {
    let n = ((phase.duration.as_secs_f64() / SERVE_WINDOW_S) as usize).max(1);
    let mut out = vec![Vec::new(); n];
    for r in &run.records {
        let w = (r.offset.as_secs_f64() / SERVE_WINDOW_S) as usize;
        if let (Some(slot), Fate::Answered { latency }) = (out.get_mut(w), r.fate) {
            slot.push(latency.as_secs_f64());
        }
    }
    for w in &mut out {
        w.sort_by(f64::total_cmp);
    }
    out
}

fn counts(name: &'static str, records: &[Record]) -> PhaseCounts {
    let count = |f: fn(&Fate) -> bool| records.iter().filter(|r| f(&r.fate)).count() as u64;
    PhaseCounts {
        phase: name,
        attempted: records.len() as u64,
        succeeded: count(|f| matches!(f, Fate::Answered { .. })),
        failed: count(|f| matches!(f, Fate::Failed)),
        refused: count(|f| matches!(f, Fate::Refused)),
    }
}

/// Both phases, offered to `ctx`'s queue.
fn offer_both(ctx: &mut Ctx) -> (PhaseRun, PhaseRun) {
    let (w1, w2) = (ctx.weights[1].clone(), ctx.weights[2].clone());
    let a = offer(
        &ctx.queue,
        &mut ctx.engine,
        &mut ctx.phases[0],
        &[(1.0 / 3.0, &w1), (2.0 / 3.0, &w2)],
    );
    let b = offer(&ctx.queue, &mut ctx.engine, &mut ctx.phases[1], &[]);
    (a, b)
}

/// The bitwise gate: each sampled answer equals a direct
/// `snapshot.predict_request` on a cache-less reference engine holding a
/// weight generation that was published during the request's lifetime.
fn verify(out: &mut Outcome, ctx: &Ctx, a: &PhaseRun, b: &PhaseRun, corrupt: bool) {
    let mut reference = builder()
        .cache_capacity(0)
        .build()
        .expect("reference engine config is valid");
    let snapshots: Vec<Arc<EngineSnapshot>> = ctx
        .weights
        .iter()
        .map(|w| {
            reference.load_weights(w).expect("load reference weights");
            reference.snapshot()
        })
        .collect();
    // Generation g is live from the start of the swap that published it
    // to the end of the swap that replaced it.
    let live = |g: usize, (due, done): (Instant, Instant)| {
        let from = g
            .checked_sub(1)
            .and_then(|i| a.swaps.get(i))
            .map(|s| s.began);
        let until = a.swaps.get(g).map(|s| s.ended);
        from.is_none_or(|f| f <= done) && until.is_none_or(|u| due <= u)
    };
    out.gate(a.swaps.len() == GENERATIONS - 1, || {
        "a hot swap did not happen".into()
    });
    let mut checked = 0;
    for (i, s) in a.sampled.iter().chain(&b.sampled).enumerate() {
        let mut answer = s.answer.as_slice().to_vec();
        if corrupt && i == 0 {
            answer[7] = f64::from_bits(answer[7].to_bits() ^ 1);
        }
        let matches = (0..GENERATIONS).filter(|&g| live(g, s.lifetime)).any(|g| {
            let direct = snapshots[g]
                .predict_request(&s.request)
                .expect("reference predict");
            same_bits(direct.as_slice(), &answer)
        });
        out.gate(matches, || {
            format!("sampled answer {i} differs from a direct predict at its snapshot version")
        });
        checked += 1;
    }
    out.gate(checked > 0, || {
        "no answer was sampled for verification".into()
    });
    eprintln!("serve: {checked} sampled answers checked bitwise");
}

pub fn run(args: RunArgs) -> Outcome {
    if args.trace {
        return traced(args);
    }
    let (mut ctx, setup_s) = repeat_setup(|| setup(args, None));
    let (a, b) = offer_both(&mut ctx);

    let mut out = Outcome {
        correct: true,
        ..Default::default()
    };
    out.phases.push(counts("reference", &a.records));
    out.phases.push(counts("overload", &b.records));
    out.gate(out.failed() == 0, || "a request failed".into());
    verify(&mut out, &ctx, &a, &b, args.corrupt);

    // Each statistic is taken per one-second window of scheduled arrivals
    // and the median window is reported: one burst, one hot swap or one
    // stall of a shared box lands in one window instead of owning the
    // phase's whole tail.
    let (win_a, win_b) = (windows(&a, &ctx.phases[0]), windows(&b, &ctx.phases[1]));
    let answered: Vec<&Vec<f64>> = win_a.iter().filter(|w| !w.is_empty()).collect();
    out.gate(!answered.is_empty(), || "phase A answered nothing".into());
    let p50: Vec<f64> = answered.iter().map(|w| percentile(w, 0.5)).collect();
    let p95: Vec<f64> = answered.iter().map(|w| percentile(w, 0.95)).collect();
    let limit = SERVE_LATENCY_LIMIT_MS * 1e-3;
    let good: Vec<f64> = win_b
        .iter()
        .map(|w| w.iter().filter(|&&l| l <= limit).count() as f64 / SERVE_WINDOW_S)
        .collect();
    out.metrics = EndToEnd {
        result_time_s: (if p50.is_empty() { 0.0 } else { median(&p50) }, p50.len()),
        variant_time_s: (if p95.is_empty() { 0.0 } else { median(&p95) }, p95.len()),
        throughput_per_s: median(&good),
        setup_s,
    }
    .metrics();
    report_generator_lag(&a, &b);
    out
}

fn lag_p99_ms(records: &[Record]) -> f64 {
    let mut lags: Vec<f64> = records.iter().map(|r| r.lag.as_secs_f64() * 1e3).collect();
    lags.sort_by(f64::total_cmp);
    percentile(&lags, 0.99)
}

fn report_generator_lag(a: &PhaseRun, b: &PhaseRun) {
    eprintln!(
        "serve: generator lag p99 {:.3} ms (reference) {:.3} ms (overload)",
        lag_p99_ms(&a.records),
        lag_p99_ms(&b.records)
    );
}

// ---------------------------------------------------------------- traced

/// Queue wait seen from outside: for each answered request, the time from
/// its scheduled instant to the start of the forward pass that finished
/// last before its answer was stamped (0 when that forward began before
/// the request was due — a cache hit rode along).
fn queue_wait_p50_ms(run: &PhaseRun, tracer: &Tracer) -> f64 {
    let start_ns = tracer.ns(run.start);
    let mut forwards: Vec<(u64, u64)> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "nn.infer")
        .map(|s| (s.end_ns, s.start_ns))
        .collect();
    forwards.sort_unstable();
    let mut waits: Vec<f64> = run
        .records
        .iter()
        .filter_map(|r| {
            let Fate::Answered { latency } = r.fate else {
                return None;
            };
            let due = start_ns + r.offset.as_nanos() as u64;
            let done = due + latency.as_nanos() as u64;
            let i = forwards.partition_point(|&(end, _)| end <= done);
            let began = forwards.get(i.checked_sub(1)?)?.1;
            Some(began.saturating_sub(due) as f64 * 1e-6)
        })
        .collect();
    waits.sort_by(f64::total_cmp);
    if waits.is_empty() {
        0.0
    } else {
        percentile(&waits, 0.5)
    }
}

fn traced(args: RunArgs) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Default::default()
    };
    out.metrics = layers::tensor_metrics();

    let tracer = Tracer::new();
    let stats = Arc::new(ModelStats::default());
    let sink = Sink {
        tracer: Arc::clone(&tracer),
        parent: None,
    };
    let wrapped = TracedModel::new(Box::new(unet()), Arc::clone(&stats), Some(sink));
    let (packs0, reuses0) = mgd_nn::prepack_stats();
    let mut ctx = setup(args, Some(Box::new(wrapped)));
    let stats0 = ctx.engine.stats();
    let root = tracer.open("serve.phases", None, 0);
    let (a, b) = offer_both(&mut ctx);
    tracer.close(root);
    for (run, base) in [(&a, 0u64), (&b, 1 << 32)] {
        for r in &run.records {
            if let Fate::Answered { latency } = r.fate {
                let due = run.start + r.offset;
                tracer.record(
                    "serve.request",
                    due,
                    due + latency,
                    Some(root),
                    base + r.idx as u64,
                );
            }
        }
    }
    out.phases.push(counts("reference", &a.records));
    out.phases.push(counts("overload", &b.records));
    out.gate(out.failed() == 0, || "a request failed".into());
    verify(&mut out, &ctx, &a, &b, args.corrupt);

    let served = ctx.engine.stats();
    let qstats = ctx.queue.stats();
    let (packs1, reuses1) = mgd_nn::prepack_stats();
    let lat_a = latencies_s(&a.records);
    let m = &mut out.metrics;
    let hits = (served.cache_hits - stats0.cache_hits) as f64;
    let misses = (served.cache_misses - stats0.cache_misses) as f64;
    let passes = (served.forward_passes - stats0.forward_passes) as f64;
    let fields = (served.predicted_fields - stats0.predicted_fields) as f64;
    m.push(Metric::new(
        "core.cache_hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
        0,
    ));
    m.push(Metric::new(
        "core.cache_evictions",
        (served.cache_evictions - stats0.cache_evictions) as f64,
        "count",
        0,
    ));
    m.push(Metric::new("core.forward_passes", passes, "count", 0));
    m.push(Metric::new(
        "core.fields_per_forward",
        fields / passes.max(1.0),
        "ratio",
        0,
    ));
    m.push(Metric::new(
        "core.workspace_pool_misses",
        served.workspace_pool_misses as f64,
        "count",
        0,
    ));
    m.push(Metric::new(
        "serve.mean_batch",
        qstats.mean_batch,
        "ratio",
        0,
    ));
    m.push(Metric::new(
        "serve.max_batch",
        qstats.max_batch as f64,
        "count",
        0,
    ));
    m.push(Metric::new(
        "serve.batches",
        qstats.batches as f64,
        "count",
        0,
    ));
    m.push(Metric::new(
        "serve.rejected_share",
        qstats.rejected as f64 / (qstats.submitted + qstats.rejected).max(1) as f64,
        "share",
        0,
    ));
    m.push(Metric::new(
        "nn.prepack_builds",
        (packs1 - packs0) as f64,
        "count",
        0,
    ));
    m.push(Metric::new(
        "nn.prepack_reuses",
        (reuses1 - reuses0) as f64,
        "count",
        0,
    ));
    let tail = highest_supported_percentile(lat_a.len()).map_or(0.5, |p| p.min(0.99));
    m.push(Metric::new(
        "serve.latency_p99_ms",
        percentile(&lat_a, tail) * 1e3,
        "ms",
        lat_a.len(),
    ));
    eprintln!(
        "serve: latency_p99_ms is the p{:.1} of {} answers",
        tail * 100.0,
        lat_a.len()
    );
    // Answers due within the window after each swap began.
    let mut post: Vec<f64> = a
        .records
        .iter()
        .filter_map(|r| match r.fate {
            Fate::Answered { latency } => {
                let due = a.start + r.offset;
                a.swaps
                    .iter()
                    .any(|s| {
                        due >= s.began
                            && due < s.began + Duration::from_secs_f64(SERVE_POST_SWAP_WINDOW_S)
                    })
                    .then_some(latency.as_secs_f64() * 1e3)
            }
            _ => None,
        })
        .collect();
    post.sort_by(f64::total_cmp);
    m.push(Metric::new(
        "serve.post_swap_p95_ms",
        if post.is_empty() {
            0.0
        } else {
            percentile(&post, 0.95)
        },
        "ms",
        post.len(),
    ));
    m.push(Metric::new(
        "serve.generator_lag_p99_ms",
        lag_p99_ms(&a.records),
        "ms",
        a.records.len(),
    ));
    m.push(Metric::new(
        "serve.queue_wait_p50_ms",
        queue_wait_p50_ms(&a, &tracer),
        "ms",
        lat_a.len(),
    ));
    let publish_ms: Vec<f64> = a
        .swaps
        .iter()
        .map(|s| s.ended.duration_since(s.began).as_secs_f64() * 1e3)
        .collect();
    m.push(Metric::new(
        "core.publish_ms",
        median(&publish_ms),
        "ms",
        publish_ms.len(),
    ));

    // Closed-loop probes on distinct (always-miss) requests, one layer at
    // a time: queue → snapshot → shared model.
    const PROBES: usize = 100;
    let snapshot = ctx.engine.snapshot();
    // The same queue without the wrapper, for the tracing overhead; the
    // three probes alternate request by request so drift cancels.
    let mut plain = setup(
        RunArgs {
            seconds: 1.0,
            ..args
        },
        None,
    );
    let last = plain.weights[GENERATIONS - 1].clone();
    plain
        .engine
        .load_weights(&last)
        .expect("load last generation");
    let (mut queue_s, mut direct_s, mut plain_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut probes = unique_requests(args.seed, 40, 3 * PROBES).into_iter();
    let mut timed = |secs: &mut Vec<f64>, f: &dyn Fn(InferenceRequest)| {
        let req = probes.next().expect("3 * PROBES requests");
        let t = Instant::now();
        f(req);
        secs.push(t.elapsed().as_secs_f64());
    };
    for _ in 0..PROBES {
        timed(&mut queue_s, &|r| {
            black_box(ctx.queue.predict(r).expect("probe"));
        });
        timed(&mut direct_s, &|r| {
            black_box(snapshot.predict_request(&r).expect("probe"));
        });
        timed(&mut plain_s, &|r| {
            black_box(plain.queue.predict(r).expect("probe"));
        });
    }
    m.push(Metric::new(
        "serve.dispatch_overhead_us",
        (median(&queue_s) - median(&direct_s)) * 1e6,
        "us",
        PROBES,
    ));
    m.push(Metric::new(
        "trace.overhead_share",
        (median(&queue_s) - median(&plain_s)) / median(&plain_s),
        "share",
        0,
    ));

    // Direct inference on the shared view, batch 1 and batch 8.
    let mut net = unet();
    WeightSnapshot::load(&ctx.weights[2])
        .expect("load generation 2")
        .restore(&mut net)
        .expect("restore generation 2");
    let shared = net.share().expect("the U-Net has a shared inference view");
    let encoded = |reqs: Vec<InferenceRequest>| -> Vec<Tensor> {
        reqs.into_iter()
            .map(|r| match r {
                InferenceRequest::Coeff(nu) => InputEncoding::LogNu.encode(&nu),
                InferenceRequest::Omega(_) => unreachable!("probe requests are fields"),
            })
            .collect()
    };
    let mut ws = mgd_nn::Workspace::new();
    let singles = encoded(unique_requests(args.seed, 42, PROBES));
    let b1: Vec<f64> = singles
        .iter()
        .map(|x| {
            let x = stack_fields(std::slice::from_ref(x)).expect("stack");
            let t = Instant::now();
            black_box(shared.infer(&x, &mut ws));
            t.elapsed().as_secs_f64()
        })
        .collect();
    m.push(Metric::new(
        "nn.infer_b1_ms",
        median(&b1) * 1e3,
        "ms",
        PROBES,
    ));
    let batch_reqs = unique_requests(args.seed, 43, 8 * 20);
    let mut b8_ms = Vec::new();
    let mut predict8_ms = Vec::new();
    for chunk in batch_reqs.chunks(8) {
        let x = stack_fields(&encoded(chunk.to_vec())).expect("stack");
        let t = Instant::now();
        black_box(shared.infer(&x, &mut ws));
        b8_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        black_box(snapshot.predict_requests(chunk).expect("probe"));
        predict8_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    m.push(Metric::new(
        "nn.infer_b8_ms_per_field",
        median(&b8_ms) / 8.0,
        "ms",
        b8_ms.len(),
    ));
    m.push(Metric::new(
        "core.predict_self_ms",
        median(&predict8_ms) - median(&b8_ms),
        "ms",
        b8_ms.len(),
    ));

    // Rasterization, as a `Coeff` client and as the server do it.
    let model = DiffusivityModel::paper();
    let data = Dataset::sobol(32, model.clone(), InputEncoding::LogNu);
    let mut rng = Rng::new(args.seed, 44);
    let nu_ms: Vec<f64> = (0..32)
        .map(|s| {
            let t = Instant::now();
            black_box(data.nu_field(s, &SERVE_DIMS));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    let omega_ms: Vec<f64> = (0..32)
        .map(|_| {
            let omega = rng.omega(model.num_modes());
            let t = Instant::now();
            black_box(model.rasterize(&omega, &SERVE_DIMS));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    m.push(Metric::new("field.nu_field_ms", median(&nu_ms), "ms", 32));
    m.push(Metric::new(
        "field.rasterize_omega_ms",
        median(&omega_ms),
        "ms",
        32,
    ));
    report_generator_lag(&a, &b);
    eprintln!(
        "serve trace: worker busy {:.3} s in {} forwards over {:.3} s of phases",
        stats.infer.seconds(),
        stats.infer.calls(),
        (a.wall + b.wall).as_secs_f64()
    );
    crate::write_spans("serve_queue_2d", &tracer);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_traffic() {
        let gen = |seed| {
            let mut hot = HashMap::new();
            phase(seed, 10, 300.0, Duration::from_millis(500), &mut hot)
        };
        let (a, b, c) = (gen(3), gen(3), gen(4));
        assert_eq!(a.arrivals, b.arrivals);
        assert_eq!(a.requests, b.requests);
        assert_ne!(a.arrivals, c.arrivals);
        let omegas = a
            .requests
            .iter()
            .filter(|r| matches!(r, InferenceRequest::Omega(_)))
            .count();
        assert!(omegas > 0 && omegas < a.requests.len());
    }

    /// A wrapped model serves the same bits as the engine's own.
    #[test]
    fn traced_engine_serves_identical_bits() {
        let small = |b: SolverEngineBuilder| b.resolution([16, 16]);
        let plain = small(builder()).build().unwrap();
        let stats = Arc::new(ModelStats::default());
        let wrapped = TracedModel::new(Box::new(unet()), Arc::clone(&stats), None);
        let traced = small(builder()).model(Box::new(wrapped)).build().unwrap();
        assert!(
            traced.snapshot().is_lock_free(),
            "the shared view is forwarded"
        );
        let nu = plain.dataset().nu_field(1, &[16, 16]);
        let (x, y) = (plain.predict(&nu).unwrap(), traced.predict(&nu).unwrap());
        assert!(same_bits(x.as_slice(), y.as_slice()));
        assert_eq!(stats.infer.calls(), 1);
    }
}
