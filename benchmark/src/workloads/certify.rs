//! `certify_3d`: the solver-in-the-loop path — closed loop, one client,
//! distinct 32³ ν fields each solved to a certified relative residual of
//! 1e-8 twice: on an engine whose surrogate was trained in set-up and
//! seeds MG-PCG (`StrategyKind::InitialGuess`), then on an untrained
//! engine built for `StrategyKind::PureMultigrid`.
//!
//! `mgd_fem` hierarchy/V-cycle/PCG and the `mgd_hybrid` driver dominate;
//! `mgd_nn` is one forward per solve and distinct fields bypass the
//! cache. The pure-multigrid half is the fixed baseline a learned-solver
//! speed-up is measured against, and it bypasses `mgd_nn` entirely.

use super::{repeat_setup, same_bits, EndToEnd, RunArgs};
use crate::frozen::*;
use crate::gen::nu_fields;
use crate::layers;
use crate::report::{Metric, Outcome, PhaseCounts};
use crate::stats::median;
use crate::trace::{TimedOp, TimedPrecond, TimedSurrogate, Tracer};
use mgd_fem::hierarchy::HierarchyOptions;
use mgd_fem::pcg::{PcgStep, PcgWorkspace};
use mgd_hybrid::{solve_certified, CertifyOptions, ErasedHierarchy, ErasedSystem, NoSurrogate};
use mgd_tensor::Tensor;
use mgdiffnet::prelude::*;
use mgdiffnet::SolverEngineBuilder;
use std::time::Instant;

/// Slack on re-verified certificates: the re-assembled system repeats the
/// same arithmetic, so only the comparison itself needs room.
const RECHECK_REL: f64 = 1e-9;

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

fn builder(strategy: StrategyKind) -> SolverEngineBuilder {
    super::train::builder()
        .resolution(CERTIFY_DIMS)
        .samples(CERTIFY_TRAIN_SAMPLES)
        .max_epochs(CERTIFY_TRAIN_EPOCHS)
        .cache_capacity(0)
        .hybrid_strategy(strategy)
        .certify_tol(CERTIFY_TOL)
}

struct Ctx {
    learned: SolverEngine,
    pure: SolverEngine,
    fields: Vec<Tensor>,
}

/// The repeatable part of set-up: both engines and the seed's ν fields.
fn setup(args: RunArgs, n_fields: usize) -> Ctx {
    let model = DiffusivityModel::paper();
    Ctx {
        learned: builder(StrategyKind::InitialGuess)
            .build()
            .expect("learned engine config is valid"),
        pure: builder(StrategyKind::PureMultigrid)
            .build()
            .expect("baseline engine config is valid"),
        fields: nu_fields(args.seed, n_fields, &model, &CERTIFY_DIMS)
            .into_iter()
            .map(|(_, nu)| nu)
            .collect(),
    }
}

/// Re-verifies one certificate against a residual recomputed on a freshly
/// assembled system.
fn recheck(
    out: &mut Outcome,
    what: &str,
    i: usize,
    nu: &Tensor,
    sol: &CertifiedSolution,
    u: &[f64],
) {
    let sys = ErasedSystem::poisson(&CERTIFY_DIMS, nu.as_slice()).expect("assemble system");
    let rhs = vec![0.0; sys.num_nodes()];
    let mut zero = vec![0.0; sys.num_nodes()];
    sys.impose_bc(&mut zero);
    let reference = sys.residual_norm(&zero, &rhs);
    let residual = sys.residual_norm(u, &rhs);
    out.gate(sol.converged, || {
        format!("{what} solve {i} did not converge")
    });
    out.gate(
        residual <= CERTIFY_TOL * reference * (1.0 + RECHECK_REL),
        || {
            format!(
                "{what} solve {i}: recomputed relative residual {:e} exceeds {CERTIFY_TOL:e}",
                residual / reference
            )
        },
    );
    out.gate(
        (residual - sol.residual_norm).abs() <= RECHECK_REL * reference,
        || {
            format!(
                "{what} solve {i}: certificate {:e} but recomputed residual {residual:e}",
                sol.residual_norm
            )
        },
    );
}

pub fn run(args: RunArgs) -> Outcome {
    if args.trace {
        return traced(args);
    }
    let (mut ctx, setup_repeat_s) = repeat_setup(|| setup(args, CERTIFY_MAX_FIELDS));
    // Set-up training runs once: it is seconds long, so it needs no
    // repeats to be steady.
    let t = Instant::now();
    ctx.learned.train().expect("set-up training");
    let setup_s = setup_repeat_s + t.elapsed().as_secs_f64();
    let (learned, pure) = (ctx.learned.snapshot(), ctx.pure.snapshot());

    let began = Instant::now();
    let mut solves: Vec<(CertifiedSolution, CertifiedSolution)> = Vec::new();
    let (mut learned_s, mut pure_s) = (Vec::new(), Vec::new());
    for nu in &ctx.fields {
        if solves.len() >= CERTIFY_MIN_FIELDS && began.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let req = InferenceRequest::coeff(nu.clone());
        let t = Instant::now();
        let a = learned
            .solve_certified(&req, CERTIFY_TOL)
            .expect("learned solve");
        learned_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let b = pure
            .solve_certified(&req, CERTIFY_TOL)
            .expect("baseline solve");
        pure_s.push(t.elapsed().as_secs_f64());
        solves.push((a, b));
    }
    let wall = began.elapsed().as_secs_f64();

    let mut out = Outcome {
        correct: true,
        ..Default::default()
    };
    for (i, ((a, b), nu)) in solves.iter().zip(&ctx.fields).enumerate() {
        let mut u = a.u.clone();
        if args.corrupt && i == 0 {
            u[CERTIFY_DIMS[2] * 17 + 9] += 1e-3;
        }
        recheck(&mut out, "initial-guess", i, nu, a, &u);
        recheck(&mut out, "pure-multigrid", i, nu, b, &b.u);
    }
    let n = solves.len() as u64;
    for phase in ["initial_guess", "pure_multigrid"] {
        out.phases.push(PhaseCounts {
            phase,
            attempted: n,
            succeeded: n,
            ..Default::default()
        });
    }
    let fell_back = solves.iter().filter(|(a, _)| a.fell_back).count();
    eprintln!(
        "certify: {n} fields; initial-guess fell back on {fell_back}; \
         outer iterations {} (initial guess) vs {} (pure)",
        solves.iter().map(|(a, _)| a.iterations).sum::<usize>(),
        solves.iter().map(|(_, b)| b.iterations).sum::<usize>()
    );
    out.metrics = EndToEnd {
        // Means, not medians: a solve's cost is quantised by its outer
        // iteration count (4, 5 or 6 here), so the median of a dozen
        // distinct fields flips between two values from seed to seed.
        result_time_s: (mean(&learned_s), learned_s.len()),
        variant_time_s: (mean(&pure_s), pure_s.len()),
        throughput_per_s: (2 * solves.len()) as f64 / wall,
        setup_s,
    }
    .metrics();
    out
}

// ---------------------------------------------------------------- traced

/// Pure MG-PCG replayed directly at `mgd_fem` — the same system,
/// hierarchy, start iterate and tolerance as the pure-multigrid solve,
/// with the operator and the V-cycle wrapped. Returns the iterations taken
/// and the wall seconds.
fn replay_pcg(sys: &ErasedSystem, op: &TimedOp<'_>, pre: &TimedPrecond<'_>) -> (usize, f64) {
    let t = Instant::now();
    let rhs = vec![0.0; sys.num_nodes()];
    let mut u = vec![0.0; sys.num_nodes()];
    sys.impose_bc(&mut u);
    let target = CERTIFY_TOL * sys.residual_norm(&u, &rhs);
    let mut pcg = PcgWorkspace::start(op, pre, &u, &rhs);
    let mut iterations = 0;
    // The recurrence residual steers; the true residual decides.
    while sys.residual_norm(&u, &rhs) > target {
        for _ in 0..2 {
            if pcg.step(op, pre, &mut u) == PcgStep::Breakdown {
                pcg.restart(op, pre, &u, &rhs);
            }
            iterations += 1;
        }
        assert!(iterations < 10_000, "replayed MG-PCG does not converge");
    }
    (iterations, t.elapsed().as_secs_f64())
}

fn traced(args: RunArgs) -> Outcome {
    let mut out = Outcome {
        correct: true,
        ..Default::default()
    };
    out.metrics = layers::tensor_metrics();
    let mut ctx = setup(args, CERTIFY_TRACE_FIELDS);
    ctx.learned.train().expect("set-up training");
    let (learned, pure) = (ctx.learned.snapshot(), ctx.pure.snapshot());
    let tracer = Tracer::new();
    let root = tracer.open("certify.fields", None, 0);
    let opts = CertifyOptions {
        tol: CERTIFY_TOL,
        ..Default::default()
    };

    let (mut engine_learned_s, mut engine_pure_s) = (Vec::new(), Vec::new());
    let (mut build_ms, mut hier_ms, mut surrogate_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut replay_learned_s, mut driver_self_ms) = (Vec::new(), Vec::new());
    let (mut apply_ms, mut vcycle_ms) = (Vec::new(), Vec::new());
    let (mut outer, mut pcg_iterations, mut fell_back) = (0usize, 0usize, 0usize);
    for (i, nu) in ctx.fields.iter().enumerate() {
        let op_id = i as u64;
        let req = InferenceRequest::coeff(nu.clone());
        // Top layer: the engine's own certified solves.
        let t = Instant::now();
        let a = learned
            .solve_certified(&req, CERTIFY_TOL)
            .expect("learned solve");
        engine_learned_s.push(t.elapsed().as_secs_f64());
        tracer.record("core.solve_certified", t, Instant::now(), Some(root), op_id);
        let t = Instant::now();
        let b = pure
            .solve_certified(&req, CERTIFY_TOL)
            .expect("baseline solve");
        engine_pure_s.push(t.elapsed().as_secs_f64());
        tracer.record("core.solve_certified", t, Instant::now(), Some(root), op_id);
        recheck(&mut out, "initial-guess", i, nu, &a, &a.u);
        recheck(&mut out, "pure-multigrid", i, nu, &b, &b.u);
        outer += a.iterations;
        fell_back += usize::from(a.fell_back);

        // One layer down: what the engine's solve does, call by call.
        let replay = tracer.open("hybrid.replay", Some(root), op_id);
        let t = Instant::now();
        let sys = ErasedSystem::poisson(&CERTIFY_DIMS, nu.as_slice()).expect("assemble system");
        build_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tracer.record("fem.system_build", t, Instant::now(), Some(replay), op_id);
        let t = Instant::now();
        let hier = ErasedHierarchy::build(&sys, HierarchyOptions::default()).expect("hierarchy");
        hier_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tracer.record(
            "fem.hierarchy_build",
            t,
            Instant::now(),
            Some(replay),
            op_id,
        );
        let guess = |dims: &[usize], nu: &[f64]| -> Option<Vec<f64>> {
            let coeff = Tensor::from_vec(dims.to_vec(), nu.to_vec());
            Some(learned.predict(&coeff).ok()?.as_slice().to_vec())
        };
        let timed = TimedSurrogate {
            inner: &guess,
            clock: Default::default(),
        };
        let t = Instant::now();
        let again = solve_certified(&sys, &hier, &timed, StrategyKind::InitialGuess, None, &opts);
        let hybrid_s = t.elapsed().as_secs_f64();
        let solve = tracer.record(
            "hybrid.solve_certified",
            t,
            Instant::now(),
            Some(replay),
            op_id,
        );
        tracer.record(
            "nn.surrogate",
            t,
            t + std::time::Duration::from_secs_f64(timed.clock.seconds()),
            Some(solve),
            op_id,
        );
        tracer.close(replay);
        out.gate(same_bits(&again.u, &a.u), || {
            format!("field {i}: traced replay and engine solve differ")
        });
        surrogate_ms.push(timed.clock.seconds() * 1e3);
        replay_learned_s.push(build_ms[i] * 1e-3 + hier_ms[i] * 1e-3 + hybrid_s);

        // Bottom layer: the pure-multigrid solve at `mgd_hybrid`, then
        // the same MG-PCG at `mgd_fem`; the difference is the driver.
        let t = Instant::now();
        let pure_again = solve_certified(
            &sys,
            &hier,
            &NoSurrogate,
            StrategyKind::PureMultigrid,
            None,
            &opts,
        );
        let hybrid_pure_s = t.elapsed().as_secs_f64();
        out.gate(pure_again.converged, || {
            format!("field {i}: replayed baseline diverged")
        });
        let op = TimedOp {
            inner: &sys,
            clock: Default::default(),
        };
        let pre = TimedPrecond {
            inner: &hier,
            clock: Default::default(),
        };
        let (iterations, fem_s) = replay_pcg(&sys, &op, &pre);
        pcg_iterations += iterations;
        driver_self_ms.push((hybrid_pure_s - fem_s) * 1e3);
        apply_ms.push(op.clock.mean_ms());
        vcycle_ms.push(pre.clock.mean_ms());
    }
    tracer.close(root);

    let n = ctx.fields.len();
    let nodes: usize = CERTIFY_DIMS.iter().product();
    let m = &mut out.metrics;
    m.push(Metric::new(
        "fem.system_build_ms",
        median(&build_ms),
        "ms",
        n,
    ));
    m.push(Metric::new(
        "fem.hierarchy_build_ms",
        median(&hier_ms),
        "ms",
        n,
    ));
    m.push(Metric::new("fem.apply_ms", median(&apply_ms), "ms", n));
    m.push(Metric::new("fem.vcycle_ms", median(&vcycle_ms), "ms", n));
    // Computed, not measured, traffic: one apply reads u and ν and writes
    // the product, 8 B each per node; cache misses are not counted.
    m.push(Metric::new(
        "fem.apply_gbps_computed",
        3.0 * 8.0 * nodes as f64 / (median(&apply_ms) * 1e-3) / 1e9,
        "GB/s",
        n,
    ));
    m.push(Metric::new(
        "fem.pcg_iterations",
        pcg_iterations as f64,
        "count",
        0,
    ));
    m.push(Metric::new(
        "hybrid.outer_iterations",
        outer as f64,
        "count",
        0,
    ));
    m.push(Metric::new(
        "hybrid.surrogate_ms",
        median(&surrogate_ms),
        "ms",
        n,
    ));
    m.push(Metric::new(
        "hybrid.driver_self_ms",
        median(&driver_self_ms),
        "ms",
        n,
    ));
    m.push(Metric::new(
        "hybrid.fell_back_share",
        fell_back as f64 / n as f64,
        "share",
        0,
    ));
    // Base: the pure-multigrid median; above 1 the surrogate pays off.
    m.push(Metric::new(
        "hybrid.speedup_vs_pure",
        median(&engine_pure_s) / median(&engine_learned_s),
        "ratio",
        n,
    ));
    m.push(Metric::new(
        "trace.overhead_share",
        (median(&replay_learned_s) - median(&engine_learned_s)) / median(&engine_learned_s),
        "share",
        0,
    ));
    for phase in ["initial_guess", "pure_multigrid"] {
        out.phases.push(PhaseCounts {
            phase,
            attempted: n as u64,
            succeeded: n as u64,
            ..Default::default()
        });
    }
    eprintln!(
        "certify trace: engine solve {:.4} s (initial guess) {:.4} s (pure); replay {:.4} s",
        median(&engine_learned_s),
        median(&engine_pure_s),
        median(&replay_learned_s)
    );
    crate::write_spans("certify_3d", &tracer);
    out
}
