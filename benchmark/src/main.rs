//! `mgd-benchmark`: the comparison benchmark of the MGDiffNet stack.
//!
//! Four workloads (training cycle, queue serving, megavoxel slab forward,
//! certified solve), each measured end to end and — in a separate traced
//! run — layer by layer, from outside the program: by timing calls into
//! public functions, wrapping public trait seams, and replaying a
//! workload's inputs at each lower layer. See `README.md`.
//!
//! ```text
//! mgd-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! mgd-benchmark run   --seed <n>     # all four, end to end, in child processes
//! mgd-benchmark trace --seed <n>     # all four, per layer, with span files
//! mgd-benchmark aa    --seed <n> [--runs <k>]   # two sets of the same code
//! ```

mod frozen;
mod gen;
mod layers;
mod openloop;
mod report;
mod stats;
mod trace;
mod workloads;

use report::{machine_facts, out_dir};
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use workloads::{RunArgs, NAMES};

/// Writes one workload's span log under `benchmark/out/`.
pub fn write_spans(workload: &str, tracer: &trace::Tracer) {
    let path = out_dir().join(format!("spans_{workload}.json"));
    let doc = serde_json::to_string(&tracer.to_json()).expect("span log is finite");
    std::fs::write(&path, doc).expect("write span log");
    eprintln!("spans: {}", path.display());
}

/// Command-line flags (`--name value` pairs after an optional subcommand).
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected a --flag, got `{flag}`"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Flags(map))
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.0.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name}: cannot parse `{v}`")),
        }
    }

    fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.get(name)?
            .ok_or_else(|| format!("--{name} is required"))
    }
}

/// `run_seconds` and the per-metric bounds, read from `BENCHMARK.json`
/// (the file the pipeline itself reads; nothing here recomputes them).
struct Contract {
    run_seconds: f64,
    /// `(name, better, bound)` of every end-to-end metric.
    end_to_end: Vec<(String, String, f64)>,
}

impl Contract {
    fn load() -> Result<Self, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
        let v: Value = serde_json::from_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let run_seconds = v
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("BENCHMARK.json: run_seconds")?;
        let end_to_end = v
            .get("end_to_end")
            .and_then(Value::as_array)
            .ok_or("BENCHMARK.json: end_to_end")?
            .iter()
            .map(|m| {
                Some((
                    m.get("name")?.as_str()?.to_string(),
                    m.get("better")?.as_str()?.to_string(),
                    m.get("bound")?.as_f64()?,
                ))
            })
            .collect::<Option<Vec<_>>>()
            .ok_or("BENCHMARK.json: end_to_end entries")?;
        Ok(Contract {
            run_seconds,
            end_to_end,
        })
    }
}

/// One child run's parsed result line.
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Runs one workload in a child process of this executable (so its peak
/// RSS and allocator state are its own) and parses the result line.
fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    for line in lines {
        println!("{line}");
    }
    if !output.status.success() {
        return Err(format!("{workload} exited with {}", output.status));
    }
    let v: Value = serde_json::from_str(last).map_err(|e| format!("{workload} result: {e}"))?;
    let field = |k: &str| v.get(k).ok_or(format!("{workload} result lacks `{k}`"));
    let metrics = match field("metrics")? {
        Value::Map(entries) => entries
            .iter()
            .map(|(k, m)| {
                (
                    k.clone(),
                    m.get("value").and_then(Value::as_f64).unwrap_or(0.0),
                )
            })
            .collect(),
        _ => return Err(format!("{workload} result: metrics is not an object")),
    };
    Ok(ChildResult {
        correct: matches!(field("correct")?, Value::Bool(true)),
        attempted: field("attempted")?.as_u64().unwrap_or(0),
        failed: field("failed")?.as_u64().unwrap_or(0),
        metrics,
    })
}

/// `run` / `trace`: every workload once, results also written to
/// `benchmark/out/result_<mode>.json`. Fails if any gate broke.
fn run_all(seed: u64, trace: bool) -> Result<(), String> {
    let contract = Contract::load()?;
    let mode = if trace { "trace" } else { "run" };
    let mut all_ok = true;
    let mut results = Vec::new();
    for name in NAMES {
        let r = run_child(name, seed, contract.run_seconds, trace)?;
        all_ok &= r.correct && r.failed == 0;
        if trace {
            // Every layer's spans must cost under a twentieth of the run.
            let overhead = r
                .metrics
                .get("trace.overhead_share")
                .copied()
                .unwrap_or(0.0);
            if overhead >= 0.05 {
                eprintln!("{name}: tracing overhead {overhead:.3} is 5 % or more");
                all_ok = false;
            }
        }
        results.push((
            name.to_string(),
            Value::Map(vec![
                ("correct".into(), Value::Bool(r.correct)),
                ("attempted".into(), Value::U64(r.attempted)),
                ("failed".into(), Value::U64(r.failed)),
                (
                    "metrics".into(),
                    Value::Map(
                        r.metrics
                            .into_iter()
                            .map(|(k, v)| (k, Value::F64(v)))
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    let doc = Value::Map(vec![
        ("seed".into(), Value::U64(seed)),
        ("machine".into(), machine_facts()),
        ("workloads".into(), Value::Map(results)),
    ]);
    let path = out_dir().join(format!("result_{mode}.json"));
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?,
    )
    .map_err(|e| e.to_string())?;
    println!("result file: {}", path.display());
    if all_ok {
        Ok(())
    } else {
        Err("a correctness gate failed, or tracing cost 5 % or more".into())
    }
}

/// Per-layer counts that must repeat exactly between two sets of runs.
const EXACT_COUNTS: [(&str, &str); 6] = [
    ("train_halfv_3d", "dist.allreduce_calls"),
    ("train_halfv_3d", "core.epochs_to_target"),
    ("slab_forward_3d", "dist.halo_messages"),
    ("slab_forward_3d", "dist.halo_bytes"),
    ("certify_3d", "fem.pcg_iterations"),
    ("certify_3d", "hybrid.outer_iterations"),
];

/// `aa`: two sets of `runs` end-to-end runs per workload (seeds `seed ..
/// seed + runs`) of the same code, compared metric by metric against the
/// bounds in `BENCHMARK.json`, plus one traced run per set whose exact
/// counts must be identical.
fn run_aa(seed: u64, runs: usize) -> Result<(), String> {
    let contract = Contract::load()?;
    let mut ok = true;
    for name in NAMES {
        let mut sets: [BTreeMap<String, Vec<f64>>; 2] = Default::default();
        let mut counts: [BTreeMap<String, f64>; 2] = Default::default();
        for (set, count) in sets.iter_mut().zip(&mut counts) {
            for k in 0..runs {
                let r = run_child(name, seed + k as u64, contract.run_seconds, false)?;
                ok &= r.correct && r.failed == 0;
                for (metric, v) in r.metrics {
                    set.entry(metric).or_default().push(v);
                }
            }
            *count = run_child(name, seed, contract.run_seconds, true)?.metrics;
        }
        for (metric, better, bound) in &contract.end_to_end {
            let (a, b) = (
                stats::median(&sets[0][metric]),
                stats::median(&sets[1][metric]),
            );
            // Positive = the second set is worse.
            let worse = if better == "lower" {
                (b - a) / a
            } else {
                (a - b) / a
            };
            let mut line = format!(
                "{name:<16} {metric:<18} set1 {a:>12.6} set2 {b:>12.6} worse by {:>+7.2} % (bound {:.0} %)",
                100.0 * worse,
                100.0 * bound
            );
            if runs >= 4 {
                let spread = sets.iter().map(|s| stats::iqr_share(&s[metric]));
                for s in spread {
                    line.push_str(&format!(" iqr {:.2} %", 100.0 * s));
                    ok &= metric == "setup_s" || s <= *bound;
                }
            }
            println!("{line}");
            ok &= worse <= *bound;
        }
        for (_, metric) in EXACT_COUNTS.iter().filter(|(w, _)| *w == name) {
            let (a, b) = (counts[0][*metric], counts[1][*metric]);
            println!("{name:<16} {metric:<28} {a} vs {b} (must repeat exactly)");
            ok &= a == b;
        }
    }
    if ok {
        Ok(())
    } else {
        Err("the two sets disagree beyond a bound, or a gate failed".into())
    }
}

/// The pipeline's entry point: one workload, one result line.
fn run_one(flags: &Flags) -> Result<(), String> {
    let name: String = flags.require("workload")?;
    let args = RunArgs {
        seed: flags.require("seed")?,
        seconds: flags.require("seconds")?,
        trace: flags.require::<u8>("trace")? != 0,
        corrupt: std::env::var_os("MGD_BENCHMARK_CORRUPT").is_some(),
    };
    if !(args.seconds.is_finite() && args.seconds >= 1.0) {
        return Err("--seconds must be at least 1".into());
    }
    let outcome = workloads::run(&name, args)
        .ok_or_else(|| format!("unknown workload `{name}` (one of {NAMES:?})"))?;
    print!("{}", outcome.table(&name));
    println!("{}", outcome.json_line());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "aa")) => (c, &args[1..]),
        _ => ("", &args[..]),
    };
    let result = Flags::parse(rest).and_then(|flags| match command {
        "run" => run_all(flags.require("seed")?, false),
        "trace" => run_all(flags.require("seed")?, true),
        "aa" => run_aa(flags.require("seed")?, flags.get("runs")?.unwrap_or(1)),
        _ => run_one(&flags),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("mgd-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
