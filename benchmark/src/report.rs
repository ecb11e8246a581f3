//! What one benchmark run reports: named metrics with units, operation
//! counts, the correctness verdict, and the machine facts recorded beside
//! every result.

use serde_json::Value;
use std::path::PathBuf;

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Timed samples behind the value (0 for counts and ratios).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// Operation counts of one phase of a workload.
#[derive(Clone, Debug, Default)]
pub struct PhaseCounts {
    pub phase: &'static str,
    pub attempted: u64,
    pub succeeded: u64,
    pub failed: u64,
    pub refused: u64,
}

/// Everything one run of one workload produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Every correctness gate of the workload held.
    pub correct: bool,
    /// Why not, when it did not (one line per broken gate).
    pub violations: Vec<String>,
    pub phases: Vec<PhaseCounts>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.attempted).sum()
    }

    /// Operations that errored or answered wrongly. Requests refused by
    /// admission control are reported per phase and count against goodput,
    /// but are the system working as designed, not failures.
    pub fn failed(&self) -> u64 {
        self.phases.iter().map(|p| p.failed).sum()
    }

    /// Checks a correctness gate, recording `what` when it does not hold.
    pub fn gate(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.correct = false;
            self.violations.push(what());
        }
    }

    /// The human-readable table: every metric by name with unit and sample
    /// count, then the per-phase operation counts and any broken gate.
    pub fn table(&self, workload: &str) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let n = match m.samples {
                0 => String::new(),
                n => format!("  (n={n})"),
            };
            out.push_str(&format!(
                "{workload:<16} {:<32} {:>16.6} {}{n}\n",
                m.name, m.value, m.unit
            ));
        }
        for p in &self.phases {
            out.push_str(&format!(
                "{workload:<16} phase {:<12} attempted {} succeeded {} failed {} refused {}\n",
                p.phase, p.attempted, p.succeeded, p.failed, p.refused
            ));
        }
        for v in &self.violations {
            out.push_str(&format!("{workload:<16} INCORRECT: {v}\n"));
        }
        out
    }

    /// The one-line JSON result the pipeline parses.
    pub fn json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::Map(vec![
                        ("value".into(), Value::F64(m.value)),
                        ("unit".into(), Value::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        let v = Value::Map(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::U64(self.attempted())),
            ("failed".into(), Value::U64(self.failed())),
            ("metrics".into(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&v).expect("metrics are finite")
    }
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Last-level cache size in bytes as the kernel reports it (0 if hidden).
pub fn llc_bytes() -> u64 {
    let mut best = 0;
    for idx in 0..8 {
        let base = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
        let Ok(size) = std::fs::read_to_string(format!("{base}/size")) else {
            continue;
        };
        let size = size.trim();
        let (num, mult) = match size.as_bytes().last() {
            Some(b'K') => (&size[..size.len() - 1], 1u64 << 10),
            Some(b'M') => (&size[..size.len() - 1], 1u64 << 20),
            Some(b'G') => (&size[..size.len() - 1], 1u64 << 30),
            _ => (size, 1),
        };
        best = best.max(num.parse::<u64>().unwrap_or(0) * mult);
    }
    best
}

/// The machine facts recorded with each result.
pub fn machine_facts() -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let mut features = Vec::new();
    for (name, on) in [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ] {
        if on {
            features.push(Value::Str(name.into()));
        }
    }
    Value::Map(vec![
        ("nproc".into(), Value::U64(nproc as u64)),
        ("llc_bytes".into(), Value::U64(llc_bytes())),
        ("rustc".into(), Value::Str(rustc)),
        // The build uses the repository's `.cargo/config.toml`
        // (`target-cpu=native`); these are the features that resolved to.
        ("target_cpu".into(), Value::Str("native".into())),
        ("target_features".into(), Value::Seq(features)),
    ])
}

/// The benchmark's scratch directory (`benchmark/out`, git-ignored):
/// weight files for hot swaps, span logs, result files.
pub fn out_dir() -> PathBuf {
    let dir = if std::path::Path::new("benchmark").is_dir() {
        PathBuf::from("benchmark/out")
    } else {
        PathBuf::from("out")
    };
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}
