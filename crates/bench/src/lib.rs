//! Shared utilities for the experiment harnesses.
//!
//! Every table and figure of the paper has a binary in `src/bin/` named
//! after it (`fig*`, `table*`, and `fem_vs_inference` for §4.3). Binaries
//! print paper-style rows to stdout and write CSV/JSON under `results/`.
//! The default configuration is scaled down to finish in minutes on a
//! laptop; pass `--full` for paper-scale parameters (hours to days —
//! documented per binary).
//!
//! These harnesses reproduce the paper's experiments; they are not the
//! repository's performance record. Speed and regression claims are made
//! with the four-workload benchmark in `benchmark/` (see its README).

pub mod experiments;
pub mod report;

pub use experiments::{ExperimentScale, HarnessArgs};
pub use report::{write_csv, Table};

/// Directory for experiment outputs (created on demand).
pub fn results_dir() -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(
        std::env::var("MGD_RESULTS_DIR").unwrap_or_else(|_| "results".into()),
    );
    std::fs::create_dir_all(&dir).expect("cannot create results dir");
    dir
}
