#!/usr/bin/env bash
# Builds mgd-benchmark (release, offline) and forwards every argument to
# it, so callers need no knowledge of cargo flags:
#
#   benchmark/run.sh --workload serve_queue_2d --seed 1 --seconds 15 --trace 0
#   benchmark/run.sh run --seed 1
#
# Run it from the repository root: the root `.cargo/config.toml`
# (`target-cpu=native`) applies by working directory, and BENCHMARK.json is
# read from there. Not `--locked`: a later change to a crate's dependency
# list must not break the benchmark it may not edit.
set -euo pipefail
exec cargo run --release --offline --quiet \
    --manifest-path "$(dirname "$0")/Cargo.toml" -- "$@"
