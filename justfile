# Developer task runner (https://github.com/casey/just).
# `./ci.sh` is the no-dependency equivalent of `just ci`.

# Run the full CI gate.
ci:
    ./ci.sh

# Format the workspace.
fmt:
    cargo fmt --all

# Lint at CI strictness.
clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# Release build.
build:
    cargo build --release --workspace

# Full test suite.
test:
    cargo test -q --workspace

# Distributed-training demo: Eq. 15 worker-count independence through
# the SolverEngine `Parallelism` knob (serial vs 2 vs 4 workers).
train-dist:
    cargo run --release -p mgd-examples --bin distributed_training

# Megavoxel serving demo: train coarse, serve 128^3 across slab ranks
# with halo exchange (Parallelism::SpatialThreads).
serve-megavoxel:
    cargo run --release -p mgd-examples --bin megavoxel_serving

# The four-workload benchmark, end to end: exits non-zero when any
# correctness gate breaks (see benchmark/README.md).
benchmark:
    bash benchmark/run.sh run --seed 1

# Non-blank source lines outside `#[cfg(test)]` items, per top-level
# directory, under crates/, shims/ and examples/ (test-only files under
# `tests/` and `benches/` directories are skipped).
loc:
    #!/usr/bin/env bash
    set -euo pipefail
    find crates shims examples -name '*.rs' -not -path '*/tests/*' -not -path '*/benches/*' -not -path '*/target/*' | sort | xargs awk '
        FNR == 1 { skip = 0 }
        skip == 0 && /^[ \t]*#\[cfg\(test\)\]/ { skip = 1; depth = 0; opened = 0; sub(/^[ \t]*#\[cfg\(test\)\]/, "") }
        skip == 1 {
            o = gsub(/\{/, "{"); c = gsub(/\}/, "}")
            depth += o - c; if (o > 0) opened = 1
            if ((opened && depth <= 0) || (!opened && /;/)) skip = 0
            next
        }
        /[^ \t]/ { split(FILENAME, p, "/"); n[p[1] "/" p[2]]++; total++ }
        END { for (k in n) printf "%7d  %s\n", n[k], k | "sort -k2"; close("sort -k2"); printf "%7d  total\n", total }
    '
