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
# directory (see scripts/loc.sh).
loc:
    bash scripts/loc.sh
