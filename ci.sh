#!/usr/bin/env bash
# Local CI gate — the same checks .github/workflows/ci.yml runs.
#
#   ./ci.sh          # fmt, clippy -D warnings, docs, release build, tests,
#                    # smokes, then the benchmark's gates
set -euo pipefail
cd "$(dirname "$0")"

run() { echo "==> $*"; "$@"; }

run cargo fmt --all -- --check
# Shim-API gate: the shims are drop-in stand-ins for crates.io releases, so
# no source file outside shims/ may name what only a shim defines (real
# serde has no `serialize_value`, `deserialize_value` or `serde::Value`).
echo "==> shim-only API outside shims/"
if grep -rnE --include='*.rs' --exclude-dir=shims --exclude-dir=target \
    'serialize_value|deserialize_value|serde::Value' .; then
    echo "ci: shim-only API named outside shims/ (see shims/README.md)"
    exit 1
fi
# Informational: the non-test line count ROADMAP tracks. Gates nothing.
run bash scripts/loc.sh || echo "ci: line count failed (informational only)"
run cargo clippy --workspace --all-targets -- -D warnings
# Doc gate: intra-doc links must resolve (a link to a deleted item fails).
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
run cargo build --release --workspace
run cargo test -q --workspace --no-fail-fast
# Many test threads at once share the one process-wide worker pool, which
# the default run on a 2-core machine never does.
run cargo test -q -p mgd-tensor -p mgd-fem -- --test-threads=16
# Fallback GEMM tiles: the default build targets this host's CPU, so only
# one micro-kernel variant is dispatched to. Pinning the target CPU to AVX2
# and to baseline x86-64 compiles and tests the other two; separate target
# directories keep these builds from invalidating the main one.
for cpu in x86-64-v3 x86-64; do
    run env RUSTFLAGS="-C target-cpu=$cpu" CARGO_TARGET_DIR="target/cpu-$cpu" \
        cargo test -q -p mgd-tensor -p mgd-nn
done
# Distributed smoke: exercise the replicate/shard/all-reduce path end to
# end with 2 and 4 in-process ranks on every push.
run cargo run --release -p mgd-examples --bin distributed_training -- --threads 2
run cargo run --release -p mgd-examples --bin distributed_training -- --threads 4
# Spatial smoke: slab-decomposed serving must stay bitwise identical to
# the serial forward at 2 and 4 ranks — on the overlapped halo path, on
# minimal slabs whose bottleneck conv takes one band (the whole
# halo-extended slab), through the out-of-core streaming (skip-spill)
# mode, and at f32 (tests + example). The streaming smoke also fails if a
# spill file outlives its predict.
run cargo test -q -p mgd-integration --test spatial
run cargo run --release -p mgd-examples --bin megavoxel_serving -- --quick --ranks 2
run cargo run --release -p mgd-examples --bin megavoxel_serving -- --quick --ranks 4
run cargo run --release -p mgd-examples --bin megavoxel_serving -- --quick --stream --ranks 2
# Serving smoke: concurrent snapshot readers, hot swap, and the
# micro-batching queue must hold their bitwise guarantees; a forward that
# panics inside a queue worker must end in a typed error, not a hang.
# `serving` is the queue's one end-to-end example (~5 s after the build).
run cargo test -q -p mgd-integration --test serving
run cargo test -q -p mgd-serve
run cargo run --release -p mgd-examples --bin serving
# Hybrid smoke: certified solving — pure multigrid and the learned
# initial guess must reach tolerance under the certified driver, including
# the NaN-sabotage and wrong-length-guess fallback tests.
# `thermal_composite` is the tensor operator's one end-to-end run outside
# unit tests (train, compare, serve, certify); it asserts its certificate
# (~3 s on a 2-core x86-64 VM).
run cargo test -q -p mgd-hybrid
run cargo run --release -p mgd-examples --bin thermal_composite
# `fem_vs_inference` is the first paper bin run here: FEM (MG-PCG) against
# inference from 64² to 256² and 16³ to 32³, asserting MG-PCG converged at
# every size (~0.6 s at its default scale on a 2-core x86-64 VM).
run cargo run --release -p mgd-bench --bin fem_vs_inference
# `inverse_design` is the one end-to-end caller of `FemLoss::fem_solve`
# (MG-PCG on the loss's validated system); it asserts its FEM solve
# converged (~6 s on a 2-core x86-64 VM).
run cargo run --release -p mgd-examples --bin inverse_design
# Example smokes: `quickstart` is the README's first command (2D training
# through the engine, then a prediction against FEM) and `porous_media_3d`
# the 3D training example; each exits non-zero on a failed step (~3 s each
# on a 2-core x86-64 VM).
run cargo run --release -p mgd-examples --bin quickstart
run cargo run --release -p mgd-examples --bin porous_media_3d
# Benchmark: its own unit tests, then all four workloads end to end. The
# unit-test step is also the public-API gate: the benchmark compiles
# against `Model`, `InferModel`, `Workspace`, the `ServeStats` counters and
# `is_lock_free`, so it fails if any of them changes shape. `run` exits
# non-zero when any correctness gate breaks (frozen loss trajectory,
# queue == direct predict, slab == serial, every certificate re-verified on
# a freshly assembled system); its timings are informational here.
run cargo test --release --offline --manifest-path benchmark/Cargo.toml
run bash benchmark/run.sh run --seed 1

echo "ci: all green"
