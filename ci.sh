#!/usr/bin/env bash
# Local CI gate — the same checks .github/workflows/ci.yml runs.
#
#   ./ci.sh          # fmt, clippy -D warnings, release build, tests, bench compile
#   ./ci.sh bench    # additionally run the serving benchmark
#                    # (predict_batch vs looped predict throughput)
set -euo pipefail
cd "$(dirname "$0")"

run() { echo "==> $*"; "$@"; }

run cargo fmt --all -- --check
run cargo clippy --workspace --all-targets -- -D warnings
# Doc gate: intra-doc links must resolve (a link to a deleted item fails).
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
run cargo build --release --workspace
run cargo test -q --workspace
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
# Kernel smoke: build the direct-vs-GEMM conv report bin and run its quick
# mode (small sizes; asserts both backends and the determinism check work).
run cargo build --release -p mgd-bench --bin kernel_report
run cargo run --release -p mgd-bench --bin kernel_report -- --quick /tmp/BENCH_kernels_ci.json
# Spatial smoke: slab-decomposed serving must stay bitwise identical to
# the serial forward at 2 and 4 ranks — with halo/compute overlap on and
# off, through the out-of-core streaming (skip-spill) mode, and at f32 to
# tolerance (tests + example + report quick mode).
run cargo test -q -p mgd-integration --test spatial
run cargo run --release -p mgd-examples --bin megavoxel_serving -- --quick --ranks 2
run cargo run --release -p mgd-examples --bin megavoxel_serving -- --quick --ranks 4
run cargo run --release -p mgd-examples --bin megavoxel_serving -- --quick --stream --ranks 2
run cargo run --release -p mgd-bench --bin spatial_report -- --quick /tmp/BENCH_spatial_ci.json
# Serving smoke: concurrent snapshot readers, hot swap, and the
# micro-batching queue must hold their bitwise guarantees, and the load
# harness must run end to end at 2 and 4 worker threads.
run cargo test -q -p mgd-integration --test serving
run cargo run --release -p mgd-serve --bin serving_loadgen -- --quick --threads 2 /tmp/BENCH_serving_ci.json
run cargo run --release -p mgd-serve --bin serving_loadgen -- --quick --threads 4 /tmp/BENCH_serving_ci.json
# Hybrid smoke: certified solving — every strategy must reach tolerance
# under the certified driver (including the NaN-sabotage fallback tests),
# and the wall-clock-to-tolerance report must run in quick mode.
run cargo test -q -p mgd-hybrid
run cargo run --release -p mgd-bench --bin certified_report -- --quick /tmp/BENCH_certified_ci.json
# Certify smoke: the benchmark's certify_3d workload re-verifies every
# certificate on a freshly assembled system. Its single-workload mode exits
# 0 even when a gate fails, so the JSON result line's "correct" is checked.
echo "==> benchmark/run.sh --workload certify_3d --seed 1 --seconds 5 --trace 0"
certify=$(bash benchmark/run.sh --workload certify_3d --seed 1 --seconds 5 --trace 0 | grep '^{')
[[ "$certify" == *'"correct":true'* ]] || { echo "certify_3d smoke failed: $certify"; exit 1; }
# Precision smoke: the f32 serving forward must stay inside Element::
# EQUIV_TOL of f64, the f32 GEMM must actually be faster, and the
# mixed-precision certified solve must reach the same f64 tolerance
# (the report bin asserts all three gates in quick mode).
run cargo run --release -p mgd-bench --bin precision_report -- --quick /tmp/BENCH_precision_ci.json
# Operator-zoo smoke: Poisson dispatch bitwise-identity, identity-tensor
# reduction, SPD validation, stiffness symmetry, plus one tiny anisotropic
# train → compare-vs-FEM → certified solve with a recomputed certificate.
run cargo run --release -p mgd-bench --bin operator_report -- --quick /tmp/BENCH_operators_ci.json
run cargo bench --no-run --workspace

if [[ "${1:-}" == "bench" ]]; then
    run cargo bench -p mgd-bench --bench serving
    # Full kernel comparison, checked in as results/BENCH_kernels.json.
    run cargo run --release -p mgd-bench --bin kernel_report
    # Full spatial-serving report (192³ megavoxel acceptance), checked in
    # as results/BENCH_spatial.json.
    run cargo run --release -p mgd-bench --bin spatial_report
    # Full serving load test (micro-batched vs request-at-a-time), checked
    # in as results/BENCH_serving.json.
    run cargo run --release -p mgd-serve --bin serving_loadgen
    # Full certified-solving report (trains the 64^2 surrogate, reports each
    # strategy's wall-clock to tolerance against pure multigrid), checked
    # in as results/BENCH_certified.json.
    run cargo run --release -p mgd-bench --bin certified_report
    # Full precision report (f32 GEMM/forward speedups, mixed-precision
    # certified solves), checked in as results/BENCH_precision.json.
    run cargo run --release -p mgd-bench --bin precision_report
    # Full operator-zoo report (trains one surrogate per operator, fields
    # vs FEM + certified solves), checked in as results/BENCH_operators.json.
    run cargo run --release -p mgd-bench --bin operator_report
fi

echo "ci: all green"
