#!/usr/bin/env bash
# CI for the QTurbo reproduction workspace.
#
#   ./ci.sh          # lint + docs + tier-1 build/test + benchmarks + pipebench self-tests
#   ./ci.sh --quick  # skip the benchmarks (lint + docs + tier-1 only)
#
# The benchmarks write BENCH_propagation.json, BENCH_schedule.json,
# BENCH_stepper.json, BENCH_device.json, and BENCH_e2e.json in the repo
# root so the simulator hot path's perf trajectory (constant-Hamiltonian
# kernel, schedule layout reuse, stepper-backend work counts, the
# realization-block device sweep, and the compiler-in-the-loop scenario
# matrix) is tracked across PRs.

set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> clippy unwrap/expect gate (quantum + math + compiler library code)"
# The evolution pipeline AND the compiler crates are panic-free by contract
# (see the Robustness section of crates/quantum/src/lib.rs and the try_*
# entry points of qturbo-aais / qturbo / qturbo-baseline): library code in
# these crates must not grow new unwrap()/expect() calls. The few justified
# sites carry statement-level #[allow]s with a reason. Test modules and doc
# examples are exempt (--lib).
cargo clippy -p qturbo-quantum -p qturbo-math -p qturbo -p qturbo-aais -p qturbo-baseline --lib -- -D warnings -W clippy::unwrap-used -W clippy::expect-used

echo "==> cargo doc --workspace --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> tier-1: cargo build --release && cargo test -q"
# Includes tests/prop_faults.rs — the fault-injection conformance grid
# (every failure class x every stepper backend recovers or errors, never
# panics, never silently wrong).
cargo build --release
cargo test -q

echo "==> tier-1 single-threaded: QTURBO_THREADS=1 cargo test -q"
# Pins the execution layer's worker pool to one thread so pool scheduling
# can never mask a numerical discrepancy: the whole suite must pass with
# the kernels running inline exactly as it does with the pool fanned out.
QTURBO_THREADS=1 cargo test -q

echo "==> tier-1 traced: QTURBO_TRACE=1 cargo test -q"
# Flips the telemetry default on for the whole suite: every traced run must
# produce the same numerics (tests/conformance_telemetry.rs additionally
# pins traced == untraced bitwise and span sums == exact pass counters).
# The traced *wall-time* gate lives in bench_schedule, which times a traced
# dense-ramp batched run against the untraced Taylor bound.
QTURBO_TRACE=1 cargo test -q

if [[ "${1:-}" != "--quick" ]]; then
    echo "==> propagation benchmark (naive vs mask-compiled)"
    cargo run --release -p qturbo-bench --bin bench_propagation

    echo "==> schedule benchmark (recompile-per-segment vs layout reuse + dense-ramp batched gates)"
    # The dense-ramp entries assert the batched multi-segment sweep gates:
    # identical kernel applications, strictly fewer amplitude passes, wall
    # time never worse than per-segment Taylor, 1e-10 pairwise agreement,
    # and Auto within 10% of the best backend including the batched one —
    # plus the traced gate: a telemetry-enabled batched run must match a
    # back-to-back untraced run within the same 2 ms allowance, proving
    # tracing stays off the hot path (and, chained with the batched-vs-
    # taylor bound, that the dense-ramp wall gate holds with tracing on).
    cargo run --release -p qturbo-bench --bin bench_schedule

    echo "==> stepper benchmark (Taylor vs BatchedTaylor vs Krylov vs Chebyshev vs Auto backends)"
    # The bench binary asserts the Auto acceptance gates (never slower than
    # the worst fixed backend, within 10% of the best, on every workload)
    # and the ramp-workload batched gates (identical series, fewer passes,
    # never slower than per-segment Taylor).
    cargo run --release -p qturbo-bench --bin bench_stepper

    echo "==> device benchmark (sequential realizations vs SoA realization block)"
    # The bench binary asserts the realization-block acceptance gates:
    # block and sequential observables agree to 1e-10 on every
    # size x realization-count entry, a seeded block sweep is bitwise
    # reproducible across two runs, the sequential sweep's realization 0
    # is bitwise identical to a standalone run(), and at 16 qubits the
    # block path is at least as fast as sequential at R=16 and at least
    # 1.5x its realizations/sec at R=64.
    cargo run --release -p qturbo-bench --bin bench_device

    echo "==> end-to-end benchmark (compile -> lower -> emulate, QTurbo vs baseline)"
    # The bench binary asserts the compiler-in-the-loop acceptance gates on
    # every cell of the scenario matrix: the mask-compiled fast path agrees
    # with naive dense propagation of the lowered segments to 1e-10
    # infidelity, every lowered schedule compiles to exactly one mask
    # layout, and QTurbo's simulated observable error is no worse than the
    # baseline's (plus tolerance) wherever the baseline yields a solution.
    cargo run --release -p qturbo-bench --bin bench_e2e

    echo "==> pipebench self-tests (compile -> lower -> emulate benchmark)"
    # pipebench is a standalone package (its own workspace, path
    # dependencies on the crates), so the workspace commands above never
    # build it. Its self-tests call the public API the benchmark relies on
    # and check the metric names and units it prints, so an API or metric
    # change surfaces here rather than in a benchmark run.
    cargo test --release --offline --manifest-path pipebench/Cargo.toml
fi

echo "==> CI OK"
