#!/usr/bin/env bash
# The tier-1 gate: everything a PR must keep green.
# Run from the repository root: ./ci.sh
# Pass --bench-smoke to also exercise the benchmark binaries at reduced
# job counts (no BENCH_*.json is written) so they cannot silently rot,
# and to build and unit-test the repository benchmark (perfbench/, the
# package BENCHMARK.json runs) against the current crates.
# Pass --chaos to additionally sweep the deterministic fault-injection
# suite (tests/chaos_scheduler.rs) across fixed PP_CHAOS_SEED values.
# Pass --analyze to run ONLY the pp-analyze static-analysis gate (fast
# path for pre-commit); the default run includes it too.
# Pass --train-smoke to additionally run the training-job smoke test
# (tests/train_jobs.rs smoke_*) plus the train_coexist bench probe
# proving interactive latency survives a co-resident Train job.
set -euo pipefail

if [[ "${1:-}" == "--analyze" ]]; then
    echo "==> cargo run -p pp-analyze (static analysis only)"
    cargo run -q -p pp-analyze
    echo "ci.sh: analyze passed"
    exit 0
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --release --examples"
cargo build --release --examples

echo "==> cargo test -q"
RUST_BACKTRACE=1 cargo test -q

echo "==> cargo run -p pp-analyze (static analysis)"
cargo run -q -p pp-analyze

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "==> cargo fmt --check"
cargo fmt --check

if [[ "${1:-}" == "--bench-smoke" ]]; then
    echo "==> bench smoke: sampling_bench (8 jobs)"
    PP_BENCH_SMOKE=1 PP_BENCH_JOBS=8 cargo run --release -q -p pp-bench --bin sampling_bench
    echo "==> bench smoke: round_bench (200 jobs)"
    PP_BENCH_SMOKE=1 PP_BENCH_JOBS=200 cargo run --release -q -p pp-bench --bin round_bench
    echo "==> bench smoke: build the repository benchmark (perfbench/)"
    cargo build --release --offline --manifest-path perfbench/Cargo.toml
    echo "==> bench smoke: perfbench unit tests"
    cargo test --release --offline --manifest-path perfbench/Cargo.toml
fi

if [[ "${1:-}" == "--chaos" ]]; then
    # Fixed seeds so a failure is reproducible by rerunning the same
    # seed; seeded_fault_plan_is_always_survivable derives its whole
    # fault schedule (which tenant panics/errors/stalls, at which
    # slot ordinal) from PP_CHAOS_SEED.
    # fleet_router's chaos_ test derives the doomed replica and the
    # job mix from the same seed (replica-loss redistribution).
    for seed in 3 47 20260807; do
        echo "==> chaos sweep: PP_CHAOS_SEED=$seed"
        PP_CHAOS_SEED=$seed RUST_BACKTRACE=1 cargo test -q --test chaos_scheduler
        PP_CHAOS_SEED=$seed RUST_BACKTRACE=1 cargo test -q --test fleet_router chaos_
    done
fi

if [[ "${1:-}" == "--train-smoke" ]]; then
    echo "==> train smoke: tests/train_jobs.rs smoke_"
    RUST_BACKTRACE=1 cargo test -q --test train_jobs smoke_
    echo "==> train smoke: sampling_bench train_coexist probe"
    PP_BENCH_SMOKE=1 PP_BENCH_JOBS=8 PP_BENCH_MODE=train_coexist \
        cargo run --release -q -p pp-bench --bin sampling_bench
fi

echo "ci.sh: all checks passed"
