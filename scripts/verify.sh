#!/usr/bin/env bash
# Tier-1 verification gate: formatting, lints, release build, full tests.
# Run from the repository root: scripts/verify.sh
# Optional: --coverage (or EDGELLM_COVERAGE=1) appends a line-coverage
# run; it fails loudly if no coverage tool is installed.
set -euo pipefail
cd "$(dirname "$0")/.."

WITH_COVERAGE="${EDGELLM_COVERAGE:-0}"
COVERAGE_MODE=check
for arg in "$@"; do
    case "$arg" in
        --coverage) WITH_COVERAGE=1 ;;
        --update-baseline)
            WITH_COVERAGE=1
            COVERAGE_MODE=update
            ;;
        *)
            echo "error: unknown argument '$arg' (supported: --coverage, --update-baseline)" >&2
            exit 2
            ;;
    esac
done

# A bench gate that "passes" because its output file vanished or turned
# to garbage is worse than one that fails: every gate JSON must exist,
# parse, and carry its marker key, or verification stops here. The
# checker is shared with the lab artifact gates (scripts/check_bench.py)
# and self-tests before first use so a broken checker cannot wave
# broken artifacts through.
python3 scripts/check_bench.py selftest
check_bench_json() {
    python3 scripts/check_bench.py validate --key bench "$1"
}

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --release
cargo test -q

# The kernel backend guarantees bit-identical results for every thread
# count; re-run the suite with two workers to hold it to that, and run
# the serving differential suite explicitly — it is the proof that
# continuous batching never changes a single token. The fleet suite
# extends that proof one level up: sharding across workers, rerouting,
# and crash-replay never change a token either.
EDGELLM_THREADS=2 cargo test -q
EDGELLM_THREADS=2 cargo test -q --test serving_equivalence
EDGELLM_THREADS=2 cargo test -q -p edge-llm-fleet --test fleet_equivalence

# Multi-tenant serving promises every tenant the exact tokens a solo run
# with its adapter merged would produce — across mixed batches, packed
# bases, cache evictions, and adapter re-loads. Run the differential
# oracle explicitly with two workers.
EDGELLM_THREADS=2 cargo test -q -p edge-llm --test tenant_equivalence

# Self-speculative decoding promises bit-identity with greedy decode at
# every thread count: run its oracle and property suites explicitly with
# two workers (they also run inside the full suites above).
EDGELLM_THREADS=2 cargo test -q -p edge-llm-model --test decode_equivalence
EDGELLM_THREADS=2 cargo test -q -p edge-llm-model --test spec_properties

# The packed integer GEMM promises bit-identical results scalar-vs-SIMD
# and serial-vs-parallel at every thread count; run its oracle and
# word-boundary property suites explicitly with two workers.
EDGELLM_THREADS=2 cargo test -q -p edge-llm-quant --test parallel_oracle
EDGELLM_THREADS=2 cargo test -q -p edge-llm-quant --test packed_props

# Run the quant oracles again on the release code generation too: it is
# what serves tokens (including the AVX2 instance of the lane kernel), and
# where an i16 lane overflow would wrap silently instead of panicking as
# it does in the debug builds above.
cargo test --release -q -p edge-llm-quant

# The compressed-weight cache must never serve stale bits: run the
# staleness suite explicitly — it mutates through every invalidation
# path (optimizer, masks, schemes, LoRA merge, checkpoint restore) and
# asserts bit-equality with a fresh recompute after each.
cargo test -q -p edge-llm-model --test weight_cache

# Telemetry must be free when off: the binary exits nonzero if the
# disabled instrumentation points cost 1% or more of an adaptation step.
cargo run --release -q --bin bench_telemetry -- BENCH_5.json
check_bench_json BENCH_5.json

# Fleet scaling: the sharded serving fleet must beat a single worker by
# >=1.3x tokens/s on a multi-core box (the binary exits nonzero below
# the bar; on one core it records "gated": false instead — threads
# cannot beat one core and a fake bar only teaches people to ignore red).
cargo run --release -q --bin bench_fleet -- BENCH_6.json
check_bench_json BENCH_6.json

# Self-speculative decoding must beat sequential greedy decode on
# wall-clock tokens/s at the default (depth 1, k 4) point — the binary
# exits nonzero otherwise, and records acceptance-rate counters.
cargo run --release -q --bin bench_spec -- BENCH_7.json
check_bench_json BENCH_7.json

# Multi-tenant adapter serving must share the packed base, not fork it:
# 8 tenants from one base must stay within 1.2x of the single-tenant
# resident weight bytes (the binary exits nonzero above the bar).
cargo run --release -q --bin bench_tenants -- BENCH_8.json
check_bench_json BENCH_8.json

# The packed integer GEMM's lane scaling must hold on the decode hot
# path: W2 decode (the i16 lane kernel) must be at least as fast as W4.
# The lab spec gates that ratio (and records the dense W16 baseline);
# the check holds the run's deterministic metrics to the committed
# baseline (experiments/baselines/igemm.json).
cargo run --release -q --bin edgellm -- \
    lab run --spec experiments/igemm.jsonl --run-id igemm
cargo run --release -q --bin edgellm -- \
    lab check --run .lab/runs/igemm --baseline experiments/baselines/igemm.json

# Declarative experiment gate: run the quick-tier smoke spec through the
# lab runner with two workers, then hold the run to the committed
# generated baseline (experiments/baselines/smoke.json). The run itself
# fails on any differential-oracle miss (repeat identity, A/B variant
# equality); the check additionally fails if any deterministic metric
# drifted from the baseline (exact digest + per-row count/p50) or a
# spec-declared gate regressed. Refresh after an intentional change with:
#   cargo run --release -q --bin edgellm -- lab check \
#     --run .lab/runs/smoke --baseline experiments/baselines/smoke.json --update
EDGELLM_THREADS=2 cargo run --release -q --bin edgellm -- \
    lab run --spec experiments/smoke.jsonl --run-id smoke
python3 scripts/check_bench.py validate --key schema \
    .lab/runs/smoke/run.json \
    .lab/runs/smoke/trials/*/trial_input.json \
    .lab/runs/smoke/trials/*/trial_output.json \
    .lab/runs/smoke/trials/*/timing.json
python3 scripts/check_bench.py validate --key schema --jsonl \
    .lab/runs/smoke/analysis/*.jsonl
cargo run --release -q --bin edgellm -- \
    lab check --run .lab/runs/smoke --baseline experiments/baselines/smoke.json

# Budget check: the quick report tier exists so a laptop can regenerate
# the headline tables in well under a coffee break. Hold it to a
# generous multiple of its measured runtime so a quadratic regression
# in the pipeline or serving engine fails loudly here.
QUICK_BUDGET_S=600
start=$(date +%s)
cargo run --release -q --bin report -- --quick >/dev/null
elapsed=$(( $(date +%s) - start ))
echo "quick report tier: ${elapsed}s (budget ${QUICK_BUDGET_S}s)"
if [ "$elapsed" -gt "$QUICK_BUDGET_S" ]; then
    echo "error: quick report tier exceeded its ${QUICK_BUDGET_S}s budget" >&2
    exit 1
fi

# Opt-in coverage (scripts/verify.sh --coverage, or EDGELLM_COVERAGE=1).
# The tier-1 gate stays coverage-free so the default flow never depends
# on extra tooling; when requested, the measured numbers are gated
# against the per-crate floors in scripts/coverage_baseline.json
# (scripts/check_coverage.py), so a coverage regression fails loudly
# instead of scrolling by. Backend order: cargo-llvm-cov, then
# cargo-tarpaulin (both line coverage), then the in-repo profraw parser
# (scripts/profraw_coverage.py, function coverage) which needs nothing
# beyond rustc + python3 — so --coverage always has a working backend.
# The baseline records which metric seeded it; the checker refuses to
# compare floors across metrics. Refresh the floors with
# --update-baseline and commit the diff.
if [ "$WITH_COVERAGE" = "1" ]; then
    if cargo llvm-cov --version >/dev/null 2>&1; then
        cargo llvm-cov --workspace --json --output-path COVERAGE.json >/dev/null
    elif command -v cargo-tarpaulin >/dev/null 2>&1; then
        cargo tarpaulin --workspace --out Json --output-dir .
        mv tarpaulin-report.json COVERAGE.json
    else
        echo "coverage: no cargo-llvm-cov/tarpaulin; using the profraw fallback" >&2
        rm -rf target/coverage/profraw
        mkdir -p target/coverage/profraw
        RUSTFLAGS="-C instrument-coverage" \
            LLVM_PROFILE_FILE="$PWD/target/coverage/profraw/edgellm-%p-%m.profraw" \
            CARGO_TARGET_DIR=target/coverage cargo test -q --workspace
        python3 scripts/profraw_coverage.py target/coverage/profraw \
            --out COVERAGE.json
    fi
    python3 scripts/check_coverage.py "$COVERAGE_MODE" \
        --report COVERAGE.json --baseline scripts/coverage_baseline.json
fi
