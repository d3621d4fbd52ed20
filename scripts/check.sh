#!/usr/bin/env sh
# The full local gate — the single entrypoint .github/workflows/ci.yml
# mirrors (see README, "CI contract"). Run from anywhere; works fully
# offline against the vendored crates/{rand,proptest,criterion} shims.
#
# The root manifest is both a package and the workspace root, so plain
# `cargo build`/`cargo test` would cover only the facade crate; every step
# here passes --workspace to reach all member crates and binaries.
#
# Each step runs through `step NAME cmd...`, which times it and, on
# failure, names the broken gate before exiting — so a red CI log says
# "FAILED at step <name>" at the bottom instead of burying the culprit.
# A per-step timing summary prints on success.
set -u

cd "$(dirname "$0")/.."

TIMINGS=""

step() {
    step_name="$1"
    shift
    echo "==> ${step_name}: $*"
    step_start=$(date +%s)
    "$@"
    step_status=$?
    step_end=$(date +%s)
    if [ "${step_status}" -ne 0 ]; then
        echo "FAILED at step ${step_name} (exit ${step_status}, $((step_end - step_start))s)" >&2
        exit "${step_status}"
    fi
    TIMINGS="${TIMINGS}$(printf '  %-12s %4ss' "${step_name}" "$((step_end - step_start))")
"
}

# Formatting first: cheapest check, fails fastest.
step fmt cargo fmt --all --check
step build cargo build --release --workspace
# The repository benchmark (repobench/) is its own package and calls the
# library crates' public entry points; building it here turns a change to
# one of them into a CI failure rather than a failed benchmark run.
step repobench cargo build --release --offline --manifest-path repobench/Cargo.toml
step test cargo test -q --workspace
# The adversarial-input suite on its own line so a containment regression
# is visible as such, not buried in the workspace run.
step no_panic cargo test -q --test no_panic
step clippy cargo clippy --workspace --all-targets -- -D warnings
# No new panic sites in the hot-path crates (classfile/vm/core).
step panic_gate sh scripts/panic_gate.sh
# Bench smoke, all eight scenarios against their committed
# BENCH_*.baseline.json; what each gates, its floor and the regression
# budget are in the scenario table (SCENARIOS in crates/bench/src/gate.rs).
step bench_gate sh scripts/bench_gate.sh

echo "All gates passed. Step timings:"
printf '%s' "${TIMINGS}"
