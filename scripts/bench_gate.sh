#!/usr/bin/env sh
# Bench gate: runs the named covbench scenarios (all eight by default) on
# fixed seeds, writes each report to BENCH_<scenario>.json, and fails on
# the first scenario whose gates fail against BENCH_<scenario>.baseline.json.
#
#   sh scripts/bench_gate.sh [scenario...]
#
# What each scenario measures, its floor and the regression budget live in
# one place: the scenario table, SCENARIOS in crates/bench/src/gate.rs.
# Timings are medians over interleaved repeated runs so one scheduler
# hiccup cannot fail CI; the committed baselines are deliberately
# pessimistic (see their "_note" fields).
set -eu

cd "$(dirname "$0")/.."

[ "$#" -gt 0 ] || set -- coverage harness mutate exec interp scale yield startup

for scenario in "$@"; do
    cargo run --release -q -p classfuzz-bench --bin covbench -- \
        --scenario "$scenario" \
        --out "BENCH_$scenario.json" \
        --baseline "BENCH_$scenario.baseline.json"
done
