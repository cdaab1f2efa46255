#!/usr/bin/env bash
# CI gate: formatting, lints, build, full test suite, the serving smoke
# sweep (deterministic; asserts GLP4NN throughput >= naive), the
# schedule-sanitizer smoke matrix (asserts zero diagnostics across
# 4 nets x 3 dispatch modes under full happens-before checking), the
# plan-linter smoke matrix (symbolic disjointness certificates plus
# performance lints; asserts zero correctness findings and at least one
# certified capture), the
# inter-operator smoke sweep (whole-net wave co-scheduling on branchy
# nets x 3 GPUs; asserts waves beat per-layer GLP4NN everywhere, zero
# sanitizer reports, bitwise-identical trained weights), the
# plan-replay smoke matrix (asserts replayed ExecPlan timelines are
# identical to imperative dispatch for 4 nets x 3 modes), the fleet
# smoke sweep (sanitized multi-replica serving: asserts JSQ >= RR on SLO
# attainment, zero sanitizer reports, and an up-then-down autoscale run;
# emits a fleet Chrome trace), and the telemetry trace smoke (emits
# Chrome traces for 4 nets x 3 modes plus a multi-GPU overlap run, then
# round-trips every emitted file — fleet trace included — through the
# standalone validate-trace binary), and the bench-json emitter (refreshes
# BENCH_fleet.json; asserts the engine-level throughput rows are present).
# The paper's Table 5 and Figs. 7-9 and the serving, sanitize, lint,
# interop, replay, multi-gpu and fleet smokes are deterministic: their
# stdout is diffed byte for byte against tests/golden/<id>.stdout and
# tests/golden/<smoke>_smoke.stdout (regenerate a golden only together
# with an explanation in CHANGES.md).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --workspace --release
cargo test --workspace -q --no-fail-fast
for id in table5 fig7 fig8 fig9; do
  cargo run -p glp4nn-bench --release --bin reproduce -- "$id" |
    diff -u "tests/golden/$id.stdout" -
done
cargo run -p glp4nn-bench --release --bin reproduce -- serving --smoke |
  diff -u tests/golden/serving_smoke.stdout -
cargo run -p glp4nn-bench --release --bin reproduce -- sanitize --smoke |
  diff -u tests/golden/sanitize_smoke.stdout -
cargo run -p glp4nn-bench --release --bin reproduce -- lint --smoke |
  diff -u tests/golden/lint_smoke.stdout -
cargo run -p glp4nn-bench --release --bin reproduce -- interop --smoke |
  diff -u tests/golden/interop_smoke.stdout -
cargo run -p glp4nn-bench --release --bin reproduce -- replay --smoke |
  diff -u tests/golden/replay_smoke.stdout -
cargo run -p glp4nn-bench --release --bin reproduce -- multi-gpu --smoke |
  diff -u tests/golden/multi-gpu_smoke.stdout -
cargo run -p glp4nn-bench --release --bin reproduce -- fleet --smoke |
  diff -u tests/golden/fleet_smoke.stdout -
cargo run -p glp4nn-bench --release --bin reproduce -- trace --smoke
cargo run -p telemetry --release --bin validate-trace -- target/telemetry/*.trace.json

# Simulator throughput rows (the only wall-clock output): the refreshed
# BENCH_fleet.json must carry the engine-level rows so CI history can
# track event-loop throughput regressions.
cargo run -p glp4nn-bench --release --bin reproduce -- bench-json
grep -q '"name": "engine-events-1m"' BENCH_fleet.json
grep -q '"name": "multi-gpu-smoke"' BENCH_fleet.json

echo "ci: all checks passed"
