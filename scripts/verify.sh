#!/usr/bin/env bash
# Full verification gate: build, tests, formatting, lints.
# Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

# --chaos: fault-tolerance smoke slice only. Seeded chaos soaks must end
# consistent with non-zero SessionStats (the faults really happened),
# partitions must heal and resume, a partition past the retry budget must
# be reaped alike on every substrate, a small ring must evict, and clean
# runs must report exactly zero coping counters (supervision is invisible
# when nothing goes wrong).
if [[ "${1:-}" == "--chaos" ]]; then
  echo "== chaos smoke =="
  cargo test -q -p seve --release --test fault_matrix -- \
    chaos partition give_up evict clean_runs_have_zero_coping_counters
  echo "verify.sh --chaos: fault-tolerance smoke passed"
  exit 0
fi

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test -q --workspace

echo "== driver equivalence smoke =="
# Same seed through the discrete-event simulator and the threaded
# in-process backend must agree (bit-identical for one client).
cargo test -q -p seve --release --test driver_equivalence

echo "== event-queue equivalence smoke =="
# A dense 128-avatar session driven by the timer wheel must be
# bit-identical (digests, bytes, response samples, duration) to the heap.
cargo test -q -p seve --release --test determinism -- timer_wheel_and_heap_agree

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== bench smoke =="
cargo bench --workspace --no-run
scripts/bench.sh --smoke

echo "verify.sh: all checks passed"
