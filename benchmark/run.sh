#!/usr/bin/env bash
# Builds the benchmark offline and runs it. Run from the root of a checkout.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--runs R] [--sets K] [--only "w1 w2"] [--smoke]
#       Every workload in a child process of its own: R timed runs (seeds N,
#       N+1, ...) and one traced run. Results go to benchmark/out/set-<k>.jsonl;
#       with --sets 2 the same is done twice and the two sets are compared,
#       and the exit code is non-zero if a metric regressed or a check failed.
#       --smoke runs every workload for at most a second or two, all checks on.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       One run of one workload (what BENCHMARK.json's command does): a table
#       on standard error, one JSON object as the last line of standard output.
#
#   benchmark/run.sh compare A.jsonl B.jsonl
#   benchmark/run.sh test          # the benchmark's own unit tests
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/benchmark"

export BENCH_OUT="$here/out"
export BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export BENCH_GIT_REV="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"

cargo build --release --offline --quiet --manifest-path "$manifest"

case "${1:-}" in
  test)
    exec cargo test --release --offline --quiet --manifest-path "$manifest"
    ;;
  compare)
    exec "$bin" "$@"
    ;;
esac
for arg in "$@"; do
  if [ "$arg" = "--workload" ]; then
    exec "$bin" "$@"
  fi
done

seed=1 seconds=10 runs=1 sets=1 only="" smoke=""
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --runs) runs="$2"; shift 2 ;;
    --sets) sets="$2"; shift 2 ;;
    --only) only="$2"; shift 2 ;;
    --smoke) smoke="--smoke"; seconds=1; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; sed -n '2,17p' "${BASH_SOURCE[0]}" >&2; exit 2 ;;
  esac
done
workloads="${only:-$("$bin" workloads)}"

mkdir -p "$BENCH_OUT"
failed=0
for set in $(seq 1 "$sets"); do
  file="$BENCH_OUT/set-$set.jsonl"
  : > "$file"
  for workload in $workloads; do
    for run in $(seq 0 $((runs - 1))); do
      "$bin" --workload "$workload" --seed $((seed + run)) --seconds "$seconds" --trace 0 \
        --set "$file" $smoke > /dev/null || failed=1
    done
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 1 \
      --set "$file" $smoke > /dev/null || failed=1
  done
  echo "set $set: $file" >&2
done
if [ "$sets" -ge 2 ]; then
  "$bin" compare "$BENCH_OUT/set-1.jsonl" "$BENCH_OUT/set-2.jsonl" || failed=1
fi
if [ "$failed" -ne 0 ]; then
  echo "run.sh: a check failed or a metric regressed" >&2
fi
exit "$failed"
