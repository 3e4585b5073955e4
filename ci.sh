#!/usr/bin/env sh
# CI gate — everything the repo promises, in the order it fails fastest.
#
# The build is fully offline (vendored shims, no registry access), so this
# runs on any machine with a stock Rust toolchain: `./ci.sh`.
set -eu

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test"
cargo test -q --workspace

echo "==> no println!/eprintln! in library crates (trace events only; bench exempt)"
offenders=$(grep -rn 'println!(\|eprintln!(' crates/*/src --include='*.rs' \
    | grep -v '^crates/bench/' \
    | grep -v ':[[:space:]]*//' || true)
if [ -n "$offenders" ]; then
    echo "FAIL: raw prints in library crates — route through lazarus-obs tracing:" >&2
    echo "$offenders" >&2
    exit 1
fi
echo "    library crates clean"

echo "==> no unwrap() on the BFT ingress path (malformed input must reject, not panic)"
for f in replica.rs consensus.rs messages.rs client.rs storage.rs batcher.rs; do
    # Only the production half of each module counts — cut at the test module.
    offenders=$(awk '/^(#\[cfg\(test\)\]|mod tests)/{exit} {print FILENAME":"NR": "$0}' \
        "crates/bft/src/$f" | grep '\.unwrap()' | grep -v 'unwrap_or' || true)
    if [ -n "$offenders" ]; then
        echo "FAIL: unwrap() on the ingress path — reject() the message instead:" >&2
        echo "$offenders" >&2
        exit 1
    fi
done
echo "    ingress modules panic-free"

echo "==> no unwrap() in the health streaming fold (a stale producer must clamp, not panic)"
offenders=$(awk '/^(#\[cfg\(test\)\]|mod tests)/{exit} {print FILENAME":"NR": "$0}' \
    crates/obs/src/health.rs | grep '\.unwrap()' | grep -v 'unwrap_or' || true)
if [ -n "$offenders" ]; then
    echo "FAIL: unwrap() in obs::health — fold/evict must be total:" >&2
    echo "$offenders" >&2
    exit 1
fi
echo "    health fold panic-free"

echo "==> determinism: figure bins byte-identical across thread counts"
cargo build --release -q -p lazarus-bench
metrics_dir=$(mktemp -d)
trap 'rm -rf "$metrics_dir"' EXIT
for bin in fig5_strategies fig6_attacks; do
    one=$(LAZARUS_THREADS=1 LAZARUS_METRICS_DIR="$metrics_dir" "target/release/$bin" 10 42 1)
    mv "$metrics_dir/${bin}_metrics.json" "$metrics_dir/${bin}_metrics.t1.json"
    four=$(LAZARUS_THREADS=4 LAZARUS_METRICS_DIR="$metrics_dir" "target/release/$bin" 10 42 1)
    if [ "$one" != "$four" ]; then
        echo "FAIL: $bin output differs between 1 and 4 threads" >&2
        exit 1
    fi
    if ! cmp -s "$metrics_dir/${bin}_metrics.t1.json" "$metrics_dir/${bin}_metrics.json"; then
        echo "FAIL: ${bin}_metrics.json differs between 1 and 4 threads" >&2
        exit 1
    fi
    echo "    $bin: stdout and metrics json identical"
done

echo "==> nemesis smoke: every fault scenario, 2 seeds, zero violations"
LAZARUS_METRICS_DIR="$metrics_dir" target/release/nemesis 2 > /dev/null
echo "    nemesis sweep green"

echo "==> pipelining: the full fault matrix stays green with four slots in flight"
LAZARUS_WINDOW=4 LAZARUS_METRICS_DIR="$metrics_dir" target/release/nemesis 2 > /dev/null
echo "    window=4 nemesis green"

echo "==> causal tracing: streams validate, DAG complete, identical across thread counts"
trace1="$metrics_dir/trace1"
for t in 1 4 8; do
    LAZARUS_THREADS=$t LAZARUS_TRACE_DIR="$metrics_dir/trace$t" \
        LAZARUS_METRICS_DIR="$metrics_dir" \
        target/release/nemesis 1 partition > /dev/null
done
# Validates every JSONL line against the schema (exit 2) and the causal
# DAG for orphan events (exit 1).
target/release/trace_analyze "$trace1" > /dev/null
for t in 4 8; do
    for f in replica_0.jsonl replica_1.jsonl replica_2.jsonl replica_3.jsonl \
             queues.jsonl trace_summary.json trace_chrome.json; do
        if ! cmp -s "$trace1/$f" "$metrics_dir/trace$t/$f"; then
            echo "FAIL: $f differs between 1 and $t threads" >&2
            exit 1
        fi
    done
done
echo "    flight streams schema-clean, orphan-free, thread-count invariant"

echo "==> health ablation: demotion improves heal time, outputs thread-count invariant"
for t in 1 4; do
    mkdir -p "$metrics_dir/health$t"
    LAZARUS_THREADS=$t LAZARUS_METRICS_DIR="$metrics_dir/health$t" \
        target/release/fig_health_ablation mute > /dev/null
done
for f in fig_health_ablation_results.json fig_health_ablation_metrics.json; do
    if ! cmp -s "$metrics_dir/health1/$f" "$metrics_dir/health4/$f"; then
        echo "FAIL: $f differs between 1 and 4 threads" >&2
        exit 1
    fi
done
echo "    ablation green, results and metrics json identical"

echo "==> perf: bench_suite presets thread-count invariant + regression gates vs committed baselines"
# Every number a preset writes (suite file, profiler outputs, the pipeline
# preset's metrics snapshot) is virtual time, so each file must be
# byte-identical at any worker count. The cst preset is also the journal
# recovery smoke: it writes a journal into a temp dir, reopens it, replays,
# and fails unless the interrupted chunked transfer resumed with zero
# re-fetched chunks.
for run in "baseline --smoke" "pipeline --smoke" "cst"; do
    for t in 1 4; do
        out="$metrics_dir/t$t/${run%% *}"
        mkdir -p "$out"
        # shellcheck disable=SC2086 # $run is "<preset> [--smoke]"
        LAZARUS_THREADS=$t LAZARUS_PROFILE_DIR="$out" LAZARUS_METRICS_DIR="$out" \
            target/release/bench_suite $run "$out/BENCH.json" > /dev/null
    done
done
for f in baseline/BENCH.json baseline/profile.json baseline/profile.folded \
    baseline/queues.jsonl pipeline/BENCH.json pipeline/bench_pipeline_metrics.json \
    cst/BENCH.json; do
    if ! cmp -s "$metrics_dir/t1/$f" "$metrics_dir/t4/$f"; then
        echo "FAIL: $f missing, or differs between 1 and 4 threads" >&2
        exit 1
    fi
done
# Gate against the committed baselines: tolerances are per metric suffix
# (_ops_s -10%, _us +15%, _p999_us/_max_us +25%); a genuine perf change
# regenerates results/BENCH_baseline.json with `bench_suite baseline --smoke`
# and results/BENCH_cst.json with `bench_suite cst`.
for preset in baseline cst; do
    target/release/perf_report "results/BENCH_$preset.json" \
        "$metrics_dir/t1/$preset/BENCH.json" > /dev/null
done
# The gate must actually bite: an injected 50% throughput drop has to
# flip the exit code.
sed 's/"throughput_ops_s":[0-9][0-9]*\(\.[0-9][0-9]*\)\{0,1\}/"throughput_ops_s":1.0/g' \
    "$metrics_dir/t1/baseline/BENCH.json" > "$metrics_dir/regressed.json"
if target/release/perf_report results/BENCH_baseline.json \
    "$metrics_dir/regressed.json" > /dev/null 2>&1; then
    echo "FAIL: perf_report passed an injected throughput regression" >&2
    exit 1
fi
# The smoke presets take minutes unoptimised, so the test that compares the
# cells two presets share is ignored by the debug `cargo test` above.
cargo test --release -q -p lazarus-bench --test suite_presets
echo "    presets thread-count invariant, baseline and cst gates green, gate bites"

echo "==> results freshness: the sub-5-second bins still print what results/ holds"
for run in fig2_modifiers fig3_score_evolution "fig6_attacks 500 42" table1_clusters \
    table2_oses ablation_clusters ablation_threshold; do
    bin=${run%% *}
    # shellcheck disable=SC2086 # $run is "<bin> [args]"
    if ! LAZARUS_METRICS_DIR="$metrics_dir" target/release/$run | cmp -s - "results/$bin.txt"; then
        echo "FAIL: target/release/$run no longer prints results/$bin.txt" >&2
        exit 1
    fi
done
echo "    results/*.txt of the quick bins reproduced byte for byte"

echo "==> benchmark: the out-of-workspace package builds, its tests and every workload's checks pass"
# benchmark/ is a standalone package path-depending on crates/* and shims/*
# (see BENCHMARK.json): an API move under a name `benchmark/src/sut.rs`
# uses stops it compiling, and a dependency change rewrites its committed
# lock file — both must fail here, not in the bench pipeline.
bash benchmark/run.sh test
bash benchmark/run.sh --smoke
if ! git diff --quiet -- benchmark BENCHMARK.json; then
    echo "FAIL: building or running the benchmark changed files under benchmark/ or BENCHMARK.json:" >&2
    git diff --stat -- benchmark BENCHMARK.json >&2
    exit 1
fi
echo "    benchmark tests and smoke run green, benchmark/ and BENCHMARK.json untouched"

echo "CI green."
