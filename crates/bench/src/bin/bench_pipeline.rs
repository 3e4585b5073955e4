//! Pipelining benchmark: throughput and client latency across the
//! consensus window sweep (`window ∈ {1, 2, 4, 8}`) crossed with the two
//! batch-sizing policies (fixed vs adaptive), on the echo hot path and the
//! YCSB 50/50 key-value workload.
//!
//! Outputs:
//! - `BENCH_pipeline.json` (or `[out_path]`) — schema-versioned report with
//!   one workload entry per `(workload, window, policy)` cell, diffable by
//!   `perf_report` against a committed baseline.
//! - `bench_pipeline_metrics.json` (under `$LAZARUS_METRICS_DIR` when set)
//!   — the representative cell's observability snapshot plus a
//!   `pipeline_ops_s{workload=…,window=…,policy=…}` gauge per cell.
//!
//! Every number is virtual-time, so both files are byte-identical across
//! runs and at any `LAZARUS_THREADS` setting.
//!
//! Usage: `bench_pipeline [--smoke] [out_path]`.

use bytes::Bytes;
use lazarus_apps::kvs::KvsService;
use lazarus_apps::ycsb::{YcsbConfig, YcsbWorkload};
use lazarus_bench::perf::Suite;
use lazarus_bench::{measure_throughput_observed, write_bench_json, ThroughputRun};
use lazarus_bft::batcher::BatchPolicy;
use lazarus_bft::service::CounterService;
use lazarus_obs::Registry;
use lazarus_testbed::cluster::SimConfig;
use lazarus_testbed::oscatalog::PerfProfile;
use parking_lot::Mutex;
use std::sync::Arc;

/// The window sweep every cell grid covers.
const WINDOWS: [u64; 4] = [1, 2, 4, 8];

/// Bench knobs, scaled down by `--smoke`.
///
/// `max_batch` is deliberately smaller than the client population: a
/// closed-loop load that fits in one batch hides the pipeline entirely
/// (window 1 already decides every pending op per round trip). Capping the
/// batch puts the sweep in the regime the paper's pipelining argument is
/// about — more slots in flight, not bigger batches.
struct Preset {
    smoke: bool,
    max_batch: usize,
    echo_clients: usize,
    echo_secs: u64,
    ycsb_clients: usize,
    ycsb_secs: u64,
}

const FULL: Preset = Preset {
    smoke: false,
    max_batch: 16,
    echo_clients: 64,
    echo_secs: 3,
    ycsb_clients: 64,
    ycsb_secs: 3,
};

const SMOKE: Preset = Preset {
    smoke: true,
    max_batch: 8,
    echo_clients: 24,
    echo_secs: 2,
    ycsb_clients: 24,
    ycsb_secs: 2,
};

fn policy_name(policy: BatchPolicy) -> &'static str {
    match policy {
        BatchPolicy::Fixed => "fixed",
        BatchPolicy::Adaptive => "adaptive",
    }
}

/// Runs one `(workload, window, policy)` cell and folds it into the suite.
fn run_cell(
    preset: &Preset,
    workload: &str,
    window: u64,
    policy: BatchPolicy,
    suite: &mut Suite,
) -> ThroughputRun {
    let cfg = SimConfig {
        window,
        batch_policy: policy,
        max_batch: preset.max_batch,
        ..SimConfig::default()
    };
    let profiles = [PerfProfile::bare_metal(); 4];
    let run = match workload {
        "echo" => measure_throughput_observed(
            cfg,
            &profiles,
            || Box::new(CounterService::new()),
            |_| Bytes::new(),
            preset.echo_clients,
            preset.echo_secs,
            None,
        ),
        _ => {
            let gen = Arc::new(Mutex::new(YcsbWorkload::new(YcsbConfig::fig10(), 7)));
            measure_throughput_observed(
                cfg,
                &profiles,
                || Box::new(KvsService::new()),
                move |_| gen.lock().next_op(),
                preset.ycsb_clients,
                preset.ycsb_secs,
                None,
            )
        }
    };
    let cell = format!("{workload}_w{window}_{}", policy_name(policy));
    println!("{cell}: {:.0} ops/s", run.throughput_ops_s);
    suite.push(&cell, "throughput_ops_s", run.throughput_ops_s);
    if let Some(s) = run.summary {
        suite.push(&cell, "latency_p50_us", s.p50_us as f64);
        suite.push(&cell, "latency_p99_us", s.p99_us as f64);
        suite.push(&cell, "completed_ops", s.count as f64);
    }
    run
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_pipeline.json".to_string();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            other if !other.starts_with('-') => out_path = other.to_string(),
            other => {
                eprintln!("unknown argument {other:?}; usage: bench_pipeline [--smoke] [out_path]");
                std::process::exit(2);
            }
        }
    }
    let preset = if smoke { SMOKE } else { FULL };
    println!("=== bench_pipeline ({} preset) ===", if preset.smoke { "smoke" } else { "full" });
    let wall_start = std::time::Instant::now();

    let mut suite = Suite::new();
    suite.push("meta", "smoke", if preset.smoke { 1.0 } else { 0.0 });

    // The representative cell's registry (echo, window 4, adaptive) anchors
    // the metrics report; the per-cell gauges are added to it below.
    let mut metrics_registry: Option<Registry> = None;
    let mut ops: Vec<(String, u64, &'static str, f64)> = Vec::new();
    for workload in ["echo", "ycsb"] {
        for &window in &WINDOWS {
            for policy in [BatchPolicy::Fixed, BatchPolicy::Adaptive] {
                let run = run_cell(&preset, workload, window, policy, &mut suite);
                ops.push((workload.to_string(), window, policy_name(policy), run.throughput_ops_s));
                if workload == "echo" && window == 4 && policy == BatchPolicy::Adaptive {
                    metrics_registry = Some(run.obs.registry.clone());
                }
            }
        }
    }

    // Headline: the paper-style claim that a deeper window with adaptive
    // batching beats the classic one-slot pipeline.
    for workload in ["echo", "ycsb"] {
        let base = ops
            .iter()
            .find(|(w, win, pol, _)| w == workload && *win == 1 && *pol == "fixed")
            .map(|(_, _, _, v)| *v)
            .unwrap_or(0.0);
        let best = ops
            .iter()
            .filter(|(w, win, pol, _)| w == workload && *win >= 2 && *pol == "adaptive")
            .map(|(_, _, _, v)| *v)
            .fold(0.0f64, f64::max);
        if base > 0.0 {
            println!(
                "{workload}: best pipelined+adaptive {:.0} ops/s vs single-slot {:.0} (+{:.0}%)",
                best,
                base,
                (best / base - 1.0) * 100.0
            );
        }
    }

    let registry = metrics_registry.expect("representative cell ran");
    for (workload, window, policy, v) in &ops {
        registry
            .gauge_with(
                "pipeline_ops_s",
                &[("workload", workload), ("window", &window.to_string()), ("policy", policy)],
            )
            .set(*v);
    }
    match lazarus_bench::write_metrics_json("bench_pipeline", &registry) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write metrics: {e}");
            std::process::exit(1);
        }
    }

    println!("wall {:.1}s", wall_start.elapsed().as_secs_f64());
    match write_bench_json(&out_path, &suite.to_json()) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => {
            eprintln!("failed to write {out_path}: {e}");
            std::process::exit(1);
        }
    }
}
