//! One-shot benchmark suite: runs the repo's representative workloads —
//! echo hot path (two payload sizes), a pipelining-shaped client sweep, a
//! chunked CST join, and a lite reconfiguration — into one
//! schema-versioned `BENCH_suite.json` that `perf_report` diffs against a
//! committed baseline.
//!
//! Every metric in the JSON is virtual-time, so the file is byte-identical
//! across runs and at any `LAZARUS_THREADS` setting. Wall-clock cost goes
//! to stdout only.
//!
//! Usage: `bench_suite [--smoke] [out_path]` (default `BENCH_suite.json`;
//! `--smoke` shrinks client counts, horizons, and state sizes to the CI
//! preset the committed baseline uses).
//!
//! With `LAZARUS_PROFILE_DIR=<dir>` set, the suite also writes the
//! deterministic profiler outputs: `profile.json` (sim-time frames),
//! `profile.folded` (inferno-compatible collapsed stacks), and
//! `queues.jsonl` (per-workload queue samples, concatenated in workload
//! order).

use bytes::Bytes;
use lazarus_bench::perf::Suite;
use lazarus_bench::{measure_throughput_observed, write_bench_json, ThroughputRun};
use lazarus_bft::batcher::BatchPolicy;
use lazarus_bft::service::{BlobService, CounterService};
use lazarus_bft::types::{Epoch, Membership, ReplicaId};
use lazarus_obs::{Profiler, QueueSample};
use lazarus_testbed::cluster::{SimCluster, SimConfig};
use lazarus_testbed::oscatalog::PerfProfile;
use lazarus_testbed::sim::{Micros, MS, SEC};

/// Suite knobs, scaled down by `--smoke`.
struct Preset {
    smoke: bool,
    echo_clients: usize,
    echo_secs: u64,
    sweep_clients: &'static [usize],
    cst_blob: usize,
}

const FULL: Preset = Preset {
    smoke: false,
    echo_clients: 32,
    echo_secs: 3,
    sweep_clients: &[4, 16, 64],
    cst_blob: 1 << 20,
};

const SMOKE: Preset = Preset {
    smoke: true,
    echo_clients: 8,
    echo_secs: 2,
    sweep_clients: &[4, 16],
    cst_blob: 256 << 10,
};

/// Bare metal with boot compressed to 50 ms — join workloads measure the
/// transfer and the reconfiguration, not the BIOS.
fn fast_boot() -> PerfProfile {
    PerfProfile { boot: 50 * MS, ..PerfProfile::bare_metal() }
}

/// Folds one throughput run's client-visible numbers into the suite.
fn push_throughput(suite: &mut Suite, workload: &str, run: &ThroughputRun) {
    suite.push(workload, "throughput_ops_s", run.throughput_ops_s);
    if let Some(s) = run.summary {
        suite.push(workload, "latency_p50_us", s.p50_us as f64);
        suite.push(workload, "latency_p99_us", s.p99_us as f64);
        suite.push(workload, "latency_p999_us", s.p999_us as f64);
        suite.push(workload, "latency_max_us", s.max_us as f64);
        suite.push(workload, "completed_ops", s.count as f64);
    }
}

/// Folds a run's queue-sample peaks into the suite (informational — the
/// backpressure envelope of the workload).
fn push_queue_peaks(suite: &mut Suite, workload: &str, samples: &[QueueSample]) {
    let peak = |f: fn(&QueueSample) -> u64| samples.iter().map(f).max().unwrap_or(0) as f64;
    suite.push(workload, "peak_inbox", peak(|s| s.inbox));
    suite.push(workload, "peak_pending", peak(|s| s.pending));
    suite.push(workload, "peak_decided_gap", peak(|s| s.decided_gap));
    suite.push(workload, "peak_batch_fill", peak(|s| s.batch_fill));
}

/// The §7.1-shaped echo hot path at one payload size.
fn echo_workload(
    preset: &Preset,
    payload: usize,
    workload: &str,
    profiler: &Profiler,
    suite: &mut Suite,
    queues: &mut Vec<QueueSample>,
) {
    let body = Bytes::from(vec![0u8; payload]);
    let run = measure_throughput_observed(
        SimConfig::default(),
        &[PerfProfile::bare_metal(); 4],
        || Box::new(CounterService::new()),
        move |_| body.clone(),
        preset.echo_clients,
        preset.echo_secs,
        Some((profiler, workload)),
    );
    println!(
        "{workload}: {:.0} ops/s ({} clients, {} B payload)",
        run.throughput_ops_s, preset.echo_clients, payload
    );
    push_throughput(suite, workload, &run);
    push_queue_peaks(suite, workload, &run.queues);
    queues.extend_from_slice(&run.queues);
}

/// Pipelining-shaped sweep: throughput vs closed-loop client population,
/// with the queue-depth envelope at each level.
fn sweep_workload(
    preset: &Preset,
    profiler: &Profiler,
    suite: &mut Suite,
    queues: &mut Vec<QueueSample>,
) {
    for &clients in preset.sweep_clients {
        let root = format!("pipeline_c{clients}");
        let run = measure_throughput_observed(
            SimConfig::default(),
            &[PerfProfile::bare_metal(); 4],
            || Box::new(CounterService::new()),
            |_| Bytes::new(),
            clients,
            preset.echo_secs,
            Some((profiler, &root)),
        );
        println!("pipeline c={clients}: {:.0} ops/s", run.throughput_ops_s);
        suite.push("pipeline", &format!("c{clients}_ops_s"), run.throughput_ops_s);
        let peak_inbox = run.queues.iter().map(|s| s.inbox).max().unwrap_or(0);
        let peak_pending = run.queues.iter().map(|s| s.pending).max().unwrap_or(0);
        suite.push("pipeline", &format!("c{clients}_peak_inbox"), peak_inbox as f64);
        suite.push("pipeline", &format!("c{clients}_peak_pending"), peak_pending as f64);
        queues.extend_from_slice(&run.queues);
    }
}

/// Consensus-window sweep in the batch-capped regime (`max_batch` well
/// below the client population), adaptive batching: the throughput of
/// each window depth lands in the baseline so `perf_report` catches a
/// pipelining regression, not just a hot-path one.
fn window_workload(preset: &Preset, suite: &mut Suite) {
    let clients = if preset.smoke { 24 } else { 64 };
    let max_batch = if preset.smoke { 8 } else { 16 };
    for window in [1u64, 2, 4] {
        let cfg = SimConfig {
            window,
            batch_policy: BatchPolicy::Adaptive,
            max_batch,
            ..SimConfig::default()
        };
        let run = measure_throughput_observed(
            cfg,
            &[PerfProfile::bare_metal(); 4],
            || Box::new(CounterService::new()),
            |_| Bytes::new(),
            clients,
            preset.echo_secs,
            None,
        );
        println!("pipeline w={window}: {:.0} ops/s", run.throughput_ops_s);
        suite.push("pipeline", &format!("w{window}_ops_s"), run.throughput_ops_s);
    }
}

/// Chunked CST join: four seeded donors, an empty joiner booting at
/// 350 ms; reports transfer latency and chunk count.
fn cst_workload(
    preset: &Preset,
    profiler: &Profiler,
    suite: &mut Suite,
    queues: &mut Vec<QueueSample>,
) {
    const CHUNK: usize = 64 * 1024;
    const BOOT_AT: Micros = 350 * MS;
    let joiner = ReplicaId(4);
    let membership = Membership::new(Epoch(0), (0..4).map(ReplicaId).collect());
    let cfg =
        SimConfig { cst_chunk_bytes: CHUNK, checkpoint_period: 100_000, ..SimConfig::default() };
    let mut sim = SimCluster::new_observed(cfg);
    sim.attach_profiler(profiler.clone(), "cst");
    for r in 0..4 {
        sim.add_node(
            ReplicaId(r),
            fast_boot(),
            membership.clone(),
            Box::new(BlobService::new(preset.cst_blob)),
        );
    }
    let up_at = BOOT_AT + fast_boot().boot;
    sim.boot_joiner_at(
        BOOT_AT,
        joiner,
        fast_boot(),
        membership.reconfigured(Some(joiner), None),
        Box::new(BlobService::new(0)),
    );
    sim.add_clients(1, 4, membership, |_| Bytes::new());
    sim.run_until(3 * SEC);

    let done = sim
        .transfers
        .iter()
        .find(|(_, r)| *r == joiner)
        .map(|(t, _)| *t)
        .expect("unfaulted transfer completes");
    let snapshot = sim.obs().expect("observed cluster").registry.snapshot();
    let fetched = snapshot
        .counters
        .iter()
        .find(|(n, _)| n == "bft_cst_chunks_fetched_total")
        .map_or(0, |(_, v)| *v);
    println!(
        "cst: {} KiB state, {} chunks, transfer {} us",
        preset.cst_blob / 1024,
        fetched,
        done - up_at
    );
    suite.push("cst", "transfer_us", (done - up_at) as f64);
    suite.push("cst", "chunks", fetched as f64);
    push_queue_peaks(suite, "cst", sim.queue_samples());
    queues.extend_from_slice(sim.queue_samples());
}

/// Lite reconfiguration (fig9-shaped): a joiner is added by epoch change
/// mid-run; reports join timing and the post-join throughput.
fn reconfig_workload(profiler: &Profiler, suite: &mut Suite, queues: &mut Vec<QueueSample>) {
    let membership = Membership::new(Epoch(0), (0..4).map(ReplicaId).collect());
    let cfg = SimConfig { checkpoint_period: 100_000, ..SimConfig::default() };
    let mut sim = SimCluster::new_observed(cfg);
    sim.attach_profiler(profiler.clone(), "reconfig");
    for r in 0..4 {
        sim.add_node(
            ReplicaId(r),
            fast_boot(),
            membership.clone(),
            Box::new(BlobService::new(64 << 10)),
        );
    }
    let boot_at = SEC;
    let up_at = boot_at + fast_boot().boot;
    sim.boot_joiner_at(
        boot_at,
        ReplicaId(4),
        fast_boot(),
        membership.reconfigured(Some(ReplicaId(4)), None),
        Box::new(BlobService::new(0)),
    );
    sim.inject_reconfig_at(up_at + 200 * MS, Epoch(0), Some(ReplicaId(4)), None);
    sim.add_clients(1, 4, membership, |_| Bytes::new());
    let horizon = 4 * SEC;
    sim.run_until(horizon);

    let joined_at = sim
        .epoch_changes
        .iter()
        .find(|(_, m)| m.epoch == Epoch(1))
        .map(|(t, _)| *t)
        .expect("reconfiguration lands");
    let post_ops_s = sim.metrics.throughput(joined_at, horizon);
    println!("reconfig: joined t={} us, post-join {:.0} ops/s", joined_at, post_ops_s);
    suite.push("reconfig", "joined_at_us", joined_at as f64);
    suite.push("reconfig", "post_join_ops_s", post_ops_s);
    suite.push("reconfig", "completed_ops", sim.metrics.completed() as f64);
    push_queue_peaks(suite, "reconfig", sim.queue_samples());
    queues.extend_from_slice(sim.queue_samples());
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_suite.json".to_string();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            other if !other.starts_with('-') => out_path = other.to_string(),
            other => {
                eprintln!("unknown argument {other:?}; usage: bench_suite [--smoke] [out_path]");
                std::process::exit(2);
            }
        }
    }
    let preset = if smoke { SMOKE } else { FULL };
    println!("=== bench_suite ({}) ===", if preset.smoke { "smoke preset" } else { "full preset" });

    let wall_start = std::time::Instant::now();
    let profiler = Profiler::unclocked();
    let mut suite = Suite::new();
    suite.push("meta", "smoke", if preset.smoke { 1.0 } else { 0.0 });
    let mut queues: Vec<QueueSample> = Vec::new();

    echo_workload(&preset, 0, "echo_0b", &profiler, &mut suite, &mut queues);
    echo_workload(&preset, 1024, "echo_1k", &profiler, &mut suite, &mut queues);
    sweep_workload(&preset, &profiler, &mut suite, &mut queues);
    window_workload(&preset, &mut suite);
    cst_workload(&preset, &profiler, &mut suite, &mut queues);
    reconfig_workload(&profiler, &mut suite, &mut queues);

    let profile = profiler.snapshot();
    println!(
        "\nprofiled {} frames, {} sim-us total, wall {:.1}s",
        profile.frames.len(),
        profile.total_sim_us(),
        wall_start.elapsed().as_secs_f64()
    );

    if let Ok(dir) = std::env::var("LAZARUS_PROFILE_DIR") {
        let dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&dir).expect("create profile dir");
        std::fs::write(dir.join("profile.json"), profile.deterministic_json())
            .expect("write profile.json");
        std::fs::write(dir.join("profile.folded"), profile.folded()).expect("write profile.folded");
        let mut body = String::new();
        for sample in &queues {
            body.push_str(&sample.to_jsonl());
            body.push('\n');
        }
        std::fs::write(dir.join("queues.jsonl"), body).expect("write queues.jsonl");
        println!("profile outputs: {}", dir.display());
    }

    match write_bench_json(&out_path, &suite.to_json()) {
        Ok(()) => println!("wrote {out_path}"),
        Err(e) => {
            eprintln!("failed to write {out_path}: {e}");
            std::process::exit(1);
        }
    }
}
