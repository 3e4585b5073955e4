//! Shared harness utilities for the figure/table reproduction binaries.
//!
//! Each paper figure has a `fig*`/`table*` binary in `src/bin/`; they share
//! the microbenchmark driver and table formatting below. Run them all via
//! `cargo run --release -p lazarus-bench --bin <name>`.

#![warn(missing_docs)]

pub mod flight;
pub mod perf;

use bytes::Bytes;
use lazarus_bft::service::Service;
use lazarus_bft::types::{Epoch, Membership, ReplicaId};
use lazarus_testbed::cluster::{SimCluster, SimConfig};
use lazarus_testbed::oscatalog::PerfProfile;
use lazarus_testbed::sim::{Micros, SEC};

/// Steady-state throughput in ops/s of [`measure_throughput_observed`] on
/// the default [`SimConfig`] — the number the figure binaries plot.
pub fn measure_throughput(
    profiles: &[PerfProfile],
    services: impl Fn() -> Box<dyn Service>,
    payload: impl Fn(u64) -> Bytes + Clone + 'static,
    clients: usize,
    run_secs: u64,
) -> f64 {
    let cfg = SimConfig::default();
    measure_throughput_observed(cfg, profiles, services, payload, clients, run_secs, None)
        .throughput_ops_s
}

/// One [`measure_throughput_observed`] run: the headline number plus the
/// raw material for a `*_metrics.json` report.
pub struct ThroughputRun {
    /// Steady-state throughput in ops/s (after a 1 s warm-up).
    pub throughput_ops_s: f64,
    /// Client-side latency percentiles (`None` when nothing completed).
    pub summary: Option<lazarus_testbed::LatencySummary>,
    /// The simulation's observability bundle: wire counters, per-replica
    /// hot-path metrics and the `sim_client_latency_us` histogram, all on
    /// virtual time.
    pub obs: lazarus_obs::Obs,
    /// Queue/backpressure samples taken on each health tick.
    pub queues: Vec<lazarus_obs::QueueSample>,
}

/// Drives one replica per entry of `profiles` on an instrumented cluster
/// under a closed-loop client population for `run_secs` virtual seconds and
/// returns the full [`ThroughputRun`] (throughput measured after a 1 s
/// warm-up). `cfg` is the caller's [`SimConfig`] — the pipelining
/// benchmarks sweep `window` and `batch_policy`; `profiler` optionally
/// charges the run's modeled hot-path costs under a `root` frame — the
/// `bench_suite` hook that lets every workload share one
/// [`lazarus_obs::Profiler`] with per-workload roots.
pub fn measure_throughput_observed(
    cfg: SimConfig,
    profiles: &[PerfProfile],
    services: impl Fn() -> Box<dyn Service>,
    payload: impl Fn(u64) -> Bytes + Clone + 'static,
    clients: usize,
    run_secs: u64,
    profiler: Option<(&lazarus_obs::Profiler, &str)>,
) -> ThroughputRun {
    let membership = Membership::new(Epoch(0), (0..profiles.len() as u32).map(ReplicaId).collect());
    let mut sim = SimCluster::new_observed(cfg);
    if let Some((p, root)) = profiler {
        sim.attach_profiler(p.clone(), root);
    }
    for (r, p) in profiles.iter().enumerate() {
        sim.add_node(ReplicaId(r as u32), *p, membership.clone(), services());
    }
    sim.add_clients(1, clients, membership, payload);
    let horizon: Micros = run_secs * SEC;
    sim.run_until(horizon);
    let obs = sim.obs().expect("observed cluster").clone();
    ThroughputRun {
        throughput_ops_s: sim.metrics.throughput(SEC, horizon),
        summary: sim.metrics.summary(),
        obs,
        queues: sim.queue_samples().to_vec(),
    }
}

/// The canonical metrics-report path for a figure binary: `<bin>_metrics.json`
/// in the current directory, or under `$LAZARUS_METRICS_DIR` when set.
pub fn metrics_path(bin: &str) -> std::path::PathBuf {
    let dir = std::env::var("LAZARUS_METRICS_DIR").unwrap_or_else(|_| ".".to_string());
    std::path::Path::new(&dir).join(format!("{bin}_metrics.json"))
}

/// Snapshots `registry` and writes it to [`metrics_path`]`(bin)` as the
/// sorted JSON exposition; returns the path written.
///
/// # Errors
///
/// Propagates the underlying filesystem error.
pub fn write_metrics_json(
    bin: &str,
    registry: &lazarus_obs::Registry,
) -> std::io::Result<std::path::PathBuf> {
    let path = metrics_path(bin);
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(&path, registry.snapshot().to_json())?;
    Ok(path)
}

/// The §7.1 microbenchmark: an echo service under `payload_size`-byte
/// requests/replies.
pub fn microbenchmark(profiles: &[PerfProfile], payload_size: usize, clients: usize) -> f64 {
    let body = Bytes::from(vec![0u8; payload_size]);
    measure_throughput(
        profiles,
        || Box::new(lazarus_bft::service::CounterService::new()),
        move |_| body.clone(),
        clients,
        3,
    )
}

/// Prints a two-column numeric table with a caption.
pub fn print_table(caption: &str, header: (&str, &str), rows: &[(String, String)]) {
    println!("\n=== {caption} ===");
    let w = rows.iter().map(|(a, _)| a.len()).chain([header.0.len()]).max().unwrap_or(8) + 2;
    println!("{:<w$}{}", header.0, header.1);
    for (a, b) in rows {
        println!("{a:<w$}{b}");
    }
}

/// Writes a machine-readable benchmark report as compact JSON.
///
/// Used by `bench_hotpath` to emit `BENCH_hotpath.json`; the value keeps
/// insertion order, so reports diff cleanly between runs.
///
/// # Errors
///
/// Propagates the underlying filesystem error.
pub fn write_bench_json(path: &str, report: &lazarus_osint::json::Value) -> std::io::Result<()> {
    if let Some(parent) = std::path::Path::new(path).parent().filter(|p| !p.as_os_str().is_empty())
    {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, report.to_json())
}

/// Formats an ops/s figure the way the paper's plots label them.
pub fn fmt_kops(value: f64) -> String {
    if value >= 10_000.0 {
        format!("{:.1}k", value / 1000.0)
    } else if value >= 1_000.0 {
        format!("{:.2}k", value / 1000.0)
    } else {
        format!("{value:.0}")
    }
}
