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

/// Drives one replica per entry of `profiles` on the default [`SimConfig`]
/// under a closed-loop client population for `run_secs` virtual seconds and
/// returns the steady-state throughput in ops/s (after a 1 s warm-up) with
/// the client-side latency percentiles (`None` when nothing completed).
pub fn measure_throughput(
    profiles: &[PerfProfile],
    services: impl Fn() -> Box<dyn Service>,
    payload: impl Fn(u64) -> Bytes + Clone + 'static,
    clients: usize,
    run_secs: u64,
) -> (f64, Option<lazarus_testbed::LatencySummary>) {
    let membership = Membership::new(Epoch(0), (0..profiles.len() as u32).map(ReplicaId).collect());
    let mut sim = SimCluster::new_observed(SimConfig::default());
    for (r, p) in profiles.iter().enumerate() {
        sim.add_node(ReplicaId(r as u32), *p, membership.clone(), services());
    }
    sim.add_clients(1, clients, membership, payload);
    let horizon: Micros = run_secs * SEC;
    sim.run_until(horizon);
    (sim.metrics.throughput(SEC, horizon), sim.metrics.summary())
}

/// The canonical metrics-report path for a figure binary: `<bin>_metrics.json`
/// in the current directory, or under `$LAZARUS_METRICS_DIR` when set.
pub fn metrics_path(bin: &str) -> std::path::PathBuf {
    let dir = std::env::var("LAZARUS_METRICS_DIR").unwrap_or_else(|_| ".".to_string());
    std::path::Path::new(&dir).join(format!("{bin}_metrics.json"))
}

/// Writes `body` to `path` (creating its parent directories) and notes the
/// path on stderr, so a binary's stdout stays exactly its report. A failed
/// write is reported on stderr and exits 1: a run that lost its artifact
/// must not look like a success.
pub fn write_artifact(path: impl AsRef<std::path::Path>, body: &str) {
    let path = path.as_ref();
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, body));
    match written {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

/// Snapshots `registry` and [`write_artifact`]s it to [`metrics_path`]`(bin)`
/// as the sorted JSON exposition.
pub fn write_metrics_json(bin: &str, registry: &lazarus_obs::Registry) {
    write_artifact(metrics_path(bin), &registry.snapshot().to_json());
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
    .0
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
