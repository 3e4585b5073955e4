//! Figure 9: KVS throughput during a Lazarus-driven reconfiguration
//! (add the new replica, then remove the old one), under a YCSB 50/50
//! workload with 1 KiB values over ~500 MB of state.
//!
//! Two panels, as in the paper:
//! * (a) homogeneous bare metal — replica boot takes >2 minutes;
//! * (b) Lazarus diverse [DE8 OS42 FE26 SO11], adding UB16 (40 s boot) and
//!   removing OS42.
//!
//! Both panels show the two throughput-dip types: state *checkpoints*
//! (periodic snapshot serialization) and the state *transfer* to the
//! joining replica.
//!
//! Usage: `fig9_reconfig [state_mb]` (default 500).
//!
//! With `LAZARUS_TRACE_DIR=<dir>` set, each panel records causal flight
//! streams and dumps `replica_<id>.jsonl` + analyzer outputs into
//! `<dir>/panel_<tag>/`. The rings are bounded, so a long run keeps the
//! *last* `FlightRecorder::DEFAULT_CAPACITY` events per replica — the
//! interesting tail covering the reconfiguration and state transfer.

use bytes::Bytes;
use lazarus_apps::kvs::KvsService;
use lazarus_apps::ycsb::{YcsbConfig, YcsbWorkload};
use lazarus_bench::write_metrics_json;
use lazarus_bft::types::{Epoch, Membership, ReplicaId};
use lazarus_obs::Registry;
use lazarus_testbed::cluster::{SimCluster, SimConfig};
use lazarus_testbed::oscatalog::{by_short_id, reconfig_set, vm_profile, PerfProfile};
use lazarus_testbed::sim::{Micros, SEC};
use parking_lot::Mutex;
use std::sync::Arc;

const WINDOW: Micros = 200 * SEC;

struct Panel {
    name: &'static str,
    /// Short label for metric series (`panel="a"` / `panel="b"`).
    tag: &'static str,
    profiles: Vec<PerfProfile>,
    joiner: PerfProfile,
    /// Which replica leaves (index into the initial four).
    remove: u32,
}

fn run_panel(panel: &Panel, state_mb: usize, registry: &Registry) {
    let membership = Membership::new(Epoch(0), (0..4).map(ReplicaId).collect());
    // Periods are in consensus slots; with ~6 closed-loop clients batches
    // hold a handful of requests, so ~25k slots ≈ 40-60 s between
    // checkpoints — two dips inside the window, as in the paper.
    let cfg = SimConfig { checkpoint_period: 25_000, ..SimConfig::default() };
    let mut sim = SimCluster::new_observed(cfg);
    let trace_dir = std::env::var("LAZARUS_TRACE_DIR").ok();
    if trace_dir.is_some() {
        sim.enable_flight(lazarus_obs::causal::FlightRecorder::DEFAULT_CAPACITY);
    }
    let ballast = state_mb * 1_000_000;
    for (r, p) in panel.profiles.iter().enumerate() {
        sim.add_node(
            ReplicaId(r as u32),
            *p,
            membership.clone(),
            Box::new(KvsService::with_ballast(ballast)),
        );
    }
    let workload = Arc::new(Mutex::new(YcsbWorkload::new(YcsbConfig::fig9(), 11)));
    sim.add_clients(1, 6, membership.clone(), move |_| workload.lock().next_op());

    // Timeline: power the joiner on at t = 10 s (boot runs in the
    // background); reconfigure ADD once it is up; REMOVE 30 s later.
    let boot_at = 10 * SEC;
    let up_at = boot_at + panel.joiner.boot;
    let joined_membership = membership.reconfigured(Some(ReplicaId(4)), None);
    sim.boot_joiner_at(
        boot_at,
        ReplicaId(4),
        panel.joiner,
        joined_membership,
        Box::new(KvsService::new()),
    );
    sim.inject_reconfig_at(up_at + SEC, Epoch(0), Some(ReplicaId(4)), None);
    let remove_at = up_at + 31 * SEC;
    sim.inject_reconfig_at(remove_at, Epoch(1), None, Some(ReplicaId(panel.remove)));
    sim.power_off_at(remove_at + 5 * SEC, ReplicaId(panel.remove));

    sim.run_until(WINDOW);

    println!("\n--- Figure 9{} ---", panel.name);
    println!("boot starts t=10s (boot {}s, background)", panel.joiner.boot / SEC);
    let mut seen = std::collections::HashSet::new();
    for (t, m) in &sim.epoch_changes {
        if !seen.insert(m.epoch) {
            continue; // one line per epoch (each replica reports it)
        }
        if m.epoch == Epoch(1) {
            println!("replica added    t={}s (epoch 1, n={})", t / SEC, m.n());
        } else if m.epoch == Epoch(2) {
            println!("replica removed  t={}s (epoch 2, n={})", t / SEC, m.n());
        }
    }
    for (t, r) in &sim.transfers {
        println!("state transfer done t={}s at {r}", t / SEC);
    }
    println!("{:>6}  {:>10}", "t(s)", "ops/s");
    for (t, thr) in sim.metrics.throughput_series(2 * SEC, WINDOW) {
        println!("{:>6}  {:>10.0}", t / SEC, thr);
    }
    if let Some(summary) = sim.metrics.summary() {
        println!("client latency: {summary}");
    }

    // Fold the panel into the shared report: headline gauges, the raw
    // client-latency distribution, and the replica-side commit latency from
    // the instrumented cluster (all virtual-time).
    let labels = [("panel", panel.tag)];
    registry
        .gauge_with("fig9_peak_ops_s", &labels)
        .set(sim.metrics.peak_throughput(10 * SEC, WINDOW));
    registry.gauge_with("fig9_completed_ops", &labels).set(sim.metrics.completed() as f64);
    registry.gauge_with("fig9_state_transfers", &labels).set(sim.transfers.len() as f64);
    sim.metrics.fill_histogram(&registry.histogram_with("fig9_client_latency_us", &labels));
    if let Some(obs) = sim.obs() {
        let commit = obs.registry.histogram("bft_commit_latency_us").snapshot();
        if let Some(p99) = commit.quantile(0.99) {
            registry.gauge_with("fig9_commit_latency_p99_us", &labels).set(p99 as f64);
        }
    }

    if let Some(dir) = trace_dir {
        let dir = std::path::PathBuf::from(dir).join(format!("panel_{}", panel.tag));
        let streams = sim.flight_streams();
        let queues = sim.queue_samples();
        let analysis = lazarus_bench::flight::dump_traced_with_queues(&dir, &streams, queues)
            .expect("write trace dir");
        println!(
            "trace: {} events, {} committed slots in window, {} orphans, {} queue samples → {}",
            analysis.events.len(),
            analysis.committed_slots().count(),
            analysis.orphans.len(),
            queues.len(),
            dir.display()
        );
    }
}

fn main() {
    let state_mb: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(500);
    println!("=== Figure 9 — KVS throughput during reconfiguration (YCSB 50/50, 1 KiB values, {state_mb} MB state) ===");
    let registry = Registry::new();

    let bare = Panel {
        name: "(a) bare metal (homogeneous)",
        tag: "a",
        profiles: vec![PerfProfile::bare_metal(); 4],
        joiner: PerfProfile::bare_metal(),
        remove: 1,
    };
    run_panel(&bare, state_mb, &registry);

    let lazarus = Panel {
        name: "(b) Lazarus (diverse: DE8 OS42 FE26 SO11, +UB16 −OS42)",
        tag: "b",
        profiles: reconfig_set().iter().map(|o| vm_profile(*o)).collect(),
        joiner: by_short_id("UB16").expect("catalog").profile,
        remove: 1, // OS42
    };
    run_panel(&lazarus, state_mb, &registry);

    println!(
        "\npaper shape: both panels dip at state checkpoints and during the state \
         transfer; the VM (b) boots ~3× faster than bare metal (40 s vs >2 min), so \
         the joiner is ready much earlier, while its transfer runs somewhat slower."
    );
    write_metrics_json("fig9_reconfig", &registry);
    let _ = Bytes::new();
}
