//! Figure 10: the three BFT applications (KVS, SieveQ, BFT-Fabric ordering)
//! on bare metal, the fastest diverse set, and the slowest diverse set.
//!
//! Workloads (§7.4): KVS under YCSB 50/50 with 4 KiB values; SieveQ with
//! 1 KiB messages (its filtering layers aggregate validated traffic before
//! it reaches the replicated core); Fabric ordering with 1 KiB transactions
//! in 10-transaction blocks.

use bytes::Bytes;
use lazarus_apps::fabric::{submit_op, OrderingService};
use lazarus_apps::kvs::KvsService;
use lazarus_apps::sieveq::{enqueue_op, SieveQService};
use lazarus_apps::ycsb::{YcsbConfig, YcsbWorkload};
use lazarus_bench::{fmt_kops, measure_throughput, print_table, write_metrics_json};
use lazarus_obs::Registry;
use lazarus_testbed::oscatalog::{fastest_set, slowest_set, vm_profile, PerfProfile};
use lazarus_testbed::LatencySummary;
use parking_lot::Mutex;
use std::sync::Arc;

/// SieveQ's front-end layers aggregate this many validated client messages
/// into one ordered operation.
const SIEVEQ_AGGREGATION: usize = 4;

fn kvs_throughput(profiles: &[PerfProfile], registry: &Registry) -> (f64, Option<LatencySummary>) {
    let workload = Arc::new(Mutex::new({
        let mut w = YcsbWorkload::new(YcsbConfig::fig10(), 7);
        w.attach_obs(registry); // op-mix counters: ycsb_ops_total{op=…}
        w
    }));
    measure_throughput(
        profiles,
        || Box::new(KvsService::new()),
        move |_| workload.lock().next_op(),
        250,
        4,
    )
}

fn sieveq_throughput(profiles: &[PerfProfile]) -> f64 {
    // Each ordered op carries SIEVEQ_AGGREGATION filtered 1 KiB messages.
    let body = Bytes::from(vec![0x51u8; 1024 * SIEVEQ_AGGREGATION]);
    let ops = measure_throughput(
        profiles,
        || Box::new(SieveQService::new()),
        move |op| {
            let mut msg = body.to_vec();
            // unique prefix so duplicate suppression never fires
            msg[..8].copy_from_slice(&op.to_be_bytes());
            enqueue_op(&msg)
        },
        250,
        4,
    )
    .0;
    ops * SIEVEQ_AGGREGATION as f64
}

fn fabric_throughput(profiles: &[PerfProfile]) -> f64 {
    measure_throughput(
        profiles,
        || Box::new(OrderingService::new(10)),
        |op| {
            let mut tx = vec![0xFAu8; 1024];
            tx[..8].copy_from_slice(&op.to_be_bytes());
            submit_op(&tx)
        },
        250,
        4,
    )
    .0
}

fn main() {
    println!("=== Figure 10 — BFT applications on BM / fastest / slowest sets ===");
    let registry = Registry::new();
    let configs: [(&str, Vec<PerfProfile>); 3] = [
        ("BM", vec![PerfProfile::bare_metal(); 4]),
        ("fastest", fastest_set().iter().map(|o| vm_profile(*o)).collect()),
        ("slowest", slowest_set().iter().map(|o| vm_profile(*o)).collect()),
    ];

    let mut rows = Vec::new();
    let mut summaries = Vec::new();
    let mut bm: Option<(f64, f64, f64)> = None;
    for (name, profiles) in &configs {
        let (kvs, kvs_summary) = kvs_throughput(profiles, &registry);
        let sieveq = sieveq_throughput(profiles);
        let fabric = fabric_throughput(profiles);
        registry.gauge_with("fig10_ops_s", &[("app", "kvs"), ("config", name)]).set(kvs);
        registry.gauge_with("fig10_ops_s", &[("app", "sieveq"), ("config", name)]).set(sieveq);
        registry.gauge_with("fig10_ops_s", &[("app", "fabric"), ("config", name)]).set(fabric);
        if let Some(s) = kvs_summary {
            registry.gauge_with("fig10_kvs_p99_us", &[("config", name)]).set(s.p99_us as f64);
            summaries.push((*name, s));
        }
        let suffix = match &bm {
            Some((k, s, f)) => format!(
                "   ({:>3.0}% / {:>3.0}% / {:>3.0}% of BM)",
                100.0 * kvs / k,
                100.0 * sieveq / s,
                100.0 * fabric / f
            ),
            None => {
                bm = Some((kvs, sieveq, fabric));
                String::new()
            }
        };
        rows.push((
            name.to_string(),
            format!(
                "{:>8}  {:>10}  {:>8}{suffix}",
                fmt_kops(kvs),
                fmt_kops(sieveq),
                fmt_kops(fabric)
            ),
        ));
    }
    print_table(
        "peak sustained throughput (KVS: ops/s, SieveQ: msgs/s, Fabric: tx/s)",
        ("config", "     KVS      SieveQ    Fabric"),
        &rows,
    );
    println!("\nKVS client latency:");
    for (name, s) in &summaries {
        println!("    {name:<8} {s}");
    }
    println!(
        "\npaper shape: on the fastest set KVS ≈ 86%, SieveQ ≈ 94% and Fabric ≈ 91% of their \
         BM throughput — SieveQ loses the least because its filtering layers run before the \
         replicated state machine; the slowest set drops to 18–53%."
    );
    write_metrics_json("fig10_apps", &registry);
}
