//! Figure 7: BFT-SMaRt microbenchmark throughput for homogeneous
//! configurations — bare metal plus each of the 17 testbed OSes — under the
//! 0/0 and 1024/1024 workloads.
//!
//! Usage: `fig7_homogeneous [run_secs]` (default 4 virtual seconds per
//! configuration; the paper uses up to 1400 closed-loop clients).

use lazarus_bench::{fmt_kops, microbenchmark, print_table, write_metrics_json};
use lazarus_obs::Registry;
use lazarus_testbed::oscatalog::{table2, PerfProfile};

fn record(registry: &Registry, config: &str, t0: f64, t1: f64) {
    registry.gauge_with("fig7_ops_s", &[("config", config), ("payload", "0")]).set(t0);
    registry.gauge_with("fig7_ops_s", &[("config", config), ("payload", "1024")]).set(t1);
}

fn main() {
    let clients_small = 600;
    let clients_large = 300;
    let registry = Registry::new();

    println!("=== Figure 7 — homogeneous microbenchmark (0/0 and 1024/1024) ===");
    let mut rows = Vec::new();
    let bm = vec![PerfProfile::bare_metal(); 4];
    let t0 = microbenchmark(&bm, 0, clients_small);
    let t1 = microbenchmark(&bm, 1024, clients_large);
    rows.push(("BM".to_string(), format!("{:>8}  {:>8}", fmt_kops(t0), fmt_kops(t1))));
    record(&registry, "BM", t0, t1);
    let bm_small = t0;
    let bm_large = t1;

    for entry in table2() {
        let profiles = vec![entry.profile; 4];
        let t0 = microbenchmark(&profiles, 0, clients_small);
        let t1 = microbenchmark(&profiles, 1024, clients_large);
        record(&registry, &entry.os.short_id(), t0, t1);
        rows.push((
            entry.os.short_id(),
            format!(
                "{:>8}  {:>8}   ({:>3.0}% / {:>3.0}% of BM)",
                fmt_kops(t0),
                fmt_kops(t1),
                100.0 * t0 / bm_small,
                100.0 * t1 / bm_large
            ),
        ));
    }
    print_table("throughput (ops/s)", ("config", "     0/0  1024/1024"), &rows);
    println!(
        "\npaper shape: BM ≈ 60k/17k; Ubuntu/OpenSuse/Fedora ≈ 66%/75% of BM; \
         Debian/Windows/FreeBSD much slower on 0/0 but closer on 1024/1024; \
         single-core Solaris/OpenBSD ≲ 3k with both workloads."
    );
    write_metrics_json("fig7_homogeneous", &registry);
}
