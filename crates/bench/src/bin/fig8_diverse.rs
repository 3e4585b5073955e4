//! Figure 8: microbenchmark throughput for the three diverse replica sets
//! of §7.2 — fastest [UB17 UB16 FE24 OS42], one-per-family
//! [UB16 W10 SO10 OB61], and slowest [OB60 OB61 SO10 SO11].

use lazarus_bench::{fmt_kops, microbenchmark, print_table, write_metrics_json};
use lazarus_obs::Registry;
use lazarus_testbed::oscatalog::{
    cross_family_set, fastest_set, slowest_set, vm_profile, PerfProfile,
};

fn main() {
    println!("=== Figure 8 — diverse-set microbenchmark (0/0 and 1024/1024) ===");
    let registry = Registry::new();
    let bm = vec![PerfProfile::bare_metal(); 4];
    let bm_small = microbenchmark(&bm, 0, 1400);
    let bm_large = microbenchmark(&bm, 1024, 600);
    registry.gauge_with("fig8_ops_s", &[("payload", "0"), ("set", "BM")]).set(bm_small);
    registry.gauge_with("fig8_ops_s", &[("payload", "1024"), ("set", "BM")]).set(bm_large);

    let sets = [
        ("fastest [UB17 UB16 FE24 OS42]", fastest_set()),
        ("families [UB16 W10 SO10 OB61]", cross_family_set()),
        ("slowest  [OB60 OB61 SO10 SO11]", slowest_set()),
    ];
    let mut rows = Vec::new();
    for (name, oses) in sets {
        let profiles: Vec<PerfProfile> = oses.iter().map(|o| vm_profile(*o)).collect();
        let t0 = microbenchmark(&profiles, 0, 1400);
        let t1 = microbenchmark(&profiles, 1024, 600);
        let set = name.split_whitespace().next().unwrap_or(name);
        registry.gauge_with("fig8_ops_s", &[("payload", "0"), ("set", set)]).set(t0);
        registry.gauge_with("fig8_ops_s", &[("payload", "1024"), ("set", set)]).set(t1);
        rows.push((
            name.to_string(),
            format!(
                "{:>8}  {:>8}   ({:>3.0}% / {:>3.0}% of BM)",
                fmt_kops(t0),
                fmt_kops(t1),
                100.0 * t0 / bm_small,
                100.0 * t1 / bm_large
            ),
        ));
    }
    rows.push((
        "BM baseline".into(),
        format!("{:>8}  {:>8}", fmt_kops(bm_small), fmt_kops(bm_large)),
    ));
    print_table("throughput (ops/s)", ("set", "     0/0  1024/1024"), &rows);
    println!(
        "\npaper shape: fastest ≈ 39k/11.5k (65%/82% of BM); the cross-family set sits \
         close to the slowest set because BFT progresses at the speed of the 3rd-fastest \
         replica (a single-core Solaris VM); slowest ≈ 6k/2.5k."
    );
    write_metrics_json("fig8_diverse", &registry);
}
