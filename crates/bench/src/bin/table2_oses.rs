//! Table 2: the 17 testbed OS versions and their VM configurations.

use lazarus_bench::{print_table, write_metrics_json};
use lazarus_testbed::oscatalog::table2;

fn main() {
    let registry = lazarus_obs::Registry::new();
    let rows: Vec<(String, String)> = table2()
        .into_iter()
        .map(|e| {
            let id = e.os.short_id();
            registry.gauge_with("table2_cores", &[("os", id.as_str())]).set(e.profile.cores as f64);
            registry
                .gauge_with("table2_memory_gb", &[("os", id.as_str())])
                .set(e.profile.memory_gb as f64);
            (
                format!("{id} ({})", e.os),
                format!("{} cores, {} GB", e.profile.cores, e.profile.memory_gb),
            )
        })
        .collect();
    registry.gauge("table2_oses").set(rows.len() as f64);
    print_table(
        "Table 2 — OSes used in the experiments and their VM configurations",
        ("ID (name)", "VM resources"),
        &rows,
    );
    write_metrics_json("table2_oses", &registry);
}
