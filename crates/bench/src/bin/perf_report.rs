//! Benchmark-regression gate: diffs two `bench_suite` output files under
//! the per-metric tolerance policy in `lazarus_bench::perf` and prints a
//! verdict table.
//!
//! Usage: `perf_report <baseline.json> <candidate.json> [--tolerance X]`
//!
//! `--tolerance X` (a fraction, e.g. `0.5` = 50 %) replaces every metric's
//! default tolerance — the escape hatch for noisy environments.
//!
//! Exit codes: `0` no gated metric regressed; `1` at least one regressed
//! (dropped beyond tolerance, rose beyond tolerance for latency, or
//! vanished from the candidate); `2` usage or schema error.

use std::path::PathBuf;

use lazarus_bench::perf::{diff, policy_for, Status, Suite};
use lazarus_bench::print_table;

fn main() {
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut tolerance: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tolerance" => {
                let Some(v) = args.next().and_then(|v| v.parse::<f64>().ok()) else {
                    eprintln!("--tolerance expects a fraction, e.g. 0.25");
                    std::process::exit(2);
                };
                tolerance = Some(v);
            }
            other if !other.starts_with('-') => paths.push(PathBuf::from(other)),
            other => {
                eprintln!(
                    "unknown argument {other:?}; usage: perf_report <old> <new> [--tolerance X]"
                );
                std::process::exit(2);
            }
        }
    }
    let [old_path, new_path] = paths.as_slice() else {
        eprintln!("usage: perf_report <old> <new> [--tolerance X]");
        std::process::exit(2);
    };

    let load = |path: &PathBuf| {
        Suite::load(path).unwrap_or_else(|e| {
            eprintln!("perf_report: {e}");
            std::process::exit(2);
        })
    };
    let old = load(old_path);
    let new = load(new_path);
    let report = diff(&old, &new, tolerance);

    let fmt = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.1}"));
    let rows: Vec<(String, String)> = report
        .verdicts
        .iter()
        .map(|v| {
            let change = v.change.map_or("-".to_string(), |c| format!("{:+.1}%", c * 100.0));
            let (tag, gate) = match v.status {
                Status::Ok => ("ok", String::new()),
                Status::Improved => ("IMPROVED", String::new()),
                Status::Regressed => ("REGRESSED", String::new()),
                Status::Info => ("info", " (not gated)".to_string()),
            };
            let tol = policy_for(&v.metric)
                .map(|p| tolerance.unwrap_or(p.tolerance))
                .map_or(String::new(), |t| format!(" tol {:.0}%", t * 100.0));
            (
                format!("{}/{}", v.workload, v.metric),
                format!("{} -> {} ({change}) {tag}{tol}{gate}", fmt(v.old), fmt(v.new)),
            )
        })
        .collect();
    print_table(
        &format!("perf_report — {} vs {}", old_path.display(), new_path.display()),
        ("metric", "old -> new"),
        &rows,
    );

    let regressed = report.regressed_names();
    if regressed.is_empty() {
        println!("\nverdict: PASS ({} metrics compared)", report.verdicts.len());
    } else {
        eprintln!("\nverdict: REGRESSED — {}", regressed.join(", "));
        std::process::exit(1);
    }
}
