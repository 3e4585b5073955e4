//! The nemesis sweep: every named fault scenario × a seed range, verdicts
//! on safety (agreement, validity, monotone checkpoints) and liveness
//! (commits resume after the fault window closes).
//!
//! The sweep is a pure function of its seeds — rerunning it produces a
//! byte-identical `nemesis_results.json` and metrics snapshot, so any
//! failing `(scenario, seed)` pair is a complete, replayable bug report.
//! Exits non-zero when any run fails.
//!
//! Usage: `nemesis [n_seeds] [scenario]` (defaults: 8 seeds, all of
//! [`lazarus_testbed::nemesis::SCENARIOS`]).
//!
//! With `LAZARUS_TRACE_DIR=<dir>` set, additionally re-runs the first
//! scenario under seed 1 with causal flight recording enabled and dumps
//! per-replica `replica_<id>.jsonl` streams plus the analyzer outputs
//! (`trace_summary.json`, `trace_chrome.json`) into `<dir>` — ready for
//! `trace_analyze` or Perfetto. The dump is deterministic: same scenario
//! and seed → byte-identical files at any `LAZARUS_THREADS`.

use lazarus_bench::{metrics_path, write_artifact, write_metrics_json};
use lazarus_testbed::nemesis::{run_matrix, run_scenario_traced, SCENARIOS};

fn main() {
    let mut args = std::env::args().skip(1);
    let n_seeds: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);
    let filter = args.next();
    let scenarios: Vec<&str> = match &filter {
        Some(name) => {
            let name = name.as_str();
            assert!(
                SCENARIOS.contains(&name),
                "unknown scenario {name:?}; pick one of {SCENARIOS:?}"
            );
            vec![SCENARIOS[SCENARIOS.iter().position(|&s| s == name).expect("checked")]]
        }
        None => SCENARIOS.to_vec(),
    };
    let seeds: Vec<u64> = (1..=n_seeds).collect();

    println!("=== Nemesis sweep — {} scenario(s) x {} seed(s) ===", scenarios.len(), seeds.len());
    let report = run_matrix(&scenarios, &seeds);

    let rows: Vec<(String, String)> = scenarios
        .iter()
        .map(|scenario| {
            let runs: Vec<_> = report.verdicts.iter().filter(|v| v.scenario == *scenario).collect();
            let passed = runs.iter().filter(|v| v.passed()).count();
            let commits: u64 = runs.iter().map(|v| v.commits_checked).sum();
            (
                scenario.to_string(),
                format!("{passed}/{} passed, {commits} commits checked", runs.len()),
            )
        })
        .collect();
    lazarus_bench::print_table("nemesis verdicts", ("scenario", "result"), &rows);

    let results_path = metrics_path("nemesis").with_file_name("nemesis_results.json");
    write_artifact(results_path, &report.to_json().to_json());
    write_metrics_json("nemesis", &report.registry);

    if let Ok(trace_dir) = std::env::var("LAZARUS_TRACE_DIR") {
        let scenario = scenarios[0];
        let traced = run_scenario_traced(scenario, 1);
        let dir = std::path::PathBuf::from(trace_dir);
        let analysis =
            lazarus_bench::flight::dump_traced_with_queues(&dir, &traced.streams, &traced.queues)
                .expect("write trace dir");
        println!(
            "trace ({scenario}, seed 1): {} events, {} committed slots, {} orphans, {} queue samples → {}",
            analysis.events.len(),
            analysis.committed_slots().count(),
            analysis.orphans.len(),
            traced.queues.len(),
            dir.display()
        );
    }

    if !report.passed() {
        eprintln!("\nFAILURES:");
        for v in report.failures() {
            eprintln!(
                "  {}/seed {}: safety_ok={} liveness_ok={} violations={:?}",
                v.scenario, v.seed, v.safety_ok, v.liveness_ok, v.violations
            );
        }
        std::process::exit(1);
    }
    println!("all runs passed");
}
