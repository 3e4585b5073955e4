//! Figure 5: compromised system runs over eight months, five strategies.
//!
//! Protocol (§6.1): learning phase 2014-01-01 onward; execution phase
//! January–August 2018 in monthly slots; 1000 runs per slot; a run is
//! compromised when a single (ground-truth) weakness published that month
//! hits `f + 1 = 2` of its running replicas while unpatched.
//!
//! The paper replays one real history; the synthetic equivalent replays
//! several independent worlds (seeds) and averages them, so a single
//! generated campaign cannot dominate a month.
//!
//! Usage: `fig5_strategies [runs] [base_seed] [worlds]`
//! (defaults: 1000, 42, 5 — `runs` is split across the worlds).

use lazarus_bench::write_metrics_json;
use lazarus_osint::synth::{SyntheticWorld, WorldConfig};
use lazarus_risk::epoch::{EpochConfig, Evaluator, ThreatScope};
use lazarus_risk::strategies::StrategyKind;

fn main() {
    // Unclocked bundle: counter adds and histogram observations commute, and
    // the per-month gauges below are set from this (single) thread in month
    // order — so `fig5_metrics.json` is byte-identical at any LAZARUS_THREADS.
    let obs = lazarus_obs::Obs::unclocked();
    let mut args = std::env::args().skip(1);
    let runs: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1000);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(42);
    let worlds: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(5);
    let runs_per_world = (runs / worlds).max(1);

    println!(
        "=== Figure 5 — compromised runs over eight months          ({worlds} worlds × {runs_per_world} runs/slot, base seed {seed}) ==="
    );
    // World generation + oracle construction is per-seed independent, so it
    // fans out across the worker pool; collection stays in seed order, so
    // the printed figure is byte-identical to a sequential sweep.
    let evals: Vec<Evaluator> = lazarus_risk::par::par_map_indexed(worlds, |w| {
        let world = SyntheticWorld::generate(WorldConfig::paper_study(seed + w as u64));
        Evaluator::new(&world, EpochConfig::paper())
    });

    println!(
        "\n{:<10} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "month", "Lazarus", "CVSSv3", "Common", "Random", "Equal"
    );
    let mut totals = [0.0f64; 5];
    let windows = Evaluator::month_windows(2018, 1, 8);
    for (start, end) in &windows {
        print!("{:<10}", format!("{}-{:02}", start.year(), start.month()));
        let month = format!("{}-{:02}", start.year(), start.month());
        for (i, kind) in StrategyKind::ALL.iter().enumerate() {
            let mut compromised = 0usize;
            let mut total_runs = 0usize;
            for eval in &evals {
                let stats = eval.run_window_observed(
                    *kind,
                    (*start, *end),
                    &ThreatScope::PublishedInWindow,
                    runs_per_world,
                    seed,
                    Some(&obs),
                );
                compromised += stats.compromised;
                total_runs += stats.runs;
            }
            let pct = 100.0 * compromised as f64 / total_runs.max(1) as f64;
            obs.registry
                .gauge_with(
                    "fig5_compromised_pct",
                    &[("month", month.as_str()), ("strategy", kind.name())],
                )
                .set(pct);
            totals[i] += pct;
            print!(" {:>8.1}%", pct);
        }
        println!();
    }
    print!("{:<10}", "mean");
    for t in totals {
        print!(" {:>8.1}%", t / windows.len() as f64);
    }
    println!();
    println!(
        "\npaper shape: Lazarus best overall; Random/Equal worst \
         (\"changing OSes every day with no criteria tends to create unsafe configurations\")."
    );
    write_metrics_json("fig5_strategies", &obs.registry);
}
