//! Ablation: the threshold slack of the adaptive Algorithm-1 threshold.
//!
//! Sweeps `slack` (the margin over the day's minimum achievable risk) and
//! reports Figure-5-style compromise rates plus reconfiguration counts —
//! the safety/churn trade-off behind the paper's `threshold` parameter.
//!
//! Usage: `ablation_threshold [runs] [seed]` (defaults 300, 42).

use lazarus_osint::synth::{SyntheticWorld, WorldConfig};
use lazarus_risk::epoch::{EpochConfig, Evaluator, ThreatScope};
use lazarus_risk::strategies::StrategyKind;

fn main() {
    let mut args = std::env::args().skip(1);
    let runs: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(300);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(42);

    println!("=== Ablation — Algorithm 1 threshold slack ({runs} runs/setting) ===");
    let world = SyntheticWorld::generate(WorldConfig::paper_study(seed));
    let registry = lazarus_obs::Registry::new();
    println!("\n{:<10} {:>12} {:>18}", "slack", "compromised", "reconfigs/run");
    for slack in [2.0, 8.0, 15.0, 30.0, 60.0, 120.0] {
        let cfg = EpochConfig { threshold: slack, ..EpochConfig::paper() };
        let eval = Evaluator::new(&world, cfg);
        let mut compromised = 0usize;
        let mut reconfigs = 0usize;
        for (start, end) in Evaluator::month_windows(2018, 1, 8) {
            let stats = eval.run_window(
                StrategyKind::Lazarus,
                (start, end),
                &ThreatScope::PublishedInWindow,
                runs,
                seed,
            );
            compromised += stats.compromised;
            reconfigs += stats.reconfigurations;
        }
        let total_runs = runs * 8;
        let slack_label = format!("{slack}");
        let labels = [("slack", slack_label.as_str())];
        registry
            .gauge_with("ablation_threshold_compromised_pct", &labels)
            .set(100.0 * compromised as f64 / total_runs as f64);
        registry
            .gauge_with("ablation_threshold_reconfigs_per_run", &labels)
            .set(reconfigs as f64 / total_runs as f64);
        println!(
            "{:<10} {:>11.1}% {:>18.2}",
            slack,
            100.0 * compromised as f64 / total_runs as f64,
            reconfigs as f64 / total_runs as f64
        );
    }
    println!(
        "\nReads with EXPERIMENTS.md: smaller slack buys more reconfigurations (churn) \
         for a modest safety change; the compromise floor is set by hidden (stealth) \
         sharing that no threshold can see."
    );
    lazarus_bench::write_metrics_json("ablation_threshold", &registry);
}
