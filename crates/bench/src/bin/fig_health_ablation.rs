//! `fig_health_ablation` — does feeding replica health into the control
//! plane's role selection actually buy anything, or is risk-based
//! configuration choice alone enough?
//!
//! Two placement arms under three persistent-Byzantine nemesis scenarios
//! (`mute`, `corrupt`, `equivocate` — replica 0 misbehaves from boot):
//!
//! * **risk-only** — the controller picks the configuration by risk alone
//!   and is blind to runtime roles: the cluster boots at view 0, so the
//!   faulty replica leads until the watchdog heals it.
//! * **risk+health** — a short probe run feeds rolling health snapshots
//!   into [`Controller::ingest_health`]; after the demotion hysteresis,
//!   [`Controller::plan_leader`] names a healthy leader and the
//!   measurement run boots at that replica's view.
//!
//! Headline metric: time-to-heal (first client completion). The stall a
//! bad boot leader causes is bounded by the watchdog, so with 18k+
//! completions per run the log-bucketed p99 barely moves — but the heal
//! time collapses from the watchdog latency to the first commit.
//!
//! Usage: `fig_health_ablation [scenario]` (default: all three).
//! Writes `fig_health_ablation_results.json` next to
//! [`lazarus_bench::metrics_path`] plus the standard `*_metrics.json`;
//! fixed seeds → byte-identical files at any `LAZARUS_THREADS`.

use lazarus_bench::{metrics_path, print_table, write_artifact, write_metrics_json};
use lazarus_core::{Controller, ControllerConfig, HealthPolicy};
use lazarus_obs::Obs;
use lazarus_osint::catalog::study_oses;
use lazarus_osint::datamgr::DataManager;
use lazarus_osint::json::Value;
use lazarus_osint::kb::KnowledgeBase;
use lazarus_testbed::nemesis::{probe_health, run_scenario_placed, PlacedRun};
use lazarus_testbed::sim::{Micros, MS};

/// The three from-boot Byzantine scenarios (fault plans target replica 0).
const SCENARIOS: [&str; 3] = ["mute", "corrupt", "equivocate"];

/// Fault-plan seeds per scenario (results are averaged across them).
const SEEDS: [u64; 2] = [1, 2];

/// Probe instants: after the leader-stall detector's onset
/// ([`lazarus_obs::HealthConfig::stall_after_us`]) but before the
/// watchdog's own view change heals the evidence away (~400 ms). Two
/// snapshots satisfy the demotion hysteresis.
const PROBE_AT: [Micros; 2] = [330 * MS, 390 * MS];

/// Demotion policy for the probe evidence. A Byzantine replica that still
/// *receives* and decides keeps perfect latency sub-scores, so its
/// composite floors near 700 even at stability 0 — the demotion bar must
/// sit above that floor, and the promotion bar below the honest replicas'
/// probe-time scores (~960, liveness mid-decay in a stalled cluster).
const POLICY: HealthPolicy = HealthPolicy {
    demote_score: 850,
    demote_p99_us: 40_000,
    promote_score: 900,
    hysteresis_rounds: 2,
};

struct ArmStats {
    time_to_heal_us: f64,
    completed_total: f64,
    completed_after_heal: f64,
    client_p99_us: f64,
    client_mean_us: f64,
    passed: bool,
}

fn arm_stats(runs: &[PlacedRun]) -> ArmStats {
    let n = runs.len().max(1) as f64;
    let mean = |f: &dyn Fn(&PlacedRun) -> f64| runs.iter().map(f).sum::<f64>() / n;
    ArmStats {
        time_to_heal_us: mean(&|r| r.first_commit_us.unwrap_or(u64::MAX) as f64),
        completed_total: mean(&|r| r.verdict.completed_total as f64),
        completed_after_heal: mean(&|r| r.verdict.completed_after_heal as f64),
        client_p99_us: mean(&|r| r.latency.map_or(f64::NAN, |l| l.p99_us as f64)),
        client_mean_us: mean(&|r| r.latency.map_or(f64::NAN, |l| l.mean_us)),
        passed: runs.iter().all(|r| r.verdict.passed()),
    }
}

fn stats_json(s: &ArmStats) -> Value {
    Value::Object(vec![
        ("time_to_heal_us".into(), Value::Number(s.time_to_heal_us)),
        ("completed_total".into(), Value::Number(s.completed_total)),
        ("completed_after_heal".into(), Value::Number(s.completed_after_heal)),
        ("client_p99_us".into(), Value::Number(s.client_p99_us)),
        ("client_mean_us".into(), Value::Number(s.client_mean_us)),
        ("passed".into(), Value::Bool(s.passed)),
    ])
}

fn main() {
    let filter = std::env::args().nth(1);
    let scenarios: Vec<&str> = match filter.as_deref() {
        None => SCENARIOS.to_vec(),
        Some(name) => {
            assert!(SCENARIOS.contains(&name), "unknown ablation scenario {name:?}");
            vec![name]
        }
    };

    // The controller that consumes the probe evidence. An empty knowledge
    // base is fine: leader planning reads only the ingested health
    // snapshots, never the OSINT plane. Its obs bundle collects the
    // `reconfig_decision` trace events and the demotion counter.
    let ctl_obs = Obs::unclocked();

    let mut rows = Vec::new();
    let mut report = Vec::new();
    let mut improved = 0usize;
    let mut all_passed = true;

    for scenario in &scenarios {
        let mut risk_only = Vec::new();
        let mut risk_health = Vec::new();
        let mut placements = Vec::new();

        for &seed in &SEEDS {
            // Arm A: risk-only placement — boot at view 0, faulty leader.
            risk_only.push(run_scenario_placed(scenario, seed, 0));

            // Arm B: probe, ingest, plan, then boot at the chosen view.
            let mut controller = Controller::new(
                ControllerConfig::new(study_oses()),
                DataManager::new(KnowledgeBase::new()),
            );
            controller.attach_obs(&ctl_obs);
            controller.set_health_policy(POLICY);
            controller.assume_leader(0); // the risk plane's blind placement
            for snapshot in probe_health(scenario, seed, &PROBE_AT) {
                controller.ingest_health(&snapshot);
            }
            let decision = controller.plan_leader();
            println!(
                "{scenario}/{seed}: {} -> leader {} (score {})",
                decision.reason, decision.leader, decision.leader_score
            );
            placements.push((seed, decision));
            let placed_view = u64::from(placements.last().map(|(_, d)| d.leader).unwrap_or(0));
            risk_health.push(run_scenario_placed(scenario, seed, placed_view));
        }

        let a = arm_stats(&risk_only);
        let b = arm_stats(&risk_health);
        all_passed &= a.passed && b.passed;
        let healed_faster = b.time_to_heal_us < a.time_to_heal_us;
        improved += usize::from(healed_faster);
        rows.push((
            (*scenario).to_string(),
            format!(
                "{:>8.0} -> {:>6.0}  ({:+.1}% ops)",
                a.time_to_heal_us,
                b.time_to_heal_us,
                (b.completed_total - a.completed_total) / a.completed_total * 100.0
            ),
        ));
        report.push((
            (*scenario).to_string(),
            Value::Object(vec![
                ("risk_only".into(), stats_json(&a)),
                ("risk_health".into(), stats_json(&b)),
                ("healed_faster".into(), Value::Bool(healed_faster)),
                (
                    "placements".into(),
                    Value::Array(
                        placements
                            .iter()
                            .map(|(seed, d)| {
                                Value::Object(vec![
                                    ("seed".into(), Value::Number(*seed as f64)),
                                    ("decision".into(), Value::String(d.reason.to_string())),
                                    ("leader".into(), Value::Number(f64::from(d.leader))),
                                    (
                                        "demoted".into(),
                                        d.demoted
                                            .map_or(Value::Null, |r| Value::Number(f64::from(r))),
                                    ),
                                    (
                                        "leader_score".into(),
                                        Value::Number(f64::from(d.leader_score)),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
        ));
    }

    print_table(
        "Health ablation: time-to-heal µs, risk-only -> risk+health",
        ("scenario", "heal time"),
        &rows,
    );

    let snapshot = ctl_obs.registry.snapshot();
    let demotions = snapshot
        .counters
        .iter()
        .find(|(name, _)| name == "controller_leader_demotions_total")
        .map_or(0, |&(_, v)| v);
    println!("\ncontroller_leader_demotions_total = {demotions}");

    let results = Value::Object(vec![
        ("seeds".into(), Value::Array(SEEDS.iter().map(|&s| Value::Number(s as f64)).collect())),
        ("probe_at_us".into(), {
            Value::Array(PROBE_AT.iter().map(|&t| Value::Number(t as f64)).collect())
        }),
        ("demotions".into(), Value::Number(demotions as f64)),
        ("scenarios".into(), Value::Object(report)),
    ]);
    let results_path =
        metrics_path("fig_health_ablation").with_file_name("fig_health_ablation_results.json");
    write_artifact(results_path, &results.to_json());
    write_metrics_json("fig_health_ablation", &ctl_obs.registry);

    // The figure's claim, enforced: health-aware placement must heal
    // strictly faster in at least two of the three scenarios (always, when
    // running a single-scenario CI slice), and no arm may lose safety.
    let need = if scenarios.len() == 1 { 1 } else { 2 };
    if improved < need || !all_passed {
        eprintln!("ablation failed: improved={improved}/{need} all_passed={all_passed}");
        std::process::exit(1);
    }
}
