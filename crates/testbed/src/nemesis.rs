//! The nemesis harness: named fault scenarios swept across seeds, with a
//! machine-readable verdict matrix.
//!
//! Each scenario builds a [`FaultPlan`] parameterized by a seed, runs a
//! 4-replica cluster under it with an [`InvariantChecker`] attached, and
//! reduces the outcome to a [`RunVerdict`]: were the safety invariants
//! (agreement, validity, monotone checkpoints) preserved, and did the
//! cluster resume committing client operations after the fault window
//! closed? [`run_matrix`] aggregates verdicts and folds counters into a
//! [`Registry`] so the sweep is visible through the same metrics pipeline
//! as every other binary. The whole harness is a pure function of its
//! seeds: rerunning a sweep yields byte-identical JSON and Prometheus
//! snapshots, so a failing `(scenario, seed)` pair is a complete bug
//! report.

use std::path::PathBuf;

use bytes::Bytes;

use lazarus_bft::service::{BlobService, CounterService, Service};
use lazarus_bft::types::{Epoch, Membership, ReplicaId};
use lazarus_obs::causal::FlightEvent;
use lazarus_obs::profile::QueueSample;
use lazarus_obs::{HealthSnapshot, Registry, Snapshot};
use lazarus_osint::json::Value;

use crate::cluster::{SimCluster, SimConfig};
use crate::faults::{ByzMode, DiskFaults, FaultPlan, FaultStats, InvariantChecker, LinkFaults};
use crate::metrics::LatencySummary;
use crate::oscatalog::PerfProfile;
use crate::sim::{Micros, MS, SEC};

/// Every named fault scenario, in sweep order.
pub const SCENARIOS: &[&str] = &[
    "lossy",
    "partition",
    "leader-crash",
    "equivocate",
    "corrupt",
    "mute",
    "crash-torn-write",
    "rejoin-partition",
    "corrupt-chunk",
];

/// Virtual horizon of one nemesis run.
pub const HORIZON: Micros = 3 * SEC;
/// Link faults / partitions / crashes begin here…
pub const FAULT_FROM: Micros = 300 * MS;
/// …and heal here (Byzantine modes persist — f = 1 must be tolerated
/// without any heal).
pub const FAULT_UNTIL: Micros = 1500 * MS;
/// Liveness is judged on completions inside `[LIVENESS_FROM, HORIZON)`.
pub const LIVENESS_FROM: Micros = 2 * SEC;

/// The fault plan of a named scenario. Panics on an unknown name (the
/// harness owns the vocabulary; see [`SCENARIOS`]).
pub fn fault_plan(scenario: &str, seed: u64) -> FaultPlan {
    let plan = FaultPlan::new(seed);
    match scenario {
        // A lossy, jittery, duplicating network between all replicas.
        "lossy" => plan.lossy_links(LinkFaults::lossy()).fault_window(FAULT_FROM, FAULT_UNTIL),
        // Split 2|2: no side holds a quorum, so the cluster stalls
        // entirely until the heal.
        "partition" => plan.partition(vec![ReplicaId(0), ReplicaId(1)], FAULT_FROM, FAULT_UNTIL),
        // The initial leader loses power mid-run and returns after the
        // window; the survivors must elect leader 1 and keep committing.
        "leader-crash" => plan.crash_restart(ReplicaId(0), FAULT_FROM, FAULT_UNTIL),
        // The initial leader proposes conflicting batches to the two
        // halves of the cluster for the whole run.
        "equivocate" => plan.byzantine(ReplicaId(0), ByzMode::Equivocate),
        // The initial leader corrupts every payload it sends.
        "corrupt" => plan.byzantine(ReplicaId(0), ByzMode::CorruptPayload),
        // The initial leader sends nothing at all.
        "mute" => plan.byzantine(ReplicaId(0), ByzMode::Mute),
        // A journal-backed replica loses power mid-run with a torn final
        // journal write, loses all volatile state, and must reboot from
        // its journal to a quorum-certified stable checkpoint.
        "crash-torn-write" => plan
            .crash_reboot(ReplicaId(2), 600 * MS, 1200 * MS)
            .disk_faults(DiskFaults { torn_write_max_bytes: 24, ..DiskFaults::default() }),
        // A joiner fetches a multi-MB snapshot in chunks while the cluster
        // is partitioned (its donors are on the minority side) and the
        // joiner itself crashes mid-transfer; verified chunks survive the
        // outage and the transfer resumes without re-fetching them.
        "rejoin-partition" => plan
            .partition(vec![ReplicaId(0), ReplicaId(1)], FAULT_FROM, FAULT_UNTIL)
            .crash_restart(ReplicaId(4), JOINER_UP + 10 * MS, 700 * MS),
        // Every fourth CST chunk reply is flipped in flight; the joiner
        // must reject each bad chunk by manifest digest and re-request it
        // from another source until the transfer completes.
        "corrupt-chunk" => {
            plan.disk_faults(DiskFaults { corrupt_chunk_p: 0.25, ..DiskFaults::default() })
        }
        other => panic!("unknown nemesis scenario {other:?}"),
    }
}

/// When the storage scenarios' joiner powers on…
const JOINER_BOOT: Micros = 350 * MS;
/// …and when it is up ([`PerfProfile::fast_boot`]).
const JOINER_UP: Micros = 400 * MS;

/// Scratch journal directory for one durable replica of one run.
fn journal_dir(scenario: &str, seed: u64, replica: u32) -> PathBuf {
    std::env::temp_dir()
        .join(format!("lazarus_nemesis_{}_{scenario}_{seed}_r{replica}", std::process::id()))
}

/// The outcome of one `(scenario, seed)` run.
#[derive(Debug, Clone)]
pub struct RunVerdict {
    /// Scenario name.
    pub scenario: String,
    /// Fault-plan seed.
    pub seed: u64,
    /// No agreement / validity / checkpoint violation.
    pub safety_ok: bool,
    /// Client operations completed after the fault window closed.
    pub liveness_ok: bool,
    /// Rendered violations (empty when the run passed).
    pub violations: Vec<String>,
    /// Client operations completed over the whole run.
    pub completed_total: usize,
    /// Client operations completed in the post-heal window.
    pub completed_after_heal: usize,
    /// Commits that went through agreement/validity checking.
    pub commits_checked: u64,
    /// Injection counters of the run's fault plan.
    pub stats: FaultStats,
}

impl RunVerdict {
    /// Safety and liveness both held.
    pub fn passed(&self) -> bool {
        self.safety_ok && self.liveness_ok
    }
}

/// Runs one scenario under one seed and returns its verdict.
pub fn run_scenario(scenario: &str, seed: u64) -> RunVerdict {
    run_sim(scenario, seed, Instrument::None, 0).0
}

/// A traced nemesis run: the verdict plus everything the offline trace
/// analyzer consumes.
#[derive(Debug)]
pub struct TracedRun {
    /// The run's verdict (identical to the untraced run's — recording
    /// observes the simulation without perturbing it).
    pub verdict: RunVerdict,
    /// Per-replica flight streams, sorted by node id.
    pub streams: Vec<(u32, Vec<FlightEvent>)>,
    /// Metrics snapshot of the run (sim-time clock), for cross-checking
    /// analyzer anomaly counts against `bft_*` counters.
    pub snapshot: Snapshot,
    /// Final health reduction of the run (the online ticks already counted
    /// anomaly onsets into the snapshot above).
    pub health: HealthSnapshot,
    /// Queue/backpressure samples taken on each health tick, in sample
    /// order (time-major, node-minor).
    pub queues: Vec<QueueSample>,
}

/// Ring capacity for traced nemesis runs. A 3 s scenario at full tilt
/// records a few hundred thousand events per replica; the ring must hold
/// the whole run or evicted parents surface as analyzer orphans. The
/// ring allocates lazily, so oversizing costs nothing on short runs.
pub const TRACE_CAPACITY: usize = 1 << 20;

/// As [`run_scenario`], but with the obs bundle and causal flight
/// recorders enabled: returns the verdict plus the per-replica event
/// streams and the metrics snapshot. Fixed `(scenario, seed)` input yields
/// byte-identical streams at any `LAZARUS_THREADS` setting.
pub fn run_scenario_traced(scenario: &str, seed: u64) -> TracedRun {
    let (verdict, sim) = run_sim(scenario, seed, Instrument::Traced, 0);
    let streams = sim.flight_streams();
    let snapshot = sim.obs().expect("traced runs are observed").registry.snapshot();
    let health = sim.health_snapshot().expect("traced runs are observed");
    let queues = sim.queue_samples().to_vec();
    TracedRun { verdict, streams, snapshot, health, queues }
}

/// An observed run at a chosen leader placement: the verdict plus the
/// metrics and health evidence the control plane consumes.
#[derive(Debug)]
pub struct PlacedRun {
    /// The run's verdict.
    pub verdict: RunVerdict,
    /// Metrics snapshot of the run (sim-time clock).
    pub snapshot: Snapshot,
    /// Final health reduction of the run.
    pub health: HealthSnapshot,
    /// Completion time of the first client operation — under a from-boot
    /// fault, the placement's time-to-heal.
    pub first_commit_us: Option<Micros>,
    /// Exact (unbucketed) client-latency percentiles of the whole run.
    pub latency: Option<LatencySummary>,
}

/// As [`run_scenario`], but observed (metrics + health, no flight rings)
/// and booting every replica at `initial_view` — the control plane's
/// leader-placement knob: leader of view `v` is `replicas[v % n]`, while
/// the fault plan keeps targeting replica 0 regardless.
pub fn run_scenario_placed(scenario: &str, seed: u64, initial_view: u64) -> PlacedRun {
    let (verdict, sim) = run_sim(scenario, seed, Instrument::Observed, initial_view);
    let snapshot = sim.obs().expect("placed runs are observed").registry.snapshot();
    let health = sim.health_snapshot().expect("placed runs are observed");
    let first_commit_us = sim.metrics.first_completion();
    let latency = sim.metrics.summary();
    PlacedRun { verdict, snapshot, health, first_commit_us, latency }
}

/// Runs the opening `at.last()` microseconds of an *observed* scenario at
/// the default placement (view 0, so the fault plan's target leads) and
/// returns one health snapshot per instant in `at` (ascending). This is
/// the probe evidence a control plane ingests before planning a leader
/// placement: short, cheap, and a pure function of `(scenario, seed, at)`.
pub fn probe_health(scenario: &str, seed: u64, at: &[Micros]) -> Vec<HealthSnapshot> {
    let mut sim = build_sim(scenario, seed, Instrument::Observed, 0);
    at.iter()
        .map(|&t| {
            sim.run_until(t);
            sim.health_snapshot().expect("probe runs are observed")
        })
        .collect()
}

/// Instrumentation level of a nemesis run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Instrument {
    /// Bare simulation — fastest, verdict only.
    None,
    /// Obs bundle (metrics + health) on the sim clock.
    Observed,
    /// Obs bundle plus per-replica causal flight rings.
    Traced,
}

fn build_sim(scenario: &str, seed: u64, instrument: Instrument, initial_view: u64) -> SimCluster {
    let membership = Membership::new(Epoch(0), (0..4).map(ReplicaId).collect());
    let mut cfg = SimConfig { initial_view, ..SimConfig::default() };
    // `LAZARUS_WINDOW=w` runs the whole nemesis matrix with a consensus
    // pipeline of `w` slots in flight — the fault scenarios then exercise
    // out-of-order decisions, window abandonment on view change, and CST
    // with a partially decided window. Unset (or 1) is the classic pipeline.
    if let Ok(w) = std::env::var("LAZARUS_WINDOW") {
        if let Ok(w) = w.parse::<u64>() {
            cfg.window = w.max(1);
        }
    }
    if scenario == "crash-torn-write" {
        // The journal scenario needs checkpoints stabilizing (and hence
        // compaction running) well before the 600 ms crash.
        cfg.checkpoint_period = 25;
    }
    if matches!(scenario, "rejoin-partition" | "corrupt-chunk") {
        // Fine-grained chunks: a multi-MB blob becomes dozens of chunk
        // replies, so corruption/resume paths get real traffic.
        cfg.cst_chunk_bytes = 64 * 1024;
    }
    let mut sim = match instrument {
        Instrument::None => SimCluster::new(cfg),
        Instrument::Observed => SimCluster::new_observed(cfg),
        Instrument::Traced => {
            let mut sim = SimCluster::new_observed(cfg);
            sim.enable_flight(TRACE_CAPACITY);
            sim
        }
    };
    sim.install_checker(InvariantChecker::new());
    match scenario {
        "crash-torn-write" => {
            for r in 0..4 {
                let dir = journal_dir(scenario, seed, r);
                let _ = std::fs::remove_dir_all(&dir);
                sim.register_scratch(dir.clone());
                sim.add_durable_node(
                    ReplicaId(r),
                    PerfProfile::fast_boot(),
                    membership.clone(),
                    &dir,
                    Box::new(|| Box::new(CounterService::new()) as Box<dyn Service>),
                )
                .expect("journal opens under the temp dir");
            }
        }
        "rejoin-partition" | "corrupt-chunk" => {
            let blob = if scenario == "rejoin-partition" { 4 << 20 } else { 1 << 20 };
            for r in 0..4 {
                sim.add_node(
                    ReplicaId(r),
                    PerfProfile::fast_boot(),
                    membership.clone(),
                    Box::new(BlobService::new(blob)),
                );
            }
            // The joiner starts empty and must chunk-fetch the multi-MB
            // snapshot from the live donors.
            sim.boot_joiner_at(
                JOINER_BOOT,
                ReplicaId(4),
                PerfProfile::fast_boot(),
                membership.reconfigured(Some(ReplicaId(4)), None),
                Box::new(BlobService::new(0)),
            );
        }
        _ => {
            for r in 0..4 {
                sim.add_node(
                    ReplicaId(r),
                    PerfProfile::bare_metal(),
                    membership.clone(),
                    Box::new(CounterService::new()),
                );
            }
        }
    }
    sim.install_faults(fault_plan(scenario, seed));
    sim.add_clients(1, 8, membership, |_| Bytes::new());
    sim
}

fn run_sim(
    scenario: &str,
    seed: u64,
    instrument: Instrument,
    initial_view: u64,
) -> (RunVerdict, SimCluster) {
    let mut sim = build_sim(scenario, seed, instrument, initial_view);
    sim.run_until(HORIZON);

    let completed_total = sim.metrics.completed();
    let window_s = (HORIZON - LIVENESS_FROM) as f64 / SEC as f64;
    let completed_after_heal =
        (sim.metrics.throughput(LIVENESS_FROM, HORIZON) * window_s).round() as usize;
    let checker = sim.checker_mut().expect("installed above");
    let safety_ok = checker.ok();
    checker.assert_liveness(completed_after_heal);
    let violations: Vec<String> = checker.violations().iter().map(|v| v.to_string()).collect();
    let liveness_ok = completed_after_heal > 0;
    let commits_checked = checker.commits_checked();
    let verdict = RunVerdict {
        scenario: scenario.to_string(),
        seed,
        safety_ok,
        liveness_ok,
        violations,
        completed_total,
        completed_after_heal,
        commits_checked,
        stats: sim.fault_stats().expect("installed above"),
    };
    (verdict, sim)
}

/// A full sweep: every verdict plus the aggregated metrics registry.
#[derive(Debug)]
pub struct NemesisReport {
    /// One verdict per `(scenario, seed)`, scenario-major order.
    pub verdicts: Vec<RunVerdict>,
    /// Aggregated sweep metrics (runs, passes, fault injections,
    /// violations) for `<bin>_metrics.json` / Prometheus export.
    pub registry: Registry,
}

impl NemesisReport {
    /// True when every run passed.
    pub fn passed(&self) -> bool {
        self.verdicts.iter().all(RunVerdict::passed)
    }

    /// Verdicts that failed safety or liveness.
    pub fn failures(&self) -> Vec<&RunVerdict> {
        self.verdicts.iter().filter(|v| !v.passed()).collect()
    }

    /// The deterministic `nemesis_results.json` document.
    pub fn to_json(&self) -> Value {
        let runs: Vec<Value> = self
            .verdicts
            .iter()
            .map(|v| {
                Value::Object(vec![
                    ("scenario".into(), Value::String(v.scenario.clone())),
                    ("seed".into(), Value::Number(v.seed as f64)),
                    ("passed".into(), Value::Bool(v.passed())),
                    ("safety_ok".into(), Value::Bool(v.safety_ok)),
                    ("liveness_ok".into(), Value::Bool(v.liveness_ok)),
                    (
                        "violations".into(),
                        Value::Array(v.violations.iter().cloned().map(Value::String).collect()),
                    ),
                    ("completed_total".into(), Value::Number(v.completed_total as f64)),
                    ("completed_after_heal".into(), Value::Number(v.completed_after_heal as f64)),
                    ("commits_checked".into(), Value::Number(v.commits_checked as f64)),
                    (
                        "faults".into(),
                        Value::Object(vec![
                            ("dropped".into(), Value::Number(v.stats.dropped as f64)),
                            ("duplicated".into(), Value::Number(v.stats.duplicated as f64)),
                            ("delayed".into(), Value::Number(v.stats.delayed as f64)),
                            ("reordered".into(), Value::Number(v.stats.reordered as f64)),
                            (
                                "partition_blocked".into(),
                                Value::Number(v.stats.partition_blocked as f64),
                            ),
                            ("muted".into(), Value::Number(v.stats.muted as f64)),
                            ("corrupted".into(), Value::Number(v.stats.corrupted as f64)),
                            ("equivocations".into(), Value::Number(v.stats.equivocations as f64)),
                            ("torn_writes".into(), Value::Number(v.stats.torn_writes as f64)),
                            (
                                "chunks_corrupted".into(),
                                Value::Number(v.stats.chunks_corrupted as f64),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Value::Object(vec![
            ("horizon_us".into(), Value::Number(HORIZON as f64)),
            ("fault_window_us".into(), {
                Value::Array(vec![
                    Value::Number(FAULT_FROM as f64),
                    Value::Number(FAULT_UNTIL as f64),
                ])
            }),
            ("runs".into(), Value::Array(runs)),
            ("all_passed".into(), Value::Bool(self.passed())),
        ])
    }

    /// The aggregated Prometheus snapshot.
    pub fn prometheus(&self) -> String {
        self.registry.snapshot().to_prometheus()
    }
}

/// Sweeps `scenarios × seeds` (scenario-major) and aggregates the verdict
/// matrix.
pub fn run_matrix(scenarios: &[&str], seeds: &[u64]) -> NemesisReport {
    let registry = Registry::new();
    let mut verdicts = Vec::with_capacity(scenarios.len() * seeds.len());
    for scenario in scenarios {
        for &seed in seeds {
            let verdict = run_scenario(scenario, seed);
            registry.counter("nemesis_runs_total").inc();
            registry.counter_with("nemesis_runs", &[("scenario", scenario)]).inc();
            if verdict.passed() {
                registry.counter("nemesis_passed_total").inc();
                registry.counter_with("nemesis_passed", &[("scenario", scenario)]).inc();
            }
            for violation in &verdict.violations {
                let kind = violation.split(':').next().unwrap_or("unknown").to_string();
                registry
                    .counter_with("nemesis_invariant_violations_total", &[("kind", &kind)])
                    .inc();
            }
            registry.counter("nemesis_commits_checked_total").add(verdict.commits_checked);
            registry.counter("nemesis_completed_ops_total").add(verdict.completed_total as u64);
            let s = verdict.stats;
            registry.counter("nemesis_faults_dropped_total").add(s.dropped);
            registry.counter("nemesis_faults_duplicated_total").add(s.duplicated);
            registry.counter("nemesis_faults_delayed_total").add(s.delayed);
            registry.counter("nemesis_faults_reordered_total").add(s.reordered);
            registry.counter("nemesis_faults_partition_blocked_total").add(s.partition_blocked);
            registry.counter("nemesis_faults_muted_total").add(s.muted);
            registry.counter("nemesis_faults_corrupted_total").add(s.corrupted);
            registry.counter("nemesis_faults_equivocations_total").add(s.equivocations);
            registry.counter("nemesis_faults_torn_writes_total").add(s.torn_writes);
            registry.counter("nemesis_faults_chunks_corrupted_total").add(s.chunks_corrupted);
            verdicts.push(verdict);
        }
    }
    NemesisReport { verdicts, registry }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossy_network_heals_and_commits() {
        let verdict = run_scenario("lossy", 7);
        assert!(verdict.safety_ok, "violations: {:?}", verdict.violations);
        assert!(verdict.liveness_ok, "no post-heal commits: {verdict:?}");
        assert!(verdict.stats.dropped > 0, "the lossy plan never fired: {verdict:?}");
    }

    #[test]
    fn partition_stalls_then_recovers() {
        let verdict = run_scenario("partition", 3);
        assert!(verdict.passed(), "{verdict:?}");
        assert!(verdict.stats.partition_blocked > 0, "{verdict:?}");
    }

    #[test]
    fn leader_crash_elects_and_recovers() {
        let verdict = run_scenario("leader-crash", 5);
        assert!(verdict.passed(), "{verdict:?}");
    }

    #[test]
    fn byzantine_leader_is_survived() {
        for scenario in ["equivocate", "corrupt", "mute"] {
            let verdict = run_scenario(scenario, 11);
            assert!(verdict.passed(), "{scenario}: {verdict:?}");
        }
    }

    #[test]
    fn crash_with_torn_write_recovers_certified_checkpoint() {
        let verdict = run_scenario("crash-torn-write", 13);
        assert!(verdict.passed(), "{verdict:?}");
        assert_eq!(verdict.stats.torn_writes, 1, "the crash must tear the journal tail");
    }

    #[test]
    fn rejoin_under_partition_transfers_multi_mb_state() {
        let (verdict, sim) = run_sim("rejoin-partition", 17, Instrument::None, 0);
        assert!(verdict.passed(), "{verdict:?}");
        assert!(
            sim.transfers.iter().any(|(_, id)| *id == ReplicaId(4)),
            "the joiner must complete its chunked transfer: {:?}",
            sim.transfers
        );
    }

    #[test]
    fn corrupt_chunks_are_rejected_and_refetched() {
        let (verdict, sim) = run_sim("corrupt-chunk", 19, Instrument::None, 0);
        assert!(verdict.passed(), "{verdict:?}");
        assert!(verdict.stats.chunks_corrupted > 0, "the corruption knob never fired: {verdict:?}");
        assert!(
            sim.transfers.iter().any(|(_, id)| *id == ReplicaId(4)),
            "the transfer must still complete despite corrupt chunks: {:?}",
            sim.transfers
        );
    }

    #[test]
    fn matrix_is_deterministic() {
        let a = run_matrix(&["lossy", "partition"], &[1, 2]);
        let b = run_matrix(&["lossy", "partition"], &[1, 2]);
        assert_eq!(a.to_json().to_json(), b.to_json().to_json());
        assert_eq!(a.prometheus(), b.prometheus());
    }
}
