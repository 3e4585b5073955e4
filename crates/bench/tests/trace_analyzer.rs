//! End-to-end checks of the causal tracing pipeline: a traced nemesis run
//! through the offline analyzer, determinism of the dump, DAG
//! completeness for committed slots, and the anomaly-vs-metrics
//! cross-check.

use lazarus_bench::flight::{dump_traced, load_dir, merge, Analysis};
use lazarus_core::{Controller, ControllerConfig, HealthPolicy};
use lazarus_obs::causal::{EventKind, FlightEvent};
use lazarus_obs::{AnomalyKind, Obs};
use lazarus_osint::catalog::study_oses;
use lazarus_osint::datamgr::DataManager;
use lazarus_osint::kb::KnowledgeBase;
use lazarus_testbed::nemesis::{probe_health, run_scenario_traced};

fn counter(snapshot: &lazarus_obs::Snapshot, name: &str) -> u64 {
    snapshot.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(0)
}

#[test]
fn traced_partition_run_yields_a_complete_causal_dag() {
    let traced = run_scenario_traced("partition", 1);
    assert!(traced.verdict.passed(), "baseline scenario passes: {:?}", traced.verdict);

    let analysis =
        Analysis::build(merge(traced.streams.iter().map(|(_, evs)| evs.clone()).collect()));
    // Every committed slot has a full phase timeline and a critical path
    // that terminates at a causal root.
    let committed: Vec<u64> = analysis.committed_slots().map(|(seq, _)| *seq).collect();
    assert!(committed.len() > 10, "a 3 s run commits plenty of slots ({})", committed.len());
    for seq in &committed {
        let slot = &analysis.slots[seq];
        assert!(slot.propose_at.is_some(), "slot {seq} has a propose");
        assert!(slot.commit_at.is_some(), "slot {seq} has a commit");
        let path = analysis.critical_path(*seq);
        assert!(path.len() >= 2, "slot {seq} path spans hops");
        // The path stays inside the slot's trace, except for a true causal
        // root at the head (e.g. the client request that seeded the batch).
        let trace = lazarus_obs::causal::slot_trace_id(*seq);
        assert!(
            path[0].parent_id == 0 || path[0].trace_id == trace,
            "slot {seq} path head is a root or in-trace"
        );
        assert!(path[1..].iter().all(|e| e.trace_id == trace), "slot {seq} path is in-trace");
        assert_eq!(path.last().unwrap().event, EventKind::Commit);
    }
    // No orphan events anywhere: the DAG is complete.
    assert!(
        analysis.orphans.is_empty(),
        "no dangling parents, got e.g. {}",
        analysis.orphans[0].to_jsonl()
    );
    // The partition fault plan leaves transport-visible scars.
    assert!(analysis.anomalies.drops > 0, "a 2|2 partition drops messages");
}

#[test]
fn traced_dump_and_analyzer_outputs_are_deterministic() {
    let a = run_scenario_traced("partition", 7);
    let b = run_scenario_traced("partition", 7);
    let dir_a = std::env::temp_dir().join(format!("lazarus_trace_a_{}", std::process::id()));
    let dir_b = std::env::temp_dir().join(format!("lazarus_trace_b_{}", std::process::id()));
    dump_traced(&dir_a, &a.streams).expect("dump a");
    dump_traced(&dir_b, &b.streams).expect("dump b");
    for file in ["replica_0.jsonl", "replica_3.jsonl", "trace_summary.json", "trace_chrome.json"] {
        let body_a = std::fs::read(dir_a.join(file)).expect("read a");
        let body_b = std::fs::read(dir_b.join(file)).expect("read b");
        assert_eq!(body_a, body_b, "{file} is byte-identical across reruns");
        assert!(!body_a.is_empty(), "{file} has content");
    }
    // The dumped streams survive the validating loader and rebuild the
    // same analysis.
    let streams = load_dir(&dir_a).expect("every dumped line passes the schema validator");
    let reloaded = Analysis::build(merge(streams.into_iter().map(|(_, evs)| evs).collect()));
    let direct = Analysis::build(merge(a.streams.iter().map(|(_, evs)| evs.clone()).collect()));
    assert_eq!(reloaded.summary_json().to_json(), direct.summary_json().to_json());
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

#[test]
fn analyzer_anomaly_counts_match_replica_metrics() {
    // A crashed-and-restarted leader forces view changes and help
    // re-votes; both surface once as flight events and once as counters.
    let traced = run_scenario_traced("leader-crash", 3);
    let analysis =
        Analysis::build(merge(traced.streams.iter().map(|(_, evs)| evs.clone()).collect()));
    let view_changes = counter(&traced.snapshot, "bft_view_changes_total");
    let help_revotes = counter(&traced.snapshot, "bft_help_revotes_total");
    assert!(view_changes > 0, "a leader crash forces a view change");
    assert_eq!(analysis.anomalies.view_changes, view_changes, "view-change counts agree");
    assert_eq!(analysis.anomalies.help_revotes, help_revotes, "help-revote counts agree");
    // Every completed transfer the metrics saw started as a CstStart
    // flight event; fetches may outnumber completions.
    assert!(
        analysis.anomalies.cst_fetches >= counter(&traced.snapshot, "bft_state_transfers_total"),
        "cst fetches are at least the completed transfers"
    );
}

#[test]
fn health_anomaly_counters_match_fault_and_analyzer_evidence() {
    // A mute leader goes silent from boot: the online health ticks must
    // count a silence onset, and the final reduction must flag exactly the
    // muted replica — cross-checked against the fault plan's own injection
    // stats and the flight streams (replica 0 records no Send events while
    // everyone else floods the wire).
    let traced = run_scenario_traced("mute", 5);
    assert!(traced.verdict.stats.muted > 0, "the fault plan swallowed egress");
    let silences = counter(&traced.snapshot, "health_anomalies_total{kind=\"silence\"}");
    assert!(silences >= 1, "online ticks counted the silence onset (got {silences})");

    let h0 = traced.health.replica(0).expect("replica 0 tracked");
    assert!(h0.anomalies.contains(&AnomalyKind::Silence), "muted replica flagged: {h0:?}");
    assert_eq!(h0.liveness_score, 0, "no egress -> fully decayed liveness");
    for replica in 1..4 {
        let h = traced.health.replica(replica).expect("tracked");
        assert!(h.anomalies.is_empty(), "honest replica {replica} unflagged: {h:?}");
    }

    let sends_by_node = |node: u32| {
        traced
            .streams
            .iter()
            .find(|(id, _)| *id == node)
            .map_or(0, |(_, evs)| evs.iter().filter(|e| e.event == EventKind::Send).count())
    };
    assert_eq!(sends_by_node(0), 0, "the muted replica never reaches the wire");
    assert!(sends_by_node(1) > 100, "honest replicas flood the wire");
}

#[test]
fn chunked_cst_and_recovery_metrics_match_flight_events() {
    // Chunked transfer under chunk corruption: every *verified* chunk
    // fetch surfaces once as a `cst_chunk` flight event and once in the
    // fetched counter, while corrupt replies only bump the rejected
    // counter (they are re-requested, never installed).
    let traced = run_scenario_traced("corrupt-chunk", 19);
    assert!(traced.verdict.passed(), "corrupt-chunk scenario passes: {:?}", traced.verdict);
    let chunk_events: u64 = traced
        .streams
        .iter()
        .map(|(_, evs)| evs.iter().filter(|e| e.event == EventKind::CstChunk).count() as u64)
        .sum();
    let fetched = counter(&traced.snapshot, "bft_cst_chunks_fetched_total");
    assert!(fetched > 0, "the joiner fetched chunks");
    assert_eq!(chunk_events, fetched, "verified fetches and flight events agree");
    let rejected = counter(&traced.snapshot, "bft_cst_chunks_rejected_total");
    assert!(rejected > 0, "the corruption knob produced rejected chunks");

    // Durable reboot: exactly one `recover` flight event (replica 2 loses
    // power once), and the recovery-duration gauge carries the journal
    // replay's virtual time.
    let traced = run_scenario_traced("crash-torn-write", 13);
    assert!(traced.verdict.passed(), "crash-torn-write scenario passes: {:?}", traced.verdict);
    let recover_events: usize = traced
        .streams
        .iter()
        .map(|(_, evs)| evs.iter().filter(|e| e.event == EventKind::Recover).count())
        .sum();
    assert_eq!(recover_events, 1, "one reboot, one recover flight event");
    // The reboot builds a fresh replica and re-attaches the node's recorder
    // before `note_recovered`: the event lands in that node's own ring,
    // after its pre-crash history and before what the new replica decides.
    let recover_at = |evs: &[FlightEvent]| evs.iter().position(|e| e.event == EventKind::Recover);
    let rebooted = traced.streams.iter().find_map(|(_, evs)| Some((evs, recover_at(evs)?)));
    let (evs, at) = rebooted.expect("counted above");
    let commits = |evs: &[FlightEvent]| evs.iter().filter(|e| e.event == EventKind::Commit).count();
    assert!(commits(&evs[..at]) > 0, "pre-crash events survive the reboot");
    assert!(commits(&evs[at..]) > 0, "the rebuilt replica records into the same ring");
    let recovery_us = traced
        .snapshot
        .gauges
        .iter()
        .find(|(n, _)| n == "bft_recovery_duration_us")
        .map(|(_, v)| *v)
        .unwrap_or(0.0);
    assert!(recovery_us > 0.0, "the recovery gauge is set from the journal replay");
}

#[test]
fn controller_demotion_counter_matches_reconfig_decision_events() {
    // The ablation control loop in miniature: probe a mute run before the
    // watchdog heals it, ingest the evidence, and plan. Exactly one
    // demotion must land in `controller_leader_demotions_total`, and every
    // counted demotion must also appear as a `reconfig_decision` trace
    // event carrying the justifying scores.
    let obs = Obs::unclocked();
    let mut controller = Controller::new(
        ControllerConfig::new(study_oses()),
        DataManager::new(KnowledgeBase::new()),
    );
    controller.attach_obs(&obs);
    controller.set_health_policy(HealthPolicy {
        demote_score: 850,
        demote_p99_us: 40_000,
        promote_score: 900,
        hysteresis_rounds: 2,
    });
    controller.assume_leader(0);
    for snapshot in probe_health("mute", 5, &[330_000, 390_000]) {
        controller.ingest_health(&snapshot);
    }
    let decision = controller.plan_leader();
    assert_eq!(decision.reason, "demoted", "two degraded snapshots clear the hysteresis");
    assert_eq!(decision.demoted, Some(0));
    assert_ne!(decision.leader, 0, "the replacement is a different replica");

    let demotions = counter(&obs.registry.snapshot(), "controller_leader_demotions_total");
    assert_eq!(demotions, 1, "exactly one demotion counted");
    let demotion_events = obs
        .tracer
        .recent()
        .iter()
        .filter(|e| e.name == "reconfig_decision" && e.render().contains("decision=\"demoted\""))
        .count() as u64;
    assert_eq!(demotion_events, demotions, "counter and trace events agree");
}
