//! The metric catalogue, the result of one run, its JSON line, and the
//! comparison of two sets of runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats::{median, spread};
use crate::sut::json::{self, Value};

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One end-to-end metric: every workload reports each of them, measured in
/// its timed run with tracing off. `bound` is the share of the baseline's
/// median by which it may worsen before that counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// The bounds are as wide as the contract allows: in the sandbox this was
/// developed in, ten runs of one build spread by 2 to 5 % of their median
/// while the host is quiet and by 20 % and more while it is not (see the
/// README), and a bound inside the noise would reject changes at random.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "ops_per_s", unit: "1/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "latency_p50_us", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "latency_tail_us", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "cpu_us_per_op", unit: "us", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Better::Lower, bound: 0.2 },
];

/// The per-layer metrics of the traced run: `(name, unit, better)`. A
/// workload that does not enter a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    ("client.invoke_ns", "ns", Better::Lower),
    ("client.on_reply_ns", "ns", Better::Lower),
    ("replica.request_ns", "ns", Better::Lower),
    ("replica.propose_ns", "ns", Better::Lower),
    ("replica.write_ns", "ns", Better::Lower),
    ("replica.accept_ns", "ns", Better::Lower),
    ("replica.checkpoint_us", "us", Better::Lower),
    ("replica.self_share", "ratio", Better::Lower),
    ("replica.msgs_per_op", "count", Better::Lower),
    ("replica.wire_bytes_per_op", "B", Better::Lower),
    ("replica.open_slots_mean", "count", Better::Higher),
    ("batcher.ops_per_batch", "count", Better::Higher),
    ("service.execute_ns", "ns", Better::Lower),
    ("service.snapshot_ms", "ms", Better::Lower),
    ("service.install_ms", "ms", Better::Lower),
    ("baseline.direct_exec_ops_per_s", "1/s", Better::Higher),
    ("storage.append_us", "us", Better::Lower),
    ("storage.sync_us", "us", Better::Lower),
    ("storage.commit_checkpoint_ms", "ms", Better::Lower),
    ("storage.bytes_per_op", "B", Better::Lower),
    ("storage.syncs_per_kop", "count", Better::Lower),
    ("storage.open_replay_ms", "ms", Better::Lower),
    ("storage.replay_mb_per_s", "MB/s", Better::Higher),
    ("replica.recover_replay_ms", "ms", Better::Lower),
    ("cst.transfer_ms", "ms", Better::Lower),
    ("cst.chunks", "count", Better::Lower),
    ("cst.bytes", "B", Better::Lower),
    ("cst.mb_per_s", "MB/s", Better::Higher),
    ("reconfig.add_ms", "ms", Better::Lower),
    ("reconfig.remove_ms", "ms", Better::Lower),
    ("crypto.sha256_mb_per_s", "MB/s", Better::Higher),
    ("crypto.hmac_1k_ns", "ns", Better::Lower),
    ("crypto.sign_verify_ns", "ns", Better::Lower),
    ("messages.batch_digest_us", "us", Better::Lower),
    ("messages.envelope_ns", "ns", Better::Lower),
    ("batcher.plan_take_ns", "ns", Better::Lower),
    ("consensus.vote_ns", "ns", Better::Lower),
    ("log.append_ns", "ns", Better::Lower),
    ("pump.harness_share", "ratio", Better::Lower),
    ("pump.residue_pct", "%", Better::Lower),
    ("trace.overhead_pct", "%", Better::Lower),
    ("runtime.ctx_switches_per_op", "count", Better::Lower),
    ("runtime.sys_share", "ratio", Better::Lower),
    ("runtime.latency_p999_us", "us", Better::Lower),
    ("runtime.start_ms", "ms", Better::Lower),
    ("runtime.shutdown_ms", "ms", Better::Lower),
    ("nemesis.wall_ms.lossy", "ms", Better::Lower),
    ("nemesis.wall_ms.partition", "ms", Better::Lower),
    ("nemesis.wall_ms.leader-crash", "ms", Better::Lower),
    ("nemesis.wall_ms.equivocate", "ms", Better::Lower),
    ("nemesis.wall_ms.corrupt", "ms", Better::Lower),
    ("nemesis.wall_ms.mute", "ms", Better::Lower),
    ("nemesis.wall_ms.crash-torn-write", "ms", Better::Lower),
    ("nemesis.wall_ms.rejoin-partition", "ms", Better::Lower),
    ("nemesis.wall_ms.corrupt-chunk", "ms", Better::Lower),
    ("nemesis.commits_checked", "count", Better::Higher),
    ("cluster.wall_us_per_virtual_ms", "us", Better::Lower),
    ("cluster.virtual_ops_per_s", "1/s", Better::Higher),
    ("cluster.model_over_wall", "ratio", Better::Lower),
    ("faults.time_to_heal_us", "us", Better::Lower),
    ("replica.view_changes", "count", Better::Lower),
    ("cst.chunks_fetched", "count", Better::Lower),
    ("feed.parse_mb_per_s", "MB/s", Better::Higher),
    ("datamgr.sync_feeds_ms", "ms", Better::Lower),
    ("datamgr.sync_sources_ms", "ms", Better::Lower),
    ("nlp.cluster_ms", "ms", Better::Lower),
    ("oracle.build_ms", "ms", Better::Lower),
    ("oracle.matrix_ms", "ms", Better::Lower),
    ("strategies.min_config_risk_ms", "ms", Better::Lower),
    ("algorithm.monitor_us", "us", Better::Lower),
    ("deploy.plan_us", "us", Better::Lower),
    ("controller.round_residue_pct", "%", Better::Lower),
    ("controller.reconfigs", "count", Better::Lower),
    ("controller.alarms", "count", Better::Lower),
];

/// The workloads: `(name, why it exists)`.
pub const WORKLOADS: &[(&str, &str)] = &[
    ("smr-threads-echo", "real threads, 8-byte echo, batches of at most 2: per-message cost, channel hops and thread wake-ups dominate; payload, batch and storage work must show no change here"),
    ("smr-pump-ycsb", "64 closed-loop clients of 1 KiB YCSB requests through bare replicas with fsynced journals and no scheduler: HMAC, batch digest, journal append, execute and reply signing do the work"),
    ("smr-pump-recover", "a crashed replica reopens its journal and replays it: storage, log and messages used for replay instead of append, so a gain for one that costs the other shows"),
    ("smr-pump-rotate", "the paper's rotation: add a replica, chunked state transfer of 16 MiB, remove the old one; snapshot, chunk digests and install instead of execute"),
    ("sim-nemesis", "nine fault scenarios under the invariant checker plus a fault-free simulated run: where figure and nemesis regeneration spend their time, on view-change, help and CST paths the others never enter"),
    ("ctl-rounds", "daily controller rounds on four 800-CVE OSINT worlds: delta feed, re-clustering, risk matrix, plan; no SMR code runs, so a bft or testbed change must show no change here"),
    ("ctl-bootstrap", "the cold start a controller pays at every restart: parse the feeds and eight sources, cluster, score, pick the first configuration; feed and datamgr work that rounds barely touch"),
];

/// What one run of one workload measured.
#[derive(Debug, Default)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    /// Operations attempted, and those that failed an output check or never
    /// completed.
    pub attempted: u64,
    pub failed: u64,
    /// Violations of run-level output checks (each also makes the run
    /// incorrect).
    pub errors: Vec<String>,
    /// Metric values by name, units from the catalogue.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Facts printed with the table (sample counts, injected delay, ...).
    pub notes: Vec<String>,
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
        .unwrap_or("")
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The metric names this run must report: every end-to-end metric for a
    /// timed run, every per-layer metric for a traced one.
    fn required(&self) -> Vec<&'static str> {
        if self.traced {
            PER_LAYER.iter().map(|m| m.0).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        }
    }

    /// The one-line JSON object the driver reads.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, name) in self.required().into_iter().enumerate() {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit_of(name)
            );
        }
        out.push_str("}}");
        out
    }

    /// The table a reader sees: every metric by name with its unit.
    pub fn table(&self) -> String {
        let mut out = format!(
            "== {} seed {} ({}) ==\n",
            self.workload,
            self.seed,
            if self.traced {
                "traced run: per-layer metrics"
            } else {
                "timed run: end-to-end metrics"
            }
        );
        for name in self.required() {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            if self.traced && value == 0.0 {
                continue; // a layer this workload does not enter
            }
            let _ = writeln!(out, "  {name:<34} {value:>16.4} {}", unit_of(name));
        }
        let _ = writeln!(
            out,
            "  attempted {}  failed {}  failed_share {}  correct {}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.correct()
        );
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        for error in &self.errors {
            let _ = writeln!(out, "  CHECK FAILED: {error}");
        }
        out
    }

    /// One line of a set file: the JSON line plus what identifies the run.
    pub fn set_line(&self) -> String {
        let line = self.json_line();
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, {}",
            self.workload,
            self.seed,
            u8::from(self.traced),
            &line[1..]
        )
    }
}

/// Verdict of comparing one metric of one workload between two sets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The spread between runs is wider than the bound, and the runs of the
    /// two sets overlap: the data cannot tell.
    Unresolved,
}

/// Compares the candidate's values of one metric against the baseline's.
pub fn verdict(metric: &EndToEnd, base: &[f64], cand: &[f64]) -> (f64, Verdict) {
    let (Some(mb), Some(mc)) = (median(base), median(cand)) else {
        return (0.0, Verdict::Unresolved);
    };
    let sign = if metric.better == Better::Lower { 1.0 } else { -1.0 };
    // Positive = worse, as a share of the baseline's median.
    let worse = sign * (mc - mb) / mb.abs().max(f64::MIN_POSITIVE);
    let noisy = [base, cand].iter().any(|v| spread(v).is_some_and(|s| s > metric.bound));
    let all_better = cand.iter().all(|c| base.iter().all(|b| sign * (c - b) < 0.0));
    let verdict = if noisy && !all_better {
        Verdict::Unresolved
    } else if worse > metric.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// Per-layer metrics that are counts made in virtual time or by a
/// deterministic pump over a fixed number of operations: two runs of one
/// build on one seed must agree on them exactly.
pub const EXACT: &[&str] = &[
    "replica.msgs_per_op",
    "replica.wire_bytes_per_op",
    "batcher.ops_per_batch",
    "cluster.virtual_ops_per_s",
    "nemesis.commits_checked",
    "faults.time_to_heal_us",
    "replica.view_changes",
    "cst.chunks_fetched",
    "controller.reconfigs",
    "controller.alarms",
];

type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Values of every metric per workload, from the timed (`traced` false) or
/// traced runs of a set file (one JSON object per line).
pub fn load_set(text: &str, traced: bool) -> Result<Set, String> {
    let mut out = Set::new();
    for (n, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let err = |e: json::JsonError| format!("line {}: {e}", n + 1);
        let value = json::parse(line).map_err(err)?;
        if (value.req("trace").and_then(|t| t.as_f64("trace")).map_err(err)? != 0.0) != traced {
            continue;
        }
        let workload = value.req("workload").and_then(|w| w.as_str("workload")).map_err(err)?;
        let metrics = value.req("metrics").and_then(|m| m.as_object("metrics")).map_err(err)?;
        for (name, metric) in metrics {
            let v = metric.req("value").and_then(|v| v.as_f64("value")).map_err(err)?;
            out.entry(workload.to_string()).or_default().entry(name.clone()).or_default().push(v);
        }
        if let Ok(Value::Bool(false)) = value.req("correct") {
            return Err(format!("line {}: a run of {workload} failed its output checks", n + 1));
        }
    }
    Ok(out)
}

/// Compares two set files metric by metric; returns the printed table and
/// whether any metric regressed.
pub fn compare(base: &str, cand: &str) -> Result<(String, bool), String> {
    let (exact_a, exact_b) = (load_set(base, true)?, load_set(cand, true)?);
    let (base, cand) = (load_set(base, false)?, load_set(cand, false)?);
    let mut out = format!(
        "{:<18} {:<16} {:>14} {:>14} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A median", "B median", "worse %", "bound"
    );
    let mut regressed = false;
    for (workload, metrics) in &base {
        for metric in END_TO_END {
            let (Some(a), Some(b)) =
                (metrics.get(metric.name), cand.get(workload).and_then(|m| m.get(metric.name)))
            else {
                continue;
            };
            let (worse, v) = verdict(metric, a, b);
            regressed |= v == Verdict::Regressed;
            let _ = writeln!(
                out,
                "{:<18} {:<16} {:>14.4} {:>14.4} {:>+8.2} {:>6.0}  {}",
                workload,
                metric.name,
                median(a).unwrap_or(0.0),
                median(b).unwrap_or(0.0),
                worse * 100.0,
                metric.bound * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    for (workload, metrics) in &exact_a {
        for name in EXACT {
            let (Some(a), Some(b)) =
                (metrics.get(*name), exact_b.get(workload).and_then(|m| m.get(*name)))
            else {
                continue;
            };
            if a.iter().chain(b).all(|v| *v == 0.0) {
                continue; // a layer this workload does not enter
            }
            let same = if a == b { "same" } else { "changed" };
            let _ = writeln!(out, "{workload:<18} {name:<28} {a:?} {b:?}  {same}");
        }
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: EndToEnd =
        EndToEnd { name: "latency_p50_us", unit: "us", better: Better::Lower, bound: 0.08 };
    const HIGHER: EndToEnd =
        EndToEnd { name: "ops_per_s", unit: "1/s", better: Better::Higher, bound: 0.08 };

    #[test]
    fn the_three_verdicts() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Within the bound either way.
        assert_eq!(verdict(&LOWER, &base, &[104.0, 105.0, 103.0, 104.5, 103.5]).1, Verdict::Ok);
        assert_eq!(verdict(&HIGHER, &base, &[95.0, 96.0, 94.0, 95.5, 94.5]).1, Verdict::Ok);
        // Beyond it in the bad direction.
        let slow = [120.0, 121.0, 119.0, 120.5, 119.5];
        let (worse, v) = verdict(&LOWER, &base, &slow);
        assert_eq!(v, Verdict::Regressed);
        assert!((worse - 0.2).abs() < 1e-9);
        assert_eq!(verdict(&HIGHER, &base, &[80.0, 81.0, 79.0, 80.5, 79.5]).1, Verdict::Regressed);
        // The same move in the good direction is fine.
        assert_eq!(verdict(&HIGHER, &base, &slow).1, Verdict::Ok);
        // Spread wider than the bound and overlapping runs: cannot tell.
        let noisy = [90.0, 130.0, 100.0, 150.0, 95.0];
        assert_eq!(verdict(&LOWER, &base, &noisy).1, Verdict::Unresolved);
        // ... unless every candidate run beats every baseline run.
        let noisy_fast = [50.0, 80.0, 60.0, 90.0, 55.0];
        assert_eq!(verdict(&LOWER, &base, &noisy_fast).1, Verdict::Ok);
        assert_eq!(verdict(&LOWER, &[], &base).1, Verdict::Unresolved);
    }

    fn result(value: f64) -> RunResult {
        let mut r = RunResult {
            workload: "ctl-rounds".into(),
            seed: 3,
            attempted: 10,
            ..Default::default()
        };
        for m in END_TO_END {
            r.metrics.insert(m.name, value);
        }
        r
    }

    #[test]
    fn json_line_has_the_contract_keys_and_round_trips() {
        let r = result(1.25);
        let parsed = json::parse(&r.json_line()).expect("valid json");
        let keys: Vec<&str> =
            parsed.as_object("line").unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = parsed.req("metrics").unwrap().as_object("metrics").unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics[0].1.req("unit").unwrap().as_str("unit").unwrap(), "s");
        let traced = RunResult { traced: true, ..Default::default() };
        let parsed = json::parse(&traced.json_line()).unwrap();
        assert_eq!(parsed.req("metrics").unwrap().as_object("m").unwrap().len(), PER_LAYER.len());
        assert_eq!(parsed.req("attempted").unwrap().as_f64("a").unwrap(), 1.0);
    }

    #[test]
    fn compare_reads_set_files_and_flags_regressions() {
        let set = |v: f64| (0..3).map(|_| result(v).set_line() + "\n").collect::<String>();
        let (table, regressed) = compare(&set(100.0), &set(103.0)).unwrap();
        assert!(!regressed, "{table}");
        assert!(table.contains("ctl-rounds"));
        // ops_per_s fell by 30 %.
        let (table, regressed) = compare(&set(100.0), &set(70.0)).unwrap();
        assert!(regressed && table.contains("regressed"), "{table}");
        let mut failed = result(1.0);
        failed.failed = 1;
        assert!(load_set(&failed.set_line(), false).is_err());
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("valid json");
        let names = |key: &str| -> Vec<String> {
            doc.req(key)
                .unwrap()
                .as_array(key)
                .unwrap()
                .iter()
                .map(|m| m.req("name").unwrap().as_str("name").unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>());
        assert_eq!(names("end_to_end"), END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
        assert_eq!(names("per_layer"), PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>());
        for (listed, ours) in
            doc.req("end_to_end").unwrap().as_array("e").unwrap().iter().zip(END_TO_END)
        {
            assert_eq!(listed.req("bound").unwrap().as_f64("bound").unwrap(), ours.bound);
            assert_eq!(listed.req("unit").unwrap().as_str("unit").unwrap(), ours.unit);
        }
    }
}
