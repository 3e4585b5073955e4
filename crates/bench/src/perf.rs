//! Benchmark-suite schema and regression gating.
//!
//! Every `bench_suite` preset writes one schema-versioned suite file per
//! run ([`Suite`]); `perf_report` diffs two such files with per-metric
//! tolerance policies ([`policy_for`]) and emits a verdict table plus an
//! exit code CI can gate on. Only virtual-time (deterministic) metrics
//! belong in a suite — wall-clock numbers vary per host and would make
//! the committed baseline machine-specific.
//!
//! Tolerance policy is keyed on metric-name suffix:
//!
//! | suffix                | direction     | default tolerance |
//! |-----------------------|---------------|-------------------|
//! | `_ops_s`              | higher better | 10 %              |
//! | `_p999_us`, `_max_us` | lower better  | 25 % (tail noise) |
//! | `_us`                 | lower better  | 15 %              |
//! | anything else         | informational | not gated         |

use lazarus_osint::json::{parse, Value};

/// Schema tag stamped into every suite file.
pub const SUITE_SCHEMA: &str = "lazarus-bench-suite-v1";

/// One benchmark-suite run: named workloads, each a list of named numeric
/// metrics. Insertion order is preserved so reports diff cleanly.
#[derive(Debug, Clone, Default)]
pub struct Suite {
    /// `(workload, [(metric, value)])` in insertion order.
    pub workloads: Vec<(String, Vec<(String, f64)>)>,
}

impl Suite {
    /// An empty suite.
    #[must_use]
    pub fn new() -> Suite {
        Suite::default()
    }

    /// Records `metric = value` under `workload`, creating the workload
    /// section on first use.
    pub fn push(&mut self, workload: &str, metric: &str, value: f64) {
        let section = match self.workloads.iter_mut().find(|(w, _)| w == workload) {
            Some((_, metrics)) => metrics,
            None => {
                self.workloads.push((workload.to_string(), Vec::new()));
                &mut self.workloads.last_mut().expect("just pushed").1
            }
        };
        section.push((metric.to_string(), value));
    }

    /// Renders the suite as its schema-versioned JSON document.
    #[must_use]
    pub fn to_json(&self) -> Value {
        let workloads = self
            .workloads
            .iter()
            .map(|(name, metrics)| {
                let fields = metrics.iter().map(|(m, v)| (m.clone(), Value::Number(*v))).collect();
                (name.clone(), Value::Object(fields))
            })
            .collect();
        Value::Object(vec![
            ("schema".into(), Value::String(SUITE_SCHEMA.into())),
            ("workloads".into(), Value::Object(workloads)),
        ])
    }

    /// Parses a suite document, validating the schema tag.
    ///
    /// # Errors
    ///
    /// A human-readable message on malformed JSON, a missing or foreign
    /// `schema` tag, or non-numeric metric values.
    pub fn from_json(body: &str) -> Result<Suite, String> {
        let doc = parse(body).map_err(|e| format!("not JSON: {e}"))?;
        match doc.get("schema") {
            Some(Value::String(s)) if s == SUITE_SCHEMA => {}
            Some(Value::String(s)) => {
                return Err(format!("schema {s:?}, expected {SUITE_SCHEMA:?}"))
            }
            _ => return Err(format!("missing schema tag (expected {SUITE_SCHEMA:?})")),
        }
        let Some(Value::Object(workloads)) = doc.get("workloads") else {
            return Err("missing workloads object".into());
        };
        let mut suite = Suite::new();
        for (workload, metrics) in workloads {
            let Value::Object(fields) = metrics else {
                return Err(format!("workload {workload:?} is not an object"));
            };
            for (metric, value) in fields {
                let Value::Number(v) = value else {
                    return Err(format!("{workload}/{metric} is not a number"));
                };
                suite.push(workload, metric, *v);
            }
        }
        Ok(suite)
    }

    /// Reads and parses a suite file.
    ///
    /// # Errors
    ///
    /// A human-readable message on I/O or parse failure.
    pub fn load(path: &std::path::Path) -> Result<Suite, String> {
        let body = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Suite::from_json(&body).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Whether a metric should go up or down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Larger values are better (throughput).
    HigherBetter,
    /// Smaller values are better (latency).
    LowerBetter,
}

/// How a metric is gated: its direction and the relative change (as a
/// fraction of the old value) tolerated before a regression is declared.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricPolicy {
    /// Which way the metric should move.
    pub direction: Direction,
    /// Tolerated adverse relative change, e.g. `0.10` = 10 %.
    pub tolerance: f64,
}

/// The gating policy for a metric name, by suffix; `None` means the
/// metric is informational and never gates.
#[must_use]
pub fn policy_for(metric: &str) -> Option<MetricPolicy> {
    if metric.ends_with("_ops_s") {
        Some(MetricPolicy { direction: Direction::HigherBetter, tolerance: 0.10 })
    } else if metric.ends_with("_p999_us") || metric.ends_with("_max_us") {
        Some(MetricPolicy { direction: Direction::LowerBetter, tolerance: 0.25 })
    } else if metric.ends_with("_us") {
        Some(MetricPolicy { direction: Direction::LowerBetter, tolerance: 0.15 })
    } else {
        None
    }
}

/// One metric's comparison outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Within tolerance (or moved the right way, but not enough to call
    /// out).
    Ok,
    /// Moved the right way beyond tolerance — worth a look, never fails.
    Improved,
    /// Moved the wrong way beyond tolerance, or vanished from the new
    /// suite.
    Regressed,
    /// Not gated: no policy, zero baseline, or only present on one side.
    Info,
}

/// One `(workload, metric)` comparison between two suites.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Workload section the metric lives in.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Baseline value (`None` when the metric is new).
    pub old: Option<f64>,
    /// Candidate value (`None` when the metric vanished).
    pub new: Option<f64>,
    /// Relative change `(new - old) / old`, when both sides exist and the
    /// baseline is non-zero.
    pub change: Option<f64>,
    /// Gate outcome.
    pub status: Status,
}

/// A full suite-vs-suite comparison.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Per-metric verdicts, in baseline order; new-only metrics follow.
    pub verdicts: Vec<Verdict>,
}

impl Report {
    /// True when any metric regressed — the CI failure condition.
    #[must_use]
    pub fn regressed(&self) -> bool {
        self.verdicts.iter().any(|v| v.status == Status::Regressed)
    }

    /// `workload/metric` of every regressed verdict: with one metric name
    /// per cell of a sweep, the metric alone does not say which cell.
    #[must_use]
    pub fn regressed_names(&self) -> Vec<String> {
        self.verdicts
            .iter()
            .filter(|v| v.status == Status::Regressed)
            .map(|v| format!("{}/{}", v.workload, v.metric))
            .collect()
    }
}

/// Diffs `new` against the `old` baseline. `tolerance_override`, when set,
/// replaces every metric's default tolerance (the `--tolerance` flag).
///
/// A gated metric regresses when it moves against its direction by more
/// than its tolerance, or when it exists in the baseline but not in the
/// candidate. Metrics with a zero baseline, without a policy, or only
/// present in the candidate are informational.
#[must_use]
pub fn diff(old: &Suite, new: &Suite, tolerance_override: Option<f64>) -> Report {
    let lookup = |suite: &Suite, workload: &str, metric: &str| -> Option<f64> {
        suite
            .workloads
            .iter()
            .find(|(w, _)| w == workload)
            .and_then(|(_, ms)| ms.iter().find(|(m, _)| m == metric).map(|(_, v)| *v))
    };
    let mut report = Report::default();
    for (workload, metrics) in &old.workloads {
        for (metric, old_v) in metrics {
            let new_v = lookup(new, workload, metric);
            let policy = policy_for(metric).map(|p| MetricPolicy {
                tolerance: tolerance_override.unwrap_or(p.tolerance),
                ..p
            });
            let (change, status) = match (new_v, policy) {
                (None, Some(_)) => (None, Status::Regressed),
                (None, None) => (None, Status::Info),
                (Some(_), None) => (None, Status::Info),
                (Some(n), Some(p)) => {
                    if *old_v == 0.0 {
                        (None, Status::Info)
                    } else {
                        let change = (n - old_v) / old_v;
                        let adverse = match p.direction {
                            Direction::HigherBetter => -change,
                            Direction::LowerBetter => change,
                        };
                        let status = if adverse > p.tolerance {
                            Status::Regressed
                        } else if adverse < -p.tolerance {
                            Status::Improved
                        } else {
                            Status::Ok
                        };
                        (Some(change), status)
                    }
                }
            };
            report.verdicts.push(Verdict {
                workload: workload.clone(),
                metric: metric.clone(),
                old: Some(*old_v),
                new: new_v,
                change,
                status,
            });
        }
    }
    for (workload, metrics) in &new.workloads {
        for (metric, new_v) in metrics {
            if lookup(old, workload, metric).is_none() {
                report.verdicts.push(Verdict {
                    workload: workload.clone(),
                    metric: metric.clone(),
                    old: None,
                    new: Some(*new_v),
                    change: None,
                    status: Status::Info,
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn suite(pairs: &[(&str, &str, f64)]) -> Suite {
        let mut s = Suite::new();
        for (w, m, v) in pairs {
            s.push(w, m, *v);
        }
        s
    }

    #[test]
    fn suite_json_round_trips_with_schema_tag() {
        let s = suite(&[("echo", "throughput_ops_s", 1234.5), ("echo", "p50_us", 80.0)]);
        let body = s.to_json().to_json();
        assert!(body.contains(SUITE_SCHEMA));
        let back = Suite::from_json(&body).expect("round trip");
        assert_eq!(back.workloads.len(), 1);
        assert_eq!(back.workloads[0].1, s.workloads[0].1);
    }

    #[test]
    fn foreign_schema_is_rejected() {
        let err = Suite::from_json(r#"{"schema":"other-v9","workloads":{}}"#).unwrap_err();
        assert!(err.contains("other-v9"), "{err}");
        assert!(Suite::from_json(r#"{"workloads":{}}"#).is_err());
    }

    #[test]
    fn policy_maps_suffixes_to_direction_and_tolerance() {
        let p = policy_for("throughput_ops_s").expect("gated");
        assert_eq!(p.direction, Direction::HigherBetter);
        assert!((p.tolerance - 0.10).abs() < 1e-12);
        let p = policy_for("latency_p50_us").expect("gated");
        assert_eq!(p.direction, Direction::LowerBetter);
        assert!((p.tolerance - 0.15).abs() < 1e-12);
        let p = policy_for("latency_p999_us").expect("gated");
        assert!((p.tolerance - 0.25).abs() < 1e-12);
        let p = policy_for("latency_max_us").expect("gated");
        assert!((p.tolerance - 0.25).abs() < 1e-12);
        assert!(policy_for("completed_ops").is_none());
    }

    #[test]
    fn identical_suites_pass() {
        let s = suite(&[("echo", "throughput_ops_s", 1000.0), ("echo", "p50_us", 100.0)]);
        let report = diff(&s, &s, None);
        assert!(!report.regressed());
        assert!(report.verdicts.iter().all(|v| v.status == Status::Ok));
    }

    #[test]
    fn throughput_drop_beyond_tolerance_regresses() {
        let old = suite(&[("echo", "throughput_ops_s", 1000.0)]);
        let ok = suite(&[("echo", "throughput_ops_s", 950.0)]);
        assert!(!diff(&old, &ok, None).regressed(), "5% drop is within the 10% gate");
        let bad = suite(&[("echo", "throughput_ops_s", 800.0)]);
        let report = diff(&old, &bad, None);
        assert!(report.regressed(), "20% drop must trip the 10% gate");
        let v = &report.verdicts[0];
        assert_eq!(v.status, Status::Regressed);
        assert!((v.change.expect("both sides") + 0.2).abs() < 1e-9);
        // Two cells regressing on the same metric name stay tellable apart.
        let old = suite(&[
            ("echo_w1", "throughput_ops_s", 1000.0),
            ("echo_w2", "throughput_ops_s", 1000.0),
        ]);
        let bad = suite(&[
            ("echo_w1", "throughput_ops_s", 800.0),
            ("echo_w2", "throughput_ops_s", 700.0),
        ]);
        assert_eq!(
            diff(&old, &bad, None).regressed_names(),
            ["echo_w1/throughput_ops_s", "echo_w2/throughput_ops_s"]
        );
    }

    #[test]
    fn latency_rise_gates_by_suffix_tolerance() {
        let old = suite(&[("echo", "p50_us", 100.0), ("echo", "latency_p999_us", 100.0)]);
        let new = suite(&[("echo", "p50_us", 120.0), ("echo", "latency_p999_us", 120.0)]);
        let report = diff(&old, &new, None);
        let by_name =
            |m: &str| report.verdicts.iter().find(|v| v.metric == m).expect("present").status;
        assert_eq!(by_name("p50_us"), Status::Regressed, "20% > 15% tolerance");
        assert_eq!(by_name("latency_p999_us"), Status::Ok, "20% <= 25% tail tolerance");
    }

    #[test]
    fn improvements_and_new_metrics_never_fail() {
        let old = suite(&[("echo", "throughput_ops_s", 1000.0)]);
        let new = suite(&[("echo", "throughput_ops_s", 2000.0), ("echo", "completed_ops", 5.0)]);
        let report = diff(&old, &new, None);
        assert!(!report.regressed());
        assert_eq!(report.verdicts[0].status, Status::Improved);
        assert_eq!(report.verdicts[1].status, Status::Info);
    }

    #[test]
    fn vanished_gated_metric_regresses() {
        let old = suite(&[("echo", "throughput_ops_s", 1000.0)]);
        let new = suite(&[("echo", "p50_us", 100.0)]);
        let report = diff(&old, &new, None);
        assert!(report.regressed());
        assert_eq!(report.verdicts[0].new, None);
    }

    #[test]
    fn tolerance_override_replaces_defaults() {
        let old = suite(&[("echo", "throughput_ops_s", 1000.0)]);
        let new = suite(&[("echo", "throughput_ops_s", 800.0)]);
        assert!(diff(&old, &new, None).regressed());
        assert!(!diff(&old, &new, Some(0.5)).regressed(), "50% override lets a 20% drop pass");
    }

    #[test]
    fn zero_baseline_is_informational() {
        let old = suite(&[("echo", "p50_us", 0.0)]);
        let new = suite(&[("echo", "p50_us", 50.0)]);
        let report = diff(&old, &new, None);
        assert!(!report.regressed());
        assert_eq!(report.verdicts[0].status, Status::Info);
    }
}
