//! The `bench_suite` presets end to end, through the built binary: every
//! preset's `--smoke` output is a valid suite file, the `cst` preset's hard
//! checks hold on what it reports, and a cell two presets share reports the
//! same number under both.

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};

use lazarus_bench::perf::Suite;

/// Runs `bench_suite <preset> --smoke` and parses what it wrote. A non-zero
/// exit — a hard check inside the runner failed — fails the test.
fn smoke(preset: &str) -> Suite {
    // Tests run on parallel threads and two of them run the same preset.
    static CALLS: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "lazarus_suite_presets_{}_{}",
        std::process::id(),
        CALLS.fetch_add(1, Ordering::Relaxed)
    ));
    let out = dir.join("BENCH.json");
    let run = Command::new(env!("CARGO_BIN_EXE_bench_suite"))
        .args([preset, "--smoke"])
        .arg(&out)
        .env("LAZARUS_METRICS_DIR", &dir)
        .env_remove("LAZARUS_PROFILE_DIR")
        .output()
        .expect("bench_suite spawns");
    assert!(
        run.status.success(),
        "bench_suite {preset} --smoke failed:\n{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let body = std::fs::read_to_string(&out).expect("the suite file was written");
    let _ = std::fs::remove_dir_all(&dir);
    let suite = Suite::from_json(&body).expect("the output parses under the suite schema");
    assert_eq!(suite.to_json().to_json(), body, "{preset}: the output round-trips");
    suite
}

fn metric(suite: &Suite, workload: &str, metric: &str) -> f64 {
    suite
        .workloads
        .iter()
        .find(|(w, _)| w == workload)
        .and_then(|(_, metrics)| metrics.iter().find(|(m, _)| m == metric))
        .unwrap_or_else(|| panic!("{workload}/{metric} is reported"))
        .1
}

#[test]
fn cst_preset_reports_what_its_hard_checks_enforce() {
    let cst = smoke("cst");
    for transfer in ["transfer_256k", "resume_4096k"] {
        let bytes = metric(&cst, transfer, "state_bytes") + 8.0;
        let manifest = (bytes / metric(&cst, transfer, "chunk_bytes")).ceil();
        assert_eq!(
            metric(&cst, transfer, "chunks"),
            manifest,
            "{transfer}: every chunk of the manifest is fetched exactly once"
        );
    }
    assert_eq!(metric(&cst, "transfer_256k", "chunks"), 5.0);
    assert!(
        metric(&cst, "resume_4096k", "chunks_resumed") > 0.0,
        "chunks carry over the designee rotation"
    );
    assert_eq!(metric(&cst, "resume_4096k", "chunks_rejected"), 0.0);
    assert_eq!(
        metric(&cst, "journal_64k", "records"),
        51.0,
        "the reopened journal replays its checkpoint and all 50 batches"
    );
}

#[test]
fn an_unknown_preset_is_a_usage_error() {
    let run = Command::new(env!("CARGO_BIN_EXE_bench_suite"))
        .arg("hotpath")
        .output()
        .expect("bench_suite spawns");
    assert_eq!(run.status.code(), Some(2));
}

/// The `baseline` and `pipeline` smoke presets simulate for minutes in an
/// unoptimised build; `ci.sh` runs this test with `--release`.
#[test]
#[cfg_attr(debug_assertions, ignore = "minutes without optimisation: cargo test --release")]
fn shared_cells_report_the_same_value_under_both_presets() {
    let baseline = smoke("baseline");
    let pipeline = smoke("pipeline");
    let cst = smoke("cst");
    for window in [1, 2, 4] {
        assert_eq!(
            metric(&baseline, "pipeline", &format!("w{window}_ops_s")),
            metric(&pipeline, &format!("echo_w{window}_adaptive"), "throughput_ops_s"),
            "window {window} cell"
        );
    }
    for key in ["transfer_us", "chunks"] {
        assert_eq!(
            metric(&baseline, "cst", key),
            metric(&cst, "transfer_256k", key),
            "256 KiB transfer cell, {key}"
        );
    }
}
