//! `lazarus_bench::write_artifact`, seen from outside a harness: the `wrote`
//! notice stays off stdout, and a harness that cannot write its artifact
//! does not exit 0.

use std::process::Command;

#[test]
fn a_failed_artifact_write_exits_1_and_a_good_one_keeps_stdout_clean() {
    let dir = std::env::temp_dir().join(format!("lazarus_artifact_exit_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let table2 = |metrics_dir: &std::path::Path| {
        Command::new(env!("CARGO_BIN_EXE_table2_oses"))
            .env("LAZARUS_METRICS_DIR", metrics_dir)
            .output()
            .expect("table2_oses spawns")
    };

    let good = table2(&dir);
    assert!(good.status.success());
    assert!(dir.join("table2_oses_metrics.json").is_file());
    assert!(String::from_utf8_lossy(&good.stderr).contains("wrote "));
    assert!(!String::from_utf8_lossy(&good.stdout).contains("wrote "));

    // A regular file where the metrics directory should be.
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, b"").expect("scratch file");
    let bad = table2(&blocker.join("metrics"));
    assert_eq!(bad.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&bad.stderr).contains("failed to write "));

    let _ = std::fs::remove_dir_all(&dir);
}
