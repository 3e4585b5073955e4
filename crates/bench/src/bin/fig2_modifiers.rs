//! Figure 2: the score-modifier ladder (age × patch × exploit).
//!
//! Reproduces the eight scenario modifiers the paper lists:
//! `NE 1.25 > N 1 > OE 0.94 > O 0.75 > NPE 0.625 > NP 0.5 > OPE 0.47 >
//! OP 0.37`.

use lazarus_bench::{print_table, write_metrics_json};
use lazarus_risk::score::Scenario;

fn main() {
    let registry = lazarus_obs::Registry::new();
    let ladder = [
        (Scenario::NE, "new + exploit, no patch (worst case)"),
        (Scenario::N, "new, no patch, no exploit"),
        (Scenario::OE, "old + exploit, no patch"),
        (Scenario::O, "old, no patch, no exploit"),
        (Scenario::NPE, "new + exploit + patch"),
        (Scenario::NP, "new + patch"),
        (Scenario::OPE, "old + exploit + patch"),
        (Scenario::OP, "old + patch (best case)"),
    ];
    let rows: Vec<(String, String)> = ladder
        .iter()
        .map(|(s, desc)| {
            let scenario = format!("{s:?}");
            registry
                .gauge_with("fig2_modifier", &[("scenario", scenario.as_str())])
                .set(s.ladder_modifier());
            (format!("{scenario} — {desc}"), format!("{:.4}", s.ladder_modifier()))
        })
        .collect();
    print_table(
        "Figure 2 — modifiers of vulnerability scores (paper: 1.25 1 0.94 0.75 0.625 0.5 0.47 0.37)",
        ("scenario", "modifier"),
        &rows,
    );
    write_metrics_json("fig2_modifiers", &registry);
}
