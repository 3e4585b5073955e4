//! Figure 3: score evolution over time for the paper's three example
//! vulnerabilities (CVE-2018-8303 NE, CVE-2018-8012 NPE, CVE-2016-7180 OP).

use lazarus_osint::date::Date;
use lazarus_osint::fixtures;
use lazarus_osint::model::Vulnerability;
use lazarus_risk::score::ScoreParams;

fn series(label: &str, v: &Vulnerability, from: Date, days: i32, step: i32) {
    let params = ScoreParams::paper();
    println!("\n--- {label}: {} (CVSS {}) ---", v.id, v.cvss.base_score());
    if let Some(d) = v.patches.iter().map(|p| p.released).min() {
        println!("    patch available {d}");
    }
    if let Some(d) = v.first_exploit_date() {
        println!("    exploit available {d}");
    }
    let mut day = from;
    while day <= from + days {
        println!("    {day}  score {:5.2}", params.score(v, day));
        day += step;
    }
}

fn main() {
    println!("=== Figure 3 — score evolution for three vulnerabilities ===");
    let registry = lazarus_obs::Registry::new();
    // (a) NE: published 2018-09-07, exploit 2018-09-24, never patched.
    let ne = fixtures::cve_2018_8303();
    series("(a) NE", &ne, Date::from_ymd(2018, 9, 7), 30, 3);
    // (b) NPE: published 2018-05-20, patch 05-27, exploit 05-30.
    let npe = fixtures::cve_2018_8012();
    series("(b) NPE", &npe, Date::from_ymd(2018, 5, 20), 30, 2);
    // (c) OP: published 2016-09-08, patch 09-19, decaying for a year.
    let op = fixtures::cve_2016_7180();
    series("(c) OP", &op, Date::from_ymd(2016, 9, 8), 380, 60);

    // The paper's annotated values.
    let params = ScoreParams::paper();
    println!("\nPaper annotations vs computed:");
    println!(
        "    CVE-2018-8303 at exploit day: paper ≈ 10.1 (8.1×1.25), computed {:.2}",
        params.score(&ne, Date::from_ymd(2018, 9, 24))
    );
    println!(
        "    CVE-2018-8012 peak (exploit out, pre-patch): paper 9.37, computed {:.2}",
        params.score(&npe, Date::from_ymd(2018, 5, 24))
    );
    println!(
        "    CVE-2018-8012 after patch: paper 4.6, computed {:.2}",
        params.score(&npe, Date::from_ymd(2018, 5, 27))
    );
    println!(
        "    CVE-2016-7180 a year after patch: paper 0.75-band, computed {:.2}",
        params.score(&op, Date::from_ymd(2017, 9, 19))
    );

    let annotations: [(&str, &Vulnerability, Date); 4] = [
        ("CVE-2018-8303@exploit", &ne, Date::from_ymd(2018, 9, 24)),
        ("CVE-2018-8012@peak", &npe, Date::from_ymd(2018, 5, 24)),
        ("CVE-2018-8012@patched", &npe, Date::from_ymd(2018, 5, 27)),
        ("CVE-2016-7180@1y", &op, Date::from_ymd(2017, 9, 19)),
    ];
    for (point, v, day) in annotations {
        registry.gauge_with("fig3_score", &[("point", point)]).set(params.score(v, day));
    }
    lazarus_bench::write_metrics_json("fig3_score_evolution", &registry);
}
