//! Figure 6: compromised runs under the notable 2017/2018 attacks —
//! WannaCry, StackClash, Petya, and all three together.
//!
//! Protocol (§6.2): the learning phase runs to the end of 2017; the
//! execution phase covers the full eight months; each attack's campaign is
//! injected into the world with its real profile (wormable Windows RCE with
//! a day-0 exploit; a cross-Unix stack-clash privilege escalation published
//! as per-lineage CVEs; a ransomware chain).
//!
//! Usage: `fig6_attacks [runs] [seed]` (defaults: 1000, 42).

use lazarus_bench::write_metrics_json;
use lazarus_osint::date::Date;
use lazarus_osint::synth::{attacks, SyntheticWorld, WorldConfig};
use lazarus_risk::epoch::{EpochConfig, Evaluator, ThreatScope};
use lazarus_risk::strategies::StrategyKind;

fn main() {
    let obs = lazarus_obs::Obs::unclocked();
    let mut args = std::env::args().skip(1);
    let runs: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1000);
    let seed: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(42);

    println!("=== Figure 6 — compromised runs with notable attacks ({runs} runs, seed {seed}) ===");
    let mut world = SyntheticWorld::generate(WorldConfig::paper_study(seed));
    let oses = world.config.oses.clone();
    let base = world.campaigns.len();

    let (wc, wv) = attacks::wannacry(base, &oses, Date::from_ymd(2018, 2, 15));
    let wannacry_id = wc.id;
    world.inject(wc, wv);
    let (sc, sv) = attacks::stackclash(base + 1, &oses, Date::from_ymd(2018, 4, 19));
    let stackclash_id = sc.id;
    world.inject(sc, sv);
    let (pc, pv) = attacks::petya(base + 2, &oses, Date::from_ymd(2018, 6, 27));
    let petya_id = pc.id;
    world.inject(pc, pv);

    let eval = Evaluator::new(&world, EpochConfig::paper());
    let window = (Date::from_ymd(2018, 1, 1), Date::from_ymd(2018, 9, 1));

    let scopes: [(&str, Vec<usize>); 4] = [
        ("WannaCry", vec![wannacry_id]),
        ("StackClash", vec![stackclash_id]),
        ("Petya", vec![petya_id]),
        ("All", vec![wannacry_id, stackclash_id, petya_id]),
    ];

    println!(
        "\n{:<12} {:>9} {:>9} {:>9} {:>9} {:>9}",
        "attack", "Lazarus", "CVSSv3", "Common", "Random", "Equal"
    );
    for (name, ids) in scopes {
        print!("{name:<12}");
        for kind in StrategyKind::ALL {
            let stats = eval.run_window_observed(
                kind,
                window,
                &ThreatScope::Campaigns(ids.clone()),
                runs,
                seed,
                Some(&obs),
            );
            obs.registry
                .gauge_with("fig6_compromised_pct", &[("attack", name), ("strategy", kind.name())])
                .set(stats.compromised_pct());
            print!(" {:>8.1}%", stats.compromised_pct());
        }
        println!();
    }
    println!(
        "\npaper shape: Lazarus handles every scenario with almost no compromised \
         executions; StackClash is the most destructive attack (it hits every Unix lineage)."
    );
    write_metrics_json("fig6_attacks", &obs.registry);
}
