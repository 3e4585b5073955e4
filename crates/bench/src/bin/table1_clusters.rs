//! Table 1: the three similar XSS vulnerabilities reported against
//! different OSes, recovered as one cluster by the description pipeline.

use lazarus_nlp::VulnClusters;
use lazarus_osint::fixtures;
use lazarus_osint::model::CveId;
use lazarus_osint::synth::{SyntheticWorld, WorldConfig};

fn main() {
    println!("=== Table 1 — similar vulnerabilities affecting different OSes ===\n");
    let triplet = fixtures::table1_triplet();
    for v in &triplet {
        let platforms: Vec<String> = v.affected.iter().map(|p| p.cpe.to_string()).collect();
        println!("{} ({})", v.id, v.published);
        println!("    {}", v.description);
        println!("    platforms: {}\n", platforms.join(", "));
    }

    // Embed the triplet in a realistic corpus and cluster.
    let mut config = WorldConfig::paper_study(1);
    config.end = lazarus_osint::date::Date::from_ymd(2016, 1, 1);
    let world = SyntheticWorld::generate(config);
    let mut corpus = world.vulnerabilities;
    corpus.extend(triplet);
    let clusters = VulnClusters::build(&corpus, 42);
    let registry = lazarus_obs::Registry::new();
    clusters.record_stats(&registry);
    println!(
        "clustered {} descriptions into k = {} clusters (elbow method)",
        clusters.len(),
        clusters.k()
    );

    let a = CveId::new(2014, 157);
    let b = CveId::new(2015, 3988);
    let c = CveId::new(2016, 4428);
    println!("\ncluster of CVE-2014-0157: {:?}", clusters.cluster_of(a));
    println!("cluster of CVE-2015-3988: {:?}", clusters.cluster_of(b));
    println!("cluster of CVE-2016-4428: {:?}", clusters.cluster_of(c));
    println!("\nsame_cluster(0157, 3988) = {}", clusters.same_cluster(a, b));
    println!("same_cluster(0157, 4428) = {}", clusters.same_cluster(a, c));
    println!("cosine(0157, 4428) = {:.3}", clusters.similarity(a, c).unwrap_or(0.0));
    assert!(
        clusters.same_cluster(a, b) && clusters.same_cluster(a, c),
        "the Table 1 triplet must land in one cluster"
    );
    println!("\n✓ the triplet lands in one cluster despite disjoint product lists");
    registry
        .gauge("table1_triplet_same_cluster")
        .set(f64::from(u8::from(clusters.same_cluster(a, b) && clusters.same_cluster(a, c))));
    registry.gauge("table1_cosine_0157_4428").set(clusters.similarity(a, c).unwrap_or(0.0));
    lazarus_bench::write_metrics_json("table1_clusters", &registry);
}
