//! The testbed OS catalog: paper Table 2 plus calibrated performance
//! profiles.
//!
//! Each of the 17 guest OSes runs in a VM whose resources are capped by the
//! virtualization platform (VirtualBox in the paper): the fast group gets
//! 4 vCPUs / 15 GB, Windows and FreeBSD get 4 vCPUs / 1 GB, and Solaris /
//! OpenBSD are limited to a single vCPU — which is exactly what shapes
//! Figures 7, 8 and 10. The profile numbers below are calibrated so a
//! 4-replica homogeneous cluster reproduces the paper's throughput *shape*:
//! bare metal ≈ 60k/17k ops/s (0/0 and 1024/1024), Ubuntu-class VMs at
//! ~66%/75% of that, Debian/Windows/FreeBSD much slower on small messages
//! but close on large ones, and the single-core group around 3k ops/s.

use lazarus_osint::catalog::{OsFamily, OsVersion};

use crate::sim::Micros;

/// The hardware/VM performance profile of one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfProfile {
    /// Usable cores (VirtualBox caps, Table 2).
    pub cores: usize,
    /// Memory in whole GB (Table 2).
    pub memory_gb: u32,
    /// Fixed CPU cost to handle one protocol message (receive + handle +
    /// send amortized), in µs of core time.
    pub per_msg_us: u64,
    /// Additional CPU cost per KiB of message payload, in µs.
    pub per_kb_us: u64,
    /// Boot time from power-on to replica-ready.
    pub boot: Micros,
    /// Snapshot serialization rate, MB/s (drives checkpoint dips, Fig 9).
    pub snapshot_mb_s: u64,
}

impl PerfProfile {
    /// The homogeneous bare-metal baseline of §7 (4 cores of the Xeon
    /// E5520 host, no virtualization).
    pub fn bare_metal() -> PerfProfile {
        PerfProfile {
            cores: 4,
            memory_gb: 32,
            per_msg_us: 40,
            per_kb_us: 30,
            boot: 125 * crate::sim::SEC, // "more than 2 mins" (§7.3)
            snapshot_mb_s: 400,
        }
    }

    /// Bare metal with boot cut to 50 ms: join scenarios on a few-second
    /// horizon compress the §7.3 125 s machine boot to keep the *transfer*
    /// (not the BIOS) under test.
    pub fn fast_boot() -> PerfProfile {
        PerfProfile { boot: 50 * crate::sim::MS, ..PerfProfile::bare_metal() }
    }

    /// CPU time to process a message of `bytes` payload bytes.
    pub fn msg_cost(&self, bytes: usize) -> Micros {
        self.per_msg_us + (bytes as u64 * self.per_kb_us) / 1024
    }
}

/// One catalog entry: an OS version plus its VM profile.
#[derive(Debug, Clone, PartialEq)]
pub struct CatalogEntry {
    /// The OS version.
    pub os: OsVersion,
    /// Its VM performance profile.
    pub profile: PerfProfile,
}

/// Performance tier of a guest OS under the virtualization platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Ubuntu / OpenSuse / Fedora: well supported, 4 vCPUs, 15 GB.
    Fast,
    /// Debian / Windows / FreeBSD: 4 vCPUs but expensive small-message
    /// virtualization exits.
    Medium,
    /// Solaris / OpenBSD: single vCPU.
    SingleCore,
}

/// The tier of an OS version in the §7 testbed.
pub fn tier(os: OsVersion) -> Tier {
    match os.family {
        OsFamily::Ubuntu | OsFamily::OpenSuse | OsFamily::Fedora => Tier::Fast,
        OsFamily::Debian | OsFamily::Windows | OsFamily::FreeBsd | OsFamily::RedHat => Tier::Medium,
        OsFamily::Solaris | OsFamily::OpenBsd => Tier::SingleCore,
    }
}

/// The VM profile of an OS version (Table 2 resources + calibrated costs).
pub fn vm_profile(os: OsVersion) -> PerfProfile {
    use crate::sim::SEC;
    let bm = PerfProfile::bare_metal();
    match tier(os) {
        Tier::Fast => PerfProfile {
            cores: 4,
            memory_gb: 15,
            per_msg_us: (bm.per_msg_us as f64 * 1.5) as u64, // ≈ 66% of BM on 0/0
            per_kb_us: (bm.per_kb_us as f64 * 1.25) as u64,  // ≈ 75% on 1024/1024
            boot: 40 * SEC,                                  // "boots in 40 secs" (§7.3)
            snapshot_mb_s: 300,
        },
        Tier::Medium => PerfProfile {
            cores: 4,
            memory_gb: if os.family == OsFamily::Debian { 15 } else { 1 },
            per_msg_us: (bm.per_msg_us as f64 * 4.2) as u64, // far worse on 0/0
            per_kb_us: (bm.per_kb_us as f64 * 1.4) as u64,   // but close on 1024/1024
            boot: 70 * SEC,
            snapshot_mb_s: 220,
        },
        Tier::SingleCore => PerfProfile {
            cores: 1,
            memory_gb: 1,
            per_msg_us: (bm.per_msg_us as f64 * 3.2) as u64, // 1 core → ≈ 3k ops/s
            per_kb_us: (bm.per_kb_us as f64 * 1.0) as u64,
            boot: 90 * SEC,
            snapshot_mb_s: 120,
        },
    }
}

/// The full Table 2 catalog: the 17 testbed OS versions with their VM
/// profiles.
pub fn table2() -> Vec<CatalogEntry> {
    lazarus_osint::catalog::testbed_oses()
        .into_iter()
        .map(|os| CatalogEntry { os, profile: vm_profile(os) })
        .collect()
}

/// Looks up a catalog entry by the paper's short id (`UB16`, `SO11`, …).
pub fn by_short_id(id: &str) -> Option<CatalogEntry> {
    table2().into_iter().find(|e| e.os.short_id() == id)
}

/// The "fastest" diverse configuration of §7.2: UB17, UB16, FE24, OS42.
pub fn fastest_set() -> Vec<OsVersion> {
    ["UB17", "UB16", "FE24", "OS42"]
        .iter()
        .map(|id| by_short_id(id).expect("catalog id").os)
        .collect()
}

/// The cross-family configuration of §7.2: UB16, W10, SO10, OB61.
pub fn cross_family_set() -> Vec<OsVersion> {
    ["UB16", "W10", "SO10", "OB61"]
        .iter()
        .map(|id| by_short_id(id).expect("catalog id").os)
        .collect()
}

/// The "slowest" diverse configuration of §7.2: OB60, OB61, SO10, SO11.
pub fn slowest_set() -> Vec<OsVersion> {
    ["OB60", "OB61", "SO10", "SO11"]
        .iter()
        .map(|id| by_short_id(id).expect("catalog id").os)
        .collect()
}

/// The initial Lazarus configuration of the §7.3 reconfiguration
/// experiment: DE8, OS42, FE26, SO11.
pub fn reconfig_set() -> Vec<OsVersion> {
    ["DE8", "OS42", "FE26", "SO11"]
        .iter()
        .map(|id| by_short_id(id).expect("catalog id").os)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_has_17_entries_with_table_resources() {
        let entries = table2();
        assert_eq!(entries.len(), 17);
        // Table 2 resource caps.
        let get = |id: &str| by_short_id(id).unwrap().profile;
        assert_eq!(get("UB16").cores, 4);
        assert_eq!(get("UB16").memory_gb, 15);
        assert_eq!(get("W10").cores, 4);
        assert_eq!(get("W10").memory_gb, 1);
        assert_eq!(get("FB11").memory_gb, 1);
        assert_eq!(get("SO10").cores, 1);
        assert_eq!(get("OB61").cores, 1);
        assert_eq!(get("OB61").memory_gb, 1);
    }

    #[test]
    fn tiers_partition_the_catalog() {
        let mut fast = 0;
        let mut medium = 0;
        let mut single = 0;
        for e in table2() {
            match tier(e.os) {
                Tier::Fast => fast += 1,
                Tier::Medium => medium += 1,
                Tier::SingleCore => single += 1,
            }
        }
        assert_eq!(fast, 7); // 3×UB + OS42 + 3×FE
        assert_eq!(medium, 6); // 2×DE + 2×W + 2×FB
        assert_eq!(single, 4); // 2×SO + 2×OB
    }

    #[test]
    fn cost_ordering_matches_paper_tiers() {
        let bm = PerfProfile::bare_metal();
        let fast = by_short_id("UB16").unwrap().profile;
        let medium = by_short_id("DE8").unwrap().profile;
        let single = by_short_id("SO11").unwrap().profile;
        assert!(bm.per_msg_us < fast.per_msg_us);
        assert!(fast.per_msg_us < medium.per_msg_us);
        // The single-core tier's bottleneck is its one vCPU, not its
        // per-message cost.
        assert!(single.per_msg_us > fast.per_msg_us);
        assert_eq!(single.cores, 1);
        // Large payload costs are much closer between fast and medium.
        let ratio_small = medium.per_msg_us as f64 / fast.per_msg_us as f64;
        let ratio_large = medium.msg_cost(1024) as f64 / fast.msg_cost(1024) as f64;
        assert!(ratio_large < ratio_small * 0.85, "{ratio_large} vs {ratio_small}");
    }

    #[test]
    fn msg_cost_scales_with_bytes() {
        let p = PerfProfile::bare_metal();
        assert_eq!(p.msg_cost(0), p.per_msg_us);
        assert_eq!(p.msg_cost(1024), p.per_msg_us + p.per_kb_us);
        assert!(p.msg_cost(4096) > p.msg_cost(1024));
    }

    #[test]
    fn named_sets_match_the_paper() {
        assert_eq!(
            fastest_set().iter().map(|o| o.short_id()).collect::<Vec<_>>(),
            vec!["UB17", "UB16", "FE24", "OS42"]
        );
        assert_eq!(
            cross_family_set().iter().map(|o| o.short_id()).collect::<Vec<_>>(),
            vec!["UB16", "W10", "SO10", "OB61"]
        );
        assert_eq!(
            slowest_set().iter().map(|o| o.short_id()).collect::<Vec<_>>(),
            vec!["OB60", "OB61", "SO10", "SO11"]
        );
        assert_eq!(
            reconfig_set().iter().map(|o| o.short_id()).collect::<Vec<_>>(),
            vec!["DE8", "OS42", "FE26", "SO11"]
        );
    }

    #[test]
    fn vm_boot_is_faster_than_bare_metal() {
        // §7.3: BM boot > 2 min, Ubuntu VM ≈ 40 s.
        let bm = PerfProfile::bare_metal();
        let ub = by_short_id("UB16").unwrap().profile;
        assert!(ub.boot < bm.boot / 2);
    }

    #[test]
    fn unknown_short_id_is_none() {
        assert!(by_short_id("ZZ99").is_none());
    }
}
