//! Percentiles, medians, quartile spread and the `/proc` readers the
//! reported numbers rest on.

use std::time::Duration;

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it. `None` when empty.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Duration samples of one kind (nanoseconds), sorted on demand.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.ns.push(d.as_nanos() as u64);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    pub fn extend(&mut self, other: Samples) {
        self.ns.extend(other.ns);
        self.sorted = false;
    }

    /// Nearest-rank percentile in nanoseconds (0 when there are no samples,
    /// which every caller treats as a failed run).
    pub fn p(&mut self, p: f64) -> f64 {
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        percentile(&self.ns, p).unwrap_or(0) as f64
    }
}

/// Median as Python's `statistics.median` computes it (mean of the two
/// middle values for an even count). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 { v[mid] } else { (v[mid - 1] + v[mid]) / 2.0 })
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// computes them (the default "exclusive" method). `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Process CPU time from the text of `/proc/<pid>/stat`: (user, system) in
/// clock ticks. The command name may hold spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime = fields.next()?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// The value of one `Key:   <number> [kB]` line of `/proc/<pid>/status`.
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// Linux reports process times in units of `USER_HZ`, which is 100 on every
/// architecture the kernel supports.
const TICKS_PER_SECOND: f64 = 100.0;

/// (user, system) CPU seconds this process has used so far, in ticks of
/// 10 ms: good for the split between the two over a long window.
pub fn cpu_seconds() -> (f64, f64) {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_ticks(&s))
        .map_or((0.0, 0.0), |(u, s)| (u as f64 / TICKS_PER_SECOND, s as f64 / TICKS_PER_SECOND))
}

/// Nanoseconds on a processor from the text of `/proc/<pid>/task/<tid>/schedstat`
/// (its first field).
pub fn parse_schedstat_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_ascii_whitespace().next()?.parse().ok()
}

/// CPU seconds the live threads of this process have used so far, at the
/// scheduler's nanosecond resolution (the tick counts of [`cpu_seconds`]
/// where the kernel keeps no scheduler statistics). Differences are
/// meaningful over windows in which no thread exits.
pub fn cpu_time() -> f64 {
    let per_task = std::fs::read_dir("/proc/self/task").ok().map(|tasks| {
        tasks
            .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("schedstat")).ok())
            .filter_map(|s| parse_schedstat_ns(&s))
            .sum::<u64>()
    });
    match per_task {
        Some(ns) if ns > 0 => ns as f64 / 1e9,
        _ => {
            let (user, system) = cpu_seconds();
            user + system
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_field(&s, "VmHWM"))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Voluntary plus involuntary context switches summed over the live threads
/// of this process.
pub fn context_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return 0 };
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("status")).ok())
        .map(|s| {
            parse_status_field(&s, "voluntary_ctxt_switches").unwrap_or(0)
                + parse_status_field(&s, "nonvoluntary_ctxt_switches").unwrap_or(0)
        })
        .sum()
}

/// A seeded generator for the harness's own choices (splitmix64), so the
/// inputs are a function of `--seed` alone.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_tiny_samples() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7], 50.0), Some(7));
        assert_eq!(percentile(&[7], 99.0), Some(7));
        // n = 4: p50 is the 2nd value, p75 the 3rd, anything above the 4th.
        let v = [10, 20, 30, 40];
        assert_eq!(percentile(&v, 50.0), Some(20));
        assert_eq!(percentile(&v, 75.0), Some(30));
        assert_eq!(percentile(&v, 76.0), Some(40));
        assert_eq!(percentile(&v, 99.9), Some(40));
        assert_eq!(percentile(&v, 0.0), Some(10));
        // n = 5: p50 is the middle value, p90 the last.
        let v = [1, 2, 3, 4, 5];
        assert_eq!(percentile(&v, 50.0), Some(3));
        assert_eq!(percentile(&v, 90.0), Some(5));
    }

    #[test]
    fn samples_sort_lazily() {
        let mut s = Samples::default();
        for ms in [5, 1, 3] {
            s.push(Duration::from_millis(ms));
        }
        assert_eq!(s.p(50.0), 3e6);
        s.push(Duration::from_millis(0));
        assert_eq!(s.p(50.0), 1e6);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        // statistics.median / statistics.quantiles(n=4) on the same lists.
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[5.0]), None);
        assert_eq!(spread(&ten), Some(1.0));
    }

    #[test]
    fn stat_parser_survives_hostile_command_names() {
        let stat = "4242 (a b) c) S 1 4242 4242 0 -1 4194304 120 0 0 0 37 11 0 0 20 0 6 0 999 1 2";
        assert_eq!(parse_stat_cpu_ticks(stat), Some((37, 11)));
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
    }

    #[test]
    fn status_parser_reads_kb_and_counts() {
        let status = "Name:\tbench\nVmHWM:\t  204800 kB\nvoluntary_ctxt_switches:\t12\n\
                      nonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(204_800));
        assert_eq!(parse_status_field(status, "voluntary_ctxt_switches"), Some(12));
        assert_eq!(parse_status_field(status, "nonvoluntary_ctxt_switches"), Some(3));
        assert_eq!(parse_status_field(status, "VmRSS"), None);
    }

    #[test]
    fn schedstat_parser_takes_the_first_field() {
        assert_eq!(parse_schedstat_ns("509148239 9208089 47\n"), Some(509_148_239));
        assert_eq!(parse_schedstat_ns(""), None);
        assert_eq!(parse_schedstat_ns("x 1 2"), None);
    }

    #[test]
    fn proc_readers_work_on_this_process() {
        assert!(peak_rss_mib() > 0.0);
        let before = cpu_time();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_time() > before, "a busy loop of {x} used CPU time");
        let _ = cpu_seconds();
        let _ = context_switches();
    }

    #[test]
    fn splitmix_repeats_per_seed() {
        let mut a = SplitMix(7);
        let mut b = SplitMix(7);
        let mut c = SplitMix(8);
        let xs: Vec<u64> = (0..4).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..4).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..4).map(|_| c.next_u64()).collect::<Vec<_>>());
    }
}
