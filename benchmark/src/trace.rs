//! In-memory span recorder for the traced runs.
//!
//! The benchmark wraps its calls into each layer's public functions in
//! spans. Spans nest per *lane*, one lane per thread of control: the
//! single-threaded pump uses one, so a decorator inside a replica opens its
//! span as a child of the `on_message` span the pump opened around the call;
//! the threaded runtime gives every replica thread a recorder of its own.
//! Every span is folded into per-name totals as it closes; the first
//! [`MAX_KEPT`] are also kept verbatim and written as one Chrome-trace JSON
//! when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Spans kept verbatim for the Chrome trace (the totals cover all of them).
pub const MAX_KEPT: usize = 200_000;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub lane: u32,
    /// Replica or client the call was made on.
    pub who: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span among the kept ones, if it was kept.
    pub parent: Option<u32>,
    /// Operation or slot the span belongs to (0 when there is none).
    pub id: u64,
}

/// Totals of every span of one name.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Total {
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus the time covered by direct child spans.
    pub self_ns: u64,
}

impl Total {
    /// Mean inclusive duration per call, in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }
}

#[derive(Debug)]
struct Open {
    name: &'static str,
    start_ns: u64,
    /// Time covered by already closed direct children.
    child_ns: u64,
    /// Slot reserved among the kept spans, when below the cap.
    kept: Option<u32>,
}

#[derive(Debug)]
struct Inner {
    origin: Instant,
    paused: bool,
    stacks: BTreeMap<u32, Vec<Open>>,
    totals: BTreeMap<&'static str, Total>,
    kept: Vec<Span>,
}

/// A shareable handle on one recorder. Decorators inside replica threads
/// hold clones, so the state sits behind a mutex (uncontended in the
/// single-threaded pump).
#[derive(Debug, Clone)]
pub struct Tracer(Arc<Mutex<Inner>>);

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer(Arc::new(Mutex::new(Inner {
            origin: Instant::now(),
            paused: false,
            stacks: BTreeMap::new(),
            totals: BTreeMap::new(),
            kept: Vec::new(),
        })))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.0.lock().expect("a thread panicked while recording a span")
    }

    /// Opens a span on `lane`; it becomes the parent of spans opened on the
    /// same lane until the matching [`Tracer::exit`].
    pub fn enter(&self, lane: u32, name: &'static str, who: u32, id: u64) {
        let mut inner = self.lock();
        if !inner.paused {
            let start_ns = inner.origin.elapsed().as_nanos() as u64;
            inner.enter_at(lane, name, who, id, start_ns);
        }
    }

    /// Closes the innermost open span of `lane`.
    pub fn exit(&self, lane: u32) {
        let mut inner = self.lock();
        if !inner.paused {
            let end_ns = inner.origin.elapsed().as_nanos() as u64;
            inner.exit_at(lane, end_ns);
        }
    }

    /// Stops (or resumes) recording. Only toggled while no span is open:
    /// warm-up and output checks run through the same decorated calls and
    /// must not count.
    pub fn set_paused(&self, paused: bool) {
        let mut inner = self.lock();
        debug_assert!(inner.stacks.values().all(Vec::is_empty), "toggled inside a span");
        inner.paused = paused;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &self,
        lane: u32,
        name: &'static str,
        who: u32,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        self.enter(lane, name, who, id);
        let out = f();
        self.exit(lane);
        out
    }

    /// Folds another recorder's closed spans into this one (recorders that
    /// threads filled on their own, without sharing a lock).
    pub fn merge(&self, other: &Tracer) {
        let other = other.lock();
        let mut inner = self.lock();
        for (name, t) in &other.totals {
            let total = inner.totals.entry(name).or_default();
            total.count += t.count;
            total.total_ns += t.total_ns;
            total.self_ns += t.self_ns;
        }
        let offset = other.origin.saturating_duration_since(inner.origin).as_nanos() as u64;
        let base = inner.kept.len() as u32;
        let room = MAX_KEPT.saturating_sub(inner.kept.len());
        let moved: Vec<Span> = other
            .kept
            .iter()
            .take(room)
            .map(|s| Span {
                start_ns: s.start_ns + offset,
                end_ns: s.end_ns + offset,
                parent: s.parent.filter(|p| (*p as usize) < room).map(|p| p + base),
                ..s.clone()
            })
            .collect();
        inner.kept.extend(moved);
    }

    /// Totals of the spans named `name` (zero when none closed).
    pub fn total(&self, name: &str) -> Total {
        self.lock().totals.get(name).copied().unwrap_or_default()
    }

    /// Every name with its totals, by name.
    pub fn totals(&self) -> Vec<(&'static str, Total)> {
        self.lock().totals.iter().map(|(n, t)| (*n, *t)).collect()
    }

    /// Wall time the closed spans cover: self times partition each lane's
    /// outermost spans, so their sum counts every covered instant once.
    pub fn covered(&self) -> Duration {
        Duration::from_nanos(self.lock().totals.values().map(|t| t.self_ns).sum())
    }

    /// Number of spans closed so far.
    pub fn closed(&self) -> u64 {
        self.lock().totals.values().map(|t| t.count).sum()
    }

    /// The kept spans as Chrome-trace JSON (`chrome://tracing`, Perfetto).
    pub fn chrome_json(&self) -> String {
        let inner = self.lock();
        let mut out = String::with_capacity(inner.kept.len() * 96 + 64);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, s) in inner.kept.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"who\":{},\"id\":{},\"parent\":{}}}}}",
                s.name,
                s.lane,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.who,
                s.id,
                s.parent.map_or(-1, i64::from),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Runs `f` inside a span on lane 0 when a recorder is given (the
/// single-threaded drivers' one stack), and plainly when not.
pub fn span<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    who: u32,
    id: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.span(0, name, who, id, f),
        None => f(),
    }
}

impl Inner {
    fn enter_at(&mut self, lane: u32, name: &'static str, who: u32, id: u64, start_ns: u64) {
        let kept = (self.kept.len() < MAX_KEPT).then(|| {
            let parent = self.stacks.get(&lane).and_then(|s| s.last()).and_then(|o| o.kept);
            self.kept.push(Span { name, lane, who, start_ns, end_ns: start_ns, parent, id });
            (self.kept.len() - 1) as u32
        });
        self.stacks.entry(lane).or_default().push(Open { name, start_ns, child_ns: 0, kept });
    }

    fn exit_at(&mut self, lane: u32, end_ns: u64) {
        let Some(stack) = self.stacks.get_mut(&lane) else { return };
        let Some(open) = stack.pop() else { return };
        let dur = end_ns.saturating_sub(open.start_ns);
        if let Some(parent) = stack.last_mut() {
            parent.child_ns += dur;
        }
        let total = self.totals.entry(open.name).or_default();
        total.count += 1;
        total.total_ns += dur;
        total.self_ns += dur.saturating_sub(open.child_ns);
        if let Some(i) = open.kept {
            self.kept[i as usize].end_ns = end_ns;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inner() -> Inner {
        Inner {
            origin: Instant::now(),
            paused: false,
            stacks: BTreeMap::new(),
            totals: BTreeMap::new(),
            kept: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children_once() {
        let mut t = inner();
        // root [0,100) holds a [10,40) and b [40,70); a holds leaf [20,30).
        t.enter_at(1, "root", 0, 7, 0);
        t.enter_at(1, "a", 0, 7, 10);
        t.enter_at(1, "leaf", 0, 7, 20);
        t.exit_at(1, 30);
        t.exit_at(1, 40);
        t.enter_at(1, "b", 0, 7, 40);
        t.exit_at(1, 70);
        t.exit_at(1, 100);
        let get = |n: &str| t.totals[n];
        assert_eq!(get("root"), Total { count: 1, total_ns: 100, self_ns: 40 });
        assert_eq!(get("a"), Total { count: 1, total_ns: 30, self_ns: 20 });
        assert_eq!(get("leaf"), Total { count: 1, total_ns: 10, self_ns: 10 });
        assert_eq!(get("b"), Total { count: 1, total_ns: 30, self_ns: 30 });
        // Self times partition the root interval.
        let sum: u64 = t.totals.values().map(|x| x.self_ns).sum();
        assert_eq!(sum, 100);
        // Parent links follow the nesting.
        let parents: Vec<Option<u32>> = t.kept.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0)]);
    }

    #[test]
    fn lanes_nest_independently() {
        let mut t = inner();
        t.enter_at(1, "x", 0, 0, 0);
        t.enter_at(2, "y", 0, 0, 5);
        t.exit_at(1, 10);
        t.exit_at(2, 25);
        assert_eq!(t.totals["x"].self_ns, 10);
        assert_eq!(t.totals["y"].self_ns, 20);
        assert_eq!(t.kept[1].parent, None);
        // An unmatched exit is ignored.
        t.exit_at(3, 30);
        t.exit_at(1, 30);
    }

    #[test]
    fn chrome_json_lists_kept_spans() {
        let t = Tracer::new();
        t.span(0, "outer", 1, 3, || t.span(0, "inner", 1, 3, || ()));
        t.set_paused(true);
        t.span(0, "unseen", 1, 3, || ());
        t.set_paused(false);
        assert_eq!(t.closed(), 2);
        assert_eq!(t.covered().as_nanos() as u64, t.total("outer").total_ns);
        let json = t.chrome_json();
        assert!(json.contains("\"name\":\"outer\""));
        assert!(json.contains("\"name\":\"inner\""));
        assert!(json.contains("\"parent\":0"));
        assert!(t.total("outer").total_ns >= t.total("inner").total_ns);
        assert_eq!(t.total("missing"), Total::default());

        let sum = Tracer::new();
        sum.span(9, "outer", 0, 0, || ());
        sum.merge(&t);
        assert_eq!(sum.total("outer").count, 2);
        assert_eq!(sum.total("inner"), t.total("inner"));
        assert_eq!(sum.closed(), 3);
        assert!(sum.chrome_json().contains("\"parent\":1"), "parent links move with the spans");
    }
}
