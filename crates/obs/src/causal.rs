//! Causal cross-replica tracing: deterministic trace contexts and the
//! protocol flight recorder.
//!
//! Node-local tracing ([`crate::trace`]) cannot explain a slow consensus
//! slot: the PROPOSE leaves one replica's timeline and the WRITE quorum
//! forms on three others. This module adds the Dapper-style glue — a
//! [`TraceCtx`] carried on the wire — plus a bounded per-replica
//! [`FlightRecorder`] of protocol events, so an offline analyzer can stitch
//! the per-replica streams back into one global causal DAG.
//!
//! # Determinism
//!
//! Nothing here draws randomness. Span IDs come from a per-node counter
//! namespaced by the node id ([`FlightRecorder::next_span`]), trace IDs for
//! consensus slots are a pure function of the slot number
//! ([`slot_trace_id`]), and timestamps come from the injected [`Clock`]
//! (sim-time under the testbed). A fixed-seed simulation therefore produces
//! byte-identical flight streams at any `LAZARUS_THREADS` setting.
//!
//! # ID scheme
//!
//! All IDs stay below 2⁵³ so they survive a round-trip through JSON
//! tooling that parses numbers as `f64`:
//!
//! * `span_id = ((node + 1) << 40) | counter` — node-unique, dense,
//!   allocation-ordered; node 0's spans start at `1 << 40`. Zero is
//!   reserved to mean "no span" (a DAG root's `parent_id`).
//! * `trace_id = (1 << 52) | seq` for consensus slot `seq`
//!   ([`slot_trace_id`]) — every replica independently derives the same
//!   trace id for a slot, so "adopt" needs no agreement round.

use std::collections::VecDeque;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::clock::Clock;

/// Reserved `parent_id`/`span_id` meaning "none" (a causal root).
pub const NO_SPAN: u64 = 0;

/// The trace context attached to wire messages and flight events.
///
/// `trace_id` groups all events of one logical operation (a consensus
/// slot, a view change, a client request); `span_id` names this hop;
/// `parent_id` is the span that caused it ([`NO_SPAN`] at a root).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// Logical-operation id shared by every event of the trace.
    pub trace_id: u64,
    /// Span that caused this one; [`NO_SPAN`] at a DAG root.
    pub parent_id: u64,
    /// This hop's unique span id.
    pub span_id: u64,
}

impl TraceCtx {
    /// Encoded wire length in bytes.
    pub const WIRE_LEN: usize = 24;

    /// The context of an input that carried no trace (client traffic,
    /// controller injections, startup actions): events recorded under it
    /// are causal roots.
    pub const UNTRACED: TraceCtx = TraceCtx { trace_id: 0, parent_id: NO_SPAN, span_id: NO_SPAN };

    /// A root context: no parent.
    #[must_use]
    pub fn root(trace_id: u64, span_id: u64) -> TraceCtx {
        TraceCtx { trace_id, parent_id: NO_SPAN, span_id }
    }

    /// A child context continuing this trace under a freshly allocated
    /// span id.
    #[must_use]
    pub fn child(&self, span_id: u64) -> TraceCtx {
        TraceCtx { trace_id: self.trace_id, parent_id: self.span_id, span_id }
    }

    /// Big-endian fixed-width encoding (`trace_id ‖ parent_id ‖ span_id`).
    #[must_use]
    pub fn encode(&self) -> [u8; Self::WIRE_LEN] {
        let mut out = [0u8; Self::WIRE_LEN];
        out[..8].copy_from_slice(&self.trace_id.to_be_bytes());
        out[8..16].copy_from_slice(&self.parent_id.to_be_bytes());
        out[16..].copy_from_slice(&self.span_id.to_be_bytes());
        out
    }

    /// Decodes [`encode`](TraceCtx::encode) output; `None` when `bytes` is
    /// shorter than [`WIRE_LEN`](TraceCtx::WIRE_LEN).
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<TraceCtx> {
        if bytes.len() < Self::WIRE_LEN {
            return None;
        }
        let word = |i: usize| {
            let mut buf = [0u8; 8];
            buf.copy_from_slice(&bytes[i..i + 8]);
            u64::from_be_bytes(buf)
        };
        Some(TraceCtx { trace_id: word(0), parent_id: word(8), span_id: word(16) })
    }
}

/// The shared trace id of consensus slot `seq`: `(1 << 52) | seq`.
///
/// Pure function of the slot number, so every replica adopts the same
/// trace for a slot without coordination, and the id stays exactly
/// representable as an `f64` for JSON consumers.
#[must_use]
pub fn slot_trace_id(seq: u64) -> u64 {
    (1 << 52) | seq
}

/// Every flight-recorder event kind, wire events and protocol events
/// alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A message left a node (transport-side).
    Send,
    /// A message was handed to a replica (transport-side).
    Recv,
    /// The fault plan dropped a message (sender-attributed).
    Drop,
    /// The fault plan delayed a message; `extra` holds the added µs.
    Delay,
    /// The fault plan duplicated a message.
    Dup,
    /// A local timer fired (a causal root).
    Timer,
    /// The leader assembled a proposal for a slot.
    Propose,
    /// The replica broadcast its WRITE vote for a slot.
    Write,
    /// The replica broadcast its ACCEPT vote for a slot.
    Accept,
    /// The slot decided locally.
    Commit,
    /// Decided batches were executed; `extra` holds the request count.
    Exec,
    /// A new view was installed.
    ViewChange,
    /// A throttled help re-vote was sent to a lagging peer.
    HelpRevote,
    /// State transfer started (CST-REQUEST fan-out).
    CstStart,
    /// State transfer completed (snapshot + log adopted).
    CstDone,
    /// A state-transfer chunk was fetched and verified; `extra` holds the
    /// chunk index.
    CstChunk,
    /// The replica rebooted from durable storage; `extra` holds the
    /// recovered stable checkpoint slot.
    Recover,
}

impl EventKind {
    /// All kinds, in a fixed order (the JSONL schema vocabulary).
    pub const ALL: [EventKind; 17] = [
        EventKind::Send,
        EventKind::Recv,
        EventKind::Drop,
        EventKind::Delay,
        EventKind::Dup,
        EventKind::Timer,
        EventKind::Propose,
        EventKind::Write,
        EventKind::Accept,
        EventKind::Commit,
        EventKind::Exec,
        EventKind::ViewChange,
        EventKind::HelpRevote,
        EventKind::CstStart,
        EventKind::CstDone,
        EventKind::CstChunk,
        EventKind::Recover,
    ];

    /// The stable wire name of this kind.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            EventKind::Send => "send",
            EventKind::Recv => "recv",
            EventKind::Drop => "drop",
            EventKind::Delay => "delay",
            EventKind::Dup => "dup",
            EventKind::Timer => "timer",
            EventKind::Propose => "propose",
            EventKind::Write => "write",
            EventKind::Accept => "accept",
            EventKind::Commit => "commit",
            EventKind::Exec => "exec",
            EventKind::ViewChange => "view_change",
            EventKind::HelpRevote => "help_revote",
            EventKind::CstStart => "cst_start",
            EventKind::CstDone => "cst_done",
            EventKind::CstChunk => "cst_chunk",
            EventKind::Recover => "recover",
        }
    }

    /// Parses [`as_str`](EventKind::as_str) output.
    #[must_use]
    pub fn parse(name: &str) -> Option<EventKind> {
        EventKind::ALL.iter().copied().find(|k| k.as_str() == name)
    }

    /// True for transport-side events recorded by the testbed wire, false
    /// for replica-side protocol events.
    #[must_use]
    pub fn is_wire(&self) -> bool {
        matches!(
            self,
            EventKind::Send | EventKind::Recv | EventKind::Drop | EventKind::Delay | EventKind::Dup
        )
    }
}

/// One flight-recorder entry. Fixed schema: every field is present in the
/// JSONL rendering (absent options render as `null`), so a validator can
/// check lines without per-kind special cases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Event time in µs (sim-time under the testbed).
    pub at_us: u64,
    /// Recording node.
    pub node: u32,
    /// What happened.
    pub event: EventKind,
    /// Message label (`"PROPOSE"`, …) for wire events, `"-"` otherwise.
    pub kind: &'static str,
    /// Consensus slot, when the event is slot-scoped.
    pub seq: Option<u64>,
    /// View number, when known.
    pub view: Option<u64>,
    /// The other endpoint of a wire event.
    pub peer: Option<u32>,
    /// Trace this event belongs to.
    pub trace_id: u64,
    /// Causing span ([`NO_SPAN`] at a root).
    pub parent_id: u64,
    /// This event's span.
    pub span_id: u64,
    /// Kind-specific magnitude (delay µs, exec count, send copies); 0 when
    /// unused.
    pub extra: u64,
}

impl FlightEvent {
    /// The context this event carries.
    #[must_use]
    pub fn ctx(&self) -> TraceCtx {
        TraceCtx { trace_id: self.trace_id, parent_id: self.parent_id, span_id: self.span_id }
    }

    /// One JSONL line (no trailing newline), fixed key order.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |n| n.to_string());
        format!(
            "{{\"at_us\":{},\"node\":{},\"event\":\"{}\",\"kind\":\"{}\",\"seq\":{},\
             \"view\":{},\"peer\":{},\"trace_id\":{},\"parent_id\":{},\"span_id\":{},\
             \"extra\":{}}}",
            self.at_us,
            self.node,
            self.event.as_str(),
            self.kind,
            opt(self.seq),
            opt(self.view),
            opt(self.peer.map(u64::from)),
            self.trace_id,
            self.parent_id,
            self.span_id,
            self.extra,
        )
    }
}

/// What an event is about: the message label (`"-"` for protocol
/// milestones), the consensus slot and view it belongs to, and the other
/// endpoint of a wire event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgTag {
    /// Message label (`"PROPOSE"`, …), `"-"` for protocol events.
    pub kind: &'static str,
    /// Consensus slot, when the event is slot-scoped.
    pub seq: Option<u64>,
    /// View number, when known.
    pub view: Option<u64>,
    /// The other endpoint of a wire event.
    pub peer: Option<u32>,
}

#[derive(Debug)]
struct FlightInner {
    ring: VecDeque<FlightEvent>,
    capacity: usize,
    dropped: u64,
    next_span: u64,
}

/// A bounded per-replica ring of [`FlightEvent`]s with deterministic span
/// allocation.
///
/// Cloning shares the ring (the testbed and the replica record into the
/// same stream). When the ring is full the oldest event is evicted and
/// [`dropped`](FlightRecorder::dropped) counts it, so a recorder never
/// grows without bound on long runs.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    inner: Arc<Mutex<FlightInner>>,
    clock: Arc<dyn Clock>,
    node: u32,
}

impl FlightRecorder {
    /// Default ring capacity.
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// A recorder for `node` holding at most `capacity` events, stamping
    /// protocol events from `clock`.
    #[must_use]
    pub fn new(node: u32, capacity: usize, clock: Arc<dyn Clock>) -> FlightRecorder {
        FlightRecorder {
            inner: Arc::new(Mutex::new(FlightInner {
                ring: VecDeque::with_capacity(capacity.min(1024)),
                capacity: capacity.max(1),
                dropped: 0,
                next_span: 1,
            })),
            clock,
            node,
        }
    }

    /// The recording node's id.
    #[must_use]
    pub fn node(&self) -> u32 {
        self.node
    }

    /// Allocates the next span id: `((node + 1) << 40) | counter`.
    ///
    /// Node-unique and allocation-ordered; never returns [`NO_SPAN`].
    #[must_use]
    pub fn next_span(&self) -> u64 {
        let mut inner = self.inner.lock().expect("flight lock");
        let n = inner.next_span;
        inner.next_span += 1;
        ((u64::from(self.node) + 1) << 40) | n
    }

    /// Appends `event`, evicting (and counting) the oldest when full.
    fn push(&self, event: FlightEvent) {
        let mut inner = self.inner.lock().expect("flight lock");
        if inner.ring.len() >= inner.capacity {
            inner.ring.pop_front();
            inner.dropped += 1;
        }
        inner.ring.push_back(event);
    }

    /// Records one event under a fresh span caused by `cause` — the single
    /// place a [`FlightEvent`] is built, for transport-side wire events and
    /// replica-side protocol events alike. The event joins its slot's
    /// trace when `tag` names one and `cause`'s trace otherwise; `at_us`
    /// overrides the clock for transports whose send/recv times differ from
    /// "now". Returns the recorded event's context (for further chaining).
    pub fn record(
        &self,
        event: EventKind,
        at_us: Option<u64>,
        tag: MsgTag,
        cause: &TraceCtx,
        extra: u64,
    ) -> TraceCtx {
        let span = self.next_span();
        let ev = FlightEvent {
            at_us: at_us.unwrap_or_else(|| self.clock.now_micros()),
            node: self.node,
            event,
            kind: tag.kind,
            seq: tag.seq,
            view: tag.view,
            peer: tag.peer,
            trace_id: tag.seq.map_or(cause.trace_id, slot_trace_id),
            parent_id: cause.span_id,
            span_id: span,
            extra,
        };
        let out = ev.ctx();
        self.push(ev);
        out
    }

    /// Records a replica-side protocol event stamped with the clock's
    /// current time, under a fresh span childed to `ctx`.
    pub fn protocol(
        &self,
        event: EventKind,
        seq: Option<u64>,
        view: Option<u64>,
        ctx: &TraceCtx,
        extra: u64,
    ) -> TraceCtx {
        self.record(event, None, MsgTag { kind: "-", seq, view, peer: None }, ctx, extra)
    }

    /// A copy of the ring, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<FlightEvent> {
        self.inner.lock().expect("flight lock").ring.iter().cloned().collect()
    }

    /// Number of events in the ring.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("flight lock").ring.len()
    }

    /// True when nothing has been recorded (or everything was evicted).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted because the ring was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("flight lock").dropped
    }

    /// Writes the ring as JSONL to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for ev in self.events() {
            writeln!(out, "{}", ev.to_jsonl())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    fn manual() -> (Arc<ManualClock>, FlightRecorder) {
        let clock = Arc::new(ManualClock::new());
        let rec = FlightRecorder::new(2, 8, Arc::clone(&clock) as Arc<dyn Clock>);
        (clock, rec)
    }

    #[test]
    fn ctx_encodes_and_decodes() {
        let ctx = TraceCtx { trace_id: slot_trace_id(9), parent_id: 7, span_id: 12345 };
        let wire = ctx.encode();
        assert_eq!(wire.len(), TraceCtx::WIRE_LEN);
        assert_eq!(TraceCtx::decode(&wire), Some(ctx));
        assert_eq!(TraceCtx::decode(&wire[..23]), None);
    }

    #[test]
    fn child_links_to_parent_span() {
        let root = TraceCtx::root(slot_trace_id(1), 42);
        let kid = root.child(43);
        assert_eq!(kid.trace_id, root.trace_id);
        assert_eq!(kid.parent_id, 42);
        assert_eq!(kid.span_id, 43);
    }

    #[test]
    fn slot_trace_ids_are_distinct_and_f64_exact() {
        let a = slot_trace_id(0);
        let b = slot_trace_id(1_000_000);
        assert_ne!(a, b);
        // Survives an f64 round-trip (JSON consumers parse numbers as f64).
        assert_eq!(b as f64 as u64, b);
    }

    #[test]
    fn span_ids_are_node_namespaced_and_sequential() {
        let (_, rec) = manual();
        let a = rec.next_span();
        let b = rec.next_span();
        assert_eq!(a, (3u64 << 40) | 1);
        assert_eq!(b, a + 1);
    }

    #[test]
    fn protocol_events_carry_sim_time_and_slot_trace() {
        let (clock, rec) = manual();
        clock.set(500);
        let root = TraceCtx::root(77, NO_SPAN);
        let ctx = rec.protocol(EventKind::Propose, Some(4), Some(0), &root, 0);
        let evs = rec.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].at_us, 500);
        assert_eq!(evs[0].trace_id, slot_trace_id(4));
        assert_eq!(evs[0].parent_id, NO_SPAN);
        assert_eq!(ctx.span_id, evs[0].span_id);
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let (_, rec) = manual();
        for i in 0..12 {
            rec.push(FlightEvent {
                at_us: i,
                node: 2,
                event: EventKind::Timer,
                kind: "-",
                seq: None,
                view: None,
                peer: None,
                trace_id: 1,
                parent_id: NO_SPAN,
                span_id: i + 1,
                extra: 0,
            });
        }
        assert_eq!(rec.len(), 8);
        assert_eq!(rec.dropped(), 4);
        assert_eq!(rec.events()[0].at_us, 4);
    }

    #[test]
    fn jsonl_has_fixed_schema_with_nulls() {
        let ev = FlightEvent {
            at_us: 10,
            node: 1,
            event: EventKind::Send,
            kind: "PROPOSE",
            seq: Some(3),
            view: None,
            peer: Some(2),
            trace_id: slot_trace_id(3),
            parent_id: 5,
            span_id: 6,
            extra: 1,
        };
        assert_eq!(
            ev.to_jsonl(),
            format!(
                "{{\"at_us\":10,\"node\":1,\"event\":\"send\",\"kind\":\"PROPOSE\",\
                 \"seq\":3,\"view\":null,\"peer\":2,\"trace_id\":{},\"parent_id\":5,\
                 \"span_id\":6,\"extra\":1}}",
                slot_trace_id(3)
            )
        );
    }

    #[test]
    fn event_kind_names_round_trip() {
        for kind in EventKind::ALL {
            assert_eq!(EventKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(EventKind::parse("nope"), None);
    }

    #[test]
    fn write_jsonl_creates_parent_dirs() {
        let (_, rec) = manual();
        rec.protocol(EventKind::Commit, Some(1), Some(0), &TraceCtx::root(1, NO_SPAN), 0);
        let dir = std::env::temp_dir().join(format!("lazarus_causal_{}", std::process::id()));
        let path = dir.join("deep/nested/replica_2.jsonl");
        rec.write_jsonl(&path).expect("write");
        let body = std::fs::read_to_string(&path).expect("read back");
        assert_eq!(body.lines().count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
