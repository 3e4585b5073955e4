//! The instrumentation boundary of the replica and its hosts.
//!
//! [`Instruments`] is the one object a [`Replica`](crate::replica::Replica)
//! and the runtime embedding it both hold: it owns every optional sink
//! (pre-registered metric handles — one registry lock per series when the
//! bundle is built, lock-free atomic adds afterwards — the streaming health
//! tracker, the causal flight recorder, the phase profiler) and is the only
//! place protocol milestones and wire events are recorded. A replica with
//! nothing attached pays one predictable branch per hook.
//!
//! All counters and histograms are shared across replicas in one registry —
//! their updates commute, so snapshots are deterministic even when replicas
//! run on parallel workers. Timestamps come from the injected
//! [`Clock`](lazarus_obs::Clock): sim-time under the testbed, wall time
//! under the threaded runtime.

use std::collections::HashMap;
use std::sync::Arc;

use lazarus_obs::causal::{EventKind, FlightRecorder, MsgTag, TraceCtx};
use lazarus_obs::profile::{Profiler, Scope};
use lazarus_obs::{Clock, Counter, Gauge, HealthTracker, Histogram, Obs, Tracer};

use crate::messages::Message;
use crate::replica::Ctx;
use crate::types::{Epoch, ReplicaId, SeqNo, View};

/// Every [`Message::label`](crate::messages::Message::label) value, in the
/// protocol's phase order (new kinds are appended — slot indices are part
/// of the metric contract).
pub const MESSAGE_KINDS: [&str; 13] = [
    "REQUEST",
    "PROPOSE",
    "WRITE",
    "ACCEPT",
    "CHECKPOINT",
    "STOP",
    "STOP-DATA",
    "SYNC",
    "CST-REQUEST",
    "CST-REPLY",
    "RECONFIG",
    "CST-CHUNK-REQUEST",
    "CST-CHUNK-REPLY",
];

fn kind_slot(label: &str) -> usize {
    MESSAGE_KINDS.iter().position(|&k| k == label).unwrap_or(0)
}

/// Every reason a replica refuses an ingress message. Rejections are the
/// *designed* response to malformed, forged, stale, or Byzantine traffic —
/// they must be countable (for the nemesis harness and for operators), and
/// they must never escalate to a panic.
pub const REJECT_REASONS: [&str; 15] = [
    "bad-request-sig",
    "stale-request",
    "duplicate-request",
    "stale-consensus",
    "non-member",
    "wrong-view",
    "not-leader",
    "bad-batch",
    "equivocation",
    "stale-view-change",
    "bad-snapshot",
    "bad-reconfig-sig",
    "stale-reconfig",
    "bad-chunk",
    "bad-suffix",
];

fn reason_slot(reason: &str) -> usize {
    REJECT_REASONS.iter().position(|&r| r == reason).unwrap_or(0)
}

/// Per-slot clock marks along the commit critical path.
#[derive(Debug, Clone, Copy)]
struct SlotMarks {
    proposed: u64,
    wrote: Option<u64>,
    accepted: Option<u64>,
}

/// The pre-registered metric handles behind an [`Instruments`] bundle,
/// plus the tracer and clock of the [`Obs`] they were registered in. No
/// series carries a replica label, so one set is shared by every replica
/// (and host) of a cluster.
#[derive(Debug)]
struct Meters {
    clock: Arc<dyn Clock>,
    tracer: Tracer,

    msgs_in: [Counter; MESSAGE_KINDS.len()],
    rejected: [Counter; REJECT_REASONS.len()],
    wire_sent: [Counter; MESSAGE_KINDS.len()],
    wire_bytes: [Counter; MESSAGE_KINDS.len()],
    decided_total: Counter,
    executed_requests_total: Counter,
    view_changes_total: Counter,
    help_revotes_total: Counter,
    checkpoints_total: Counter,
    state_transfers_total: Counter,
    commit_latency_us: Histogram,
    cst_chunks_fetched_total: Counter,
    cst_chunks_rejected_total: Counter,
    cst_chunks_resumed_total: Counter,
    recovery_duration_us: Gauge,
}

impl Meters {
    /// Registers every `bft_*` replica and wire series (and their `# HELP`
    /// texts) in `obs`'s registry — idempotent across bundles.
    fn new(obs: &Obs) -> Meters {
        let r = &obs.registry;
        r.describe("bft_view_changes_total", "Views installed after a leader change.");
        r.describe("bft_help_revotes_total", "Throttled vote re-sends to lagging peers.");
        r.describe("bft_slots_decided_total", "Consensus slots decided locally.");
        r.describe("bft_state_transfers_total", "Completed CST state transfers.");
        r.describe("bft_commit_latency_us", "Proposal-to-decide latency per slot.");
        r.describe("bft_cst_chunks_fetched_total", "CST snapshot chunks fetched and verified.");
        r.describe("bft_cst_chunks_rejected_total", "CST chunks refused for a digest mismatch.");
        r.describe(
            "bft_cst_chunks_resumed_total",
            "Verified chunks carried across a CST designee rotation instead of re-fetched.",
        );
        r.describe(
            "bft_recovery_duration_us",
            "Virtual duration of the last journal replay at replica boot.",
        );
        r.describe("bft_journal_fsync_us", "Virtual journal sync durations (bytes-derived).");
        r.describe(
            "bft_journal_compaction_us",
            "Virtual journal compaction durations (bytes-derived).",
        );
        let per_kind =
            |name: &str| MESSAGE_KINDS.map(|kind| r.counter_with(name, &[("kind", kind)]));
        Meters {
            clock: Arc::clone(obs.clock()),
            tracer: obs.tracer.clone(),
            msgs_in: per_kind("bft_messages_in_total"),
            rejected: REJECT_REASONS
                .map(|reason| r.counter_with("bft_rejected_messages_total", &[("reason", reason)])),
            wire_sent: per_kind("bft_wire_messages_total"),
            wire_bytes: per_kind("bft_wire_bytes_total"),
            decided_total: r.counter("bft_slots_decided_total"),
            executed_requests_total: r.counter("bft_requests_executed_total"),
            view_changes_total: r.counter("bft_view_changes_total"),
            help_revotes_total: r.counter("bft_help_revotes_total"),
            checkpoints_total: r.counter("bft_checkpoints_total"),
            state_transfers_total: r.counter("bft_state_transfers_total"),
            commit_latency_us: r.histogram("bft_commit_latency_us"),
            cst_chunks_fetched_total: r.counter("bft_cst_chunks_fetched_total"),
            cst_chunks_rejected_total: r.counter("bft_cst_chunks_rejected_total"),
            cst_chunks_resumed_total: r.counter("bft_cst_chunks_resumed_total"),
            recovery_duration_us: r.gauge("bft_recovery_duration_us"),
        }
    }
}

/// The instrumentation boundary: every optional observer of a
/// [`Replica`](crate::replica::Replica) and of the host that runs it.
/// Embedders build one with the `with_*` combinators, hand a clone to each
/// replica through [`attach`](crate::replica::Replica::attach), and record
/// their own wire events through the replica's copy
/// ([`Replica::instruments`](crate::replica::Replica::instruments)) or a
/// clone of it (cloning shares the sinks — they are `Arc`-backed handles):
///
/// ```ignore
/// replica.attach(Instruments::new().with_obs(&obs).with_flight(rec));
/// let wire_ctx = replica.instruments().send_span(&message, to, None, &handling);
/// ```
///
/// The methods come in two groups. **Protocol milestones** are called by
/// the replica: [`input`](Self::input) / [`input_done`](Self::input_done) /
/// [`phase`](Self::phase) bracket one input, and every method from
/// [`message_in`](Self::message_in) to
/// [`epoch_changed`](Self::epoch_changed) fans one milestone out to the
/// counters, the health tracker, trace events and the flight ring. **Wire
/// events** are called by the host: [`wire_sent`](Self::wire_sent),
/// [`send_span`](Self::send_span), [`wire_received`](Self::wire_received),
/// [`wire_fault`](Self::wire_fault), [`timer_fired`](Self::timer_fired).
#[derive(Debug, Clone, Default)]
pub struct Instruments {
    meters: Option<Arc<Meters>>,
    health: Option<HealthTracker>,
    flight: Option<FlightRecorder>,
    profiler: Option<Profiler>,
    /// True once any sink above is present: the one branch an unattached
    /// replica pays per hook.
    on: bool,
    id: u32,

    /// Open proposals: slot → phase timestamps along the critical path.
    marks: HashMap<u64, SlotMarks>,
    /// The context of the input currently being handled — every protocol
    /// event recorded while an input runs is parented to that input's
    /// receive (or timer) span.
    ctx: Ctx,
    /// The root profiler scope of the input currently being handled;
    /// internal phases (enqueue/propose/execute/cst) open children of it.
    /// (`Arc` only because a [`Scope`] is not `Clone` and the bundle is.)
    scope: Option<Arc<Scope>>,
}

impl Instruments {
    /// An empty bundle (attaching it is a no-op).
    pub fn new() -> Instruments {
        Instruments::default()
    }

    /// Adds metrics: registers the `bft_*` series in `obs`'s shared
    /// registry; trace events and timestamps go through its tracer and
    /// injected clock.
    #[must_use]
    pub fn with_obs(mut self, obs: &Obs) -> Instruments {
        self.meters = Some(Arc::new(Meters::new(obs)));
        self.on = true;
        self
    }

    /// Adds the streaming health tracker. Requires metrics (attached
    /// previously or in the same bundle); ignored otherwise.
    #[must_use]
    pub fn with_health(mut self, health: HealthTracker) -> Instruments {
        self.health = Some(health);
        self
    }

    /// Adds the causal flight recorder: the replica's protocol milestones
    /// and the host's wire events share its ring.
    #[must_use]
    pub fn with_flight(mut self, flight: FlightRecorder) -> Instruments {
        self.flight = Some(flight);
        self.on = true;
        self
    }

    /// Adds the phase profiler: every input opens a scope at
    /// `replica_<id>;on_message;<label>` (or `on_timer`) with internal
    /// phases as children. In the discrete-event testbed the clock is
    /// frozen while a handler runs, so scopes contribute deterministic
    /// call counts; virtual time is charged by the embedder.
    #[must_use]
    pub fn with_profiler(mut self, profiler: Profiler) -> Instruments {
        self.profiler = Some(profiler);
        self.on = true;
        self
    }

    /// Merges `other`'s present sinks into this bundle on behalf of replica
    /// `id` (absent ones keep what was attached before), in dependency
    /// order: metrics first, then the health tracker, which registers the
    /// replica as starting in `view` under `leader`.
    pub(crate) fn merge(&mut self, other: Instruments, id: u32, view: View, leader: ReplicaId) {
        self.id = id;
        self.on |= other.on;
        self.meters = other.meters.or(self.meters.take());
        if let Some(health) = other.health.filter(|_| self.meters.is_some()) {
            health.register(id, view.0, leader.0);
            self.health = Some(health);
        }
        self.flight = other.flight.or(self.flight.take());
        self.profiler = other.profiler.or(self.profiler.take());
    }

    /// Records one protocol event under the current input's context.
    fn flight_event(&self, event: EventKind, seq: Option<u64>, view: Option<u64>, extra: u64) {
        if let Some(flight) = &self.flight {
            flight.protocol(event, seq, view, &self.ctx.handling(), extra);
        }
    }

    // -----------------------------------------------------------------
    // Protocol milestones (called by the replica)
    // -----------------------------------------------------------------

    /// An input arrived at `entry` (`on_message` / `on_timer`) under `ctx`:
    /// every event recorded until [`input_done`](Self::input_done) links to
    /// that context, and the profiler scope `replica_<id>;entry;label`
    /// opens.
    pub fn input(&mut self, ctx: Ctx, entry: &str, label: &str) {
        if self.on {
            self.ctx = ctx;
            let root = |p: &Profiler| p.scope(&[&format!("replica_{}", self.id), entry, label]);
            self.scope = self.profiler.as_ref().map(|p| Arc::new(root(p)));
        }
    }

    /// The current input is fully handled: closes its profiler scope.
    pub fn input_done(&mut self) {
        self.scope = None;
    }

    /// A child scope of the current input's root scope, if profiling.
    pub fn phase(&self, name: &str) -> Option<Scope> {
        self.scope.as_ref().map(|s| s.child(name))
    }

    /// A protocol message of kind `label` reached `on_message`.
    pub fn message_in(&self, label: &str) {
        if let Some(m) = &self.meters {
            m.msgs_in[kind_slot(label)].inc();
        }
    }

    /// An ingress message was refused for `reason` (one of
    /// [`REJECT_REASONS`]). When the refused message came from a member
    /// replica, `culprit` names it and the health tracker charges the
    /// rejection to that *sender* — so a Byzantine replica (corrupt
    /// batches, equivocation, proposals from the wrong node) bleeds
    /// stability score instead of its victims. Rejections with no
    /// attributable replica (client-origin or ambiguous) only count into
    /// the metric.
    pub fn rejected(&self, reason: &str, culprit: Option<ReplicaId>) {
        let Some(m) = &self.meters else { return };
        m.rejected[reason_slot(reason)].inc();
        if let (Some(health), Some(culprit)) = (&self.health, culprit) {
            health.reject(culprit.0);
        }
    }

    /// A proposal for `seq` was accepted into the local instance (starts
    /// the proposal→decide latency clock for that slot).
    pub fn proposed(&mut self, seq: SeqNo, view: View) {
        if !self.on {
            return;
        }
        if let Some(m) = &self.meters {
            let now = m.clock.now_micros();
            self.marks.entry(seq.0).or_insert(SlotMarks {
                proposed: now,
                wrote: None,
                accepted: None,
            });
            if let Some(health) = &self.health {
                health.proposal_open(self.id, seq.0);
            }
        }
        self.flight_event(EventKind::Propose, Some(seq.0), Some(view.0), 0);
    }

    /// This replica broadcast its vote for `seq`: `phase` is
    /// [`EventKind::Write`] (propose phase done) or [`EventKind::Accept`]
    /// (write phase done).
    pub fn voted(&mut self, phase: EventKind, seq: SeqNo, view: View) {
        if !self.on {
            return;
        }
        self.flight_event(phase, Some(seq.0), Some(view.0), 0);
        if let (Some(m), Some(marks)) = (&self.meters, self.marks.get_mut(&seq.0)) {
            let mark =
                if phase == EventKind::Write { &mut marks.wrote } else { &mut marks.accepted };
            mark.get_or_insert(m.clock.now_micros());
        }
    }

    /// Slot `seq` was decided with `batch_len` requests (closes that slot's
    /// latency measurement and feeds the health windows: total latency plus
    /// per-phase durations).
    pub fn decided(&mut self, seq: SeqNo, view: View, batch_len: usize) {
        if !self.on {
            return;
        }
        if let Some(m) = &self.meters {
            m.decided_total.inc();
            if let Some(marks) = self.marks.remove(&seq.0) {
                let now = m.clock.now_micros();
                let latency = now.saturating_sub(marks.proposed);
                m.commit_latency_us.observe(latency);
                if let Some(health) = &self.health {
                    // Missing intermediate marks (e.g. a slot finished via a
                    // vote replay) collapse the absent phase to zero time.
                    let wrote = marks.wrote.unwrap_or(marks.proposed);
                    let accepted = marks.accepted.unwrap_or(wrote);
                    health.commit(self.id, seq.0, latency);
                    health.phases(
                        self.id,
                        [
                            wrote.saturating_sub(marks.proposed),
                            accepted.saturating_sub(wrote),
                            now.saturating_sub(accepted),
                        ],
                    );
                }
            }
        }
        self.flight_event(EventKind::Commit, Some(seq.0), Some(view.0), batch_len as u64);
    }

    /// Slot `seq`'s batch ran against the service, executing `n` requests.
    pub fn executed(&self, seq: SeqNo, n: usize) {
        if !self.on {
            return;
        }
        if let Some(m) = &self.meters {
            m.executed_requests_total.add(n as u64);
        }
        self.flight_event(EventKind::Exec, Some(seq.0), None, n as u64);
    }

    /// A local checkpoint was taken at `seq`.
    pub fn checkpoint(&self, seq: SeqNo) {
        let Some(m) = &self.meters else { return };
        m.checkpoints_total.inc();
        m.tracer
            .event("replica.checkpoint", vec![("replica", self.id.into()), ("seq", seq.0.into())]);
    }

    /// The replica jumped to `view` because f + 1 peers are already
    /// stopping it (no STOP quorum of its own yet).
    pub fn view_adopted(&self, view: View) {
        self.flight_event(EventKind::ViewChange, None, Some(view.0), 1);
    }

    /// The replica installed `new_view` (led by `leader`) after a leader
    /// change.
    pub fn view_installed(&mut self, new_view: View, leader: ReplicaId) {
        if !self.on {
            return;
        }
        if let Some(m) = &self.meters {
            m.view_changes_total.inc();
            // Stale slots from the old view would otherwise pin their start
            // timestamps forever.
            self.marks.clear();
            if let Some(health) = &self.health {
                health.view_change(self.id, new_view.0, leader.0);
            }
            m.tracer.event(
                "replica.view_change",
                vec![("replica", self.id.into()), ("view", new_view.0.into())],
            );
        }
        self.flight_event(EventKind::ViewChange, None, Some(new_view.0), 0);
    }

    /// The replica re-sent its WRITE/ACCEPT votes for `seq` to help lagging
    /// `peer` (throttled to once per `(peer, slot, view)`).
    pub fn help_revote(&self, peer: ReplicaId, seq: SeqNo, view: View) {
        if !self.on {
            return;
        }
        if let Some(m) = &self.meters {
            m.help_revotes_total.inc();
            if let Some(health) = &self.health {
                // The *peer* needed the help — it is the one falling behind.
                health.help_revote(peer.0);
            }
            m.tracer.event(
                "replica.help_revote",
                vec![("replica", self.id.into()), ("peer", peer.0.into()), ("seq", seq.0.into())],
            );
        }
        self.flight_event(EventKind::HelpRevote, Some(seq.0), Some(view.0), u64::from(peer.0));
    }

    /// State transfer started from `last_decided` (CST-REQUEST fan-out).
    pub fn cst_started(&self, last_decided: SeqNo, view: View) {
        self.flight_event(EventKind::CstStart, Some(last_decided.0), Some(view.0), 0);
    }

    /// `n` already-verified chunks were carried across a designee rotation
    /// instead of being fetched again.
    pub fn cst_chunks_resumed(&self, n: usize) {
        if let Some(m) = &self.meters {
            m.cst_chunks_resumed_total.add(n as u64);
        }
    }

    /// A snapshot chunk from `from` failed its manifest digest check: a
    /// `bad-chunk` rejection charged to the sender, plus the chunk counter.
    pub fn cst_chunk_rejected(&self, from: ReplicaId) {
        let Some(m) = &self.meters else { return };
        self.rejected("bad-chunk", Some(from));
        m.cst_chunks_rejected_total.inc();
    }

    /// Chunk `index` of checkpoint `seq` arrived and passed its manifest
    /// digest check.
    pub fn cst_chunk_fetched(&self, seq: SeqNo, index: u32) {
        if !self.on {
            return;
        }
        if let Some(m) = &self.meters {
            m.cst_chunks_fetched_total.inc();
        }
        self.flight_event(EventKind::CstChunk, Some(seq.0), None, u64::from(index));
    }

    /// A state transfer completed at `seq`.
    pub fn cst_done(&self, seq: SeqNo, view: View) {
        if !self.on {
            return;
        }
        if let Some(m) = &self.meters {
            m.state_transfers_total.inc();
            if let Some(health) = &self.health {
                health.cst(self.id);
            }
            m.tracer.event(
                "replica.state_transfer",
                vec![("replica", self.id.into()), ("seq", seq.0.into())],
            );
        }
        self.flight_event(EventKind::CstDone, Some(seq.0), Some(view.0), 0);
    }

    /// The replica finished replaying its journal at boot up to stable
    /// checkpoint `seq`; `virtual_us` is the deterministic bytes-derived
    /// replay duration.
    pub fn recovered(&self, seq: SeqNo, virtual_us: u64, torn_tail: bool) {
        if !self.on {
            return;
        }
        if let Some(m) = &self.meters {
            m.recovery_duration_us.set(virtual_us as f64);
            m.tracer.event(
                "replica.recovery",
                vec![
                    ("replica", self.id.into()),
                    ("seq", seq.0.into()),
                    ("virtual_us", virtual_us.into()),
                    ("torn_tail", u64::from(torn_tail).into()),
                ],
            );
        }
        self.flight_event(EventKind::Recover, Some(seq.0), None, virtual_us);
    }

    /// The membership changed to `epoch` (now `n` replicas) via an ordered
    /// reconfiguration.
    pub fn epoch_changed(&self, epoch: Epoch, n: usize) {
        let Some(m) = &self.meters else { return };
        m.tracer.event(
            "replica.epoch_change",
            vec![("replica", self.id.into()), ("epoch", epoch.0.into()), ("n", n.into())],
        );
    }

    // -----------------------------------------------------------------
    // Wire events (called by the host)
    // -----------------------------------------------------------------

    /// `message` left this replica `copies` times (a broadcast is one call
    /// with `copies` = fan-out): per-kind message and byte accounting, and
    /// the health tracker's egress-only liveness mark.
    pub fn wire_sent(&self, message: &Message, copies: usize) {
        let Some(m) = &self.meters else { return };
        let slot = kind_slot(message.label());
        m.wire_sent[slot].add(copies as u64);
        m.wire_bytes[slot].add((message.wire_size() * copies) as u64);
        if let Some(health) = &self.health {
            health.seen(self.id);
        }
    }

    /// Allocates a wire span for `message` leaving for `to` (every copy of
    /// a broadcast gets its own — distinct DAG edges per recipient),
    /// records the `send` event under the `handling` context at `at_us`
    /// (`None` = the recorder's clock), and returns the context to ride
    /// the wire. `None` when tracing is off.
    pub fn send_span(
        &self,
        message: &Message,
        to: ReplicaId,
        at_us: Option<u64>,
        handling: &TraceCtx,
    ) -> Option<TraceCtx> {
        let flight = self.flight.as_ref()?;
        Some(flight.record(EventKind::Send, at_us, msg_tag(message, Some(to.0)), handling, 0))
    }

    /// Records the `recv` event for an arriving `message` and returns the
    /// context to handle it under: a fresh span parented to the `wire` span
    /// (a root for untraced client traffic). With tracing off the wire
    /// context is adopted as-is.
    pub fn wire_received(
        &self,
        message: &Message,
        at_us: Option<u64>,
        wire: Option<TraceCtx>,
    ) -> Ctx {
        let Some(flight) = &self.flight else { return Ctx::from(wire) };
        let tag = msg_tag(message, message.sender().map(|r| r.0));
        let cause = wire.unwrap_or(TraceCtx::UNTRACED);
        Ctx::traced(flight.record(EventKind::Recv, at_us, tag, &cause, 0))
    }

    /// Records a sender-attributed fault `event` (drop/delay/dup) under the
    /// wire span `sent` of a message that left for `to` at `at_us`. `extra`
    /// carries the added µs (delay) or the echo offset (dup).
    pub fn wire_fault(
        &self,
        event: EventKind,
        message: &Message,
        to: ReplicaId,
        at_us: u64,
        sent: Option<TraceCtx>,
        extra: u64,
    ) {
        if let Some(flight) = &self.flight {
            let cause = sent.unwrap_or(TraceCtx::UNTRACED);
            flight.record(event, Some(at_us), msg_tag(message, Some(to.0)), &cause, extra);
        }
    }

    /// A local timer fired: records the `timer` event (a causal root of
    /// everything the timer triggers) and returns the context to handle it
    /// under.
    pub fn timer_fired(&self) -> Ctx {
        let flight = self.flight.as_ref();
        Ctx::from(flight.map(|f| f.protocol(EventKind::Timer, None, None, &TraceCtx::UNTRACED, 0)))
    }
}

/// What the flight recorder notes about `message`: its label, its
/// consensus slot and view (if any), and the other endpoint.
fn msg_tag(message: &Message, peer: Option<u32>) -> MsgTag {
    let slot = message.consensus_slot();
    MsgTag {
        kind: message.label(),
        seq: slot.map(|(_, seq)| seq.0),
        view: slot.map(|(view, _)| view.0),
        peer,
    }
}

/// Metric handles for a [`Journal`](crate::storage::Journal) backend.
///
/// Durations fed here are *virtual* (deterministic functions of the bytes
/// involved — see `crate::storage`), never wall time, so metric snapshots
/// stay byte-identical across reruns and thread counts.
#[derive(Debug, Clone)]
pub struct JournalObs {
    fsyncs_total: Counter,
    fsync_us: Histogram,
    compactions_total: Counter,
    compaction_us: Histogram,
}

impl JournalObs {
    /// Registers the `bft_journal_*` series in `obs`'s registry.
    #[must_use]
    pub fn new(obs: &Obs) -> JournalObs {
        JournalObs {
            fsyncs_total: obs.registry.counter("bft_journal_fsyncs_total"),
            fsync_us: obs.registry.histogram("bft_journal_fsync_us"),
            compactions_total: obs.registry.counter("bft_journal_compactions_total"),
            compaction_us: obs.registry.histogram("bft_journal_compaction_us"),
        }
    }

    /// One journal sync completed with the given virtual duration.
    pub fn fsync(&self, virtual_us: u64) {
        self.fsyncs_total.inc();
        self.fsync_us.observe(virtual_us);
    }

    /// One compaction completed with the given virtual duration.
    pub fn compaction(&self, virtual_us: u64) {
        self.compactions_total.inc();
        self.compaction_us.observe(virtual_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crypto::Digest;
    use crate::messages::{CheckpointMsg, ConsensusMsg};
    use lazarus_obs::causal::{slot_trace_id, NO_SPAN};

    #[test]
    fn kinds_cover_every_label() {
        let sample = Message::Checkpoint {
            from: ReplicaId(0),
            msg: CheckpointMsg { seq: SeqNo(1), digest: Digest::of(b"x") },
        };
        assert!(MESSAGE_KINDS.contains(&sample.label()));
        assert_eq!(kind_slot(write(1).label()), 2);
    }

    fn write(seq: u64) -> Message {
        let msg = ConsensusMsg::Write { view: View(0), seq: SeqNo(seq), digest: Digest::of(b"x") };
        Message::Consensus { from: ReplicaId(0), msg }
    }

    #[test]
    fn wire_sent_accounts_broadcast_fanout() {
        let obs = Obs::unclocked();
        let probe = Instruments::new().with_obs(&obs);
        let (write, cst) =
            (write(1), Message::CstRequest { from: ReplicaId(0), from_seq: SeqNo(0) });
        probe.wire_sent(&write, 3);
        probe.wire_sent(&cst, 1);
        let snap = obs.registry.snapshot();
        let get = |name: &str| {
            snap.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(0)
        };
        assert_eq!(get("bft_wire_messages_total{kind=\"WRITE\"}"), 3);
        assert_eq!(get("bft_wire_bytes_total{kind=\"WRITE\"}"), 3 * write.wire_size() as u64);
        assert_eq!(get("bft_wire_bytes_total{kind=\"CST-REQUEST\"}"), cst.wire_size() as u64);
    }

    #[test]
    fn latency_runs_proposal_to_decide() {
        let clock = Arc::new(lazarus_obs::ManualClock::new());
        let obs = Obs::new(Arc::clone(&clock) as Arc<dyn Clock>);
        let mut probe = Instruments::new().with_obs(&obs);
        clock.set(100);
        probe.proposed(SeqNo(1), View(0));
        clock.set(350);
        probe.decided(SeqNo(1), View(0), 4);
        probe.executed(SeqNo(1), 4);
        let snap = obs.registry.snapshot();
        let (_, hist) =
            snap.histograms.iter().find(|(n, _)| n == "bft_commit_latency_us").expect("registered");
        assert_eq!(hist.count, 1);
        assert_eq!(hist.sum, 250);
        assert_eq!(
            snap.counters.iter().find(|(n, _)| n == "bft_requests_executed_total").unwrap().1,
            4
        );
    }

    /// The wire spans both hosts (threaded runtime, sim testbed) record:
    /// consensus traffic joins its slot's trace, anything else continues
    /// the handling context's trace, and a recv span is parented to the
    /// send span that rode the wire.
    #[test]
    fn wire_spans_join_the_slot_trace_and_chain_send_to_recv() {
        let clock: Arc<dyn Clock> = Arc::new(lazarus_obs::ManualClock::new());
        let rec = |node| FlightRecorder::new(node, 16, Arc::clone(&clock));
        let (tx, rx) = (rec(0), rec(1));
        let sender = Instruments::new().with_flight(tx.clone());
        let receiver = Instruments::new().with_flight(rx.clone());
        let handling = TraceCtx { trace_id: 77, parent_id: 5, span_id: 6 };

        let write = write(9);
        let sent = sender.send_span(&write, ReplicaId(1), Some(40), &handling).expect("traced");
        assert_eq!(sent.trace_id, slot_trace_id(9), "consensus: the slot's trace");
        assert_eq!(sent.parent_id, handling.span_id);
        let got = receiver.wire_received(&write, None, Some(sent)).handling();
        assert_eq!((got.trace_id, got.parent_id), (slot_trace_id(9), sent.span_id));
        sender.wire_fault(EventKind::Delay, &write, ReplicaId(1), 40, Some(sent), 250);

        let cst = Message::CstRequest { from: ReplicaId(0), from_seq: SeqNo(3) };
        let sent = sender.send_span(&cst, ReplicaId(1), None, &handling).expect("traced");
        assert_eq!(sent.trace_id, 77, "non-consensus: the handling context's trace");
        let root = receiver.wire_received(&cst, None, None).handling();
        assert_eq!((root.trace_id, root.parent_id), (0, NO_SPAN), "client traffic is a root");

        let (tx, rx) = (tx.events(), rx.events());
        assert_eq!((tx[0].event, tx[0].at_us, tx[0].kind), (EventKind::Send, 40, "WRITE"));
        assert_eq!((tx[0].seq, tx[0].view, tx[0].peer), (Some(9), Some(0), Some(1)));
        assert_eq!(
            (tx[1].event, tx[1].parent_id, tx[1].extra),
            (EventKind::Delay, tx[0].span_id, 250)
        );
        assert_eq!(
            (rx[0].event, rx[0].peer, rx[0].parent_id),
            (EventKind::Recv, Some(0), tx[0].span_id)
        );
        // Tracing off: nothing to ride the wire, nothing recorded.
        assert_eq!(Instruments::new().send_span(&cst, ReplicaId(1), None, &handling), None);
    }
}
