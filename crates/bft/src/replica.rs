//! The replica state machine.
//!
//! A Mod-SMaRt-style replica: sequential consensus slots (PROPOSE → WRITE →
//! ACCEPT with Byzantine quorums), request watchdogs that escalate to a
//! leader change (STOP / STOP-DATA / SYNC), quorum-stable checkpoints with
//! log trimming, state transfer for joining or lagging replicas, and
//! controller-signed replica-set reconfiguration — the feature Lazarus
//! drives (add the new replica, then remove the quarantined one, §7.3).
//!
//! The replica is a *pure state machine*: every input (`on_message`,
//! `on_client_request`, `on_timer`) returns a list of [`Action`]s for the
//! embedding runtime to perform. This keeps the protocol deterministic and
//! lets the same code run under the discrete-event testbed (virtual time)
//! and the threaded runtime (wall-clock benches).
//!
//! # Simplifications vs. a hardened deployment
//!
//! * Message authentication uses pairwise MACs from the simulated
//!   [`Keyring`](crate::crypto::Keyring); leader-change certificates are
//!   accepted from quorum counting without per-vote signatures.
//! * The client-reply cache is not carried by state transfer, so a freshly
//!   transferred replica may re-execute one in-flight duplicate per client
//!   (clients filter by `op`, so this is invisible to callers).

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::Arc;

use bytes::Bytes;
use lazarus_obs::causal::{EventKind, TraceCtx};

use crate::consensus::Instance;
use crate::crypto::{Digest, Keyring, Principal};
use crate::log::{Checkpoint, DecidedLog};
use crate::messages::{
    Batch, CheckpointMsg, ChunkManifest, ConsensusMsg, CstReply, Message, ReconfigCommand, Reply,
    Request, WriteCertificate,
};
use crate::obs::Instruments;
use crate::service::Service;
use crate::storage::{Recovered, Storage};
use crate::types::{ClientId, Epoch, Membership, ReplicaId, SeqNo, View};

/// The pseudo-client identity under which reconfiguration commands enter
/// the total order.
pub const CONTROLLER_CLIENT: ClientId = ClientId(u64::MAX);

/// Timers a replica may arm; durations are chosen by the runtime from the
/// hint carried in [`Action::SetTimer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TimerId {
    /// Request watchdog (escalates to forwarding, then to a leader change).
    Request,
    /// Waiting for the new leader's SYNC after a view change.
    Sync,
    /// State-transfer retry.
    Cst,
}

/// Per-input context the embedding runtime hands the replica alongside a
/// message or timer. Today it carries the optional causal [`TraceCtx`] of
/// the transport's receive (or timer) span; bundling it as a struct keeps
/// the ingress API at one entry point per input kind, so future per-input
/// metadata (deadlines, priorities) extends this struct instead of forking
/// `on_message` again.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ctx {
    /// Causal context of the input; `None` makes the events recorded while
    /// handling it causal roots.
    pub trace: Option<TraceCtx>,
}

impl Ctx {
    /// An input with no causal context (a root).
    pub const UNTRACED: Ctx = Ctx { trace: None };

    /// An input handled under `trace`: every protocol event recorded while
    /// it runs links to that span.
    pub fn traced(trace: TraceCtx) -> Ctx {
        Ctx { trace: Some(trace) }
    }

    /// The context events recorded while handling this input link to
    /// ([`TraceCtx::UNTRACED`] when it carried none).
    pub fn handling(self) -> TraceCtx {
        self.trace.unwrap_or(TraceCtx::UNTRACED)
    }
}

impl From<Option<TraceCtx>> for Ctx {
    fn from(trace: Option<TraceCtx>) -> Ctx {
        Ctx { trace }
    }
}

/// Effects requested by the state machine.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Send a protocol message to another replica.
    Send(ReplicaId, Message),
    /// Send one shared message to every listed peer.
    ///
    /// The message lives behind an [`Arc`] so runtimes sign and serialize it
    /// once per broadcast and deliver it by reference — the per-peer
    /// delivery set (and wire accounting) is identical to pushing one
    /// [`Action::Send`] per peer, without the per-peer deep clone.
    Broadcast(Vec<ReplicaId>, Arc<Message>),
    /// Send a reply to a client.
    SendClient(ClientId, Reply),
    /// Arm (or re-arm) a timer after the given logical duration.
    SetTimer(TimerId, u64),
    /// Cancel a timer.
    CancelTimer(TimerId),
    /// A slot was executed (`seq`, number of requests) — for metrics.
    Executed(SeqNo, usize),
    /// The membership changed (reconfiguration executed).
    EpochChanged(Membership),
    /// This replica was removed from the membership and stopped.
    Retired,
    /// This replica finished a state transfer at the given slot.
    StateTransferred(SeqNo),
}

/// Per-client at-most-once execution ledger.
///
/// A pipelined client keeps several operations outstanding at once, and a
/// view change can commit them *out of op order* (an abandoned slot's
/// request is re-proposed after a later op already executed). Executed-op
/// tracking is therefore exact, not a monotone high-water mark: `hwm`
/// covers the contiguous executed prefix, and `replies` caches the reply
/// for `hwm` plus every executed op above it — at most the client's
/// pipeline depth plus one entries.
#[derive(Debug, Clone, Default)]
struct ClientLedger {
    /// Every op `<= hwm` has executed.
    hwm: u64,
    /// Cached replies: the op at `hwm` plus executed ops above it.
    replies: BTreeMap<u64, Reply>,
}

impl ClientLedger {
    /// True when `op` already executed (its re-execution must be refused).
    fn executed(&self, op: u64) -> bool {
        op <= self.hwm || self.replies.contains_key(&op)
    }

    /// The cached reply for `op`, when still held.
    fn reply(&self, op: u64) -> Option<&Reply> {
        self.replies.get(&op)
    }

    /// Records an execution, advancing the contiguous prefix and dropping
    /// reply cache entries below it.
    fn record(&mut self, op: u64, reply: Reply) {
        self.replies.insert(op, reply);
        while self.replies.contains_key(&(self.hwm + 1)) {
            self.hwm += 1;
        }
        self.replies.retain(|&o, _| o >= self.hwm);
    }
}

/// Liveness/participation status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Normal operation.
    Active,
    /// Fetching state (joining or recovering from a gap).
    StateTransfer,
    /// Removed from the membership.
    Retired,
}

/// Static replica configuration.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// This replica's identity.
    pub id: ReplicaId,
    /// Initial membership.
    pub membership: Membership,
    /// Checkpoint cadence in slots.
    pub checkpoint_period: u64,
    /// Maximum requests per proposed batch.
    pub max_batch: usize,
    /// Watchdog period hint (logical time units).
    pub request_timeout: u64,
    /// Slot gap that triggers a state transfer.
    pub cst_gap: u64,
    /// Deployment master secret for the keyring.
    pub master_secret: Vec<u8>,
    /// Start in joining mode (fetch state before participating).
    pub join: bool,
    /// View to start in. Leader of view `v` is `replicas[v % n]`, so the
    /// control plane places its chosen leader by booting the whole cluster
    /// at the matching view. Every replica must agree on it.
    pub initial_view: View,
    /// Chunk size for state transfer: snapshots stream as CRC-verifiable
    /// chunks of this many bytes. Must agree cluster-wide (the chunk
    /// manifest a donor derives must match the one the requester
    /// certified).
    pub cst_chunk_bytes: usize,
    /// Consensus pipelining window: how many slots may be in flight above
    /// the last executed slot (BFT-SMaRt-style). 1 (the default) keeps the
    /// classic single-open-slot behaviour; values are clamped to at least 1.
    pub window: u64,
    /// How the leader sizes proposal batches (see [`crate::batcher`]).
    pub batch_policy: crate::batcher::BatchPolicy,
}

impl ReplicaConfig {
    /// A sensible default configuration for `id` in `membership`.
    pub fn new(id: ReplicaId, membership: Membership) -> ReplicaConfig {
        ReplicaConfig {
            id,
            membership,
            checkpoint_period: 1000,
            max_batch: 400,
            request_timeout: 200,
            cst_gap: 2000,
            master_secret: b"lazarus-deployment".to_vec(),
            join: false,
            initial_view: View(0),
            cst_chunk_bytes: 256 * 1024,
            window: 1,
            batch_policy: crate::batcher::BatchPolicy::Fixed,
        }
    }
}

/// In-progress state transfer bookkeeping for one round (one designee).
#[derive(Debug)]
struct CstState {
    /// Per-peer summary digest + full reply received this round.
    replies: HashMap<ReplicaId, (Digest, CstReply)>,
    /// The certified state once f+1 summaries matched.
    certified: Option<CertifiedCst>,
    /// Round counter; offsets the chunk-to-peer striping so a rotation
    /// spreads re-requests onto different donors.
    designee: usize,
}

/// A state certified by f+1 matching summary digests: at least one of the
/// matching senders is correct, so the checkpoint digest, chunk manifest,
/// suffix batches, membership, and view are all trustworthy.
#[derive(Debug, Clone)]
struct CertifiedCst {
    reply: CstReply,
    /// The replicas whose summaries matched, sorted by id — the only peers
    /// chunk requests go to.
    sources: Vec<ReplicaId>,
}

/// Verified snapshot chunks accumulated across transfer rounds. Lives
/// *outside* [`CstState`] so a designee rotation (which resets the round)
/// keeps the chunks — the heart of resumable state transfer: a partition
/// mid-transfer wastes no completed chunk.
#[derive(Debug)]
struct ChunkStore {
    checkpoint_seq: SeqNo,
    manifest_digest: Digest,
    chunks: Vec<Option<Bytes>>,
}

impl ChunkStore {
    fn done(&self) -> usize {
        self.chunks.iter().filter(|c| c.is_some()).count()
    }
}

/// What a reboot from durable storage recovered, for the embedding runtime
/// (metrics gauge, invariant checking, logs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Slot of the recovered stable checkpoint (genesis when none).
    pub stable_seq: SeqNo,
    /// Digest of the recovered stable checkpoint's snapshot.
    pub stable_digest: Digest,
    /// Decided batches replayed through the service above the checkpoint.
    pub replayed: u64,
    /// True when the journal ended in a torn (partially written) record.
    pub torn_tail: bool,
    /// Deterministic virtual replay cost in µs (byte-derived, not wall
    /// time).
    pub virtual_us: u64,
}

/// The replica state machine (generic over the replicated [`Service`]).
pub struct Replica<S: Service> {
    cfg: ReplicaConfig,
    keyring: Keyring,
    service: S,
    membership: Membership,
    view: View,
    status: Status,

    // Request handling. Digests are cached alongside each queued request —
    // SHA-256 recomputation on every scan dominates profiles otherwise.
    pending: VecDeque<(Digest, Request)>,
    pending_digests: HashSet<Digest>,
    // Pending requests already carried by an in-flight proposal (always a
    // subset of `pending_digests`): with several slots open concurrently,
    // the leader must not propose the same request into two batches.
    // Cleared on view change (re-proposals restore it from certificates).
    in_flight: HashSet<Digest>,
    last_replies: HashMap<ClientId, ClientLedger>,
    watchdog_strikes: u8,
    executed_at_last_strike: SeqNo,

    // Ordering.
    log: DecidedLog,
    insts: BTreeMap<u64, Instance>,
    last_decided: SeqNo,
    future: BTreeMap<u64, Vec<(ReplicaId, ConsensusMsg)>>,

    // Laggard help: the (slot, view) we last re-voted towards each peer, so
    // two up-to-date replicas exchanging stale votes cannot ping-pong help
    // messages forever. At most one entry per peer.
    helped: HashMap<ReplicaId, (SeqNo, View)>,

    // Leader change.
    stops: HashMap<u64, HashSet<ReplicaId>>,
    stop_datas: HashMap<u64, HashMap<ReplicaId, (SeqNo, Vec<WriteCertificate>)>>,
    sent_stop_for: Option<View>,

    // State transfer. The chunk store outlives individual CST rounds so
    // verified chunks survive designee rotation (resumable transfer).
    cst: Option<CstState>,
    chunk_store: Option<ChunkStore>,

    // The instrumentation boundary: every hook below is one call into it
    // (unattached = one branch per hook).
    probe: Instruments,
    // Leader-side batch occupancy the queue sampler reads.
    last_batch_fill: usize,
}

impl<S: Service> std::fmt::Debug for Replica<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Replica")
            .field("id", &self.cfg.id)
            .field("view", &self.view)
            .field("epoch", &self.membership.epoch)
            .field("status", &self.status)
            .field("last_decided", &self.last_decided)
            .finish()
    }
}

impl<S: Service> Replica<S> {
    /// Creates the replica (volatile in-memory log). Joining replicas
    /// immediately request state.
    pub fn new(cfg: ReplicaConfig, service: S) -> (Replica<S>, Vec<Action>) {
        let genesis = service.snapshot();
        let log = DecidedLog::new(cfg.checkpoint_period, genesis);
        Self::boot(Self::fresh(cfg, service, log))
    }

    /// Creates the replica with a durable [`Storage`] backend behind the
    /// decided log: every decided batch and stable checkpoint is written
    /// through, so a later crash can be recovered from via
    /// [`Replica::recover`].
    pub fn with_storage(
        cfg: ReplicaConfig,
        service: S,
        storage: Box<dyn Storage>,
    ) -> (Replica<S>, Vec<Action>) {
        let genesis = service.snapshot();
        let log = DecidedLog::with_storage(cfg.checkpoint_period, genesis, storage);
        Self::boot(Self::fresh(cfg, service, log))
    }

    /// Reboots the replica from what a durable journal recovered: installs
    /// the recovered stable checkpoint into the service, replays the
    /// contiguous decided suffix (client replies suppressed), and resumes
    /// with the journal as the write-through backend. Returns the usual
    /// boot actions plus a [`RecoveryInfo`] for the embedding runtime.
    pub fn recover(
        cfg: ReplicaConfig,
        mut service: S,
        storage: Box<dyn Storage>,
        recovered: Recovered,
    ) -> (Replica<S>, Vec<Action>, RecoveryInfo) {
        let genesis = service.snapshot();
        let torn_tail = recovered.torn_tail;
        let virtual_us = recovered.virtual_recovery_us();
        if let Some(stable) = &recovered.stable {
            service.install(&stable.snapshot);
        }
        let log = DecidedLog::from_recovered(cfg.checkpoint_period, genesis, storage, recovered);
        let stable_seq = log.stable_checkpoint().seq;
        let stable_digest = log.stable_checkpoint().digest;
        let mut replica = Self::fresh(cfg, service, log);
        let mut actions = Vec::new();
        replica.last_decided = stable_seq;
        // Replay the decided suffix with client replies suppressed (the
        // clients were answered before the crash; re-sending would be
        // harmless but noisy). A gap in the journaled suffix ends the
        // replay — slots past a gap cannot be executed in order.
        replica.status = Status::StateTransfer;
        let mut replayed = 0u64;
        for (seq, batch) in replica.log.suffix(stable_seq) {
            if seq.0 != replica.last_decided.0 + 1 {
                break;
            }
            replica.execute_batch(seq, &batch, &mut actions);
            replica.last_decided = seq;
            replayed += 1;
        }
        replica.status = if replica.cfg.join { Status::StateTransfer } else { Status::Active };
        if replica.cfg.join {
            replica.start_cst(&mut actions);
        } else {
            actions.push(Action::SetTimer(TimerId::Request, replica.cfg.request_timeout));
        }
        let info = RecoveryInfo { stable_seq, stable_digest, replayed, torn_tail, virtual_us };
        (replica, actions, info)
    }

    /// Emits the recovery gauge + flight event for a reboot. Separate from
    /// [`Replica::recover`] because instrumentation attaches after
    /// construction ([`Self::attach`]).
    pub fn note_recovered(&mut self, info: &RecoveryInfo) {
        self.probe.recovered(info.stable_seq, info.virtual_us, info.torn_tail);
    }

    fn fresh(cfg: ReplicaConfig, service: S, log: DecidedLog) -> Replica<S> {
        let keyring = Keyring::new(&cfg.master_secret);
        let membership = cfg.membership.clone();
        let status = if cfg.join { Status::StateTransfer } else { Status::Active };
        let initial_view = cfg.initial_view;
        Replica {
            cfg,
            keyring,
            service,
            membership,
            view: initial_view,
            status,
            pending: VecDeque::new(),
            pending_digests: HashSet::new(),
            in_flight: HashSet::new(),
            last_replies: HashMap::new(),
            watchdog_strikes: 0,
            executed_at_last_strike: SeqNo(0),
            log,
            insts: BTreeMap::new(),
            last_decided: SeqNo(0),
            future: BTreeMap::new(),
            helped: HashMap::new(),
            stops: HashMap::new(),
            stop_datas: HashMap::new(),
            sent_stop_for: None,
            cst: None,
            chunk_store: None,
            probe: Instruments::new(),
            last_batch_fill: 0,
        }
    }

    fn boot(mut replica: Replica<S>) -> (Replica<S>, Vec<Action>) {
        let mut actions = Vec::new();
        if replica.cfg().join {
            replica.start_cst(&mut actions);
        } else {
            actions.push(Action::SetTimer(TimerId::Request, replica.cfg.request_timeout));
        }
        (replica, actions)
    }

    /// The static configuration.
    pub fn cfg(&self) -> &ReplicaConfig {
        &self.cfg
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.cfg.id
    }

    /// Current view.
    pub fn view(&self) -> View {
        self.view
    }

    /// Current membership.
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Participation status.
    pub fn status(&self) -> Status {
        self.status
    }

    /// Highest contiguously decided (and executed) slot.
    pub fn last_decided(&self) -> SeqNo {
        self.last_decided
    }

    /// Read access to the replicated service.
    pub fn service(&self) -> &S {
        &self.service
    }

    /// Read access to the decided log.
    pub fn decided_log(&self) -> &DecidedLog {
        &self.log
    }

    /// True when this replica currently leads.
    pub fn is_leader(&self) -> bool {
        self.membership.leader(self.view) == self.cfg.id
    }

    /// Attaches an instrumentation bundle: metrics, health tracking, the
    /// causal flight recorder, and the phase profiler — each optional (see
    /// the [`Instruments`] combinators). Present sinks are merged into what
    /// is already attached, in dependency order: the health tracker hooks
    /// into the metrics, so metrics attach first and the replica registers
    /// itself with the tracker under its current view and leader.
    pub fn attach(&mut self, instruments: Instruments) {
        let leader = self.membership.leader(self.view);
        self.probe.merge(instruments, self.cfg.id.0, self.view, leader);
    }

    /// The instrumentation this replica records through — the host records
    /// its wire events through the same object.
    pub fn instruments(&self) -> &Instruments {
        &self.probe
    }

    /// Client requests queued but not yet proposed (queue sampler).
    pub fn pending_requests(&self) -> usize {
        self.pending.len()
    }

    /// Consensus instances open above the last executed slot — in-flight
    /// ordering work plus any decided-but-unexecuted slots waiting for the
    /// contiguous prefix to catch up (with `window > 1` decisions can land
    /// out of order; execution stays in slot order).
    pub fn open_instances(&self) -> usize {
        self.insts.range(self.last_decided.0 + 1..).count()
    }

    /// Requests taken into this replica's most recent proposal (leader-side
    /// batch occupancy; stays at its last value on non-leaders).
    pub fn last_batch_fill(&self) -> usize {
        self.last_batch_fill
    }

    /// Counts a refused ingress message under
    /// `bft_rejected_messages_total{reason=…}`. Rejection is the designed
    /// response to forged, stale, or Byzantine traffic: drop, count, move
    /// on — never panic. This variant is for rejections with no
    /// attributable replica (client-origin, or benign pipeline skew like
    /// votes on already-decided slots); it carries no health charge.
    fn reject(&self, reason: &'static str) {
        self.probe.rejected(reason, None);
    }

    /// As [`Self::reject`], but the refused message came from member
    /// replica `from` whose own behaviour caused the refusal — the health
    /// tracker charges the rejection to that sender.
    fn reject_from(&self, reason: &'static str, from: ReplicaId) {
        self.probe.rejected(reason, Some(from));
    }

    /// Validity gate for proposed batches: every request must carry a valid
    /// client (or controller) tag. A leader that tampers with request
    /// payloads produces a batch that fails this check everywhere, so the
    /// corruption is rejected before it can be voted on — let alone
    /// executed.
    fn verify_batch(&self, batch: &Batch) -> bool {
        batch.requests().iter().all(|request| {
            let principal = if request.client == CONTROLLER_CLIENT {
                Principal::Controller
            } else {
                Principal::Client(request.client.0)
            };
            let bytes = Request::auth_bytes(request.client, request.op, &request.payload);
            self.keyring.verify(principal, &bytes, &request.tag)
        })
    }

    // -----------------------------------------------------------------
    // Inputs
    // -----------------------------------------------------------------

    /// Handles a client request arriving at this replica.
    pub fn on_client_request(&mut self, request: Request) -> Vec<Action> {
        let mut actions = Vec::new();
        self.enqueue_request(request, &mut actions);
        self.maybe_propose(&mut actions);
        actions
    }

    /// Handles a protocol message under the given input [`Ctx`]: the
    /// transport passes the [`TraceCtx`] of its receive span (adopted from
    /// the wire envelope) via [`Ctx::traced`], and every protocol event
    /// recorded while this input runs links to it; [`Ctx::UNTRACED`] makes
    /// the events causal roots.
    pub fn on_message(&mut self, message: Message, ctx: Ctx) -> Vec<Action> {
        if self.status == Status::Retired {
            return Vec::new();
        }
        self.probe.input(ctx, "on_message", message.label());
        self.probe.message_in(message.label());
        let mut actions = Vec::new();
        match message {
            Message::Request(request) => {
                self.enqueue_request(request, &mut actions);
                self.maybe_propose(&mut actions);
            }
            Message::Consensus { from, msg } => {
                self.on_consensus(from, msg, &mut actions);
            }
            Message::Checkpoint { from, msg } => {
                self.on_checkpoint(from, msg);
            }
            Message::Stop { from, view } => {
                self.on_stop(from, view, &mut actions);
            }
            Message::StopData { from, new_view, last_decided, prepared } => {
                self.on_stop_data(from, new_view, last_decided, prepared, &mut actions);
            }
            Message::Sync { from, new_view, repropose } => {
                self.on_sync(from, new_view, repropose, &mut actions);
            }
            Message::CstRequest { from, from_seq } => {
                self.on_cst_request(from, from_seq, &mut actions);
            }
            Message::CstReply { from, reply } => {
                self.on_cst_reply(from, *reply, &mut actions);
            }
            Message::CstChunkRequest { from, seq, index } => {
                self.on_cst_chunk_request(from, seq, index, &mut actions);
            }
            Message::CstChunkReply { from, seq, index, data } => {
                self.on_cst_chunk_reply(from, seq, index, data, &mut actions);
            }
            Message::Reconfig(cmd) => {
                self.on_reconfig_command(cmd, &mut actions);
            }
        }
        self.probe.input_done();
        actions
    }

    /// Handles a timer expiry under the given input [`Ctx`] (the
    /// transport's timer span — timers are causal roots of everything they
    /// trigger, e.g. watchdog-driven view changes).
    pub fn on_timer(&mut self, timer: TimerId, ctx: Ctx) -> Vec<Action> {
        if self.status == Status::Retired {
            return Vec::new();
        }
        let timer_label = match timer {
            TimerId::Request => "request",
            TimerId::Sync => "sync",
            TimerId::Cst => "cst",
        };
        self.probe.input(ctx, "on_timer", timer_label);
        let mut actions = Vec::new();
        match timer {
            TimerId::Request => self.on_request_timer(&mut actions),
            TimerId::Sync => {
                // The new leader never sent SYNC — stop again.
                if self.status == Status::Active {
                    self.trigger_stop(&mut actions);
                }
            }
            TimerId::Cst => {
                if self.status == Status::StateTransfer {
                    // Rotate the donor stripe and retry. Verified chunks are
                    // kept — the next round only fetches what is missing.
                    self.rotate_cst(&mut actions);
                }
            }
        }
        self.probe.input_done();
        actions
    }

    // -----------------------------------------------------------------
    // Requests and proposals
    // -----------------------------------------------------------------

    fn enqueue_request(&mut self, request: Request, _actions: &mut [Action]) {
        let _phase = self.probe.phase("enqueue");
        // Authentication: reject forged client tags.
        let principal = if request.client == CONTROLLER_CLIENT {
            Principal::Controller
        } else {
            Principal::Client(request.client.0)
        };
        let bytes = Request::auth_bytes(request.client, request.op, &request.payload);
        if !self.keyring.verify(principal, &bytes, &request.tag) {
            self.reject("bad-request-sig");
            return;
        }
        // Drop already-answered or queued duplicates.
        if let Some(ledger) = self.last_replies.get(&request.client) {
            if ledger.executed(request.op) && request.client != CONTROLLER_CLIENT {
                self.reject("stale-request");
                return;
            }
        }
        let digest = request.digest();
        if self.pending_digests.contains(&digest) {
            self.reject("duplicate-request");
            return;
        }
        self.pending_digests.insert(digest);
        self.pending.push_back((digest, request));
    }

    fn open_slot(&self) -> SeqNo {
        self.last_decided.next()
    }

    /// The configured pipelining window, clamped to at least one slot.
    fn window(&self) -> u64 {
        self.cfg.window.max(1)
    }

    /// Highest slot currently eligible for consensus work: slots in
    /// `(last_decided, horizon]` are in the window; traffic beyond it is
    /// buffered in `future` until execution slides the window forward.
    fn horizon(&self) -> u64 {
        self.last_decided.0 + self.window()
    }

    fn instance(&mut self, seq: SeqNo) -> &mut Instance {
        let view = self.view;
        self.insts.entry(seq.0).or_insert_with(|| Instance::new(seq, view))
    }

    /// Fills vacant window slots with proposals. With `window=1` this is
    /// the classic single-open-slot assembler; with a wider window the
    /// leader keeps proposing into free slots while earlier slots are still
    /// gathering votes, and the [`crate::batcher`] policy decides how much
    /// of the eligible queue each proposal carries.
    fn maybe_propose(&mut self, actions: &mut Vec<Action>) {
        if self.status != Status::Active || !self.is_leader() {
            return;
        }
        loop {
            // Lowest vacant in-window slot, and the free-slot count the
            // adaptive policy divides the queue over.
            let mut target = None;
            let mut free = 0u64;
            for s in self.last_decided.0 + 1..=self.horizon() {
                let vacant = self.insts.get(&s).is_none_or(|i| i.batch.is_none() && !i.decided);
                if vacant {
                    free += 1;
                    if target.is_none() {
                        target = Some(SeqNo(s));
                    }
                }
            }
            let Some(seq) = target else { return };
            let eligible = self.pending.len().saturating_sub(self.in_flight.len());
            let take = crate::batcher::plan_take(
                self.cfg.batch_policy,
                eligible,
                free,
                self.cfg.max_batch,
            );
            if take == 0 {
                return;
            }
            let _phase = self.probe.phase("propose");
            self.last_batch_fill = take;
            let mut taken: Vec<Digest> = Vec::with_capacity(take);
            let mut requests: Vec<Request> = Vec::with_capacity(take);
            for (digest, request) in &self.pending {
                if requests.len() == take {
                    break;
                }
                if self.in_flight.contains(digest) {
                    continue;
                }
                taken.push(*digest);
                requests.push(request.clone());
            }
            self.in_flight.extend(taken);
            let view = self.view;
            let batch = Batch::new(requests);
            let msg = ConsensusMsg::Propose { view, seq, batch: batch.clone() };
            self.broadcast_consensus(msg.clone(), actions);
            self.handle_consensus_local(self.cfg.id, msg, actions);
        }
    }

    /// Emits one [`Action::Broadcast`] of `message` to every other replica.
    fn broadcast(&self, message: Message, actions: &mut Vec<Action>) {
        let peers: Vec<ReplicaId> = self.membership.others(self.cfg.id).collect();
        if !peers.is_empty() {
            actions.push(Action::Broadcast(peers, Arc::new(message)));
        }
    }

    fn broadcast_consensus(&self, msg: ConsensusMsg, actions: &mut Vec<Action>) {
        self.broadcast(Message::Consensus { from: self.cfg.id, msg }, actions);
    }

    fn on_consensus(&mut self, from: ReplicaId, msg: ConsensusMsg, actions: &mut Vec<Action>) {
        let seq = msg.seq();
        if seq <= self.last_decided {
            self.reject("stale-consensus");
            // A member still voting on the slot we just decided is lagging
            // one slot behind (its votes were lost). Decided values are
            // permanent, so re-voting WRITE + ACCEPT for the logged batch is
            // always safe — and it lets the laggard close the slot without a
            // full state transfer. Without this, a replica that decided a
            // slot alone stops voting on it ("stale") and the remaining
            // voters may sit just below quorum forever.
            // At most one help per (peer, slot, view): our help votes are
            // themselves consensus messages for the helper's own decided
            // slot, so unthrottled help between two up-to-date replicas
            // would storm back and forth indefinitely.
            let view = msg.view();
            if seq == self.last_decided
                && from != self.cfg.id
                && self.membership.contains(from)
                && self.helped.get(&from) != Some(&(seq, view))
            {
                if let Some(batch) = self.log.get(seq) {
                    self.helped.insert(from, (seq, view));
                    self.probe.help_revote(from, seq, view);
                    let digest = batch.digest();
                    for vote in [
                        ConsensusMsg::Write { view, seq, digest },
                        ConsensusMsg::Accept { view, seq, digest },
                    ] {
                        actions.push(Action::Send(
                            from,
                            Message::Consensus { from: self.cfg.id, msg: vote },
                        ));
                    }
                }
            }
            return;
        }
        if self.status == Status::StateTransfer {
            // Keep the evidence; it is replayed after the transfer.
            self.future.entry(seq.0).or_default().push((from, msg));
            return;
        }
        if self.status != Status::Active {
            return;
        }
        if !self.membership.contains(from) {
            self.reject("non-member");
            return;
        }
        if seq.0 > self.horizon() {
            // Beyond the window: buffer. If the cluster is provably past our
            // window (f+1 distinct senders vouch for a slot beyond it — at
            // least one of them is correct) or the gap is large, transfer
            // state.
            self.future.entry(seq.0).or_default().push((from, msg));
            let distinct: HashSet<ReplicaId> = self
                .future
                .get(&seq.0)
                .map(|v| v.iter().map(|(f, _)| *f).collect())
                .unwrap_or_default();
            if distinct.len() > self.membership.f()
                || seq.0 > self.last_decided.0 + self.cfg.cst_gap
            {
                self.start_cst(actions);
            }
            return;
        }
        self.handle_consensus_local(from, msg, actions);
    }

    /// Core consensus handling for one in-window slot.
    fn handle_consensus_local(
        &mut self,
        from: ReplicaId,
        msg: ConsensusMsg,
        actions: &mut Vec<Action>,
    ) {
        let seq = msg.seq();
        // Callers gate on the window, but replaying buffered traffic can
        // decide slots mid-loop — messages that went stale (or slid beyond
        // the advancing horizon) while buffered are dropped here rather
        // than resurrecting bookkeeping for a closed slot.
        if seq.0 <= self.last_decided.0 || seq.0 > self.horizon() {
            return;
        }
        let view = self.view;
        match msg {
            ConsensusMsg::Propose { view: pview, seq, batch } => {
                if pview != view {
                    self.reject_from("wrong-view", from);
                    return;
                }
                // Only the leader of the view may propose.
                if from != self.membership.leader(view) {
                    self.reject_from("not-leader", from);
                    return;
                }
                // Our own proposals were tag-verified request by request as
                // they were enqueued; a remote leader's batch gets the full
                // validity check here.
                if from != self.cfg.id && !self.verify_batch(&batch) {
                    self.reject_from("bad-batch", from);
                    return;
                }
                let inst = self.instance(seq);
                if !inst.set_proposal(pview, batch) {
                    self.reject_from("equivocation", from);
                    return;
                }
                self.probe.proposed(seq, pview);
            }
            ConsensusMsg::Write { view: wview, seq, digest } => {
                self.instance(seq).on_write(from, wview, digest);
            }
            ConsensusMsg::Accept { view: aview, seq, digest } => {
                self.instance(seq).on_accept(from, aview, digest);
            }
        }
        self.try_advance(seq, actions);
    }

    /// Drives one slot through its phases as evidence accumulates. Slots
    /// advance independently — any in-window slot (or a view-change
    /// re-proposal just beyond it) may reach a decision out of order; only
    /// *execution* is serialized, by [`Self::execute_ready`].
    fn try_advance(&mut self, seq: SeqNo, actions: &mut Vec<Action>) {
        if seq.0 <= self.last_decided.0 {
            return;
        }
        let quorum = self.membership.quorum();
        let view = self.view;
        let me = self.cfg.id;

        let inst = match self.insts.get_mut(&seq.0) {
            Some(i) => i,
            None => return,
        };
        if inst.view != view || inst.decided {
            return;
        }
        let digest = match inst.digest {
            Some(d) => d,
            None => return, // no proposal yet
        };
        // Phase 1 → 2: echo the proposal.
        if !inst.sent_write {
            inst.sent_write = true;
            inst.on_write(me, view, digest);
            let msg = ConsensusMsg::Write { view, seq, digest };
            self.broadcast_consensus(msg, actions);
            self.probe.voted(EventKind::Write, seq, view);
            // fallthrough to re-check quorums with our own vote
        }
        let inst = self.insts.get_mut(&seq.0).expect("instance exists");
        // Phase 2 → 3: write quorum observed.
        if !inst.sent_accept && inst.write_votes() >= quorum {
            inst.sent_accept = true;
            inst.on_accept(me, view, digest);
            let msg = ConsensusMsg::Accept { view, seq, digest };
            self.broadcast_consensus(msg, actions);
            self.probe.voted(EventKind::Accept, seq, view);
        }
        let inst = self.insts.get_mut(&seq.0).expect("instance exists");
        // Decision. The slot may be ahead of the contiguous prefix — it
        // stays decided-but-unexecuted (the gap `open_instances()` reports)
        // until its predecessors land.
        if inst.accept_votes() >= quorum && inst.batch.is_some() {
            inst.decided = true;
            self.execute_ready(actions);
        }
    }

    /// Applies the contiguous prefix of decided slots in order: log append,
    /// execution, checkpointing — then replays buffered traffic that slid
    /// into the advanced window and refills it with proposals. Decisions
    /// landing out of order wait in `insts` until the slot below them
    /// executes.
    fn execute_ready(&mut self, actions: &mut Vec<Action>) {
        loop {
            let next = self.open_slot();
            let ready =
                self.insts.get(&next.0).is_some_and(|inst| inst.decided && inst.batch.is_some());
            if !ready {
                break;
            }
            let Some(inst) = self.insts.remove(&next.0) else { break };
            let Some(batch) = inst.batch else { break };
            let checkpoint_due = self.log.append(next, batch.clone());
            self.execute_batch(next, &batch, actions);
            self.last_decided = next;
            self.probe.decided(next, self.view, batch.len());
            if checkpoint_due {
                let snapshot = self.service.snapshot();
                let digest = self.log.local_checkpoint(next, snapshot);
                let msg = CheckpointMsg { seq: next, digest };
                self.broadcast(Message::Checkpoint { from: self.cfg.id, msg }, actions);
                // Count our own vote.
                let quorum = self.membership.quorum();
                self.log.on_checkpoint_vote(self.cfg.id, next, digest, quorum);
                self.probe.checkpoint(next);
            }
            // Progress resets the watchdog escalation (and its baseline, so
            // the next timer tick doesn't see stale progress).
            self.watchdog_strikes = 0;
            self.executed_at_last_strike = next;
        }

        // Execution slid the window forward: replay buffered messages for
        // every slot now inside it, lowest first.
        while let Some(slot) = self.future.range(..=self.horizon()).next().map(|(&slot, _)| slot) {
            let Some(buffered) = self.future.remove(&slot) else { break };
            for (from, msg) in buffered {
                self.handle_consensus_local(from, msg, actions);
            }
        }
        self.maybe_propose(actions);
    }

    fn execute_batch(&mut self, seq: SeqNo, batch: &Batch, actions: &mut Vec<Action>) {
        let _phase = self.probe.phase("execute");
        let mut executed = 0usize;
        for request in batch.requests() {
            let digest = request.digest();
            if self.pending_digests.remove(&digest) {
                self.in_flight.remove(&digest);
                if let Some(pos) = self.pending.iter().position(|(d, _)| *d == digest) {
                    self.pending.remove(pos);
                }
            }
            if request.client == CONTROLLER_CLIENT {
                self.apply_reconfig_payload(&request.payload, actions);
                executed += 1;
                continue;
            }
            // At-most-once execution per (client, op): a duplicate with a
            // cached reply gets the cached reply resent; an executed op
            // whose reply aged out of the cache is silently refused.
            if let Some(ledger) = self.last_replies.get(&request.client) {
                if let Some(reply) = ledger.reply(request.op) {
                    actions.push(Action::SendClient(request.client, reply.clone()));
                    continue;
                }
                if ledger.executed(request.op) {
                    continue;
                }
            }
            let result = self.service.execute(request.client, &request.payload);
            executed += 1;
            let reply = self.make_reply(request.op, result);
            self.last_replies.entry(request.client).or_default().record(request.op, reply.clone());
            if self.status != Status::StateTransfer {
                actions.push(Action::SendClient(request.client, reply));
            }
        }
        self.probe.executed(seq, executed);
        actions.push(Action::Executed(seq, executed));
    }

    fn make_reply(&self, op: u64, result: Bytes) -> Reply {
        let mut bytes = Vec::with_capacity(16 + result.len());
        bytes.extend_from_slice(&op.to_be_bytes());
        bytes.extend_from_slice(&result);
        let tag = self.keyring.sign(Principal::Replica(self.cfg.id.0), &bytes);
        Reply { from: self.cfg.id, op, result, epoch: self.membership.epoch, tag }
    }

    // -----------------------------------------------------------------
    // Watchdog / leader change
    // -----------------------------------------------------------------

    fn on_request_timer(&mut self, actions: &mut Vec<Action>) {
        actions.push(Action::SetTimer(TimerId::Request, self.cfg.request_timeout));
        if self.status != Status::Active || self.pending.is_empty() {
            self.watchdog_strikes = 0;
            return;
        }
        let progressed = self.last_decided > self.executed_at_last_strike;
        self.executed_at_last_strike = self.last_decided;
        if progressed {
            self.watchdog_strikes = 0;
            return;
        }
        self.watchdog_strikes = self.watchdog_strikes.saturating_add(1);
        match self.watchdog_strikes {
            1 => {
                // First strike: forward pending requests to the leader.
                let leader = self.membership.leader(self.view);
                if leader != self.cfg.id {
                    for (_, request) in self.pending.iter().take(self.cfg.max_batch) {
                        actions.push(Action::Send(leader, Message::Request(request.clone())));
                    }
                } else {
                    self.maybe_propose(actions);
                }
            }
            _ => {
                // Second strike: the leader is faulty — change it.
                self.trigger_stop(actions);
                self.watchdog_strikes = 0;
            }
        }
    }

    fn trigger_stop(&mut self, actions: &mut Vec<Action>) {
        let view = self.view;
        if self.sent_stop_for.is_some_and(|v| v >= view) {
            // Already stopped for this view, yet the watchdog fired again:
            // our STOP may have been lost (drops, partitions). Re-broadcast
            // it — STOP votes live in per-view sets, so retransmission is
            // idempotent, and without it a single lost STOP wedges the
            // leader change forever.
            self.broadcast(Message::Stop { from: self.cfg.id, view }, actions);
            return;
        }
        self.sent_stop_for = Some(view);
        self.broadcast(Message::Stop { from: self.cfg.id, view }, actions);
        self.record_stop(self.cfg.id, view, actions);
    }

    fn on_stop(&mut self, from: ReplicaId, view: View, actions: &mut Vec<Action>) {
        if self.status != Status::Active {
            return;
        }
        if !self.membership.contains(from) {
            self.reject("non-member");
            return;
        }
        if view < self.view {
            self.reject("stale-view-change");
            return;
        }
        self.record_stop(from, view, actions);
    }

    fn record_stop(&mut self, from: ReplicaId, view: View, actions: &mut Vec<Action>) {
        self.stops.entry(view.0).or_default().insert(from);
        let f = self.membership.f();
        // Regency catch-up (Mod-SMaRt): f + 1 distinct replicas — at least
        // one of them correct — are stopping a view *ahead* of ours, so we
        // missed one or more leader changes (their SYNCs were lost). Views
        // can otherwise split permanently: each replica STOPs only its own
        // view, no view ever gathers a quorum, and every view's leader sits
        // in a different view. Adopt the lowest such view and join its wave.
        let jump = self
            .stops
            .iter()
            .filter(|&(&v, votes)| v > self.view.0 && votes.len() > f)
            .map(|(&v, _)| v)
            .min();
        if let Some(v) = jump {
            self.adopt_view(View(v));
        }
        let cur = self.view;
        let count = self.stops.get(&cur.0).map(HashSet::len).unwrap_or(0);
        if count > f && self.sent_stop_for.is_none_or(|v| v < cur) {
            // Join the stop wave (Mod-SMaRt's f+1 amplification).
            self.sent_stop_for = Some(cur);
            self.broadcast(Message::Stop { from: self.cfg.id, view: cur }, actions);
            self.stops.entry(cur.0).or_default().insert(self.cfg.id);
        }
        let count = self.stops.get(&cur.0).map(HashSet::len).unwrap_or(0);
        if count >= self.membership.quorum() {
            self.install_view(cur.next(), actions);
        }
    }

    /// Jumps straight to `view` without a STOP quorum of our own — only
    /// called when f + 1 replicas are already stopping it. Only the view
    /// number moves: open instances keep their votes and write certificates
    /// untouched, because [`Replica::install_view`] captures that evidence
    /// for STOP-DATA *before* resetting the slots — wiping it here would
    /// let the new leader re-propose over a value some replica already
    /// accepted (or decided), violating agreement.
    fn adopt_view(&mut self, view: View) {
        self.view = view;
        self.probe.view_adopted(view);
    }

    fn install_view(&mut self, new_view: View, actions: &mut Vec<Action>) {
        self.view = new_view;
        self.stops.remove(&new_view.0.saturating_sub(1));
        let new_leader = self.membership.leader(new_view);
        self.probe.view_installed(new_view, new_leader);
        // Capture the whole window's evidence *before* resetting its slots —
        // write certificates and out-of-order decisions are what the new
        // leader must respect.
        let prepared = self.prepared_certificates();
        let open_slots: Vec<u64> =
            self.insts.range(self.last_decided.0 + 1..).map(|(&s, _)| s).collect();
        for s in open_slots {
            if let Some(inst) = self.insts.get_mut(&s) {
                inst.reset_for_view(new_view);
            }
        }
        // Every undecided in-flight proposal is abandoned; SYNC re-proposals
        // re-mark what they carry forward.
        self.in_flight.clear();
        let leader = new_leader;
        if leader == self.cfg.id {
            let last_decided = self.last_decided;
            let entry = self.stop_datas.entry(new_view.0).or_default();
            entry.insert(self.cfg.id, (last_decided, prepared));
            self.maybe_sync(new_view, actions);
        } else {
            actions.push(Action::Send(
                leader,
                Message::StopData {
                    from: self.cfg.id,
                    new_view,
                    last_decided: self.last_decided,
                    prepared,
                },
            ));
            actions.push(Action::SetTimer(TimerId::Sync, self.cfg.request_timeout * 4));
        }
    }

    fn on_stop_data(
        &mut self,
        from: ReplicaId,
        new_view: View,
        last_decided: SeqNo,
        prepared: Vec<WriteCertificate>,
        actions: &mut Vec<Action>,
    ) {
        if self.status != Status::Active {
            return;
        }
        if !self.membership.contains(from) {
            self.reject("non-member");
            return;
        }
        if self.membership.leader(new_view) != self.cfg.id || new_view < self.view {
            self.reject("stale-view-change");
            return;
        }
        let entry = self.stop_datas.entry(new_view.0).or_default();
        entry.insert(from, (last_decided, prepared));
        if new_view == self.view {
            self.maybe_sync(new_view, actions);
        }
    }

    fn maybe_sync(&mut self, new_view: View, actions: &mut Vec<Action>) {
        let quorum = self.membership.quorum();
        let Some(reports) = self.stop_datas.get(&new_view.0) else { return };
        if reports.len() < quorum {
            return;
        }
        // How far anyone claims to have decided. With a pipelined window
        // this can run several slots past our own prefix and still be
        // coverable by re-proposals — every decided slot had 2f+1 ACCEPT
        // senders, so (per the argument below) the quorum's certificates
        // reach it. Only a decided slot with *no* certificate in any report
        // forces a state transfer; that case is detected per slot.
        let max_decided = reports.values().map(|(d, _)| *d).max().unwrap_or(self.last_decided);
        // Highest-view evidence per slot across the quorum's reports. Any
        // slot a replica decided (possibly out of order) had 2f+1 ACCEPT
        // senders, each holding a certificate; at least one of them is a
        // correct member of this stop-data quorum — so every possibly
        // decided slot above our prefix is represented here.
        let mut best: BTreeMap<u64, WriteCertificate> = BTreeMap::new();
        for (_, certs) in reports.values() {
            for cert in certs {
                if cert.seq.0 <= self.last_decided.0 {
                    continue;
                }
                if best.get(&cert.seq.0).is_none_or(|b| cert.view > b.view) {
                    best.insert(cert.seq.0, cert.clone());
                }
            }
        }
        let top = max_decided.0.max(best.keys().next_back().copied().unwrap_or(0));
        let mut repropose = Vec::new();
        // Quorum members behind the leader's own decided prefix may be
        // unable to state-transfer it: certification needs f + 1 matching
        // donors, and after repeated view changes the leader can be the
        // *only* replica holding some decided slots. The SYNC re-carries
        // those from the leader's log (they are decided, so this is the one
        // value consensus can re-confirm) so the quorum converges on a
        // common prefix before any new proposal. Slots already folded into
        // a quorum-stable checkpoint are omitted — enough donors exist for
        // a regular state transfer below that line.
        let min_decided = reports.values().map(|(d, _)| *d).min().unwrap_or(self.last_decided);
        for s in min_decided.0 + 1..=self.last_decided.0 {
            if let Some(batch) = self.log.get(SeqNo(s)) {
                repropose.push(WriteCertificate {
                    view: new_view,
                    seq: SeqNo(s),
                    batch: batch.clone(),
                });
            }
        }
        for s in self.last_decided.0 + 1..=top {
            match best.remove(&s) {
                Some(cert) => repropose.push(cert),
                // Someone already decided this slot but no report carries
                // its certificate (deciders whose slot is fully closed
                // report none). Leading with a fresh proposal could
                // contradict that decision; fetch the decided state instead.
                None if s <= max_decided.0 => {
                    self.start_cst(actions);
                    return;
                }
                // A hole below a certified slot: re-propose an explicit
                // no-op batch so execution stays contiguous without
                // guessing a value nobody certified.
                None => repropose.push(WriteCertificate {
                    view: new_view,
                    seq: SeqNo(s),
                    batch: Batch::new(Vec::new()),
                }),
            }
        }
        self.stop_datas.remove(&new_view.0);
        self.broadcast(
            Message::Sync { from: self.cfg.id, new_view, repropose: repropose.clone() },
            actions,
        );
        self.adopt_sync(new_view, repropose, actions);
    }

    fn on_sync(
        &mut self,
        from: ReplicaId,
        new_view: View,
        repropose: Vec<WriteCertificate>,
        actions: &mut Vec<Action>,
    ) {
        if self.status != Status::Active {
            return;
        }
        if new_view < self.view {
            self.reject("stale-view-change");
            return;
        }
        if self.membership.leader(new_view) != from {
            self.reject_from("not-leader", from);
            return;
        }
        actions.push(Action::CancelTimer(TimerId::Sync));
        self.adopt_sync(new_view, repropose, actions);
    }

    fn adopt_sync(
        &mut self,
        new_view: View,
        repropose: Vec<WriteCertificate>,
        actions: &mut Vec<Action>,
    ) {
        if new_view > self.view {
            self.view = new_view;
            let open_slots: Vec<u64> =
                self.insts.range(self.last_decided.0 + 1..).map(|(&s, _)| s).collect();
            for s in open_slots {
                if let Some(inst) = self.insts.get_mut(&s) {
                    inst.reset_for_view(new_view);
                }
            }
            self.in_flight.clear();
        }
        for cert in repropose {
            if cert.seq.0 <= self.last_decided.0 {
                // Already executed here, but peers re-running consensus for
                // this slot in the sync view still need votes to re-form
                // their quorums — without them, a slot decided by fewer
                // than a quorum of the survivors can never close. The
                // decision is irrevocable, so re-affirming its digest is
                // always safe (and our own log, not the certificate, is
                // the vote's source of truth).
                if let Some(batch) = self.log.get(cert.seq) {
                    let digest = batch.digest();
                    let view = self.view;
                    let seq = cert.seq;
                    self.broadcast_consensus(ConsensusMsg::Write { view, seq, digest }, actions);
                    self.broadcast_consensus(ConsensusMsg::Accept { view, seq, digest }, actions);
                }
                continue;
            }
            // A write certificate travels through STOP-DATA/SYNC, so a
            // Byzantine reporter (or new leader) could smuggle a tampered
            // batch in — the validity gate applies here too.
            if !self.verify_batch(&cert.batch) {
                self.reject("bad-batch");
                continue;
            }
            // Requests re-proposed from a certificate are in flight again —
            // the leader must not batch them a second time.
            for request in cert.batch.requests() {
                let digest = request.digest();
                if self.pending_digests.contains(&digest) {
                    self.in_flight.insert(digest);
                }
            }
            let view = self.view;
            let seq = cert.seq;
            // A slot we decided out of order keeps its (irrevocable) value;
            // the certificate necessarily carries the same one. As above,
            // the decision is re-affirmed so peers that reset the slot
            // during the view change can re-form their quorums around it.
            let inst = self.instance(seq);
            if inst.decided {
                let decided_digest = inst.digest;
                if let Some(digest) = decided_digest {
                    self.broadcast_consensus(ConsensusMsg::Write { view, seq, digest }, actions);
                    self.broadcast_consensus(ConsensusMsg::Accept { view, seq, digest }, actions);
                }
                continue;
            }
            inst.set_proposal(view, cert.batch);
            self.try_advance(seq, actions);
        }
        self.maybe_propose(actions);
    }

    // -----------------------------------------------------------------
    // Checkpointing
    // -----------------------------------------------------------------

    fn on_checkpoint(&mut self, from: ReplicaId, msg: CheckpointMsg) {
        if !self.membership.contains(from) {
            self.reject("non-member");
            return;
        }
        let quorum = self.membership.quorum();
        self.log.on_checkpoint_vote(from, msg.seq, msg.digest, quorum);
    }

    // -----------------------------------------------------------------
    // State transfer
    // -----------------------------------------------------------------

    fn start_cst(&mut self, actions: &mut Vec<Action>) {
        if self.cst.is_some() {
            return;
        }
        self.start_cst_with_designee(0, actions);
    }

    fn start_cst_with_designee(&mut self, designee: usize, actions: &mut Vec<Action>) {
        let _phase = self.probe.phase("cst");
        self.status = Status::StateTransfer;
        let others: Vec<ReplicaId> = self.membership.others(self.cfg.id).collect();
        if others.is_empty() {
            return;
        }
        let designee = designee % others.len();
        self.cst = Some(CstState { replies: HashMap::new(), certified: None, designee });
        self.probe.cst_started(self.last_decided, self.view);
        for peer in others {
            actions.push(Action::Send(
                peer,
                Message::CstRequest { from: self.cfg.id, from_seq: self.last_decided },
            ));
        }
        actions.push(Action::SetTimer(TimerId::Cst, self.cfg.request_timeout * 8));
    }

    /// Aborts the current CST round and starts the next one. The chunk
    /// store is *kept*: verified chunks of the same checkpoint resume.
    fn rotate_cst(&mut self, actions: &mut Vec<Action>) {
        let next = self.cst.as_ref().map(|c| c.designee + 1).unwrap_or(0);
        self.cst = None;
        self.start_cst_with_designee(next, actions);
    }

    fn on_cst_request(&mut self, from: ReplicaId, _from_seq: SeqNo, actions: &mut Vec<Action>) {
        if self.status != Status::Active {
            return;
        }
        let stable = self.log.stable_checkpoint();
        let reply = CstReply {
            checkpoint_seq: stable.seq,
            snapshot_digest: stable.digest,
            manifest: ChunkManifest::build(&stable.snapshot, self.cfg.cst_chunk_bytes),
            suffix: self.log.suffix(stable.seq),
            membership: self.membership.clone(),
            view: self.view,
        };
        actions.push(Action::Send(
            from,
            Message::CstReply { from: self.cfg.id, reply: Box::new(reply) },
        ));
    }

    fn on_cst_reply(&mut self, from: ReplicaId, reply: CstReply, actions: &mut Vec<Action>) {
        if self.status != Status::StateTransfer {
            return;
        }
        let n_others = self.membership.others(self.cfg.id).count();
        let Some(cst) = self.cst.as_mut() else { return };
        if cst.certified.is_some() {
            return; // past the summary phase; chunks are in flight
        }
        let base = reply.base_digest();
        let f = reply.membership.f();
        cst.replies.insert(from, (base, reply));
        // f+1 matching base summaries certify the checkpoint digest, chunk
        // manifest and membership — at least one of the matching senders is
        // correct. Their live logs may be caught at different decided
        // points (a donor can be one slot ahead of another while consensus
        // is in flight), so the *suffix* certified is the longest prefix
        // all matching donors agree on; anything past it re-decides through
        // normal consensus once this replica rejoins the ring. Requiring
        // byte-equal suffixes instead would wedge CST whenever the Active
        // donors never quiesce at the same slot. Sources are sorted by id
        // so chunk striping (and everything downstream) is deterministic.
        let mut sources: Vec<ReplicaId> =
            cst.replies.iter().filter(|(_, (b, _))| *b == base).map(|(id, _)| *id).collect();
        sources.sort_unstable();
        if sources.len() > f {
            let mut reply = cst.replies[&sources[0]].1.clone();
            let suffixes: Vec<&[(SeqNo, Batch)]> =
                sources.iter().map(|id| cst.replies[id].1.suffix.as_slice()).collect();
            let shortest = suffixes.iter().map(|s| s.len()).min().unwrap_or(0);
            let mut common = 0;
            while common < shortest {
                let (seq0, batch0) = &suffixes[0][common];
                let agreed = suffixes[1..]
                    .iter()
                    .all(|s| s[common].0 == *seq0 && s[common].1.digest() == batch0.digest());
                if !agreed {
                    break;
                }
                common += 1;
            }
            reply.suffix.truncate(common);
            cst.certified = Some(CertifiedCst { reply, sources });
            self.begin_chunk_phase(actions);
            return;
        }
        if cst.replies.len() >= n_others {
            // Everyone answered yet no summary reached f+1 (peers split
            // across checkpoints, or Byzantine noise): rotate now instead
            // of waiting out the CST timer.
            self.rotate_cst(actions);
        }
    }

    /// Entered once a summary is certified: set up (or resume) the chunk
    /// store and request every missing chunk, striped across the matching
    /// sources.
    fn begin_chunk_phase(&mut self, actions: &mut Vec<Action>) {
        let Some(cert) = self.cst.as_ref().and_then(|c| c.certified.as_ref()) else { return };
        let seq = cert.reply.checkpoint_seq;
        let manifest_digest = cert.reply.manifest.digest();
        let chunk_count = cert.reply.manifest.chunk_count();
        let resumable = self
            .chunk_store
            .as_ref()
            .is_some_and(|s| s.checkpoint_seq == seq && s.manifest_digest == manifest_digest);
        if resumable {
            // Chunks verified before the interruption (designee rotation,
            // partition, donor crash) are kept — zero re-fetch.
            let kept = self.chunk_store.as_ref().map(ChunkStore::done).unwrap_or(0);
            self.probe.cst_chunks_resumed(kept);
        } else {
            self.chunk_store = Some(ChunkStore {
                checkpoint_seq: seq,
                manifest_digest,
                chunks: vec![None; chunk_count],
            });
        }
        self.request_missing_chunks(actions);
        self.maybe_finish_cst(actions);
    }

    fn request_missing_chunks(&mut self, actions: &mut Vec<Action>) {
        let Some(cst) = self.cst.as_ref() else { return };
        let Some(cert) = cst.certified.as_ref() else { return };
        let Some(store) = self.chunk_store.as_ref() else { return };
        let seq = cert.reply.checkpoint_seq;
        let me = self.cfg.id;
        for (index, slot) in store.chunks.iter().enumerate() {
            if slot.is_none() {
                let target = cert.sources[(cst.designee + index) % cert.sources.len()];
                actions.push(Action::Send(
                    target,
                    Message::CstChunkRequest { from: me, seq, index: index as u32 },
                ));
            }
        }
    }

    fn on_cst_chunk_request(
        &mut self,
        from: ReplicaId,
        seq: SeqNo,
        index: u32,
        actions: &mut Vec<Action>,
    ) {
        if self.status != Status::Active {
            return;
        }
        let stable = self.log.stable_checkpoint();
        if stable.seq != seq {
            return; // benign: the requester certified a different checkpoint
        }
        // Serving a chunk needs only its byte range, never the per-chunk
        // digests — rebuilding the manifest here would re-hash the whole
        // snapshot for every chunk request and stall the donor process.
        // The range arithmetic mirrors `ChunkManifest::chunk_range` for
        // the same snapshot and the cluster-wide chunk size.
        let chunk_size = self.cfg.cst_chunk_bytes.max(1);
        let start = (index as usize).saturating_mul(chunk_size);
        let end = start.saturating_add(chunk_size).min(stable.snapshot.len());
        if start >= end {
            self.reject_from("bad-chunk", from);
            return;
        }
        let data = Bytes::copy_from_slice(&stable.snapshot[start..end]);
        actions.push(Action::Send(
            from,
            Message::CstChunkReply { from: self.cfg.id, seq, index, data },
        ));
    }

    fn on_cst_chunk_reply(
        &mut self,
        from: ReplicaId,
        seq: SeqNo,
        index: u32,
        data: Bytes,
        actions: &mut Vec<Action>,
    ) {
        if self.status != Status::StateTransfer {
            return;
        }
        let Some(cst) = self.cst.as_ref() else { return };
        let Some(cert) = cst.certified.as_ref() else { return };
        if seq != cert.reply.checkpoint_seq {
            return; // stale round
        }
        let index_us = index as usize;
        let chunk_ok = cert.reply.manifest.verify_chunk(index_us, &data);
        // Where to re-request from on a bad chunk: the next source in the
        // stripe, so a single corrupt donor cannot pin a chunk forever.
        let next_source = cert.sources[(cst.designee + index_us + 1) % cert.sources.len()];
        let (in_range, duplicate) = match self.chunk_store.as_ref() {
            Some(store) => (
                index_us < store.chunks.len(),
                store.chunks.get(index_us).is_some_and(|c| c.is_some()),
            ),
            None => return,
        };
        if !in_range {
            self.reject_from("bad-chunk", from);
            return;
        }
        if duplicate {
            return;
        }
        if !chunk_ok {
            // Corrupt or wrong-sized chunk: count it, charge the sender,
            // and re-request from a different source.
            self.probe.cst_chunk_rejected(from);
            actions.push(Action::Send(
                next_source,
                Message::CstChunkRequest { from: self.cfg.id, seq, index },
            ));
            return;
        }
        if let Some(store) = self.chunk_store.as_mut() {
            store.chunks[index_us] = Some(data);
        }
        self.probe.cst_chunk_fetched(seq, index);
        self.maybe_finish_cst(actions);
    }

    /// Assembles and installs the snapshot once every chunk is present.
    fn maybe_finish_cst(&mut self, actions: &mut Vec<Action>) {
        let complete =
            self.chunk_store.as_ref().is_some_and(|s| s.chunks.iter().all(|c| c.is_some()));
        if !complete {
            return;
        }
        let Some(cert) = self.cst.as_ref().and_then(|c| c.certified.clone()) else { return };
        let Some(store) = self.chunk_store.take() else { return };
        let mut snapshot = Vec::with_capacity(cert.reply.manifest.total_len as usize);
        for chunk in store.chunks.into_iter().flatten() {
            snapshot.extend_from_slice(&chunk);
        }
        let snapshot = Bytes::from(snapshot);
        if Digest::of(&snapshot) != cert.reply.snapshot_digest {
            // Only reachable when f+1 summaries certified a manifest that is
            // inconsistent with its own snapshot digest — collusion beyond
            // the fault budget. Refuse it and retry elsewhere regardless.
            self.reject("bad-snapshot");
            self.rotate_cst(actions);
            return;
        }
        self.finish_cst(cert.reply, snapshot, actions);
    }

    fn finish_cst(&mut self, full: CstReply, snapshot: Bytes, actions: &mut Vec<Action>) {
        // A transfer may certify *less* state than this replica already
        // executed (donors caught mid-decision certify only their common
        // prefix). Installing it would rewind the decided log and let the
        // replica re-vote slots it already executed — a direct agreement
        // violation. Refuse and return to the ring; the gap that triggered
        // the transfer closes through normal consensus or a later, further
        // along transfer.
        let end = full.suffix.last().map(|(s, _)| *s).unwrap_or(full.checkpoint_seq);
        if end <= self.last_decided {
            self.cst = None;
            self.chunk_store = None;
            self.status = Status::Active;
            actions.push(Action::CancelTimer(TimerId::Cst));
            actions.push(Action::SetTimer(TimerId::Request, self.cfg.request_timeout));
            // A leader that detoured into this transfer from a pending view
            // change still owes the quorum its SYNC (stop-data reports are
            // only dropped once the SYNC goes out). Proposing fresh batches
            // here could contradict slots that quorum already decided, and
            // immediately re-running the sync could ping-pong back into the
            // same refused transfer — stay quiet and let the Sync watchdogs
            // escalate the view change if the gap does not close.
            let view = self.view;
            if !(self.stop_datas.contains_key(&view.0)
                && self.membership.leader(view) == self.cfg.id)
            {
                self.maybe_propose(actions);
            }
            return;
        }
        // The log re-verifies the checkpoint digest and the suffix ordering
        // before anything is installed; a forged certified reply is counted
        // and dropped, never trusted.
        let checkpoint = Checkpoint {
            seq: full.checkpoint_seq,
            snapshot: snapshot.clone(),
            digest: full.snapshot_digest,
        };
        if let Err(err) = self.log.install(checkpoint, full.suffix.clone()) {
            self.reject(err.reason());
            self.rotate_cst(actions);
            return;
        }
        self.service.install(&snapshot);
        // Installing the checkpoint rolled the service back to the
        // checkpoint's state; the at-most-once ledger must roll back with it
        // or the suffix replay below would *skip* ops this replica executed
        // before the transfer, leaving the service permanently behind the
        // slots it claims to have decided (state divergence). Rebuilding the
        // ledger from the replayed suffix mirrors journal recovery.
        self.last_replies.clear();
        self.membership = full.membership.clone();
        self.view = full.view;
        self.last_decided = full.checkpoint_seq;
        // Open instances are superseded by the installed prefix — but
        // slots *beyond* it with evidence (decided, or an ACCEPT sent)
        // must survive: a decided slot re-voted differently, or an ACCEPT
        // promise forgotten and missing from a later STOP-DATA report,
        // would let a new leader re-propose over a decided value.
        self.insts.retain(|&s, inst| s > end.0 && inst.evidence().is_some());
        self.in_flight.clear();
        self.cst = None;
        // Replay the decided suffix through the service.
        for (seq, batch) in full.suffix {
            self.execute_batch(seq, &batch, actions);
            self.last_decided = seq;
        }
        self.status = Status::Active;
        actions.push(Action::CancelTimer(TimerId::Cst));
        actions.push(Action::StateTransferred(self.last_decided));
        self.probe.cst_done(self.last_decided, self.view);
        actions.push(Action::SetTimer(TimerId::Request, self.cfg.request_timeout));
        // Replay consensus traffic buffered during the transfer, for every
        // slot now inside the window (lowest first).
        let last = self.last_decided;
        self.future.retain(|&s, _| s > last.0);
        while let Some(slot) = self.future.range(..=self.horizon()).next().map(|(&slot, _)| slot) {
            let Some(buffered) = self.future.remove(&slot) else { break };
            for (from, msg) in buffered {
                if self.membership.contains(from) {
                    self.handle_consensus_local(from, msg, actions);
                }
            }
        }
        // Same hazard as the refusal path above: with a view change still
        // pending for the (possibly just-installed) current view, the
        // leader's first duty is the SYNC — its certificates re-propose any
        // decided-elsewhere slots; a fresh proposal could contradict them.
        let view = self.view;
        if self.stop_datas.contains_key(&view.0) && self.membership.leader(view) == self.cfg.id {
            self.maybe_sync(view, actions);
            if self.status != Status::Active {
                return;
            }
        }
        self.maybe_propose(actions);
    }

    // -----------------------------------------------------------------
    // Reconfiguration
    // -----------------------------------------------------------------

    /// Builds the ordered-request encoding of a reconfiguration command.
    pub fn encode_reconfig(
        epoch: Epoch,
        add: Option<ReplicaId>,
        remove: Option<ReplicaId>,
    ) -> Bytes {
        let mut out = Vec::with_capacity(12);
        out.extend_from_slice(&epoch.0.to_be_bytes());
        out.extend_from_slice(&add.map(|r| r.0 + 1).unwrap_or(0).to_be_bytes());
        out.extend_from_slice(&remove.map(|r| r.0 + 1).unwrap_or(0).to_be_bytes());
        Bytes::from(out)
    }

    fn decode_reconfig(payload: &[u8]) -> Option<(Epoch, Option<ReplicaId>, Option<ReplicaId>)> {
        if payload.len() != 12 {
            return None;
        }
        let word = |i: usize| {
            u32::from_be_bytes([payload[i], payload[i + 1], payload[i + 2], payload[i + 3]])
        };
        let epoch = Epoch(word(0));
        let add = match word(4) {
            0 => None,
            v => Some(ReplicaId(v - 1)),
        };
        let remove = match word(8) {
            0 => None,
            v => Some(ReplicaId(v - 1)),
        };
        Some((epoch, add, remove))
    }

    fn on_reconfig_command(&mut self, cmd: ReconfigCommand, actions: &mut Vec<Action>) {
        // Verify the controller's authorization.
        let bytes = ReconfigCommand::auth_bytes(cmd.epoch, cmd.add, cmd.remove);
        if !self.keyring.verify(Principal::Controller, &bytes, &cmd.tag) {
            self.reject("bad-reconfig-sig");
            return;
        }
        if cmd.epoch != self.membership.epoch {
            self.reject("stale-reconfig");
            return; // stale or replayed
        }
        // Enter the total order as a controller request.
        let payload = Self::encode_reconfig(cmd.epoch, cmd.add, cmd.remove);
        let op = cmd.epoch.0 as u64 + 1;
        let request = Request {
            client: CONTROLLER_CLIENT,
            op,
            tag: self
                .keyring
                .sign(Principal::Controller, &Request::auth_bytes(CONTROLLER_CLIENT, op, &payload)),
            payload,
        };
        self.enqueue_request(request, actions);
        self.maybe_propose(actions);
        // Non-leaders hand it to the leader immediately (no watchdog wait).
        if !self.is_leader() {
            let leader = self.membership.leader(self.view);
            if let Some((_, r)) = self.pending.back().cloned() {
                if r.client == CONTROLLER_CLIENT {
                    actions.push(Action::Send(leader, Message::Request(r)));
                }
            }
        }
    }

    fn apply_reconfig_payload(&mut self, payload: &[u8], actions: &mut Vec<Action>) {
        let Some((epoch, add, remove)) = Self::decode_reconfig(payload) else {
            return;
        };
        if epoch != self.membership.epoch {
            return;
        }
        self.membership = self.membership.reconfigured(add, remove);
        self.probe.epoch_changed(self.membership.epoch, self.membership.n());
        actions.push(Action::EpochChanged(self.membership.clone()));
        if remove == Some(self.cfg.id) {
            self.status = Status::Retired;
            actions.push(Action::Retired);
        }
    }
}

impl<S: Service> Replica<S> {
    /// Our evidence for every in-window slot, ordered by slot: write
    /// certificates where the ACCEPT phase was reached, plus the batches of
    /// slots decided out of order — the values a new leader must re-propose
    /// (see [`Instance::evidence`]).
    fn prepared_certificates(&self) -> Vec<WriteCertificate> {
        // The full range above the executed prefix, not just the window —
        // view-change re-proposals may have planted instances one window
        // beyond ours, and their evidence must survive a further change.
        self.insts
            .range(self.last_decided.0 + 1..)
            .filter_map(|(_, inst)| inst.evidence())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::service::CounterService;
    use crate::testkit::{TestCluster, TEST_SECRET};

    fn client(id: u64, cluster: &TestCluster) -> Client {
        Client::new(ClientId(id), cluster.membership(), TEST_SECRET)
    }

    #[test]
    fn normal_case_decides_and_replies() {
        let mut cluster = TestCluster::new(4, 1000);
        let mut c = client(1, &cluster);
        let result = cluster.run_client_op(&mut c, b"ping");
        assert_eq!(&result[..], b"ping");
        // all four replicas executed slot 1
        for id in 0..4 {
            assert_eq!(cluster.replica(id).last_decided(), SeqNo(1));
            assert_eq!(cluster.replica(id).service().executed(), 1);
        }
    }

    #[test]
    fn attach_merges_sinks_instead_of_replacing_the_bundle() {
        use lazarus_obs::causal::FlightRecorder;
        use lazarus_obs::{HealthConfig, HealthTracker, Obs};
        let mut cluster = TestCluster::new(4, 1000);
        let obs = Obs::unclocked();
        let health = HealthTracker::new(HealthConfig::default(), &obs);
        let flight = FlightRecorder::new(1, 64, Arc::clone(obs.clock()));
        // Replica 1 (a follower) attaches metrics + health first and the
        // recorder in a second call, like `SimCluster::enable_flight` after
        // `add_node`: the second attach must keep the first one's sinks.
        let cfg = ReplicaConfig::new(ReplicaId(1), cluster.membership());
        let (mut replica, actions) = Replica::new(cfg, CounterService::new());
        replica.attach(Instruments::new().with_obs(&obs).with_health(health.clone()));
        replica.attach(Instruments::new().with_flight(flight.clone()));
        cluster.insert_replica(1, replica, actions);
        cluster.run_client_op(&mut client(1, &cluster), b"ping");

        assert_eq!(obs.registry.counter("bft_slots_decided_total").get(), 1, "metrics kept");
        assert!(health.snapshot().replica(1).is_some(), "health tracker kept and registered");
        let kinds: Vec<EventKind> = flight.events().iter().map(|e| e.event).collect();
        use EventKind::{Accept, Commit, Exec, Propose, Write};
        assert_eq!(kinds[..5], [Propose, Write, Accept, Exec, Commit], "flight recorder added");
    }

    #[test]
    fn many_sequential_ops_stay_consistent() {
        let mut cluster = TestCluster::new(4, 1000);
        let mut c = client(1, &cluster);
        for i in 0..20u32 {
            let payload = i.to_be_bytes();
            let result = cluster.run_client_op(&mut c, &payload);
            assert_eq!(&result[..], &payload);
        }
        for id in 0..4 {
            assert_eq!(cluster.replica(id).service().executed(), 20);
        }
    }

    #[test]
    fn multiple_clients_interleave() {
        let mut cluster = TestCluster::new(4, 1000);
        let mut c1 = client(1, &cluster);
        let mut c2 = client(2, &cluster);
        // launch both, then pump
        for (to, m) in c1.invoke(Bytes::from_static(b"a")) {
            cluster.inject(to, m);
        }
        for (to, m) in c2.invoke(Bytes::from_static(b"b")) {
            cluster.inject(to, m);
        }
        cluster.run_to_quiescence();
        let mut done = 0;
        for (cid, reply) in std::mem::take(&mut cluster.client_replies) {
            if (cid == c1.id() && c1.on_reply(reply.clone()).is_some())
                || (cid == c2.id() && c2.on_reply(reply).is_some())
            {
                done += 1;
            }
        }
        assert_eq!(done, 2);
        // identical service state everywhere
        let snap0 = cluster.replica(0).service().snapshot();
        for id in 1..4 {
            assert_eq!(cluster.replica(id).service().snapshot(), snap0);
        }
    }

    #[test]
    fn duplicate_request_executes_once() {
        let mut cluster = TestCluster::new(4, 1000);
        let mut c = client(1, &cluster);
        let sends = c.invoke(Bytes::from_static(b"once"));
        for (to, m) in sends.clone() {
            cluster.inject(to, m);
        }
        // the same request injected again (e.g. a client retransmission)
        for (to, m) in sends {
            cluster.inject(to, m);
        }
        cluster.run_to_quiescence();
        for id in 0..4 {
            assert_eq!(cluster.replica(id).service().executed(), 1, "replica {id}");
        }
    }

    #[test]
    fn checkpoint_stabilizes_and_trims() {
        let mut cluster = TestCluster::new(4, 2);
        let mut c = client(1, &cluster);
        for _ in 0..5 {
            cluster.run_client_op(&mut c, b"x");
        }
        for id in 0..4 {
            let log = cluster.replica(id).decided_log();
            assert_eq!(log.stable_checkpoint().seq, SeqNo(4), "replica {id}");
            assert!(log.len() <= 1, "trimmed log, replica {id}");
        }
    }

    #[test]
    fn leader_crash_triggers_view_change_and_progress() {
        let mut cluster = TestCluster::new(4, 1000);
        let mut c = client(1, &cluster);
        cluster.run_client_op(&mut c, b"before");
        // Crash the view-0 leader (replica 0).
        cluster.crash(0);
        for (to, m) in c.invoke(Bytes::from_static(b"after")) {
            cluster.inject(to, m);
        }
        cluster.run_to_quiescence();
        // Watchdogs: first tick forwards to the (dead) leader…
        cluster.fire_timers(TimerId::Request);
        cluster.run_to_quiescence();
        // …second tick stops the view.
        cluster.fire_timers(TimerId::Request);
        cluster.run_to_quiescence();
        // Replicas 1..3 moved to view 1 and decided the request.
        let mut completed = false;
        for (cid, reply) in std::mem::take(&mut cluster.client_replies) {
            if cid == c.id() && c.on_reply(reply).is_some() {
                completed = true;
            }
        }
        assert!(completed, "operation must complete under the new leader");
        for id in 1..4 {
            assert_eq!(cluster.replica(id).view(), View(1), "replica {id}");
            assert_eq!(cluster.replica(id).last_decided(), SeqNo(2));
            assert!(cluster.replica(id).is_leader() == (id == 1));
        }
    }

    #[test]
    fn lagging_replica_catches_up_via_state_transfer() {
        let mut cluster = TestCluster::new(4, 2);
        let mut c = client(1, &cluster);
        cluster.run_client_op(&mut c, b"warm");
        // Join a brand-new replica 9 that must fetch the state.
        cluster.spawn_joiner(9, cluster.membership());
        cluster.run_to_quiescence();
        assert_eq!(cluster.replica(9).status(), Status::Active);
        assert_eq!(cluster.replica(9).service().executed(), 1);
        assert_eq!(cluster.replica(9).last_decided(), SeqNo(1));
    }

    #[test]
    fn reconfiguration_add_then_remove() {
        let mut cluster = TestCluster::new(4, 1000);
        let mut c = client(1, &cluster);
        cluster.run_client_op(&mut c, b"seed");

        // The controller adds replica 4 (Lazarus: add first).
        let keyring = Keyring::new(TEST_SECRET);
        let add = ReconfigCommand {
            epoch: Epoch(0),
            add: Some(ReplicaId(4)),
            remove: None,
            tag: keyring.sign(
                Principal::Controller,
                &ReconfigCommand::auth_bytes(Epoch(0), Some(ReplicaId(4)), None),
            ),
        };
        // Boot the joiner with the post-reconfig membership.
        let new_membership = cluster.membership().reconfigured(Some(ReplicaId(4)), None);
        cluster.spawn_joiner(4, new_membership.clone());
        for id in 0..4 {
            cluster.inject(ReplicaId(id), Message::Reconfig(add.clone()));
        }
        cluster.run_to_quiescence();
        for id in 0..4 {
            assert_eq!(cluster.replica(id).membership().epoch, Epoch(1), "replica {id}");
            assert!(cluster.replica(id).membership().contains(ReplicaId(4)));
            assert_eq!(cluster.replica(id).membership().n(), 5);
        }
        // The joiner transferred state and is active.
        assert_eq!(cluster.replica(4).status(), Status::Active);

        // Now remove replica 3 (Lazarus: quarantine the old one).
        let remove = ReconfigCommand {
            epoch: Epoch(1),
            add: None,
            remove: Some(ReplicaId(3)),
            tag: keyring.sign(
                Principal::Controller,
                &ReconfigCommand::auth_bytes(Epoch(1), None, Some(ReplicaId(3))),
            ),
        };
        for id in [0u32, 1, 2, 3, 4] {
            cluster.inject(ReplicaId(id), Message::Reconfig(remove.clone()));
        }
        cluster.run_to_quiescence();
        for id in [0u32, 1, 2, 4] {
            assert_eq!(cluster.replica(id).membership().epoch, Epoch(2), "replica {id}");
            assert!(!cluster.replica(id).membership().contains(ReplicaId(3)));
            assert_eq!(cluster.replica(id).membership().n(), 4);
        }
        assert_eq!(cluster.replica(3).status(), Status::Retired);

        // The reconfigured cluster still serves requests.
        c.set_membership(cluster.replica(0).membership().clone());
        let result = cluster.run_client_op(&mut c, b"post-reconfig");
        assert_eq!(&result[..], b"post-reconfig");
    }

    #[test]
    fn forged_reconfig_is_ignored() {
        let mut cluster = TestCluster::new(4, 1000);
        let forged = ReconfigCommand {
            epoch: Epoch(0),
            add: None,
            remove: Some(ReplicaId(0)),
            tag: crate::crypto::AuthTag([7; 32]),
        };
        for id in 0..4 {
            cluster.inject(ReplicaId(id), Message::Reconfig(forged.clone()));
        }
        cluster.run_to_quiescence();
        for id in 0..4 {
            assert_eq!(cluster.replica(id).membership().epoch, Epoch(0));
            assert_eq!(cluster.replica(id).membership().n(), 4);
        }
    }

    #[test]
    fn forged_client_request_is_ignored() {
        let mut cluster = TestCluster::new(4, 1000);
        let forged = Request {
            client: ClientId(1),
            op: 1,
            payload: Bytes::from_static(b"evil"),
            tag: crate::crypto::AuthTag([0; 32]),
        };
        for id in 0..4 {
            cluster.inject(ReplicaId(id), Message::Request(forged.clone()));
        }
        cluster.run_to_quiescence();
        for id in 0..4 {
            assert_eq!(cluster.replica(id).service().executed(), 0);
        }
    }

    #[test]
    fn randomized_delivery_preserves_agreement() {
        for seed in 0..10 {
            let mut cluster = TestCluster::new(4, 5);
            cluster.randomize_delivery(seed);
            let mut c = client(1, &cluster);
            for i in 0..8u32 {
                let result = cluster.run_client_op(&mut c, &i.to_be_bytes());
                assert_eq!(&result[..], &i.to_be_bytes());
            }
            let snap = cluster.replica(0).service().snapshot();
            for id in 1..4 {
                assert_eq!(cluster.replica(id).service().snapshot(), snap, "seed {seed}");
            }
        }
    }

    fn chunk_requests(actions: &[Action]) -> Vec<(ReplicaId, u32)> {
        actions
            .iter()
            .filter_map(|a| match a {
                Action::Send(to, Message::CstChunkRequest { index, .. }) => Some((*to, *index)),
                _ => None,
            })
            .collect()
    }

    /// A joiner plus the donor-side reply for a 10-chunk snapshot, driven
    /// by direct message injection (no cluster) so the chunk round-trips
    /// are observable one by one.
    fn chunked_cst_fixture() -> (Replica<CounterService>, Vec<u8>, CstReply) {
        let membership = Membership::new(Epoch(0), (0..4).map(ReplicaId).collect());
        let mut cfg = ReplicaConfig::new(ReplicaId(9), membership.clone());
        cfg.join = true;
        cfg.cst_chunk_bytes = 16;
        let (joiner, actions) = Replica::new(cfg, CounterService::new());
        let summary_requests = actions
            .iter()
            .filter(|a| matches!(a, Action::Send(_, Message::CstRequest { .. })))
            .count();
        assert_eq!(summary_requests, 4, "every donor is asked for a summary");
        let snapshot: Vec<u8> = (0..160u32).map(|i| i as u8).collect();
        let reply = CstReply {
            checkpoint_seq: SeqNo(40),
            snapshot_digest: Digest::of(&snapshot),
            manifest: ChunkManifest::build(&snapshot, 16),
            suffix: Vec::new(),
            membership,
            view: View(0),
        };
        assert_eq!(reply.manifest.chunk_count(), 10);
        (joiner, snapshot, reply)
    }

    fn serve_chunk(
        joiner: &mut Replica<CounterService>,
        snapshot: &[u8],
        reply: &CstReply,
        to: ReplicaId,
        index: u32,
    ) -> Vec<Action> {
        let data = Bytes::copy_from_slice(
            reply.manifest.slice(snapshot, index as usize).expect("chunk in range"),
        );
        joiner.on_message(
            Message::CstChunkReply { from: to, seq: reply.checkpoint_seq, index, data },
            Ctx::UNTRACED,
        )
    }

    /// Satellite: kill the designee after k fetched chunks; after rotation
    /// the transfer resumes and re-fetches exactly zero completed chunks.
    #[test]
    fn chunked_cst_resumes_with_zero_refetched_chunks() {
        let (mut joiner, snapshot, reply) = chunked_cst_fixture();
        // f+1 = 2 matching summaries certify the manifest.
        let first = joiner.on_message(
            Message::CstReply { from: ReplicaId(0), reply: Box::new(reply.clone()) },
            Ctx::UNTRACED,
        );
        assert!(chunk_requests(&first).is_empty(), "one summary is below f+1");
        let actions = joiner.on_message(
            Message::CstReply { from: ReplicaId(1), reply: Box::new(reply.clone()) },
            Ctx::UNTRACED,
        );
        let round1 = chunk_requests(&actions);
        assert_eq!(round1.len(), 10, "all chunks requested, striped over sources");

        // Serve 4 chunks, then the designee dies: the CST timer rotates.
        for (to, index) in &round1[..4] {
            serve_chunk(&mut joiner, &snapshot, &reply, *to, *index);
        }
        let actions = joiner.on_timer(TimerId::Cst, Ctx::UNTRACED);
        assert!(
            actions.iter().any(|a| matches!(a, Action::Send(_, Message::CstRequest { .. }))),
            "rotation restarts the summary phase"
        );
        assert_eq!(joiner.status(), Status::StateTransfer);

        // Re-certify from two different donors and resume.
        joiner.on_message(
            Message::CstReply { from: ReplicaId(2), reply: Box::new(reply.clone()) },
            Ctx::UNTRACED,
        );
        let actions = joiner.on_message(
            Message::CstReply { from: ReplicaId(3), reply: Box::new(reply.clone()) },
            Ctx::UNTRACED,
        );
        let round2 = chunk_requests(&actions);
        assert_eq!(round2.len(), 6, "only the missing chunks are requested");
        let fetched: HashSet<u32> = round1[..4].iter().map(|(_, i)| *i).collect();
        assert!(
            round2.iter().all(|(_, i)| !fetched.contains(i)),
            "zero re-fetched completed chunks"
        );

        // Serve the rest: the transfer completes against the certified
        // checkpoint.
        for (to, index) in round2 {
            serve_chunk(&mut joiner, &snapshot, &reply, to, index);
        }
        assert_eq!(joiner.status(), Status::Active);
        assert_eq!(joiner.last_decided(), SeqNo(40));
        assert_eq!(joiner.decided_log().stable_checkpoint().digest, Digest::of(&snapshot));
    }

    /// A corrupt chunk is refused (never installed) and re-requested from a
    /// different source; the good copy then completes the slot.
    #[test]
    fn corrupt_chunk_is_rejected_and_rerequested() {
        let (mut joiner, snapshot, reply) = chunked_cst_fixture();
        joiner.on_message(
            Message::CstReply { from: ReplicaId(0), reply: Box::new(reply.clone()) },
            Ctx::UNTRACED,
        );
        let actions = joiner.on_message(
            Message::CstReply { from: ReplicaId(1), reply: Box::new(reply.clone()) },
            Ctx::UNTRACED,
        );
        let round = chunk_requests(&actions);
        let (victim_target, victim_index) = round[0];

        let actions = joiner.on_message(
            Message::CstChunkReply {
                from: victim_target,
                seq: reply.checkpoint_seq,
                index: victim_index,
                data: Bytes::from_static(&[0xAA; 16]),
            },
            Ctx::UNTRACED,
        );
        let rerequests = chunk_requests(&actions);
        assert_eq!(rerequests.len(), 1, "the bad chunk is re-requested");
        assert_eq!(rerequests[0].1, victim_index);
        assert_ne!(rerequests[0].0, victim_target, "…from a different source");

        for (to, index) in round {
            serve_chunk(&mut joiner, &snapshot, &reply, to, index);
        }
        assert_eq!(joiner.status(), Status::Active);
        assert_eq!(joiner.decided_log().stable_checkpoint().digest, Digest::of(&snapshot));
    }

    /// Tentpole: a journal-backed replica reboots from its own storage —
    /// stable checkpoint installed, decided suffix replayed — instead of
    /// starting empty.
    #[test]
    fn replica_recovers_from_journal() {
        use crate::storage::{Journal, JournalConfig};
        let dir =
            std::env::temp_dir().join(format!("lazarus_replica_recover_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let jcfg = JournalConfig { fsync: false, ..JournalConfig::new(&dir) };

        // A 4-replica cluster where replica 0 journals every decided slot:
        // five client ops leave a stable checkpoint at 4 (period 2) plus
        // slot 5 in its journal.
        let mut cfg = ReplicaConfig::new(
            ReplicaId(0),
            Membership::new(Epoch(0), (0..4).map(ReplicaId).collect()),
        );
        cfg.checkpoint_period = 2;
        {
            let mut cluster = TestCluster::new(4, 2);
            let (journal, recovered) = Journal::open(jcfg.clone()).expect("open journal");
            assert!(recovered.is_empty());
            let (replica, actions) =
                Replica::with_storage(cfg.clone(), CounterService::new(), Box::new(journal));
            cluster.insert_replica(0, replica, actions);
            let mut c = client(7, &cluster);
            for op in 1..=5u64 {
                cluster.run_client_op(&mut c, &op.to_be_bytes());
            }
            assert_eq!(cluster.replica(0).last_decided(), SeqNo(5));
            assert_eq!(cluster.replica(0).decided_log().stable_checkpoint().seq, SeqNo(4));
            assert_eq!(cluster.replica(0).decided_log().storage_errors(), 0);
        }

        // Crash (drop) and reboot from the journal.
        let (journal, recovered) = Journal::open(jcfg).expect("reopen journal");
        let (rebooted, _, info) =
            Replica::recover(cfg, CounterService::new(), Box::new(journal), recovered);
        assert_eq!(info.stable_seq, SeqNo(4));
        assert_eq!(info.replayed, 1, "slot 5 replays above the checkpoint");
        assert!(!info.torn_tail);
        assert!(info.virtual_us > 0);
        assert_eq!(rebooted.status(), Status::Active);
        assert_eq!(rebooted.last_decided(), SeqNo(5));
        assert_eq!(rebooted.service().executed(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reconfig_encoding_roundtrip() {
        type R = Replica<crate::service::CounterService>;
        let payload = R::encode_reconfig(Epoch(3), Some(ReplicaId(7)), None);
        assert_eq!(R::decode_reconfig(&payload), Some((Epoch(3), Some(ReplicaId(7)), None)));
        let payload = R::encode_reconfig(Epoch(0), None, Some(ReplicaId(0)));
        assert_eq!(R::decode_reconfig(&payload), Some((Epoch(0), None, Some(ReplicaId(0)))));
        assert_eq!(R::decode_reconfig(b"short"), None);
    }

    /// Injects `ops` distinct single-request operations to the leader only
    /// (no deliveries yet) and returns the pipelined client driving them.
    fn inject_ops_to_leader(cluster: &mut TestCluster, ops: &[&[u8]]) -> Client {
        let mut c =
            Client::pipelined(ClientId(1), cluster.membership(), TEST_SECRET, ops.len().max(1));
        for payload in ops {
            for (to, m) in c.invoke(Bytes::copy_from_slice(payload)) {
                if to == ReplicaId(0) {
                    cluster.inject(to, m);
                }
            }
        }
        c
    }

    #[test]
    fn window_allows_multiple_slots_in_flight() {
        // Window 4: three back-to-back requests open three consensus slots
        // before any vote returns.
        let mut w4 = TestCluster::new_windowed(4, 1000, 4);
        inject_ops_to_leader(&mut w4, &[b"a", b"b", b"c"]);
        for _ in 0..3 {
            w4.step();
        }
        assert_eq!(w4.replica(0).open_instances(), 3, "window 4 pipelines all three");

        // Window 1 (default): the same traffic opens one slot; the rest of
        // the queue waits for the decision.
        let mut w1 = TestCluster::new(4, 1000);
        inject_ops_to_leader(&mut w1, &[b"a", b"b", b"c"]);
        for _ in 0..3 {
            w1.step();
        }
        assert_eq!(w1.replica(0).open_instances(), 1, "window 1 serializes slots");

        // Both pipelines drain to the same final service state. The window-4
        // run spread the three requests over three single-request slots; the
        // window-1 run coalesced the two queued ones into slot 2's batch.
        w4.run_to_quiescence();
        w1.run_to_quiescence();
        for id in 0..4 {
            assert_eq!(w4.replica(id).last_decided(), SeqNo(3), "replica {id}");
            assert_eq!(w1.replica(id).last_decided(), SeqNo(2), "replica {id}");
            assert_eq!(w4.replica(id).service().executed(), 3, "replica {id}");
            assert_eq!(w1.replica(id).service().executed(), 3, "replica {id}");
        }
        assert_eq!(w4.replica(0).service().snapshot(), w1.replica(0).service().snapshot());
    }

    #[test]
    fn decisions_beyond_a_hole_wait_for_the_gap() {
        // Lose slot 2 entirely: slot 3 decides but must not execute until
        // the hole is filled.
        let mut cluster = TestCluster::new_windowed(4, 1000, 4);
        inject_ops_to_leader(&mut cluster, &[b"a", b"b", b"c"]);
        for _ in 0..3 {
            cluster.step();
        }
        cluster.drop_queued(|_, m| matches!(m.consensus_slot(), Some((_, SeqNo(2)))));
        cluster.run_to_quiescence();
        for id in 0..4 {
            assert_eq!(cluster.replica(id).last_decided(), SeqNo(1), "replica {id}: slot 1 only");
            assert_eq!(
                cluster.replica(id).service().executed(),
                1,
                "replica {id}: slot 3 is decided but held back by the slot-2 hole"
            );
        }
        assert!(cluster.replica(1).open_instances() >= 1, "slot 3 parked above the gap");
    }

    #[test]
    fn view_change_abandons_partially_decided_window() {
        // Full client broadcast this time, so every replica holds the
        // pending requests and can watchdog the leader.
        let mut cluster = TestCluster::new_windowed(4, 1000, 4);
        let mut c = Client::pipelined(ClientId(1), cluster.membership(), TEST_SECRET, 3);
        for payload in [&b"a"[..], b"b", b"c"] {
            for (to, m) in c.invoke(Bytes::copy_from_slice(payload)) {
                cluster.inject(to, m);
            }
        }
        // Deliver all twelve request copies: the leader opens slots 1..3.
        for _ in 0..12 {
            cluster.step();
        }
        assert_eq!(cluster.replica(0).open_instances(), 3);
        // Slot 2 vanishes from the wire; 1 and 3 decide, 3 cannot execute.
        cluster.drop_queued(|_, m| matches!(m.consensus_slot(), Some((_, SeqNo(2)))));
        cluster.run_to_quiescence();
        for id in 0..4 {
            assert_eq!(cluster.replica(id).last_decided(), SeqNo(1), "replica {id}");
        }

        // Watchdog: forward to the (stuck) leader, then stop the view. The
        // new leader must re-propose decided-but-unexecuted slot 3 verbatim,
        // fill slot 2 with a no-op, and re-propose the abandoned request.
        cluster.fire_timers(TimerId::Request);
        cluster.run_to_quiescence();
        cluster.fire_timers(TimerId::Request);
        cluster.run_to_quiescence();
        cluster.fire_timers(TimerId::Request);
        cluster.run_to_quiescence();

        let mut completed = 0;
        for (cid, reply) in std::mem::take(&mut cluster.client_replies) {
            if cid == c.id() && c.on_reply(reply).is_some() {
                completed += 1;
            }
        }
        assert_eq!(completed, 3, "every operation survives the window abandonment");
        let snap0 = cluster.replica(0).service().snapshot();
        for id in 0..4 {
            let r = cluster.replica(id);
            assert!(r.view() > View(0), "replica {id} moved on");
            assert_eq!(r.service().executed(), 3, "replica {id}: a no-op gap adds nothing");
            assert!(r.last_decided() >= SeqNo(3), "replica {id}");
            assert_eq!(r.service().snapshot(), snap0, "replica {id} state agrees");
        }
    }
}
