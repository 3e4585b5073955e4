//! The simulated BFT cluster: replicas on profiled nodes, closed-loop
//! clients, and a virtual-time network.
//!
//! [`SimCluster`] drives the *same* replica state machines as a real
//! deployment, but in virtual time: every message delivery costs CPU on the
//! receiving node's [`ProcessingStation`] according to its
//! [`PerfProfile`], network hops add latency plus size/bandwidth time, and
//! checkpoints/state transfers add serialization work sized by the service
//! state. Quorum dynamics therefore emerge naturally — a 4-replica set makes
//! progress at the speed of its 3rd-fastest member, exactly the effect the
//! paper observes in §7.2.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::Bytes;

use lazarus_bft::batcher::BatchPolicy;
use lazarus_bft::client::Client;
use lazarus_bft::crypto::{Keyring, Principal};
use lazarus_bft::messages::{Batch, CheckpointMsg, ConsensusMsg, Message, ReconfigCommand, Reply};
use lazarus_bft::obs::Instruments;
use lazarus_bft::replica::{Action, Replica, ReplicaConfig, Status, TimerId};
use lazarus_bft::service::Service;
use lazarus_bft::storage::{tear_tail, Journal, JournalConfig};
use lazarus_bft::types::{ClientId, Epoch, Membership, ReplicaId, SeqNo, View};
use lazarus_obs::causal::{EventKind, FlightEvent, FlightRecorder, TraceCtx};
use lazarus_obs::profile::{Profiler, QueueSample};
use lazarus_obs::{
    Clock, HealthConfig, HealthSnapshot, HealthTracker, Histogram, ManualClock, Obs,
};

use crate::faults::{ByzMode, FaultPlan, FaultStats, InvariantChecker};
use crate::metrics::Metrics;
use crate::oscatalog::PerfProfile;
use crate::sim::{EventQueue, Micros, ProcessingStation, MS, SEC};

/// The shared deployment secret used by the testbed.
pub const SIM_SECRET: &[u8] = b"lazarus-deployment";

/// Network parameters (a switched gigabit LAN by default, like the paper's
/// testbed).
#[derive(Debug, Clone, Copy)]
pub struct NetworkModel {
    /// One-way propagation + switching latency.
    pub latency: Micros,
    /// Link bandwidth in MB/s (gigabit ≈ 117 MB/s effective).
    pub bandwidth_mb_s: u64,
}

impl Default for NetworkModel {
    fn default() -> Self {
        NetworkModel { latency: 120, bandwidth_mb_s: 117 }
    }
}

impl NetworkModel {
    /// One-way delivery delay for a message of `bytes`.
    pub fn delay(&self, bytes: usize) -> Micros {
        self.latency + bytes as u64 / self.bandwidth_mb_s.max(1)
    }
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Network model.
    pub network: NetworkModel,
    /// Replica checkpoint period (slots).
    pub checkpoint_period: u64,
    /// Maximum batch size.
    pub max_batch: usize,
    /// Client retransmission interval.
    pub client_retry: Micros,
    /// View every replica boots in (leader of view `v` is
    /// `replicas[v % n]` — the control plane's leader-placement knob).
    pub initial_view: u64,
    /// CST chunk size every replica agrees on (manifest granularity).
    pub cst_chunk_bytes: usize,
    /// Consensus pipeline window: slots allowed in flight at once
    /// (1 = the classic one-slot-at-a-time pipeline).
    pub window: u64,
    /// Leader batch-sizing policy.
    pub batch_policy: BatchPolicy,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            network: NetworkModel::default(),
            checkpoint_period: 1000,
            max_batch: 400,
            client_retry: 30 * SEC,
            initial_view: 0,
            cst_chunk_bytes: 256 * 1024, // ReplicaConfig's default
            window: 1,
            batch_policy: BatchPolicy::Fixed,
        }
    }
}

/// Cadence of the online health reduction in an observed cluster.
const HEALTH_TICK: Micros = 250 * MS;

enum Ev {
    DeliverReplica(ReplicaId, Arc<Message>, Option<TraceCtx>),
    DeliverClient(ClientId, Reply),
    Timer(ReplicaId, TimerId, u64),
    ClientStart(ClientId),
    ClientRetry(ClientId, u64),
    NodeUp(ReplicaId),
    NodeDown(ReplicaId),
    /// Power restored after a scheduled crash (state retained).
    NodeRestart(ReplicaId),
    /// Power restored after a crash that lost volatile state: a durable
    /// node rebuilds its replica from the journal.
    NodeReboot(ReplicaId),
    /// Periodic online health reduction (observed clusters only).
    HealthTick,
}

/// Rebuild recipe for a journal-backed node: reopen the journal in `dir`,
/// recover, and wrap a fresh service instance from `factory`.
struct DurableSpec {
    dir: PathBuf,
    rcfg: ReplicaConfig,
    factory: Box<dyn FnMut() -> Box<dyn Service>>,
}

struct Node {
    replica: Replica<Box<dyn Service>>,
    station: ProcessingStation,
    profile: PerfProfile,
    ready: bool,
    timer_gen: HashMap<TimerId, u64>,
    powered: bool,
    durable: Option<DurableSpec>,
}

struct ClientState {
    client: Client,
    factory: Box<dyn FnMut(u64) -> Bytes>,
    /// Start time of each in-flight operation (keyed by op number), for
    /// per-operation latency accounting under pipelining.
    starts: HashMap<u64, Micros>,
    current_op: u64,
    stopped: bool,
}

/// The simulated cluster.
pub struct SimCluster {
    cfg: SimConfig,
    queue: EventQueue<Ev>,
    nodes: HashMap<u32, Node>,
    clients: HashMap<u64, ClientState>,
    keyring: Keyring,
    /// Completed-operation metrics.
    pub metrics: Metrics,
    /// Epoch transitions observed (time, new membership) — for Fig 9
    /// annotations.
    pub epoch_changes: Vec<(Micros, Membership)>,
    /// State-transfer completions (time, replica).
    pub transfers: Vec<(Micros, ReplicaId)>,
    /// Sim-time clock behind the optional obs bundle; kept at the current
    /// event's timestamp while the queue drains.
    sim_clock: Arc<ManualClock>,
    /// Instrumentation (None = uninstrumented; the simulation itself is
    /// unaffected either way).
    obs: Option<SimObs>,
    /// Installed fault schedule (None = a perfect network). Applies to
    /// replica→replica links only: client↔replica and controller injection
    /// paths stay clean, so liveness after heal is attributable to the
    /// protocol rather than to client retransmissions.
    faults: Option<FaultPlan>,
    /// Online safety checker (None = unchecked).
    checker: Option<InvariantChecker>,
    /// Per-replica causal flight recorders (empty = tracing off). The
    /// transport records wire events here; replicas share the same rings
    /// for protocol events.
    flights: HashMap<u32, FlightRecorder>,
    /// Ring capacity for recorders attached to future nodes; `None` =
    /// tracing off.
    flight_capacity: Option<usize>,
    /// Scratch directories (e.g. journals of durable nodes) owned by this
    /// run and removed when the cluster is dropped.
    scratch: Vec<PathBuf>,
    /// Optional phase profiler plus a root-frame prefix: the testbed
    /// charges its modeled station costs here (deterministic virtual
    /// self-times, since the sim clock is frozen while handlers run).
    profiler: Option<(Profiler, String)>,
    /// Periodic queue/backpressure samples, taken on the health tick of an
    /// observed cluster.
    queue_log: Vec<QueueSample>,
    /// In-flight `DeliverReplica` events per node — the sim's inbox depth.
    inbox_depth: HashMap<u32, u64>,
}

impl Drop for SimCluster {
    fn drop(&mut self) {
        // Drop replicas first so journal file handles are closed before
        // their directories disappear.
        self.nodes.clear();
        for dir in &self.scratch {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Instrumentation handles owned by an observed [`SimCluster`].
struct SimObs {
    bundle: Obs,
    client_latency_us: Histogram,
    /// Streaming health aggregation over sim-time, reduced online every
    /// [`HEALTH_TICK`].
    health: HealthTracker,
    /// What every replica of this cluster attaches: `bundle` + `health`.
    probe: Instruments,
}

impl std::fmt::Debug for SimCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimCluster")
            .field("now", &self.queue.now())
            .field("nodes", &self.nodes.len())
            .field("clients", &self.clients.len())
            .field("completed", &self.metrics.completed())
            .finish()
    }
}

impl SimCluster {
    /// An empty cluster.
    pub fn new(cfg: SimConfig) -> SimCluster {
        SimCluster {
            cfg,
            queue: EventQueue::new(),
            nodes: HashMap::new(),
            clients: HashMap::new(),
            keyring: Keyring::new(SIM_SECRET),
            metrics: Metrics::new(),
            epoch_changes: Vec::new(),
            transfers: Vec::new(),
            sim_clock: Arc::new(ManualClock::new()),
            obs: None,
            faults: None,
            checker: None,
            flights: HashMap::new(),
            flight_capacity: None,
            scratch: Vec::new(),
            profiler: None,
            queue_log: Vec::new(),
            inbox_depth: HashMap::new(),
        }
    }

    /// Registers a scratch directory (a durable node's journal) to be
    /// deleted when this cluster is dropped.
    pub fn register_scratch(&mut self, dir: PathBuf) {
        self.scratch.push(dir);
    }

    /// An empty cluster instrumented against a fresh [`Obs`] bundle whose
    /// clock is *sim-time*: snapshots and traces from a fixed-seed run are
    /// byte-identical regardless of wall-clock scheduling. Replicas added
    /// after this call are instrumented automatically.
    pub fn new_observed(cfg: SimConfig) -> SimCluster {
        let mut sim = SimCluster::new(cfg);
        let bundle = Obs::new(Arc::clone(&sim.sim_clock) as Arc<dyn Clock>);
        let health = HealthTracker::new(HealthConfig::default(), &bundle);
        sim.obs = Some(SimObs {
            client_latency_us: bundle.registry.histogram("sim_client_latency_us"),
            probe: Instruments::new().with_obs(&bundle).with_health(health.clone()),
            health,
            bundle,
        });
        // The reduction runs *online*, in virtual time: anomaly onsets and
        // health gauges appear mid-run, not only at the end.
        sim.queue.schedule_at(HEALTH_TICK, Ev::HealthTick);
        sim
    }

    /// Turns on causal flight recording: every node (existing and future)
    /// gets a [`FlightRecorder`] ring of `capacity` events on the sim
    /// clock, shared between the transport (send/recv/drop/delay/dup/timer
    /// events) and the replica (protocol milestones). Streams from a
    /// fixed-seed run are byte-identical at any `LAZARUS_THREADS`.
    pub fn enable_flight(&mut self, capacity: usize) {
        self.flight_capacity = Some(capacity);
        let ids: Vec<u32> = self.nodes.keys().copied().collect();
        for id in ids {
            self.attach_flight(ReplicaId(id));
        }
    }

    fn attach_flight(&mut self, id: ReplicaId) {
        let Some(capacity) = self.flight_capacity else { return };
        let rec = self.flights.entry(id.0).or_insert_with(|| {
            FlightRecorder::new(id.0, capacity, Arc::clone(&self.sim_clock) as Arc<dyn Clock>)
        });
        if let Some(node) = self.nodes.get_mut(&id.0) {
            node.replica.attach(Instruments::new().with_flight(rec.clone()));
        }
    }

    /// Node `id`'s instrumentation — the replica's own bundle, so the wire
    /// events recorded here and its protocol milestones share sinks.
    fn probe(&self, id: ReplicaId) -> &Instruments {
        self.nodes[&id.0].replica.instruments()
    }

    /// Replica `id`'s flight recorder, when tracing is enabled.
    pub fn flight(&self, id: ReplicaId) -> Option<&FlightRecorder> {
        self.flights.get(&id.0)
    }

    /// Every recorder's stream, sorted by node id (deterministic order).
    pub fn flight_streams(&self) -> Vec<(u32, Vec<FlightEvent>)> {
        let mut out: Vec<(u32, Vec<FlightEvent>)> =
            self.flights.iter().map(|(id, rec)| (*id, rec.events())).collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// Dumps one `replica_<id>.jsonl` per recorder into `dir` (created if
    /// missing).
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_flight_jsonl(&self, dir: &std::path::Path) -> std::io::Result<()> {
        let mut ids: Vec<u32> = self.flights.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            self.flights[&id].write_jsonl(&dir.join(format!("replica_{id}.jsonl")))?;
        }
        Ok(())
    }

    /// The instrumentation bundle, when built via
    /// [`SimCluster::new_observed`].
    pub fn obs(&self) -> Option<&Obs> {
        self.obs.as_ref().map(|o| &o.bundle)
    }

    /// The streaming health tracker, when built via
    /// [`SimCluster::new_observed`].
    pub fn health(&self) -> Option<&HealthTracker> {
        self.obs.as_ref().map(|o| &o.health)
    }

    /// A fresh health reduction at the current sim time (observed clusters
    /// only).
    pub fn health_snapshot(&self) -> Option<HealthSnapshot> {
        self.obs.as_ref().map(|o| o.health.snapshot())
    }

    /// Attaches a phase profiler: the testbed charges every modeled
    /// processing-station cost (message receive, send, broadcast, client
    /// reply) to `root;replica_<id>;<kind>;<label>` frames (`root` empty
    /// drops the prefix). The charges are the simulation's *virtual* cost
    /// model, so the resulting profile is byte-identical across reruns and
    /// thread counts. A `bench_suite` run attaches one shared profiler to
    /// several clusters with distinct roots to keep workloads apart.
    pub fn attach_profiler(&mut self, profiler: Profiler, root: &str) {
        self.profiler = Some((profiler, root.to_string()));
    }

    /// Charges one modeled cost to the attached profiler, if any.
    fn profile_charge(&self, node: u32, kind: &str, label: &str, cost: Micros) {
        if let Some((prof, root)) = &self.profiler {
            let replica = format!("replica_{node}");
            if root.is_empty() {
                prof.add(&[&replica, kind, label], cost);
            } else {
                prof.add(&[root, &replica, kind, label], cost);
            }
        }
    }

    /// Queue/backpressure samples collected so far (observed clusters
    /// sample every health tick; empty otherwise).
    pub fn queue_samples(&self) -> &[QueueSample] {
        &self.queue_log
    }

    /// Writes the queue samples as `queues.jsonl` into `dir` (created if
    /// missing) — the counter-track input of `trace_analyze`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_queue_jsonl(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let mut out = String::new();
        for sample in &self.queue_log {
            out.push_str(&sample.to_jsonl());
            out.push('\n');
        }
        std::fs::write(dir.join("queues.jsonl"), out)
    }

    /// Samples every node's queue state into `lazarus_queue_*` gauges and
    /// the in-memory queue log. Runs on the *existing* health tick — no new
    /// events are scheduled, so sampling cannot perturb the event
    /// interleaving (a new periodic event would shift the queue's
    /// insertion-order tie-breaking and with it every stochastic output).
    fn sample_queues(&mut self, at: Micros) {
        let Some(obs) = &self.obs else { return };
        let mut ids: Vec<u32> = self.nodes.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let node = &self.nodes[&id];
            let sample = QueueSample {
                at_us: at,
                node: id,
                inbox: self.inbox_depth.get(&id).copied().unwrap_or(0),
                pending: node.replica.pending_requests() as u64,
                decided_gap: node.replica.open_instances() as u64,
                batch_fill: node.replica.last_batch_fill() as u64,
            };
            let rid = id.to_string();
            let labels = [("replica", rid.as_str())];
            let registry = &obs.bundle.registry;
            registry.gauge_with("lazarus_queue_inbox_depth", &labels).set(sample.inbox as f64);
            registry
                .gauge_with("lazarus_queue_pending_requests", &labels)
                .set(sample.pending as f64);
            registry
                .gauge_with("lazarus_queue_decided_gap", &labels)
                .set(sample.decided_gap as f64);
            registry.gauge_with("lazarus_queue_batch_fill", &labels).set(sample.batch_fill as f64);
            self.queue_log.push(sample);
        }
    }

    /// Schedules a replica delivery, counting it toward the target's
    /// inbox depth until [`Self::deliver_replica`] consumes it.
    fn enqueue_deliver(
        &mut self,
        at: Micros,
        to: ReplicaId,
        message: Arc<Message>,
        ctx: Option<TraceCtx>,
    ) {
        *self.inbox_depth.entry(to.0).or_insert(0) += 1;
        self.queue.schedule_at(at, Ev::DeliverReplica(to, message, ctx));
    }

    /// Current virtual time.
    pub fn now(&self) -> Micros {
        self.queue.now()
    }

    /// Installs a fault schedule: link faults and partitions gate every
    /// replica→replica delivery from now on, crash/restart events are
    /// queued, and Byzantine replicas are marked on the installed checker
    /// (if any). Install faults and checker before running the simulation.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        for crash in plan.crash_schedule() {
            self.queue.schedule_at(crash.at, Ev::NodeDown(crash.replica));
            if let Some(restart) = crash.restart_at {
                let ev = if crash.reboot {
                    Ev::NodeReboot(crash.replica)
                } else {
                    Ev::NodeRestart(crash.replica)
                };
                self.queue.schedule_at(restart, ev);
            }
        }
        if let Some(checker) = self.checker.as_mut() {
            for id in plan.byzantine_ids() {
                checker.mark_byzantine(id);
            }
        }
        self.faults = Some(plan);
    }

    /// Installs an invariant checker observing every commit and checkpoint.
    pub fn install_checker(&mut self, mut checker: InvariantChecker) {
        if let Some(plan) = &self.faults {
            for id in plan.byzantine_ids() {
                checker.mark_byzantine(id);
            }
        }
        self.checker = Some(checker);
    }

    /// The installed checker, if any.
    pub fn checker(&self) -> Option<&InvariantChecker> {
        self.checker.as_ref()
    }

    /// Mutable access to the installed checker (for the end-of-run liveness
    /// assertion).
    pub fn checker_mut(&mut self) -> Option<&mut InvariantChecker> {
        self.checker.as_mut()
    }

    /// Injection counters of the installed fault plan.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.as_ref().map(|p| p.stats)
    }

    /// Restores power to a crashed node at `at` (state retained; the node
    /// rejoins and catches up through the normal protocol paths).
    pub fn restart_at(&mut self, at: Micros, id: ReplicaId) {
        self.queue.schedule_at(at, Ev::NodeRestart(id));
    }

    /// Rebuilds a durable node's replica from its journal after a crash
    /// that lost volatile state: the journal is reopened (replaying through
    /// any torn tail), the stable checkpoint is re-installed into a fresh
    /// service instance, and the decided suffix is replayed. The node comes
    /// ready only after the recovery's virtual time has elapsed. Nodes
    /// without a journal fall back to pause/resume semantics.
    fn reboot_node(&mut self, at: Micros, id: ReplicaId) {
        if self.nodes.get(&id.0).is_none_or(|n| n.durable.is_none()) {
            self.handle(at, Ev::NodeRestart(id));
            return;
        }
        let (dir, rcfg, service) = {
            let node = self.nodes.get_mut(&id.0).expect("checked above");
            let spec = node.durable.as_mut().expect("checked above");
            (spec.dir.clone(), spec.rcfg.clone(), (spec.factory)())
        };
        let jcfg = JournalConfig { fsync: false, ..JournalConfig::new(&dir) };
        let Ok((journal, recovered)) = Journal::open(jcfg) else { return };
        let (mut replica, actions, info) =
            Replica::recover(rcfg, service, Box::new(journal), recovered);
        if let Some(obs) = &self.obs {
            replica.attach(obs.probe.clone());
        }
        if let Some(checker) = self.checker.as_mut() {
            checker.record_recovery(id, info.stable_seq, info.stable_digest);
        }
        let ready_at = at + info.virtual_us;
        {
            let node = self.nodes.get_mut(&id.0).expect("checked above");
            node.replica = replica;
            node.powered = true;
            node.ready = false;
            // A rebooted machine has an empty run queue; timer generations
            // stay monotone so pre-crash timer events remain dead.
            node.station = ProcessingStation::new(node.profile.cores);
        }
        self.attach_flight(id);
        // Emits the recovery metrics + the `recover` flight event, so it
        // runs after the recorder is re-attached.
        if let Some(node) = self.nodes.get_mut(&id.0) {
            node.replica.note_recovered(&info);
        }
        self.queue.schedule_at(ready_at, Ev::NodeUp(id));
        for action in actions {
            self.schedule_action(id, ready_at, action, TraceCtx::UNTRACED);
        }
    }

    /// The replica configuration every node of this cluster derives from
    /// [`SimConfig`].
    fn replica_cfg(&self, id: ReplicaId, membership: Membership, join: bool) -> ReplicaConfig {
        let mut rcfg = ReplicaConfig::new(id, membership);
        rcfg.checkpoint_period = self.cfg.checkpoint_period;
        rcfg.max_batch = self.cfg.max_batch;
        rcfg.master_secret = SIM_SECRET.to_vec();
        rcfg.join = join;
        rcfg.initial_view = View(self.cfg.initial_view);
        rcfg.cst_chunk_bytes = self.cfg.cst_chunk_bytes;
        rcfg.window = self.cfg.window;
        rcfg.batch_policy = self.cfg.batch_policy;
        rcfg
    }

    /// Instruments a freshly built replica and installs it as powered node
    /// `id`.
    fn install_node(
        &mut self,
        id: ReplicaId,
        profile: PerfProfile,
        mut replica: Replica<Box<dyn Service>>,
        ready: bool,
        durable: Option<DurableSpec>,
    ) {
        if let Some(obs) = &self.obs {
            replica.attach(obs.probe.clone());
        }
        let station = ProcessingStation::new(profile.cores);
        let timer_gen = HashMap::new();
        let node = Node { replica, station, profile, ready, timer_gen, powered: true, durable };
        self.nodes.insert(id.0, node);
        self.attach_flight(id);
    }

    /// Adds a ready replica node at time zero.
    pub fn add_node(
        &mut self,
        id: ReplicaId,
        profile: PerfProfile,
        membership: Membership,
        service: Box<dyn Service>,
    ) {
        let (replica, actions) = Replica::new(self.replica_cfg(id, membership, false), service);
        self.install_node(id, profile, replica, true, None);
        let at = self.queue.now();
        self.absorb(id, at, actions, TraceCtx::UNTRACED);
    }

    /// Adds a ready *durable* replica node at time zero: its decided log is
    /// backed by an append-only journal in `dir`, and a scheduled
    /// [`FaultPlan::crash_reboot`] makes it lose volatile state and rebuild
    /// itself from that journal. `factory` produces a fresh (empty) service
    /// instance per boot; recovery re-derives its state from the journal.
    ///
    /// # Errors
    ///
    /// Propagates journal I/O errors.
    pub fn add_durable_node(
        &mut self,
        id: ReplicaId,
        profile: PerfProfile,
        membership: Membership,
        dir: &Path,
        mut factory: Box<dyn FnMut() -> Box<dyn Service>>,
    ) -> std::io::Result<()> {
        let rcfg = self.replica_cfg(id, membership, false);
        // Sync-on-checkpoint still happens; per-record fsync off keeps mass
        // simulation fast (virtual fsync time is charged either way).
        let jcfg = JournalConfig { fsync: false, ..JournalConfig::new(dir) };
        let (journal, recovered) = Journal::open(jcfg)?;
        let service = factory();
        let (replica, actions) = if recovered.is_empty() {
            Replica::with_storage(rcfg.clone(), service, Box::new(journal))
        } else {
            let (replica, actions, info) =
                Replica::recover(rcfg.clone(), service, Box::new(journal), recovered);
            if let Some(checker) = self.checker.as_mut() {
                checker.record_recovery(id, info.stable_seq, info.stable_digest);
            }
            (replica, actions)
        };
        let durable = DurableSpec { dir: dir.to_path_buf(), rcfg, factory };
        self.install_node(id, profile, replica, true, Some(durable));
        let at = self.queue.now();
        self.absorb(id, at, actions, TraceCtx::UNTRACED);
        Ok(())
    }

    /// Powers on a *joining* replica: it boots for `profile.boot`, then
    /// starts in state-transfer mode with the given membership.
    pub fn boot_joiner_at(
        &mut self,
        at: Micros,
        id: ReplicaId,
        profile: PerfProfile,
        membership: Membership,
        service: Box<dyn Service>,
    ) {
        let (replica, actions) = Replica::new(self.replica_cfg(id, membership, true), service);
        self.install_node(id, profile, replica, false, None);
        self.queue.schedule_at(at + profile.boot, Ev::NodeUp(id));
        // The joiner's initial actions (its CST requests) fire once it is up.
        let up_at = at + profile.boot;
        for action in actions {
            self.schedule_action(id, up_at, action, TraceCtx::UNTRACED);
        }
    }

    /// Powers a node off at `at` (the Lazarus LTU's power-off command).
    pub fn power_off_at(&mut self, at: Micros, id: ReplicaId) {
        // Modeled as an event so in-flight work before `at` still happens.
        self.queue.schedule_at(at, Ev::NodeDown(id));
    }

    /// Sends a controller reconfiguration command to every ready replica at
    /// time `at`.
    pub fn inject_reconfig_at(
        &mut self,
        at: Micros,
        epoch: Epoch,
        add: Option<ReplicaId>,
        remove: Option<ReplicaId>,
    ) {
        let tag = self
            .keyring
            .sign(Principal::Controller, &ReconfigCommand::auth_bytes(epoch, add, remove));
        let cmd = ReconfigCommand { epoch, add, remove, tag };
        let ids: Vec<u32> = self.nodes.keys().copied().collect();
        for id in ids {
            self.enqueue_deliver(at, ReplicaId(id), Arc::new(Message::Reconfig(cmd.clone())), None);
        }
    }

    /// Adds `count` closed-loop clients issuing payloads from `factory`
    /// (`factory(op) → payload`); they start at staggered offsets within the
    /// first 10 ms.
    pub fn add_clients(
        &mut self,
        first_id: u64,
        count: usize,
        membership: Membership,
        factory: impl Fn(u64) -> Bytes + Clone + 'static,
    ) {
        self.add_pipelined_clients(first_id, count, 1, membership, factory);
    }

    /// Adds `count` clients each keeping up to `depth` operations in flight
    /// over one logical connection (`depth == 1` is the classic closed
    /// loop). Multiplexing lets a testbed drive very large simulated client
    /// populations without one [`ClientState`] per request stream.
    pub fn add_pipelined_clients(
        &mut self,
        first_id: u64,
        count: usize,
        depth: usize,
        membership: Membership,
        factory: impl Fn(u64) -> Bytes + Clone + 'static,
    ) {
        for i in 0..count {
            let id = first_id + i as u64;
            let client = Client::pipelined(ClientId(id), membership.clone(), SIM_SECRET, depth);
            let f = factory.clone();
            self.clients.insert(
                id,
                ClientState {
                    client,
                    factory: Box::new(f),
                    starts: HashMap::new(),
                    current_op: 0,
                    stopped: false,
                },
            );
            let offset = (i as u64 * 10 * MS) / count.max(1) as u64;
            self.queue.schedule_at(offset, Ev::ClientStart(ClientId(id)));
        }
    }

    /// Stops issuing new client operations (in-flight ones finish).
    pub fn stop_clients(&mut self) {
        for c in self.clients.values_mut() {
            c.stopped = true;
        }
    }

    /// Runs until virtual time `until` (or quiescence).
    pub fn run_until(&mut self, until: Micros) {
        while let Some(next) = self.queue.next_time() {
            if next > until {
                break;
            }
            let (at, ev) = self.queue.pop().expect("peeked");
            self.handle(at, ev);
        }
    }

    fn handle(&mut self, at: Micros, ev: Ev) {
        // Every timestamp the obs layer records while this event is handled
        // is the event's sim-time, not wall time.
        self.sim_clock.set(at);
        match ev {
            Ev::DeliverReplica(to, message, ctx) => self.deliver_replica(at, to, message, ctx),
            Ev::DeliverClient(client, reply) => self.deliver_client(at, client, reply),
            Ev::Timer(id, timer, gen) => {
                let fire = self
                    .nodes
                    .get(&id.0)
                    .is_some_and(|n| n.powered && n.timer_gen.get(&timer) == Some(&gen));
                if fire {
                    // A timer is a causal root of everything it triggers
                    // (watchdog view changes, client-request proposals).
                    let replica = &mut self.nodes.get_mut(&id.0).expect("exists").replica;
                    let ctx = replica.instruments().timer_fired();
                    let actions = replica.on_timer(timer, ctx);
                    self.absorb(id, at, actions, ctx.handling());
                }
            }
            Ev::ClientStart(client) => self.client_start(at, client),
            Ev::ClientRetry(client, op) => {
                let Some(state) = self.clients.get_mut(&client.0) else { return };
                if state.client.has_pending(op) {
                    let sends = state.client.retransmit_op(op);
                    for (to, message) in sends {
                        let delay = self.cfg.network.delay(message.wire_size());
                        self.enqueue_deliver(at + delay, to, Arc::new(message), None);
                    }
                    self.queue.schedule_at(at + self.cfg.client_retry, Ev::ClientRetry(client, op));
                }
            }
            Ev::NodeUp(id) => {
                if let Some(node) = self.nodes.get_mut(&id.0) {
                    if node.powered {
                        node.ready = true;
                    }
                }
            }
            Ev::NodeDown(id) => {
                let journal_dir = {
                    let Some(node) = self.nodes.get_mut(&id.0) else { return };
                    node.powered = false;
                    node.ready = false;
                    node.durable.as_ref().map(|d| d.dir.clone())
                };
                // A crashing durable node may lose the tail of its last
                // journal write — recovery must detect the torn frame.
                if let (Some(dir), Some(plan)) = (journal_dir, self.faults.as_mut()) {
                    if plan.disk().torn_write_max_bytes > 0 {
                        let torn = plan.torn_write_len();
                        let _ = tear_tail(&dir, torn);
                    }
                }
            }
            Ev::NodeRestart(id) => {
                let (timeout, in_cst) = {
                    let Some(node) = self.nodes.get_mut(&id.0) else { return };
                    node.powered = true;
                    node.ready = true;
                    (
                        node.replica.cfg().request_timeout,
                        node.replica.status() == Status::StateTransfer,
                    )
                };
                // Timers armed before the crash were swallowed while the
                // node was down; re-arm the request watchdog so the revived
                // replica can still notice a stalled leader.
                self.schedule_action(
                    id,
                    at,
                    Action::SetTimer(TimerId::Request, timeout),
                    TraceCtx::UNTRACED,
                );
                if in_cst {
                    // A replica that crashed mid-transfer keeps its verified
                    // chunks; re-arming the CST watchdog rotates the designee
                    // and re-requests only what is still missing.
                    self.schedule_action(
                        id,
                        at,
                        Action::SetTimer(TimerId::Cst, timeout * 8),
                        TraceCtx::UNTRACED,
                    );
                }
            }
            Ev::NodeReboot(id) => self.reboot_node(at, id),
            Ev::HealthTick => {
                if self.obs.is_none() {
                    return;
                }
                if let Some(obs) = &self.obs {
                    // Reduce-only: the snapshot reads the windows, publishes
                    // gauges, and counts anomaly onsets — it never perturbs
                    // the simulation itself.
                    let _ = obs.health.snapshot();
                }
                // Piggy-backed on the same tick for the same reason: reads
                // queue state, schedules nothing.
                self.sample_queues(at);
                self.queue.schedule_at(at + HEALTH_TICK, Ev::HealthTick);
            }
        }
    }

    fn deliver_replica(
        &mut self,
        at: Micros,
        to: ReplicaId,
        message: Arc<Message>,
        wire_ctx: Option<TraceCtx>,
    ) {
        // The scheduled delivery is consumed here no matter what happens to
        // it, so the inbox count drops even for unpowered targets.
        if let Some(depth) = self.inbox_depth.get_mut(&to.0) {
            *depth = depth.saturating_sub(1);
        }
        let Some(node) = self.nodes.get_mut(&to.0) else { return };
        if !node.powered || !node.ready {
            return;
        }
        // Extra install work for arriving state chunks.
        let mut cost = node.profile.msg_cost(message.wire_size());
        if let Message::CstChunkReply { data, .. } = &*message {
            cost += snapshot_cost(node.profile.snapshot_mb_s, data.len());
        }
        let done = node.station.submit(at, cost);
        // The replica's handling "happens" when its station finishes the
        // message, so obs timestamps taken inside on_message use that time.
        self.sim_clock.set(done);
        self.profile_charge(to.0, "recv", message.label(), cost);
        // The handling context: a fresh receive span adopting the wire
        // span as parent (or a root for untraced client traffic).
        let node = self.nodes.get_mut(&to.0).expect("checked above");
        let ctx = node.replica.instruments().wire_received(&message, Some(done), wire_ctx);
        // Shallow clone unless we are the last recipient of a broadcast.
        let message = Arc::try_unwrap(message).unwrap_or_else(|shared| (*shared).clone());
        let actions = node.replica.on_message(message, ctx);
        self.absorb(to, done, actions, ctx.handling());
    }

    fn deliver_client(&mut self, at: Micros, client: ClientId, reply: Reply) {
        let (completion, started_at, stopped) = {
            let Some(state) = self.clients.get_mut(&client.0) else { return };
            let Some(completion) = state.client.on_reply(reply) else { return };
            let started_at = state.starts.remove(&completion.op).unwrap_or(at);
            (completion, started_at, state.stopped)
        };
        self.metrics.record(at, at - started_at);
        if let Some(obs) = &self.obs {
            obs.client_latency_us.observe(at - started_at);
        }
        // Replies carry the membership epoch the quorum executed under.
        // When it moves past the epoch the client targets, adopt the
        // reconfigured replica set (the real deployment re-queries the
        // controller here): a leader seated at a newly added replica is
        // unreachable under the stale set, and every operation would limp
        // through the request watchdog instead of the fast path.
        let stale = {
            let state = self.clients.get(&client.0).expect("present above");
            completion.epoch.0 > state.client.membership().epoch.0
        };
        if stale {
            if let Some(membership) = self
                .epoch_changes
                .iter()
                .rev()
                .find(|(_, m)| m.epoch == completion.epoch)
                .map(|(_, m)| m.clone())
            {
                let state = self.clients.get_mut(&client.0).expect("present above");
                state.client.set_membership(membership);
            }
        }
        if !stopped {
            self.queue.schedule_at(at, Ev::ClientStart(client));
        }
    }

    fn client_start(&mut self, at: Micros, client: ClientId) {
        // Fill the client's pipeline: a depth-1 client issues exactly one
        // operation here (the classic closed loop), a pipelined one issues
        // operations until it reaches its in-flight capacity.
        loop {
            let Some(state) = self.clients.get_mut(&client.0) else { return };
            if state.client.busy() || state.stopped {
                return;
            }
            state.current_op += 1;
            state.starts.insert(state.current_op, at);
            let payload = (state.factory)(state.current_op);
            let sends = state.client.invoke(payload);
            let op = state.current_op;
            for (to, message) in sends {
                let delay = self.cfg.network.delay(message.wire_size());
                self.enqueue_deliver(at + delay, to, Arc::new(message), None);
            }
            self.queue.schedule_at(at + self.cfg.client_retry, Ev::ClientRetry(client, op));
        }
    }

    /// Applies a replica's actions starting at `from` (the time its
    /// processing completed), under the context of the input that produced
    /// them (outbound wire spans parent to it).
    fn absorb(&mut self, id: ReplicaId, from: Micros, actions: Vec<Action>, ctx: TraceCtx) {
        for action in actions {
            if let Action::Executed(seq, _) = &action {
                self.check_commit(id, *seq);
            }
            self.schedule_action(id, from, action, ctx);
        }
    }

    /// Feeds a freshly-executed slot to the invariant checker. Reading the
    /// batch right after `Action::Executed` is safe: checkpoint trimming
    /// needs later quorum votes, so the entry is still in the decided log.
    fn check_commit(&mut self, id: ReplicaId, seq: SeqNo) {
        let Some(checker) = self.checker.as_mut() else { return };
        let Some(node) = self.nodes.get(&id.0) else { return };
        if let Some(batch) = node.replica.decided_log().get(seq) {
            checker.record_commit(id, seq, batch);
        }
        let stable = node.replica.decided_log().stable_checkpoint();
        checker.record_checkpoint(id, stable.seq, stable.digest);
    }

    /// Schedules delivery of one replica→replica message through the fault
    /// plan (if installed): the plan may drop it, delay it, or echo a
    /// duplicate. Fault-free clusters skip straight to the queue. The wire
    /// context rides along to the receiver; fault decisions are recorded
    /// into the *sender's* flight stream (the receiver never saw anything).
    fn route_deliver(
        &mut self,
        departed: Micros,
        from: ReplicaId,
        to: ReplicaId,
        delay: Micros,
        message: Arc<Message>,
        ctx: Option<TraceCtx>,
    ) {
        if self.faults.is_none() {
            self.enqueue_deliver(departed + delay, to, message, ctx);
            return;
        }
        let verdict = self.faults.as_mut().expect("checked").route(departed, from, to);
        let probe = self.probe(from);
        let fault = |event, extra| probe.wire_fault(event, &message, to, departed, ctx, extra);
        match verdict {
            [None, None] => fault(EventKind::Drop, 0),
            [Some(extra), None] | [None, Some(extra)] => {
                if extra > 0 {
                    fault(EventKind::Delay, extra);
                }
                self.enqueue_deliver(departed + delay + extra, to, message, ctx);
            }
            [Some(extra), Some(echo)] => {
                if extra > 0 {
                    fault(EventKind::Delay, extra);
                }
                fault(EventKind::Dup, echo);
                self.enqueue_deliver(departed + delay + extra, to, Arc::clone(&message), ctx);
                self.enqueue_deliver(departed + delay + echo, to, message, ctx);
            }
        }
    }

    /// Applies the fault plan's in-flight chunk corruption to an outbound
    /// CST chunk reply (the disk-fault analog of a bad sector on the
    /// donor). Other messages pass through untouched, and the plan draws
    /// no randomness unless the knob is enabled.
    fn maybe_corrupt_chunk(&mut self, mut message: Message) -> Message {
        if let (Message::CstChunkReply { data, .. }, Some(plan)) =
            (&mut message, self.faults.as_mut())
        {
            if let Some(bad) = plan.corrupt_chunk(data) {
                *data = Bytes::from(bad);
            }
        }
        message
    }

    /// Applies the sender's Byzantine mode (if any) to an outbound protocol
    /// message. Returns `None` when the message is swallowed (mute).
    /// Equivocation is handled at the broadcast site — for unicast sends an
    /// equivocating replica behaves normally.
    fn byz_transform(&mut self, id: ReplicaId, message: Message) -> Option<Message> {
        let Some(plan) = self.faults.as_mut() else { return Some(message) };
        match plan.byz_mode(id) {
            None | Some(ByzMode::Equivocate) => Some(message),
            Some(ByzMode::Mute) => {
                plan.stats.muted += 1;
                None
            }
            Some(ByzMode::CorruptPayload) => Some(corrupt_message(plan, message)),
        }
    }

    /// Queues `message` on sender `id`'s station from `from` and returns
    /// `(departure time, network delay)`. A broadcast signs and serializes
    /// once regardless of fan-out; each `unicast` copy of a checkpoint pays
    /// its 1/(n − 1) share of the snapshot stall instead.
    fn depart(
        &mut self,
        id: ReplicaId,
        from: Micros,
        message: &Message,
        unicast: bool,
    ) -> (Micros, Micros) {
        let node = self.nodes.get_mut(&id.0).expect("sender exists");
        let peers = (node.replica.membership().n() as u64).saturating_sub(1);
        let share = if unicast { peers.max(1) } else { 1 };
        let cost = send_cost(node, Outbound::Peer(message, share));
        let departed = node.station.submit(from, cost);
        self.profile_charge(id.0, "send", message.label(), cost);
        (departed, self.cfg.network.delay(message.wire_size()))
    }

    /// The cost/latency model of one broadcast (shared by the honest path
    /// and the two halves of an equivocating leader's split broadcast).
    fn broadcast_now(
        &mut self,
        id: ReplicaId,
        from: Micros,
        peers: Vec<ReplicaId>,
        message: Arc<Message>,
        handling: TraceCtx,
    ) {
        let (departed, delay) = self.depart(id, from, &message, false);
        self.probe(id).wire_sent(&message, peers.len());
        for to in peers {
            let probe = self.probe(id);
            let ctx = probe.send_span(&message, to, Some(departed), &handling);
            self.route_deliver(departed, id, to, delay, Arc::clone(&message), ctx);
        }
    }

    fn schedule_action(&mut self, id: ReplicaId, from: Micros, action: Action, handling: TraceCtx) {
        match action {
            Action::Send(to, message) => {
                let Some(message) = self.byz_transform(id, message) else { return };
                let message = self.maybe_corrupt_chunk(message);
                let (departed, delay) = self.depart(id, from, &message, true);
                let probe = self.probe(id);
                probe.wire_sent(&message, 1);
                let ctx = probe.send_span(&message, to, Some(departed), &handling);
                self.route_deliver(departed, id, to, delay, Arc::new(message), ctx);
            }
            Action::Broadcast(peers, message) => {
                // An equivocating leader forks its proposals: conflicting
                // batch to one half of the peers, the original to the rest —
                // WRITE votes split and neither digest reaches quorum.
                let equivocates = self
                    .faults
                    .as_ref()
                    .is_some_and(|p| p.byz_mode(id) == Some(ByzMode::Equivocate));
                if equivocates {
                    if let Message::Consensus {
                        from: sender,
                        msg: ConsensusMsg::Propose { view, seq, batch },
                    } = &*message
                    {
                        let plan = self.faults.as_mut().expect("checked");
                        let forked = Arc::new(Message::Consensus {
                            from: *sender,
                            msg: ConsensusMsg::Propose {
                                view: *view,
                                seq: *seq,
                                batch: plan.equivocate_batch(batch),
                            },
                        });
                        let split = peers.len().div_ceil(2);
                        let (fork_side, true_side) = peers.split_at(split);
                        let (fork_side, true_side) = (fork_side.to_vec(), true_side.to_vec());
                        self.broadcast_now(id, from, fork_side, forked, handling);
                        self.broadcast_now(id, from, true_side, message, handling);
                        return;
                    }
                }
                // Only Byzantine senders pay the deep clone; the honest
                // path keeps the zero-copy shared Arc.
                let is_byz = self.faults.as_ref().is_some_and(|p| p.byz_mode(id).is_some());
                let message = if is_byz {
                    match self.byz_transform(id, (*message).clone()) {
                        Some(m) => Arc::new(m),
                        None => return,
                    }
                } else {
                    message
                };
                self.broadcast_now(id, from, peers, message, handling);
            }
            Action::SendClient(client, reply) => {
                let node = self.nodes.get_mut(&id.0).expect("sender exists");
                let cost = send_cost(node, Outbound::Client(&reply));
                let departed = node.station.submit(from, cost);
                let delay = self.cfg.network.delay(48 + reply.result.len());
                self.profile_charge(id.0, "send", "REPLY", cost);
                self.queue.schedule_at(departed + delay, Ev::DeliverClient(client, reply));
            }
            Action::SetTimer(timer, hint_ms) => {
                let node = self.nodes.get_mut(&id.0).expect("node exists");
                let gen = node.timer_gen.entry(timer).or_insert(0);
                *gen += 1;
                let gen = *gen;
                self.queue.schedule_at(from + hint_ms * MS, Ev::Timer(id, timer, gen));
            }
            Action::CancelTimer(timer) => {
                let node = self.nodes.get_mut(&id.0).expect("node exists");
                *node.timer_gen.entry(timer).or_insert(0) += 1;
            }
            Action::Executed(..) => {}
            Action::EpochChanged(membership) => {
                if let Some(obs) = &self.obs {
                    obs.bundle.tracer.event(
                        "sim.epoch_change",
                        vec![
                            ("at_us", from.into()),
                            ("replica", id.0.into()),
                            ("epoch", membership.epoch.0.into()),
                            ("n", membership.n().into()),
                        ],
                    );
                }
                self.epoch_changes.push((from, membership));
            }
            Action::Retired => {}
            Action::StateTransferred(seq) => {
                if let Some(obs) = &self.obs {
                    obs.bundle.tracer.event(
                        "sim.state_transfer",
                        vec![
                            ("at_us", from.into()),
                            ("replica", id.0.into()),
                            ("seq", seq.0.into()),
                        ],
                    );
                }
                self.transfers.push((from, id));
            }
        }
    }

    /// Access to a node's replica (panics if absent).
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn replica(&self, id: ReplicaId) -> &Replica<Box<dyn Service>> {
        &self.nodes[&id.0].replica
    }

    /// Whether the node exists and is powered + ready.
    pub fn node_ready(&self, id: ReplicaId) -> bool {
        self.nodes.get(&id.0).is_some_and(|n| n.powered && n.ready)
    }
}

/// What leaves a node: a protocol message — with the number of unicast
/// copies that split one checkpoint's snapshot stall — or a client reply.
enum Outbound<'a> {
    Peer(&'a Message, u64),
    Client(&'a Reply),
}

/// Station time `node` pays to send one message: half a message-handling
/// unit plus the payload's serialization work. A checkpoint serializes the
/// service snapshot, which stalls the service (the §7.3 checkpoint dips):
/// `cores ×` the snapshot cost, so every core is busy for the serialization
/// period. A CST chunk costs the donor proportional snapshot bandwidth
/// (chunking spreads the old full-snapshot stall across the transfer), and
/// large replies cost proportionally to serialize/transmit.
fn send_cost(node: &Node, outbound: Outbound<'_>) -> Micros {
    let p = &node.profile;
    let serialize = match outbound {
        Outbound::Peer(Message::Checkpoint { .. }, share) => {
            let state = node.replica.service().state_size();
            snapshot_cost(p.snapshot_mb_s, state) * p.cores as u64 / share
        }
        Outbound::Peer(Message::CstChunkReply { data, .. }, _) => {
            snapshot_cost(p.snapshot_mb_s, data.len())
        }
        Outbound::Peer(..) => 0,
        Outbound::Client(reply) => reply.result.len() as u64 * p.per_kb_us / 2048,
    };
    p.per_msg_us / 2 + serialize
}

/// CPU time to serialize/install `bytes` of state at `mb_s` MB/s.
fn snapshot_cost(mb_s: u64, bytes: usize) -> Micros {
    (bytes as u64).saturating_mul(1) / mb_s.max(1) // bytes / (MB/s) = µs
}

/// What a payload-corrupting Byzantine sender does to each message class.
/// Tags are deliberately left stale — the point is that every receiver-side
/// MAC/digest check must catch the tampering and count a rejection:
///
/// * requests / proposed batches → flipped payload, tag now invalid;
/// * WRITE / ACCEPT / checkpoint digests → votes for a value nobody
///   proposed (they pile up below quorum, harmlessly);
/// * CST chunk replies → bytes that no longer match the manifest's
///   per-chunk digest.
///
/// View-change and CST-request messages pass through: they carry no
/// payload whose corruption the receiver could distinguish from a
/// legitimate (if useless) message.
fn corrupt_message(plan: &mut FaultPlan, message: Message) -> Message {
    match message {
        Message::Request(mut request) => {
            request.payload = Bytes::from(plan.corrupt_bytes(&request.payload));
            Message::Request(request)
        }
        Message::Consensus { from, msg: ConsensusMsg::Propose { view, seq, batch } } => {
            let mut requests = batch.requests().to_vec();
            if let Some(first) = requests.first_mut() {
                first.payload = Bytes::from(plan.corrupt_bytes(&first.payload));
            }
            Message::Consensus {
                from,
                msg: ConsensusMsg::Propose { view, seq, batch: Batch::new(requests) },
            }
        }
        Message::Consensus { from, msg: ConsensusMsg::Write { view, seq, digest } } => {
            Message::Consensus {
                from,
                msg: ConsensusMsg::Write { view, seq, digest: plan.corrupt_digest(digest) },
            }
        }
        Message::Consensus { from, msg: ConsensusMsg::Accept { view, seq, digest } } => {
            Message::Consensus {
                from,
                msg: ConsensusMsg::Accept { view, seq, digest: plan.corrupt_digest(digest) },
            }
        }
        Message::Checkpoint { from, msg } => Message::Checkpoint {
            from,
            msg: CheckpointMsg { seq: msg.seq, digest: plan.corrupt_digest(msg.digest) },
        },
        Message::CstChunkReply { from, seq, index, data } => Message::CstChunkReply {
            from,
            seq,
            index,
            data: Bytes::from(plan.corrupt_bytes(&data)),
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oscatalog::PerfProfile;
    use lazarus_bft::service::CounterService;

    fn observed_run() -> (String, String) {
        let membership = Membership::new(Epoch(0), (0..4).map(ReplicaId).collect());
        let mut sim = SimCluster::new_observed(SimConfig::default());
        for r in 0..4 {
            sim.add_node(
                ReplicaId(r),
                PerfProfile::bare_metal(),
                membership.clone(),
                Box::new(CounterService::new()),
            );
        }
        sim.add_clients(1, 10, membership, |_| Bytes::new());
        sim.run_until(200 * MS);
        let obs = sim.obs().expect("observed");
        let traces: Vec<String> = obs.tracer.recent().iter().map(|e| e.render()).collect();
        (obs.registry.snapshot().to_prometheus(), traces.join("\n"))
    }

    fn traced_run() -> SimCluster {
        let membership = Membership::new(Epoch(0), (0..4).map(ReplicaId).collect());
        let mut sim = SimCluster::new_observed(SimConfig::default());
        sim.enable_flight(FlightRecorder::DEFAULT_CAPACITY);
        for r in 0..4 {
            sim.add_node(
                ReplicaId(r),
                PerfProfile::bare_metal(),
                membership.clone(),
                Box::new(CounterService::new()),
            );
        }
        sim.add_clients(1, 4, membership, |_| Bytes::new());
        sim.run_until(100 * MS);
        sim
    }

    #[test]
    fn clients_adopt_reconfigured_membership() {
        // initial_view 3 seats the leader at members[3]: r3 before the
        // rotation, but the *joiner* r4 once r1 is removed (members
        // [0,2,3,4]). Clients bootstrapped at epoch 0 never target r4 —
        // unless reply epochs steer them onto the reconfigured set, every
        // operation after the removal limps through the request watchdog.
        let membership = Membership::new(Epoch(0), (0..4).map(ReplicaId).collect());
        let cfg = SimConfig { initial_view: 3, ..SimConfig::default() };
        let mut sim = SimCluster::new(cfg);
        for r in 0..4 {
            sim.add_node(
                ReplicaId(r),
                PerfProfile::bare_metal(),
                membership.clone(),
                Box::new(CounterService::new()),
            );
        }
        sim.add_clients(1, 8, membership.clone(), |_| Bytes::new());
        let joined = membership.reconfigured(Some(ReplicaId(4)), None);
        let profile = PerfProfile { boot: 20 * MS, ..PerfProfile::bare_metal() };
        sim.boot_joiner_at(50 * MS, ReplicaId(4), profile, joined, Box::new(CounterService::new()));
        sim.inject_reconfig_at(300 * MS, Epoch(0), Some(ReplicaId(4)), None);
        sim.inject_reconfig_at(600 * MS, Epoch(1), None, Some(ReplicaId(1)));
        sim.run_until(1500 * MS);

        assert_eq!(sim.replica(ReplicaId(0)).membership().epoch, Epoch(2));
        assert_eq!(sim.replica(ReplicaId(0)).membership().leader(View(3)), ReplicaId(4));
        for state in sim.clients.values() {
            assert_eq!(
                state.client.membership().epoch,
                Epoch(2),
                "reply epochs moved the client onto the reconfigured set"
            );
        }
        let before = sim.metrics.throughput(100 * MS, 300 * MS);
        let after = sim.metrics.throughput(700 * MS, 1500 * MS);
        assert!(
            after > before * 0.3,
            "the fast path survives a leader seated at the new replica \
             (before {before:.0} ops/s, after {after:.0} ops/s)"
        );
    }

    #[test]
    fn flight_streams_are_deterministic_and_causally_complete() {
        let a = traced_run();
        let b = traced_run();
        let render = |sim: &SimCluster| {
            sim.flight_streams()
                .iter()
                .flat_map(|(_, evs)| evs.iter().map(|e| e.to_jsonl()))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(render(&a), render(&b), "same config → byte-identical streams");

        // Every recorded parent reference resolves to a recorded span: the
        // global DAG has no dangling edges.
        let streams = a.flight_streams();
        let spans: std::collections::HashSet<u64> =
            streams.iter().flat_map(|(_, evs)| evs.iter().map(|e| e.span_id)).collect();
        let mut checked = 0usize;
        for (_, evs) in &streams {
            for ev in evs {
                if ev.parent_id != 0 {
                    assert!(spans.contains(&ev.parent_id), "dangling parent: {}", ev.to_jsonl());
                    checked += 1;
                }
            }
        }
        assert!(checked > 100, "a healthy run links plenty of events ({checked})");
        // Sim-time stamps: station backlog may run slightly past the
        // horizon, but a wall-clock leak would stamp unix-epoch µs.
        assert!(streams.iter().all(|(_, evs)| evs.iter().all(|e| e.at_us < SEC)));
        // Replica protocol milestones and transport wire events share rings.
        let all: Vec<&FlightEvent> = streams.iter().flat_map(|(_, e)| e).collect();
        assert!(all.iter().any(|e| e.event == EventKind::Commit));
        assert!(all.iter().any(|e| e.event == EventKind::Recv && e.kind == "PROPOSE"));
    }

    #[test]
    fn observed_sim_is_deterministic_and_uses_sim_time() {
        let (snap_a, _) = observed_run();
        let (snap_b, _) = observed_run();
        assert_eq!(snap_a, snap_b, "same config → byte-identical snapshot");
        assert!(snap_a.contains("bft_wire_messages_total{kind=\"PROPOSE\"}"), "{snap_a}");
        assert!(snap_a.contains("sim_client_latency_us_count"), "{snap_a}");
        // Sim-time latencies are bounded by the virtual horizon — a
        // wall-clock leak would record microseconds-scale noise instead.
        let sim = {
            let membership = Membership::new(Epoch(0), (0..4).map(ReplicaId).collect());
            let mut sim = SimCluster::new_observed(SimConfig::default());
            for r in 0..4 {
                sim.add_node(
                    ReplicaId(r),
                    PerfProfile::bare_metal(),
                    membership.clone(),
                    Box::new(CounterService::new()),
                );
            }
            sim.add_clients(1, 10, membership, |_| Bytes::new());
            sim.run_until(200 * MS);
            sim
        };
        let snap = sim.obs().expect("observed").registry.snapshot();
        let (_, hist) = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "bft_commit_latency_us")
            .expect("commit latency recorded");
        assert!(hist.count > 0);
        assert!(hist.max <= 200 * MS, "latency {} exceeds the virtual horizon", hist.max);
    }
}
