//! The adapter to the system under test: the only file of the benchmark
//! that names items of the `lazarus_*` crates. A change that moves or
//! renames public API re-points this file and nothing else.
//!
//! It holds the single-threaded message pump over bare replicas, the
//! decorators that put spans around the public `Service` and `Storage`
//! traits, the signing of reconfiguration commands, the scaling of the
//! synthetic OSINT world, and thin drivers for the threaded runtime, the
//! nemesis harness and the controller. Only the public API of the crates is
//! used; every timing taken here is a wall-clock duration around a call
//! into one of their public functions.

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use bytes::Bytes;
pub use lazarus_osint::json;

use lazarus_apps::kvs::{KvsOp, KvsService};
use lazarus_apps::ycsb::{YcsbConfig, YcsbWorkload};
use lazarus_bft::batcher::{plan_take, BatchPolicy};
use lazarus_bft::client::Client;
use lazarus_bft::consensus::Instance;
use lazarus_bft::crypto::{hmac_sha256, sha256, Digest, Keyring, Principal};
use lazarus_bft::log::{Checkpoint, DecidedLog};
use lazarus_bft::messages::{envelope, Batch, Message, ReconfigCommand, Reply, Request};
use lazarus_bft::obs::JournalObs;
use lazarus_bft::replica::{Action, Ctx, Replica, ReplicaConfig, Status};
use lazarus_bft::runtime::{ThreadClient, ThreadCluster};
use lazarus_bft::service::{CounterService, Service};
use lazarus_bft::storage::{Journal, JournalConfig, Recovered, Storage};
use lazarus_bft::types::{ClientId, Epoch, Membership, ReplicaId, SeqNo, View};
use lazarus_core::controller::{Controller, ControllerConfig};
use lazarus_core::deploy_manager::DeployManager;
use lazarus_nlp::VulnClusters;
use lazarus_obs::{Obs, TraceCtx};
use lazarus_osint::catalog::{study_oses, OsVersion};
use lazarus_osint::datamgr::{DataManager, RetryPolicy};
use lazarus_osint::date::Date;
use lazarus_osint::feed::{NvdFeed, NvdItem};
use lazarus_osint::kb::KnowledgeBase;
use lazarus_osint::sources::{
    CveDetailsSource, DebianSource, ExploitDbSource, FreeBsdSource, MicrosoftSource, OracleSource,
    OsintSource, RedhatSource, UbuntuSource,
};
use lazarus_osint::synth::{SyntheticWorld, WorldConfig};
use lazarus_risk::algorithm::{MonitorOutcome, Reconfigurator, ReplicaSets};
use lazarus_risk::strategies::min_config_risk;
use lazarus_risk::{RiskOracle, ScoreParams};
use lazarus_testbed::cluster::{SimCluster, SimConfig, SIM_SECRET};
use lazarus_testbed::faults::InvariantChecker;
use lazarus_testbed::nemesis;
use lazarus_testbed::oscatalog::PerfProfile;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::Samples;
use crate::trace::{self, Tracer};

/// The deployment secret every replica, client and controller key derives
/// from (the default of `ReplicaConfig::new` and of the threaded runtime).
const SECRET: &[u8] = b"lazarus-deployment";

/// Every span of the single-threaded pump nests on one stack.
const PUMP_LANE: u32 = 0;

// ---------------------------------------------------------------------
// Decorators over the public Service and Storage traits
// ---------------------------------------------------------------------

/// A [`Service`] that records one span per call into the wrapped service.
pub struct TimedService<S> {
    inner: S,
    tracer: Tracer,
    lane: u32,
    who: u32,
}

impl<S: Service> Service for TimedService<S> {
    fn execute(&mut self, client: ClientId, payload: &[u8]) -> Bytes {
        let (t, lane, who) = (&self.tracer, self.lane, self.who);
        let inner = &mut self.inner;
        t.span(lane, "service.execute", who, client.0, || inner.execute(client, payload))
    }

    fn snapshot(&self) -> Bytes {
        self.tracer.span(self.lane, "service.snapshot", self.who, 0, || self.inner.snapshot())
    }

    fn install(&mut self, snapshot: &[u8]) {
        let (t, lane, who) = (&self.tracer, self.lane, self.who);
        let inner = &mut self.inner;
        t.span(lane, "service.install", who, 0, || inner.install(snapshot));
    }

    fn state_size(&self) -> usize {
        self.inner.state_size()
    }
}

/// A [`Storage`] that records one span per call into the wrapped backend
/// and counts the bytes each record frames to.
#[derive(Debug)]
struct TimedStorage {
    inner: Box<dyn Storage>,
    tracer: Tracer,
    who: u32,
    bytes: Arc<AtomicU64>,
}

/// Bytes of one batch record as the journal frames it (see the format in
/// the storage module's documentation: frame header, tag, slot, count, and
/// per request two ids, a length, the payload and a 32-byte tag).
fn batch_record_bytes(batch: &Batch) -> u64 {
    let requests: usize = batch.requests().iter().map(|r| 8 + 8 + 4 + r.payload.len() + 32).sum();
    (8 + 1 + 8 + 4 + requests) as u64
}

impl Storage for TimedStorage {
    fn append_batch(&mut self, seq: SeqNo, batch: &Batch) -> std::io::Result<()> {
        self.bytes.fetch_add(batch_record_bytes(batch), Ordering::Relaxed);
        let inner = &mut self.inner;
        self.tracer
            .span(PUMP_LANE, "storage.append", self.who, seq.0, || inner.append_batch(seq, batch))
    }

    fn commit_checkpoint(
        &mut self,
        checkpoint: &Checkpoint,
        suffix: &[(SeqNo, Batch)],
    ) -> std::io::Result<()> {
        let framed = (8 + 1 + 8 + 32 + 8 + checkpoint.snapshot.len()) as u64
            + suffix.iter().map(|(_, b)| batch_record_bytes(b)).sum::<u64>();
        self.bytes.fetch_add(framed, Ordering::Relaxed);
        let inner = &mut self.inner;
        self.tracer.span(PUMP_LANE, "storage.commit_checkpoint", self.who, checkpoint.seq.0, || {
            inner.commit_checkpoint(checkpoint, suffix)
        })
    }

    fn sync(&mut self) -> std::io::Result<()> {
        let inner = &mut self.inner;
        self.tracer.span(PUMP_LANE, "storage.sync", self.who, 0, || inner.sync())
    }
}

// ---------------------------------------------------------------------
// The threaded runtime (smr-threads-echo)
// ---------------------------------------------------------------------

/// A running 4-replica `ThreadCluster` of echo services, default
/// configuration (window 1, in-memory storage, no injected message delay).
pub struct EchoCluster(ThreadCluster);

/// A blocking closed-loop client of an [`EchoCluster`].
pub struct EchoClient(ThreadClient);

impl EchoCluster {
    /// Starts the cluster; given one tracer per replica, every replica's
    /// service is wrapped in a [`TimedService`] recording into its own (the
    /// replica threads then share no lock).
    pub fn start(tracers: Option<&[Tracer; 4]>) -> EchoCluster {
        let four = Membership::new(Epoch(0), (0..4).map(ReplicaId).collect());
        let period = ReplicaConfig::new(ReplicaId(0), four).checkpoint_period;
        EchoCluster(match tracers {
            None => ThreadCluster::start(4, period, CounterService::new),
            Some(tracers) => {
                let mut each = tracers.iter().zip(0..);
                ThreadCluster::start(4, period, || {
                    let (tracer, who) = each.next().expect("one service per replica");
                    TimedService {
                        inner: CounterService::new(),
                        tracer: tracer.clone(),
                        lane: who,
                        who,
                    }
                })
            }
        })
    }

    pub fn client(&self, id: u64) -> EchoClient {
        EchoClient(self.0.client(id))
    }

    /// Stops and joins every replica thread.
    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

impl EchoClient {
    /// Invokes one operation and waits for `f + 1` matching replies; `None`
    /// when it timed out.
    pub fn invoke(&mut self, payload: Bytes, timeout: Duration) -> Option<Bytes> {
        self.0.invoke(payload, timeout).ok()
    }
}

// ---------------------------------------------------------------------
// YCSB inputs
// ---------------------------------------------------------------------

/// Shape of the key-value workload.
#[derive(Debug, Clone)]
pub struct KvShape {
    /// Keys preloaded into every replica before the run.
    pub keys: u64,
    /// Bytes per value.
    pub value_size: usize,
}

/// `n` seeded YCSB operations (50 % reads, zipf 0.99) over the shape's key
/// space, encoded for the key-value service.
pub fn ycsb_ops(seed: u64, n: usize, shape: &KvShape) -> Vec<Bytes> {
    let cfg = YcsbConfig {
        read_ratio: 0.5,
        keys: shape.keys,
        value_size: shape.value_size,
        zipf_theta: 0.99,
    };
    let mut gen = YcsbWorkload::new(cfg, seed);
    (0..n).map(|_| gen.next_op()).collect()
}

/// The byte every preloaded value of key `k` is filled with; distinct from
/// the generator's put value for every key, so a read tells which it saw.
fn preload_fill(key: u64) -> u8 {
    (key % 0xAB) as u8
}

/// A key-value service preloaded with `shape.keys` keys.
fn preloaded_kvs(shape: &KvShape) -> KvsService {
    let mut kvs = KvsService::new();
    for k in 0..shape.keys {
        let op = KvsOp::Put {
            key: k.to_be_bytes().to_vec(),
            value: vec![preload_fill(k); shape.value_size],
        };
        kvs.execute(ClientId(0), &op.encode());
    }
    kvs
}

/// Whether `result` is a reply the key-value service can give to `op` in
/// some order of the workload's operations: a put replaces a preloaded key;
/// a get returns the key's preloaded value or the generator's put value.
fn kv_reply_ok(op: &[u8], result: &[u8], shape: &KvShape) -> bool {
    match KvsOp::decode(op) {
        Some(KvsOp::Put { .. }) => result == b"OK:replaced",
        Some(KvsOp::Get { key }) => {
            let Ok(k) = <[u8; 8]>::try_from(key.as_slice()) else { return false };
            let fill = preload_fill(u64::from_be_bytes(k));
            result.len() == shape.value_size
                && (result.iter().all(|&b| b == fill) || result.iter().all(|&b| b == 0xAB))
        }
        _ => false,
    }
}

/// Operations per second of one unreplicated key-value service executing
/// `ops` directly: the single-node baseline.
pub fn direct_exec_ops_per_s(ops: &[Bytes], shape: &KvShape) -> f64 {
    let mut kvs = preloaded_kvs(shape);
    let start = Instant::now();
    for op in ops {
        black_box(kvs.execute(ClientId(1), op));
    }
    ops.len() as f64 / start.elapsed().as_secs_f64()
}

// ---------------------------------------------------------------------
// The pump (smr-pump-*)
// ---------------------------------------------------------------------

/// Configuration of the pump's cluster.
#[derive(Debug, Clone)]
pub struct PumpConfig {
    pub clients: usize,
    pub window: u64,
    pub max_batch: usize,
    pub checkpoint_period: u64,
    pub shape: KvShape,
    /// Directory the replicas' journals live under (fsync on).
    pub dir: PathBuf,
}

/// Counters and latencies of the operations completed since the last
/// [`Pump::take_window`].
#[derive(Debug, Default, Clone)]
pub struct PumpWindow {
    pub completed: u64,
    pub failed: u64,
    /// Invoke to `f + 1` matching replies, per operation.
    pub latency: Samples,
    /// Messages delivered to replicas.
    pub msgs: u64,
    /// Their `Message::wire_size`.
    pub wire_bytes: u64,
    /// Batches the leader executed, and the requests in them.
    pub batches: u64,
    pub batch_ops: u64,
    /// `open_instances()` of the leader, summed over its deliveries.
    pub open_slots_sum: u64,
    pub leader_deliveries: u64,
}

impl PumpWindow {
    /// Adds another window's counters (not its latencies) to this one.
    pub fn add(&mut self, other: &PumpWindow) {
        self.completed += other.completed;
        self.failed += other.failed;
        self.msgs += other.msgs;
        self.wire_bytes += other.wire_bytes;
        self.batches += other.batches;
        self.batch_ops += other.batch_ops;
        self.open_slots_sum += other.open_slots_sum;
        self.leader_deliveries += other.leader_deliveries;
    }
}

/// Durations of one crash and journal recovery of a replica.
#[derive(Debug, Clone, Copy)]
pub struct Recovery {
    /// `Journal::open`: read and parse every segment.
    pub open: Duration,
    /// `Replica::recover`: install the checkpoint, replay the suffix.
    pub replay: Duration,
    pub bytes_scanned: u64,
}

/// Durations of one rotation: add a replica, transfer state, remove one.
#[derive(Debug, Clone, Copy)]
pub struct Rotation {
    /// Ordering the add command until every member is in the new epoch.
    pub add: Duration,
    /// Joiner boot until it reports `StateTransferred`.
    pub transfer: Duration,
    /// Ordering the remove command until the old replica is `Retired`.
    pub remove: Duration,
    pub chunks: u64,
    pub chunk_bytes: u64,
}

struct PumpClient {
    client: Client,
    payload: Bytes,
    started: Instant,
}

/// What the pump saw replicas report, for the phase drivers to wait on.
#[derive(Default)]
struct Seen {
    transferred: Vec<u32>,
    retired: Vec<u32>,
    epochs: BTreeMap<u32, u32>,
    chunks: u64,
    chunk_bytes: u64,
}

/// A single-threaded FIFO message pump over bare replicas of the key-value
/// service, each journaling to its own directory, driven by closed-loop
/// clients. No scheduler, no timers, no injected delay: the wall time of a
/// run is the processor time of the calls into replicas and clients plus
/// the pump's own bookkeeping.
pub struct Pump {
    cfg: PumpConfig,
    genesis: KvsService,
    replicas: BTreeMap<u32, Replica<Box<dyn Service>>>,
    membership: Membership,
    queue: VecDeque<(u32, Arc<Message>)>,
    clients: Vec<PumpClient>,
    ops: Vec<Bytes>,
    cursor: usize,
    to_issue: u64,
    next_replica: u32,
    keyring: Keyring,
    window: PumpWindow,
    /// Requests executed by each replica that has run since genesis without
    /// a recovery (whose replay would count its operations twice).
    executed: BTreeMap<u32, u64>,
    seen: Seen,
    tracer: Option<Tracer>,
    journal_obs: Obs,
    storage_bytes: Arc<AtomicU64>,
}

fn span_name(label: &str) -> &'static str {
    match label {
        "REQUEST" => "replica.request",
        "PROPOSE" => "replica.propose",
        "WRITE" => "replica.write",
        "ACCEPT" => "replica.accept",
        "CHECKPOINT" => "replica.checkpoint",
        "RECONFIG" => "replica.reconfig",
        l if l.starts_with("CST") => "replica.cst",
        _ => "replica.view_change",
    }
}

impl Pump {
    /// Preloads the key-value state, boots four journal-backed replicas on
    /// it and creates the clients. `ops` is the seeded operation pool the
    /// clients draw from in turn. This is the set-up of every pump workload.
    pub fn build(cfg: PumpConfig, ops: Vec<Bytes>, tracer: Option<Tracer>) -> Pump {
        let _ = std::fs::remove_dir_all(&cfg.dir);
        let genesis = preloaded_kvs(&cfg.shape);
        let membership = Membership::new(Epoch(0), (0..4).map(ReplicaId).collect());
        let clients = (0..cfg.clients)
            .map(|i| PumpClient {
                client: Client::new(ClientId(i as u64 + 1), membership.clone(), SECRET),
                payload: Bytes::new(),
                started: Instant::now(),
            })
            .collect();
        let mut pump = Pump {
            genesis,
            replicas: BTreeMap::new(),
            membership: membership.clone(),
            queue: VecDeque::new(),
            clients,
            ops,
            cursor: 0,
            to_issue: 0,
            next_replica: 4,
            keyring: Keyring::new(SECRET),
            window: PumpWindow::default(),
            executed: (0..4).map(|id| (id, 0)).collect(),
            seen: Seen::default(),
            journal_obs: if tracer.is_some() { Obs::unclocked() } else { Obs::noop() },
            tracer,
            storage_bytes: Arc::new(AtomicU64::new(0)),
            cfg,
        };
        for id in 0..4 {
            let service = pump.wrap_service(id, pump.genesis.clone());
            let storage = pump.open_storage(id).0;
            let (replica, actions) = Replica::with_storage(
                pump.replica_cfg(id, membership.clone(), false),
                service,
                storage,
            );
            pump.replicas.insert(id, replica);
            pump.absorb(id, actions);
        }
        pump
    }

    fn replica_cfg(&self, id: u32, membership: Membership, join: bool) -> ReplicaConfig {
        let mut cfg = ReplicaConfig::new(ReplicaId(id), membership);
        cfg.window = self.cfg.window;
        cfg.max_batch = self.cfg.max_batch;
        cfg.checkpoint_period = self.cfg.checkpoint_period;
        cfg.join = join;
        cfg
    }

    fn journal_dir(&self, id: u32) -> PathBuf {
        self.cfg.dir.join(format!("r{id}"))
    }

    /// Opens replica `id`'s journal (replaying what it holds) and wraps it
    /// for tracing.
    fn open_storage(&self, id: u32) -> (Box<dyn Storage>, Recovered) {
        // Segments larger than a snapshot: with the default 4 MiB a stable
        // checkpoint bigger than a segment rolls into a segment of its own,
        // the suffix re-persisted with it rolls into the next, and
        // compaction then keeps only that last one, deleting the checkpoint
        // (the recover workload's digest check caught it). Fsync stays on.
        let cfg =
            JournalConfig { segment_bytes: 64 << 20, ..JournalConfig::new(self.journal_dir(id)) };
        let (mut journal, recovered) = Journal::open(cfg)
            .expect("the journal directory under the output directory is writable");
        let storage: Box<dyn Storage> = match &self.tracer {
            None => Box::new(journal),
            Some(tracer) => {
                journal.attach_obs(JournalObs::new(&self.journal_obs));
                Box::new(TimedStorage {
                    inner: Box::new(journal),
                    tracer: tracer.clone(),
                    who: id,
                    bytes: Arc::clone(&self.storage_bytes),
                })
            }
        };
        (storage, recovered)
    }

    fn wrap_service(&self, id: u32, kvs: KvsService) -> Box<dyn Service> {
        match &self.tracer {
            None => Box::new(kvs),
            Some(tracer) => Box::new(TimedService {
                inner: kvs,
                tracer: tracer.clone(),
                lane: PUMP_LANE,
                who: id,
            }),
        }
    }

    /// Journal syncs so far (traced runs only: the journals' own
    /// `bft_journal_fsyncs_total` counter).
    pub fn fsyncs(&self) -> u64 {
        self.journal_obs.registry.counter("bft_journal_fsyncs_total").get()
    }

    /// Bytes the traced storage decorators framed so far.
    pub fn storage_bytes(&self) -> u64 {
        self.storage_bytes.load(Ordering::Relaxed)
    }

    fn leader(&self) -> u32 {
        self.membership.leader(View(0)).0
    }

    // -- message pump --------------------------------------------------

    /// Delivers queued messages in FIFO order until none remain.
    fn pump(&mut self) {
        while let Some((to, message)) = self.queue.pop_front() {
            let Some(replica) = self.replicas.get_mut(&to) else { continue };
            self.window.msgs += 1;
            self.window.wire_bytes += message.wire_size() as u64;
            let name = span_name(message.label());
            let slot = message.consensus_slot().map_or(0, |(_, seq)| seq.0);
            let message = Arc::try_unwrap(message).unwrap_or_else(|shared| (*shared).clone());
            if let Some(t) = &self.tracer {
                t.enter(PUMP_LANE, name, to, slot);
            }
            let actions = replica.on_message(message, Ctx::UNTRACED);
            if let Some(t) = &self.tracer {
                t.exit(PUMP_LANE);
                if to == self.membership.leader(View(0)).0 {
                    self.window.open_slots_sum += replica.open_instances() as u64;
                    self.window.leader_deliveries += 1;
                }
            }
            self.absorb(to, actions);
        }
    }

    fn absorb(&mut self, from: u32, actions: Vec<Action>) {
        if let Some(t) = &self.tracer {
            t.enter(PUMP_LANE, "harness.absorb", from, 0);
        }
        for action in actions {
            match action {
                Action::Send(to, message) => {
                    self.note_cst(&message);
                    self.queue.push_back((to.0, Arc::new(message)));
                }
                Action::Broadcast(peers, message) => {
                    for to in peers {
                        self.queue.push_back((to.0, Arc::clone(&message)));
                    }
                }
                Action::SendClient(client, reply) => self.on_reply(client, reply),
                Action::Executed(_, n) => {
                    if let Some(executed) = self.executed.get_mut(&from) {
                        *executed += n as u64;
                    }
                    if from == self.leader() {
                        self.window.batches += 1;
                        self.window.batch_ops += n as u64;
                    }
                }
                Action::EpochChanged(membership) => {
                    self.seen.epochs.insert(from, membership.epoch.0);
                    if membership.epoch > self.membership.epoch {
                        for c in &mut self.clients {
                            c.client.set_membership(membership.clone());
                        }
                        self.membership = membership;
                    }
                }
                Action::Retired => self.seen.retired.push(from),
                Action::StateTransferred(_) => self.seen.transferred.push(from),
                // No message is lost or delayed, so no timer ever matters.
                Action::SetTimer(..) | Action::CancelTimer(_) => {}
            }
        }
        if let Some(t) = &self.tracer {
            t.exit(PUMP_LANE);
        }
    }

    fn note_cst(&mut self, message: &Message) {
        if let Message::CstChunkReply { data, .. } = message {
            self.seen.chunks += 1;
            self.seen.chunk_bytes += data.len() as u64;
        }
    }

    fn on_reply(&mut self, client: ClientId, reply: Reply) {
        let i = (client.0 - 1) as usize;
        let Some(c) = self.clients.get_mut(i) else { return };
        let op = reply.op;
        let done = trace::span(self.tracer.as_ref(), "client.on_reply", i as u32, op, || {
            c.client.on_reply(reply)
        });
        let Some(done) = done else { return };
        self.window.latency.push(c.started.elapsed());
        self.window.completed += 1;
        if !kv_reply_ok(&c.payload, &done.result, &self.cfg.shape) {
            self.window.failed += 1;
        }
        if self.to_issue > 0 {
            self.invoke(i);
        }
    }

    fn invoke(&mut self, i: usize) {
        let payload = self.ops[self.cursor % self.ops.len()].clone();
        self.cursor += 1;
        self.to_issue -= 1;
        let c = &mut self.clients[i];
        c.payload = payload.clone();
        c.started = Instant::now();
        let messages = trace::span(
            self.tracer.as_ref(),
            "client.invoke",
            i as u32,
            self.cursor as u64,
            || c.client.invoke(payload),
        );
        for (to, message) in messages {
            self.queue.push_back((to.0, Arc::new(message)));
        }
    }

    /// Issues exactly `n` operations closed-loop (each client starts its
    /// next one when the previous completes) and runs to quiescence.
    /// Operations still outstanding then count as failed.
    pub fn run_ops(&mut self, n: u64) {
        self.to_issue = n;
        for i in 0..self.clients.len() {
            if self.to_issue > 0 && self.clients[i].client.can_invoke() {
                self.invoke(i);
            }
        }
        self.pump();
        let stuck: usize = self.clients.iter().map(|c| c.client.in_flight()).sum();
        self.window.failed += stuck as u64 + self.to_issue;
        self.to_issue = 0;
    }

    /// The counters and latencies gathered since the last call.
    pub fn take_window(&mut self) -> PumpWindow {
        std::mem::take(&mut self.window)
    }

    /// The last slot the leader decided.
    pub fn last_decided(&self) -> u64 {
        self.replicas[&self.leader()].last_decided().0
    }

    /// The slot of the leader's latest stable checkpoint.
    pub fn stable_checkpoint(&self) -> u64 {
        self.replicas[&self.leader()].decided_log().stable_checkpoint().seq.0
    }

    // -- checks ----------------------------------------------------------

    fn state_digest(replica: &Replica<Box<dyn Service>>) -> Digest {
        Digest::of(&replica.service().snapshot())
    }

    /// At quiescence: every replica is active, all agree on the last
    /// decided slot and on the digest of the service state, and each
    /// executed as many operations as clients completed in total.
    pub fn check_agreement(&self, completed_total: u64) -> Result<(), String> {
        if !self.queue.is_empty() {
            return Err("the pump is not quiescent".into());
        }
        let mut agreed: Option<(SeqNo, Digest)> = None;
        for (id, replica) in &self.replicas {
            if replica.status() != Status::Active {
                return Err(format!("replica {id} is {:?}", replica.status()));
            }
            if replica.decided_log().storage_errors() > 0 {
                return Err(format!("replica {id} lost journal writes"));
            }
            let state = (replica.last_decided(), Self::state_digest(replica));
            match &agreed {
                None => agreed = Some(state),
                Some(first) if *first != state => {
                    return Err(format!(
                        "replica {id} is at {} {} but another at {} {}",
                        state.0, state.1, first.0, first.1
                    ));
                }
                Some(_) => {}
            }
        }
        // Controller commands are ordered and executed too, one per epoch,
        // but completed by no client.
        let reconfigs = u64::from(self.membership.epoch.0);
        for (id, &executed) in &self.executed {
            if executed != completed_total + reconfigs {
                return Err(format!(
                    "replica {id} executed {executed} operations, clients completed {completed_total}"
                ));
            }
        }
        Ok(())
    }

    // -- restart -----------------------------------------------------------

    /// Drops replica `id` at quiescence, reopens its journal and recovers
    /// it, timing both steps; fails unless the recovered replica is active
    /// at its pre-crash slot with its pre-crash state digest.
    pub fn crash_and_recover(&mut self, id: u32) -> Result<Recovery, String> {
        let old = self.replicas.remove(&id).ok_or("no such replica")?;
        self.executed.remove(&id);
        let before = (old.last_decided(), Self::state_digest(&old));
        let cfg = self.replica_cfg(id, old.membership().clone(), false);
        drop(old);
        // A fresh service instance per boot, as a rebooted node would have.
        let service = self.wrap_service(id, self.genesis.clone());

        let start = Instant::now();
        let (storage, recovered) =
            trace::span(self.tracer.as_ref(), "storage.open_replay", id, 0, || {
                self.open_storage(id)
            });
        let open = start.elapsed();
        let bytes_scanned = recovered.bytes_scanned;
        let (replica, actions, _info) =
            trace::span(self.tracer.as_ref(), "replica.recover_replay", id, 0, || {
                Replica::recover(cfg, service, storage, recovered)
            });
        let replay = start.elapsed() - open;

        let after = (replica.last_decided(), Self::state_digest(&replica));
        let status = replica.status();
        self.replicas.insert(id, replica);
        self.absorb(id, actions);
        if status != Status::Active {
            return Err(format!("recovered replica {id} is {status:?}"));
        }
        if after != before {
            return Err(format!(
                "replica {id} recovered to {} {}, crashed at {} {}",
                after.0, after.1, before.0, before.1
            ));
        }
        Ok(Recovery { open, replay, bytes_scanned })
    }

    // -- rotation ----------------------------------------------------------

    fn inject_reconfig(&mut self, add: Option<ReplicaId>, remove: Option<ReplicaId>) {
        let epoch = self.membership.epoch;
        let tag = self
            .keyring
            .sign(Principal::Controller, &ReconfigCommand::auth_bytes(epoch, add, remove));
        let command = ReconfigCommand { epoch, add, remove, tag };
        let ids: Vec<u32> = self.replicas.keys().copied().collect();
        for id in ids {
            self.queue.push_back((id, Arc::new(Message::Reconfig(command.clone()))));
        }
    }

    /// One rotation at quiescence, the paper's add-then-remove: order the
    /// add of a new replica, boot it empty in joining mode so it fetches the
    /// state in chunks, then order the removal of the oldest non-leader.
    /// (The add is ordered first so that the joiner's transfer covers the
    /// slot that admits it; a joiner that transfers before that slot misses
    /// it, since it is broadcast to the old membership only.)
    pub fn rotate(&mut self) -> Result<Rotation, String> {
        let joiner = self.next_replica;
        self.next_replica += 1;
        let leader = self.leader();
        let leaving =
            *self.replicas.keys().find(|id| **id != leader).ok_or("no replica to remove")?;
        self.seen = Seen::default();
        let epoch = self.membership.epoch.0;

        let start = Instant::now();
        self.inject_reconfig(Some(ReplicaId(joiner)), None);
        self.pump();
        let add = start.elapsed();
        if self.replicas.keys().any(|id| self.seen.epochs.get(id) != Some(&(epoch + 1))) {
            return Err(format!("adding replica {joiner} did not reach every member"));
        }

        let service = self.wrap_service(joiner, KvsService::new());
        let storage = self.open_storage(joiner).0;
        let cfg = self.replica_cfg(joiner, self.membership.clone(), true);
        let (replica, actions) = Replica::with_storage(cfg, service, storage);
        self.replicas.insert(joiner, replica);
        self.absorb(joiner, actions);
        self.pump();
        let transfer = start.elapsed() - add;
        if !self.seen.transferred.contains(&joiner) {
            return Err(format!("joiner {joiner} did not finish its state transfer"));
        }

        self.inject_reconfig(None, Some(ReplicaId(leaving)));
        self.pump();
        let remove = start.elapsed() - add - transfer;
        let retired = self.replicas.get(&leaving).map(Replica::status);
        if !self.seen.retired.contains(&leaving) || retired != Some(Status::Retired) {
            return Err(format!("replica {leaving} was not retired: {retired:?}"));
        }
        self.replicas.remove(&leaving);
        self.executed.remove(&leaving);
        let _ = std::fs::remove_dir_all(self.journal_dir(leaving));

        let donor = Self::state_digest(&self.replicas[&leader]);
        let joined = &self.replicas[&joiner];
        if joined.status() != Status::Active || Self::state_digest(joined) != donor {
            return Err(format!("joiner {joiner} does not hold the donors' state"));
        }
        if self.membership.epoch.0 != epoch + 2 || self.membership.n() != 4 {
            return Err(format!("membership after rotation is {:?}", self.membership));
        }
        Ok(Rotation {
            add,
            transfer,
            remove,
            chunks: self.seen.chunks,
            chunk_bytes: self.seen.chunk_bytes,
        })
    }
}

impl Drop for Pump {
    fn drop(&mut self) {
        self.replicas.clear();
        let _ = std::fs::remove_dir_all(&self.cfg.dir);
    }
}

// ---------------------------------------------------------------------
// The isolated ledger: single layers at fixed iteration counts
// ---------------------------------------------------------------------

fn per_iter_ns(iters: u32, mut f: impl FnMut(u32)) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / f64::from(iters)
}

fn signed_request(keyring: &Keyring, client: u64, op: u64, payload: Bytes) -> Request {
    let tag = keyring
        .sign(Principal::Client(client), &Request::auth_bytes(ClientId(client), op, &payload));
    Request { client: ClientId(client), op, payload, tag }
}

/// Times single layers of the request path in isolation, each at a fixed
/// iteration count, and returns `(per-layer metric name, value)` pairs.
/// `dir` receives a scratch journal for the sync measurement.
pub fn ledger(dir: &Path) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let kib = vec![0x5Au8; 1024];
    let keyring = Keyring::new(SECRET);

    let mib = vec![0xC3u8; 1 << 20];
    let ns = per_iter_ns(32, |_| {
        black_box(sha256(black_box(&mib)));
    });
    out.push(("crypto.sha256_mb_per_s", 1e9 / ns * (mib.len() as f64 / 1e6)));

    let key = [7u8; 32];
    out.push((
        "crypto.hmac_1k_ns",
        per_iter_ns(20_000, |_| {
            black_box(hmac_sha256(black_box(&key), black_box(&kib)));
        }),
    ));
    out.push((
        "crypto.sign_verify_ns",
        per_iter_ns(10_000, |i| {
            let who = Principal::Client(u64::from(i % 64));
            let tag = keyring.sign(who, black_box(&kib));
            black_box(keyring.verify(who, &kib, &tag));
        }),
    ));

    let requests: Vec<Request> =
        (0..64).map(|c| signed_request(&keyring, c + 1, 1, Bytes::copy_from_slice(&kib))).collect();
    // A batch memoizes its digest, so every measured call gets a fresh one.
    let batches: Vec<Batch> = (0..200).map(|_| Batch::new(requests.clone())).collect();
    let mut fresh = batches.iter();
    out.push((
        "messages.batch_digest_us",
        per_iter_ns(200, |_| {
            black_box(fresh.next().expect("one batch per iteration").digest());
        }) / 1e3,
    ));

    let ctx = TraceCtx { trace_id: 1 << 40, parent_id: 17, span_id: 18 };
    out.push((
        "messages.envelope_ns",
        per_iter_ns(100_000, |_| {
            let frame = envelope::encode(Some(&ctx), black_box(&kib));
            black_box(envelope::decode(&frame));
        }),
    ));

    out.push((
        "batcher.plan_take_ns",
        per_iter_ns(1_000_000, |i| {
            let eligible = (i % 512) as usize;
            let policy = if i % 2 == 0 { BatchPolicy::Fixed } else { BatchPolicy::Adaptive };
            black_box(plan_take(policy, black_box(eligible), u64::from(i % 4) + 1, 64));
        }),
    ));

    let batch = Batch::new(requests);
    let digest = batch.digest();
    out.push((
        "consensus.vote_ns",
        per_iter_ns(20_000, |i| {
            let mut instance = Instance::new(SeqNo(u64::from(i) + 1), View(0));
            instance.set_proposal(View(0), batch.clone());
            for r in 0..4 {
                black_box(instance.on_write(ReplicaId(r), View(0), digest));
                black_box(instance.on_accept(ReplicaId(r), View(0), digest));
            }
        }) / 8.0,
    ));

    let mut log = DecidedLog::new(u64::MAX, Bytes::new());
    out.push((
        "log.append_ns",
        per_iter_ns(100_000, |i| {
            black_box(log.append(SeqNo(u64::from(i) + 1), batch.clone()));
        }),
    ));

    let _ = std::fs::remove_dir_all(dir);
    let (mut journal, _) =
        Journal::open(JournalConfig::new(dir)).expect("the scratch journal directory is writable");
    let mut sync = Duration::ZERO;
    for i in 0..40u64 {
        journal.append_batch(SeqNo(i + 1), &batch).expect("append to the scratch journal");
        let start = Instant::now();
        journal.sync().expect("sync the scratch journal");
        sync += start.elapsed();
    }
    out.push(("storage.sync_us", sync.as_secs_f64() * 1e6 / 40.0));
    drop(journal);
    let _ = std::fs::remove_dir_all(dir);
    out
}

// ---------------------------------------------------------------------
// The simulator (sim-nemesis)
// ---------------------------------------------------------------------

/// The nemesis harness's fault scenarios, in sweep order.
pub fn scenarios() -> &'static [&'static str] {
    nemesis::SCENARIOS
}

/// Virtual horizon of one scenario run, in virtual milliseconds.
pub fn scenario_virtual_ms() -> u64 {
    nemesis::HORIZON / 1000
}

/// What one scenario run under the invariant checker came to.
pub struct ScenarioRun {
    /// Safety held and clients completed operations after the heal.
    pub passed: bool,
    pub violations: Vec<String>,
    /// Client operations completed in virtual time.
    pub completed: u64,
    pub commits_checked: u64,
}

pub fn run_scenario(scenario: &str, seed: u64) -> ScenarioRun {
    let verdict = nemesis::run_scenario(scenario, seed);
    ScenarioRun {
        passed: verdict.passed(),
        completed: verdict.completed_total as u64,
        commits_checked: verdict.commits_checked,
        violations: verdict.violations,
    }
}

/// Virtual-time counts of one observed run of a scenario (exact per seed).
pub struct PlacedCounts {
    /// Virtual µs until the first client operation completes.
    pub first_commit_us: u64,
    pub view_changes: u64,
    pub chunks_fetched: u64,
}

pub fn run_scenario_placed(scenario: &str, seed: u64) -> PlacedCounts {
    let run = nemesis::run_scenario_placed(scenario, seed, 0);
    let counter =
        |name: &str| run.snapshot.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v);
    PlacedCounts {
        first_commit_us: run.first_commit_us.unwrap_or(0),
        view_changes: counter("bft_view_changes_total"),
        chunks_fetched: counter("bft_cst_chunks_fetched_total"),
    }
}

/// A fault-free simulated cluster in the pump's configuration: four
/// bare-metal nodes of the preloaded key-value service, closed-loop clients
/// drawing from the same operation pool, the default network model.
pub struct SimYcsb(SimCluster);

impl SimYcsb {
    pub fn build(cfg: &PumpConfig, ops: Vec<Bytes>) -> SimYcsb {
        let sim_cfg = SimConfig {
            window: cfg.window,
            max_batch: cfg.max_batch,
            checkpoint_period: cfg.checkpoint_period,
            ..SimConfig::default()
        };
        let mut sim = SimCluster::new(sim_cfg);
        sim.install_checker(InvariantChecker::new());
        let membership = Membership::new(Epoch(0), (0..4).map(ReplicaId).collect());
        let genesis = preloaded_kvs(&cfg.shape);
        for id in 0..4 {
            sim.add_node(
                ReplicaId(id),
                PerfProfile::bare_metal(),
                membership.clone(),
                Box::new(genesis.clone()),
            );
        }
        let (pool, cursor) = (Rc::new(ops), Rc::new(Cell::new(0usize)));
        sim.add_clients(1, cfg.clients, membership, move |_| {
            let i = cursor.get();
            cursor.set(i + 1);
            pool[i % pool.len()].clone()
        });
        debug_assert_eq!(SIM_SECRET, SECRET);
        SimYcsb(sim)
    }

    /// Advances the simulation to `ms` virtual milliseconds.
    pub fn run_until_ms(&mut self, ms: u64) {
        self.0.run_until(ms * 1000);
    }

    /// Client operations completed so far, in virtual time.
    pub fn completed(&self) -> u64 {
        self.0.metrics.completed() as u64
    }

    /// Commits the invariant checker saw, or its violations.
    pub fn verdict(&self) -> Result<u64, String> {
        let checker = self.0.checker().expect("installed at build");
        if checker.ok() {
            Ok(checker.commits_checked())
        } else {
            Err(checker.violations().iter().map(|v| v.to_string()).collect::<Vec<_>>().join("; "))
        }
    }
}

// ---------------------------------------------------------------------
// The control plane (ctl-*)
// ---------------------------------------------------------------------

/// The day the controller bootstraps on; everything published before it is
/// the cold ingest, every day from it on is one monitoring round.
fn split_day() -> Date {
    Date::from_ymd(2018, 1, 1)
}

/// A generated OSINT world rendered as the documents a crawler would see.
pub struct World {
    start: Date,
    cold_feeds: Vec<String>,
    /// The first days from the split day on that publish anything, each
    /// with its delta feed.
    daily_feeds: Vec<(Date, String)>,
    exploitdb: ExploitDbSource,
    ubuntu: UbuntuSource,
    debian: DebianSource,
    redhat: RedhatSource,
    oracle: OracleSource,
    freebsd: FreeBsdSource,
    microsoft: MicrosoftSource,
    cvedetails: CveDetailsSource,
    pub cves: usize,
    pub cold_feed_bytes: usize,
}

impl World {
    /// Generates the paper's study world with the four campaign rates
    /// multiplied by `rate_scale`, and renders it: NVD JSON feeds per year
    /// for everything published before the split day, one delta feed for
    /// each of the first `days` days from it on that publish anything (a
    /// round on a quiet day skips the re-clustering and costs a tenth of the
    /// others, and how many there are varies from seed to seed), and the
    /// eight secondary sources' documents.
    pub fn generate(seed: u64, rate_scale: f64, cold_cves: usize, days: usize) -> World {
        let mut cfg = WorldConfig::paper_study(seed);
        cfg.kernel_rate *= rate_scale;
        cfg.family_rate *= rate_scale;
        cfg.package_rate *= rate_scale;
        cfg.app_rate *= rate_scale;
        let start = cfg.start;
        let mut world = SyntheticWorld::generate(cfg);

        // Worlds of one scale differ by a fifth in size from seed to seed,
        // and the controller's cost grows faster than the size; keep the
        // `cold_cves` most recent records before the split day so that every
        // seed gives the same amount of history.
        let split = split_day();
        let mut cold: Vec<Date> =
            world.vulnerabilities.iter().map(|v| v.published).filter(|d| *d < split).collect();
        cold.sort_unstable();
        if let Some(&cutoff) = cold.len().checked_sub(cold_cves).and_then(|i| cold.get(i)) {
            world.vulnerabilities.retain(|v| v.published >= cutoff);
        }

        let mut years: BTreeMap<i32, Vec<NvdItem>> = BTreeMap::new();
        let mut daily: BTreeMap<Date, Vec<NvdItem>> = BTreeMap::new();
        for v in &world.vulnerabilities {
            let item = NvdItem::from_vulnerability(v);
            if v.published < split {
                years.entry(v.published.year()).or_default().push(item);
            } else {
                daily.entry(v.published).or_default().push(item);
            }
        }
        let render = |items: Vec<NvdItem>| NvdFeed::from_items(items).to_json();
        let cold_feeds: Vec<String> = years.into_values().map(render).collect();
        let docs = world.vendor_documents();
        World {
            start,
            cold_feed_bytes: cold_feeds.iter().map(String::len).sum(),
            cold_feeds,
            daily_feeds: daily
                .into_iter()
                .take(days)
                .map(|(day, items)| (day, render(items)))
                .collect(),
            exploitdb: ExploitDbSource::new(world.exploitdb_document()),
            ubuntu: UbuntuSource::new(docs.ubuntu),
            debian: DebianSource::new(docs.debian),
            redhat: RedhatSource::new(docs.redhat),
            oracle: OracleSource::new(docs.oracle),
            freebsd: FreeBsdSource::new(docs.freebsd),
            microsoft: MicrosoftSource::new(docs.microsoft),
            cvedetails: CveDetailsSource::new(docs.cvedetails),
            cves: world.vulnerabilities.len(),
        }
    }

    pub fn days(&self) -> usize {
        self.daily_feeds.len()
    }

    /// Megabytes per second at which the cold feeds parse into feed
    /// documents (one pass).
    pub fn parse_mb_per_s(&self) -> f64 {
        let start = Instant::now();
        for feed in &self.cold_feeds {
            black_box(NvdFeed::parse(feed).expect("the rendered feed parses"));
        }
        self.cold_feed_bytes as f64 / 1e6 / start.elapsed().as_secs_f64()
    }

    fn sources(&self) -> Vec<&(dyn OsintSource + Sync)> {
        vec![
            &self.exploitdb,
            &self.ubuntu,
            &self.debian,
            &self.redhat,
            &self.oracle,
            &self.freebsd,
            &self.microsoft,
            &self.cvedetails,
        ]
    }
}

/// What one monitoring round decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundOutcome {
    /// 0 no change, 1 reconfigured, 2 exhausted.
    pub outcome: u8,
    pub alarms: u32,
    /// The active configuration is four distinct members of the universe.
    pub config_valid: bool,
}

/// A bootstrapped controller.
pub struct Ctl {
    controller: Controller,
    universe: usize,
}

impl Ctl {
    /// The cold start a controller pays at every restart: ingest every feed
    /// and source published before the split day into an empty knowledge
    /// base, then cluster, score and pick the initial configuration. Fails
    /// unless that configuration is valid with its risk within the
    /// threshold.
    pub fn bootstrap(world: &World, seed: u64, tracer: Option<&Tracer>) -> Result<Ctl, String> {
        let data = DataManager::new(KnowledgeBase::new());
        trace::span(tracer, "datamgr.sync_feeds", 0, 0, || data.sync_feeds(&world.cold_feeds))
            .map_err(|e| e.to_string())?;
        trace::span(tracer, "datamgr.sync_sources", 0, 0, || {
            data.sync_sources(&world.sources(), world.start)
        })
        .map_err(|e| e.to_string())?;
        let universe = study_oses();
        let mut ctl = Ctl {
            universe: universe.len(),
            controller: Controller::new(
                ControllerConfig { seed, ..ControllerConfig::new(universe) },
                data,
            ),
        };
        let report = trace::span(tracer, "controller.bootstrap", 0, 0, || {
            ctl.controller.bootstrap(split_day())
        });
        if !ctl.config_valid() {
            return Err("bootstrap chose an invalid configuration".into());
        }
        if report.config_risk > report.threshold {
            return Err(format!(
                "bootstrap risk {} above threshold {}",
                report.config_risk, report.threshold
            ));
        }
        Ok(ctl)
    }

    fn config_valid(&self) -> bool {
        self.controller.sets().is_some_and(|sets| {
            let mut config = sets.config.clone();
            config.sort_unstable();
            config.dedup();
            config.len() == 4 && config.iter().all(|&i| i < self.universe) && sets.is_partition()
        })
    }

    /// The round of the world's `day`-th publishing day: that day's delta
    /// feed in, the round report out.
    pub fn round(&mut self, world: &World, day: usize) -> RoundOutcome {
        let (today, feed) = &world.daily_feeds[day];
        let today = *today;
        let (report, _) =
            self.controller.sync_and_monitor(&[feed], &[], today - 1, RetryPolicy::none(), today);
        RoundOutcome {
            outcome: match report.outcome {
                MonitorOutcome::NoChange => 0,
                MonitorOutcome::Reconfigured { .. } => 1,
                MonitorOutcome::Exhausted => 2,
            },
            alarms: report.alarms.len() as u32,
            config_valid: self.config_valid(),
        }
    }

    /// Re-times the stages of a round standalone on the controller's
    /// current knowledge base, as of publishing day `day`, and returns
    /// `(per-layer metric name, value)` pairs.
    pub fn stage_ledger(&self, world: &World, day: usize) -> Vec<(&'static str, f64)> {
        fn ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
            let start = Instant::now();
            let out = f();
            (out, start.elapsed().as_secs_f64() * 1e3)
        }
        let (today, feed) = &world.daily_feeds[day];
        let today = *today;
        let universe = study_oses();
        let mut out = Vec::new();

        out.push(("feed.parse_mb_per_s", world.parse_mb_per_s()));

        let scratch = DataManager::new(KnowledgeBase::new());
        let (_, delta_ms) = ms(|| scratch.sync_feeds(&[feed]).map(|_| ()));
        self.controller.data().read(|kb| {
            let corpus: Vec<_> = kb.iter().cloned().collect();
            let (clusters, cluster_ms) = ms(|| VulnClusters::build(&corpus, 42 ^ 0xC1A5));
            out.push(("nlp.cluster_ms", cluster_ms));
            let (oracle, build_ms) =
                ms(|| RiskOracle::build(kb, &clusters, &universe, ScoreParams::paper()));
            out.push(("oracle.build_ms", build_ms));
            let (matrix, matrix_ms) = ms(|| oracle.matrix(today));
            out.push(("oracle.matrix_ms", matrix_ms));
            let (min, min_ms) = ms(|| min_config_risk(&matrix, 4));
            out.push(("strategies.min_config_risk_ms", min_ms));
            let sets = self.controller.sets().expect("bootstrapped");
            let mut rng = StdRng::seed_from_u64(day as u64);
            let (_, monitor_ms) = ms(|| {
                let mut sets: ReplicaSets = sets.clone();
                black_box(
                    Reconfigurator::with_threshold(min + 15.0)
                        .monitor(&mut sets, &matrix, &mut rng),
                );
            });
            out.push(("algorithm.monitor_us", monitor_ms * 1e3));
            out.push((
                "controller.stage_sum_ms",
                delta_ms + cluster_ms + build_ms + matrix_ms + min_ms + monitor_ms,
            ));
        });

        let oses: Vec<OsVersion> = self.controller.active_config();
        let spare = universe.iter().copied().find(|os| !oses.contains(os)).expect("21 > 4");
        let mut deploy = DeployManager::new(8);
        black_box(deploy.initial_deployment(&oses));
        let (_, plan_ms) = ms(|| black_box(deploy.swap(spare, oses[0])));
        out.push(("deploy.plan_us", plan_ms * 1e3));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ycsb_stream_repeats_per_seed() {
        let shape = KvShape { keys: 512, value_size: 64 };
        let a = ycsb_ops(9, 200, &shape);
        assert_eq!(a, ycsb_ops(9, 200, &shape));
        assert_ne!(a, ycsb_ops(10, 200, &shape));
        assert_eq!(a.len(), 200);
    }

    #[test]
    fn kv_reply_check_accepts_only_possible_replies() {
        let shape = KvShape { keys: 512, value_size: 4 };
        let put = KvsOp::Put { key: 7u64.to_be_bytes().to_vec(), value: vec![0xAB; 4] }.encode();
        let get = KvsOp::Get { key: 7u64.to_be_bytes().to_vec() }.encode();
        assert!(kv_reply_ok(&put, b"OK:replaced", &shape));
        assert!(!kv_reply_ok(&put, b"OK:new", &shape));
        assert!(kv_reply_ok(&get, &[7; 4], &shape));
        assert!(kv_reply_ok(&get, &[0xAB; 4], &shape));
        assert!(!kv_reply_ok(&get, &[8; 4], &shape));
        assert!(!kv_reply_ok(&get, b"ERR:not-found", &shape));
        assert!(!kv_reply_ok(b"", b"", &shape));
        // Replies of the real service to the real stream pass.
        let mut kvs = preloaded_kvs(&shape);
        for op in ycsb_ops(3, 300, &shape) {
            let reply = kvs.execute(ClientId(1), &op);
            assert!(kv_reply_ok(&op, &reply, &shape));
        }
    }

    #[test]
    fn pump_orders_recovers_and_rotates() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/tmp/sut-test-{}", std::process::id()));
        let shape = KvShape { keys: 256, value_size: 64 };
        let cfg = PumpConfig {
            clients: 8,
            window: 4,
            max_batch: 8,
            checkpoint_period: 16,
            shape: shape.clone(),
            dir,
        };
        let mut pump = Pump::build(cfg, ycsb_ops(1, 512, &shape), Some(Tracer::new()));
        pump.run_ops(400);
        let w = pump.take_window();
        assert_eq!((w.completed, w.failed), (400, 0));
        pump.check_agreement(400).expect("agreement after steady ops");
        let recovery = pump.crash_and_recover(3).expect("recovers");
        assert!(recovery.bytes_scanned > 0);
        pump.run_ops(100);
        let rotation = pump.rotate().expect("rotates");
        assert!(rotation.chunks > 0);
        pump.run_ops(100);
        let w = pump.take_window();
        assert_eq!((w.completed, w.failed), (200, 0));
        pump.check_agreement(600).expect("agreement after rotation");
    }
}
