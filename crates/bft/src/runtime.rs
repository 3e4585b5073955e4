//! A threaded wall-clock runtime for the replication library.
//!
//! The replica state machines are runtime-agnostic; this module gives them a
//! real execution environment: one OS thread per replica, crossbeam
//! channels as the network, and wall-clock timers derived from the replica's
//! `SetTimer` hints. It is the runtime used by the Criterion wall-clock
//! benchmarks and by embedders that want actual concurrency rather than
//! virtual time (the discrete-event simulator lives in `lazarus-testbed`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::Mutex;

use lazarus_obs::causal::{FlightRecorder, TraceCtx};
use lazarus_obs::profile::Profiler;
use lazarus_obs::{Gauge, HealthConfig, HealthTracker, Obs, WallClock};

use crate::client::Client;
use crate::messages::{Message, Reply};
use crate::obs::Instruments;
use crate::replica::{Action, Replica, ReplicaConfig, TimerId};
use crate::service::Service;
use crate::types::{ClientId, Epoch, Membership, ReplicaId};

enum Input {
    Msg(Arc<Message>, Option<TraceCtx>),
    Shutdown,
}

type ReplyRouter = Arc<Mutex<HashMap<ClientId, Sender<Reply>>>>;

/// A running cluster of replica threads.
pub struct ThreadCluster {
    inboxes: HashMap<u32, Sender<Input>>,
    membership: Membership,
    master_secret: Vec<u8>,
    router: ReplyRouter,
    handles: Vec<JoinHandle<()>>,
    running: Arc<AtomicBool>,
    /// Metrics, shared health tracker and shared profiler of an observed
    /// cluster.
    observed: Option<(Obs, HealthTracker, Profiler)>,
    flights: HashMap<u32, FlightRecorder>,
}

impl std::fmt::Debug for ThreadCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadCluster")
            .field("replicas", &self.inboxes.len())
            .field("running", &self.running.load(Ordering::Relaxed))
            .finish()
    }
}

impl ThreadCluster {
    /// Starts `n` replica threads running services from `make_service`.
    pub fn start<S, F>(n: u32, checkpoint_period: u64, make_service: F) -> ThreadCluster
    where
        S: Service + 'static,
        F: FnMut() -> S,
    {
        Self::start_inner(n, checkpoint_period, make_service, None)
    }

    /// As [`ThreadCluster::start`], with every replica instrumented against
    /// a fresh wall-clock [`Obs`] bundle (readable via
    /// [`ThreadCluster::obs`]).
    pub fn start_observed<S, F>(n: u32, checkpoint_period: u64, make_service: F) -> ThreadCluster
    where
        S: Service + 'static,
        F: FnMut() -> S,
    {
        let obs = Obs::new(Arc::new(WallClock::new()));
        Self::start_inner(n, checkpoint_period, make_service, Some(obs))
    }

    fn start_inner<S, F>(
        n: u32,
        checkpoint_period: u64,
        mut make_service: F,
        obs: Option<Obs>,
    ) -> ThreadCluster
    where
        S: Service + 'static,
        F: FnMut() -> S,
    {
        let membership = Membership::new(Epoch(0), (0..n).map(ReplicaId).collect());
        let master_secret = b"lazarus-deployment".to_vec();
        let router: ReplyRouter = Arc::new(Mutex::new(HashMap::new()));
        let running = Arc::new(AtomicBool::new(true));

        let mut inboxes = HashMap::new();
        let mut rxs = Vec::new();
        for id in 0..n {
            let (tx, rx) = channel::unbounded();
            inboxes.insert(id, tx);
            rxs.push(rx);
        }

        // One health tracker and one profiler shared across all replica
        // threads: producer hooks and frame charges commute under their
        // mutexes, and the per-replica root frames keep the threads' stacks
        // apart. Scores and scopes follow the bundle's wall clock —
        // best-effort telemetry, unlike the deterministic sim-time streams
        // the testbed produces.
        let observed = obs.map(|o| {
            let health = HealthTracker::new(HealthConfig::default(), &o);
            let profiler = Profiler::new(Arc::clone(o.clock()));
            (o, health, profiler)
        });
        let base = observed.as_ref().map_or_else(Instruments::new, |(o, h, p)| {
            Instruments::new().with_obs(o).with_health(h.clone()).with_profiler(p.clone())
        });
        let mut handles = Vec::new();
        let mut flights = HashMap::new();
        for (id, rx) in (0..n).zip(rxs) {
            let mut cfg = ReplicaConfig::new(ReplicaId(id), membership.clone());
            cfg.checkpoint_period = checkpoint_period;
            cfg.master_secret = master_secret.clone();
            cfg.request_timeout = 50; // ms, wall clock
            let (mut replica, initial_actions) = Replica::new(cfg, make_service());
            // Real inbox depth of this replica's channel, sampled on every
            // loop iteration (wall-clock telemetry; the deterministic
            // counterpart is the testbed's health-tick sampler).
            let inbox_gauge = observed.as_ref().map(|(o, ..)| {
                o.registry.gauge_with("lazarus_queue_inbox_depth", &[("replica", &id.to_string())])
            });
            // An observed cluster also records causal flight events, one
            // ring per replica.
            let mut probe = base.clone();
            if let Some((o, ..)) = &observed {
                let rec = FlightRecorder::new(
                    id,
                    FlightRecorder::DEFAULT_CAPACITY,
                    Arc::clone(o.clock()),
                );
                flights.insert(id, rec.clone());
                probe = probe.with_flight(rec);
            }
            replica.attach(probe);
            let peers = inboxes.clone();
            let router = Arc::clone(&router);
            let running = Arc::clone(&running);
            handles.push(std::thread::spawn(move || {
                replica_loop(replica, rx, peers, router, running, initial_actions, inbox_gauge);
            }));
        }

        ThreadCluster {
            inboxes,
            membership,
            master_secret,
            router,
            handles,
            running,
            observed,
            flights,
        }
    }

    /// The instrumentation bundle, when started via
    /// [`ThreadCluster::start_observed`].
    pub fn obs(&self) -> Option<&Obs> {
        self.observed.as_ref().map(|(obs, ..)| obs)
    }

    /// The shared health tracker, when started via
    /// [`ThreadCluster::start_observed`]. Call
    /// [`HealthTracker::snapshot`] to reduce the current windows.
    pub fn health(&self) -> Option<&HealthTracker> {
        self.observed.as_ref().map(|(_, health, _)| health)
    }

    /// The shared phase profiler, when started via
    /// [`ThreadCluster::start_observed`]. Snapshot it for a wall-clock
    /// phase profile of every replica thread.
    pub fn profiler(&self) -> Option<&Profiler> {
        self.observed.as_ref().map(|(.., profiler)| profiler)
    }

    /// Replica `id`'s flight recorder (shares the ring with the replica
    /// thread), when started via [`ThreadCluster::start_observed`].
    pub fn flight(&self, id: u32) -> Option<&FlightRecorder> {
        self.flights.get(&id)
    }

    /// The cluster membership (for external clients).
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Creates a blocking client handle.
    pub fn client(&self, id: u64) -> ThreadClient {
        let (tx, rx) = channel::unbounded();
        self.router.lock().insert(ClientId(id), tx);
        ThreadClient {
            client: Client::new(ClientId(id), self.membership.clone(), &self.master_secret),
            inboxes: self.inboxes.clone(),
            replies: rx,
        }
    }

    /// Stops every replica thread and joins them.
    pub fn shutdown(mut self) {
        self.running.store(false, Ordering::Relaxed);
        for tx in self.inboxes.values() {
            let _ = tx.send(Input::Shutdown);
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn replica_loop<S: Service>(
    mut replica: Replica<S>,
    rx: Receiver<Input>,
    peers: HashMap<u32, Sender<Input>>,
    router: ReplyRouter,
    running: Arc<AtomicBool>,
    initial_actions: Vec<Action>,
    inbox_gauge: Option<Gauge>,
) {
    // The host's copy of the replica's instrumentation: wire accounting
    // and send/recv/timer spans land in the same sinks as its milestones.
    let probe = replica.instruments().clone();
    let mut timers: HashMap<TimerId, Instant> = HashMap::new();
    // Each copy of a message gets its own wire span (distinct DAG edges).
    let post = |to: ReplicaId, message: Arc<Message>, handling: &TraceCtx| {
        let ctx = probe.send_span(&message, to, None, handling);
        if let Some(tx) = peers.get(&to.0) {
            let _ = tx.send(Input::Msg(message, ctx));
        }
    };
    let apply =
        |actions: Vec<Action>, timers: &mut HashMap<TimerId, Instant>, handling: TraceCtx| {
            for action in actions {
                match action {
                    Action::Send(to, message) => {
                        probe.wire_sent(&message, 1);
                        post(to, Arc::new(message), &handling);
                    }
                    Action::Broadcast(peers_list, message) => {
                        // One shared allocation fanned out to every peer inbox.
                        probe.wire_sent(&message, peers_list.len());
                        for to in peers_list {
                            post(to, Arc::clone(&message), &handling);
                        }
                    }
                    Action::SendClient(client, reply) => {
                        if let Some(tx) = router.lock().get(&client) {
                            let _ = tx.send(reply);
                        }
                    }
                    Action::SetTimer(timer, hint_ms) => {
                        timers.insert(timer, Instant::now() + Duration::from_millis(hint_ms));
                    }
                    Action::CancelTimer(timer) => {
                        timers.remove(&timer);
                    }
                    _ => {}
                }
            }
        };
    apply(initial_actions, &mut timers, TraceCtx::UNTRACED);

    while running.load(Ordering::Relaxed) {
        let next_deadline = timers.values().min().copied();
        let timeout = next_deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(50));
        match rx.recv_timeout(timeout) {
            Ok(Input::Msg(message, wire_ctx)) => {
                if let Some(gauge) = &inbox_gauge {
                    gauge.set(rx.len() as f64);
                }
                let ctx = probe.wire_received(&message, None, wire_ctx);
                let message = Arc::try_unwrap(message).unwrap_or_else(|shared| (*shared).clone());
                let actions = replica.on_message(message, ctx);
                apply(actions, &mut timers, ctx.handling());
            }
            Ok(Input::Shutdown) => break,
            Err(channel::RecvTimeoutError::Timeout) => {
                let now = Instant::now();
                let due: Vec<TimerId> =
                    timers.iter().filter(|(_, &d)| d <= now).map(|(&t, _)| t).collect();
                for timer in due {
                    timers.remove(&timer);
                    let ctx = probe.timer_fired();
                    let actions = replica.on_timer(timer, ctx);
                    apply(actions, &mut timers, ctx.handling());
                }
            }
            Err(channel::RecvTimeoutError::Disconnected) => break,
        }
    }
}

/// A blocking client over the threaded cluster.
#[derive(Debug)]
pub struct ThreadClient {
    client: Client,
    inboxes: HashMap<u32, Sender<Input>>,
    replies: Receiver<Reply>,
}

/// Error returned when an invocation does not complete in time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvokeTimeout;

impl std::fmt::Display for InvokeTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("operation timed out waiting for f+1 matching replies")
    }
}

impl std::error::Error for InvokeTimeout {}

impl ThreadClient {
    /// Invokes one operation and blocks until `f + 1` matching replies
    /// arrive (retransmitting every 500 ms).
    ///
    /// # Errors
    ///
    /// Returns [`InvokeTimeout`] after `timeout`.
    pub fn invoke(&mut self, payload: Bytes, timeout: Duration) -> Result<Bytes, InvokeTimeout> {
        let deadline = Instant::now() + timeout;
        for (to, message) in self.client.invoke(payload) {
            if let Some(tx) = self.inboxes.get(&to.0) {
                let _ = tx.send(Input::Msg(Arc::new(message), None));
            }
        }
        let mut next_retry = Instant::now() + Duration::from_millis(500);
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(InvokeTimeout);
            }
            let wait = next_retry.min(deadline).saturating_duration_since(now);
            match self.replies.recv_timeout(wait) {
                Ok(reply) => {
                    if let Some(done) = self.client.on_reply(reply) {
                        return Ok(done.result);
                    }
                }
                Err(channel::RecvTimeoutError::Timeout) => {
                    if Instant::now() >= next_retry {
                        for (to, message) in self.client.retransmit() {
                            if let Some(tx) = self.inboxes.get(&to.0) {
                                let _ = tx.send(Input::Msg(Arc::new(message), None));
                            }
                        }
                        next_retry = Instant::now() + Duration::from_millis(500);
                    }
                }
                Err(channel::RecvTimeoutError::Disconnected) => return Err(InvokeTimeout),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::CounterService;

    #[test]
    fn threaded_cluster_serves_operations() {
        let cluster = ThreadCluster::start(4, 10_000, CounterService::new);
        let mut client = cluster.client(1);
        for i in 0..20u32 {
            let payload = Bytes::copy_from_slice(&i.to_be_bytes());
            let reply = client.invoke(payload.clone(), Duration::from_secs(5)).expect("completes");
            assert_eq!(reply, payload);
        }
        cluster.shutdown();
    }

    #[test]
    fn concurrent_clients_make_progress() {
        let cluster = ThreadCluster::start(4, 10_000, CounterService::new);
        let mut joins = Vec::new();
        for c in 1..=4u64 {
            let mut client = cluster.client(c);
            joins.push(std::thread::spawn(move || {
                for i in 0..10u32 {
                    let payload = Bytes::from(format!("c{c}-{i}"));
                    let reply =
                        client.invoke(payload.clone(), Duration::from_secs(10)).expect("completes");
                    assert_eq!(reply, payload);
                }
            }));
        }
        for j in joins {
            j.join().expect("client thread");
        }
        cluster.shutdown();
    }

    #[test]
    fn observed_cluster_accounts_wire_traffic() {
        let cluster = ThreadCluster::start_observed(4, 10_000, CounterService::new);
        let mut client = cluster.client(1);
        for i in 0..5u32 {
            let payload = Bytes::copy_from_slice(&i.to_be_bytes());
            client.invoke(payload, Duration::from_secs(5)).expect("completes");
        }
        let snap = cluster.obs().expect("observed").registry.snapshot();
        let get = |name: &str| {
            snap.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(0)
        };
        assert!(get("bft_wire_messages_total{kind=\"PROPOSE\"}") >= 5);
        assert!(get("bft_wire_bytes_total{kind=\"WRITE\"}") > 0);
        // The client returns on f+1 matching replies, so stragglers may not
        // have decided every slot yet — a quorum has, though.
        assert!(get("bft_slots_decided_total") >= 5 * 3, "a quorum decides every slot");
        let (_, hist) = snap
            .histograms
            .iter()
            .find(|(n, _)| n == "bft_commit_latency_us")
            .expect("latency histogram registered");
        assert!(hist.count >= 5 * 3);
        cluster.shutdown();
    }

    #[test]
    fn observed_cluster_records_causal_flight_events() {
        use lazarus_obs::causal::{slot_trace_id, EventKind};
        let cluster = ThreadCluster::start_observed(4, 10_000, CounterService::new);
        let mut client = cluster.client(1);
        for i in 0..3u32 {
            let payload = Bytes::copy_from_slice(&i.to_be_bytes());
            client.invoke(payload, Duration::from_secs(5)).expect("completes");
        }
        // Collect every replica's stream; the wire spans recorded at a
        // sender must be the parents adopted by receivers.
        let mut spans = std::collections::HashSet::new();
        let mut events = Vec::new();
        for id in 0..4 {
            let flight = cluster.flight(id).expect("observed cluster records flight");
            for ev in flight.events() {
                spans.insert(ev.span_id);
                events.push(ev);
            }
        }
        cluster.shutdown();
        let recvs: Vec<_> =
            events.iter().filter(|e| e.event == EventKind::Recv && e.parent_id != 0).collect();
        assert!(!recvs.is_empty(), "replica-to-replica traffic records recv events");
        for recv in &recvs {
            assert!(spans.contains(&recv.parent_id), "recv parent is a recorded send span");
        }
        // Protocol milestones landed in the same streams, linked to slots.
        assert!(events
            .iter()
            .any(|e| e.event == EventKind::Commit && e.trace_id == slot_trace_id(1)));
    }

    #[test]
    fn shutdown_is_clean() {
        let cluster = ThreadCluster::start(4, 10_000, CounterService::new);
        cluster.shutdown(); // no hang, no panic
    }
}
