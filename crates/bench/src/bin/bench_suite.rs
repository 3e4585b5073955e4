//! The virtual-time benchmark runner. A preset is a table of workloads;
//! every workload is executed by the one cell function [`run_cell`] and
//! reported into one schema-versioned [`Suite`] that `perf_report` diffs
//! against a committed baseline:
//!
//! - `baseline` — echo hot path (two payload sizes), a client-population
//!   sweep, the consensus-window cells, a chunked CST join and a lite
//!   reconfiguration (`results/BENCH_baseline.json` is its `--smoke` run).
//! - `pipeline` — `window ∈ {1, 2, 4, 8}` × batch policy (fixed vs
//!   adaptive) on the echo hot path and YCSB 50/50; also writes
//!   `bench_pipeline_metrics.json` (under `$LAZARUS_METRICS_DIR` when set):
//!   the `echo_w4_adaptive` cell's observability snapshot plus one
//!   `pipeline_ops_s{workload,window,policy}` gauge per cell.
//! - `cst` — chunked state-transfer latency vs state size, a
//!   designee-rotation resume with zero re-fetched chunks, and journal
//!   recovery cost vs checkpoint size.
//!
//! Every metric in the JSON is virtual (sim time, or the journal's
//! byte-derived replay model), so the file is byte-identical across runs
//! and at any `LAZARUS_THREADS` setting. Wall-clock cost goes to stdout
//! only.
//!
//! Usage: `bench_suite <baseline|pipeline|cst> [--smoke] [out_path]`
//! (default `BENCH_<preset>.json`; `--smoke` shrinks client counts,
//! horizons and state sizes to the preset CI runs).
//!
//! With `LAZARUS_PROFILE_DIR=<dir>` set, the run also writes the
//! deterministic profiler outputs of its profiled workloads:
//! `profile.json` (sim-time frames), `profile.folded` (inferno-compatible
//! collapsed stacks), and `queues.jsonl` (queue samples, concatenated in
//! workload order).

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use lazarus_apps::kvs::KvsService;
use lazarus_apps::ycsb::{YcsbConfig, YcsbWorkload};
use lazarus_bench::perf::Suite;
use lazarus_bench::{write_artifact, write_metrics_json};
use lazarus_bft::batcher::BatchPolicy;
use lazarus_bft::crypto::{AuthTag, Digest};
use lazarus_bft::log::Checkpoint;
use lazarus_bft::messages::{Batch, Request};
use lazarus_bft::service::{BlobService, CounterService, Service};
use lazarus_bft::storage::{Journal, JournalConfig, Storage};
use lazarus_bft::types::{ClientId, Epoch, Membership, ReplicaId, SeqNo};
use lazarus_obs::{Profiler, QueueSample, Registry};
use lazarus_testbed::cluster::{SimCluster, SimConfig};
use lazarus_testbed::faults::FaultPlan;
use lazarus_testbed::oscatalog::PerfProfile;
use lazarus_testbed::sim::{Micros, MS, SEC};
use lazarus_testbed::LatencySummary;

/// The replica a join workload adds to the four initial ones.
const JOINER: ReplicaId = ReplicaId(4);

/// The replicated service of a workload and the requests its clients send.
#[derive(Clone, Copy)]
enum App {
    /// Echo service, `payload`-byte requests.
    Echo { payload: usize },
    /// Key-value store under the Figure 10 YCSB 50/50 mix.
    Ycsb,
    /// `state`-byte opaque service state on the initial replicas (a joiner
    /// starts empty), empty requests.
    Blob { state: usize },
}

impl App {
    fn label(self) -> &'static str {
        match self {
            App::Echo { .. } => "echo",
            App::Ycsb => "ycsb",
            App::Blob { .. } => "blob",
        }
    }

    fn service(self, seeded: bool) -> Box<dyn Service> {
        match self {
            App::Echo { .. } => Box::new(CounterService::new()),
            App::Ycsb => Box::new(KvsService::new()),
            App::Blob { state } => Box::new(BlobService::new(if seeded { state } else { 0 })),
        }
    }

    fn payload(self) -> Rc<dyn Fn(u64) -> Bytes> {
        match self {
            App::Echo { payload } => {
                let body = Bytes::from(vec![0u8; payload]);
                Rc::new(move |_| body.clone())
            }
            App::Ycsb => {
                let gen = RefCell::new(YcsbWorkload::new(YcsbConfig::fig10(), 7));
                Rc::new(move |_| gen.borrow_mut().next_op())
            }
            App::Blob { .. } => Rc::new(|_| Bytes::new()),
        }
    }
}

/// A fifth replica powered on mid-run; it chunk-fetches the service state
/// from the initial four.
#[derive(Clone, Copy)]
struct Joiner {
    /// Power-on time; the joiner is up `PerfProfile::fast_boot().boot`
    /// later.
    boot_at: Micros,
    /// `(down, up)`: power-pause the joiner mid-transfer, which makes the
    /// CST watchdog rotate the designee on restart.
    pause: Option<(Micros, Micros)>,
    /// Order the joiner into the membership this long after it is up.
    reconfig_after: Option<Micros>,
}

/// One row of a preset table.
struct Workload {
    /// Suite section the metrics land in.
    section: String,
    /// `Some(c)`: this row is one column of a section it shares with other
    /// rows, its keys prefixed `c_`.
    column: Option<String>,
    metrics: &'static [Metric],
    /// Charge the run to the shared profiler (root: [`Workload::name`]) and
    /// keep its queue samples for `queues.jsonl`.
    profiled: bool,
    cfg: SimConfig,
    /// Profile of the four initial replicas.
    replicas: PerfProfile,
    app: App,
    clients: usize,
    horizon: Micros,
    joiner: Option<Joiner>,
}

impl Workload {
    /// Four bare-metal replicas on the default [`SimConfig`], profiled,
    /// reported as its own section.
    fn new(
        section: &str,
        metrics: &'static [Metric],
        app: App,
        clients: usize,
        horizon: Micros,
    ) -> Workload {
        Workload {
            section: section.to_string(),
            column: None,
            metrics,
            profiled: true,
            cfg: SimConfig::default(),
            replicas: PerfProfile::bare_metal(),
            app,
            clients,
            horizon,
            joiner: None,
        }
    }

    fn name(&self) -> String {
        match &self.column {
            Some(column) => format!("{}_{column}", self.section),
            None => self.section.clone(),
        }
    }
}

/// What one executed workload observed.
struct Cell {
    /// Steady-state throughput (after a 1 s warm-up).
    throughput_ops_s: f64,
    latency: LatencySummary,
    queues: Vec<QueueSample>,
    registry: Registry,
    join: Option<Join>,
}

/// The joiner's side of a [`Cell`].
struct Join {
    /// Service state on the donors, and the chunk size it is fetched in.
    state_bytes: usize,
    chunk_bytes: usize,
    /// From joiner-up to state installed.
    transfer_us: Micros,
    done_at: Micros,
    chunks_fetched: u64,
    chunks_resumed: u64,
    chunks_rejected: u64,
    /// When the epoch change landed and the throughput after it — only for
    /// workloads that reconfigure.
    joined: Option<(Micros, f64)>,
}

impl Cell {
    fn peak(&self, f: fn(&QueueSample) -> u64) -> f64 {
        self.queues.iter().map(f).max().unwrap_or(0) as f64
    }

    fn join(&self) -> &Join {
        self.join.as_ref().expect("a join metric is reported by a workload with a joiner")
    }

    fn joined(&self) -> (Micros, f64) {
        self.join().joined.expect("a reconfig metric is reported by a workload that reconfigures")
    }
}

/// A reported number: its suite key and how to read it off a [`Cell`].
type Metric = (&'static str, fn(&Cell) -> f64);

const THROUGHPUT: Metric = ("throughput_ops_s", |c| c.throughput_ops_s);
const OPS_S: Metric = ("ops_s", |c| c.throughput_ops_s);
const P50: Metric = ("latency_p50_us", |c| c.latency.p50_us as f64);
const P99: Metric = ("latency_p99_us", |c| c.latency.p99_us as f64);
const P999: Metric = ("latency_p999_us", |c| c.latency.p999_us as f64);
const MAX: Metric = ("latency_max_us", |c| c.latency.max_us as f64);
const COMPLETED: Metric = ("completed_ops", |c| c.latency.count as f64);
const PEAK_INBOX: Metric = ("peak_inbox", |c| c.peak(|s| s.inbox));
const PEAK_PENDING: Metric = ("peak_pending", |c| c.peak(|s| s.pending));
const PEAK_GAP: Metric = ("peak_decided_gap", |c| c.peak(|s| s.decided_gap));
const PEAK_FILL: Metric = ("peak_batch_fill", |c| c.peak(|s| s.batch_fill));
const STATE_BYTES: Metric = ("state_bytes", |c| c.join().state_bytes as f64);
const CHUNK_BYTES: Metric = ("chunk_bytes", |c| c.join().chunk_bytes as f64);
const TRANSFER_US: Metric = ("transfer_us", |c| c.join().transfer_us as f64);
const CHUNKS: Metric = ("chunks", |c| c.join().chunks_fetched as f64);
const RESUMED: Metric = ("chunks_resumed", |c| c.join().chunks_resumed as f64);
const REJECTED: Metric = ("chunks_rejected", |c| c.join().chunks_rejected as f64);
const DONE_AT: Metric = ("done_at_us", |c| c.join().done_at as f64);
const JOINED_AT: Metric = ("joined_at_us", |c| c.joined().0 as f64);
const POST_JOIN: Metric = ("post_join_ops_s", |c| c.joined().1);

/// Client-visible numbers plus the backpressure envelope.
const ECHO: &[Metric] =
    &[THROUGHPUT, P50, P99, P999, MAX, COMPLETED, PEAK_INBOX, PEAK_PENDING, PEAK_GAP, PEAK_FILL];
const SWEEP: &[Metric] = &[OPS_S, PEAK_INBOX, PEAK_PENDING];
const WINDOW: &[Metric] = &[THROUGHPUT, P50, P99, COMPLETED];
const JOIN: &[Metric] = &[TRANSFER_US, CHUNKS, PEAK_INBOX, PEAK_PENDING, PEAK_GAP, PEAK_FILL];
const TRANSFER: &[Metric] = &[STATE_BYTES, CHUNK_BYTES, CHUNKS, TRANSFER_US];
const RESUME: &[Metric] = &[STATE_BYTES, CHUNK_BYTES, CHUNKS, RESUMED, REJECTED, DONE_AT];
const RECONFIG: &[Metric] =
    &[JOINED_AT, POST_JOIN, COMPLETED, PEAK_INBOX, PEAK_PENDING, PEAK_GAP, PEAK_FILL];

/// Executes one workload: four replicas, its closed-loop clients, and the
/// joiner with its pause and reconfiguration if it has one.
///
/// A transfer that does not fetch every chunk of the manifest exactly once —
/// a chunk re-fetched after a designee rotation included — fails the run,
/// and so does a pause that carries no chunk over.
fn run_cell(w: &Workload, profiler: &Profiler) -> Cell {
    let membership = Membership::new(Epoch(0), (0..4).map(ReplicaId).collect());
    let mut sim = SimCluster::new_observed(w.cfg.clone());
    if w.profiled {
        sim.attach_profiler(profiler.clone(), &w.name());
    }
    for r in 0..4 {
        sim.add_node(ReplicaId(r), w.replicas, membership.clone(), w.app.service(true));
    }
    let boot = PerfProfile::fast_boot();
    if let Some(j) = w.joiner {
        sim.boot_joiner_at(
            j.boot_at,
            JOINER,
            boot,
            membership.reconfigured(Some(JOINER), None),
            w.app.service(false),
        );
        if let Some((down, up)) = j.pause {
            sim.install_faults(FaultPlan::new(1).crash_restart(JOINER, down, up));
        }
        if let Some(after) = j.reconfig_after {
            sim.inject_reconfig_at(j.boot_at + boot.boot + after, Epoch(0), Some(JOINER), None);
        }
    }
    let payload = w.app.payload();
    sim.add_clients(1, w.clients, membership, move |op| payload(op));
    sim.run_until(w.horizon);

    let registry = sim.obs().expect("observed cluster").registry.clone();
    let state_bytes = match w.app {
        App::Blob { state } => state,
        App::Echo { .. } | App::Ycsb => 0,
    };
    let join = w.joiner.map(|j| {
        let snapshot = registry.snapshot();
        let counter =
            |name: &str| snapshot.counters.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v);
        let done_at = sim
            .transfers
            .iter()
            .find(|(_, r)| *r == JOINER)
            .map(|(t, _)| *t)
            .expect("the joiner's transfer completes");
        let join = Join {
            state_bytes,
            chunk_bytes: w.cfg.cst_chunk_bytes,
            transfer_us: done_at - (j.boot_at + boot.boot),
            done_at,
            chunks_fetched: counter("bft_cst_chunks_fetched_total"),
            chunks_resumed: counter("bft_cst_chunks_resumed_total"),
            chunks_rejected: counter("bft_cst_chunks_rejected_total"),
            joined: j.reconfig_after.map(|_| {
                let joined_at = sim
                    .epoch_changes
                    .iter()
                    .find(|(_, m)| m.epoch == Epoch(1))
                    .map(|(t, _)| *t)
                    .expect("reconfiguration lands");
                (joined_at, sim.metrics.throughput(joined_at, w.horizon))
            }),
        };
        // The manifest covers the blob plus its 8-byte length header. (A
        // joiner ordered into the membership later transfers a second time,
        // to catch up on the slots decided in between.)
        let manifest = ((state_bytes + 8) as u64).div_ceil(join.chunk_bytes as u64);
        if j.reconfig_after.is_none() {
            assert_eq!(join.chunks_fetched, manifest, "{}: a chunk fetched twice", w.name());
        }
        if j.pause.is_some() {
            assert!(join.chunks_resumed > 0, "{}: the pause lands mid-transfer", w.name());
        }
        join
    });
    Cell {
        throughput_ops_s: sim.metrics.throughput(SEC, w.horizon),
        latency: sim.metrics.summary().expect("closed-loop clients complete operations"),
        queues: sim.queue_samples().to_vec(),
        registry,
        join,
    }
}

/// The batch-capped window cell, shared by the `baseline` and `pipeline`
/// presets. `max_batch` is deliberately smaller than the client population:
/// a closed-loop load that fits in one batch hides the pipeline entirely
/// (window 1 already decides every pending op per round trip). Capping the
/// batch puts the cell in the regime the paper's pipelining argument is
/// about — more slots in flight, not bigger batches.
fn window_cell(smoke: bool, app: App, window: u64, policy: BatchPolicy) -> Workload {
    let (clients, max_batch, secs) = if smoke { (24, 8, 2) } else { (64, 16, 3) };
    Workload {
        profiled: false,
        cfg: SimConfig { window, batch_policy: policy, max_batch, ..SimConfig::default() },
        ..Workload::new(
            &format!("{}_w{window}_{}", app.label(), policy_name(policy)),
            WINDOW,
            app,
            clients,
            secs * SEC,
        )
    }
}

fn policy_name(policy: BatchPolicy) -> &'static str {
    match policy {
        BatchPolicy::Fixed => "fixed",
        BatchPolicy::Adaptive => "adaptive",
    }
}

/// The chunked-CST join cell, shared by the `baseline` and `cst` presets:
/// four donors seeded with `state` bytes, an empty joiner powered on at
/// 350 ms (and power-paused over `pause`), 64 KiB chunks so a multi-MB blob
/// becomes dozens of them.
fn transfer_cell(state: usize, pause: Option<(Micros, Micros)>) -> Workload {
    Workload {
        // Keeps the genesis checkpoint stable for the whole run, so an
        // interrupted transfer certifies the *same* manifest again and
        // resumes instead of starting over.
        cfg: SimConfig {
            cst_chunk_bytes: 64 * 1024,
            checkpoint_period: 100_000,
            ..SimConfig::default()
        },
        replicas: PerfProfile::fast_boot(),
        joiner: Some(Joiner { boot_at: 350 * MS, pause, reconfig_after: None }),
        ..Workload::new(
            &format!("transfer_{}k", state / 1024),
            TRANSFER,
            App::Blob { state },
            4,
            3 * SEC,
        )
    }
}

fn baseline(smoke: bool) -> Vec<Workload> {
    let (clients, secs) = if smoke { (8, 2) } else { (32, 3) };
    let sweep: &[usize] = if smoke { &[4, 16] } else { &[4, 16, 64] };
    let mut rows = vec![
        Workload::new("echo_0b", ECHO, App::Echo { payload: 0 }, clients, secs * SEC),
        Workload::new("echo_1k", ECHO, App::Echo { payload: 1024 }, clients, secs * SEC),
    ];
    // Throughput vs closed-loop client population, with the queue-depth
    // envelope at each level.
    rows.extend(sweep.iter().map(|&c| Workload {
        column: Some(format!("c{c}")),
        ..Workload::new("pipeline", SWEEP, App::Echo { payload: 0 }, c, secs * SEC)
    }));
    // One throughput per window depth, so `perf_report` catches a
    // pipelining regression, not just a hot-path one.
    rows.extend([1, 2, 4].map(|window| Workload {
        section: "pipeline".to_string(),
        column: Some(format!("w{window}")),
        metrics: &[OPS_S],
        ..window_cell(smoke, App::Echo { payload: 0 }, window, BatchPolicy::Adaptive)
    }));
    rows.push(Workload {
        section: "cst".to_string(),
        metrics: JOIN,
        ..transfer_cell(if smoke { 256 << 10 } else { 1 << 20 }, None)
    });
    // Lite reconfiguration (fig9-shaped): the joiner is added by epoch
    // change mid-run.
    rows.push(Workload {
        cfg: SimConfig { checkpoint_period: 100_000, ..SimConfig::default() },
        replicas: PerfProfile::fast_boot(),
        joiner: Some(Joiner { boot_at: SEC, pause: None, reconfig_after: Some(200 * MS) }),
        ..Workload::new("reconfig", RECONFIG, App::Blob { state: 64 << 10 }, 4, 4 * SEC)
    });
    rows
}

fn pipeline(smoke: bool) -> Vec<Workload> {
    let mut rows = Vec::new();
    for app in [App::Echo { payload: 0 }, App::Ycsb] {
        for window in [1, 2, 4, 8] {
            for policy in [BatchPolicy::Fixed, BatchPolicy::Adaptive] {
                rows.push(window_cell(smoke, app, window, policy));
            }
        }
    }
    rows
}

fn cst(smoke: bool) -> Vec<Workload> {
    let states: &[usize] = if smoke { &[256 << 10] } else { &[256 << 10, 1 << 20, 4 << 20] };
    let mut rows: Vec<Workload> = states.iter().map(|&s| transfer_cell(s, None)).collect();
    // Designee-rotation resume: slow donors spread the chunk replies over
    // hundreds of milliseconds, and the joiner is power-paused mid-stream.
    // On restart the CST watchdog rotates the designee, and the transfer
    // finishes by fetching only the still-missing chunks.
    rows.push(Workload {
        section: "resume_4096k".to_string(),
        metrics: RESUME,
        replicas: PerfProfile { snapshot_mb_s: 10, cores: 1, ..PerfProfile::fast_boot() },
        ..transfer_cell(4 << 20, Some((500 * MS, 700 * MS)))
    });
    rows
}

/// Journal recovery cost (the journal's byte-derived replay model): writes
/// a journal holding one `checkpoint_bytes` stable checkpoint plus 50
/// decided 1 KiB batches, reopens it, and reports the replay. A reopen that
/// does not replay all 51 records fails the run.
fn journal_workload(suite: &mut Suite, checkpoint_bytes: usize) {
    const BATCHES: u64 = 50;
    let dir = std::env::temp_dir()
        .join(format!("lazarus_bench_cst_{}_{checkpoint_bytes}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = || JournalConfig { fsync: false, ..JournalConfig::new(&dir) };
    let (mut journal, _) = Journal::open(cfg()).expect("fresh journal opens");
    let snapshot = Bytes::from(vec![0xAB; checkpoint_bytes]);
    let checkpoint = Checkpoint { seq: SeqNo(100), digest: Digest::of(&snapshot), snapshot };
    journal.commit_checkpoint(&checkpoint, &[]).expect("checkpoint persists");
    for i in 0..BATCHES {
        let request = Request {
            client: ClientId(1),
            op: i,
            payload: Bytes::from(vec![0u8; 1024]),
            tag: AuthTag([0u8; 32]),
        };
        journal.append_batch(SeqNo(101 + i), &Batch::new(vec![request])).expect("append persists");
    }
    drop(journal);
    let (_journal, recovered) = Journal::open(cfg()).expect("journal reopens");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(recovered.records, BATCHES + 1, "the reopen replays the checkpoint and every batch");

    let section = format!("journal_{}k", checkpoint_bytes / 1024);
    let metrics = [
        ("checkpoint_bytes", checkpoint_bytes as u64),
        ("bytes_scanned", recovered.bytes_scanned),
        ("records", recovered.records),
        ("recovery_virtual_us", recovered.virtual_recovery_us()),
    ];
    for (key, value) in metrics {
        suite.push(&section, key, value as f64);
    }
    println!("{section}: {metrics:?}");
}

/// The `pipeline` preset's metrics report: the representative cell's
/// registry plus one `pipeline_ops_s` gauge per cell.
fn write_pipeline_metrics(rows: &[Workload], cells: &[Cell]) {
    let at = rows.iter().position(|w| w.section == "echo_w4_adaptive").expect("cell in the grid");
    let registry = &cells[at].registry;
    for (w, cell) in rows.iter().zip(cells) {
        let labels = [
            ("workload", w.app.label()),
            ("window", &w.cfg.window.to_string()),
            ("policy", policy_name(w.cfg.batch_policy)),
        ];
        registry.gauge_with("pipeline_ops_s", &labels).set(cell.throughput_ops_s);
    }
    write_metrics_json("bench_pipeline", registry);
}

fn main() {
    const USAGE: &str = "usage: bench_suite <baseline|pipeline|cst> [--smoke] [out_path]";
    let mut smoke = false;
    let mut positional = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            other if !other.starts_with('-') => positional.push(other.to_string()),
            other => {
                eprintln!("unknown argument {other:?}; {USAGE}");
                std::process::exit(2);
            }
        }
    }
    let mut positional = positional.into_iter();
    let preset = positional.next().unwrap_or_default();
    let rows = match preset.as_str() {
        "baseline" => baseline(smoke),
        "pipeline" => pipeline(smoke),
        "cst" => cst(smoke),
        other => {
            eprintln!("unknown preset {other:?}; {USAGE}");
            std::process::exit(2);
        }
    };
    let out_path = positional.next().unwrap_or_else(|| format!("BENCH_{preset}.json"));
    println!("=== bench_suite {preset} ({}) ===", if smoke { "smoke" } else { "full" });

    let wall_start = std::time::Instant::now();
    let profiler = Profiler::unclocked();
    let mut suite = Suite::new();
    suite.push("meta", "smoke", if smoke { 1.0 } else { 0.0 });
    let mut cells = Vec::new();
    for w in &rows {
        let cell = run_cell(w, &profiler);
        let mut line = format!("{}:", w.name());
        for (key, read) in w.metrics {
            let key = w.column.as_ref().map_or(key.to_string(), |c| format!("{c}_{key}"));
            let value = read(&cell);
            suite.push(&w.section, &key, value);
            line.push_str(&format!(" {key}={value:.0}"));
        }
        println!("{line}");
        cells.push(cell);
    }
    match preset.as_str() {
        "pipeline" => write_pipeline_metrics(&rows, &cells),
        "cst" => {
            let checkpoints: &[usize] =
                if smoke { &[64 << 10] } else { &[64 << 10, 1 << 20, 4 << 20] };
            for &bytes in checkpoints {
                journal_workload(&mut suite, bytes);
            }
        }
        _ => {}
    }

    println!("wall {:.1}s", wall_start.elapsed().as_secs_f64());
    if let Ok(dir) = std::env::var("LAZARUS_PROFILE_DIR") {
        let dir = std::path::PathBuf::from(dir);
        let profile = profiler.snapshot();
        let queues: String = rows
            .iter()
            .zip(&cells)
            .filter(|(w, _)| w.profiled)
            .flat_map(|(_, cell)| &cell.queues)
            .map(|sample| sample.to_jsonl() + "\n")
            .collect();
        write_artifact(dir.join("profile.json"), &profile.deterministic_json());
        write_artifact(dir.join("profile.folded"), &profile.folded());
        write_artifact(dir.join("queues.jsonl"), &queues);
    }
    write_artifact(&out_path, &suite.to_json().to_json());
}
