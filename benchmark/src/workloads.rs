//! The seven workloads. Each builds its inputs from the seed, sets up three
//! times (reporting the median), warms up, measures for the time budget,
//! checks its outputs, and fills a [`RunResult`].
//!
//! A timed run records no spans. A traced run measures one slice with spans
//! around the calls into each layer and one reference slice without (a
//! quarter of the budget), and reports the per-layer metrics and the
//! difference between the two slices as the tracing overhead.
//!
//! The sandbox this runs in slows down by a quarter to a half for seconds at
//! a time, and never speeds up, so a measured window is cut into chunks and a
//! rate is the one of the chunk at the quiet quartile (a quarter of the chunks
//! ran faster): a disturbance that covers less than three quarters of a run
//! does not move it.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::report::{RunResult, PER_LAYER};
use crate::stats::{self, Samples, SplitMix};
use crate::sut::{self, Bytes};
use crate::trace::{self, Tracer};

/// What a run is asked to do.
#[derive(Debug, Clone)]
pub struct RunCtx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Every workload within two seconds, all checks on.
    pub smoke: bool,
    /// Where results and the Chrome trace land.
    pub out_dir: PathBuf,
    /// Where journals and scratch files live (inside the checkout).
    pub tmp_dir: PathBuf,
}

impl RunCtx {
    fn budget(&self) -> Duration {
        Duration::from_secs_f64(if self.smoke { self.seconds.min(1.0) } else { self.seconds })
    }

    fn scratch(&self, what: &str) -> PathBuf {
        self.tmp_dir.join(format!("{}-{}-{what}", self.workload, std::process::id()))
    }
}

/// Set-ups per run; the median is reported as `setup_s`.
const SETUPS: usize = 3;

/// Share of a traced run's budget spent on the untraced reference slice.
const REFERENCE_SHARE: f64 = 0.25;

// ---------------------------------------------------------------------
// Measured windows
// ---------------------------------------------------------------------

/// One slice of a measured window.
#[derive(Debug, Clone)]
struct Chunk {
    ops: u64,
    wall: Duration,
    /// CPU seconds of the whole process.
    cpu: f64,
    /// Chunks of one kind of work share a stratum (the steady pump's chunks
    /// that hold a checkpoint are one, the others another).
    stratum: u8,
    /// The chunk's own median and tail latency in ns, where latencies are
    /// taken per chunk.
    p50_ns: f64,
    tail_ns: f64,
}

/// The value the share `q` of `values` lie at or below (nearest rank). Of
/// costs per operation over chunks of equal work, the lower quartile is the
/// cost of a chunk the sandbox left alone.
fn quantile(values: impl Iterator<Item = f64>, q: f64) -> f64 {
    let mut sorted: Vec<f64> = values.collect();
    sorted.sort_by(f64::total_cmp);
    let rank = (sorted.len() as f64 * q).ceil() as usize;
    sorted.get(rank.saturating_sub(1)).copied().unwrap_or(0.0)
}

/// Chunks of equal work: the quiet quartile stands for all of them.
const QUIET: f64 = 0.25;
/// Chunks of unequal work (the days of a world, the scenarios of a pass):
/// a quartile would pick the easy ones, so the median stands for them.
const MIDDLE: f64 = 0.5;

/// How a window's latencies are taken.
#[derive(Debug, Clone, Copy)]
enum Tail {
    /// Each chunk has thousands of samples: its own median and this
    /// percentile are taken, and of those the quiet quartile over chunks.
    PerChunk(f64),
    /// The median and this percentile of all samples.
    Pooled(f64),
}

/// A measured window: its chunks and every latency sample.
#[derive(Debug, Clone)]
struct Window {
    chunks: Vec<Chunk>,
    latency: Samples,
    tail: Tail,
    /// Which chunk of a stratum stands for it: [`QUIET`] or [`MIDDLE`].
    typical: f64,
}

/// Cuts a window into chunks: each call to [`Lap::chunk`] closes the chunk
/// that began at the previous call.
struct Lap {
    at: Instant,
    cpu: f64,
}

impl Lap {
    fn start() -> Lap {
        Lap { at: Instant::now(), cpu: stats::cpu_time() }
    }

    /// Closes a chunk of `ops` operations; `latency`, when the window takes
    /// latencies per chunk, holds the chunk's samples and the tail percentile.
    fn chunk(&mut self, ops: u64, stratum: u8, latency: Option<(&mut Samples, f64)>) -> Chunk {
        let (now, cpu) = (Instant::now(), stats::cpu_time());
        let (p50_ns, tail_ns) = latency.map_or((0.0, 0.0), |(l, tail)| (l.p(50.0), l.p(tail)));
        let chunk =
            Chunk { ops, wall: now - self.at, cpu: cpu - self.cpu, stratum, p50_ns, tail_ns };
        (self.at, self.cpu) = (now, cpu);
        chunk
    }
}

impl Window {
    fn new(tail: Tail, typical: f64) -> Window {
        Window { chunks: Vec::new(), latency: Samples::default(), tail, typical }
    }

    fn ops(&self) -> u64 {
        self.chunks.iter().map(|c| c.ops).sum()
    }

    fn wall(&self) -> Duration {
        self.chunks.iter().map(|c| c.wall).sum()
    }

    /// Σ over strata of the stratum's operations times the typical chunk's
    /// `per_op`: what the window would have cost had every chunk gone like
    /// the typical one of its stratum.
    fn typical_total(&self, per_op: impl Fn(&Chunk) -> f64) -> f64 {
        let mut strata: Vec<u8> = self.chunks.iter().map(|c| c.stratum).collect();
        strata.sort_unstable();
        strata.dedup();
        strata
            .into_iter()
            .map(|s| {
                let of: Vec<&Chunk> =
                    self.chunks.iter().filter(|c| c.stratum == s && c.ops > 0).collect();
                quantile(of.iter().map(|c| per_op(c)), self.typical)
                    * of.iter().map(|c| c.ops).sum::<u64>() as f64
            })
            .sum()
    }

    /// Operations per second, from the typical chunk of each stratum.
    fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.typical_total(|c| c.wall.as_secs_f64() / c.ops as f64)
    }

    /// Process CPU microseconds per operation, likewise.
    fn cpu_us_per_op(&self) -> f64 {
        self.typical_total(|c| c.cpu / c.ops as f64) * 1e6 / self.ops().max(1) as f64
    }

    /// (median, tail) latency in microseconds.
    fn latency_us(&mut self) -> (f64, f64) {
        match self.tail {
            Tail::Pooled(p) => (self.latency.p(50.0) / 1e3, self.latency.p(p) / 1e3),
            Tail::PerChunk(_) => (
                quantile(self.chunks.iter().map(|c| c.p50_ns), self.typical) / 1e3,
                quantile(self.chunks.iter().map(|c| c.tail_ns), self.typical) / 1e3,
            ),
        }
    }

    fn fill(mut self, setup: &mut Samples, r: &mut RunResult) {
        r.metrics.insert("setup_s", setup.p(50.0) / 1e9);
        r.metrics.insert("ops_per_s", self.ops_per_s());
        let (p50, tail) = self.latency_us();
        r.metrics.insert("latency_p50_us", p50);
        r.metrics.insert("latency_tail_us", tail);
        r.metrics.insert("cpu_us_per_op", self.cpu_us_per_op());
        r.metrics.insert("peak_rss_mb", stats::peak_rss_mib());
        r.notes.push(format!(
            "{} ops in {:.3} s ({:.1} ops/s overall) in {} chunks; {} latency samples, {}; {} \
             set-ups",
            self.ops(),
            self.wall().as_secs_f64(),
            self.ops() as f64 / self.wall().as_secs_f64(),
            self.chunks.len(),
            self.latency.len(),
            match self.tail {
                Tail::Pooled(p) => format!("p50 and p{p} of all of them"),
                Tail::PerChunk(p) => format!("p50 and p{p} of the typical chunk"),
            },
            setup.len()
        ));
    }
}

/// Repeats `op` until `budget` is used (at least `least` times), `per_chunk`
/// operations to a chunk. `op` returns the operation's latency; an error
/// ends the loop and fails the run.
fn loop_window(
    budget: Duration,
    least: usize,
    per_chunk: u64,
    tail: Tail,
    r: &mut RunResult,
    mut op: impl FnMut(usize) -> Result<Duration, String>,
) -> Window {
    let mut window = Window::new(tail, QUIET);
    let start = Instant::now();
    let mut lap = Lap::start();
    let mut in_chunk = 0;
    while window.latency.len() < least || start.elapsed() < budget || in_chunk > 0 {
        r.attempted += 1;
        match op(window.latency.len()) {
            Ok(latency) => window.latency.push(latency),
            Err(e) => {
                r.failed += 1;
                r.errors.push(e);
                break;
            }
        }
        in_chunk += 1;
        if in_chunk == per_chunk {
            window.chunks.push(lap.chunk(in_chunk, 0, None));
            in_chunk = 0;
        }
    }
    window
}

/// Tracing overhead on the workload's primary metric: how much slower the
/// traced slice ran than the untraced reference slice, in percent.
fn overhead_pct(reference_rate: f64, traced_rate: f64) -> f64 {
    (reference_rate - traced_rate) / reference_rate * 100.0
}

fn mean_ns(tracer: &Tracer, name: &str) -> f64 {
    tracer.total(name).mean_ns()
}

fn write_trace(ctx: &RunCtx, tracer: &Tracer, r: &mut RunResult) {
    let path = ctx.out_dir.join(format!("{}-seed{}.trace.json", ctx.workload, ctx.seed));
    match std::fs::write(&path, tracer.chrome_json()) {
        Ok(()) => r.notes.push(format!(
            "{} spans recorded; Chrome trace in {}",
            tracer.closed(),
            path.display()
        )),
        Err(e) => r.errors.push(format!("writing {}: {e}", path.display())),
    }
}

pub fn run(ctx: &RunCtx) -> Result<RunResult, String> {
    let mut r = RunResult {
        workload: ctx.workload.clone(),
        seed: ctx.seed,
        traced: ctx.traced,
        ..Default::default()
    };
    match ctx.workload.as_str() {
        "smr-threads-echo" => echo(ctx, &mut r),
        "smr-pump-ycsb" => pump_ycsb(ctx, &mut r),
        "smr-pump-recover" => pump_recover(ctx, &mut r),
        "smr-pump-rotate" => pump_rotate(ctx, &mut r),
        "sim-nemesis" => sim_nemesis(ctx, &mut r),
        "ctl-rounds" => ctl_rounds(ctx, &mut r),
        "ctl-bootstrap" => ctl_bootstrap(ctx, &mut r),
        other => return Err(format!("unknown workload {other:?}")),
    }
    Ok(r)
}

// ---------------------------------------------------------------------
// smr-threads-echo
// ---------------------------------------------------------------------

const ECHO_CLIENTS: u64 = 2;
const ECHO_WARMUP_OPS: u64 = 2_000;
/// Length of one chunk of the echo window.
const ECHO_CHUNK: Duration = Duration::from_millis(500);

struct EchoPhase {
    setup: Duration,
    start: Duration,
    shutdown: Duration,
    window: Window,
    failed: u64,
    ctx_switches: u64,
    /// System share of the CPU time the measured window used.
    sys_share: f64,
}

/// Starts a cluster, warms it up, drives it closed-loop from two client
/// threads for `budget`, and shuts it down. Client `c`'s payloads are the
/// seeded 8-byte values of its own stream; every reply must echo them.
fn echo_phase(seed: u64, tracers: Option<&[Tracer; 4]>, budget: Duration) -> EchoPhase {
    let setup_start = Instant::now();
    let cluster = sut::EchoCluster::start(tracers);
    let start = setup_start.elapsed();
    let stop = AtomicBool::new(false);
    let go = std::sync::Barrier::new(ECHO_CLIENTS as usize + 1);
    let mut setup = Duration::ZERO;
    // Chunk boundaries with the process CPU time read at each.
    let mut laps: Vec<(Instant, f64)> = Vec::new();
    let (mut ctx_switches, mut sys_share) = (0, 0.0);

    // Per client: (completion instant, latency) of every measured operation.
    let per_client: Vec<(Vec<(Instant, Duration)>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ECHO_CLIENTS)
            .map(|c| {
                let mut client = cluster.client(c + 1);
                let (stop, go) = (&stop, &go);
                scope.spawn(move || {
                    let mut payloads = SplitMix(seed.wrapping_mul(ECHO_CLIENTS) + c);
                    let mut invoke = || {
                        let payload = Bytes::copy_from_slice(&payloads.next_u64().to_be_bytes());
                        let sent = Instant::now();
                        let reply = client.invoke(payload.clone(), Duration::from_secs(5));
                        (sent, reply.is_some_and(|r| r == payload))
                    };
                    let mut failed = 0;
                    for _ in 0..ECHO_WARMUP_OPS / ECHO_CLIENTS {
                        failed += u64::from(!invoke().1);
                    }
                    go.wait(); // warm-up done everywhere
                    go.wait(); // the measured window is open
                    let mut done = Vec::new();
                    while !stop.load(Ordering::Relaxed) {
                        let (sent, ok) = invoke();
                        let now = Instant::now();
                        done.push((now, now - sent));
                        failed += u64::from(!ok);
                    }
                    (done, failed)
                })
            })
            .collect();
        go.wait();
        setup = setup_start.elapsed();
        let before = (stats::context_switches(), stats::cpu_seconds());
        let opened = Instant::now();
        laps.push((opened, stats::cpu_time()));
        go.wait();
        while opened.elapsed() < budget {
            std::thread::sleep(ECHO_CHUNK.min(budget.saturating_sub(opened.elapsed())));
            laps.push((Instant::now(), stats::cpu_time()));
        }
        stop.store(true, Ordering::Relaxed);
        let out = handles.into_iter().map(|h| h.join().expect("client thread")).collect();
        ctx_switches = stats::context_switches() - before.0;
        let (user, system) = stats::cpu_seconds();
        sys_share = (system - before.1 .1) / ((user - before.1 .0) + (system - before.1 .1));
        out
    });
    let down = Instant::now();
    cluster.shutdown();
    let shutdown = down.elapsed();

    let mut window = Window::new(Tail::PerChunk(99.0), QUIET);
    let failed = per_client.iter().map(|(_, f)| f).sum();
    let mut done: Vec<(Instant, Duration)> = per_client.into_iter().flat_map(|(d, _)| d).collect();
    done.sort_unstable();
    let mut next = done.iter().peekable();
    for pair in laps.windows(2) {
        let ((from, cpu0), (to, cpu1)) = (pair[0], pair[1]);
        let mut chunk = Samples::default();
        while let Some((_, latency)) = next.next_if(|(at, _)| *at <= to) {
            chunk.push(*latency);
        }
        window.chunks.push(Chunk {
            ops: chunk.len() as u64,
            wall: to - from,
            cpu: cpu1 - cpu0,
            stratum: 0,
            p50_ns: chunk.p(50.0),
            tail_ns: chunk.p(99.0),
        });
        window.latency.extend(chunk);
    }
    EchoPhase { setup, start, shutdown, window, failed, ctx_switches, sys_share }
}

fn echo(ctx: &RunCtx, r: &mut RunResult) {
    r.notes.push(format!(
        "closed loop, {ECHO_CLIENTS} client threads, 4 replica threads, {} hardware threads; no \
         injected message delay, so latency is processor and scheduler time only",
        std::thread::available_parallelism().map_or(0, usize::from)
    ));
    let mut setups = Samples::default();
    if !ctx.traced {
        for _ in 1..SETUPS {
            setups.push(echo_phase(ctx.seed, None, Duration::ZERO).setup);
        }
        let phase = echo_phase(ctx.seed, None, ctx.budget());
        setups.push(phase.setup);
        r.attempted = phase.window.ops() + ECHO_WARMUP_OPS;
        r.failed = phase.failed;
        phase.window.fill(&mut setups, r);
        return;
    }
    // Throughput on two cores moves by a few percent from one cluster to the
    // next, so the untraced and traced slices alternate, twice each.
    let tracers = [Tracer::new(), Tracer::new(), Tracer::new(), Tracer::new()];
    let new = || Window::new(Tail::PerChunk(99.0), QUIET);
    let (mut reference, mut traced) = (new(), new());
    let (mut ctx_switches, mut last) = (0, (Duration::ZERO, Duration::ZERO, 0.0));
    for _ in 0..2 {
        let plain = echo_phase(ctx.seed, None, ctx.budget().mul_f64(REFERENCE_SHARE / 2.0));
        let phase = echo_phase(
            ctx.seed,
            Some(&tracers),
            ctx.budget().mul_f64((1.0 - REFERENCE_SHARE) / 2.0),
        );
        r.attempted += plain.window.ops() + phase.window.ops() + 2 * ECHO_WARMUP_OPS;
        r.failed += plain.failed + phase.failed;
        reference.chunks.extend(plain.window.chunks);
        traced.chunks.extend(phase.window.chunks);
        traced.latency.extend(phase.window.latency);
        ctx_switches += phase.ctx_switches;
        last = (phase.start, phase.shutdown, phase.sys_share);
    }
    let (start, shutdown, sys_share) = last;
    let tracer = Tracer::new();
    for t in &tracers {
        tracer.merge(t);
    }
    let m = &mut r.metrics;
    m.insert("service.execute_ns", mean_ns(&tracer, "service.execute"));
    m.insert("runtime.ctx_switches_per_op", ctx_switches as f64 / traced.ops().max(1) as f64);
    m.insert("runtime.sys_share", sys_share);
    m.insert("runtime.latency_p999_us", traced.latency.p(99.9) / 1e3);
    m.insert("runtime.start_ms", start.as_secs_f64() * 1e3);
    m.insert("runtime.shutdown_ms", shutdown.as_secs_f64() * 1e3);
    m.insert("trace.overhead_pct", overhead_pct(reference.ops_per_s(), traced.ops_per_s()));
    r.notes.push(format!(
        "traced slices {:.0} ops/s, untraced reference slices {:.0} ops/s; {:.1} CPU us/op",
        traced.ops_per_s(),
        reference.ops_per_s(),
        traced.cpu_us_per_op()
    ));
    write_trace(ctx, &tracer, r);
}

// ---------------------------------------------------------------------
// smr-pump-*
// ---------------------------------------------------------------------

/// Operations generated per run; clients draw from the pool in turn.
const OP_POOL: usize = 16_384;
/// Operations per call into the pump, and per chunk of its windows.
const CHUNK: u64 = 2_048;
/// Chunks of steady operations per second of budget. The steady phase is a
/// fixed amount of work, so that every run holds the same number of
/// checkpoints (each stalls the pump for most of a second); on the
/// reference machine it takes about the budget.
const CHUNKS_PER_SECOND: f64 = 2.5;
/// Slots between checkpoints in the steady workload: with batches of a
/// dozen requests, about as many operations as 256 full batches hold.
const STEADY_PERIOD: u64 = 1_024;
/// Slots between checkpoints where a journal is filled past a checkpoint
/// before the measured phase, which has to stay short.
const SHORT_PERIOD: u64 = 256;

fn pump_config(ctx: &RunCtx, what: &str, checkpoint_period: u64) -> sut::PumpConfig {
    let shape = if ctx.smoke {
        sut::KvShape { keys: 1_024, value_size: 1_024 }
    } else {
        sut::KvShape { keys: 16_384, value_size: 1_024 }
    };
    sut::PumpConfig {
        clients: 64,
        window: 4,
        max_batch: 64,
        checkpoint_period: if ctx.smoke { 32 } else { checkpoint_period },
        shape,
        dir: ctx.scratch(what),
    }
}

/// Generates the run's operations and builds the pump on them `n` times,
/// keeping the last.
fn pump_setups(
    ctx: &RunCtx,
    period: u64,
    tracer: Option<&Tracer>,
    setups: &mut Samples,
    n: usize,
) -> sut::Pump {
    let cfg = pump_config(ctx, "journal", period);
    let mut built = None;
    for _ in 0..n {
        drop(built.take()); // frees the journal directory for the next build
        let start = Instant::now();
        let ops = sut::ycsb_ops(ctx.seed, OP_POOL, &cfg.shape);
        built = Some(sut::Pump::build(cfg.clone(), ops, tracer.cloned()));
        setups.push(start.elapsed());
    }
    built.expect("at least one set-up")
}

fn pump_note(ctx: &RunCtx, period: u64, r: &mut RunResult) {
    let cfg = pump_config(ctx, "journal", period);
    r.notes.push(format!(
        "closed loop, {} clients, one pump thread; 4 replicas, window {}, batches of at most {}, \
         checkpoint every {} slots, {} keys x {} B preloaded, journals with fsync under {}; no \
         injected message delay",
        cfg.clients,
        cfg.window,
        cfg.max_batch,
        cfg.checkpoint_period,
        cfg.shape.keys,
        cfg.shape.value_size,
        ctx.tmp_dir.display()
    ));
}

/// Chunks of steady operations a budget of `seconds` buys.
fn steady_chunks(seconds: f64) -> u64 {
    ((seconds * CHUNKS_PER_SECOND) as u64).max(1)
}

struct Steady {
    window: Window,
    /// The pump's counters summed over the chunks.
    counters: sut::PumpWindow,
    /// Wall time of the first `mark` chunks.
    at_mark: Duration,
}

/// Runs `chunks` chunks of operations closed-loop. A chunk in which a
/// checkpoint became stable is a stratum of its own: it holds the snapshot,
/// its digest and the journal's compaction on every replica.
fn pump_steady(pump: &mut sut::Pump, chunks: u64, mark: u64) -> Steady {
    let mut steady = Steady {
        window: Window::new(Tail::PerChunk(99.0), QUIET),
        counters: sut::PumpWindow::default(),
        at_mark: Duration::ZERO,
    };
    pump.take_window();
    let mut lap = Lap::start();
    let start = Instant::now();
    for chunk in 1..=chunks {
        let stable = pump.stable_checkpoint();
        pump.run_ops(CHUNK);
        let mut w = pump.take_window();
        let stratum = u8::from(pump.stable_checkpoint() != stable);
        steady.window.chunks.push(lap.chunk(w.completed, stratum, Some((&mut w.latency, 99.0))));
        steady.counters.add(&w);
        steady.window.latency.extend(w.latency);
        if chunk == mark {
            steady.at_mark = start.elapsed();
        }
    }
    steady
}

/// One pump from set-up to checks: builds it `setups` times, warms it up,
/// runs `chunks` steady chunks (recording spans only during those) and
/// checks the replicas' agreement. Also returns the journal syncs and the
/// bytes the traced storage framed during the steady chunks.
fn ycsb_phase(
    ctx: &RunCtx,
    tracer: Option<&Tracer>,
    setups: (&mut Samples, usize),
    (chunks, mark): (u64, u64),
    r: &mut RunResult,
) -> (Steady, u64, u64) {
    let mut pump = pump_setups(ctx, STEADY_PERIOD, tracer, setups.0, setups.1);
    pump.run_ops(CHUNK); // warm-up
    let before = (pump.fsyncs(), pump.storage_bytes());
    tracer.inspect(|t| t.set_paused(false));
    let steady = pump_steady(&mut pump, chunks, mark);
    tracer.inspect(|t| t.set_paused(true));
    r.attempted += steady.counters.completed + steady.counters.failed;
    r.failed += steady.counters.failed;
    if let Err(e) = pump.check_agreement(CHUNK + steady.counters.completed) {
        r.errors.push(e);
    }
    (steady, pump.fsyncs() - before.0, pump.storage_bytes() - before.1)
}

fn pump_ycsb(ctx: &RunCtx, r: &mut RunResult) {
    pump_note(ctx, STEADY_PERIOD, r);
    let chunks = steady_chunks(ctx.budget().as_secs_f64());
    let mut setups = Samples::default();
    if !ctx.traced {
        let (steady, ..) = ycsb_phase(ctx, None, (&mut setups, SETUPS), (chunks, 0), r);
        let with_checkpoint = steady.window.chunks.iter().filter(|c| c.stratum == 1).count();
        r.notes.push(format!("{with_checkpoint} chunks held a checkpoint"));
        steady.window.fill(&mut setups, r);
        return;
    }

    let tracer = Tracer::new();
    tracer.set_paused(true);
    let ledger = sut::ledger(&ctx.scratch("ledger"));
    let reference_chunks = ((chunks as f64 * REFERENCE_SHARE) as u64).max(1);
    // The first pump of a process pays for growing the heap; build one to
    // throw away, and run the reference slice second.
    let (steady, fsyncs, bytes) =
        ycsb_phase(ctx, Some(&tracer), (&mut setups, 2), (chunks, reference_chunks), r);
    let (plain, ..) = ycsb_phase(ctx, None, (&mut setups, 1), (reference_chunks, 0), r);

    let w = &steady.counters;
    let wall = steady.window.wall().as_secs_f64();
    let ops = w.completed.max(1) as f64;
    let m = &mut r.metrics;
    for (name, value) in ledger {
        m.insert(name, value);
    }
    for (metric, span) in [
        ("client.invoke_ns", "client.invoke"),
        ("client.on_reply_ns", "client.on_reply"),
        ("replica.request_ns", "replica.request"),
        ("replica.propose_ns", "replica.propose"),
        ("replica.write_ns", "replica.write"),
        ("replica.accept_ns", "replica.accept"),
        ("service.execute_ns", "service.execute"),
    ] {
        m.insert(metric, mean_ns(&tracer, span));
    }
    m.insert("replica.checkpoint_us", mean_ns(&tracer, "replica.checkpoint") / 1e3);
    m.insert("service.snapshot_ms", mean_ns(&tracer, "service.snapshot") / 1e6);
    m.insert("storage.append_us", mean_ns(&tracer, "storage.append") / 1e3);
    m.insert("storage.commit_checkpoint_ms", mean_ns(&tracer, "storage.commit_checkpoint") / 1e6);
    let totals = tracer.totals();
    let self_of = |prefix: &str| -> f64 {
        totals.iter().filter(|(n, _)| n.starts_with(prefix)).map(|(_, t)| t.self_ns as f64).sum()
    };
    m.insert("replica.self_share", self_of("replica.") / 1e9 / wall);
    m.insert("pump.harness_share", self_of("harness.") / 1e9 / wall);
    m.insert("pump.residue_pct", (1.0 - tracer.covered().as_secs_f64() / wall) * 100.0);
    m.insert("storage.bytes_per_op", bytes as f64 / ops);
    m.insert("storage.syncs_per_kop", fsyncs as f64 / ops * 1e3);
    m.insert("replica.msgs_per_op", w.msgs as f64 / ops);
    m.insert("replica.wire_bytes_per_op", w.wire_bytes as f64 / ops);
    m.insert("batcher.ops_per_batch", w.batch_ops as f64 / w.batches.max(1) as f64);
    m.insert(
        "replica.open_slots_mean",
        w.open_slots_sum as f64 / w.leader_deliveries.max(1) as f64,
    );
    let cfg = pump_config(ctx, "journal", STEADY_PERIOD);
    let pool = sut::ycsb_ops(ctx.seed, OP_POOL, &cfg.shape);
    m.insert("baseline.direct_exec_ops_per_s", sut::direct_exec_ops_per_s(&pool, &cfg.shape));
    // The overhead is taken on the operations both slices ran.
    let both = plain.counters.completed as f64;
    let traced_rate = both / steady.at_mark.as_secs_f64();
    let plain_rate = both / plain.window.wall().as_secs_f64();
    m.insert("trace.overhead_pct", overhead_pct(plain_rate, traced_rate));
    r.notes.push(format!(
        "traced slice {:.0} ops/s over {} operations; over the first {both} of them \
         {traced_rate:.0} ops/s traced and {plain_rate:.0} ops/s untraced",
        steady.window.ops_per_s(),
        w.completed
    ));
    let mut shares: Vec<(&str, f64)> =
        totals.iter().map(|(n, t)| (*n, t.self_ns as f64 / 1e9 / wall * 100.0)).collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    let top: Vec<String> = shares.iter().take(8).map(|(n, s)| format!("{n} {s:.1}%")).collect();
    r.notes.push(format!("self time by span, share of wall: {}", top.join(", ")));
    write_trace(ctx, &tracer, r);
}

/// One pump from set-up to checks for the recover workload: fills the
/// journals until the leader is half a checkpoint period past its first
/// stable checkpoint (so a recovery installs a checkpoint and replays a
/// suffix), then crashes and recovers replica 3 until `budget` is used, two
/// recoveries to a chunk. Nothing is appended between two recoveries, so the
/// journal is the same every time. Afterwards the recovered replica must
/// still take part in ordering.
fn recover_phase(
    ctx: &RunCtx,
    tracer: Option<&Tracer>,
    setups: (&mut Samples, usize),
    budget: Duration,
    r: &mut RunResult,
) -> (Window, Vec<sut::Recovery>) {
    let period = pump_config(ctx, "journal", SHORT_PERIOD).checkpoint_period;
    let mut pump = pump_setups(ctx, SHORT_PERIOD, tracer, setups.0, setups.1);
    let mut issued = 0;
    while pump.last_decided() < period + period / 2 {
        pump.run_ops(256);
        issued += 256;
    }
    tracer.inspect(|t| t.set_paused(false));
    let mut all = Vec::new();
    let window = loop_window(budget, 4, 2, Tail::Pooled(75.0), r, |_| {
        let recovery = pump.crash_and_recover(3)?;
        all.push(recovery);
        Ok(recovery.open + recovery.replay)
    });
    tracer.inspect(|t| t.set_paused(true));
    pump.run_ops(256);
    if let Err(e) = pump.check_agreement(issued + 256) {
        r.errors.push(e);
    }
    (window, all)
}

fn pump_recover(ctx: &RunCtx, r: &mut RunResult) {
    pump_note(ctx, SHORT_PERIOD, r);
    let mut setups = Samples::default();
    if !ctx.traced {
        let (window, _) = recover_phase(ctx, None, (&mut setups, SETUPS), ctx.budget(), r);
        window.fill(&mut setups, r);
        return;
    }
    let reference = ctx.budget().mul_f64(REFERENCE_SHARE);
    let (plain, _) = recover_phase(ctx, None, (&mut setups, 1), reference, r);
    let tracer = Tracer::new();
    tracer.set_paused(true);
    let (window, recoveries) =
        recover_phase(ctx, Some(&tracer), (&mut setups, 1), ctx.budget() - reference, r);

    let n = recoveries.len().max(1) as f64;
    let open_s: f64 = recoveries.iter().map(|x| x.open.as_secs_f64()).sum();
    let replay_s: f64 = recoveries.iter().map(|x| x.replay.as_secs_f64()).sum();
    let scanned: u64 = recoveries.iter().map(|x| x.bytes_scanned).sum();
    let m = &mut r.metrics;
    m.insert("storage.open_replay_ms", open_s / n * 1e3);
    m.insert("storage.replay_mb_per_s", scanned as f64 / 1e6 / open_s);
    m.insert("replica.recover_replay_ms", replay_s / n * 1e3);
    m.insert("service.install_ms", mean_ns(&tracer, "service.install") / 1e6);
    m.insert("service.snapshot_ms", mean_ns(&tracer, "service.snapshot") / 1e6);
    m.insert("service.execute_ns", mean_ns(&tracer, "service.execute"));
    m.insert("trace.overhead_pct", overhead_pct(plain.ops_per_s(), window.ops_per_s()));
    r.notes.push(format!(
        "{} recoveries traced, {:.1} MB scanned each",
        recoveries.len(),
        scanned as f64 / n / 1e6
    ));
    write_trace(ctx, &tracer, r);
}

/// One pump from set-up to checks for the rotate workload: one chunk of
/// client operations, then rotations until `budget` is used, one to a chunk.
/// No client traffic runs between rotations, so each transfers the same
/// state. Afterwards the rotated membership must still order and execute
/// requests.
fn rotate_phase(
    ctx: &RunCtx,
    tracer: Option<&Tracer>,
    setups: (&mut Samples, usize),
    budget: Duration,
    r: &mut RunResult,
) -> (Window, Vec<sut::Rotation>) {
    let mut pump = pump_setups(ctx, SHORT_PERIOD, tracer, setups.0, setups.1);
    pump.run_ops(CHUNK);
    tracer.inspect(|t| t.set_paused(false));
    let mut all = Vec::new();
    let window = loop_window(budget, 3, 1, Tail::Pooled(75.0), r, |_| {
        let rotation = pump.rotate()?;
        all.push(rotation);
        Ok(rotation.add + rotation.transfer + rotation.remove)
    });
    tracer.inspect(|t| t.set_paused(true));
    pump.run_ops(256);
    if let Err(e) = pump.check_agreement(CHUNK + 256) {
        r.errors.push(e);
    }
    (window, all)
}

fn pump_rotate(ctx: &RunCtx, r: &mut RunResult) {
    pump_note(ctx, SHORT_PERIOD, r);
    let mut setups = Samples::default();
    if !ctx.traced {
        let (window, _) = rotate_phase(ctx, None, (&mut setups, SETUPS), ctx.budget(), r);
        window.fill(&mut setups, r);
        return;
    }
    let reference = ctx.budget().mul_f64(REFERENCE_SHARE);
    let (plain, _) = rotate_phase(ctx, None, (&mut setups, 1), reference, r);
    let tracer = Tracer::new();
    tracer.set_paused(true);
    let (window, rotations) =
        rotate_phase(ctx, Some(&tracer), (&mut setups, 1), ctx.budget() - reference, r);

    let n = rotations.len().max(1) as f64;
    let mean_ms = |f: fn(&sut::Rotation) -> Duration| {
        rotations.iter().map(|x| f(x).as_secs_f64()).sum::<f64>() / n * 1e3
    };
    let transfer_s: f64 = rotations.iter().map(|x| x.transfer.as_secs_f64()).sum();
    let bytes: u64 = rotations.iter().map(|x| x.chunk_bytes).sum();
    let m = &mut r.metrics;
    m.insert("cst.transfer_ms", mean_ms(|x| x.transfer));
    m.insert("reconfig.add_ms", mean_ms(|x| x.add));
    m.insert("reconfig.remove_ms", mean_ms(|x| x.remove));
    m.insert("cst.chunks", rotations.iter().map(|x| x.chunks).sum::<u64>() as f64 / n);
    m.insert("cst.bytes", bytes as f64 / n);
    m.insert("cst.mb_per_s", bytes as f64 / 1e6 / transfer_s);
    m.insert("service.snapshot_ms", mean_ns(&tracer, "service.snapshot") / 1e6);
    m.insert("service.install_ms", mean_ns(&tracer, "service.install") / 1e6);
    m.insert("storage.commit_checkpoint_ms", mean_ns(&tracer, "storage.commit_checkpoint") / 1e6);
    m.insert("trace.overhead_pct", overhead_pct(plain.ops_per_s(), window.ops_per_s()));
    r.notes.push(format!("{} rotations traced", rotations.len()));
    write_trace(ctx, &tracer, r);
}

// ---------------------------------------------------------------------
// sim-nemesis
// ---------------------------------------------------------------------

/// Virtual length of the fault-free simulated run.
const SIM_VIRTUAL_MS: u64 = 500;

fn sim_setups(ctx: &RunCtx, setups: &mut Samples, n: usize) -> sut::SimYcsb {
    let cfg = pump_config(ctx, "sim", STEADY_PERIOD);
    let mut built = None;
    for _ in 0..n {
        let start = Instant::now();
        let ops = sut::ycsb_ops(ctx.seed, OP_POOL, &cfg.shape);
        built = Some(sut::SimYcsb::build(&cfg, ops));
        setups.push(start.elapsed());
    }
    built.expect("at least one set-up")
}

fn sim_nemesis(ctx: &RunCtx, r: &mut RunResult) {
    let scenarios: &[&str] = if ctx.smoke { &sut::scenarios()[..1] } else { sut::scenarios() };
    let virtual_ms = if ctx.smoke { 100 } else { SIM_VIRTUAL_MS };
    r.notes.push(format!(
        "{} scenarios x {} virtual ms under the invariant checker, then a fault-free simulated \
         run of the pump's configuration for {virtual_ms} virtual ms; default network model \
         (120 us one-way plus 1 us per 117 B) in virtual time, none in wall time; an operation \
         is one a simulated client completed, a latency sample the wall time of one scenario run",
        scenarios.len(),
        sut::scenario_virtual_ms()
    ));
    let mut setups = Samples::default();
    let mut sim = sim_setups(ctx, &mut setups, SETUPS);

    // One chunk per scenario run, and one for the fault-free run.
    let mut window = Window::new(Tail::Pooled(75.0), MIDDLE);
    let mut by_scenario: Vec<(&str, Samples)> =
        scenarios.iter().map(|s| (*s, Samples::default())).collect();
    let mut commits = 0;
    let start = Instant::now();
    let mut lap = Lap::start();
    let mut pass: u64 = 0;
    // Whole passes only, so every run measures the same mix of scenarios;
    // another pass starts while at least half of it fits the budget.
    while pass == 0 || start.elapsed() + start.elapsed() / (2 * pass as u32) <= ctx.budget() {
        for (scenario, walls) in &mut by_scenario {
            let run = sut::run_scenario(scenario, ctx.seed + pass);
            let chunk = lap.chunk(run.completed, 0, None);
            window.latency.push(chunk.wall);
            walls.push(chunk.wall);
            window.chunks.push(chunk);
            r.attempted += 1;
            commits += run.commits_checked;
            if !run.passed {
                r.failed += 1;
                r.errors.push(format!("{scenario} seed {}: {:?}", ctx.seed + pass, run.violations));
            }
        }
        pass += 1;
    }
    let tracer = Tracer::new();
    if ctx.traced {
        // The traced fault-free run is compared with a plain one below; a
        // throwaway run first, so that neither pays for growing the heap.
        sim_setups(ctx, &mut Samples::default(), 1).run_until_ms(virtual_ms);
        lap = Lap::start();
        // One span per virtual millisecond of the fault-free run.
        for ms in 1..=virtual_ms {
            tracer.span(0, "cluster.virtual_ms", 0, ms, || sim.run_until_ms(ms));
        }
    } else {
        sim.run_until_ms(virtual_ms);
    }
    let fault_free_ops = sim.completed();
    let fault_free = lap.chunk(fault_free_ops, 0, None);
    let fault_free_wall = fault_free.wall;
    window.chunks.push(fault_free);
    r.attempted += 1;
    match sim.verdict() {
        Ok(n) => commits += n,
        Err(e) => {
            r.failed += 1;
            r.errors.push(format!("fault-free run: {e}"));
        }
    }
    drop(sim); // before the plain run below, so that it can reuse the memory
    if fault_free_ops == 0 {
        r.errors.push("the fault-free run completed no operation".into());
    }
    if !ctx.traced {
        window.fill(&mut setups, r);
        return;
    }

    // The same fault-free run again without spans: the tracing overhead.
    let mut plain = sim_setups(ctx, &mut setups, 1);
    let plain_start = Instant::now();
    plain.run_until_ms(virtual_ms);
    let plain_wall = plain_start.elapsed();
    if plain.completed() != fault_free_ops {
        r.errors.push("the fault-free run is not a function of its seed".into());
    }
    let m = &mut r.metrics;
    for (scenario, walls) in &mut by_scenario {
        let metric = PER_LAYER
            .iter()
            .map(|p| p.0)
            .find(|n| n.strip_prefix("nemesis.wall_ms.") == Some(*scenario));
        if let Some(metric) = metric {
            m.insert(metric, walls.p(50.0) / 1e6);
        }
    }
    m.insert("nemesis.commits_checked", commits as f64);
    m.insert(
        "cluster.wall_us_per_virtual_ms",
        fault_free_wall.as_secs_f64() * 1e6 / virtual_ms as f64,
    );
    let virtual_ops_per_s = fault_free_ops as f64 * 1e3 / virtual_ms as f64;
    m.insert("cluster.virtual_ops_per_s", virtual_ops_per_s);
    m.insert(
        "trace.overhead_pct",
        overhead_pct(1.0 / plain_wall.as_secs_f64(), 1.0 / fault_free_wall.as_secs_f64()),
    );
    let placed = sut::run_scenario_placed("leader-crash", ctx.seed);
    m.insert("faults.time_to_heal_us", placed.first_commit_us as f64);
    m.insert("replica.view_changes", placed.view_changes as f64);
    m.insert("cst.chunks_fetched", placed.chunks_fetched as f64);
    // What the same configuration does in wall time on the pump.
    let chunks = if ctx.smoke { 1 } else { 3 };
    let (wall, ..) = ycsb_phase(ctx, None, (&mut Samples::default(), 1), (chunks, 0), r);
    let m = &mut r.metrics;
    m.insert("cluster.model_over_wall", virtual_ops_per_s / wall.window.ops_per_s());
    r.notes.push(format!(
        "{pass} pass(es); the pump orders {:.0} ops/s in wall time where the simulator models {:.0}",
        wall.window.ops_per_s(),
        virtual_ops_per_s
    ));
    write_trace(ctx, &tracer, r);
}

// ---------------------------------------------------------------------
// ctl-*
// ---------------------------------------------------------------------

/// The paper's four campaign rates are multiplied by this, so that every
/// seed has more history than [`COLD_CVES`] and most days publish something.
const WORLD_SCALE: f64 = 3.0;
/// Records before the split day that every world keeps (its most recent).
/// A round on this much history takes tens of milliseconds; at the repo's
/// default scale it takes a few and measures nothing.
const COLD_CVES: usize = 800;
/// Worlds per run. The controller's cost depends on what the clustering
/// makes of a world's text, by several percent from seed to seed; a run
/// takes its medians over this many worlds, seeded from `--seed`.
const WORLDS: u64 = 4;
/// Monitoring rounds per second of budget, one per day on which the world
/// publishes something (a round's cost grows with the knowledge base, so
/// the count is fixed by the budget, not by the clock).
const ROUNDS_PER_SECOND: f64 = 10.0;

/// Generates the run's worlds `n` times, keeping the last set.
fn world_setups(ctx: &RunCtx, days: usize, setups: &mut Samples, n: usize) -> Vec<sut::World> {
    let (scale, cold) = if ctx.smoke { (1.0, 200) } else { (WORLD_SCALE, COLD_CVES) };
    let mut built = Vec::new();
    for _ in 0..n {
        let start = Instant::now();
        built = (0..WORLDS)
            .map(|w| sut::World::generate(ctx.seed * WORLDS + w, scale, cold, days))
            .collect();
        setups.push(start.elapsed());
    }
    built
}

fn world_note(worlds: &[sut::World], r: &mut RunResult) {
    let n = worlds.len() as f64;
    r.notes.push(format!(
        "{} worlds of {:.0} CVEs and {:.2} MB of NVD JSON before the split day on average, {} \
         daily delta feeds each; single thread, one call at a time",
        worlds.len(),
        worlds.iter().map(|w| w.cves as f64).sum::<f64>() / n,
        worlds.iter().map(|w| w.cold_feed_bytes as f64).sum::<f64>() / n / 1e6,
        worlds.first().map_or(0, sut::World::days)
    ));
}

/// One controller per world, bootstrapped outside the measured window.
fn bootstrap_all(
    ctx: &RunCtx,
    worlds: &[sut::World],
    tracer: Option<&Tracer>,
    r: &mut RunResult,
) -> Option<Vec<sut::Ctl>> {
    worlds
        .iter()
        .map(|world| {
            sut::Ctl::bootstrap(world, ctx.seed, tracer).map_err(|e| r.errors.push(e)).ok()
        })
        .collect()
}

struct Rounds {
    window: Window,
    /// Per round, in the order run.
    durations: Vec<Duration>,
    outcomes: Vec<sut::RoundOutcome>,
}

/// Days `0..days` on every world in turn: day 0 of each, then day 1, ...
/// The rounds of one day are a chunk.
fn rounds(
    ctls: &mut [sut::Ctl],
    worlds: &[sut::World],
    days: usize,
    tracer: Option<&Tracer>,
    r: &mut RunResult,
) -> Rounds {
    let mut window = Window::new(Tail::Pooled(90.0), QUIET);
    let mut durations = Vec::new();
    let mut outcomes = Vec::new();
    let mut lap = Lap::start();
    for day in 0..days {
        for (w, (ctl, world)) in ctls.iter_mut().zip(worlds).enumerate() {
            let start = Instant::now();
            let outcome = trace::span(tracer, "controller.round", w as u32, day as u64, || {
                ctl.round(world, day)
            });
            durations.push(start.elapsed());
            window.latency.push(start.elapsed());
            r.attempted += 1;
            if !outcome.config_valid {
                r.failed += 1;
                r.errors.push(format!("world {w} day {day}: invalid configuration"));
            }
            outcomes.push(outcome);
        }
        window.chunks.push(lap.chunk(ctls.len() as u64, 0, None));
    }
    Rounds { window, durations, outcomes }
}

fn ctl_rounds(ctx: &RunCtx, r: &mut RunResult) {
    let total = (ctx.budget().as_secs_f64() * ROUNDS_PER_SECOND) as usize;
    let days = (total / WORLDS as usize).clamp(3, 240);
    let mut setups = Samples::default();
    if !ctx.traced {
        let worlds = world_setups(ctx, days, &mut setups, SETUPS);
        world_note(&worlds, r);
        let days = worlds.iter().map(sut::World::days).min().unwrap_or(0);
        let Some(mut ctls) = bootstrap_all(ctx, &worlds, None, r) else { return };
        rounds(&mut ctls, &worlds, days, None, r).window.fill(&mut setups, r);
        return;
    }
    let worlds = world_setups(ctx, days, &mut setups, 1);
    world_note(&worlds, r);
    let days = worlds.iter().map(sut::World::days).min().unwrap_or(0).max(1);
    let reference_days = ((days as f64 * REFERENCE_SHARE) as usize).max(1);
    let Some(mut plain) = bootstrap_all(ctx, &worlds, None, r) else { return };
    let reference = rounds(&mut plain, &worlds, reference_days, None, r);
    drop(plain);

    let tracer = Tracer::new();
    let Some(mut ctls) = bootstrap_all(ctx, &worlds, Some(&tracer), r) else { return };
    let mut run = rounds(&mut ctls, &worlds, days, Some(&tracer), r);
    let both = reference.outcomes.len();
    if run.outcomes[..both] != reference.outcomes[..] {
        r.errors.push("traced and untraced rounds decided differently on one seed".into());
    }
    // The overhead is taken on the rounds both slices ran.
    let rate = |durations: &[Duration]| {
        both as f64 / durations[..both].iter().sum::<Duration>().as_secs_f64()
    };
    // The last round of all is re-timed stage by stage.
    let (last_world, last_day) = (WORLDS as usize - 1, days - 1);
    let last_round_ms = run.durations.last().map_or(0.0, |d| d.as_secs_f64() * 1e3);
    let m = &mut r.metrics;
    m.insert("datamgr.sync_feeds_ms", mean_ns(&tracer, "datamgr.sync_feeds") / 1e6);
    m.insert("datamgr.sync_sources_ms", mean_ns(&tracer, "datamgr.sync_sources") / 1e6);
    let mut stage_sum = 0.0;
    for (name, value) in ctls[last_world].stage_ledger(&worlds[last_world], last_day) {
        if name == "controller.stage_sum_ms" {
            stage_sum = value;
        } else {
            m.insert(name, value);
        }
    }
    m.insert("controller.round_residue_pct", (last_round_ms - stage_sum) / last_round_ms * 100.0);
    m.insert("controller.reconfigs", run.outcomes.iter().filter(|o| o.outcome == 1).count() as f64);
    m.insert("controller.alarms", run.outcomes.iter().map(|o| f64::from(o.alarms)).sum());
    m.insert("trace.overhead_pct", overhead_pct(rate(&reference.durations), rate(&run.durations)));
    r.notes.push(format!(
        "{} rounds traced (p50 {:.2} ms), the first {both} also untraced; the last round took \
         {last_round_ms:.2} ms against {stage_sum:.2} ms for its stages standalone",
        run.durations.len(),
        run.window.latency.p(50.0) / 1e6
    ));
    write_trace(ctx, &tracer, r);
}

/// Cold bootstraps, world after world in turn, each with a controller seed
/// of its own (which seeds the clustering), until `budget` is used; one
/// bootstrap of every world to a chunk.
fn bootstrap_loop(
    worlds: &[sut::World],
    budget: Duration,
    tracer: Option<&Tracer>,
    r: &mut RunResult,
) -> Window {
    loop_window(budget, worlds.len(), worlds.len() as u64, Tail::Pooled(90.0), r, |i| {
        let start = Instant::now();
        sut::Ctl::bootstrap(&worlds[i % worlds.len()], i as u64, tracer)?;
        Ok(start.elapsed())
    })
}

fn ctl_bootstrap(ctx: &RunCtx, r: &mut RunResult) {
    let mut setups = Samples::default();
    if !ctx.traced {
        let worlds = world_setups(ctx, 1, &mut setups, SETUPS);
        world_note(&worlds, r);
        bootstrap_loop(&worlds, ctx.budget(), None, r).fill(&mut setups, r);
        return;
    }
    let worlds = world_setups(ctx, 1, &mut setups, 1);
    world_note(&worlds, r);
    let reference = bootstrap_loop(&worlds, ctx.budget().mul_f64(REFERENCE_SHARE), None, r);
    let tracer = Tracer::new();
    let traced =
        bootstrap_loop(&worlds, ctx.budget().mul_f64(1.0 - REFERENCE_SHARE), Some(&tracer), r);
    let m = &mut r.metrics;
    m.insert("datamgr.sync_feeds_ms", mean_ns(&tracer, "datamgr.sync_feeds") / 1e6);
    m.insert("datamgr.sync_sources_ms", mean_ns(&tracer, "datamgr.sync_sources") / 1e6);
    m.insert("feed.parse_mb_per_s", worlds[0].parse_mb_per_s());
    m.insert("trace.overhead_pct", overhead_pct(reference.ops_per_s(), traced.ops_per_s()));
    r.notes.push(format!(
        "{} bootstraps traced; controller.bootstrap (cluster, score, choose) {:.1} ms of each",
        traced.ops(),
        mean_ns(&tracer, "controller.bootstrap") / 1e6
    ));
    write_trace(ctx, &tracer, r);
}
