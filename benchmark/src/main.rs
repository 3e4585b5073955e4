//! Wall-clock benchmark for the SMR request path, the simulator and the
//! control plane. See `README.md` next to this package; `run.sh` builds and
//! drives this binary.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--set <file>]
//! benchmark compare <A.jsonl> <B.jsonl>
//! benchmark manifest        # the BENCHMARK.json this catalogue implies
//! benchmark workloads       # workload names, one per line
//! ```
//!
//! A run prints a table of every metric to standard error and, as the last
//! line of standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

mod report;
mod stats;
mod sut;
mod trace;
mod workloads;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{Better, END_TO_END, PER_LAYER, WORKLOADS};

/// Seconds one run measures when the driver does not say.
const DEFAULT_SECONDS: f64 = 10.0;

fn usage() -> String {
    format!(
        "usage: benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] \
         [--set FILE]\n       benchmark compare A B | manifest | workloads\nworkloads: {}",
        WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>().join(", ")
    )
}

/// Where results land: `$BENCH_OUT`, else `benchmark/out` under the current
/// directory (the root of the checkout).
fn out_dir() -> PathBuf {
    std::env::var_os("BENCH_OUT").map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from)
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`.
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_ascii_whitespace();
            let (_, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// The run's result with what identifies the build and the machine.
fn record(ctx: &workloads::RunCtx, result: &report::RunResult) -> String {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".into());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \
         \"git_rev\": \"{}\", \"rustc\": \"{}\", \"journal_fs\": \"{}\", \"result\": {}}}\n",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.traced),
        std::thread::available_parallelism().map_or(0, usize::from),
        env("BENCH_GIT_REV"),
        env("BENCH_RUSTC"),
        filesystem_of(&ctx.tmp_dir),
        result.json_line()
    )
}

fn manifest() -> String {
    let better = |b: Better| if b == Better::Lower { "lower" } else { "higher" };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.better),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|(name, unit, b)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better(*b)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        DEFAULT_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

fn compare(a: &str, b: &str) -> Result<bool, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (table, regressed) = report::compare(&read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(regressed)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut ctx = workloads::RunCtx {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        smoke: false,
        out_dir: out_dir(),
        tmp_dir: out_dir().join("tmp"),
    };
    let mut set_file = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value\n{}", usage()));
        match arg.as_str() {
            "--workload" => ctx.workload = value()?.clone(),
            "--seed" => ctx.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => ctx.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => ctx.traced = value()? != "0",
            "--set" => set_file = Some(PathBuf::from(value()?)),
            "--smoke" => ctx.smoke = true,
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    if !(ctx.seconds > 0.0 && ctx.seconds <= 600.0) {
        return Err("--seconds must be within (0, 600]".into());
    }
    std::fs::create_dir_all(&ctx.tmp_dir).map_err(|e| format!("{}: {e}", ctx.tmp_dir.display()))?;
    // The nemesis harness puts its journals under the system's temporary
    // directory; keep that inside the checkout too. No thread runs yet.
    std::env::set_var("TMPDIR", ctx.tmp_dir.canonicalize().map_err(|e| e.to_string())?);

    let result = workloads::run(&ctx)?;
    eprint!("{}", result.table());
    let name = format!("{}-seed{}-t{}.json", ctx.workload, ctx.seed, u8::from(ctx.traced));
    std::fs::write(ctx.out_dir.join(name), record(&ctx, &result)).map_err(|e| e.to_string())?;
    if let Some(path) = set_file {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(file, "{}", result.set_line()).map_err(|e| e.to_string())?;
    }
    println!("{}", result.json_line());
    Ok(if result.correct() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => {
            compare(&args[1], &args[2]).map(|regressed| ExitCode::from(u8::from(regressed)))
        }
        Some("manifest") => {
            print!("{}", manifest());
            Ok(ExitCode::SUCCESS)
        }
        Some("workloads") => {
            for (name, _) in WORKLOADS {
                println!("{name}");
            }
            Ok(ExitCode::SUCCESS)
        }
        Some(_) => run(&args),
        None => Err(usage()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}
