//! The repository's performance benchmark: the paper's compress → cluster
//! → recover pipelines at 1M scale and the streaming service's ingest →
//! recluster → label loop, end to end (`--trace 0`) and per layer
//! (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ds1_sa_k1000 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Inputs are generated from `--seed`; the program sees only the generated
//! data. Every operation's output is checked, and the last line of
//! standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! See `perfbench/METRICS.md` for what each workload and metric measures.

mod alloc;
mod batch;
mod check;
mod record;
mod serve;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use db_obs::Json;
use record::Outcome;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Threads every batch run uses: the 2 cores of the reference machine.
pub const BATCH_THREADS: usize = 2;

/// Set-ups are sampled between the timed repetitions: at least one before
/// each, more while they add up to less than this share of the time
/// measured so far. A workload whose set-up is short next to its
/// repetition (`ds1_sa_k4000`, `serve_stream`) thus still gets a dozen or
/// more samples spread over the run.
pub const SETUP_SHARE: f64 = 0.5;

/// End-to-end metrics, reported by every untraced run.
const END_TO_END: [&str; 4] = ["setup_s", "run_s", "ari", "peak_heap_mb"];

/// Per-layer metrics, reported by every traced run, with their unit. A
/// layer that a workload's path does not call reads 0.
const PER_LAYER: [(&str, &str); 26] = [
    ("spatial.read_csv_s", "s"),
    ("sampling.draw_s", "s"),
    ("sampling.classify_s", "s"),
    ("sampling.stats_s", "s"),
    ("birch.insert_s", "s"),
    ("birch.condense_s", "s"),
    ("core.bubbles_s", "s"),
    ("core.matrix_s", "s"),
    ("optics.walk_s", "s"),
    ("core.expand_s", "s"),
    ("core.dendrogram_s", "s"),
    ("serve.recluster_s", "s"),
    ("serve.snapshot_ms", "ms"),
    ("sampling.absorb_ms", "ms"),
    ("serve.ingest_ms", "ms"),
    ("serve.label_us", "us"),
    ("obsd.ingest_ms", "ms"),
    ("obsd.label_ms", "ms"),
    ("spatial.dist_evals", "count"),
    ("optics.distance_calls", "count"),
    ("birch.rebuilds", "count"),
    ("optics.matrix_bytes", "bytes"),
    ("trace.span_sum_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn usage() -> &'static str {
    "usage: perfbench --workload <ds1_sa_k1000|ds1_sa_k4000|gauss16_cf_k1000|serve_stream> \
     --seed <u64> --seconds <1..=60> --trace <0|1>"
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be within 1..=60".into());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Where runs keep their input files and trace reports: inside the
/// checkout, ignored by git.
pub fn out_dir() -> PathBuf {
    PathBuf::from("perfbench").join("out")
}

/// The commit the checkout was made from, read from `.git` when there is
/// one (a plain export has none).
fn commit_hash() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir().display());
        return ExitCode::from(1);
    }
    let mut outcome = Outcome::default();
    let mut tracer = record::Tracer::new(args.trace);
    let run = match args.workload.as_str() {
        "serve_stream" => serve::run(&args, &mut outcome, &mut tracer),
        name => match batch::Spec::named(name) {
            Some(spec) => batch::run(&spec, &args, &mut outcome, &mut tracer),
            None => Err(format!("unknown workload {name:?}\n{}", usage())),
        },
    };
    if let Err(e) = run {
        eprintln!("perfbench: {e}");
        return ExitCode::from(1);
    }

    if args.trace {
        for (name, unit) in PER_LAYER {
            outcome.metrics.entry(name).or_insert((0.0, unit));
        }
        outcome.metrics.retain(|name, _| PER_LAYER.iter().any(|(n, _)| n == name));
    } else {
        for name in END_TO_END {
            if !outcome.metrics.contains_key(name) {
                eprintln!("perfbench: workload did not report {name}");
                return ExitCode::from(1);
            }
        }
        outcome.metrics.retain(|name, _| END_TO_END.contains(name));
    }

    let available = std::thread::available_parallelism().map_or(0, usize::from);
    let mut meta = vec![
        ("workload".to_string(), Json::Str(args.workload.clone())),
        ("seed".into(), Json::Int(args.seed as i64)),
        ("seconds".into(), Json::Int(args.seconds.as_secs() as i64)),
        ("trace".into(), Json::Bool(args.trace)),
        ("available_parallelism".into(), Json::Int(available as i64)),
        ("commit".into(), Json::Str(commit_hash())),
    ];
    meta.append(&mut outcome.meta);
    meta.push((
        "failures".into(),
        Json::Arr(outcome.failures.iter().map(|f| Json::Str(f.clone())).collect()),
    ));
    let report = Json::Obj(vec![
        ("meta".into(), Json::Obj(meta.clone())),
        ("result".into(), outcome.result_json()),
        ("spans".into(), tracer.to_json()),
    ]);
    let mode = if args.trace { "trace" } else { "e2e" };
    let path = out_dir().join(format!("report-{}-{}-{mode}.json", args.workload, args.seed));
    if let Err(e) = std::fs::write(&path, report.render()) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    println!("{}", Json::Obj(vec![("meta".into(), Json::Obj(meta))]).render());
    println!("{}", outcome.result_json().render());
    ExitCode::SUCCESS
}
