//! The repo benchmark.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last line of standard output is the
//!     result object (end-to-end metrics with tracing off, per-layer
//!     metrics with tracing on)
//! benchmark --seed <n> [--seconds <s>] [--trace <0|1>] [--quick] [--out <file>]
//!     all four workloads, each in a child process of its own, written
//!     as one result document stamped with commit, machine and configs
//! benchmark --compare <old.json> <new.json>
//!     old, new, change and bound per end-to-end metric and workload;
//!     exits non-zero on a regression
//! ```
//!
//! See `README.md` beside this package for the workloads, the metrics
//! and the predictions later changes are checked against.

mod analyst;
mod clean;
mod config;
mod fixture;
mod json;
mod metrics;
mod probes;
mod record;
mod run;
mod schedule;
mod serve;
mod stats;
mod suite;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use config::Workload;
use json::Json;

/// Parsed command line.
#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    /// Measured seconds per run; `None` until the defaults apply.
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next().cloned().ok_or(format!("{flag} needs a value"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, flag)?),
            "--seed" => {
                args.seed = value(&mut it, flag)?
                    .parse()
                    .map_err(|_| "--seed takes an unsigned integer".to_string())?;
            }
            "--seconds" => {
                let s: f64 = value(&mut it, flag)?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = Some(PathBuf::from(value(&mut it, flag)?)),
            "--compare" => {
                let old = PathBuf::from(value(&mut it, flag)?);
                let new = PathBuf::from(value(&mut it, flag)?);
                args.compare = Some((old, new));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Where run artefacts (traces, suite results) go: `out/` inside the
/// benchmark's own directory when run from the repository root.
fn out_dir() -> PathBuf {
    let nested = PathBuf::from("benchmark");
    if nested.is_dir() {
        nested.join("out")
    } else {
        PathBuf::from("out")
    }
}

fn single(args: &Args, workload: Workload, seconds: f64) -> Result<bool, String> {
    let outcome = run::run(&run::Request {
        workload,
        seed: args.seed,
        seconds,
        trace: args.trace,
        quick: args.quick,
        out_dir: out_dir(),
    })?;
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<44} {value:>16.4} {unit}");
    }
    println!("DETAIL {}", outcome.detail.render());
    let metrics = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            (
                (*name).to_string(),
                Json::obj(vec![
                    ("value", Json::Num(*value)),
                    ("unit", Json::str(unit)),
                ]),
            )
        })
        .collect();
    let result = Json::obj(vec![
        ("correct", Json::Bool(outcome.correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", result.render());
    Ok(outcome.correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // `run_seconds` of `BENCHMARK.json`, or half a second for a smoke run.
    let seconds = args.seconds.unwrap_or(if args.quick { 0.5 } else { 12.0 });
    let outcome = if let Some((old, new)) = &args.compare {
        suite::compare(old, new)
    } else if let Some(name) = &args.workload {
        match Workload::parse(name) {
            Some(w) => single(&args, w, seconds),
            None => Err(format!("unknown workload {name}")),
        }
    } else {
        let out = args
            .out
            .clone()
            .unwrap_or_else(|| out_dir().join("result.json"));
        suite::run_all(args.seed, seconds, args.trace, args.quick, &out)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
