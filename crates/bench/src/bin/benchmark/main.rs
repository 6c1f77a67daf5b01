//! The repo benchmark: four study workloads, end-to-end metrics a user of
//! the scanner sees, and an outside-in per-layer cost stack. See
//! `README.md` beside this file for the glossary and how the metrics
//! interact; `BENCHMARK.json` at the repo root records the contract.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run in this process; the last stdout line is the result
//! benchmark [--seed <n>] [--trace <0|1>]
//!     every workload, each in its own child process (so VmHWM is the
//!     workload's own): end to end, then traced, unless --trace picks one
//! benchmark --repeat-check [--seed <n>]
//!     the end-to-end set twice; fails if any metric's medians differ by
//!     more than its own bound
//! benchmark --smoke
//!     all four workloads and the traced run on the tiny world, in seconds
//! benchmark --describe
//!     print BENCHMARK.json
//! ```
//!
//! Measures every layer from outside, by timing calls into public
//! functions; it changes no other crate and claims no gain.

#![forbid(unsafe_code)]

mod host;
mod json;
mod report;
mod run;
mod spec;
mod stats;
mod sut;
mod trace;

use run::RunOutput;
use serde_json::Value;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use sut::{Lease, Settings, Workload, WorldKind};

/// The seed `EcosystemConfig::paper_default` itself uses.
const DEFAULT_SEED: u64 = 0x1c0_ffee;

#[derive(Debug, Default, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    repeat_check: bool,
    describe: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args::default();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => out.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("a number")?;
                out.seed = Some(v.parse().map_err(|_| format!("--seed {v}: not a u64"))?);
            }
            "--seconds" => {
                let v = value("a number")?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds {v}: not a number"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds {v}: out of range"));
                }
                out.seconds = Some(s);
            }
            "--trace" => {
                // `--trace` alone means traced; the driver passes 0 or 1.
                out.trace = Some(match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                });
            }
            "--smoke" => out.smoke = true,
            "--repeat-check" => out.repeat_check = true,
            "--describe" => out.describe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

/// Where output files and state roots go: under the build directory, so
/// state roots share its (real) filesystem and a checkout stays clean.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("benchmark")
}

fn settings(world: WorldKind, seed: u64) -> Settings {
    Settings {
        world,
        seed,
        lease: Lease::SAFE,
        epochs: spec::EPOCHS,
        state_dir: out_dir().join("state").join(std::process::id().to_string()),
    }
}

/// One run in this process; state roots are removed whatever happens.
fn run_here(
    workload: Workload,
    settings: &Settings,
    seconds: f64,
    traced: bool,
) -> Result<RunOutput, String> {
    std::fs::create_dir_all(&settings.state_dir)
        .map_err(|e| format!("create {}: {e}", settings.state_dir.display()))?;
    let out = if traced {
        run::run_traced(workload, settings)
    } else {
        run::run_untraced(workload, settings, seconds)
    };
    let _ = std::fs::remove_dir_all(&settings.state_dir);
    out
}

/// The driver protocol: one workload, result as the last stdout line.
fn single(args: &Args, name: &str) -> Result<bool, String> {
    let workload = Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let settings = settings(
        WorldKind::Paper { scale: spec::SCALE },
        args.seed.unwrap_or(DEFAULT_SEED),
    );
    let seconds = args.seconds.unwrap_or(spec::RUN_SECONDS as f64);
    let out = run_here(workload, &settings, seconds, args.trace.unwrap_or(false))?;
    report::print_table(&out);
    for path in report::write_files(&out, &settings, &out_dir())? {
        eprintln!("[benchmark] wrote {}", path.display());
    }
    println!("{}", report::result_line(&out));
    Ok(out.correct())
}

/// The result line of one child run, parsed.
struct ChildResult {
    workload: Workload,
    correct: bool,
    metrics: Vec<(String, f64)>,
}

/// Run one workload in a child process of this same binary and read its
/// result line. The child's table and file paths go to our stderr.
fn child(workload: Workload, seed: u64, traced: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &spec::RUN_SECONDS.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {}: {e}", workload.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or_else(|| {
        format!(
            "{}: child printed no result ({})",
            workload.name(),
            output.status
        )
    })?;
    let value = json::parse(line).map_err(|e| format!("{}: result line: {e}", workload.name()))?;
    let metrics = match json::get(&value, "metrics") {
        Some(Value::Object(fields)) => fields
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), json::as_f64(json::get(v, "value")?)?)))
            .collect(),
        _ => return Err(format!("{}: result line has no metrics", workload.name())),
    };
    Ok(ChildResult {
        workload,
        correct: json::get(&value, "correct") == Some(&Value::Bool(true))
            && output.status.success(),
        metrics,
    })
}

fn run_set(seed: u64, traced: bool) -> Result<Vec<ChildResult>, String> {
    Workload::ALL
        .into_iter()
        .map(|w| child(w, seed, traced))
        .collect()
}

/// Every workload, end to end and traced (or the one `--trace` picks).
fn all(args: &Args) -> Result<bool, String> {
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let mut correct = true;
    for traced in [false, true] {
        if args.trace.is_some_and(|t| t != traced) {
            continue;
        }
        for result in run_set(seed, traced)? {
            correct &= result.correct;
        }
    }
    eprintln!("[benchmark] output files are under {}", out_dir().display());
    Ok(correct)
}

/// Two full end-to-end sets of the same code must agree within each
/// metric's own bound, workload by workload.
fn repeat_check(args: &Args) -> Result<bool, String> {
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let first = run_set(seed, false)?;
    let second = run_set(seed, false)?;
    let mut ok = true;
    println!(
        "{:<18} {:<18} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        ok &= a.correct && b.correct;
        for m in spec::END_TO_END {
            let get =
                |r: &ChildResult| r.metrics.iter().find(|(k, _)| k == m.name).map(|(_, v)| *v);
            let (Some(x), Some(y)) = (get(a), get(b)) else {
                return Err(format!("{} is missing {}", a.workload.name(), m.name));
            };
            let worse = stats::worsening(x, y, m.better == spec::Better::Lower);
            let bound = m.bound.unwrap_or(0.0);
            // Cost counters are a pure function of the world wherever
            // caches are not shared between threads: there the two runs
            // must agree exactly. Elsewhere either run may be the slow one.
            let exact = matches!(m.name, "queries_per_zone" | "virtual_s")
                && a.workload != Workload::ParallelScan;
            let within = if exact { x == y } else { worse.abs() <= bound };
            ok &= within;
            println!(
                "{:<18} {:<18} {:>14.6} {:>14.6} {:>+8.2}% {:>6.1}%{}",
                a.workload.name(),
                m.name,
                x,
                y,
                worse * 100.0,
                bound * 100.0,
                if within { "" } else { "  EXCEEDED" }
            );
        }
    }
    Ok(ok)
}

/// All four workloads and the traced run on the tiny world, in this
/// process: proves the adapter still binds and every metric is produced.
fn smoke_runs(settings: &Settings) -> Result<Vec<RunOutput>, String> {
    let mut outs = Vec::new();
    for workload in Workload::ALL {
        outs.push(run_here(workload, settings, 0.0, false)?);
    }
    outs.push(run_here(Workload::ContinuousStudy, settings, 0.0, true)?);
    Ok(outs)
}

fn smoke() -> Result<bool, String> {
    let outs = smoke_runs(&settings(WorldKind::Tiny, 42))?;
    outs.iter().for_each(report::print_table);
    Ok(outs.iter().all(|o| o.correct() && o.failed == 0))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| {
        if args.describe {
            print!("{}", report::describe());
            Ok(true)
        } else if args.smoke {
            smoke()
        } else if args.repeat_check {
            repeat_check(&args)
        } else if let Some(name) = args.workload.clone() {
            single(&args, &name)
        } else {
            all(&args)
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("[benchmark] output check failed");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("[benchmark] error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests;
