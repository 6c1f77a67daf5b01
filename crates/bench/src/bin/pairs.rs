//! Alternating pairs of two benchmark binaries: the measured side of a
//! speed claim, and its A/A floor.
//!
//! ```text
//! pairs <parent-bin> <change-bin> --workload <w> --seeds <list>
//!       [--append <parent-rev>,<change-rev>] [--pr <n>] [--round <n>]
//! ```
//!
//! `--seeds` is a range (`9701-9710`) or a list (`9701,9705`). Pair `i`
//! runs both binaries at the `i`-th seed, the parent first on even `i`
//! and the change first on odd `i`, each as `<bin> --workload <w> --seed
//! <s> --seconds <run_seconds> --trace 0`, with the run length the
//! parent declares (the last stdout line is the run's result).
//! Both inherit the environment: set `CARGO_TARGET_DIR` so that both
//! sides' state roots are on the same filesystem.
//!
//! Prints, for every end-to-end metric the binary declares
//! (`--describe`): q1 / median / q3 on each side, the change in the
//! median, the pairs the change won, and whether the gap between the
//! medians exceeds the parent's interquartile range. Off-CPU time
//! (`wall_s − cpu_s`, where fsync waits land) gets a line of its own,
//! and so does the list of metrics equal on both sides in every pair.
//! Given the same binary twice, it also prints the A/A floor per metric.
//! `--append` adds one row per side to `BENCH_trajectory.json` in the
//! working directory, in that file's row shape, and on an A/A round a
//! third row (`"side": "aa-floor"`) with each metric's floor.
//!
//! Around every run it reads `/proc/stat` and this process's own
//! `/proc/self/stat`, and it marks a pair noisy when either run saw the
//! hypervisor steal more than [`STEAL_LIMIT`] of the host's CPU ticks,
//! or other processes keep more than [`FOREIGN_LIMIT`] of them busy. The
//! report names the marked pairs, and an A/A round prints its floor
//! again without them.

#[path = "benchmark/host.rs"]
#[expect(
    dead_code,
    reason = "shared with the benchmark; only the host block is used here"
)]
mod host;
#[path = "benchmark/json.rs"]
mod json;
#[path = "benchmark/stats.rs"]
#[expect(
    dead_code,
    reason = "shared with the benchmark; only the quartiles are used here"
)]
mod stats;

use serde_json::Value;
use stats::Summary;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// One end-to-end metric as `--describe` declares it.
#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: String,
    unit: String,
    lower_is_better: bool,
}

/// One benchmark run: a value per declared metric, in declaration order.
#[derive(Debug, Clone, PartialEq)]
struct Run {
    correct: bool,
    attempted: u64,
    failed: u64,
    values: Vec<f64>,
    /// What else the host did meanwhile.
    noise: Noise,
}

/// A run is noisy above this share of the host's CPU ticks stolen.
const STEAL_LIMIT: f64 = 0.02;

/// A run is noisy above this share of the host's CPU ticks busy outside
/// the run: on a two-CPU host, a fifth of the CPU a one-thread run did
/// not use.
const FOREIGN_LIMIT: f64 = 0.10;

/// CPU tick counters at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Ticks {
    /// `/proc/stat`'s aggregate `cpu` line: user, nice, system, irq and
    /// softirq ticks of every CPU.
    busy: u64,
    /// Ticks the hypervisor ran something else on a CPU of this host.
    steal: u64,
    /// Every tick of every CPU: busy, idle, iowait and steal.
    total: u64,
    /// utime, stime, cutime and cstime of this process: its own ticks
    /// and those of every run it has waited for.
    own: u64,
}

impl Ticks {
    /// The counters now; all zero where `/proc` cannot be read.
    fn now() -> Ticks {
        let read = |path| std::fs::read_to_string(path).unwrap_or_default();
        let mut ticks = parse_proc_stat(&read("/proc/stat")).unwrap_or_default();
        ticks.own = parse_own_ticks(&read("/proc/self/stat")).unwrap_or(0);
        ticks
    }
}

/// `busy`, `steal` and `total` from a `/proc/stat` text. The fields of
/// its `cpu` line are user, nice, system, idle, iowait, irq, softirq,
/// steal, guest and guest_nice; guest time is already counted in user.
fn parse_proc_stat(text: &str) -> Option<Ticks> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    let [user, nice, system, idle, iowait, irq, softirq, steal, ..] = fields[..] else {
        return None;
    };
    let busy = user + nice + system + irq + softirq;
    Some(Ticks {
        busy,
        steal,
        total: busy + idle + iowait + steal,
        own: 0,
    })
}

/// `utime + stime + cutime + cstime` (fields 14 to 17) of a
/// `/proc/<pid>/stat` line. The command name (field 2) may contain
/// spaces and parentheses, so fields are counted from the last `)`.
fn parse_own_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime is field 14.
    let fields: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(4)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (fields.len() == 4).then(|| fields.iter().sum())
}

/// What else the host did while one run ran, as shares of every CPU
/// tick that passed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Noise {
    /// Ticks stolen by the hypervisor.
    steal: f64,
    /// Busy ticks neither the run nor `pairs` spent: for a one-thread
    /// run on a two-CPU host, the CPU the run did not use.
    foreign: f64,
}

impl Noise {
    fn between(before: &Ticks, after: &Ticks) -> Noise {
        let total = after.total.saturating_sub(before.total).max(1) as f64;
        let busy = after.busy.saturating_sub(before.busy);
        let own = after.own.saturating_sub(before.own);
        Noise {
            steal: after.steal.saturating_sub(before.steal) as f64 / total,
            foreign: busy.saturating_sub(own) as f64 / total,
        }
    }

    fn noisy(&self) -> bool {
        self.steal > STEAL_LIMIT || self.foreign > FOREIGN_LIMIT
    }
}

/// Whether pair `i` is marked: either of its runs was noisy.
fn marked(parent: &[Run], change: &[Run], i: usize) -> bool {
    [parent.get(i), change.get(i)]
        .into_iter()
        .flatten()
        .any(|r| r.noise.noisy())
}

/// One metric on both sides of a round.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Comparison {
    parent: Summary,
    change: Summary,
    /// Pairs whose change-side value is strictly better.
    won: usize,
    pairs: usize,
}

impl Comparison {
    fn of(parent: &[f64], change: &[f64], lower_is_better: bool) -> Self {
        let won = parent
            .iter()
            .zip(change)
            .filter(|(p, c)| if lower_is_better { c < p } else { c > p })
            .count();
        Comparison {
            parent: stats::summarize(parent),
            change: stats::summarize(change),
            won,
            pairs: parent.len().min(change.len()),
        }
    }

    /// The change in the median, as a share of the parent's.
    fn delta(&self) -> f64 {
        if self.parent.median == 0.0 {
            0.0
        } else {
            (self.change.median - self.parent.median) / self.parent.median.abs()
        }
    }

    /// Whether the medians lie further apart than the parent's quartiles.
    fn resolved(&self) -> bool {
        (self.change.median - self.parent.median).abs() > self.parent.q3 - self.parent.q1
    }

    /// The A/A floor: the widest of both sides' interquartile spreads and
    /// the gap between the medians, as a share of the parent's median.
    fn floor(&self) -> f64 {
        self.delta()
            .abs()
            .max(self.parent.spread())
            .max(self.change.spread())
    }
}

/// `9701-9710` or `9701,9705,9709`.
fn parse_seeds(text: &str) -> Result<Vec<u64>, String> {
    let bad = || format!("bad seed list {text:?}");
    if let Some((lo, hi)) = text.split_once('-') {
        let lo: u64 = lo.trim().parse().map_err(|_| bad())?;
        let hi: u64 = hi.trim().parse().map_err(|_| bad())?;
        return if lo <= hi {
            Ok((lo..=hi).collect())
        } else {
            Err(bad())
        };
    }
    text.split(',')
        .map(|s| s.trim().parse().map_err(|_| bad()))
        .collect()
}

/// What a benchmark declares (`--describe`): its end-to-end metrics
/// and its run length.
#[derive(Debug, PartialEq)]
struct Spec {
    metrics: Vec<Metric>,
    run_seconds: u64,
}

fn parse_spec(text: &str) -> Result<Spec, String> {
    let spec = json::parse(text)?;
    let Some(Value::Array(items)) = json::get(&spec, "end_to_end") else {
        return Err("no end_to_end list".into());
    };
    let run_seconds = json::get(&spec, "run_seconds")
        .and_then(json::as_f64)
        .ok_or("no run_seconds")? as u64;
    let metrics = items
        .iter()
        .map(|m| {
            let field = |key: &str| match json::get(m, key) {
                Some(Value::String(s)) => Ok(s.clone()),
                _ => Err(format!("end_to_end entry without {key}")),
            };
            Ok(Metric {
                name: field("name")?,
                unit: field("unit")?,
                lower_is_better: field("better")? == "lower",
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(Spec {
        metrics,
        run_seconds,
    })
}

/// A run's result line, read for the declared metrics.
fn parse_result(line: &str, metrics: &[Metric]) -> Result<Run, String> {
    let result = json::parse(line)?;
    let count = |key: &str| json::get(&result, key).and_then(json::as_f64);
    let values = metrics
        .iter()
        .map(|m| {
            json::get(&result, "metrics")
                .and_then(|all| json::get(all, &m.name))
                .and_then(|v| json::get(v, "value"))
                .and_then(json::as_f64)
                .ok_or_else(|| format!("result line lacks {}", m.name))
        })
        .collect::<Result<_, _>>()?;
    Ok(Run {
        correct: matches!(json::get(&result, "correct"), Some(Value::Bool(true))),
        attempted: count("attempted").unwrap_or(0.0) as u64,
        failed: count("failed").unwrap_or(0.0) as u64,
        values,
        noise: Noise::default(),
    })
}

/// Whether the parent runs first in pair `i`.
fn parent_first(i: usize) -> bool {
    i.is_multiple_of(2)
}

/// `wall_s − cpu_s` of every run, when both metrics are declared.
fn off_cpu(metrics: &[Metric], runs: &[Run]) -> Option<Vec<f64>> {
    let at = |name: &str| metrics.iter().position(|m| m.name == name);
    let (wall, cpu) = (at("wall_s")?, at("cpu_s")?);
    Some(
        runs.iter()
            .map(|r| r.values[wall] - r.values[cpu])
            .collect(),
    )
}

fn column(runs: &[Run], i: usize) -> Vec<f64> {
    runs.iter().map(|r| r.values[i]).collect()
}

/// A number at a precision that suits its size.
fn num(v: f64) -> String {
    match v.abs() {
        a if a >= 1000.0 => format!("{v:.0}"),
        a if a >= 10.0 => format!("{v:.2}"),
        _ => format!("{v:.3}"),
    }
}

fn quartiles(s: &Summary) -> String {
    format!("{} / {} / {}", num(s.q1), num(s.median), num(s.q3))
}

/// One metric's line; `delta` is the change in the median as printed.
fn table_line(name: &str, unit: &str, c: &Comparison, delta: &str) -> String {
    format!(
        "{name:<22} {unit:<6} {:>28}  {:>28}  {delta:>9}  {:>2}/{:<2}  {}",
        quartiles(&c.parent),
        quartiles(&c.change),
        c.won,
        c.pairs,
        if c.resolved() { "yes" } else { "no" }
    )
}

/// Every declared metric compared across the two sides of a round.
fn compare(metrics: &[Metric], parent: &[Run], change: &[Run]) -> Vec<Comparison> {
    metrics
        .iter()
        .enumerate()
        .map(|(i, m)| Comparison::of(&column(parent, i), &column(change, i), m.lower_is_better))
        .collect()
}

/// Everything `pairs` prints for one round, A/A floor included when
/// both sides ran the same binary.
fn render_report(metrics: &[Metric], parent: &[Run], change: &[Run], same_binary: bool) -> String {
    let mut out = format!(
        "{:<22} {:<6} {:>28}  {:>28}  {:>9}  {:>5}  gap > parent IQR\n",
        "metric", "unit", "parent q1 / median / q3", "change q1 / median / q3", "Δ median", "won"
    );
    let comparisons = compare(metrics, parent, change);
    for (m, c) in metrics.iter().zip(&comparisons) {
        let delta = format!("{:+.1} %", c.delta() * 100.0);
        out.push_str(&table_line(&m.name, &m.unit, c, &delta));
        out.push('\n');
    }
    if let (Some(p), Some(c)) = (off_cpu(metrics, parent), off_cpu(metrics, change)) {
        let c = Comparison::of(&p, &c, true);
        // Off-CPU time sits near 0 on a quiet host, where a share of it
        // means nothing: its change is printed in seconds.
        let delta = format!("{:+.3} s", c.change.median - c.parent.median);
        out.push_str(&table_line("off-CPU (wall − cpu)", "s", &c, &delta));
        out.push('\n');
    }
    let side = |runs: &[Run]| {
        let failed: u64 = runs.iter().map(|r| r.failed).sum();
        let correct = runs.iter().all(|r| r.correct);
        format!("correct {correct}, failed {failed}")
    };
    out.push_str(&format!(
        "parent: {}; change: {}\n",
        side(parent),
        side(change)
    ));
    let equal: Vec<&str> = metrics
        .iter()
        .enumerate()
        .filter(|&(i, _)| column(parent, i) == column(change, i))
        .map(|(_, m)| m.name.as_str())
        .collect();
    out.push_str(&format!(
        "bit-equal pair by pair: {}\n",
        if equal.is_empty() {
            "none".to_string()
        } else {
            equal.join(", ")
        }
    ));
    let pairs = parent.len().min(change.len());
    let noisy: Vec<usize> = (0..pairs).filter(|&i| marked(parent, change, i)).collect();
    let worst = |share: fn(&Noise) -> f64| {
        parent
            .iter()
            .chain(change)
            .map(|r| share(&r.noise) * 100.0)
            .fold(0.0, f64::max)
    };
    out.push_str(&format!(
        "noisy pairs (steal > {:.0} % or foreign busy > {:.0} % of host CPU ticks in either run; worst {:.1} % / {:.1} %): {} of {pairs}{}\n",
        STEAL_LIMIT * 100.0,
        FOREIGN_LIMIT * 100.0,
        worst(|n| n.steal),
        worst(|n| n.foreign),
        noisy.len(),
        if noisy.is_empty() {
            String::new()
        } else {
            format!(", pairs {noisy:?}")
        }
    ));
    if same_binary {
        let floors = |comparisons: &[Comparison]| {
            metrics
                .iter()
                .zip(comparisons)
                .map(|(m, c)| format!("{} {:.1} %", m.name, c.floor() * 100.0))
                .collect::<Vec<_>>()
                .join("; ")
        };
        out.push_str(&format!(
            "A/A floor (widest IQR or median gap, share of the median): {}\n",
            floors(&comparisons)
        ));
        let quiet = |runs: &[Run]| -> Vec<Run> {
            (0..pairs)
                .filter(|i| !noisy.contains(i))
                .map(|i| runs[i].clone())
                .collect()
        };
        let (p, c) = (quiet(parent), quiet(change));
        out.push_str(&format!(
            "A/A floor without the noisy pairs ({} left): {}\n",
            p.len(),
            if p.is_empty() {
                "none left".to_string()
            } else {
                floors(&compare(metrics, &p, &c))
            }
        ));
    }
    out
}

/// Round a measured value to six decimals for the trajectory file.
fn rounded(v: f64) -> Value {
    Value::F64((v * 1e6).round() / 1e6)
}

/// Everything but the metrics that one trajectory row records.
struct RowMeta<'a> {
    revision: &'a str,
    workload: &'a str,
    seeds: &'a [u64],
    side: &'a str,
    pr: Option<u64>,
    round: Option<u64>,
    host: Value,
}

/// One `BENCH_trajectory.json` row: one side of a round, each metric's
/// q1 / median / q3 over its runs.
fn render_row(meta: &RowMeta<'_>, metrics: &[Metric], runs: &[Run]) -> String {
    let n = runs.len() as u64;
    let summaries = metrics
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let s = stats::summarize(&column(runs, i));
            let entry = json::obj(vec![
                ("q1", rounded(s.q1)),
                ("median", rounded(s.median)),
                ("q3", rounded(s.q3)),
                ("n", Value::U64(n)),
                ("unit", Value::String(m.unit.clone())),
            ]);
            (m.name.clone(), entry)
        })
        .collect();
    let body = vec![
        ("n", Value::U64(n)),
        (
            "attempted",
            Value::U64(runs.iter().map(|r| r.attempted).sum()),
        ),
        ("failed", Value::U64(runs.iter().map(|r| r.failed).sum())),
        ("metrics", Value::Object(summaries)),
        (
            "note",
            Value::String(
                "alternating pairs run by crates/bench/src/bin/pairs.rs, parent first on even pair index; attempted and failed are summed over the runs".into(),
            ),
        ),
    ];
    render_fields(meta, body)
}

/// The A/A floor row of a round that ran one binary on both sides: each
/// metric's floor as a share of the median, so the trajectory keeps the
/// floor a later claim is judged against.
fn render_floor_row(meta: &RowMeta<'_>, metrics: &[Metric], comparisons: &[Comparison]) -> String {
    let floors = metrics
        .iter()
        .zip(comparisons)
        .map(|(m, c)| (m.name.clone(), rounded(c.floor())))
        .collect();
    let pairs = comparisons.first().map_or(0, |c| c.pairs);
    let body = vec![
        ("n", Value::U64(pairs as u64)),
        ("floor", Value::Object(floors)),
        (
            "note",
            Value::String(
                "A/A floor per metric: the widest of both sides' interquartile spreads and the gap between their medians, as a share of the parent's median".into(),
            ),
        ),
    ];
    render_fields(meta, body)
}

/// One trajectory row: `meta`'s fields around `body`.
fn render_fields(meta: &RowMeta<'_>, body: Vec<(&str, Value)>) -> String {
    let mut fields = vec![
        ("revision", Value::String(meta.revision.into())),
        ("source", Value::String("measured".into())),
        ("workload", Value::String(meta.workload.into())),
        (
            "seeds",
            Value::Array(meta.seeds.iter().map(|&s| Value::U64(s)).collect()),
        ),
    ];
    fields.extend(body);
    fields.extend(meta.pr.map(|pr| ("pr", Value::U64(pr))));
    fields.push(("side", Value::String(meta.side.into())));
    fields.extend(meta.round.map(|r| ("round", Value::U64(r))));
    fields.push(("host", meta.host.clone()));
    serde_json::to_string(&json::obj(fields)).expect("a Value tree always serializes")
}

/// `text` (a trajectory file) with `rows` appended to its `rows` list.
fn append_rows(text: &str, rows: &[String]) -> Result<String, String> {
    json::parse(text)?;
    let end = text
        .trim_end()
        .strip_suffix('}')
        .map(str::trim_end)
        .and_then(|t| t.strip_suffix(']'))
        .map(str::trim_end)
        .ok_or("the file does not end with its rows list")?;
    let mut out = end.to_string();
    for row in rows {
        out.push_str(",\n  ");
        out.push_str(row);
    }
    out.push_str("\n ]\n}\n");
    json::parse(&out)?;
    Ok(out)
}

struct Args {
    parent: PathBuf,
    change: PathBuf,
    workload: String,
    seeds: Vec<u64>,
    revisions: Option<(String, String)>,
    pr: Option<u64>,
    round: Option<u64>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut positional = Vec::new();
    let (mut workload, mut seeds) = (None, None);
    let (mut revisions, mut pr, mut round) = (None, None, None);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().cloned().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value()?),
            "--seeds" => seeds = Some(parse_seeds(&value()?)?),
            "--append" => {
                let v = value()?;
                let (p, c) = v
                    .split_once(',')
                    .ok_or("--append takes <parent>,<change>")?;
                revisions = Some((p.to_string(), c.to_string()));
            }
            "--pr" => pr = Some(value()?.parse().map_err(|_| "bad --pr")?),
            "--round" => round = Some(value()?.parse().map_err(|_| "bad --round")?),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            path => positional.push(PathBuf::from(path)),
        }
    }
    let [parent, change] = <[PathBuf; 2]>::try_from(positional)
        .map_err(|_| "give two benchmark binaries: <parent> <change>")?;
    Ok(Args {
        parent,
        change,
        workload: workload.ok_or("--workload is required")?,
        seeds: seeds.ok_or("--seeds is required")?,
        revisions,
        pr,
        round,
    })
}

fn stdout_of(cmd: &mut Command) -> Result<String, String> {
    let out = cmd.output().map_err(|e| format!("{cmd:?}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{cmd:?} exited with {}", out.status));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

fn run_once(bin: &Path, workload: &str, seed: u64, spec: &Spec) -> Result<Run, String> {
    let text = stdout_of(Command::new(bin).args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &spec.run_seconds.to_string(),
        "--trace",
        "0",
    ]))?;
    let line = text.lines().last().ok_or("no result line")?;
    parse_result(line, &spec.metrics)
}

/// [`run_once`], with the host's noise over the run.
fn run_measured(bin: &Path, workload: &str, seed: u64, spec: &Spec) -> Result<Run, String> {
    let before = Ticks::now();
    let mut run = run_once(bin, workload, seed, spec)?;
    run.noise = Noise::between(&before, &Ticks::now());
    Ok(run)
}

fn same_binary(a: &Path, b: &Path) -> bool {
    matches!((a.canonicalize(), b.canonicalize()), (Ok(a), Ok(b)) if a == b)
}

fn real_main() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    let spec = parse_spec(&stdout_of(Command::new(&args.parent).arg("--describe"))?)?;
    let metrics = &spec.metrics;
    let (mut parent, mut change) = (Vec::new(), Vec::new());
    for (i, &seed) in args.seeds.iter().enumerate() {
        let order = if parent_first(i) {
            [(&args.parent, true), (&args.change, false)]
        } else {
            [(&args.change, false), (&args.parent, true)]
        };
        for (bin, is_parent) in order {
            let run = run_measured(bin, &args.workload, seed, &spec)?;
            eprintln!(
                "[pairs] pair {i} seed {seed} {}: {}; steal {:.1} %, foreign busy {:.1} %",
                if is_parent { "parent" } else { "change" },
                metrics
                    .iter()
                    .zip(&run.values)
                    .map(|(m, v)| format!("{} {}", m.name, num(*v)))
                    .collect::<Vec<_>>()
                    .join(", "),
                run.noise.steal * 100.0,
                run.noise.foreign * 100.0
            );
            if is_parent {
                parent.push(run);
            } else {
                change.push(run);
            }
        }
    }
    println!(
        "{}: {} pairs at seeds {:?}; parent {}, change {}",
        args.workload,
        args.seeds.len(),
        args.seeds,
        args.parent.display(),
        args.change.display()
    );
    let same = same_binary(&args.parent, &args.change);
    print!("{}", render_report(metrics, &parent, &change, same));
    if let Some((parent_rev, change_rev)) = &args.revisions {
        let host = host::host_block(Path::new("."));
        let meta = |revision, side| RowMeta {
            revision,
            workload: &args.workload,
            seeds: &args.seeds,
            side,
            pr: args.pr,
            round: args.round,
            host: host.clone(),
        };
        let mut rows = vec![
            render_row(&meta(parent_rev, "parent"), metrics, &parent),
            render_row(&meta(change_rev, "change"), metrics, &change),
        ];
        if same {
            let comparisons = compare(metrics, &parent, &change);
            rows.push(render_floor_row(
                &meta(parent_rev, "aa-floor"),
                metrics,
                &comparisons,
            ));
        }
        let path = Path::new("BENCH_trajectory.json");
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        std::fs::write(path, append_rows(&text, &rows)?)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("[pairs] appended {} rows to {}", rows.len(), path.display());
    }
    Ok(())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("[pairs] error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str, lower_is_better: bool) -> Metric {
        Metric {
            name: name.into(),
            unit: "s".into(),
            lower_is_better,
        }
    }

    fn run(values: &[f64]) -> Run {
        Run {
            correct: true,
            attempted: 10,
            failed: 0,
            values: values.to_vec(),
            noise: Noise::default(),
        }
    }

    #[test]
    fn seeds_take_ranges_and_lists() {
        assert_eq!(parse_seeds("9701-9704"), Ok(vec![9701, 9702, 9703, 9704]));
        assert_eq!(parse_seeds("5, 9,11"), Ok(vec![5, 9, 11]));
        assert!(parse_seeds("9-1").is_err());
        assert!(parse_seeds("x").is_err());
    }

    #[test]
    fn the_parent_goes_first_on_even_pairs() {
        assert_eq!(
            (0..4).map(parent_first).collect::<Vec<_>>(),
            [true, false, true, false]
        );
    }

    #[test]
    fn a_comparison_counts_won_pairs_by_direction_and_tests_the_gap() {
        let parent = [10.0, 11.0, 12.0, 13.0, 14.0];
        let change = [9.0, 10.0, 12.5, 11.0, 13.0];
        let lower = Comparison::of(&parent, &change, true);
        assert_eq!((lower.won, lower.pairs), (4, 5));
        assert_eq!(lower.parent.median, 12.0);
        assert_eq!((lower.parent.q1, lower.parent.q3), (10.5, 13.5));
        assert_eq!(lower.change.median, 11.0);
        assert!(!lower.resolved(), "a gap of 1 inside an IQR of 3");
        assert!((lower.delta() + 1.0 / 12.0).abs() < 1e-12);
        assert_eq!(Comparison::of(&parent, &change, false).won, 1);
        let far = Comparison::of(&parent, &[1.0, 1.0, 1.0, 1.0, 1.0], true);
        assert!(far.resolved());
    }

    #[test]
    fn the_aa_floor_is_the_widest_spread_or_gap() {
        let same = Comparison::of(&[10.0, 10.0, 10.0], &[10.0, 10.0, 10.0], true);
        assert_eq!(same.floor(), 0.0);
        let c = Comparison::of(&[9.0, 10.0, 11.0, 10.0], &[10.0, 10.0, 10.0, 10.0], true);
        assert_eq!(c.floor(), c.parent.spread());
        assert!(c.floor() > 0.0);
    }

    #[test]
    fn off_cpu_is_wall_minus_cpu() {
        let metrics = [metric("wall_s", true), metric("cpu_s", true)];
        let runs = [run(&[3.0, 2.5]), run(&[4.0, 1.0])];
        assert_eq!(off_cpu(&metrics, &runs), Some(vec![0.5, 3.0]));
        assert_eq!(off_cpu(&metrics[..1], &runs), None);
    }

    #[test]
    fn result_lines_and_the_spec_are_read() {
        let spec = r#"{"run_seconds": 6, "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower"},
            {"name": "zones_per_s", "unit": "1/s", "better": "higher"}]}"#;
        let Spec {
            metrics,
            run_seconds,
        } = parse_spec(spec).unwrap();
        assert_eq!(run_seconds, 6);
        assert!(parse_spec(r#"{"end_to_end": []}"#).is_err());
        assert_eq!(
            metrics[1],
            Metric {
                name: "zones_per_s".into(),
                unit: "1/s".into(),
                lower_is_better: false
            }
        );
        let line = r#"{"correct":true,"attempted":14000,"failed":0,"metrics":{"wall_s":{"value":1.5,"unit":"s"},"zones_per_s":{"value":9000,"unit":"1/s"}}}"#;
        let got = parse_result(line, &metrics).unwrap();
        assert_eq!(
            got,
            Run {
                correct: true,
                attempted: 14000,
                failed: 0,
                values: vec![1.5, 9000.0],
                noise: Noise::default(),
            }
        );
        assert!(parse_result(r#"{"metrics":{}}"#, &metrics).is_err());
    }

    #[test]
    fn rows_render_in_the_trajectory_shape_and_append() {
        let metrics = [metric("wall_s", true)];
        let runs = [run(&[1.0]), run(&[3.0]), run(&[2.0])];
        let meta = RowMeta {
            revision: "abc1234",
            workload: "cold_scan",
            seeds: &[1, 2, 3],
            side: "parent",
            pr: Some(46),
            round: Some(1),
            host: json::obj(vec![("nproc", Value::U64(2))]),
        };
        let row = render_row(&meta, &metrics, &runs);
        assert!(row.starts_with(r#"{"revision":"abc1234","source":"measured","workload":"cold_scan","seeds":[1,2,3],"n":3,"attempted":30,"failed":0,"metrics":{"wall_s":{"q1":1.0,"median":2.0,"q3":3.0,"n":3,"unit":"s"}}"#), "{row}");
        assert!(
            row.ends_with(r#""pr":46,"side":"parent","round":1,"host":{"nproc":2}}"#),
            "{row}"
        );
        let file = "{\n \"about\": \"x\",\n \"rows\": [\n  {\"revision\": \"a\"}\n ]\n}\n";
        let out = append_rows(file, &[row.clone(), row]).unwrap();
        assert!(out.starts_with("{\n \"about\": \"x\",\n \"rows\": [\n  {\"revision\": \"a\"},\n  {\"revision\":\"abc1234\""));
        assert!(out.ends_with("}}\n ]\n}\n"));
        assert_eq!(out.lines().count(), 8);
        assert!(append_rows("{\"rows\": [] trailing", &[]).is_err());

        // An A/A round's floor row: each metric's floor, beside the sides.
        let parent = [run(&[2.0]), run(&[2.2])];
        let comparisons = compare(&metrics, &parent, &parent);
        let floor = RowMeta {
            side: "aa-floor",
            ..meta
        };
        let row = render_floor_row(&floor, &metrics, &comparisons);
        assert!(row.starts_with(r#"{"revision":"abc1234","source":"measured","workload":"cold_scan","seeds":[1,2,3],"n":2,"floor":{"wall_s":0.142857},"note":"A/A floor per metric"#), "{row}");
        assert!(
            row.ends_with(r#""pr":46,"side":"aa-floor","round":1,"host":{"nproc":2}}"#),
            "{row}"
        );
        assert!(append_rows(file, &[row]).is_ok());
    }

    #[test]
    fn the_report_has_a_line_per_metric_off_cpu_and_the_aa_floor() {
        let metrics = [metric("wall_s", true), metric("cpu_s", true)];
        let parent = [run(&[2.0, 1.5]), run(&[2.2, 1.6])];
        let change = [run(&[1.8, 1.4]), run(&[2.0, 1.5])];
        let report = render_report(&metrics, &parent, &change, false);
        assert_eq!(report.lines().count(), 7, "{report}");
        assert!(report.contains("bit-equal pair by pair: none\n"));
        assert!(report
            .lines()
            .nth(3)
            .unwrap()
            .starts_with("off-CPU (wall − cpu)"));
        assert!(!report.contains("A/A floor"));
        let aa = render_report(&metrics, &parent, &parent, true);
        assert!(
            aa.contains("A/A floor (widest IQR or median gap, share of the median): wall_s 14.3 %; cpu_s 9.7 %\n"),
            "{aa}"
        );
        assert!(report.contains("  -0.100 s  "), "{report}");
        assert!(aa.contains("bit-equal pair by pair: wall_s, cpu_s\n"));
        assert!(report.contains("): 0 of 2\n"), "{report}");
        assert!(
            aa.contains("A/A floor without the noisy pairs (2 left): wall_s 14.3 %; cpu_s 9.7 %\n"),
            "{aa}"
        );
    }

    /// A two-CPU host's `/proc/stat`, as Linux writes it.
    const PROC_STAT: &str = "cpu  2905799 0 110192 14097717 31906 0 8943 83490 0 0
cpu0 1155376 0 62860 7338490 13086 0 4677 52471 0 0
cpu1 1750422 0 47332 6759226 18820 0 4265 31019 0 0
intr 19470300 0 0 0
ctxt 52093413
btime 1792000000
processes 417356
procs_running 2
procs_blocked 0
";

    #[test]
    fn proc_stat_and_own_ticks_are_read() {
        let busy = 2_905_799 + 110_192 + 8_943;
        assert_eq!(
            parse_proc_stat(PROC_STAT),
            Some(Ticks {
                busy,
                steal: 83_490,
                total: busy + 14_097_717 + 31_906 + 83_490,
                own: 0,
            })
        );
        // A kernel without steal accounting writes fewer fields.
        assert_eq!(parse_proc_stat("cpu  1 2 3 4\n"), None);
        assert_eq!(parse_proc_stat("cpu0 1 0 1 1 0 0 0 0\n"), None);
        let stat = "4242 (pairs (x) y) S 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    7 3 250 40 20 0 1 0 100 0 0";
        assert_eq!(parse_own_ticks(stat), Some(7 + 3 + 250 + 40));
        assert_eq!(parse_own_ticks("4242 (pairs) S 1 2"), None);
    }

    #[test]
    fn noise_is_a_share_of_host_ticks_and_marks_its_pair() {
        let before = Ticks {
            busy: 1_000,
            steal: 10,
            total: 5_000,
            own: 300,
        };
        // 1 200 ticks pass on the host; the run took 600 of the 700 busy.
        let after = Ticks {
            busy: 1_700,
            steal: 22,
            total: 6_200,
            own: 900,
        };
        let noise = Noise::between(&before, &after);
        assert!((noise.steal - 0.01).abs() < 1e-12);
        assert!((noise.foreign - 100.0 / 1_200.0).abs() < 1e-12);
        assert!(!noise.noisy());
        let loud = |steal, foreign| Noise { steal, foreign };
        assert!(loud(0.03, 0.0).noisy());
        assert!(loud(0.0, 0.2).noisy());

        let metrics = [metric("wall_s", true)];
        let mut parent = vec![run(&[2.0]), run(&[2.1]), run(&[2.2]), run(&[3.0])];
        let change = parent.clone();
        parent[3].noise = loud(0.0, 0.4);
        assert_eq!(
            (0..4)
                .map(|i| marked(&parent, &change, i))
                .collect::<Vec<_>>(),
            [false, false, false, true]
        );
        let aa = render_report(&metrics, &parent, &change, true);
        assert!(
            aa.contains("worst 0.0 % / 40.0 %): 1 of 4, pairs [3]\n"),
            "{aa}"
        );
        assert!(
            aa.contains("A/A floor without the noisy pairs (3 left): wall_s 9.5 %\n"),
            "{aa}"
        );
    }
}
