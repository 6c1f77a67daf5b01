//! What a run leaves behind: the result line the driver reads, the
//! output file with host and provenance, the span file, and the table a
//! person reads.

use crate::host;
use crate::json::obj;
use crate::run::RunOutput;
use crate::spec;
use crate::sut::{Settings, WorldKind};
use serde_json::Value;
use std::path::{Path, PathBuf};

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`, each metric a value with all its digits and
/// its unit.
pub fn result_line(out: &RunOutput) -> String {
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            (
                m.spec.name.to_string(),
                obj(vec![
                    ("value", Value::F64(m.summary.median)),
                    ("unit", Value::String(m.spec.unit.into())),
                ]),
            )
        })
        .collect();
    let line = obj(vec![
        ("correct", Value::Bool(out.correct())),
        ("attempted", Value::U64(out.attempted)),
        ("failed", Value::U64(out.failed)),
        ("metrics", Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("a Value tree always serializes")
}

/// Seed, scale, lease settings and host: the block every output file
/// carries, so a number can be told apart from the box and the
/// configuration that produced it.
fn provenance(settings: &Settings) -> Value {
    let world = match settings.world {
        WorldKind::Paper { scale } => obj(vec![
            ("config", Value::String("paper_default".into())),
            ("scale", Value::U64(scale)),
        ]),
        WorldKind::Tiny => obj(vec![("config", Value::String("tiny".into()))]),
    };
    obj(vec![
        ("host", host::host_block(&settings.state_dir)),
        ("seed", Value::U64(settings.seed)),
        ("world", world),
        ("epochs", Value::U64(u64::from(settings.epochs))),
        (
            "fabric_lease",
            obj(vec![
                (
                    "lease_timeout_polls",
                    Value::U64(u64::from(settings.lease.timeout_polls)),
                ),
                ("poll_wait_ms", Value::U64(settings.lease.poll_wait_ms)),
            ]),
        ),
    ])
}

/// The output file of one run: every metric with its quartiles, spread
/// and sample count next to the median.
pub fn run_file(out: &RunOutput, settings: &Settings) -> Value {
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            let s = &m.summary;
            let mut fields = vec![
                ("value", Value::F64(s.median)),
                ("unit", Value::String(m.spec.unit.into())),
                ("better", Value::String(m.spec.better.as_str().into())),
                ("q1", Value::F64(s.q1)),
                ("q3", Value::F64(s.q3)),
                ("spread", Value::F64(s.spread())),
                ("n", Value::U64(s.n as u64)),
                ("what", Value::String(m.spec.what.into())),
            ];
            if let Some(bound) = m.spec.bound {
                fields.push(("bound", Value::F64(bound)));
            }
            (m.spec.name.to_string(), obj(fields))
        })
        .collect();
    obj(vec![
        ("workload", Value::String(out.workload.name().into())),
        ("why", Value::String(out.workload.why().into())),
        ("traced", Value::Bool(out.traced)),
        ("provenance", provenance(settings)),
        ("correct", Value::Bool(out.correct())),
        ("attempted", Value::U64(out.attempted)),
        ("failed", Value::U64(out.failed)),
        (
            "problems",
            Value::Array(out.problems.iter().cloned().map(Value::String).collect()),
        ),
        ("metrics", Value::Object(metrics)),
        ("detail", out.detail.clone()),
    ])
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).expect("a Value tree always serializes");
    std::fs::write(path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))
}

/// Write the run's output file (and span file, for a traced run) under
/// `dir`; returns the paths written.
pub fn write_files(
    out: &RunOutput,
    settings: &Settings,
    dir: &Path,
) -> Result<Vec<PathBuf>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let kind = if out.traced { "layers" } else { "end_to_end" };
    let path = dir.join(format!("{kind}-{}.json", out.workload.name()));
    write_json(&path, &run_file(out, settings))?;
    let mut written = vec![path];
    if out.traced {
        let path = dir.join(format!("trace-{}.json", out.workload.name()));
        let spans = obj(vec![
            ("workload", Value::String(out.workload.name().into())),
            ("provenance", provenance(settings)),
            ("spans", out.tracer.to_json()),
        ]);
        write_json(&path, &spans)?;
        written.push(path);
    }
    Ok(written)
}

/// Every metric by name and unit, for a person.
pub fn print_table(out: &RunOutput) {
    eprintln!(
        "[benchmark] {} ({}): attempted {} failed {} correct {}",
        out.workload.name(),
        if out.traced { "traced" } else { "end to end" },
        out.attempted,
        out.failed,
        out.correct()
    );
    for m in &out.metrics {
        let s = &m.summary;
        eprintln!(
            "  {:<40} {:>16.6} {:<6} q1 {:.6} q3 {:.6} n={}",
            m.spec.name, s.median, m.spec.unit, s.q1, s.q3, s.n
        );
    }
    for p in &out.problems {
        eprintln!("  OUTPUT CHECK FAILED: {p}");
    }
}

/// `BENCHMARK.json`, pretty-printed.
pub fn describe() -> String {
    serde_json::to_string_pretty(&spec::describe()).expect("a Value tree always serializes") + "\n"
}
