//! Unit tests of the benchmark's own arithmetic and formats, plus the
//! smoke run: all four workloads and the traced run on the tiny world.

use super::*;
use crate::stats::{median, paired_self_time, quartiles, summarize, worsening};
use crate::trace::Tracer;

/// Names the contract accepts: a letter or digit first, then at most 63
/// more of letters, digits, `_`, `.` and `-`.
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Units: at most 16 of letters, digits, `_`, `/`, `%`, `.` and `-`.
fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn tiny(lease: Lease, tag: &str) -> Settings {
    let mut s = settings(WorldKind::Tiny, 42);
    s.lease = lease;
    // Tests run on parallel threads of one process: one state root each.
    s.state_dir = s.state_dir.join(tag);
    s
}

#[test]
fn median_and_quartiles_match_pythons_exclusive_method() {
    assert_eq!(median(&[]), 0.0);
    assert_eq!(median(&[3.0]), 3.0);
    assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), (2.75, 8.25));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
    // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
    assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), (1.5, 12.0));
    assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    let s = summarize(&ten);
    assert_eq!((s.median, s.n), (5.5, 10));
    assert!((s.spread() - 1.0).abs() < 1e-12);
}

#[test]
fn self_time_is_the_median_paired_difference() {
    // query_at − handle on the same inputs; a pair where the inner probe
    // read longer (timer noise) counts as 0, not as negative time.
    let outer = [900.0, 1000.0, 1100.0, 500.0];
    let inner = [400.0, 400.0, 400.0, 600.0];
    assert_eq!(paired_self_time(&outer, &inner), 550.0);
    assert_eq!(paired_self_time(&[], &[]), 0.0);

    let mut tracer = Tracer::new(true);
    for i in 0..3u64 {
        let group = format!("probe#{i}");
        tracer.span("outer", &group, None, || std::hint::black_box(i));
        tracer.span("inner", &group, None, || std::hint::black_box(i));
    }
    assert_eq!(tracer.durations("outer").len(), 3);
    assert_eq!(tracer.durations("inner").len(), 3);
    let mut off = Tracer::new(false);
    off.span("x", "g", None, || ());
    assert!(off.spans().is_empty(), "a disabled tracer records nothing");
}

#[test]
fn worsening_follows_the_metrics_direction() {
    assert!((worsening(10.0, 11.0, true) - 0.1).abs() < 1e-12);
    assert!((worsening(10.0, 11.0, false) + 0.1).abs() < 1e-12);
    assert_eq!(worsening(0.0, 5.0, true), 0.0);
}

#[test]
fn spans_nest_under_their_repetition() {
    let mut tracer = Tracer::new(true);
    let rep = tracer.open("rep", "w#0", None);
    tracer.span("setup", "w#0", rep, || ());
    tracer.close(rep);
    let spans = tracer.spans();
    assert_eq!((spans[1].name, spans[1].parent), ("setup", rep));
    assert!(spans[0].end_ns >= spans[1].end_ns);
    let text = serde_json::to_string(&tracer.to_json()).unwrap();
    let parsed = json::parse(&text).unwrap();
    assert!(matches!(parsed, Value::Array(ref v) if v.len() == 2));
}

#[test]
fn metric_and_workload_names_fit_the_contract() {
    let mut names: Vec<&str> = Vec::new();
    for m in spec::END_TO_END.iter().chain(spec::PER_LAYER) {
        assert!(valid_name(m.name), "bad metric name {}", m.name);
        assert!(valid_unit(m.unit), "bad unit {} of {}", m.unit, m.name);
        names.push(m.name);
    }
    for w in Workload::ALL {
        assert!(valid_name(w.name()), "bad workload name {}", w.name());
        assert!(
            w.why().len() <= 200 && !w.why().contains('\n'),
            "{}",
            w.name()
        );
        assert_eq!(Workload::from_name(w.name()), Some(w));
        names.push(w.name());
    }
    let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(unique.len(), names.len(), "a name is used twice");

    for bad in ["", "-x", ".x", "a b", "a/b", &"x".repeat(65)] {
        assert!(!valid_name(bad), "{bad:?} accepted");
    }
    assert!(valid_name("dns-wire.encode_ns") && valid_unit("MB/s"));
    assert!(!valid_unit("") && !valid_unit("a b") && !valid_unit(&"u".repeat(17)));

    assert!((1..=16).contains(&spec::END_TO_END.len()));
    assert!((1..=128).contains(&spec::PER_LAYER.len()));
    assert!(spec::END_TO_END
        .iter()
        .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    assert!(spec::PER_LAYER.iter().all(|m| m.bound.is_none()));
    let setup = spec::END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .unwrap();
    assert_eq!((setup.unit, setup.better), ("s", spec::Better::Lower));
    assert!(spec::END_TO_END.iter().all(|m| m.bound <= setup.bound));
}

#[test]
fn benchmark_json_is_what_describe_prints() {
    // Walk up from the package directory (either package that builds this
    // file) to the repository root.
    let mut dir = std::env::current_dir().unwrap();
    let path = loop {
        let candidate = dir.join("BENCHMARK.json");
        if candidate.is_file() {
            break candidate;
        }
        assert!(dir.pop(), "BENCHMARK.json not found above the package");
    };
    let on_disk = std::fs::read_to_string(path).unwrap();
    assert!(on_disk.len() <= 64 * 1024);
    assert_eq!(
        json::parse(&on_disk).unwrap(),
        json::parse(&report::describe()).unwrap()
    );
    let described = json::parse(&report::describe()).unwrap();
    let keys: Vec<&str> = match &described {
        Value::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("BENCHMARK.json is not an object"),
    };
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}

#[test]
fn json_reader_accepts_the_shims_output_and_nothing_malformed() {
    let value = Value::Object(vec![
        (
            "text".into(),
            Value::String("quote \" slash \\ tab \t nl \n é ☃".into()),
        ),
        ("neg".into(), Value::I64(-7)),
        ("big".into(), Value::U64(u64::MAX)),
        ("float".into(), Value::F64(1.25e-9)),
        ("whole".into(), Value::F64(3.0)),
        ("none".into(), Value::Null),
        (
            "list".into(),
            Value::Array(vec![Value::Bool(true), Value::Array(vec![])]),
        ),
        ("empty".into(), Value::Object(vec![])),
    ]);
    for text in [
        serde_json::to_string(&value).unwrap(),
        serde_json::to_string_pretty(&value).unwrap(),
    ] {
        let back = json::parse(&text).unwrap();
        assert_eq!(json::get(&back, "text"), json::get(&value, "text"));
        assert_eq!(json::get(&back, "big"), Some(&Value::U64(u64::MAX)));
        assert_eq!(json::as_f64(json::get(&back, "neg").unwrap()), Some(-7.0));
        assert_eq!(
            json::as_f64(json::get(&back, "float").unwrap()),
            Some(1.25e-9)
        );
        assert_eq!(json::as_f64(json::get(&back, "whole").unwrap()), Some(3.0));
        assert_eq!(json::get(&back, "none"), Some(&Value::Null));
    }
    for bad in [
        "",
        "{",
        "[1,]",
        "{\"a\":}",
        "{\"a\" 1}",
        "{a:1}",
        "\"open",
        "1 2",
        "nul",
        "[1e]",
        "\"\\x\"",
        "\"\\ud800\"",
        "{\"a\":1,}",
        "\"raw\nnewline\"",
    ] {
        assert!(json::parse(bad).is_err(), "{bad:?} accepted");
    }
    assert!(
        json::parse(&"[".repeat(1000)).is_err(),
        "unbounded nesting accepted"
    );
}

#[test]
fn proc_and_mount_lines_parse() {
    let stat = "1234 (bench (mark) x) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0 100 200 300";
    assert_eq!(host::parse_stat_cpu_ticks(stat), Some(300));
    assert_eq!(host::parse_stat_cpu_ticks("garbage"), None);
    let status = "Name:\tx\nVmPeak:\t  900 kB\nVmHWM:\t  2048 kB\nVmRSS:\t 100 kB\n";
    assert_eq!(host::parse_status_kb(status, "VmHWM:"), Some(2048));
    assert_eq!(host::parse_status_kb(status, "VmSwap:"), None);
    let mounts = "21 1 8:1 / / rw - ext4 /dev/sda1 rw\n\
                  30 21 0:25 / /root/scratch rw - tmpfs tmpfs rw\n\
                  31 21 0:26 / /root/sc rw - xfs /dev/sdb rw\n";
    assert_eq!(
        host::parse_mountinfo(mounts, "/root/scratch/state").as_deref(),
        Some("tmpfs")
    );
    assert_eq!(
        host::parse_mountinfo(mounts, "/root/scratchy").as_deref(),
        Some("ext4")
    );
    assert_eq!(
        host::parse_mountinfo(mounts, "/root/sc").as_deref(),
        Some("xfs")
    );
}

#[test]
fn arguments_parse_as_the_driver_sends_them() {
    let args = |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
    let a = args("--workload cold_scan --seed 7 --seconds 6 --trace 0").unwrap();
    assert_eq!(a.workload.as_deref(), Some("cold_scan"));
    assert_eq!(
        (a.seed, a.seconds, a.trace),
        (Some(7), Some(6.0), Some(false))
    );
    assert_eq!(args("--trace 1").unwrap().trace, Some(true));
    assert_eq!(
        args("--trace --seed 3").unwrap(),
        Args {
            trace: Some(true),
            seed: Some(3),
            ..Args::default()
        }
    );
    assert!(args("--smoke").unwrap().smoke && args("--repeat-check").unwrap().repeat_check);
    for bad in [
        "--seed",
        "--seed x",
        "--seconds -1",
        "--seconds nan",
        "--frobnicate",
    ] {
        assert!(args(bad).is_err(), "{bad:?} accepted");
    }
}

#[test]
fn result_line_and_output_files_are_well_formed() {
    let settings = tiny(Lease::SAFE, "files");
    let out = run_here(Workload::ColdScan, &settings, 0.0, false).unwrap();
    assert!(out.correct(), "{:?}", out.problems);

    let line = json::parse(&report::result_line(&out)).unwrap();
    let keys: Vec<&str> = match &line {
        Value::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("result line is not an object"),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let Some(Value::Object(metrics)) = json::get(&line, "metrics") else {
        panic!("no metrics");
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = spec::END_TO_END.iter().map(|m| m.name).collect();
    assert_eq!(names, want);
    for (name, m) in metrics {
        let v = json::as_f64(json::get(m, "value").unwrap()).unwrap();
        assert!(v > 0.0, "{name} is {v}: end-to-end metrics are never 0");
    }

    let file =
        json::parse(&serde_json::to_string_pretty(&report::run_file(&out, &settings)).unwrap())
            .unwrap();
    let provenance = json::get(&file, "provenance").unwrap();
    let host = json::get(provenance, "host").unwrap();
    for key in [
        "available_parallelism",
        "rustc",
        "profile",
        "git_revision",
        "state_fs",
    ] {
        assert!(json::get(host, key).is_some(), "host block lacks {key}");
    }
    for key in ["seed", "world", "epochs", "fabric_lease"] {
        assert!(
            json::get(provenance, key).is_some(),
            "provenance lacks {key}"
        );
    }
    let wall = json::get(json::get(&file, "metrics").unwrap(), "wall_s").unwrap();
    for key in ["value", "unit", "q1", "q3", "spread", "n", "bound"] {
        assert!(json::get(wall, key).is_some(), "wall_s lacks {key}");
    }
    assert!(!settings.state_dir.exists(), "state directory left behind");
}

#[test]
fn a_one_poll_lease_voids_the_repetition_instead_of_changing_the_numbers() {
    // A coordinator that never waits expires every lease before the
    // worker's first heartbeat: shards are reassigned, then abandoned.
    let lease = Lease {
        timeout_polls: 1,
        poll_wait_ms: 0,
    };
    let out = run_here(Workload::FabricScan, &tiny(lease, "lease"), 0.0, false).unwrap();
    assert!(out.attempted > 0);
    assert_eq!(
        out.failed, out.attempted,
        "every zone of a void repetition fails"
    );

    let safe = run_here(Workload::FabricScan, &tiny(Lease::SAFE, "safe"), 0.0, false).unwrap();
    assert!(safe.correct(), "{:?}", safe.problems);
    assert_eq!(safe.failed, 0);
    assert!(Lease::SAFE.poll_wait_ms * u64::from(Lease::SAFE.timeout_polls) >= 2000);
}

#[test]
fn smoke_runs_every_workload_and_the_traced_run() {
    let outs = smoke_runs(&tiny(Lease::SAFE, "smoke")).unwrap();
    assert_eq!(outs.len(), Workload::ALL.len() + 1);
    for out in &outs {
        assert!(out.correct(), "{}: {:?}", out.workload.name(), out.problems);
        assert_eq!(out.failed, 0, "{}", out.workload.name());
        assert!(out.metrics.iter().all(|m| m.summary.median.is_finite()));
    }

    let traced = outs.last().unwrap();
    let names: Vec<&str> = traced.metrics.iter().map(|m| m.spec.name).collect();
    let want: Vec<&str> = spec::PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(names, want, "the traced run reports every per-layer metric");
    for phase in ["rep", "setup", "measure", "resume", "report"] {
        assert!(
            !traced.tracer.durations(phase).is_empty(),
            "no {phase} span"
        );
    }
    assert!(traced.value("bootscan.scan_zone_samples").unwrap() > 0.0);
    assert_eq!(traced.value("scan-fabric.lease_expiries"), Some(0.0));
    assert_eq!(traced.value("scan-continuous.skipped_epochs"), Some(0.0));
}
