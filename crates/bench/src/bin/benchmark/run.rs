//! One run of one workload: repetitions, output checks, metrics.
//!
//! An untraced run repeats (fresh world → measured call → check) until
//! the measured calls add up to the run length, and reports every
//! end-to-end metric as the median over repetitions. A traced run makes
//! one repetition of every workload with spans on — each followed by a
//! second call over the state the first left behind — replays the layer
//! probes, and reports every per-layer metric; its end-to-end numbers are
//! discarded except for `trace_overhead_share`.

use crate::host;
use crate::json::obj;
use crate::spec::{self, MetricSpec};
use crate::stats::{self, Summary};
use crate::sut::{self, probes, Facts, Settings, Workload, ZoneTable};
use crate::trace::Tracer;
use serde_json::Value;

/// No run makes more repetitions than this, however short they are.
const MAX_REPS: usize = 64;

/// Second calls per repetition where the finished state is in memory.
const RESUME_CALLS: usize = 7;

pub struct Metric {
    pub spec: &'static MetricSpec,
    pub summary: Summary,
}

pub struct RunOutput {
    pub workload: Workload,
    pub traced: bool,
    pub metrics: Vec<Metric>,
    /// Zones handed to the workload, summed over repetitions.
    pub attempted: u64,
    /// Failed operations: zones that failed on their own, and every zone
    /// of a void repetition.
    pub failed: u64,
    /// Output-check violations; any makes the run incorrect.
    pub problems: Vec<String>,
    /// Counts behind the metrics, for the output file.
    pub detail: Value,
    pub tracer: Tracer,
}

impl RunOutput {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    #[cfg(test)]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.spec.name == name)
            .map(|m| m.summary.median)
    }
}

/// One repetition's samples and facts.
struct Rep {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    resume_s: Option<f64>,
    rss_mb: f64,
    /// Root+registry and total datagrams of the measured call.
    infra: Option<(u64, u64)>,
    facts: Facts,
    /// The study's last zone table, for the traced run's churn replay check.
    last_epoch: Option<ZoneTable>,
    /// Operations of this repetition that count as failed.
    failed: u64,
    problems: Vec<String>,
}

impl Rep {
    fn zones_per_s(&self) -> f64 {
        self.facts.fresh_zones as f64 / self.wall_s
    }

    fn cpu_ns_per_query(&self) -> f64 {
        self.cpu_s * 1e9 / self.facts.queries.max(1) as f64
    }

    fn queries_per_zone(&self) -> f64 {
        self.facts.queries as f64 / self.facts.fresh_zones.max(1) as f64
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// setup → measure → resume → report, each a span under the repetition's.
fn run_rep(
    tracer: &mut Tracer,
    workload: Workload,
    settings: &Settings,
    tag: &str,
    with_resume: bool,
) -> Result<Rep, String> {
    let group = format!("{}#{tag}", workload.name());
    let rep_span = tracer.open("rep", &group, None);

    let (mut world, setup_ns) =
        tracer.span("setup", &group, rep_span, || sut::build_world(settings));
    let truth = sut::Truth::of(settings, &world);
    if workload == Workload::ContinuousStudy {
        world.release_eco();
    }

    let cpu_before = host::cpu_seconds();
    let (output, wall_ns) = tracer.span("measure", &group, rep_span, || {
        sut::measure(workload, settings, &world, tag)
    });
    let cpu_s = host::cpu_seconds() - cpu_before;
    let rss_mb = host::peak_rss_mb();
    let output = output?;
    let infra = (workload != Workload::ContinuousStudy).then(|| sut::infra_datagrams(&world));

    let mut problems = Vec::new();
    let mut resume_s = None;
    if with_resume {
        // Re-entering a state root takes seconds; carrying an in-memory
        // scan forward takes milliseconds, so it is sampled several times
        // and the repetition reports their median.
        let calls = if workload.resumes_in_memory() {
            RESUME_CALLS
        } else {
            1
        };
        let mut samples = Vec::with_capacity(calls);
        let mut last = None;
        for _ in 0..calls {
            let input = sut::resume_input(&output);
            let (second, resume_ns) = tracer.span("resume", &group, rep_span, || {
                sut::resume(settings, &world, &output, input)
            });
            samples.push(secs(resume_ns));
            last = Some(second?);
        }
        if !last.is_some_and(|second| sut::same_output(&output, &second)) {
            problems.push(format!(
                "{group}: second call did not reproduce the first's output"
            ));
        }
        resume_s = Some(stats::median(&samples));
    }

    let (facts, _) = tracer.span("report", &group, rep_span, || {
        sut::facts(&world, &truth, &output)
    });
    let last_epoch = sut::last_epoch_zones(&output);
    sut::discard(&output);
    tracer.close(rep_span);

    let mut failed = facts.verdicts.failed;
    if let Some(why) = &facts.void {
        eprintln!("[benchmark] {group}: repetition void ({why}); all its zones count as failed");
        failed = facts.seeds;
    }
    if !problems.is_empty() {
        failed = facts.seeds;
    }
    Ok(Rep {
        setup_s: secs(setup_ns),
        wall_s: secs(wall_ns),
        cpu_s,
        resume_s,
        rss_mb,
        infra,
        facts,
        last_epoch,
        failed,
        problems,
    })
}

fn metric(name: &str, values: &[f64]) -> Metric {
    let spec = spec::END_TO_END
        .iter()
        .chain(spec::PER_LAYER)
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the spec"));
    Metric {
        spec,
        summary: stats::summarize(values),
    }
}

fn same<T: PartialEq + std::fmt::Debug>(
    problems: &mut Vec<String>,
    what: &str,
    values: impl Iterator<Item = T>,
) {
    let values: Vec<T> = values.collect();
    if values.windows(2).any(|w| w[0] != w[1]) {
        problems.push(format!("{what} differs across repetitions: {values:?}"));
    }
}

/// The untraced run: every end-to-end metric of `workload`.
pub fn run_untraced(
    workload: Workload,
    settings: &Settings,
    seconds: f64,
) -> Result<RunOutput, String> {
    let mut tracer = Tracer::new(false);
    let mut problems = Vec::new();
    let mut setup_samples = Vec::new();

    let mut reps: Vec<Rep> = Vec::new();
    let mut measured = 0.0;
    while (measured < seconds || reps.len() < spec::MIN_REPS) && reps.len() < MAX_REPS {
        let tag = reps.len().to_string();
        let rep = run_rep(&mut tracer, workload, settings, &tag, false)?;
        measured += rep.wall_s;
        reps.push(rep);
    }

    // The cold scan every other workload's evidence must equal. Untimed
    // apart from its world build, which is one more set-up sample; run
    // last, so its memory is not in the first repetition's VmHWM.
    let evidence = if workload == Workload::ColdScan {
        reps[0].facts.evidence
    } else {
        let rep = run_rep(
            &mut tracer,
            Workload::ColdScan,
            settings,
            "reference",
            false,
        )?;
        setup_samples.push(rep.setup_s);
        rep.facts.evidence
    };
    if reps.iter().any(|r| r.facts.evidence != evidence) {
        problems.push(format!(
            "{}: canonical evidence differs from the cold scan's or across repetitions",
            workload.name()
        ));
    }
    same(
        &mut problems,
        "freshly scanned zones",
        reps.iter().map(|r| r.facts.fresh_zones),
    );
    if workload != Workload::ParallelScan {
        // Shared caches make a parallel scan's cost racy by a few ppm;
        // everywhere else cost is a pure function of the world.
        same(
            &mut problems,
            "logical queries",
            reps.iter().map(|r| r.facts.queries),
        );
        same(
            &mut problems,
            "virtual duration",
            reps.iter().map(|r| r.facts.virtual_us),
        );
    }
    for rep in &mut reps {
        problems.append(&mut rep.problems);
    }

    setup_samples.extend(reps.iter().map(|r| r.setup_s));
    // The journaled workloads make few repetitions; build a few more
    // worlds so the set-up median rests on a handful of samples everywhere.
    while setup_samples.len() < spec::MIN_SETUPS {
        let (world, setup_ns) = tracer.span("setup", "extra", None, || sut::build_world(settings));
        drop(world);
        setup_samples.push(secs(setup_ns));
    }
    let col = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let metrics = vec![
        metric("setup_s", &setup_samples),
        metric("wall_s", &col(&|r| r.wall_s)),
        metric("zones_per_s", &col(&|r| r.zones_per_s())),
        metric("cpu_s", &col(&|r| r.cpu_s)),
        metric("cpu_ns_per_query", &col(&|r| r.cpu_ns_per_query())),
        // VmHWM only ever rises, and later repetitions include the
        // benchmark's own evidence strings: the first one is the SUT's.
        metric("peak_rss_mb", &[reps[0].rss_mb]),
        metric("queries_per_zone", &col(&|r| r.queries_per_zone())),
        metric("virtual_s", &col(&|r| r.facts.virtual_us as f64 / 1e6)),
    ];

    let first = &reps[0].facts;
    let detail = obj(vec![
        ("reps", Value::U64(reps.len() as u64)),
        ("seeds", Value::U64(first.seeds)),
        ("fresh_zones", Value::U64(first.fresh_zones)),
        ("logical_queries", Value::U64(first.queries)),
        ("truth_residue_zones", Value::U64(first.verdicts.residue)),
        (
            "failed_share",
            Value::F64(
                reps.iter().map(|r| r.failed).sum::<u64>() as f64
                    / reps.iter().map(|r| r.facts.seeds).sum::<u64>().max(1) as f64,
            ),
        ),
        (
            "void_repetitions",
            Value::Array(
                reps.iter()
                    .filter_map(|r| r.facts.void.clone())
                    .map(Value::String)
                    .collect(),
            ),
        ),
    ]);

    Ok(RunOutput {
        workload,
        traced: false,
        metrics,
        attempted: reps.iter().map(|r| r.facts.seeds).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        problems,
        detail,
        tracer,
    })
}

fn median_ns(tracer: &Tracer, span: &str) -> f64 {
    stats::median(&tracer.durations(span))
}

fn share(part: u64, whole: u64) -> f64 {
    part as f64 / whole.max(1) as f64
}

/// The traced run: every per-layer metric, from one repetition of each
/// workload (ratios between workloads need them all), a 1-epoch study,
/// the layer probes and the churn replay.
pub fn run_traced(workload: Workload, settings: &Settings) -> Result<RunOutput, String> {
    let mut tracer = Tracer::new(false);
    let untraced = run_rep(&mut tracer, workload, settings, "untraced", false)?;
    tracer = Tracer::new(true);

    let mut reps: Vec<(Workload, Rep)> = Vec::new();
    for w in Workload::ALL {
        let rep = run_rep(&mut tracer, w, settings, "traced", true)?;
        reps.push((w, rep));
    }
    let rep_of = |w: Workload| -> &Rep {
        &reps
            .iter()
            .find(|(x, _)| *x == w)
            .expect("one repetition per workload")
            .1
    };
    let (cold, parallel, fabric, study) = (
        rep_of(Workload::ColdScan),
        rep_of(Workload::ParallelScan),
        rep_of(Workload::FabricScan),
        rep_of(Workload::ContinuousStudy),
    );

    let one_epoch = Settings {
        epochs: 1,
        ..settings.clone()
    };
    let single = run_rep(
        &mut tracer,
        Workload::ContinuousStudy,
        &one_epoch,
        "one-epoch",
        false,
    )?;

    let (world, _) = tracer.span("setup", "layer_probe", None, || sut::build_world(settings));
    let scratch = settings.state_dir.join("probe");
    let mut counts = probes::run(&mut tracer, settings, &world, &scratch)?;
    drop(world);
    let _ = std::fs::remove_dir_all(&scratch);
    let replay_matches = probes::ecosystem(
        &mut tracer,
        settings,
        study.last_epoch.as_deref().unwrap_or_default(),
    );

    let mut problems = std::mem::take(&mut counts.problems);
    for (w, rep) in &reps {
        if rep.facts.evidence != cold.facts.evidence {
            problems.push(format!(
                "{}: evidence differs from the cold scan's",
                w.name()
            ));
        }
        problems.extend(rep.problems.iter().cloned());
    }
    if !replay_matches {
        problems.push(
            "cold scan of the benchmark's own churn replay differs from the study's last epoch"
                .to_string(),
        );
    }

    // The cost stack: what one logical query of the cold scan should cost
    // if it were nothing but the probed layers.
    let encode = median_ns(&tracer, "dns-wire.encode");
    let decode = median_ns(&tracer, "dns-wire.decode");
    let query_at = tracer.durations("netsim.query_at");
    let handle = tracer.durations("dns-server.handle");
    let exchange = stats::paired_self_time(&query_at, &handle);
    let handle = stats::median(&handle);
    let resolve_cold = median_ns(&tracer, "dns-resolver.resolve_cold");
    let queries_per_resolve = counts.resolve_queries as f64 / counts.resolves.max(1) as f64;
    let validate = median_ns(&tracer, "dns-resolver.validate");
    let classify = median_ns(&tracer, "bootscan.classify");
    let per_query = encode + exchange + handle + decode;
    let resolver_self = (resolve_cold - queries_per_resolve * per_query).max(0.0);
    let predicted = per_query + (resolver_self + validate + classify) / cold.queries_per_zone();
    let measured = cold.cpu_ns_per_query();

    let scan_zone = tracer.durations("bootscan.scan_zone");
    let ops = fabric.facts.ops.clone().unwrap_or_default();
    let epoch_queries = &study.facts.epoch_queries;
    let incr_epoch_s =
        (study.wall_s - single.wall_s) / f64::from(settings.epochs.saturating_sub(1).max(1));
    let (infra, all) = cold.infra.unwrap_or((0, 0));
    let read_s = median_ns(&tracer, "scan-journal.read") / 1e9;

    let values: Vec<(&str, f64)> = vec![
        ("dns-wire.encode_ns", encode),
        ("dns-wire.decode_ns", decode),
        (
            "dns-wire.reply_bytes",
            counts.reply_bytes_total as f64 / counts.decode_attempts.max(1) as f64,
        ),
        (
            "dns-wire.decode_fail_share",
            share(counts.decode_failures, counts.decode_attempts),
        ),
        (
            "dns-crypto.verify_ns",
            median_ns(&tracer, "dns-crypto.verify"),
        ),
        (
            "dns-crypto.ds_digest_ns",
            median_ns(&tracer, "dns-crypto.ds_digest"),
        ),
        (
            "dns-zone.sign_zone_us",
            median_ns(&tracer, "dns-zone.sign_zone") / 1e3,
        ),
        ("netsim.exchange_ns", exchange),
        (
            "netsim.datagrams_per_query",
            share(cold.facts.datagrams, cold.facts.queries),
        ),
        ("netsim.infra_datagrams", infra as f64),
        ("netsim.infra_datagram_share", share(infra, all)),
        ("dns-server.handle_ns", handle),
        ("dns-resolver.resolve_cold_us", resolve_cold / 1e3),
        (
            "dns-resolver.resolve_warm_us",
            median_ns(&tracer, "dns-resolver.resolve_warm") / 1e3,
        ),
        ("dns-resolver.queries_per_resolve", queries_per_resolve),
        ("dns-resolver.validate_us", validate / 1e3),
        (
            "dns-resolver.tcp_fallback_share",
            share(counts.resolve_tcp_fallbacks, counts.resolve_logical),
        ),
        ("bootscan.scan_zone_us_p50", stats::median(&scan_zone) / 1e3),
        (
            "bootscan.scan_zone_us_p99",
            stats::percentile(&scan_zone, 0.99) / 1e3,
        ),
        (
            "bootscan.scan_zone_us_p999",
            stats::percentile(&scan_zone, 0.999) / 1e3,
        ),
        (
            "bootscan.scan_zone_samples",
            counts.scan_zone_samples as f64,
        ),
        ("bootscan.classify_ns", classify),
        (
            "bootscan.report_ms",
            median_ns(&tracer, "bootscan.report") / 1e6,
        ),
        ("bootscan.resume_ms", cold.resume_s.unwrap_or(0.0) * 1e3),
        (
            "bootscan.parallel_efficiency",
            parallel.zones_per_s() / (2.0 * cold.zones_per_s()),
        ),
        ("bootscan.stack_residual_share", 1.0 - predicted / measured),
        (
            "bootscan.truth_residue_zones",
            cold.facts.verdicts.residue as f64,
        ),
        (
            "scan-journal.append_us",
            median_ns(&tracer, "scan-journal.append") / 1e3,
        ),
        (
            // Mean, not median: the fsync lands on every eighth call.
            "scan-journal.append_sync_us",
            tracer
                .durations("scan-journal.append_sync")
                .iter()
                .sum::<f64>()
                / counts.journal_events.max(1) as f64
                / 1e3,
        ),
        (
            "scan-journal.bytes_per_event",
            counts.journal_bytes as f64 / counts.journal_events.max(1) as f64,
        ),
        (
            "scan-journal.checkpoint_ms",
            median_ns(&tracer, "scan-journal.checkpoint") / 1e6,
        ),
        (
            "scan-journal.recover_ms",
            median_ns(&tracer, "scan-journal.recover") / 1e6,
        ),
        (
            "scan-journal.read_mb_per_s",
            if read_s > 0.0 {
                counts.journal_bytes as f64 / 1e6 / read_s
            } else {
                0.0
            },
        ),
        ("scan-fabric.overhead_ratio", fabric.wall_s / cold.wall_s),
        ("scan-fabric.resume_s", fabric.resume_s.unwrap_or(0.0)),
        (
            "scan-fabric.frame_roundtrip_ns",
            median_ns(&tracer, "scan-fabric.frame_roundtrip_x64") / 64.0,
        ),
        (
            "scan-fabric.merge_us_per_zone",
            median_ns(&tracer, "scan-fabric.merge") / 1e3 / counts.sample.max(1) as f64,
        ),
        (
            "scan-fabric.attempts_per_shard",
            ops.attempts.iter().map(|a| u64::from(*a)).sum::<u64>() as f64
                / ops.attempts.len().max(1) as f64,
        ),
        ("scan-fabric.lease_expiries", f64::from(ops.lease_expiries)),
        (
            "scan-fabric.peak_resident_zones",
            ops.peak_resident_zones as f64,
        ),
        ("scan-epochs.ledger_entries", counts.ledger_entries as f64),
        (
            "scan-epochs.partition_ms",
            median_ns(&tracer, "scan-epochs.partition") / 1e6,
        ),
        (
            "scan-epochs.seed_into_ms",
            median_ns(&tracer, "scan-epochs.seed_into") / 1e6,
        ),
        (
            "scan-epochs.incremental_query_share",
            share(
                epoch_queries.iter().skip(1).sum(),
                epoch_queries.first().copied().unwrap_or(0),
            ),
        ),
        ("scan-continuous.resume_s", study.resume_s.unwrap_or(0.0)),
        ("scan-continuous.incr_epoch_s", incr_epoch_s),
        (
            "scan-continuous.incr_epoch_share",
            incr_epoch_s / single.wall_s,
        ),
        (
            "scan-continuous.admit_ns",
            median_ns(&tracer, "scan-continuous.admit_x1024") / 1024.0,
        ),
        (
            "scan-continuous.skipped_epochs",
            study.facts.skipped_epochs as f64,
        ),
        (
            "dns-ecosystem.build_s",
            median_ns(&tracer, "dns-ecosystem.build") / 1e9,
        ),
        (
            "dns-ecosystem.seeds_compile_ms",
            median_ns(&tracer, "dns-ecosystem.seeds_compile") / 1e6,
        ),
        (
            "dns-ecosystem.churn_plan_ms",
            median_ns(&tracer, "dns-ecosystem.churn_plan") / 1e6,
        ),
        (
            "dns-ecosystem.apply_churn_ms",
            median_ns(&tracer, "dns-ecosystem.apply_churn") / 1e6,
        ),
        (
            "trace_overhead_share",
            rep_of(workload).wall_s / untraced.wall_s - 1.0,
        ),
    ];
    let metrics = values
        .into_iter()
        .map(|(name, v)| metric(name, &[if v.is_finite() { v } else { 0.0 }]))
        .collect();

    let all_reps = reps.iter().map(|(_, r)| r).chain([&untraced, &single]);
    let (attempted, failed) = all_reps.fold((0, 0), |(a, f), r| (a + r.facts.seeds, f + r.failed));
    let detail = obj(vec![
        ("probe_sample", Value::U64(counts.sample)),
        ("predicted_cpu_ns_per_query", Value::F64(predicted)),
        ("measured_cpu_ns_per_query", Value::F64(measured)),
        ("one_epoch_wall_s", Value::F64(single.wall_s)),
        ("spans", Value::U64(tracer.spans().len() as u64)),
    ]);
    Ok(RunOutput {
        workload,
        traced: true,
        metrics,
        attempted,
        failed,
        problems,
        detail,
        tracer,
    })
}
