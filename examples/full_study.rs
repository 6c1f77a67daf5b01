//! The full study: regenerate every table and figure of the paper against
//! the calibrated synthetic Internet.
//!
//! ```sh
//! # default 1:1000 scale (≈300 k zones; ≈35 s and ≈800 MiB peak RSS
//! # single-threaded on a 2-core Xeon). Its stdout is the golden file
//! # docs/full_study_1x1000.txt (CI diffs it); the timing and RSS lines
//! # go to stderr, recorded in docs/full_study_1x1000.host.txt:
//! cargo run --release --example full_study
//! # faster, coarser:
//! BOOTSCAN_SCALE=20000 cargo run --release --example full_study
//! # salt the world with hostile operators (0.01 = 1 % of zones spread
//! # across the adversary archetypes; see DESIGN.md §6c) — the paper
//! # tables must survive unchanged, with the hostile tier reported as
//! # explicitly degraded:
//! BOOTSCAN_ADVERSARIES=0.01 cargo run --release --example full_study
//! # crash-recoverable and/or distributed: run the headline scan on the
//! # scan fabric (DESIGN.md §9) — the zone space is sharded, every shard
//! # journals under BOOTSCAN_JOURNAL (or a temp dir), and re-running the
//! # same command after an interruption resumes every incomplete shard.
//! # The merged report is byte-identical at any worker count; killed or
//! # hung workers have their shards stolen. BOOTSCAN_WORKERS is the one
//! # parallelism knob; without it or a journal the headline scan runs in
//! # memory on one thread:
//! BOOTSCAN_JOURNAL=scan-state cargo run --release --example full_study
//! BOOTSCAN_WORKERS=4 cargo run --release --example full_study
//! # over time: after the headline tables, run N epochs of seeded churn
//! # with incremental re-scans (DESIGN.md §10, §11) on BOOTSCAN_WORKERS
//! # fabric workers (default 1) and print the per-epoch adoption-trend
//! # table. Epochs arrive every BOOTSCAN_EPOCH_SPACING virtual
//! # microseconds; arrivals that outpace the fleet are pipelined up to
//! # BOOTSCAN_PIPELINE_DEPTH spacings of backlog, then coalesced into
//! # explicit SKIPPED rows. Epoch state journals under
//! # BOOTSCAN_JOURNAL/continuous (or a temp dir), so an interrupted
//! # study resumes into the same epoch:
//! BOOTSCAN_EPOCHS=6 BOOTSCAN_CHURN_SEED=7 cargo run --release --example full_study
//! BOOTSCAN_WORKERS=4 BOOTSCAN_EPOCHS=6 BOOTSCAN_EPOCH_SPACING=1000000 \
//!     cargo run --release --example full_study
//! ```
//!
//! Prints Figure 1, Tables 1–3, the §4.2 CDS census, the §4.3 potential
//! summary, the scan-cost/feasibility numbers (Appendix D), and the
//! paper's values next to ours.

use bootscan::{budget, policy, report, ScanPolicy, Scanner};
use dns_ecosystem::{AdversaryArchetype, EcosystemConfig};
use dnssec_bootstrap::{run_study, scan_continuous, scan_fabric};
use std::path::PathBuf;

#[expect(
    clippy::disallowed_methods,
    reason = "the demo's knobs are BOOTSCAN_* variables, and its wall clock only reports how \
              long the demo ran; neither enters evidence"
)]
fn main() {
    let scale: u64 = std::env::var("BOOTSCAN_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000);
    // BOOTSCAN_WORKERS=<n> sizes the fabric fleet, the example's one
    // parallelism knob: the headline scan runs on the fabric when n > 1
    // or BOOTSCAN_JOURNAL is set, and the epoch study always does.
    let workers: usize = std::env::var("BOOTSCAN_WORKERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);

    // BOOTSCAN_ADVERSARIES=<fraction> salts the world with hostile
    // operators (DESIGN.md §6c): the fraction of the benign zone count,
    // spread evenly across the adversary archetypes, floor 1 per
    // archetype. The benign tables below must come out unchanged.
    let adv_fraction: f64 = std::env::var("BOOTSCAN_ADVERSARIES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);

    // BOOTSCAN_EPOCHS=<n> (n > 1) appends the study over time
    // (DESIGN.md §10, §11): n epochs of seeded churn with incremental
    // re-scans, reported as a per-epoch adoption-trend table.
    let epochs: u32 = std::env::var("BOOTSCAN_EPOCHS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let churn_seed: u64 = std::env::var("BOOTSCAN_CHURN_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(7);

    eprintln!("building ecosystem at 1:{scale} …");
    let t0 = std::time::Instant::now();
    let mut config = EcosystemConfig::paper_default(scale);
    if adv_fraction > 0.0 {
        let n_arch = AdversaryArchetype::ALL.len();
        let per_archetype =
            ((config.total_zones() as f64 * adv_fraction / n_arch as f64).ceil() as usize).max(1);
        eprintln!(
            "salting with hostile operators: {per_archetype} zones × {n_arch} archetypes \
             ({:.2} % of the world)",
            100.0 * (per_archetype * n_arch) as f64 / config.total_zones().max(1) as f64
        );
        config = config.with_adversaries(per_archetype);
    }
    let policy = ScanPolicy::default();
    let longitudinal = (epochs > 1).then(|| (config.clone(), policy.clone()));
    // With BOOTSCAN_JOURNAL set or BOOTSCAN_WORKERS > 1 the scan runs on
    // the fabric (DESIGN.md §9): the zone space is sharded, per-shard
    // journals land under the state dir (BOOTSCAN_JOURNAL if set, else a
    // scale-keyed temp dir), a re-run resumes every incomplete shard,
    // and the merged report is byte-identical at any worker count — see
    // tests/fabric_recovery.rs. Delete the directory to start over;
    // changing the scale or seed list is refused.
    let journal = std::env::var("BOOTSCAN_JOURNAL").ok().map(PathBuf::from);
    let (eco, results) = if journal.is_some() || workers > 1 {
        let dir = journal
            .clone()
            .unwrap_or_else(|| std::env::temp_dir().join(format!("bootscan-fabric-{scale}")));
        eprintln!(
            "fabric scan: {workers} workers, shard state in {} …",
            dir.display()
        );
        let fabric = scan_fabric::FabricConfig {
            workers,
            ..scan_fabric::FabricConfig::default()
        };
        let run_id = config.seed ^ config.scale;
        let eco = dns_ecosystem::build(config);
        let seeds = eco.seeds.compile(&eco.psl);
        let mut sink = scan_fabric::CollectSink::default();
        let output = scan_fabric::run_fabric(
            &|| Scanner::for_ecosystem(&eco, policy.clone()),
            &seeds,
            &dir,
            run_id,
            &fabric,
            &scan_fabric::FabricFaultPlan::none(),
            &mut sink,
        )
        .expect("fabric scan");
        eprintln!(
            "fabric: {} shards over {} workers ({} reassignments, {} lease expiries), \
             merge peak {} resident zones",
            output.ops.attempts.len(),
            output.ops.workers_spawned,
            output.ops.reassignments,
            output.ops.lease_expiries,
            output.ops.peak_resident_zones
        );
        let results = sink.into_results(&output.report);
        (eco, results)
    } else {
        run_study(config, policy)
    };
    eprintln!(
        "built + scanned {} zones in {:.1}s (real time){}",
        results.zones.len(),
        t0.elapsed().as_secs_f64(),
        peak_rss().map_or(String::new(), |kib| format!(
            ", peak RSS {:.0} MiB ({:.1} KiB per zone)",
            kib as f64 / 1024.0,
            kib as f64 / results.zones.len().max(1) as f64
        ))
    );

    let swiss: Vec<String> = eco
        .operators
        .iter()
        .filter(|o| o.swiss)
        .map(|o| o.name.clone())
        .collect();

    println!("================================================================");
    println!("E1 — Figure 1 (paper: 93.2 % unsigned, 5.5 % secured, 0.2 % invalid,");
    println!("     1.1 % islands; 303.0 k bootstrappable of 3.12 M islands)");
    println!("================================================================");
    let figure1 = report::figure1(&results);
    println!("{}", figure1.render());

    println!("================================================================");
    println!("E2 — Table 1 (top 20 operators by domains; shape: GoDaddy first,");
    println!("     Google/OVH high secured %, WIX 15.7 % islands)");
    println!("================================================================");
    println!("{}", report::render_table1(&report::table1(&results, 20)));

    println!("================================================================");
    println!("E3 — Table 2 (top 20 CDS publishers; shape: Google/WIX/Cloudflare");
    println!("     lead, 6 Swiss operators in the list)");
    println!("================================================================");
    let t2 = report::table2(&results, 20, &swiss);
    println!("{}", report::render_table2(&t2));
    let swiss_in_top = t2.iter().filter(|r| r.swiss).count();
    println!("Swiss operators in top 20: {swiss_in_top} (paper: 6)\n");

    println!("================================================================");
    println!("E4 — CDS census (paper §4.2: 10.5 M with CDS / 2 854 in unsigned /");
    println!("     16 delete-in-unsigned / 3 289 delete-but-signed / 165.5 k");
    println!("     island-deletes / 5 333 inconsistent, 86.9 % multi-operator)");
    println!("================================================================");
    println!("{}", report::cds_census(&results).render());

    println!("================================================================");
    println!("E5 — AB potential (paper §4.3: 271.6 M cannot benefit; 303 k can)");
    println!("================================================================");
    println!("{}", figure1.render_ab_potential());

    println!("================================================================");
    println!("E6 — Table 3 (paper: Cloudflare 1.23 M / deSEC 7 314 / Glauca 290");
    println!("     signal publishers; 99.9 % of bootstrappable signal setups correct)");
    println!("================================================================");
    let t3 = report::table3(&results, &["Cloudflare", "deSEC", "Glauca Digital"]);
    println!("{}", t3.render());
    let (pot, correct): (u64, u64) = t3.columns.iter().fold((0, 0), |(p, c), (_, col)| {
        (p + col.potential, c + col.signal_correct)
    });
    if pot > 0 {
        println!(
            "signal correctness among bootstrappable: {:.2} % (paper: 99.9 %)",
            100.0 * correct as f64 / pot as f64
        );
        // The paper's 99.9 % is dominated by Cloudflare's 1.23 M zones;
        // here Cloudflare is scaled 1:N while deSEC/Glauca are generated
        // at full size. Re-weighting Cloudflare by the scale factor
        // recovers the comparable mix.
        if let Some((_, cf)) = t3.columns.iter().find(|(n, _)| n == "Cloudflare") {
            let adj_pot = (pot - cf.potential) + cf.potential * scale;
            let adj_cor = (correct - cf.signal_correct) + cf.signal_correct * scale;
            println!(
                "scale-adjusted signal correctness: {:.2} % (paper: 99.9 %)\n",
                100.0 * adj_cor as f64 / adj_pot.max(1) as f64
            );
        }
    }

    println!("================================================================");
    println!("Appendix C — bootstrap-policy comparison (what each pre-RFC 9615");
    println!("     policy would have secured, and at what residual risk)");
    println!("================================================================");
    let outcomes: Vec<policy::PolicyOutcome> = policy::default_panel()
        .into_iter()
        .map(|p| policy::evaluate(p, &results, 0xc0de))
        .collect();
    println!("{}", policy::render_comparison(&outcomes));

    println!("================================================================");
    println!("E7 — scan cost & registry feasibility (paper §3 + Appendix D:");
    println!("     ~20 queries/NS, month-long scan, 1.2 M of 287.6 M need full work)");
    println!("================================================================");
    println!(
        "{}",
        budget::scan_cost(&results, &eco.net.stats().snapshot()).render()
    );
    println!("{}", budget::registry_feasibility(&results).render());

    if adv_fraction > 0.0 {
        println!("================================================================");
        println!("Hostile tier (BOOTSCAN_ADVERSARIES={adv_fraction}) — DESIGN.md §6c:");
        println!("     every adversarial zone must be explicitly degraded, never");
        println!("     silently misclassified, at bounded query cost");
        println!("================================================================");
        let adv: std::collections::HashMap<_, _> = eco
            .truth
            .iter()
            .filter_map(|t| t.adversary.map(|a| (t.name.clone(), a)))
            .collect();
        let mut per: std::collections::BTreeMap<&str, (u64, u64, u64)> =
            std::collections::BTreeMap::new();
        for z in &results.zones {
            if let Some(a) = adv.get(&z.name) {
                let e = per.entry(a.label()).or_insert((0, 0, 0));
                e.0 += 1;
                e.1 += u64::from(z.degraded);
                e.2 = e.2.max(u64::from(z.retry_stats.logical_queries));
            }
        }
        println!(
            "{:>12} | {:>5} | {:>8} | {:>13}",
            "archetype", "zones", "degraded", "worst queries"
        );
        for (label, (zones, degraded, worst)) in &per {
            println!("{label:>12} | {zones:>5} | {degraded:>8} | {worst:>13}");
        }
        let budget = bootscan::scanner::DEFAULT_ZONE_QUERY_BUDGET;
        println!("per-zone query budget: {budget}\n");
    }

    if let Some((config, policy)) = longitudinal {
        // A spacing shorter than an epoch's makespan forces
        // backpressure: late epochs pipeline up to the configured depth,
        // then coalesce into explicit SKIPPED trend rows — never
        // silently dropped observations.
        println!("================================================================");
        println!("E8 — study over time ({epochs} epochs × {workers} workers, churn");
        println!("     seed {churn_seed}; DESIGN.md §10, §11: epoch 0 is a cold scan,");
        println!("     later epochs re-scan only the churned/stale/indeterminate delta");
        println!("     set, sharded across the fleet with the carry ledger — every");
        println!("     epoch byte-identical to a cold scan of the same world state)");
        println!("================================================================");
        let mut study = scan_continuous::ContinuousConfig::new(epochs, churn_seed);
        if let Some(spacing) = std::env::var("BOOTSCAN_EPOCH_SPACING")
            .ok()
            .and_then(|v| v.parse().ok())
        {
            study.epoch_spacing = spacing;
        }
        if let Some(depth) = std::env::var("BOOTSCAN_PIPELINE_DEPTH")
            .ok()
            .and_then(|v| v.parse().ok())
        {
            study.max_pipeline_depth = depth;
        }
        study.fabric = scan_fabric::FabricConfig {
            workers,
            ..scan_fabric::FabricConfig::default()
        };
        let dir = journal
            .map(|d| d.join("continuous"))
            .unwrap_or_else(|| std::env::temp_dir().join(format!("bootscan-continuous-{scale}")));
        eprintln!("epoch state in {} …", dir.display());
        let out = scan_continuous::run_continuous(config, policy, &study, &dir)
            .expect("study over epochs");
        print!("{}", scan_continuous::render_decisions(&out.decisions));
        println!();
        println!("{}", out.series.render_trend());
        println!(
            "fabric over the run: {} workers spawned, summed over epochs ({} lost), \
             {} reassignments, largest shard {} zones",
            out.ops.workers_spawned,
            out.ops.workers_lost,
            out.ops.reassignments,
            out.ops.largest_shard
        );
    }
}

/// The process's peak resident set (`VmHWM`) in KiB, where
/// `/proc/self/status` exists (Linux); `None` elsewhere.
fn peak_rss() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}
