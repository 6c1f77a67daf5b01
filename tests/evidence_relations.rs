//! Metamorphic relations over the evidence (DESIGN.md §10): transforms of
//! a world that the RFCs say cannot matter, so a zone's evidence must be
//! the same bytes across each. A relation needs no statement of the
//! rules, only the transform; each row names one transform on one world.
//!
//! - **RRset order.** An RRset is a set (RFC 2181 §5), and real servers
//!   rotate it. Every reply is served with the records inside each of
//!   its RRsets reversed, or rotated by a per-question draw.
//! - **Scan order.** The seed list reversed, or in one fixed shuffle.
//!   Caches change *when* a zone's answers are fetched, never *what*
//!   they are: fault-free the evidence is identical. Under chaos a
//!   cache hit moves which queries meet a fault, so a zone may differ
//!   only where one side is `Indeterminate`, or degraded with the same
//!   classes.
//! - **Parallelism.** Four or eight workers against one (DESIGN.md §7):
//!   query IDs come from stable per-query coordinates and every cache
//!   value is a function of the world, so which worker's walk filled an
//!   entry first cannot matter.
//! - **Cache temperature.** One scanner scans the world twice: the
//!   second scan runs on warm caches, costs strictly fewer queries and
//!   yields the same evidence, at one worker or many.
//! - **Transport.** Every UDP query is answered truncated, so every
//!   answer comes over TCP (RFC 7766): the same logical queries, exactly
//!   twice the datagrams, the same evidence.
//! - **Isolation.** Each zone scanned alone by a fresh scanner yields
//!   what the shared scan of the whole world gave it: no cache entry
//!   another zone's walk left behind changes a zone's evidence.
//!
//! Evidence is compared as its journal-codec bytes, with no normaliser.
//! The paper-scale rows are ignored by default; CI runs them in release
//! (`cargo test --release --test evidence_relations -- --include-ignored`).

use bootscan::{DnssecClass, Evidence, ScanPolicy, ScanResults, Scanner};
use dns_ecosystem::{build, Ecosystem, EcosystemConfig};
use dns_wire::message::{Message, Rcode};
use dns_wire::name::Name;
use dns_wire::record::Record;
use netsim::{
    Addr, DeterministicDraw, FaultPlan, ServerHandler, ServerResponse, SimMicros, Transport,
};
use scan_journal::encode_evidence_into;
use std::sync::Arc;

/// The paper-scale world of the ignored rows.
const PAPER_SCALE: u64 = 20_000;

/// How a wrapped server reorders the records inside each RRset.
#[derive(Debug, Clone, Copy)]
enum Reorder {
    Reverse,
    /// Rotate left by a draw from the question (name and type).
    Rotate,
}

/// Any server with a reorderer in front: its reply, with the records of
/// every RRset in every section reordered among the slots that RRset
/// holds. A reply that does not decode, or holds no RRset of two
/// records, goes out as the server wrote it.
struct Reordering {
    inner: Arc<dyn ServerHandler>,
    how: Reorder,
}

impl ServerHandler for Reordering {
    fn handle(&self, q: &[u8], dst: Addr, t: Transport, b: u32, now: SimMicros) -> ServerResponse {
        let response = self.inner.handle(q, dst, t, b, now);
        let ServerResponse::Reply(bytes) = &response else {
            return response;
        };
        let Ok(mut msg) = Message::from_bytes(bytes) else {
            return response;
        };
        let draw = msg.questions.first().map_or(0, |q| {
            DeterministicDraw::new(0x2181, &[&q.name.to_wire(), &q.rtype.code().to_be_bytes()])
                .raw()
        });
        let mut moved = false;
        for section in [&mut msg.answers, &mut msg.authorities, &mut msg.additionals] {
            moved |= reorder(section, self.how, draw);
        }
        if moved {
            ServerResponse::Reply(msg.to_bytes())
        } else {
            response
        }
    }
}

/// Reorder the records of each RRset in `records` among its own slots.
/// Returns whether any RRset had more than one record.
/// Any server with a truncator in front: every UDP query is answered
/// with its question echoed and TC set, so every answer comes over TCP.
/// A TCP query, or one that does not decode, goes to the server.
struct TcpOnly {
    inner: Arc<dyn ServerHandler>,
}

impl ServerHandler for TcpOnly {
    fn handle(&self, q: &[u8], dst: Addr, t: Transport, b: u32, now: SimMicros) -> ServerResponse {
        let query = match Message::from_bytes(q) {
            Ok(query) if t == Transport::Udp => query,
            _ => return self.inner.handle(q, dst, t, b, now),
        };
        let mut reply = Message::response_to(&query, Rcode::NoError);
        reply.header.flags.truncated = true;
        ServerResponse::Reply(reply.to_bytes())
    }
}

fn reorder(records: &mut [Record], how: Reorder, draw: u64) -> bool {
    let same_set =
        |a: &Record, b: &Record| a.name == b.name && a.class == b.class && a.rtype() == b.rtype();
    let mut sets: Vec<Vec<usize>> = Vec::new();
    for i in 0..records.len() {
        match sets
            .iter_mut()
            .find(|s| same_set(&records[s[0]], &records[i]))
        {
            Some(slots) => slots.push(i),
            None => sets.push(vec![i]),
        }
    }
    let mut moved = false;
    for slots in sets.iter().filter(|s| s.len() > 1) {
        let mut set: Vec<Record> = slots.iter().map(|&i| records[i].clone()).collect();
        match how {
            Reorder::Reverse => set.reverse(),
            Reorder::Rotate => set.rotate_left((draw % slots.len() as u64) as usize),
        }
        for (&i, r) in slots.iter().zip(set) {
            records[i] = r;
        }
        moved = true;
    }
    moved
}

fn seeds(eco: &Ecosystem) -> Vec<Name> {
    eco.seeds.compile(&eco.psl)
}

fn scanner(eco: &Ecosystem, parallelism: usize) -> Arc<Scanner> {
    let policy = ScanPolicy {
        parallelism,
        ..ScanPolicy::default()
    };
    Scanner::for_ecosystem(eco, policy)
}

/// Every zone's evidence, in canonical zone order.
fn evidence(results: ScanResults) -> Vec<Evidence> {
    results
        .zones
        .into_iter()
        .map(|z| Arc::unwrap_or_clone(z).evidence)
        .collect()
}

/// Every zone's evidence from a cold scan of `eco` over `seeds`.
fn scan(eco: &Ecosystem, seeds: &[Name]) -> Vec<Evidence> {
    evidence(scanner(eco, 1).scan_all(seeds))
}

fn bytes(evidence: &Evidence) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_evidence_into(&mut buf, evidence);
    buf
}

/// Assert the two evidence tables hold the same zones and that no zone's
/// bytes differ unless `forgiven` says the pair may.
#[track_caller]
fn assert_related(
    plain: &[Evidence],
    moved: &[Evidence],
    row: &str,
    forgiven: impl Fn(&Evidence, &Evidence) -> bool,
) {
    assert!(!plain.is_empty(), "{row}: no zones scanned");
    assert_eq!(plain.len(), moved.len(), "{row}: zone counts differ");
    let differ: Vec<(&Evidence, &Evidence)> = plain
        .iter()
        .zip(moved)
        .filter(|(a, b)| bytes(a) != bytes(b))
        .collect();
    let unforgiven: Vec<_> = differ.iter().filter(|(a, b)| !forgiven(a, b)).collect();
    println!(
        "{row}: {} of {} zones differ, {} of them forgiven",
        differ.len(),
        plain.len(),
        differ.len() - unforgiven.len()
    );
    if let Some((a, b)) = unforgiven.first() {
        panic!(
            "{row}: {} of {} zones differ ({} forgiven); first: {} \n  plain: {a:?}\n  moved: {b:?}",
            unforgiven.len(),
            plain.len(),
            differ.len() - unforgiven.len(),
            a.name
        );
    }
}

/// The RRset-order row: `cfg`'s world scanned as served and with every
/// reply's RRsets reordered `how` yields byte-identical evidence.
fn rrset_order(cfg: EcosystemConfig, how: Reorder, row: &str) {
    let eco = build(cfg);
    let seeds = seeds(&eco);
    let plain = scan(&eco, &seeds);
    eco.net
        .wrap_handlers(|inner| Arc::new(Reordering { inner, how }));
    assert_related(&plain, &scan(&eco, &seeds), row, |_, _| false);
}

/// The scan-order row: `cfg`'s world scanned in seed order, reversed and
/// in one fixed shuffle, under `faults` if given. Fault-free the evidence
/// is byte-identical; under faults a zone may differ only where one side
/// is `Indeterminate`, or degraded with the same classes.
fn scan_order(cfg: EcosystemConfig, faults: Option<u64>, row: &str) {
    let eco = build(cfg);
    if let Some(seed) = faults {
        eco.net
            .set_faults(FaultPlan::standard_chaos(seed, &eco.net.bound_addrs()));
    }
    let seeds = seeds(&eco);
    let plain = scan(&eco, &seeds);
    let reversed: Vec<Name> = seeds.iter().rev().cloned().collect();
    let mut shuffled = seeds.clone();
    shuffled.sort_by_key(|n| DeterministicDraw::new(0x5ca7, &[&n.to_wire()]).raw());
    let forgiven = |a: &Evidence, b: &Evidence| {
        let indeterminate = |e: &Evidence| e.dnssec == DnssecClass::Indeterminate;
        let classes = |e: &Evidence| (e.dnssec, e.cds, e.ab);
        faults.is_some()
            && (indeterminate(a)
                || indeterminate(b)
                || ((a.degraded || b.degraded) && classes(a) == classes(b)))
    };
    for (order, seeds) in [("reversed", reversed), ("shuffled", shuffled)] {
        let row = format!("{row}, {order}");
        assert_related(&plain, &scan(&eco, &seeds), &row, forgiven);
    }
}

/// The parallelism row: a freshly built `cfg` world scanned cold at four
/// and at eight workers yields the evidence of one worker.
fn parallelism(cfg: EcosystemConfig, row: &str) {
    let cold = |p: usize| {
        let eco = build(cfg.clone());
        evidence(scanner(&eco, p).scan_all(&seeds(&eco)))
    };
    let plain = cold(1);
    for p in [4, 8] {
        let row = format!("{row}, parallelism {p}");
        assert_related(&plain, &cold(p), &row, |_, _| false);
    }
}

/// One scanner at `parallelism` scans `cfg`'s world twice, cold then
/// warm. The warm scan must be strictly cheaper: a warm walk skips the
/// whole root-down descent, so equal cost means a cache never hit.
fn cold_then_warm(cfg: EcosystemConfig, parallelism: usize, row: &str) -> [Vec<Evidence>; 2] {
    let eco = build(cfg);
    let seeds = seeds(&eco);
    let scanner = scanner(&eco, parallelism);
    let cold = scanner.scan_all(&seeds);
    let warm = scanner.scan_all(&seeds);
    assert!(
        warm.total_queries < cold.total_queries,
        "{row}: warm scan issued {} queries, cold {}; the caches never hit",
        warm.total_queries,
        cold.total_queries
    );
    [evidence(cold), evidence(warm)]
}

/// The cache-temperature row: the warm scan yields the cold scan's
/// evidence.
fn warm_caches(cfg: EcosystemConfig, parallelism: usize, row: &str) {
    let [cold, warm] = cold_then_warm(cfg, parallelism, row);
    assert_related(&cold, &warm, row, |_, _| false);
}

/// The transport row: `cfg`'s world scanned cold as served and again
/// with every answer over TCP costs the same logical queries, exactly
/// twice the datagrams, and yields byte-identical evidence.
fn transport(cfg: EcosystemConfig, row: &str) {
    let eco = build(cfg);
    let seeds = seeds(&eco);
    let datagrams = || eco.net.stats().snapshot().queries;
    let start = datagrams();
    let udp = scanner(&eco, 1).scan_all(&seeds);
    let udp_datagrams = datagrams() - start;
    eco.net.wrap_handlers(|inner| Arc::new(TcpOnly { inner }));
    let tcp = scanner(&eco, 1).scan_all(&seeds);
    let tcp_datagrams = datagrams() - start - udp_datagrams;
    println!(
        "{row}: {} logical queries, datagrams {udp_datagrams} -> {tcp_datagrams}",
        udp.total_queries
    );
    assert_eq!(
        udp.total_queries, tcp.total_queries,
        "{row}: logical queries"
    );
    assert_eq!(tcp_datagrams, 2 * udp_datagrams, "{row}: datagrams");
    assert_related(&evidence(udp), &evidence(tcp), row, |_, _| false);
}

/// The isolation row: every `every`-th zone of `cfg`'s world, scanned
/// alone by a fresh scanner, yields its evidence in the shared scan.
fn isolation(cfg: EcosystemConfig, every: usize, row: &str) {
    let eco = build(cfg);
    let seeds = seeds(&eco);
    let shared: Vec<Evidence> = scan(&eco, &seeds).into_iter().step_by(every).collect();
    let alone: Vec<Evidence> = shared
        .iter()
        .flat_map(|z| scan(&eco, std::slice::from_ref(&z.name)))
        .collect();
    assert_related(&shared, &alone, row, |_, _| false);
}

#[test]
fn rrset_reversal_tiny_4() {
    rrset_order(
        EcosystemConfig::tiny(4),
        Reorder::Reverse,
        "reversal, tiny(4)",
    );
}

#[test]
fn rrset_rotation_tiny_4() {
    rrset_order(
        EcosystemConfig::tiny(4),
        Reorder::Rotate,
        "rotation, tiny(4)",
    );
}

#[test]
fn rrset_reversal_tiny_7() {
    rrset_order(
        EcosystemConfig::tiny(7),
        Reorder::Reverse,
        "reversal, tiny(7)",
    );
}

#[test]
fn rrset_rotation_tiny_7() {
    rrset_order(
        EcosystemConfig::tiny(7),
        Reorder::Rotate,
        "rotation, tiny(7)",
    );
}

/// `hostile_world`'s world: the tiny world plus two zones of every
/// hostile-operator archetype.
fn hostile() -> EcosystemConfig {
    EcosystemConfig::tiny(42).with_adversaries(2)
}

#[test]
fn rrset_reversal_hostile_world() {
    rrset_order(hostile(), Reorder::Reverse, "reversal, hostile world");
}

#[test]
fn rrset_rotation_hostile_world() {
    rrset_order(hostile(), Reorder::Rotate, "rotation, hostile world");
}

#[test]
fn parallelism_tiny_42() {
    parallelism(EcosystemConfig::tiny(42), "tiny(42)");
}

#[test]
fn parallelism_hostile_world() {
    parallelism(hostile(), "hostile world");
}

#[test]
fn warm_caches_tiny_42() {
    warm_caches(EcosystemConfig::tiny(42), 1, "warm caches, tiny(42)");
}

#[test]
fn warm_caches_hostile_world_parallelism_4() {
    warm_caches(hostile(), 4, "warm caches, hostile world, parallelism 4");
}

/// A warm scan at eight workers against a cold scan at one.
#[test]
fn warm_parallel_against_cold_sequential_tiny_42() {
    let row = "warm at parallelism 8 against cold at 1, tiny(42)";
    let eco = build(EcosystemConfig::tiny(42));
    let plain = scan(&eco, &seeds(&eco));
    let [_, warm] = cold_then_warm(EcosystemConfig::tiny(42), 8, row);
    assert_related(&plain, &warm, row, |_, _| false);
}

#[test]
fn transport_tiny_4() {
    transport(EcosystemConfig::tiny(4), "transport, tiny(4)");
}

#[test]
fn transport_tiny_7() {
    transport(EcosystemConfig::tiny(7), "transport, tiny(7)");
}

#[test]
fn transport_hostile_world() {
    transport(hostile(), "transport, hostile world");
}

#[test]
fn isolation_tiny_4() {
    isolation(EcosystemConfig::tiny(4), 1, "isolation, tiny(4)");
}

#[test]
fn isolation_tiny_7() {
    isolation(EcosystemConfig::tiny(7), 1, "isolation, tiny(7)");
}

#[test]
fn isolation_hostile_world() {
    isolation(hostile(), 1, "isolation, hostile world");
}

#[test]
#[ignore = "paper scale; CI runs it in release"]
fn isolation_paper_every_13th() {
    let cfg = EcosystemConfig::paper_default(PAPER_SCALE);
    isolation(cfg, 13, "isolation, paper_default(20 000), every 13th zone");
}

#[test]
#[ignore = "paper scale; CI runs it in release"]
fn rrset_reversal_paper() {
    let cfg = EcosystemConfig::paper_default(PAPER_SCALE);
    rrset_order(cfg, Reorder::Reverse, "reversal, paper_default(20 000)");
}

#[test]
#[ignore = "paper scale; CI runs it in release"]
fn rrset_rotation_paper() {
    let cfg = EcosystemConfig::paper_default(PAPER_SCALE);
    rrset_order(cfg, Reorder::Rotate, "rotation, paper_default(20 000)");
}

#[test]
#[ignore = "paper scale; CI runs it in release"]
fn scan_order_paper() {
    let cfg = EcosystemConfig::paper_default(PAPER_SCALE);
    scan_order(cfg, None, "scan order, paper_default(20 000)");
}

#[test]
#[ignore = "paper scale; CI runs it in release"]
fn scan_order_paper_under_chaos() {
    let cfg = EcosystemConfig::paper_default(PAPER_SCALE);
    scan_order(
        cfg,
        Some(0xc4a0),
        "scan order, paper_default(20 000), chaos",
    );
}
