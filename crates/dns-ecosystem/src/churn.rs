//! Seeded churn: the deployment-over-time model (DESIGN.md §10).
//!
//! The paper measures *adoption trends* — zones adopting DNSSEC,
//! publishing CDS, operators turning RFC 9615 signaling on and off,
//! NS sets migrating between operators. [`ChurnPlan::generate`] decides,
//! as a pure function of `(world truth, seed, epoch)`, which eligible
//! zones transition this epoch; [`apply_churn`] performs those
//! transitions as deterministic world mutation and returns a
//! [`ChurnLog`] of ground-truth deltas plus the set of zone cuts whose
//! cached delegation/key state the mutation invalidated.
//!
//! Two invariants make the longitudinal tier testable:
//!
//! * **Purity.** The plan depends only on the truth table, the churn
//!   seed and the epoch number; applying the same plan to two
//!   identically-built worlds produces identical worlds (zone stores,
//!   TLD zones, truth) — pinned by `tests/churn_determinism.rs`.
//! * **Locality.** Churn costs what it changes. Zones untouched by an
//!   epoch's plan keep their zone content byte-identical, and inside an
//!   edited zone so does every owner the edit did not reach: a TLD
//!   re-signs the DS RRsets it was handed, an operator base zone the
//!   signal owners that changed plus their NSEC predecessors
//!   ([`ZoneSigner::resign_owners`]) — always with the *retained*
//!   original keys at the *original* `eco.now`, so the result is, record
//!   for record, what stripping and re-signing the whole zone would give
//!   (`tests/churn_determinism.rs` holds that oracle). Edited zones are
//!   taken out of their stores, mutated and put back — never copied.
//!
//! Eligibility is deliberately conservative: only benign, single-
//! operator, out-of-domain, non-legacy zones in plain states (no
//! planted defect) churn. The planted defect tiers are the controlled
//! experiment — churning them would unpin the paper-shape tests.

use crate::build::{
    corrupt_rrsigs_at, csync, expire_rrsigs_at, leaf_signer, ns, ns_body, rdata_for, soa, Ecosystem,
};
use crate::truth::{CdsState, DnssecState, SignalDefect, SignalTruth};
use dns_crypto::{Algorithm, DigestType};
use dns_server::ZoneStore;
use dns_wire::name::Name;
use dns_wire::rdata::{DsData, RData};
use dns_wire::record::{Rdatas, Record, RecordType, RrSet};
use dns_zone::{signal, Zone, ZoneKeys, ZoneSigner};
use netsim::DeterministicDraw;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Per-epoch transition rates. Each eligible zone draws once per epoch;
/// the applicable transitions for its current state are laid out on
/// `[0, 1)` in a fixed order and the draw picks at most one.
#[derive(Debug, Clone, Copy)]
pub struct ChurnConfig {
    /// Unsigned, no CDS → Island with valid CDS (operator signs the
    /// zone and publishes CDS — the bootstrappable pool grows).
    pub adopt: f64,
    /// Island with valid CDS → Secured (the registry/registrar installs
    /// the DS — a bootstrap completes).
    pub bootstrap: f64,
    /// Secured or Island → Unsigned (the zone abandons DNSSEC: signing
    /// stripped, CDS withdrawn, DS removed, signal withdrawn).
    pub abandon: f64,
    /// CDS published (Island without CDS) or withdrawn (any zone with
    /// valid CDS).
    pub cds_flip: f64,
    /// RFC 9615 signal records published (AB-operator zones with valid
    /// CDS) or withdrawn (zones with clean published signals).
    pub signal_flip: f64,
    /// NS-set migration to a different (non-legacy) operator, with
    /// fresh keys — operators re-key on migration.
    pub migrate: f64,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            adopt: 0.04,
            bootstrap: 0.10,
            abandon: 0.02,
            cds_flip: 0.03,
            signal_flip: 0.03,
            migrate: 0.02,
        }
    }
}

/// One planned transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnAction {
    /// Unsigned (no CDS) → Island + valid CDS.
    AdoptIsland,
    /// Island + valid CDS → Secured: DS installed at the parent from
    /// the zone's CDS. The zone itself is untouched.
    CompleteBootstrap,
    /// Secured/Island → Unsigned: signing stripped, CDS and signal
    /// withdrawn, DS removed.
    AbandonDnssec,
    /// Island without CDS → Island + valid CDS.
    PublishCds,
    /// Valid CDS withdrawn (signing state kept; a published signal is
    /// withdrawn with it — signal material mirrors CDS).
    WithdrawCds,
    /// Publish RFC 9615 signal records for a zone with valid CDS under
    /// an AB operator.
    PublishSignal,
    /// Withdraw a zone's (clean) signal records.
    WithdrawSignal,
    /// Migrate the NS set to operator `to_op` (re-keyed).
    MigrateNs { to_op: usize },
}

/// The planned transitions of one epoch — a pure function of
/// `(truth table, seed, epoch)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnPlan {
    pub seed: u64,
    pub epoch: u32,
    /// `(zone, action)` in truth-table order.
    pub events: Vec<(Name, ChurnAction)>,
}

/// A zone's churn-relevant truth fields, before/after one transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TruthSnapshot {
    pub operator: usize,
    pub dnssec: DnssecState,
    pub cds: CdsState,
    pub signal: SignalTruth,
}

/// One applied transition's ground-truth delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnDelta {
    pub zone: Name,
    pub action: ChurnAction,
    pub before: TruthSnapshot,
    pub after: TruthSnapshot,
}

/// Everything one epoch's churn did to the world.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChurnLog {
    pub epoch: u32,
    /// Ground-truth deltas, in applied (truth-table) order.
    pub deltas: Vec<ChurnDelta>,
    /// Zone cuts whose cached delegation/address/key state the mutation
    /// may have invalidated (sorted, deduplicated). The epoch service
    /// drops carried cache entries at or below any of these cuts.
    pub invalidated_cuts: Vec<Name>,
    /// Distinct signal owner names published, replaced or withdrawn in
    /// signed operator base zones.
    pub signal_owners_changed: usize,
    /// RRsets signed to bring those base zones back to their fully
    /// signed state: bounded by `signal_owners_changed`, never by the
    /// zones' size (`tests/cost_gates.rs` pins the bound).
    pub base_rrsets_signed: usize,
}

impl ChurnLog {
    /// The zones this epoch's churn touched, in applied order.
    pub fn churned_zones(&self) -> Vec<Name> {
        self.deltas.iter().map(|d| d.zone.clone()).collect()
    }
}

/// Is this zone in the conservative churn-eligible pool?
fn eligible(t: &crate::truth::ZoneTruth) -> bool {
    t.adversary.is_none()
        && !t.in_domain_ns
        && !t.legacy_ns
        && t.second_operator.is_none()
        && matches!(
            t.dnssec,
            DnssecState::Unsigned | DnssecState::Secured | DnssecState::Island
        )
        && matches!(t.cds, CdsState::None | CdsState::Valid)
        && matches!(
            t.signal,
            SignalTruth::NotPublished | SignalTruth::Published(SignalDefect::None)
        )
}

impl ChurnPlan {
    /// Decide this epoch's transitions. Pure: two calls with the same
    /// `(eco.truth, seed, epoch)` return identical plans, and the draw
    /// for each zone is independent of every other zone's.
    pub fn generate(eco: &Ecosystem, cfg: &ChurnConfig, seed: u64, epoch: u32) -> ChurnPlan {
        // Migration candidates: non-legacy operators with a real fleet.
        let migration_targets: Vec<usize> = eco
            .operator_flavors
            .iter()
            .enumerate()
            .filter(|(i, f)| !f.pre_rfc3597 && eco.operators[*i].hosts.len() >= 2)
            .map(|(i, _)| i)
            .collect();

        let mut events = Vec::new();
        for t in &eco.truth {
            if !eligible(t) {
                continue;
            }
            let flavor = &eco.operator_flavors[t.operator];
            // Applicable transitions for the current state, fixed order.
            let mut applicable: Vec<(ChurnAction, f64)> = Vec::new();
            if t.dnssec == DnssecState::Unsigned && t.cds == CdsState::None {
                applicable.push((ChurnAction::AdoptIsland, cfg.adopt));
            }
            if t.dnssec == DnssecState::Island && t.cds == CdsState::Valid {
                applicable.push((ChurnAction::CompleteBootstrap, cfg.bootstrap));
            }
            if matches!(t.dnssec, DnssecState::Secured | DnssecState::Island) {
                applicable.push((ChurnAction::AbandonDnssec, cfg.abandon));
            }
            if t.dnssec == DnssecState::Island && t.cds == CdsState::None {
                applicable.push((ChurnAction::PublishCds, cfg.cds_flip));
            }
            if t.cds == CdsState::Valid {
                applicable.push((ChurnAction::WithdrawCds, cfg.cds_flip));
            }
            if flavor.signal_enabled
                && t.signal == SignalTruth::NotPublished
                && t.cds == CdsState::Valid
            {
                applicable.push((ChurnAction::PublishSignal, cfg.signal_flip));
            }
            if t.signal == SignalTruth::Published(SignalDefect::None) {
                applicable.push((ChurnAction::WithdrawSignal, cfg.signal_flip));
            }
            let targets: Vec<usize> = migration_targets
                .iter()
                .copied()
                .filter(|&i| i != t.operator)
                .collect();
            if !targets.is_empty() {
                // Placeholder target; resolved from a follow-up draw below
                // so the rate draw stays one-per-zone.
                applicable.push((ChurnAction::MigrateNs { to_op: usize::MAX }, cfg.migrate));
            }

            let d = DeterministicDraw::new(
                seed,
                &[b"churn-plan", &epoch.to_le_bytes(), &t.name.to_wire()],
            );
            let u = d.unit();
            let mut acc = 0.0;
            for (action, rate) in applicable {
                acc += rate;
                if u < acc {
                    let action = match action {
                        ChurnAction::MigrateNs { .. } => {
                            let pick = d.next().below(targets.len() as u64) as usize;
                            ChurnAction::MigrateNs {
                                to_op: targets[pick],
                            }
                        }
                        other => other,
                    };
                    events.push((t.name.clone(), action));
                    break;
                }
            }
        }
        ChurnPlan {
            seed,
            epoch,
            events,
        }
    }
}

/// The batched world edits of one `apply_churn` run, made in place: the
/// first edit of a TLD or operator base zone *takes it out* of every
/// store serving it ([`take_zone`]), later edits find it here, and
/// `apply_churn` puts every taken zone back (base zones re-signed at
/// their changed owners) after the last event — whatever path the event
/// loop took. Nothing may scan in between: a zone held here is in no
/// store. Two things guarantee it in `run_continuous`: `apply_churn`
/// takes the world `&mut`, so no scanner can borrow it meanwhile, and
/// the previous epoch's `scan_fabric::drive` has joined every worker
/// thread before it returned.
struct EditSession {
    /// TLD apex → the zone, out of its registry store.
    tlds: BTreeMap<Name, Zone>,
    /// Base apex → the zone, out of its operator's host stores.
    bases: BTreeMap<Name, BaseEdit>,
    invalidated: BTreeSet<Name>,
}

/// One operator base zone under edit.
struct BaseEdit {
    op_idx: usize,
    zone: Zone,
    /// Signal owners whose records were added or removed: what the
    /// re-sign at the end is proportional to.
    changed: BTreeSet<Name>,
}

/// Take the zone at `apex` out of every one of `stores` and own it. The
/// stores share one `Arc`, so with their handles dropped the unwrap is
/// free; should anything else still hold the zone (a scanner's reply
/// in flight cannot — see [`EditSession`] — but a caller's own handle
/// can), that holder keeps the old content and a clone is edited.
fn take_zone<'a>(
    stores: impl IntoIterator<Item = &'a Arc<ZoneStore>>,
    apex: &Name,
) -> Option<Zone> {
    let mut handles = stores.into_iter().filter_map(|store| store.remove(apex));
    let first = handles.next()?;
    handles.for_each(drop);
    Some(Arc::try_unwrap(first).unwrap_or_else(|held| (*held).clone()))
}

impl EditSession {
    fn tld_mut<'a>(&'a mut self, eco: &Ecosystem, tld: &Name) -> Option<&'a mut Zone> {
        if !self.tlds.contains_key(tld) {
            let zone = take_zone(eco.registry_stores.get(tld), tld)?;
            self.tlds.insert(tld.clone(), zone);
        }
        self.tlds.get_mut(tld)
    }

    fn base_mut<'a>(
        &'a mut self,
        eco: &Ecosystem,
        op_idx: usize,
        base: &Name,
    ) -> Option<&'a mut BaseEdit> {
        if !self.bases.contains_key(base) {
            let zone = take_zone(&eco.operator_stores[op_idx], base)?;
            let edit = BaseEdit {
                op_idx,
                zone,
                changed: BTreeSet::new(),
            };
            self.bases.insert(base.clone(), edit);
        }
        self.bases.get_mut(base)
    }
}

/// The hosts of one operator that serve a zone, and the NS body naming
/// exactly them, in that order.
struct Serving {
    idxs: Vec<usize>,
    ns: Rdatas,
}

impl Serving {
    /// Hosts `idxs` of `op_idx`, under a new NS body.
    fn new(eco: &Ecosystem, op_idx: usize, idxs: Vec<usize>) -> Serving {
        let hosts = &eco.operators[op_idx].hosts;
        let ns = ns_body(idxs.iter().map(|&i| &hosts[i]));
        Serving { idxs, ns }
    }

    /// The operator hosts serving `zone`, in the zone's own NS RRset
    /// order (i.e. the order the builder assigned them). When the NS set
    /// names no other host its body is kept, so a rebuilt zone goes on
    /// sharing it with its delegation.
    fn of(eco: &Ecosystem, op_idx: usize, zone: &Name) -> Serving {
        let z = eco.operator_stores[op_idx].iter().find_map(|s| s.get(zone));
        let Some(set) = z.as_ref().and_then(|z| z.rrset(zone, RecordType::Ns)) else {
            return Serving::new(eco, op_idx, Vec::new());
        };
        let mut idxs = Vec::new();
        for rd in &set.rdatas {
            if let RData::Ns(n) = rd {
                if let Some(i) = eco.operators[op_idx].hosts.iter().position(|h| h == n) {
                    if !idxs.contains(&i) {
                        idxs.push(i);
                    }
                }
            }
        }
        if idxs.len() == set.rdatas.len() {
            Serving {
                idxs,
                ns: set.rdatas.clone(),
            }
        } else {
            Serving::new(eco, op_idx, idxs)
        }
    }
}

/// The zone's current CDS/CDNSKEY RRsets (the signal material), bodies
/// shared.
fn cds_material(zone: &Zone, apex: &Name) -> Vec<RrSet> {
    [RecordType::Cds, RecordType::Cdnskey]
        .into_iter()
        .filter_map(|rt| zone.rrset(apex, rt).cloned())
        .collect()
}

/// Remove the zone's signal records from every base zone of `op_idx`
/// that carries them.
fn withdraw_signal(eco: &Ecosystem, session: &mut EditSession, op_idx: usize, zone: &Name) {
    let hosts = eco.operators[op_idx].hosts.clone();
    for host in &hosts {
        let Ok(sig_name) = signal::signal_name(zone, host) else {
            continue;
        };
        let Some(base) = eco.psl.registrable_part(host) else {
            continue;
        };
        let Some(edit) = session.base_mut(eco, op_idx, &base) else {
            continue;
        };
        // The owner's NSEC and RRSIGs go when the base is re-signed.
        let mut removed = false;
        for rt in [RecordType::Cds, RecordType::Cdnskey] {
            removed |= edit.zone.remove_rrset(&sig_name, rt).is_some();
        }
        if removed {
            edit.changed.insert(sig_name);
        }
    }
}

/// Publish signal records for `zone` under the given operator hosts,
/// sharing the bodies of `material`.
fn publish_signal(
    eco: &Ecosystem,
    session: &mut EditSession,
    op_idx: usize,
    zone: &Name,
    host_idxs: &[usize],
    material: &[RrSet],
) {
    for &h in host_idxs {
        let host = eco.operators[op_idx].hosts[h].clone();
        let Ok(sets) = signal::signal_rrsets(zone, &host, material) else {
            continue;
        };
        let Some(base) = eco.psl.registrable_part(&host) else {
            continue;
        };
        let Some(edit) = session.base_mut(eco, op_idx, &base) else {
            continue;
        };
        for set in sets {
            edit.changed.insert(set.name.clone());
            edit.zone.add_rrset(set);
        }
    }
}

/// Replace the DS RRset (and its RRSIG) for `zone` inside its TLD with
/// `ds` (empty = remove), re-signing incrementally with the retained TLD
/// keys so every other RRset keeps its original signature bytes.
fn set_ds(eco: &Ecosystem, session: &mut EditSession, zone: &Name, ds: &[DsData]) {
    let Some(tld) = zone.parent() else { return };
    let Some(keys) = eco.tld_keys.get(&tld) else {
        return;
    };
    let now = eco.now;
    let keys = keys.clone();
    let Some(tldz) = session.tld_mut(eco, &tld) else {
        return;
    };
    tldz.remove_rrset(zone, RecordType::Ds);
    if let Some(sigs) = tldz.remove_rrset(zone, RecordType::Rrsig) {
        let kept: Rdatas = sigs
            .rdatas
            .iter()
            .filter(|rd| matches!(rd, RData::Rrsig(s) if s.type_covered != RecordType::Ds.code()))
            .cloned()
            .collect();
        if !kept.is_empty() {
            tldz.add_rrset(RrSet {
                rdatas: kept,
                ..sigs
            });
        }
    }
    if !ds.is_empty() {
        for d in ds {
            tldz.add(Record::new(zone.clone(), 3600, RData::Ds(d.clone())));
        }
        if let Some(set) = tldz.rrset(zone, RecordType::Ds).cloned() {
            let sig = ZoneSigner::new(now).sign_rrset_record(&set, &keys, &tld);
            tldz.add(sig);
        }
    }
}

/// Replace the delegation NS RRset for `zone` inside its TLD with the
/// serving hosts' body (and add glue for the new hosts; glue is additive
/// — operator host glue is shared world infrastructure).
fn set_delegation_ns(
    eco: &Ecosystem,
    session: &mut EditSession,
    zone: &Name,
    op_idx: usize,
    serving: &Serving,
) {
    let Some(tld) = zone.parent() else { return };
    let hosts = eco.operators[op_idx].hosts.clone();
    let host_addrs = eco.operators[op_idx].host_addrs.clone();
    let Some(tldz) = session.tld_mut(eco, &tld) else {
        return;
    };
    tldz.remove_rrset(zone, RecordType::Ns);
    tldz.add_rrset(ns(zone, &serving.ns));
    for &h in &serving.idxs {
        for &a in &host_addrs[h] {
            tldz.add(Record::new(hosts[h].clone(), 3600, rdata_for(a)));
        }
    }
}

/// Rebuild a customer zone from scratch with fresh keys and install it
/// into the serving hosts' stores (removing it from every other store of
/// `op_idx` first), from the builder's constructors: the world's SOA and
/// CSYNC bodies, the serving hosts' NS body. Returns the keys when the
/// zone needs them, and its CDS/CDNSKEY RRsets (the signal material,
/// bodies shared).
fn rebuild_zone(
    eco: &mut Ecosystem,
    rng: &mut StdRng,
    zone: &Name,
    op_idx: usize,
    serving: &Serving,
    dnssec: DnssecState,
    cds: CdsState,
) -> (Option<ZoneKeys>, Vec<RrSet>) {
    let flavor = eco.operator_flavors[op_idx];
    let mut z = Zone::new(zone.clone());
    z.add_rrset(soa(zone));
    z.add_rrset(ns(zone, &serving.ns));
    let signed = matches!(dnssec, DnssecState::Secured | DnssecState::Island);
    let need_keys = signed || cds == CdsState::Valid;
    let keys = need_keys.then(|| ZoneKeys::generate(rng, Algorithm::EcdsaP256Sha256));
    let cds_sets = match &keys {
        Some(k) if cds == CdsState::Valid => {
            RrSet::group(&k.cds_records(zone, 300, flavor.cds_publication))
        }
        _ => Vec::new(),
    };
    for set in &cds_sets {
        z.add_rrset(set.clone());
    }
    if flavor.publish_csync && signed {
        z.add_rrset(csync(zone));
    }
    if signed {
        if let Some(k) = &keys {
            leaf_signer(eco.now, flavor.nsec3).sign(&mut z, k);
        }
    }
    let arc = Arc::new(z);
    for (i, store) in eco.operator_stores[op_idx].iter().enumerate() {
        if serving.idxs.contains(&i) {
            store.insert_shared(Arc::clone(&arc));
        } else {
            store.remove(zone);
        }
    }
    (keys, cds_sets)
}

/// Apply one epoch's planned transitions to the world. Returns the
/// ground-truth deltas and the invalidated zone cuts. Deterministic:
/// identical `(world, plan)` inputs produce identical worlds and logs.
pub fn apply_churn(eco: &mut Ecosystem, plan: &ChurnPlan) -> ChurnLog {
    // Fresh keys for rebuilt zones come from a churn-epoch RNG, drawn in
    // event order — operators re-key on every rebuild/migration, which
    // keeps the builder's key stream untouched.
    let mut rng = StdRng::seed_from_u64(
        DeterministicDraw::new(plan.seed, &[b"churn-keys", &plan.epoch.to_le_bytes()]).raw(),
    );
    let mut session = EditSession {
        tlds: BTreeMap::new(),
        bases: BTreeMap::new(),
        invalidated: BTreeSet::new(),
    };
    let index: HashMap<Name, usize> = eco
        .truth
        .iter()
        .enumerate()
        .map(|(i, t)| (t.name.clone(), i))
        .collect();
    let mut deltas = Vec::new();

    for (zone, action) in &plan.events {
        let Some(&ti) = index.get(zone) else { continue };
        let before = {
            let t = &eco.truth[ti];
            TruthSnapshot {
                operator: t.operator,
                dnssec: t.dnssec,
                cds: t.cds,
                signal: t.signal,
            }
        };
        let op = before.operator;
        let serving = Serving::of(eco, op, zone);
        if serving.idxs.is_empty() {
            continue;
        }
        let had_signal = before.signal == SignalTruth::Published(SignalDefect::None);
        let mut after = before;

        match *action {
            ChurnAction::AdoptIsland => {
                let (_, cds) = rebuild_zone(
                    eco,
                    &mut rng,
                    zone,
                    op,
                    &serving,
                    DnssecState::Island,
                    CdsState::Valid,
                );
                after.dnssec = DnssecState::Island;
                after.cds = CdsState::Valid;
                if had_signal {
                    // Signal material mirrors CDS: refresh it.
                    withdraw_signal(eco, &mut session, op, zone);
                    publish_signal(eco, &mut session, op, zone, &serving.idxs, &cds);
                }
                session.invalidated.insert(zone.clone());
            }
            ChurnAction::CompleteBootstrap => {
                // DS content from the zone's CDS, exactly as an RFC 9615
                // registry would install it. The zone is untouched.
                let ds: Vec<DsData> = eco.operator_stores[op]
                    .iter()
                    .find_map(|s| s.get(zone))
                    .and_then(|z| z.rrset(zone, RecordType::Cds).cloned())
                    .map(|set| {
                        set.rdatas
                            .iter()
                            .filter_map(|rd| match rd {
                                RData::Cds(d) => Some(d.clone()),
                                _ => None,
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                if ds.is_empty() {
                    continue;
                }
                set_ds(eco, &mut session, zone, &ds);
                after.dnssec = DnssecState::Secured;
                session.invalidated.insert(zone.clone());
            }
            ChurnAction::AbandonDnssec => {
                rebuild_zone(
                    eco,
                    &mut rng,
                    zone,
                    op,
                    &serving,
                    DnssecState::Unsigned,
                    CdsState::None,
                );
                if before.dnssec == DnssecState::Secured {
                    set_ds(eco, &mut session, zone, &[]);
                }
                if had_signal {
                    withdraw_signal(eco, &mut session, op, zone);
                    after.signal = SignalTruth::NotPublished;
                }
                after.dnssec = DnssecState::Unsigned;
                after.cds = CdsState::None;
                session.invalidated.insert(zone.clone());
            }
            ChurnAction::PublishCds | ChurnAction::WithdrawCds => {
                let new_cds = if *action == ChurnAction::PublishCds {
                    CdsState::Valid
                } else {
                    CdsState::None
                };
                let (keys, cds) =
                    rebuild_zone(eco, &mut rng, zone, op, &serving, before.dnssec, new_cds);
                if before.dnssec == DnssecState::Secured {
                    // Re-keyed: the DS must follow the new keys.
                    let ds = keys
                        .as_ref()
                        .map(|k| vec![k.ds_data(zone, DigestType::Sha256)])
                        .unwrap_or_default();
                    set_ds(eco, &mut session, zone, &ds);
                }
                if had_signal {
                    withdraw_signal(eco, &mut session, op, zone);
                    if new_cds == CdsState::Valid {
                        publish_signal(eco, &mut session, op, zone, &serving.idxs, &cds);
                    } else {
                        after.signal = SignalTruth::NotPublished;
                    }
                }
                after.cds = new_cds;
                session.invalidated.insert(zone.clone());
            }
            ChurnAction::PublishSignal => {
                let material = eco.operator_stores[op]
                    .iter()
                    .find_map(|s| s.get(zone))
                    .map(|z| cds_material(&z, zone))
                    .unwrap_or_default();
                if material.is_empty() {
                    continue;
                }
                publish_signal(eco, &mut session, op, zone, &serving.idxs, &material);
                after.signal = SignalTruth::Published(SignalDefect::None);
            }
            ChurnAction::WithdrawSignal => {
                withdraw_signal(eco, &mut session, op, zone);
                after.signal = SignalTruth::NotPublished;
            }
            ChurnAction::MigrateNs { to_op } => {
                if to_op >= eco.operators.len() || to_op == op {
                    continue;
                }
                // Deterministic host pair at the new operator.
                let n = eco.operators[to_op].hosts.len() as u64;
                let d = DeterministicDraw::new(
                    plan.seed,
                    &[b"churn-migrate", &plan.epoch.to_le_bytes(), &zone.to_wire()],
                );
                let h0 = d.below(n) as usize;
                let h1 = ((h0 as u64 + 1 + d.next().below(n - 1)) % n) as usize;
                let new_hosts = Serving::new(eco, to_op, vec![h0, h1]);

                // Tear down at the old operator.
                for store in &eco.operator_stores[op] {
                    store.remove(zone);
                }
                if had_signal {
                    withdraw_signal(eco, &mut session, op, zone);
                    after.signal = SignalTruth::NotPublished;
                }

                // Rebuild (re-keyed) at the new operator.
                let (keys, cds) = rebuild_zone(
                    eco,
                    &mut rng,
                    zone,
                    to_op,
                    &new_hosts,
                    before.dnssec,
                    before.cds,
                );
                set_delegation_ns(eco, &mut session, zone, to_op, &new_hosts);
                if before.dnssec == DnssecState::Secured {
                    let ds = keys
                        .as_ref()
                        .map(|k| vec![k.ds_data(zone, DigestType::Sha256)])
                        .unwrap_or_default();
                    set_ds(eco, &mut session, zone, &ds);
                }
                if had_signal
                    && before.cds == CdsState::Valid
                    && eco.operator_flavors[to_op].signal_enabled
                {
                    publish_signal(eco, &mut session, to_op, zone, &new_hosts.idxs, &cds);
                    after.signal = SignalTruth::Published(SignalDefect::None);
                }
                after.operator = to_op;
                session.invalidated.insert(zone.clone());
            }
        }

        // Commit the truth delta.
        {
            let t = &mut eco.truth[ti];
            t.operator = after.operator;
            t.dnssec = after.dnssec;
            t.cds = after.cds;
            t.signal = after.signal;
        }
        deltas.push(ChurnDelta {
            zone: zone.clone(),
            action: *action,
            before,
            after,
        });
    }

    // Close the take-out window: every zone the session holds goes back
    // into the store(s) it came from. No scan ran while it was open (see
    // `EditSession`), so no server ever missed a zone.
    for (tld, zone) in std::mem::take(&mut session.tlds) {
        if let Some(store) = eco.registry_stores.get(&tld) {
            store.insert(zone);
        }
    }
    // Base zones first get their changed owners re-signed, with their
    // retained keys at the original `eco.now`: every other owner keeps
    // its records, RRSIG bytes included. Planted defects are re-applied
    // at the re-signed owners *only* — `corrupt_rrsigs_at` is an XOR, so
    // a second pass over an owner that kept its RRSIGs would repair it.
    let mut signal_owners_changed = 0;
    let mut base_rrsets_signed = 0;
    for (base, edit) in std::mem::take(&mut session.bases) {
        let BaseEdit {
            op_idx,
            mut zone,
            changed,
        } = edit;
        let signed = eco.operator_flavors[op_idx].signal_enabled;
        if let Some(keys) = eco.base_keys.get(&base).filter(|_| signed) {
            let resigned = ZoneSigner::new(eco.now).resign_owners(&mut zone, keys, &changed);
            if let Some((badsig, expired)) = eco.base_defects.get(&base) {
                for n in badsig.iter().filter(|n| resigned.contains(n)) {
                    corrupt_rrsigs_at(&mut zone, n, &[RecordType::Cds, RecordType::Cdnskey]);
                }
                for n in expired.iter().filter(|n| resigned.contains(n)) {
                    expire_rrsigs_at(&mut zone, n, eco.now);
                }
            }
            signal_owners_changed += changed.len();
            base_rrsets_signed += resigned
                .iter()
                .filter_map(|n| zone.rrset(n, RecordType::Rrsig))
                .map(|sigs| sigs.rdatas.len())
                .sum::<usize>();
        }
        let arc = Arc::new(zone);
        for store in &eco.operator_stores[op_idx] {
            store.insert_shared(Arc::clone(&arc));
        }
    }

    ChurnLog {
        epoch: plan.epoch,
        deltas,
        invalidated_cuts: session.invalidated.into_iter().collect(),
        signal_owners_changed,
        base_rrsets_signed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build;
    use crate::spec::EcosystemConfig;

    #[test]
    fn plan_is_pure() {
        let eco = build(EcosystemConfig::tiny(42));
        let cfg = ChurnConfig::default();
        let a = ChurnPlan::generate(&eco, &cfg, 7, 3);
        let b = ChurnPlan::generate(&eco, &cfg, 7, 3);
        assert_eq!(a, b);
        let c = ChurnPlan::generate(&eco, &cfg, 8, 3);
        let d = ChurnPlan::generate(&eco, &cfg, 7, 4);
        // Different seed or epoch shifts at least the draw stream; the
        // tiny world has enough eligible zones that plans differ.
        assert!(a != c || a != d);
    }

    /// Every `(store, apex)` an infrastructure zone — TLD or operator
    /// base — is served from, with the zone: `(label, handle)`.
    fn infrastructure_zones(eco: &Ecosystem) -> Vec<(String, Arc<Zone>)> {
        let mut out = Vec::new();
        for (tld, store) in &eco.registry_stores {
            out.extend(store.get(tld).map(|z| (format!("registry/{tld}"), z)));
        }
        for (op_idx, stores) in eco.operator_stores.iter().enumerate() {
            for (h, store) in stores.iter().enumerate() {
                for base in eco.base_keys.keys() {
                    out.extend(
                        store
                            .get(base)
                            .map(|z| (format!("op{op_idx}/host{h}/{base}"), z)),
                    );
                }
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    fn labels(zones: &[(String, Arc<Zone>)]) -> Vec<&String> {
        zones.iter().map(|(label, _)| label).collect()
    }

    #[test]
    fn taken_zones_are_back_in_every_store_after_churn() {
        let mut eco = build(EcosystemConfig::tiny(42));
        let before: Vec<String> = labels(&infrastructure_zones(&eco))
            .into_iter()
            .cloned()
            .collect();
        assert!(before.len() > eco.registry_stores.len() + eco.base_keys.len());

        let cfg = ChurnConfig::default();
        let mut moved = 0;
        for epoch in 1..=3 {
            let mut plan = ChurnPlan::generate(&eco, &cfg, 7, epoch);
            // End on an event that leaves the loop body early (a
            // migration onto the zone's own operator), after the epoch's
            // real edits took zones out.
            let t = eco
                .truth
                .iter()
                .find(|t| eligible(t))
                .expect("an eligible zone");
            plan.events
                .push((t.name.clone(), ChurnAction::MigrateNs { to_op: t.operator }));
            let log = apply_churn(&mut eco, &plan);
            moved += log.signal_owners_changed;

            let after = infrastructure_zones(&eco);
            assert_eq!(
                labels(&after),
                before.iter().collect::<Vec<_>>(),
                "epoch {epoch}"
            );
            // One `Arc` per base zone, shared by all of the operator's
            // host stores — edited or not.
            for stores in &eco.operator_stores {
                for base in eco.base_keys.keys() {
                    let held: Vec<Arc<Zone>> = stores.iter().filter_map(|s| s.get(base)).collect();
                    assert!(held.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])), "{base}");
                }
            }
        }
        assert!(moved > 0, "three epochs must edit some base zone");
    }

    #[test]
    fn a_zone_someone_still_holds_is_cloned_not_stolen() {
        let cfg = ChurnConfig::default();
        let mut free = build(EcosystemConfig::tiny(42));
        let mut pinned = build(EcosystemConfig::tiny(42));
        // Hold every infrastructure zone of `pinned` across the calls:
        // `try_unwrap` fails and the clone fallback edits a copy.
        let held = infrastructure_zones(&pinned);
        let held_text: Vec<String> = held.iter().map(|(_, z)| z.to_zone_file()).collect();
        for epoch in 1..=3 {
            let plan = ChurnPlan::generate(&free, &cfg, 7, epoch);
            assert_eq!(plan, ChurnPlan::generate(&pinned, &cfg, 7, epoch));
            assert_eq!(
                apply_churn(&mut free, &plan),
                apply_churn(&mut pinned, &plan)
            );
        }
        let (a, b) = (infrastructure_zones(&free), infrastructure_zones(&pinned));
        assert_eq!(labels(&a), labels(&b));
        let mut edited = 0;
        for (((label, za), (_, zb)), ((_, old), old_text)) in
            a.iter().zip(&b).zip(held.iter().zip(&held_text))
        {
            assert_eq!(
                za.records(),
                zb.records(),
                "{label}: fallback world differs"
            );
            assert_eq!(
                &old.to_zone_file(),
                old_text,
                "{label}: the held zone was edited"
            );
            edited += usize::from(!Arc::ptr_eq(old, zb));
        }
        assert!(
            edited > 0,
            "three epochs must edit some infrastructure zone"
        );
    }

    #[test]
    fn apply_updates_truth_to_match_deltas() {
        let mut eco = build(EcosystemConfig::tiny(42));
        let cfg = ChurnConfig::default();
        let plan = ChurnPlan::generate(&eco, &cfg, 7, 0);
        assert!(!plan.events.is_empty(), "tiny world must churn");
        let log = apply_churn(&mut eco, &plan);
        assert_eq!(log.epoch, 0);
        for d in &log.deltas {
            let t = eco.truth_of(&d.zone).expect("churned zone exists");
            assert_eq!(t.operator, d.after.operator, "{}", d.zone);
            assert_eq!(t.dnssec, d.after.dnssec, "{}", d.zone);
            assert_eq!(t.cds, d.after.cds, "{}", d.zone);
            assert_eq!(t.signal, d.after.signal, "{}", d.zone);
        }
    }
}
