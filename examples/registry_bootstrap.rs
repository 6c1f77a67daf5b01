//! Registry-side Authenticated Bootstrapping — and its inverse — end to
//! end.
//!
//! Plays the role the paper argues registries should take (it is what
//! .ch/.li/.swiss/.whoswho do):
//!
//! 1. **AB**: find bootstrappable zones, run the RFC 9615 decision
//!    procedure, *install the DS records into the TLD zone*, and prove
//!    the zones subsequently validate as Secured.
//! 2. **unAB** (authenticated deletion — the paper notes one registrar
//!    implements it): find secured zones whose authenticated signal
//!    carries an RFC 8078 deletion request, *remove their DS*, and show
//!    they become exactly the paper's "secure island with CDS delete"
//!    state (the mechanism behind Cloudflare's 160 k islands, §4.2).
//!
//! ```sh
//! cargo run --release --example registry_bootstrap
//! ```

use bootscan::{AbClass, DnssecClass, ScanPolicy, Scanner};
use dns_crypto::DigestType;
use dns_ecosystem::{build, EcosystemConfig};
use dns_wire::rdata::{DsData, RData};
use dns_wire::record::{Record, RecordType};
use dns_zone::ZoneSigner;

fn main() {
    let eco = build(EcosystemConfig::tiny(42));
    let scanner = Scanner::for_ecosystem(&eco, ScanPolicy::default());

    // Pass 1: the registry's scan — who qualifies?
    let seeds = eco.seeds.compile(&eco.psl);
    let results = scanner.scan_all(&seeds);
    let candidates: Vec<_> = results
        .zones
        .iter()
        .filter(|z| z.ab == AbClass::SignalCorrect)
        .collect();
    let rejected: usize = results
        .zones
        .iter()
        .filter(|z| matches!(z.ab, AbClass::SignalIncorrect(_)))
        .count();
    println!(
        "scan: {} zones, {} pass the RFC 9615 checks, {} have signal defects",
        results.zones.len(),
        candidates.len(),
        rejected
    );

    // Pass 2: install DS records for every qualifying zone.
    let mut installed = 0;
    for z in &candidates {
        // The DS content comes from the zone's (authenticated) CDS RRs.
        let ds_rdatas: Vec<DsData> = z
            .cds_union()
            .iter()
            .filter_map(|c| match c {
                bootscan::types::CdsSeen::Cds(ds) => Some(ds.clone()),
                _ => None,
            })
            .collect();
        if ds_rdatas.is_empty() {
            continue;
        }
        let tld = z.name.parent().expect("registrable zone");
        let Some(store) = eco.registry_stores.get(&tld) else {
            continue;
        };
        let Some(tld_zone) = store.get(&tld) else {
            continue;
        };
        let keys = &eco.tld_keys[&tld];
        // Install: clone-modify-replace the TLD zone (the store serves
        // Arc<Zone>, so the swap is atomic from the servers' view).
        let mut new_zone = (*tld_zone).clone();
        for ds in &ds_rdatas {
            new_zone.add(Record::new(z.name.clone(), 3600, RData::Ds(ds.clone())));
        }
        // Sign the new DS RRset (everything else keeps its signatures).
        let set = new_zone
            .rrset(&z.name, RecordType::Ds)
            .expect("just added")
            .clone();
        let sig = ZoneSigner::new(eco.now).sign_rrset_record(&set, keys, &tld);
        new_zone.add(sig);
        store.insert(new_zone);
        installed += 1;
    }
    println!("registry installed DS for {installed} zones");
    // Sanity: a digest-type sanity pass like registries perform.
    assert!(candidates
        .iter()
        .flat_map(|z| z.cds_union())
        .filter_map(|c| match c {
            bootscan::types::CdsSeen::Cds(ds) => Some(ds.digest_type),
            _ => None,
        })
        .all(|dt| DigestType::from_code(dt).is_supported()));

    // Pass 3: re-scan — the bootstrapped zones must now validate Secured.
    let names: Vec<_> = candidates.iter().map(|z| z.name.clone()).collect();
    let scanner2 = Scanner::for_ecosystem(&eco, ScanPolicy::default());
    let rescan = scanner2.scan_all(&names);
    let secured = rescan
        .zones
        .iter()
        .filter(|z| z.dnssec == DnssecClass::Secured)
        .count();
    println!(
        "re-scan: {}/{} bootstrapped zones now validate as Secured",
        secured,
        rescan.zones.len()
    );
    for z in rescan
        .zones
        .iter()
        .filter(|z| z.dnssec != DnssecClass::Secured)
    {
        println!("  !! {} is {:?}", z.name, z.dnssec);
    }
    assert_eq!(secured, rescan.zones.len(), "every bootstrap must validate");
    println!("authenticated bootstrapping round-trip complete ✓\n");

    // ---- Pass 4: unAB — authenticated DNSSEC deletion --------------------
    // Candidates: secured zones whose signal RRs (validly signed, under
    // every NS) carry the RFC 8078 delete sentinel matching the in-zone
    // CDS.
    let unab: Vec<_> = results
        .zones
        .iter()
        .filter(|z| {
            z.dnssec == DnssecClass::Secured
                && z.cds == bootscan::CdsClass::Delete
                && !z.signal_observations.is_empty()
                && z.signal_observations.iter().all(|s| {
                    !s.cds.is_empty()
                        && s.dnssec_valid == Some(true)
                        && s.cds.iter().all(|c| c.is_delete())
                        && !s.zone_cut
                })
        })
        .collect();
    println!(
        "unAB: {} secured zones request authenticated deletion",
        unab.len()
    );
    assert!(!unab.is_empty(), "the ecosystem plants unAB pilots");
    for z in &unab {
        let tld = z.name.parent().unwrap();
        let store = &eco.registry_stores[&tld];
        let mut newz = (*store.get(&tld).unwrap()).clone();
        newz.remove_rrset(&z.name, RecordType::Ds);
        if let Some(sigs) = newz.remove_rrset(&z.name, RecordType::Rrsig) {
            for rec in sigs.records() {
                if let RData::Rrsig(s) = &rec.rdata {
                    if s.type_covered != RecordType::Ds.code() {
                        newz.add(rec);
                    }
                }
            }
        }
        store.insert(newz);
    }
    // Re-scan: the zones must now be islands with CDS deletes — the exact
    // §4.2 Cloudflare state ("the TLD operator respected the request, but
    // the DNS operator has not disabled DNSSEC").
    let names: Vec<_> = unab.iter().map(|z| z.name.clone()).collect();
    let rescan = scanner2.scan_all(&names);
    for z in &rescan.zones {
        assert_eq!(z.dnssec, DnssecClass::Island, "{}", z.name);
        assert_eq!(z.cds, bootscan::CdsClass::Delete, "{}", z.name);
    }
    println!(
        "unAB: {}/{} zones now islands-with-delete (paper §4.2's Cloudflare state) ✓",
        rescan.zones.len(),
        names.len()
    );
}
