//! Edge cases for composed journal namespaces: deep epoch×shard
//! nesting, path-collision resistance between namespace directories and
//! look-alike literal directories, and resume from a namespace whose
//! parent directory exists but whose leaf was never created.

use bootscan::{Evidence, ProgressSink, ScanRecord, ZoneEffects, ZoneEvent};
use dns_wire::name;
use dns_wire::name::Name;
use scan_journal::{recover, JournalSink, Namespace};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmpdir(label: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("bootscan-ns-edges-{label}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

/// A minimal but journalable event: empty observations, default
/// effects. Namespace tests only care about identity and placement,
/// not event content.
fn event_for(zone: &str) -> ZoneEvent {
    ZoneEvent {
        scan: Arc::new(ScanRecord {
            evidence: Evidence::empty(name!(zone), bootscan::DnssecClass::Unsigned, false),
            queries: 0,
            elapsed: 0,
            retry_stats: Default::default(),
        }),
        effects: ZoneEffects::default(),
        duration_delta: 10,
    }
}

fn seeds() -> Vec<Name> {
    vec![name!("a.example"), name!("b.example")]
}

/// Deep nesting: an epoch×shard grid yields pairwise-distinct
/// directories and pairwise-foreign run ids, each leaf recovers its own
/// events, and a sibling's header is a hard error — never a silent
/// mis-resume.
#[test]
fn deep_epoch_shard_grid_is_disjoint_and_mutually_foreign() {
    let root = tmpdir("grid");
    let zones = seeds();
    let mut leaves = Vec::new();
    for epoch in 0..3u32 {
        for shard in 0..3u32 {
            leaves.push((
                epoch,
                shard,
                Namespace::root(&root, 7).epoch(epoch).shard(shard),
            ));
        }
    }
    // Pairwise-distinct directories and run ids across the whole grid.
    for (i, (_, _, a)) in leaves.iter().enumerate() {
        for (_, _, b) in leaves.iter().skip(i + 1) {
            assert_ne!(a.dir(), b.dir());
            assert_ne!(a.run_id(), b.run_id());
        }
    }
    // Nesting order matters: epoch(e).shard(s) and shard(s).epoch(e)
    // are different namespaces even though both mention (e, s).
    let es = Namespace::root(&root, 7).epoch(1).shard(2);
    let se = Namespace::root(&root, 7).shard(2).epoch(1);
    assert_ne!(es.dir(), se.dir());
    assert_ne!(es.run_id(), se.run_id());

    // Journal one event per leaf; each leaf recovers exactly its own.
    for (epoch, shard, ns) in &leaves {
        let sink = JournalSink::create(ns.dir(), ns.header(&zones)).unwrap();
        assert!(sink.on_zone(&event_for(&format!("e{epoch}s{shard}.example"))));
    }
    for (epoch, shard, ns) in &leaves {
        let rec = recover(ns.dir(), ns.header(&zones)).unwrap();
        assert_eq!(rec.events.len(), 1);
        assert_eq!(
            rec.events[0].1.scan.name,
            name!(&format!("e{epoch}s{shard}.example"))
        );
    }
    // A sibling's header against this leaf's directory is a hard error.
    let (_, _, mine) = &leaves[0];
    let (_, _, sibling) = &leaves[1];
    let err = recover(mine.dir(), sibling.header(&zones)).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    let _ = fs::remove_dir_all(&root);
}

/// Collision resistance: a directory whose *path* collides with a
/// namespace (a literal `epoch-0003` dir written by someone else, or a
/// zone literally named `epoch-0003`) can share bytes in the path but
/// never an identity. Recovery under the rightful namespace of a
/// foreign journal at the colliding path is a hard error.
#[test]
fn colliding_literal_dirs_and_zone_names_cannot_be_mistaken_for_a_namespace() {
    let root = tmpdir("collide");
    let zones = seeds();
    let ns = Namespace::root(&root, 7).epoch(3);

    // A zone literally named after the directory component journals
    // fine — zone names live inside events, never in the path — and
    // `epoch-0003` (index 3) vs `epoch-0123` (a look-alike literal) stay
    // distinct directories.
    let sink = JournalSink::create(ns.dir(), ns.header(&zones)).unwrap();
    assert!(sink.on_zone(&event_for("epoch-0003.example")));
    drop(sink);
    assert_ne!(
        Namespace::root(&root, 7).epoch(123).dir(),
        root.join("epoch-0123-x")
    );
    assert_eq!(ns.dir(), root.join("epoch-0003"));

    // Simulate a foreign writer squatting on the colliding path: a
    // different run's journal placed where our epoch-3 namespace lives.
    let foreign_dir = tmpdir("collide-foreign");
    let foreign = Namespace::root(&foreign_dir, 8).epoch(3);
    let fsink = JournalSink::create(foreign.dir(), foreign.header(&zones)).unwrap();
    assert!(fsink.on_zone(&event_for("foreign.example")));
    drop(fsink);
    let squat = ns.dir();
    let _ = fs::remove_dir_all(squat);
    fs::create_dir_all(squat.parent().unwrap()).unwrap();
    copy_tree(foreign.dir(), squat);

    // Same path, foreign identity: hard error, not a silent mis-resume
    // and not "fresh directory".
    let err = recover(ns.dir(), ns.header(&zones)).unwrap_err();
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    let _ = fs::remove_dir_all(&root);
    let _ = fs::remove_dir_all(&foreign_dir);
}

/// Resume from a namespace whose parent directory was created but whose
/// leaf never was (a crash between `create_dir_all` levels, or a plan
/// that assigned the shard but never started it): recovery is cleanly
/// empty and `JournalSink::create` completes the missing levels.
#[test]
fn partially_created_parent_dir_resumes_as_fresh() {
    let root = tmpdir("partial");
    let zones = seeds();
    let ns = Namespace::root(&root, 7).epoch(2).shard(5);

    // Parent (`epoch-0002`) exists, leaf (`shard-0005`) does not.
    fs::create_dir_all(ns.dir().parent().unwrap()).unwrap();
    assert!(!ns.dir().exists());
    let rec = recover(ns.dir(), ns.header(&zones)).unwrap();
    assert!(rec.events.is_empty());
    assert_eq!(rec.next_seq(), 0);

    // create() fills in the leaf (and would fill deeper gaps too), and
    // a subsequent recovery round-trips the journaled event.
    let sink = JournalSink::create(ns.dir(), ns.header(&zones)).unwrap();
    assert!(sink.on_zone(&event_for("late.example")));
    drop(sink);
    let rec = recover(ns.dir(), ns.header(&zones)).unwrap();
    assert_eq!(rec.events.len(), 1);

    // Entirely missing ancestry also works: nothing under the root yet.
    let deep = Namespace::root(root.join("untouched"), 9).epoch(0).shard(0);
    assert!(!deep.dir().parent().unwrap().exists());
    let rec = recover(deep.dir(), deep.header(&zones)).unwrap();
    assert!(rec.events.is_empty());
    let sink = JournalSink::create(deep.dir(), deep.header(&zones)).unwrap();
    assert!(sink.on_zone(&event_for("deep.example")));
    let _ = fs::remove_dir_all(&root);
}

fn copy_tree(from: &Path, to: &Path) {
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dest = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_tree(&entry.path(), &dest);
        } else {
            fs::copy(entry.path(), &dest).unwrap();
        }
    }
}
