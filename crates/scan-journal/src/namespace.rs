//! Composable journal namespaces: one scheme for every nested run.
//!
//! Both distributed tiers carve a run's state root into independent
//! journal directories — the fabric per *shard*, the longitudinal
//! service per *epoch*, and the continuous service per *epoch × shard*.
//! Each level must provide two guarantees:
//!
//! * **disjoint directories** — a crash corrupts at most one leaf; and
//! * **foreign-by-construction run ids** — a sibling's journal (or a
//!   previous epoch's journal for the same shard) recovered under the
//!   wrong identity is a *hard error* in [`recover`](crate::recover),
//!   never a silent mis-resume. This is what fences epochs from each
//!   other, across process incarnations too: a shard attempt of epoch N
//!   opens a directory whose header epoch-N−1 state can never satisfy.
//!
//! [`Namespace`] folds both: every [`child`](Namespace::child) level
//! joins a `"<prefix>-NNNN"` directory component and chains the run id
//! through FNV-1a 64 over `(label, parent run id, index)`. The
//! directory component never depends on the run id and the run id never
//! depends on the directory, so `root(dir, run_id).shard(k)` is
//! byte-compatible with state roots written before nesting existed
//! (which derived the two halves separately); the pinned-derivation
//! test below keeps it that way.

use crate::crc::fnv64;
use crate::journal::JournalHeader;
use crate::recover::fingerprint_names;
use dns_wire::name::Name;
use std::path::{Path, PathBuf};

/// One namespace level. The directory prefix and the run-id label
/// differ deliberately: they predate unification and are pinned by
/// existing on-disk state roots and recovery tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// A fabric shard (`shard-NNNN`, run ids labelled `fabric-shard`).
    Shard,
    /// A longitudinal epoch (`epoch-NNNN`, run ids labelled
    /// `scan-epoch`).
    Epoch,
}

impl Level {
    fn dir_prefix(self) -> &'static str {
        match self {
            Level::Shard => "shard",
            Level::Epoch => "epoch",
        }
    }

    fn run_label(self) -> &'static [u8] {
        match self {
            Level::Shard => b"fabric-shard",
            Level::Epoch => b"scan-epoch",
        }
    }
}

/// A journal namespace: a state directory plus the run id every journal
/// under it must carry. Root namespaces come from
/// [`root`](Namespace::root); nested levels from
/// [`child`](Namespace::child) (or the [`shard`](Namespace::shard) /
/// [`epoch`](Namespace::epoch) shorthands), which compose — the
/// continuous service uses `root(...).epoch(e).shard(k)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Namespace {
    dir: PathBuf,
    run_id: u64,
}

impl Namespace {
    /// The namespace of a whole run: its state root and top-level run
    /// id.
    pub fn root(dir: impl Into<PathBuf>, run_id: u64) -> Namespace {
        Namespace {
            dir: dir.into(),
            run_id,
        }
    }

    /// Descend one level: directory component `"<prefix>-NNNN"`, run id
    /// chained through FNV-1a 64 over `(label, parent run id, index)`.
    /// Distinct indices, distinct levels, and distinct parents all
    /// yield mutually foreign run ids.
    pub fn child(&self, level: Level, index: u32) -> Namespace {
        Namespace {
            dir: self.dir.join(format!("{}-{index:04}", level.dir_prefix())),
            run_id: fnv64(&[
                level.run_label(),
                &self.run_id.to_le_bytes(),
                &index.to_le_bytes(),
            ]),
        }
    }

    /// Shorthand for [`child`](Namespace::child)`(Level::Shard, shard)`.
    pub fn shard(&self, shard: u32) -> Namespace {
        self.child(Level::Shard, shard)
    }

    /// Shorthand for [`child`](Namespace::child)`(Level::Epoch, epoch)`.
    pub fn epoch(&self, epoch: u32) -> Namespace {
        self.child(Level::Epoch, epoch)
    }

    /// The state directory of this namespace.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The run id every journal under this namespace must carry.
    pub fn run_id(&self) -> u64 {
        self.run_id
    }

    /// The journal header for this namespace over `seeds` — the
    /// namespaced run id plus the fingerprint of exactly the seed slice
    /// this leaf scans, so a reshuffled plan (different slice) makes a
    /// stale directory a hard error instead of a silent mis-resume.
    pub fn header(&self, seeds: &[Name]) -> JournalHeader {
        JournalHeader {
            run_id: self.run_id,
            fingerprint: fingerprint_names(seeds),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_compose_into_nested_dirs_and_chained_run_ids() {
        let ns = Namespace::root("/tmp/study", 7).epoch(3).shard(12);
        assert_eq!(ns.dir(), Path::new("/tmp/study/epoch-0003/shard-0012"));
        // The nested run id is the shard derivation applied to the
        // epoch derivation — level order is what chains.
        assert_eq!(
            ns.run_id(),
            Namespace::root("", Namespace::root("", 7).epoch(3).run_id())
                .shard(12)
                .run_id()
        );
    }

    /// Pins the exact on-disk derivation. State roots written by
    /// earlier releases (which derived directory names and run ids
    /// through separate helper functions) must keep recovering, so the
    /// directory component format and the FNV chaining are frozen here
    /// byte-for-byte — if this test fails, existing journals on disk
    /// have become unreadable.
    #[test]
    fn derivation_is_pinned_for_on_disk_compatibility() {
        let shard = Namespace::root("/r", 42).shard(5);
        assert_eq!(shard.dir(), Path::new("/r/shard-0005"));
        assert_eq!(shard.run_id(), 0x5c9e_c1d9_a9ef_a6e2);
        let epoch = Namespace::root("/r", 42).epoch(5);
        assert_eq!(epoch.dir(), Path::new("/r/epoch-0005"));
        assert_eq!(epoch.run_id(), 0x0280_e052_16e3_a07b);
        // The directory half never depends on the run id; the run-id
        // half never depends on the directory.
        assert_eq!(Namespace::root("/r", 7).shard(5).dir(), shard.dir());
        assert_eq!(Namespace::root("/x", 42).shard(5).run_id(), shard.run_id());
        // The run id is FNV-1a 64 over (level label, parent id, index).
        assert_eq!(
            shard.run_id(),
            crate::crc::fnv64(&[b"fabric-shard", &42u64.to_le_bytes(), &5u32.to_le_bytes()])
        );
    }

    #[test]
    fn sibling_and_cross_level_namespaces_are_mutually_foreign() {
        let root = Namespace::root("/tmp/x", 9);
        // Siblings at one level.
        assert_ne!(root.shard(0).run_id(), root.shard(1).run_id());
        assert_ne!(root.epoch(0).run_id(), root.epoch(1).run_id());
        // Same index, different level.
        assert_ne!(root.shard(4).run_id(), root.epoch(4).run_id());
        // Same shard under different epochs — the cross-epoch fencing
        // guarantee: epoch N−1's journal can never satisfy epoch N's
        // header for the same shard.
        assert_ne!(
            root.epoch(0).shard(4).run_id(),
            root.epoch(1).shard(4).run_id()
        );
        // Different roots.
        assert_ne!(
            Namespace::root("/tmp/x", 9).shard(0).run_id(),
            Namespace::root("/tmp/x", 10).shard(0).run_id()
        );
    }
}
