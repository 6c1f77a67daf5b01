//! scan-fabric: a fault-tolerant coordinator/worker scan fabric.
//!
//! The fabric shards the zone space by fnv64 of the zone name
//! ([`ShardPlan`]), dispatches shards to N worker threads over typed
//! `std::sync::mpsc` channels (lease grants in, shard reports out;
//! heartbeats are a counter on each worker's [`Fence`]), and
//! stream-merges per-shard journals into one report with bounded
//! memory — at most one shard's evidence plane is resident at a time.
//!
//! [`drive`] is the engine both journaled drivers share: it runs one
//! [`ShardJob`] on a fleet that lives for that call alone and joins
//! every worker thread before it returns. [`run_fabric`] drives one job
//! and merges it; `scan_continuous::run_continuous` drives one per
//! admitted epoch.
//!
//! # Determinism contract
//!
//! Every shard attempt scans its zones **sequentially** with a **fresh
//! scanner** (cold caches), resuming from the shard's own write-ahead
//! journal. The shard journal's final contents are therefore a pure
//! function of (world, shard plan, policy) — independent of worker
//! count, scheduling, retries, and injected faults. Since the merge
//! walks shards in id order and zones in plan order, the merged report
//! is **byte-identical** across fleet sizes and fault plans (for the
//! same shard count). Scheduling-dependent observability lives in
//! [`FabricOps`], which is deliberately excluded from byte comparison.
//!
//! # Failure semantics
//!
//! Workers hold time-limited leases enforced by a write [`Fence`]: a
//! journal append lands only while its lease is live, and lease
//! revocation linearizes with appends, so a stolen shard can never see
//! a torn write from its previous owner. Dead workers (their exit
//! report, sent as the thread returns) and hung workers (lease expiry
//! after quiet poll ticks) both cause deterministic work-stealing: the
//! shard is requeued with capped exponential backoff and resumed — not
//! restarted — from its journal. A shard that exhausts its attempt
//! budget degrades to explicit [`DnssecClass::Indeterminate`]
//! placeholders for its zones (never silent loss), named in
//! `MergedReport::abandoned_zones`.
//!
//! [`DnssecClass::Indeterminate`]: bootscan::DnssecClass::Indeterminate

mod coordinator;
mod faults;
mod merge;
mod protocol;
mod shard;
mod worker;

pub use coordinator::{drive, run_fabric, FabricConfig, FabricOutput};
pub use faults::{FabricFaultPlan, WorkerFault};
pub use merge::{
    fill_shard, CollectSink, FabricOps, MergeSink, MergedReport, NullMergeSink, StreamingMerge,
};
pub use protocol::{encode_msg, FailReason, FrameDecoder, FrameError, Msg, MAX_PAYLOAD};
pub use shard::ShardPlan;
pub use worker::{Fence, ScannerFactory, ShardJob};
