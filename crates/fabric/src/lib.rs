//! # lfi-fabric — a multi-tenant campaign service over one shared fleet
//!
//! The paper's end state is LFI running continuously against every library
//! a team ships — not one ad-hoc `CampaignRun` per process.  This crate is
//! that long-running service: a [`Fabric`] owns a shared worker fleet, and
//! tenants submit named [`JobSpec`]s (a workload name from the shared
//! [`WorkloadRegistry`](lfi_controller::WorkloadRegistry), a fault plan,
//! and policy knobs) that are multiplexed over it.
//!
//! Three mechanisms carry the design:
//!
//! * **Work-stealing case leases with worker-time fairness** — workers
//!   pull batches of fault-space cells (leases) from *any* runnable job.
//!   Each job is charged the worker time its leases take, and the job with
//!   the least charge per unit of [`JobSpec::weight`] gets the next lease,
//!   so a sweep of 100 ms cells cannot starve a smoke job of 10 µs ones.
//!   Leases are sized by time too: one cell first, then as many as fit a
//!   few milliseconds at the job's measured cost, capped by
//!   [`JobSpec::lease_batch`].  Each lease runs on the existing
//!   [`Campaign`](lfi_controller::Campaign) machinery as a serial session —
//!   the fleet is the parallelism.  A job of unknown cost has one lease
//!   out until its first cell acks, and a short lane beside the workers
//!   serves short jobs while every worker is inside a lease
//!   ([`FabricBuilder::workers`]), so a small job never waits for a long
//!   cell to end.
//! * **Crash-safe handoff** — a lease not acked within its deadline (the
//!   worker panicked, hung, or the process was killed) returns to the
//!   job's frontier; late acks are discarded wholesale, so no cell is ever
//!   lost or double-counted.  A job's complete state serializes as a
//!   standard [`ExplorationStore`](lfi_explore::ExplorationStore)
//!   checkpoint ([`FabricHandle::checkpoint`] /
//!   [`FabricHandle::submit_restored`]), folded by an order-independent
//!   [`FaultLedger`](lfi_explore::FaultLedger) so interrupted and clean
//!   runs are byte-identical; and a
//!   job can attach an `lfi-store` write-ahead journal
//!   ([`FabricHandle::journal_job`] / [`FabricHandle::recover_job`]) that
//!   appends one CRC-framed
//!   [`ExplorationDelta`](lfi_explore::ExplorationDelta) per change — the
//!   record an explorer journals — so keeping a job recoverable costs the
//!   delta instead of a full checkpoint per batch.  It is the explorer's
//!   [`Journal`](lfi_store::Journal) too: the same compaction every 32
//!   appends from the job's checkpoint, and the same snapshot + delta fold
//!   on recovery.
//! * **A wire protocol** — a line-delimited request/response surface
//!   ([`Request`]/[`Response`]) served in process on the caller's thread
//!   ([`FabricHandle::connect`]) and over plain TCP
//!   ([`FabricHandle::serve_tcp`], request lines bounded by
//!   [`MAX_LINE_BYTES`], peers by [`MAX_CONNECTIONS`]), so progress
//!   snapshots and event streams are observable from outside the process.
//!
//! ```
//! use lfi_fabric::{Fabric, JobSpec};
//! use lfi_controller::FnWorkload;
//! use lfi_runtime::{ExitStatus, NativeLibrary, Process};
//! use lfi_scenario::{FaultAction, Plan, PlanEntry, Trigger};
//! use std::time::Duration;
//!
//! let fabric = Fabric::builder()
//!     .workers(2)
//!     .register(FnWorkload::new(
//!         "reader",
//!         || {
//!             let mut process = Process::new();
//!             process.load(NativeLibrary::builder("libc.so.6").function("read", |ctx| ctx.arg(2)).build());
//!             process
//!         },
//!         |process| match process.call("read", &[3, 0, 8]) {
//!             Ok(n) if n >= 0 => ExitStatus::Exited(0),
//!             _ => ExitStatus::Exited(1),
//!         },
//!     ))
//!     .build();
//! let plan = Plan::new().entry(PlanEntry {
//!     function: "read".into(),
//!     trigger: Trigger::on_call(1),
//!     action: FaultAction::return_value(-1).with_errno(5),
//! });
//! let job = fabric.submit(JobSpec::new("smoke", "reader", plan)).unwrap();
//! assert!(fabric.wait_idle(Duration::from_secs(30)));
//! let report = fabric.report(job).unwrap();
//! assert_eq!(report.coverage.executed, 1);
//! let reports = fabric.drain();
//! assert_eq!(reports.len(), 1);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod fabric;
mod job;
mod scheduler;
mod server;
mod wire;

pub use fabric::{Fabric, FabricBuilder, FabricError, FabricHandle};
pub use job::{
    JobCoverage, JobEvent, JobEventKind, JobId, JobReport, JobSnapshot, JobSpec, JobState, ProgressSnapshot,
};
pub use server::{FabricClient, ServerGuard, MAX_CONNECTIONS, MAX_LINE_BYTES};
pub use wire::{escape, unescape, Request, Response, WireError};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FabricHandle>();
        assert_send_sync::<JobSpec>();
        assert_send_sync::<JobSnapshot>();
        assert_send_sync::<JobReport>();
        assert_send_sync::<Request>();
        assert_send_sync::<Response>();
        fn assert_send<T: Send>() {}
        assert_send::<Fabric>();
        assert_send::<FabricClient>();
    }
}
