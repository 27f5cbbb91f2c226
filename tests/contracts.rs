//! Cross-front-end contracts.
//!
//! **Fabric ≡ explorer.**  A fabric job and an [`Explorer`] that execute the
//! same fault cells fold them through the same `FaultLedger`, so they must
//! report the same executed set, triggered coverage, clusters (every field,
//! example cell and case name included) and injection count — however the
//! fabric's leases were sized, split across workers or acked out of order.
//!
//! The plans are drawn so that both front ends run every cell: each cell's
//! ordinal is within the four `read` calls the workload makes, so every
//! injection fires, the explorer's probe reaches `read`, and nothing is
//! pruned.  Known gaps, which the test pins instead of comparing:
//! - `observed_calls`: the explorer records the deepest call count it saw;
//!   the fabric writes 0, because a journal replay could not reproduce it.
//! - `cases_executed`: the explorer counts its injection-free probe case.
//! - `unreached` and `pruned_functions` are frontier policy, which only the
//!   explorer has.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use lfi::controller::{FnWorkload, Workload};
use lfi::explore::{ExplorationStore, Explorer, FunctionCoverage};
use lfi::fabric::{Fabric, JobSpec, JobState};
use lfi::intern::Symbol;
use lfi::runtime::{ExitStatus, NativeLibrary, Process, Signal};
use lfi::scenario::{FaultAction, Plan, PlanEntry, Trigger};

fn reader_process() -> Process {
    let mut process = Process::new();
    process.load(NativeLibrary::builder("libc.so.6").function("read", |ctx| ctx.arg(2)).build());
    process
}

/// Four `read`s, alternately under a `header` and a `body` frame.  A failed
/// read with EIO crashes; any other failure exits 1 in the header and 2 in
/// the body — so one plan yields several clusters with several members.
fn read_four(process: &mut Process) -> ExitStatus {
    for call in 0..4 {
        let frame = if call % 2 == 0 { "header" } else { "body" };
        process.push_frame(frame);
        let read = process.call("read", &[3, 0, 8]).unwrap_or(-1);
        process.pop_frame();
        if read < 0 {
            return match process.state().errno() {
                5 => ExitStatus::Crashed(Signal::Segv),
                _ => ExitStatus::Exited(1 + call % 2),
            };
        }
    }
    ExitStatus::Exited(0)
}

fn plan_of(cells: &[(u64, Option<i64>)]) -> Plan {
    cells.iter().fold(Plan::new(), |plan, &(ordinal, errno)| {
        let mut action = FaultAction::return_value(-1);
        if let Some(errno) = errno {
            action = action.with_errno(errno);
        }
        plan.entry(PlanEntry { function: "read".into(), trigger: Trigger::on_call(ordinal), action })
    })
}

fn explore(plan: &Plan, batch: usize) -> ExplorationStore {
    let workload: Arc<dyn Workload> = FnWorkload::shared("reader", reader_process, read_four);
    let mut explorer = Explorer::new(plan, Vec::new()).escalation(false).batch_size(batch);
    explorer.run_workload(&workload);
    assert!(explorer.finished());
    explorer.store()
}

fn run_fabric(plan: &Plan, lease: usize, workers: usize) -> ExplorationStore {
    let fabric = Fabric::builder()
        .workers(workers)
        .lease_batch(lease)
        .register(FnWorkload::new("reader", reader_process, read_four))
        .build();
    let job = fabric
        .submit(JobSpec::new("contract", "reader", plan.clone()))
        .expect("workload registered");
    assert_eq!(fabric.wait_job(job, Duration::from_secs(60)), Some(JobState::Done));
    fabric.checkpoint(job).expect("job exists")
}

/// The triggered half of a store's coverage map: `observed_calls` zeroed,
/// functions with no triggered cell dropped.
fn triggered(store: &ExplorationStore) -> Vec<(Symbol, FunctionCoverage)> {
    store
        .coverage
        .iter()
        .filter(|(_, coverage)| !coverage.triggered.is_empty())
        .map(|(symbol, coverage)| (*symbol, FunctionCoverage { observed_calls: 0, ..coverage.clone() }))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn the_fabric_and_the_explorer_fold_the_same_cells_alike(
        cells in prop::collection::btree_set(
            (1u64..=4, prop_oneof![Just(None), Just(Some(4)), Just(Some(5)), Just(Some(9))]),
            1..11,
        ),
        lease in 1usize..=4,
    ) {
        let cells: Vec<(u64, Option<i64>)> = cells.into_iter().collect();
        let plan = plan_of(&cells);
        let explored = explore(&plan, lease);
        prop_assert_eq!(explored.executed.len(), cells.len(), "every cell runs");
        prop_assert!(explored.unreached.is_empty() && explored.pruned_functions.is_empty());
        let failed: u64 = explored.clusters.iter().map(|cluster| cluster.count).sum();
        prop_assert_eq!(failed, cells.len() as u64, "every cell fails into some cluster");
        for workers in [1, 2] {
            let fabric = run_fabric(&plan, lease, workers);
            prop_assert_eq!(&fabric.executed, &explored.executed);
            prop_assert_eq!(triggered(&fabric), triggered(&explored));
            prop_assert_eq!(&fabric.clusters, &explored.clusters, "{} workers, leases of {}", workers, lease);
            prop_assert_eq!(fabric.injections_performed, explored.injections_performed);
            // The known gaps, pinned.
            prop_assert_eq!(fabric.cases_executed + 1, explored.cases_executed, "the explorer's probe");
            prop_assert!(fabric.coverage.iter().all(|(_, coverage)| coverage.observed_calls == 0));
        }
    }
}
