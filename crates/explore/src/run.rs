//! [`run_cells`]: the one mapping from fault cells to a streaming campaign
//! session, shared by the explorer's batches and the fabric's leases.

use std::sync::Arc;

use lfi_controller::{Campaign, CampaignReport, CancelHandle, CaseEvent, SkipReason};
use lfi_controller::{TestCase, Workload};
use lfi_scenario::{FaultCell, Plan};

use crate::ledger::CellResult;

/// What [`run_cells`] came back with.
#[derive(Debug)]
pub struct CellRun {
    /// The session's report, outcomes in case order.
    pub report: CampaignReport,
    /// Each executed cell with what the ledger folds for it, in case order.
    pub outcomes: Vec<(FaultCell, CellResult)>,
    /// Cells whose cases a cancel or a crash halt stopped before they ran.
    pub returned: Vec<FaultCell>,
    /// Cells whose case the workload's health check vetoed: a rerun would
    /// be vetoed alike.
    pub vetoed: Vec<FaultCell>,
}

/// Runs each cell as a single-fault case — named [`FaultCell::case_name`],
/// planned as [`FaultCell::plan_entry`] under `seed` — in one campaign
/// session over `workload` on up to `parallelism` threads.  With
/// `halt_on_crash` the session stops scheduling at the first crash.
///
/// `on_start` gets the session's cancel handle before any case runs.
/// Every event streams to `on_event` as it arrives, an outcome with its
/// cell's result, which records the calls the case made to the cell's
/// function.  Returning `false` cancels the session: no further case
/// starts, and a case already running finishes and still reports.
pub fn run_cells(
    cells: &[FaultCell],
    workload: &Arc<dyn Workload>,
    seed: Option<u64>,
    halt_on_crash: bool,
    parallelism: usize,
    on_start: impl FnOnce(&CancelHandle),
    mut on_event: impl FnMut(&CaseEvent, Option<&CellResult>) -> bool,
) -> CellRun {
    let cases = cells
        .iter()
        .map(|cell| TestCase::new(cell.case_name(), Plan { entries: vec![cell.plan_entry()], seed }));
    let run = Campaign::new()
        .cases(cases)
        .stop_on_first_crash(halt_on_crash)
        .parallelism(parallelism)
        .start_arc(Arc::clone(workload));
    on_start(&run.cancel_handle());
    // Per case, in case order: its result, or why it was skipped.
    let mut results: Vec<Option<CellResult>> = vec![None; cells.len()];
    let mut skipped: Vec<Option<SkipReason>> = vec![None; cells.len()];
    let report = run.drain(|event| {
        let result = match event {
            CaseEvent::Outcome { index, outcome } => {
                let calls = outcome.log.calls_to_sym(cells[*index].function);
                Some(&*results[*index].insert(CellResult { observed_calls: calls, ..CellResult::of(outcome) }))
            }
            CaseEvent::Skipped { index, reason, .. } => {
                skipped[*index] = Some(*reason);
                None
            }
            _ => None,
        };
        on_event(event, result)
    });
    let outcomes = cells.iter().zip(results).filter_map(|(&cell, result)| Some((cell, result?))).collect();
    let (mut returned, mut vetoed) = (Vec::new(), Vec::new());
    for (&cell, reason) in cells.iter().zip(skipped) {
        match reason {
            Some(SkipReason::Unhealthy) => vetoed.push(cell),
            Some(SkipReason::Cancelled | SkipReason::CrashHalt) => returned.push(cell),
            None => {}
        }
    }
    CellRun { report, outcomes, returned, vetoed }
}
