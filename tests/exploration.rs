//! End-to-end exploration over the libc-120-exports corpus: the
//! coverage-guided `Explorer` must find a seeded crash cell while executing
//! a fraction of the exhaustive campaign, and a mid-run kill +
//! `ExplorationStore` resume must reproduce the identical remaining batch
//! sequence.

use std::sync::Arc;

use lfi::controller::{FnWorkload, TestCase, Workload};
use lfi::corpus::{build_kernel, build_libc_scaled};
use lfi::explore::{ExplorationStore, Explorer};
use lfi::isa::Platform;
use lfi::profiler::ProfilerOptions;
use lfi::runtime::{ExitStatus, NativeLibrary, PooledProcess, Process, Signal};
use lfi::scenario::generator::Exhaustive;
use lfi::scenario::{FaultAction, Plan, PlanEntry, Trigger};
use lfi::Lfi;

const LIBC_EXPORTS: usize = 120;

fn lfi_over_libc() -> Lfi {
    let mut lfi = Lfi::with_options(ProfilerOptions::with_heuristics());
    lfi.add_library(build_libc_scaled(Platform::LinuxX86, LIBC_EXPORTS).compiled.object);
    lfi.set_kernel(build_kernel(Platform::LinuxX86));
    lfi
}

fn setup() -> Process {
    let mut process = Process::new();
    process.load(
        NativeLibrary::builder("libc.so.6")
            .function("open", |_| 3)
            .function("write", |ctx| ctx.arg(2))
            .function("fsync", |_| 0)
            .function("close", |_| 0)
            .build(),
    );
    process
}

/// A log-structured writer: open a segment, append four records, fsync,
/// then close the data and index descriptors.  Every injected failure is
/// handled as a clean error exit — except the §3.3 undocumented EIO from
/// `close`, which the writer does not expect and dies on.  The seeded crash
/// cell is therefore (close, errno EIO, 2nd call).
fn workload(process: &mut Process) -> ExitStatus {
    if process.call("open", &[0, 0, 0]).unwrap_or(-1) < 0 {
        return ExitStatus::Exited(2);
    }
    for _ in 0..4 {
        if process.call("write", &[3, 0, 64]).unwrap_or(-1) < 0 {
            return ExitStatus::Exited(1);
        }
    }
    if process.call("fsync", &[3]).unwrap_or(-1) < 0 {
        return ExitStatus::Exited(1);
    }
    for _ in 0..2 {
        if process.call("close", &[3]).unwrap_or(-1) < 0 {
            if process.state().errno() == 5 {
                // EIO on close: unflushed data silently lost — crash.
                return ExitStatus::Crashed(Signal::Segv);
            }
            return ExitStatus::Exited(1);
        }
    }
    ExitStatus::Exited(0)
}

fn writer() -> Arc<dyn Workload> {
    FnWorkload::shared("log-writer", setup, workload)
}

#[test]
fn explorer_finds_the_seeded_crash_in_a_quarter_of_the_exhaustive_budget() {
    let lfi = lfi_over_libc();
    let exhaustive_cases = lfi.campaign(&Exhaustive, &["libc.so.6"]).unwrap().case_list().len();

    let mut explorer = lfi
        .explore(&Exhaustive, &["libc.so.6"])
        .unwrap()
        .seed(2009)
        .batch_size(12)
        .halt_on_crash(true);
    assert_eq!(explorer.universe_len(), exhaustive_cases, "same fault space, adaptive order");
    let report = explorer.run_workload(&writer());

    assert!(explorer.crash_found(), "the seeded (close, EIO, call 2) cell crashes the writer");
    let crash = report.crash_clusters().next().expect("one crash cluster");
    assert_eq!(crash.function.as_str(), "close");
    assert_eq!(crash.outcome.to_string(), "crash:SIGSEGV");
    assert_eq!(crash.example.errno, Some(5));
    assert_eq!(crash.example.call_ordinal, 2);
    assert_eq!(crash.stack.last().map(|s| s.as_str()), Some("close"));

    // The probe pruned every export the writer never touches, so the crash
    // is found within a quarter of the exhaustive campaign.
    assert!(
        report.cases_executed as usize * 4 <= exhaustive_cases,
        "{} cases executed vs {} exhaustive",
        report.cases_executed,
        exhaustive_cases
    );
    assert!(report.coverage.pruned_functions > 100, "almost all of the 120 exports are unreachable");
}

#[test]
fn mid_run_kill_and_store_resume_reproduce_identical_batches() {
    let lfi = lfi_over_libc();
    let build = || lfi.explore(&Exhaustive, &["libc.so.6"]).unwrap().seed(77).batch_size(6);
    let writer = writer();

    // The uninterrupted run, batch report by batch report.
    let mut full = build();
    let mut full_reports = Vec::new();
    while let Some(report) = full.step_workload(&writer) {
        full_reports.push(report);
    }
    assert!(full_reports.len() > 3, "enough batches to kill one mid-run");

    // The killed run: three batches, then a snapshot through the XML round
    // trip — as a new process reloading the store would see it.
    let mut killed = build();
    let mut killed_reports = Vec::new();
    for _ in 0..3 {
        killed_reports.push(killed.step_workload(&writer).unwrap());
    }
    let xml = killed.store().to_xml();
    drop(killed);
    let store = ExplorationStore::from_xml(&xml).unwrap();
    let mut resumed = lfi.resume_exploration(&store, &["libc.so.6"]).unwrap();
    while let Some(report) = resumed.step_workload(&writer) {
        killed_reports.push(report);
    }

    // Byte-identical batch sequence: same case names, same plans, same
    // outcomes, same order.
    assert_eq!(killed_reports, full_reports);
    assert_eq!(resumed.coverage_summary(), full.coverage_summary());
    assert_eq!(resumed.clusters(), full.clusters());

    // The exploration as a whole walked the reachable slice of the space.
    let summary = full.coverage_summary();
    assert_eq!(summary.frontier_remaining, 0);
    assert!(summary.triggered > 0);
    assert!(summary.executed < summary.universe / 4, "pruning keeps execution well under the universe");
}

/// The log writer with a health check that vetoes every prepared process.
struct Vetoed;

impl Workload for Vetoed {
    fn name(&self) -> &str {
        "vetoed-writer"
    }

    fn setup(&self, _case: &TestCase) -> PooledProcess {
        setup().into()
    }

    fn run(&self, process: &mut Process) -> ExitStatus {
        workload(process)
    }

    fn health_check(&self, _process: &mut Process) -> bool {
        false
    }
}

#[test]
fn a_vetoed_cell_ends_as_unreached_instead_of_running_again() {
    let plan = (1..=3).fold(Plan::new(), |plan, ordinal| {
        plan.entry(PlanEntry {
            function: "write".into(),
            trigger: Trigger::on_call(ordinal),
            action: FaultAction::return_value(-1).with_errno(28),
        })
    });
    let vetoed: Arc<dyn Workload> = Arc::new(Vetoed);
    let mut explorer = Explorer::new(&plan, Vec::new());
    // The probe, then one batch that every veto ends.
    let batches = std::iter::from_fn(|| explorer.step_workload(&vetoed)).take(100).count();
    assert_eq!(batches, 2, "a vetoed cell is not scheduled again");
    assert!(explorer.finished());
    let store = explorer.store();
    assert_eq!((store.executed.len(), store.unreached.len(), store.frontier.len()), (0, 3, 0));
    assert_eq!(explorer.take_delta().unreached, store.unreached, "the next delta records the vetoed cells");
}
