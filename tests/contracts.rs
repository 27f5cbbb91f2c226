//! Cross-front-end contracts.
//!
//! **Memoized ≡ fresh.**  The facade builds a profile set's fault space once
//! and hands every later [`Lfi::explore`]/[`Lfi::rules`] call the same one.
//! An explorer started from that memo must behave exactly like one built
//! from scratch with `Explorer::new(&plan, profiles)`: the same store, byte
//! for byte, after every batch, the same batch reports, and the same
//! closed-loop decision log.  A fabric job over the same plan queues its
//! cells in the explorer's universe order.
//!
//! **Fabric ≡ explorer.**  A fabric job and an [`Explorer`] that execute the
//! same fault cells fold them through the same `FaultLedger`, so they must
//! report the same executed set, triggered coverage, clusters (every field,
//! example cell and case name included) and injection count — however the
//! fabric's leases were sized, split across workers or acked out of order.
//! Both journal the same records, a snapshot plus deltas, so their journals
//! recover to the same fold too.
//!
//! The plans are drawn so that both front ends run every cell: each cell's
//! ordinal is within the four `read` calls the workload makes, so every
//! injection fires, the explorer's probe reaches `read`, and nothing is
//! pruned.  Known gaps, which the test pins instead of comparing:
//! - `observed_calls`: both record the calls each case made to its cell's
//!   function, but only the explorer runs a baseline probe, which sees the
//!   workload's full depth.  A failing `read` ends the case, so the fabric
//!   records the deepest planned ordinal, never more than the explorer.
//! - `cases_executed`: the explorer counts its injection-free probe case.
//! - `unreached` and `pruned_functions` are frontier policy, which only the
//!   explorer applies; both front ends keep them in one `ExplorationState`.
//!
//! **Fixed seed ≡ same bytes.**  Two journaled runs of one fixed-seed
//! exploration write byte-identical snapshot and journal files.
//!
//! **Rules ≡ ledger.**  A rule engine folds what the `FaultLedger` folds —
//! a finished case's planned cell and its `CellResult` — and keys clusters
//! by the ledger's `ClusterKey`.  So a `ClosedLoop` over an explorer counts
//! the explorer's clusters, and a `JobMonitor` over a fabric job counts the
//! job report's, even when the baseline fails and a fault fires under two
//! stacks.  Their decision logs are not compared: the explorer's batch
//! order is not the fabric's lease order.
//!
//! **Frontier control ≡ snapshot.**  Any interleaving of batches, mutes,
//! unmutes, reweights, raised cells and taken deltas keeps the incremental
//! checkpoint exact (the first snapshot plus every delta taken equals the
//! live store, byte for byte), never runs a cell of a function muted when
//! its batch started, and replays identically.

use std::net::TcpListener;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use lfi::asm::{FaultSpec, FunctionSpec, LibraryCompiler, LibrarySpec};
use lfi::controller::{CampaignReport, FnWorkload, Workload};
use lfi::explore::{ExplorationStore, Explorer, FunctionCoverage};
use lfi::fabric::{Fabric, FabricClient, JobSpec, JobState};
use lfi::intern::Symbol;
use lfi::isa::Platform;
use lfi::profile::FaultProfile;
use lfi::profiler::ProfilerOptions;
use lfi::rules::{Action, CircuitBreaker, ClosedLoop, Condition, JobMonitor, Metric, Rule, RuleSet};
use lfi::runtime::{ExitStatus, NativeLibrary, Process, Signal};
use lfi::scenario::generator::Exhaustive;
use lfi::scenario::{FaultAction, FaultCell, FaultSpace, Plan, PlanEntry, Trigger};
use lfi::store::Journal;
use lfi::Lfi;

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
        .register(FnWorkload::new("reader", reader_process, read_four))
        .build();
    let job = fabric
        .submit(JobSpec::new("contract", "reader", plan.clone()).lease_batch(lease))
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

/// Each function's observed call depth in a store's coverage map.
fn observed_calls(store: &ExplorationStore) -> Vec<(Symbol, u64)> {
    store
        .coverage
        .iter()
        .map(|(symbol, coverage)| (*symbol, coverage.observed_calls))
        .collect()
}

/// What the fabric observes for a `read_four` plan: `read` down to the
/// deepest planned ordinal, since a failing read ends its case.
fn deepest_planned(cells: &[(u64, Option<i64>)]) -> Vec<(Symbol, u64)> {
    vec![(Symbol::intern("read"), cells.iter().map(|&(ordinal, _)| ordinal).max().unwrap_or(0))]
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
            prop_assert_eq!(observed_calls(&fabric), deepest_planned(&cells));
            prop_assert!(deepest_planned(&cells)[0].1 <= observed_calls(&explored)[0].1);
        }
    }
}

/// A fresh path in a per-process temp dir, one per call.
fn journal_path(name: &str) -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!("lfi-contracts-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{name}-{}.journal", NEXT.fetch_add(1, Ordering::Relaxed)))
}

/// Runs `plan` on a 1-worker fabric journaling from submission; returns
/// the live checkpoint and what the journal recovers to.
fn journal_fabric(plan: &Plan, lease: usize) -> (ExplorationStore, ExplorationStore) {
    let path = journal_path("fabric");
    let fabric = Fabric::builder()
        .workers(1)
        .register(FnWorkload::new("reader", reader_process, read_four))
        .build();
    let job = fabric
        .submit(JobSpec::new("contract", "reader", plan.clone()).lease_batch(lease))
        .expect("workload registered");
    fabric.journal_job(job, &path).expect("journal attaches");
    assert_eq!(fabric.wait_job(job, Duration::from_secs(60)), Some(JobState::Done));
    assert_eq!(fabric.journal_error(job), None);
    let live = fabric.checkpoint(job).expect("job exists");
    drop(fabric);
    let (_, recovered) = Journal::open(&path).expect("fabric journal recovers");
    std::fs::remove_file(&path).ok();
    (live, recovered)
}

/// Runs `plan` on an explorer that journals a delta after every batch;
/// returns the live store and what the journal recovers to.
fn journal_explorer(plan: &Plan, batch: usize) -> (ExplorationStore, ExplorationStore) {
    let path = journal_path("explorer");
    let workload: Arc<dyn Workload> = FnWorkload::shared("reader", reader_process, read_four);
    let mut explorer = Explorer::new(plan, Vec::new()).escalation(false).batch_size(batch);
    let mut journal = Journal::create(&path, &explorer.store()).expect("journal creates");
    while explorer.step_workload(&workload).is_some() {
        journal.append(&explorer.take_delta(), || explorer.store()).expect("delta appends");
    }
    drop(journal);
    let (_, recovered) = Journal::open(&path).expect("explorer journal recovers");
    std::fs::remove_file(&path).ok();
    (explorer.store(), recovered)
}

/// Fixed-seed determinism down to the bytes on disk: two journaled runs of
/// one exploration write identical binary snapshots and identical journal
/// files, since nothing a store or a delta records reads a clock.
#[test]
fn fixed_seed_reruns_write_byte_identical_snapshots_and_journals() {
    // Ordinals 1 to 4 all fire; the EIO cells crash and escalate to
    // neighbours beyond the plan, ordinal 5 among them, which never fires.
    let plan = plan_of(&[(1, Some(4)), (2, Some(5)), (3, Some(9)), (3, None), (4, Some(5))]);
    let run = || {
        let (journal_file, snapshot_file) = (journal_path("rerun"), journal_path("rerun-snapshot"));
        let workload: Arc<dyn Workload> = FnWorkload::shared("reader", reader_process, read_four);
        let mut explorer = Explorer::new(&plan, Vec::new()).seed(3).batch_size(2);
        let mut journal = Journal::create(&journal_file, &explorer.store()).expect("journal creates");
        while explorer.step_workload(&workload).is_some() {
            journal.append(&explorer.take_delta(), || explorer.store()).expect("delta appends");
        }
        drop(journal);
        lfi::store::save_exploration(&snapshot_file, &explorer.store()).expect("snapshot saves");
        let bytes = [snapshot_file, journal_file].map(|path| {
            let bytes = std::fs::read(&path).expect("file reads");
            std::fs::remove_file(&path).ok();
            bytes
        });
        (explorer.store(), bytes)
    };
    let (store, first) = run();
    let (_, second) = run();
    assert!(store.batch_index > 2 && store.crash_found && !store.unreached.is_empty(), "{store:?}");
    assert_eq!(first, second, "a fixed-seed rerun writes the same bytes");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The fabric ≡ explorer oracle, through their journals: a fabric job
    /// and an explorer journal the same record kinds, and both files
    /// recover through `Journal::open` to the same fold, up to
    /// the gaps pinned above.
    #[test]
    fn the_fabric_and_the_explorer_journal_the_same_cells_alike(
        cells in prop::collection::btree_set(
            (1u64..=4, prop_oneof![Just(None), Just(Some(4)), Just(Some(5)), Just(Some(9))]),
            1..11,
        ),
        lease in 1usize..=4,
    ) {
        let cells: Vec<(u64, Option<i64>)> = cells.into_iter().collect();
        let plan = plan_of(&cells);
        let (explored, explorer_journal) = journal_explorer(&plan, lease);
        let (fabric, fabric_journal) = journal_fabric(&plan, lease);
        prop_assert_eq!(&explorer_journal.to_xml(), &explored.to_xml());
        prop_assert_eq!(&fabric_journal.to_xml(), &fabric.to_xml());
        prop_assert_eq!(fabric_journal.executed.len(), cells.len(), "every cell runs");
        prop_assert_eq!(&fabric_journal.executed, &explorer_journal.executed);
        prop_assert_eq!(triggered(&fabric_journal), triggered(&explorer_journal));
        prop_assert_eq!(&fabric_journal.clusters, &explorer_journal.clusters);
        prop_assert_eq!(fabric_journal.injections_performed, explorer_journal.injections_performed);
        // The known gaps, pinned.
        prop_assert_eq!(fabric_journal.cases_executed + 1, explorer_journal.cases_executed, "the explorer's probe");
        prop_assert_eq!(observed_calls(&fabric_journal), deepest_planned(&cells));
        prop_assert!(deepest_planned(&cells)[0].1 <= observed_calls(&explorer_journal)[0].1);
    }
}

/// `read` straight from libc and through libwrap's `fetch`, so a `read`
/// fault fires under two stacks.
fn wrapped_reader() -> Process {
    let mut process = reader_process();
    process.load(
        NativeLibrary::builder("libwrap.so")
            .function("fetch", |ctx| ctx.call("read", &[3, 0, 8]).unwrap_or(-1))
            .build(),
    );
    process
}

/// One direct `read`, one through `fetch`; exits 1 whatever they return,
/// so the baseline fails too.
fn read_direct_and_wrapped(process: &mut Process) -> ExitStatus {
    let _ = process.call("read", &[3, 0, 8]);
    let _ = process.call("fetch", &[]);
    ExitStatus::Exited(1)
}

#[test]
fn the_rules_count_the_clusters_the_ledger_counts() {
    // Four `read` cells over two call sites, and a failing baseline that
    // the explorer's probe runs but no ledger clusters.
    let plan = plan_of(&[(1, Some(5)), (1, Some(9)), (2, Some(5)), (2, Some(9))]);
    let workload = FnWorkload::shared("wrapped-reader", wrapped_reader, read_direct_and_wrapped);
    let mut closed = ClosedLoop::new(Explorer::new(&plan, Vec::new()), RuleSet::new());
    closed.run_workload(&workload);
    let ledger = closed.explorer().clusters();
    let crashes = |clusters: &[lfi::explore::CrashCluster]| clusters.iter().filter(|c| c.is_crash()).count() as u64;
    let explorer_state = closed.engine().state();
    assert_eq!(explorer_state.clusters(), ledger.len() as u64, "the closed loop counts the explorer's ledger");
    assert_eq!(explorer_state.crash_clusters(), crashes(ledger));

    let fabric = Fabric::builder().workers(1).register_arc(workload).build();
    let job = fabric
        .submit(JobSpec::new("oracle", "wrapped-reader", plan))
        .expect("workload registered");
    assert_eq!(fabric.wait_job(job, Duration::from_secs(60)), Some(JobState::Done));
    // Folds the job's whole event stream; returns the monitor and how many
    // events it folded.
    let fold = |client: FabricClient| {
        let mut monitor = JobMonitor::new(client, job, RuleSet::new());
        let mut events = 0;
        loop {
            match monitor.poll(64).expect("the server answers") {
                0 => break (monitor, events),
                folded => events += folded,
            }
        }
    };
    let (monitor, events) = fold(fabric.connect());
    let report = fabric.report(job).expect("job exists");
    let job_state = monitor.engine().state();
    assert_eq!(job_state.clusters(), report.clusters.len() as u64, "the monitor counts the job's report");
    assert_eq!(job_state.crash_clusters(), crashes(&report.clusters));

    // The same stream read over the wire, from a server on loopback.
    let guard = fabric.serve_tcp(TcpListener::bind("127.0.0.1:0").expect("bind")).expect("server thread");
    let (tcp_monitor, tcp_events) = fold(FabricClient::tcp(guard.addr()).expect("connect"));
    assert!(events > 0);
    assert_eq!(tcp_events, events, "the TCP monitor folds every event the in-process one folds");
    let tcp_state = tcp_monitor.engine().state();
    assert_eq!(tcp_state.clusters(), job_state.clusters());
    assert_eq!(tcp_state.crash_clusters(), job_state.crash_clusters());

    assert_eq!((ledger.len(), report.clusters.len()), (2, 2), "one cluster per call site");
}

const DRAWN: &str = "libdrawn.so";

/// A facade over `libdrawn.so`, whose function `f{i}` fails with each
/// return value in `faults[i]`.
fn drawn_facade(faults: &[Vec<i64>]) -> Lfi {
    let spec = faults
        .iter()
        .enumerate()
        .fold(LibrarySpec::new(DRAWN, Platform::LinuxX86), |spec, (i, retvals)| {
            let function = FunctionSpec::scalar(format!("f{i}"), 1).success(0);
            spec.function(
                retvals
                    .iter()
                    .fold(function, |function, &retval| function.fault(FaultSpec::returning(retval))),
            )
        });
    let mut lfi = Lfi::with_options(ProfilerOptions::with_heuristics());
    lfi.add_library(LibraryCompiler::new().compile(&spec).object);
    lfi
}

/// Calls every `f{i}` `calls` times, round-robin.  A fault on `crash`'s
/// (function, call, return value) crashes the case; any other fails it.
fn drawn_workload(functions: usize, calls: u64, crash: FaultCell) -> Arc<dyn Workload> {
    let names: Vec<String> = (0..functions).map(|i| format!("f{i}")).collect();
    let library = names
        .iter()
        .fold(NativeLibrary::builder(DRAWN), |b, name| b.function(name, |_| 0))
        .build();
    FnWorkload::shared(
        "drawn",
        move || {
            let mut process = Process::new();
            process.load(library.clone());
            process
        },
        move |process: &mut Process| {
            let mut failed = false;
            for call in 1..=calls {
                for name in &names {
                    let ret = process.call(name, &[1]).unwrap_or(-1);
                    if ret < 0
                        && (name.as_str(), call, ret) == (crash.function.as_str(), crash.call_ordinal, crash.retval)
                    {
                        return ExitStatus::Crashed(Signal::Segv);
                    }
                    failed |= ret < 0;
                }
            }
            ExitStatus::Exited(i32::from(failed))
        },
    )
}

/// Escalate a crash's siblings once, and trip the per-symbol breaker.
fn policy() -> RuleSet {
    RuleSet::new()
        .rule(
            Rule::per_symbol(
                "escalate-on-crash",
                Condition::at_least(Metric::CrashClusters, 1.0),
                [Action::EscalateSiblings],
            )
            .once(),
        )
        .machine(CircuitBreaker::tripping_after(2).cooldown(1000))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn an_explorer_from_the_memoized_space_matches_a_fresh_one(
        faults in prop::collection::vec(prop::collection::btree_set(-5i64..=-1, 1..4), 1..4),
        calls in 1u64..=3,
        crash_pick in 0usize..64,
        seed in any::<u64>(),
        batch in 1usize..=4,
    ) {
        let faults: Vec<Vec<i64>> = faults.into_iter().map(|set| set.into_iter().collect()).collect();
        let lfi = drawn_facade(&faults);
        let plan = lfi.exhaustive_scenario(&[DRAWN]).unwrap();
        let profiles = lfi.profiles_of(&[DRAWN]).unwrap();
        let space = FaultSpace::from_plan(&plan);
        let workload = drawn_workload(faults.len(), calls, space.cells()[crash_pick % space.len()]);

        // The first call builds the memo; the second starts from it.
        lfi.explore(&Exhaustive, &[DRAWN]).unwrap();
        let mut memoized = lfi.explore(&Exhaustive, &[DRAWN]).unwrap().seed(seed).batch_size(batch);
        let mut fresh = Explorer::new(&plan, profiles.clone()).seed(seed).batch_size(batch);
        prop_assert_eq!(memoized.universe_len(), space.len());
        prop_assert_eq!(memoized.store().to_xml(), fresh.store().to_xml());
        loop {
            // Whole batch reports: case names, replay plans, outcomes.
            let (a, b) = (memoized.step_workload(&workload), fresh.step_workload(&workload));
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(memoized.store().to_xml(), fresh.store().to_xml());
            if a.is_none() {
                break;
            }
        }

        // The closed loop over the memo decides exactly as one over a fresh
        // explorer.
        let configure = |e: Explorer| e.seed(seed).batch_size(batch);
        let mut memoized = lfi.rules(&Exhaustive, &[DRAWN], policy()).unwrap().configure(configure);
        let mut fresh = ClosedLoop::new(Explorer::new(&plan, profiles), policy()).configure(configure);
        prop_assert_eq!(memoized.run_workload(&workload), fresh.run_workload(&workload));
        prop_assert_eq!(memoized.decision_log(), fresh.decision_log());

        // A fabric job queues the plan's cells in the explorer's universe
        // order, whatever order the plan lists them in (an inert fabric runs
        // nothing, so its checkpoint is the admission order).
        let universe: Vec<_> = Explorer::new(&plan, Vec::new()).store().frontier.iter().map(|f| f.cell).collect();
        let fabric = Fabric::builder().workers(0).register(FnWorkload::new("reader", reader_process, read_four)).build();
        let mut reversed = plan.clone();
        reversed.entries.reverse();
        for plan in [plan, reversed] {
            let job = fabric.submit(JobSpec::new("drawn", "reader", plan)).expect("workload registered");
            let queued: Vec<_> = fabric.checkpoint(job).expect("job exists").frontier.iter().map(|f| f.cell).collect();
            prop_assert_eq!(&queued, &universe);
        }
        prop_assert_eq!(universe.as_slice(), space.cells());
    }
}

/// One frontier-control call on an explorer.  Function and cell operands are
/// indices, taken modulo what the drawn library has.
#[derive(Debug, Clone, Copy)]
enum Control {
    Step,
    Mute(usize),
    Unmute(usize),
    Reweight(usize, i32),
    /// A universe cell, its call ordinal pushed `.1` deeper, at a priority.
    Raise(usize, u64, i32),
    TakeDelta,
}

fn control() -> impl Strategy<Value = Control> {
    prop_oneof![
        Just(Control::Step),
        Just(Control::Step),
        (0usize..4).prop_map(Control::Mute),
        (0usize..4).prop_map(Control::Unmute),
        (0usize..4, -60i32..=60).prop_map(|(f, delta)| Control::Reweight(f, delta)),
        (0usize..64, 0u64..=2, -60i32..=120).prop_map(|(c, deeper, priority)| Control::Raise(c, deeper, priority)),
        Just(Control::TakeDelta),
    ]
}

/// A fresh explorer over the drawn library, driven through `controls`.
/// Deltas are taken at each `TakeDelta`, and after every control too when
/// `delta_every_control` is set; each one must bring the shadow snapshot
/// to the live store's bytes.  Returns the batch reports and the final
/// store bytes.
fn play(
    plan: &Plan,
    profiles: &Arc<[FaultProfile]>,
    workload: &Arc<dyn Workload>,
    (seed, batch): (u64, usize),
    controls: &[Control],
    delta_every_control: bool,
) -> (Vec<CampaignReport>, String) {
    let mut explorer = Explorer::new(plan, Arc::clone(profiles)).seed(seed).batch_size(batch);
    let cells = FaultSpace::from_plan(plan).cells().to_vec();
    let mut functions: Vec<Symbol> = cells.iter().map(|cell| cell.function).collect();
    functions.dedup();
    let mut shadow = explorer.store();
    let mut reports = Vec::new();
    for &control in controls {
        match control {
            Control::Step => {
                let muted: Vec<String> =
                    functions.iter().filter(|&&f| explorer.is_muted(f)).map(|f| format!("{f}-c")).collect();
                if let Some(report) = explorer.step_workload(workload) {
                    for outcome in &report.outcomes {
                        let ran_muted = muted.iter().any(|prefix| outcome.name.starts_with(prefix.as_str()));
                        assert!(!ran_muted, "{} ran while its function was muted", outcome.name);
                    }
                    reports.push(report);
                }
            }
            Control::Mute(f) => explorer.mute(functions[f % functions.len()]),
            Control::Unmute(f) => explorer.unmute(functions[f % functions.len()]),
            Control::Reweight(f, delta) => explorer.reweight(functions[f % functions.len()], delta),
            Control::Raise(c, deeper, priority) => {
                let cell = cells[c % cells.len()];
                explorer.raise_cell(FaultCell { call_ordinal: cell.call_ordinal + deeper, ..cell }, priority);
            }
            Control::TakeDelta => {}
        }
        if delta_every_control || matches!(control, Control::TakeDelta) {
            explorer.take_delta().apply(&mut shadow);
            assert_eq!(shadow.to_xml(), explorer.store().to_xml(), "snapshot + deltas after {control:?}");
        }
        assert_eq!(explorer.frontier_len() + explorer.parked_len(), explorer.store().frontier.len());
    }
    explorer.take_delta().apply(&mut shadow);
    assert_eq!(shadow.to_xml(), explorer.store().to_xml(), "snapshot + deltas at the end");
    (reports, explorer.store().to_xml())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn frontier_control_interleavings_keep_the_snapshot_exact(
        faults in prop::collection::vec(prop::collection::btree_set(-5i64..=-1, 1..4), 1..4),
        calls in 1u64..=3,
        crash_pick in 0usize..64,
        seed in any::<u64>(),
        batch in 1usize..=4,
        controls in prop::collection::vec(control(), 1..40),
    ) {
        let faults: Vec<Vec<i64>> = faults.into_iter().map(|set| set.into_iter().collect()).collect();
        let lfi = drawn_facade(&faults);
        let plan = lfi.exhaustive_scenario(&[DRAWN]).unwrap();
        let profiles: Arc<[FaultProfile]> = lfi.profiles_of(&[DRAWN]).unwrap().into();
        let space = FaultSpace::from_plan(&plan);
        let workload = drawn_workload(faults.len(), calls, space.cells()[crash_pick % space.len()]);

        let config = (seed, batch);
        let spans = play(&plan, &profiles, &workload, config, &controls, false);
        let every = play(&plan, &profiles, &workload, config, &controls, true);
        prop_assert_eq!(spans, every, "taking deltas changes nothing, and a rerun replays identically");
    }
}
