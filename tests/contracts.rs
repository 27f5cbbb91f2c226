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

use lfi::asm::{FaultSpec, FunctionSpec, LibraryCompiler, LibrarySpec};
use lfi::controller::{FnWorkload, Workload};
use lfi::explore::{ExplorationStore, Explorer, FunctionCoverage};
use lfi::fabric::{Fabric, JobSpec, JobState};
use lfi::intern::Symbol;
use lfi::isa::Platform;
use lfi::profiler::ProfilerOptions;
use lfi::rules::{Action, CircuitBreaker, ClosedLoop, Condition, Metric, Rule, RuleSet};
use lfi::runtime::{ExitStatus, NativeLibrary, Process, Signal};
use lfi::scenario::generator::Exhaustive;
use lfi::scenario::{FaultAction, FaultCell, FaultSpace, Plan, PlanEntry, Trigger};
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

/// A store's bytes, wall-clock time zeroed.
fn store_bytes(explorer: &Explorer) -> String {
    ExplorationStore { elapsed_ms: 0, ..explorer.store() }.to_xml()
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
        prop_assert_eq!(store_bytes(&memoized), store_bytes(&fresh));
        loop {
            // Whole batch reports: case names, replay plans, outcomes.
            let (a, b) = (memoized.step_workload(&workload), fresh.step_workload(&workload));
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(store_bytes(&memoized), store_bytes(&fresh));
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
