//! Closed-loop campaign control end to end: the `lfi-rules` engine drives
//! an `Explorer` through `Lfi::rules()` with the built-in crash-adjacent
//! heuristic switched off, and the pinned control-plane contract holds —
//! fixed-seed serial runs produce byte-identical decision logs, a tripped
//! circuit breaker provably suppresses further injections for its symbol,
//! a mute that lands mid-batch cancels the rest of its batch, and
//! rule-driven escalation finds the seeded libc crash within the built-in
//! heuristic's case budget.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use lfi::asm::{FaultSpec, FunctionSpec, LibraryCompiler, LibrarySpec};
use lfi::controller::{FnWorkload, TestCase, Workload};
use lfi::corpus::{build_kernel, build_libc_scaled};
use lfi::explore::ExplorationReport;
use lfi::isa::Platform;
use lfi::profiler::ProfilerOptions;
use lfi::rules::{Action, CircuitBreaker, ClosedLoop, Condition, Metric, Rule, RuleSet};
use lfi::runtime::{ExitStatus, NativeLibrary, PooledProcess, Process, Signal};
use lfi::scenario::generator::Exhaustive;
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

/// The log-structured writer of `tests/exploration.rs`: survives every
/// documented failure, dies on the §3.3 undocumented EIO from `close`.
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
                return ExitStatus::Crashed(Signal::Segv);
            }
            return ExitStatus::Exited(1);
        }
    }
    ExitStatus::Exited(0)
}

/// The acceptance rule set: escalate sibling errnos after a crash cluster,
/// then trip the per-symbol circuit breaker on the second distinct one.
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

/// One fixed-seed rule-driven exploration over libc-120.
fn drive(lfi: &Lfi) -> (ClosedLoop, lfi::explore::ExplorationReport) {
    let mut closed = lfi
        .rules(&Exhaustive, &["libc.so.6"], policy())
        .unwrap()
        .configure(|e| e.seed(2009).batch_size(12).halt_on_crash(true));
    let writer = FnWorkload::shared("log-writer", setup, workload);
    let report = closed.run_workload(&writer);
    (closed, report)
}

/// `libcrashy.so`: `flaky` crashes under every injected fault — two
/// distinct crash clusters (SIGSEGV and SIGABRT) — while `steady` fails
/// cleanly.
fn lfi_over_crashy() -> Lfi {
    let mut lfi = Lfi::with_options(ProfilerOptions::with_heuristics());
    lfi.add_library(
        LibraryCompiler::new()
            .compile(
                &LibrarySpec::new("libcrashy.so", Platform::LinuxX86)
                    .function(FunctionSpec::scalar("steady", 1).success(0).fault(FaultSpec::returning(-1)))
                    .function(
                        FunctionSpec::scalar("flaky", 1)
                            .success(0)
                            .fault(FaultSpec::returning(-2))
                            .fault(FaultSpec::returning(-3))
                            .fault(FaultSpec::returning(-4))
                            .fault(FaultSpec::returning(-5)),
                    ),
            )
            .object,
    );
    lfi
}

/// The signal a `flaky` fault with return value `retval` crashes with.
fn flaky_signal(retval: i64) -> Option<Signal> {
    match retval {
        -2 | -4 => Some(Signal::Segv),
        -3 | -5 => Some(Signal::Abort),
        _ => None,
    }
}

/// The application over `libcrashy.so`.
fn crashy_app() -> Arc<dyn Workload> {
    let runtime = NativeLibrary::builder("libcrashy.so")
        .function("steady", |_| 0)
        .function("flaky", |_| 0)
        .build();
    FnWorkload::shared(
        "crashy-app",
        move || {
            let mut process = Process::new();
            process.load(runtime.clone());
            process
        },
        |process: &mut Process| {
            let _ = process.call("steady", &[1]);
            // Four calls so every fault ordinal the generator planned fires.
            for _ in 0..4 {
                let result = process.call("flaky", &[1]).unwrap_or(0);
                if let Some(signal) = flaky_signal(result) {
                    return ExitStatus::Crashed(signal);
                }
                if result < 0 {
                    return ExitStatus::Exited(1);
                }
            }
            ExitStatus::Exited(0)
        },
    )
}

/// One fixed-seed breaker-driven exploration over `libcrashy.so`, whose
/// mute lands mid-batch.
fn drive_breaker(app: &Arc<dyn Workload>) -> (ClosedLoop, lfi::explore::ExplorationReport) {
    let set = RuleSet::new().machine(CircuitBreaker::tripping_after(2).cooldown(1000));
    let mut closed = lfi_over_crashy()
        .rules(&Exhaustive, &["libcrashy.so"], set)
        .unwrap()
        .configure(|e| e.seed(7).batch_size(8).parallelism(1));
    let report = closed.run_workload(app);
    (closed, report)
}

/// The decision log and the NDJSON metrics (vitals refreshed first).
fn logs(closed: &mut ClosedLoop) -> (String, String) {
    closed.engine_mut().export_vitals();
    (closed.decision_log(), closed.engine().sink().to_ndjson())
}

#[test]
fn decision_log_is_byte_identical_across_fixed_seed_reruns() {
    let lfi = lfi_over_libc();
    let (mut first_loop, _) = drive(&lfi);
    let (mut second_loop, _) = drive(&lfi);
    let (first, first_metrics) = logs(&mut first_loop);
    let (second, second_metrics) = logs(&mut second_loop);
    assert!(!first.is_empty(), "the seeded crash fires the escalation rule");
    assert_eq!(first, second, "pinned contract: byte-identical logs");
    // The metrics sink is as reproducible as the log.
    assert_eq!(first_metrics, second_metrics);

    // The same holds on the circuit-breaker fixture, whose mute lands
    // mid-batch and cancels the rest of it.
    let app = crashy_app();
    let (mut first_loop, _) = drive_breaker(&app);
    let (mut second_loop, _) = drive_breaker(&app);
    let (first, first_metrics) = logs(&mut first_loop);
    let (second, second_metrics) = logs(&mut second_loop);
    assert!(first.contains("action=mute"), "log:\n{first}");
    assert_eq!(first, second, "pinned contract: byte-identical logs");
    assert_eq!(first_metrics, second_metrics);
}

#[test]
fn rule_driven_escalation_stays_within_the_builtin_heuristic_budget() {
    let lfi = lfi_over_libc();

    // The built-in crash-adjacent heuristic as the budget yardstick.
    let mut builtin = lfi
        .explore(&Exhaustive, &["libc.so.6"])
        .unwrap()
        .seed(2009)
        .batch_size(12)
        .halt_on_crash(true);
    let yardstick = builtin.run_workload(&FnWorkload::shared("log-writer", setup, workload));
    assert!(builtin.crash_found());

    // The same exploration, heuristic off, refinement supplied by rules.
    let (closed, report) = drive(&lfi);
    assert!(closed.explorer().crash_found(), "rules find the seeded crash too");
    let crash = report.crash_clusters().next().expect("one crash cluster");
    assert_eq!(crash.function.as_str(), "close");
    assert_eq!(crash.example.errno, Some(5), "the undocumented EIO");
    assert!(
        report.cases_executed <= yardstick.cases_executed && report.cases_executed <= 13,
        "{} rule-driven cases vs {} builtin",
        report.cases_executed,
        yardstick.cases_executed
    );
    // The escalation decision is on the log, cell attribution included.
    let log = closed.decision_log();
    assert!(log.contains("rule/escalate-on-crash"), "log:\n{log}");
    assert!(log.contains("action=escalate-siblings"), "log:\n{log}");
    assert!(log.contains("sym=close"), "log:\n{log}");
}

#[test]
fn tripped_breaker_suppresses_further_injections_for_the_symbol() {
    let (closed, report) = drive_breaker(&crashy_app());

    // The breaker tripped on the second distinct cluster and muted `flaky`.
    let log = closed.decision_log();
    assert!(log.contains("machine/circuit-breaker:Closed->Open"), "log:\n{log}");
    assert!(log.contains("sym=flaky") && log.contains("action=mute"), "log:\n{log}");
    let engine = closed.engine();
    assert!(engine.is_muted("flaky"));
    assert!(!engine.is_muted("steady"));

    // Suppression is provable: of `flaky`'s four fault cells, at most three
    // ran before the trip (both clusters appear within any three of them),
    // and the rest were parked, not executed.  `steady` was untouched.
    let flaky_injections = engine.state().symbol_named("flaky").map(|s| s.injections).unwrap_or(0);
    let steady_injections = engine.state().symbol_named("steady").map(|s| s.injections).unwrap_or(0);
    assert!((2..=3).contains(&flaky_injections), "{flaky_injections} flaky injections");
    assert_eq!(steady_injections, 1, "the healthy symbol keeps running");
    assert!(closed.explorer().parked_len() >= 1, "unexecuted flaky cells are parked");
    assert!(report.cases_executed >= 4, "probe + steady + the pre-trip flaky cases");
    assert!(closed.explorer().is_muted(lfi::intern::Symbol::intern("flaky")));
}

/// Records the name of every case the wrapped workload sets up, in order.
struct StartLog {
    inner: Arc<dyn Workload>,
    started: Mutex<Vec<String>>,
}

impl Workload for StartLog {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn setup(&self, case: &TestCase) -> PooledProcess {
        self.started.lock().unwrap().push(case.name.clone());
        self.inner.setup(case)
    }

    fn run(&self, process: &mut Process) -> ExitStatus {
        self.inner.run(process)
    }
}

/// The batch that ran a case (the probe is batch 0): each cell runs at most
/// once, so its case name appears in exactly one batch report.
fn batch_of(exploration: &ExplorationReport, case: &str) -> usize {
    exploration
        .batches
        .iter()
        .position(|batch| batch.outcomes.iter().any(|outcome| outcome.name == case))
        .expect("every started case ran to an outcome")
}

/// The return value a cell's case name injects (`flaky-c1-r-3` → -3).
fn retval_of(case: &str) -> i64 {
    let tail = &case[case.find("-r").expect("retval field") + 2..];
    tail[..tail.find("-e").unwrap_or(tail.len())].parse().expect("numeric retval")
}

#[test]
fn a_mute_landing_mid_batch_cancels_the_rest_of_the_batch() {
    let log = Arc::new(StartLog { inner: crashy_app(), started: Mutex::new(Vec::new()) });
    let app: Arc<dyn Workload> = Arc::clone(&log) as _;
    let (closed, exploration) = drive_breaker(&app);
    assert!(closed.engine().is_muted("flaky"));
    let started = log.started.lock().unwrap().clone();

    // The deciding case is the `flaky` case that brings the second distinct
    // crash signal; its outcome is the event the breaker trips on.
    let mut signals = HashSet::new();
    let deciding = started
        .iter()
        .position(|case| {
            case.starts_with("flaky-") && signals.insert(flaky_signal(retval_of(case))) && signals.len() == 2
        })
        .expect("the breaker's second crash cluster");
    assert!(
        started[deciding + 1..].iter().all(|case| !case.starts_with("flaky-")),
        "no case injecting the muted function starts after the deciding event: {started:?}"
    );

    // The batch stops right after the deciding case ...
    let batch = batch_of(&exploration, &started[deciding]);
    assert!(started[deciding + 1..].iter().all(|case| batch_of(&exploration, case) > batch), "{started:?}");
    let report = &exploration.batches[batch];
    assert!(report.cases_skipped > 0, "the mute landed mid-batch");
    assert_eq!(report.outcomes.last().map(|o| o.name.as_str()), Some(started[deciding].as_str()));

    // ... and its unexecuted `steady` cell went back to the frontier and
    // ran, once, in a later batch, while `flaky`'s unexecuted cells stay
    // parked.
    let steady: Vec<&String> = started.iter().filter(|case| case.starts_with("steady-")).collect();
    assert_eq!(steady.len(), 1, "{started:?}");
    assert!(batch_of(&exploration, steady[0]) > batch, "{started:?}");
    let flaky_runs = started.iter().filter(|case| case.starts_with("flaky-")).count();
    assert_eq!(closed.explorer().parked_len(), 4 - flaky_runs);
    assert_eq!(closed.explorer().frontier_len(), 0);
}
