//! Integration coverage for the streaming campaign session: `CaseEvent`
//! ordering and determinism, mid-run cancellation at several parallelism
//! degrees, the Workload hook contract, and the equivalence of the blocking
//! wrappers and the callback drain with the stream they wrap.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use lfi::controller::{
    Campaign, CampaignReport, CaseEvent, FnWorkload, SkipReason, TestCase, Workload, WorkloadRegistry,
};
use lfi::runtime::{ExitStatus, NativeLibrary, Process, Signal};
use lfi::scenario::{FaultAction, Plan, PlanEntry, Trigger};

fn setup() -> Process {
    let mut process = Process::new();
    process.load(
        NativeLibrary::builder("libc.so.6")
            .function("read", |ctx| ctx.arg(2))
            .function("malloc", |ctx| if ctx.arg(0) > 1 << 30 { 0 } else { 0x1000 })
            .build(),
    );
    process
}

/// Read a header, allocate accordingly; a short read provokes a fatal
/// allocation failure (SIGABRT), a failed read exits cleanly with 1.
fn workload(process: &mut Process) -> ExitStatus {
    let header = process.call("read", &[3, 0, 8]).unwrap_or(-1);
    if header < 0 {
        return ExitStatus::Exited(1);
    }
    let size = if header == 8 { 64 } else { 1 << 40 };
    if process.call("malloc", &[size]).unwrap_or(0) == 0 {
        return ExitStatus::Crashed(Signal::Abort);
    }
    ExitStatus::Exited(0)
}

/// `count` cases mixing clean runs, random-trigger failures and one crash.
fn mixed_cases(count: usize) -> Vec<TestCase> {
    (0..count)
        .map(|i| {
            let plan = match i % 4 {
                0 => Plan::new(),
                1 => Plan::new().with_seed(100 + i as u64).entry(PlanEntry {
                    function: "read".into(),
                    trigger: Trigger::with_probability(0.5),
                    action: FaultAction::return_value(-1).with_errno(5),
                }),
                2 => Plan::new().entry(PlanEntry {
                    function: "read".into(),
                    trigger: Trigger::on_call(1),
                    action: FaultAction::return_value(-1).with_errno(5),
                }),
                _ => Plan::new().entry(PlanEntry {
                    function: "read".into(),
                    trigger: Trigger::on_call(1),
                    action: FaultAction::return_value(4),
                }),
            };
            TestCase::new(format!("case-{i:02}"), plan)
        })
        .collect()
}

fn stream_events(campaign: Campaign) -> Vec<CaseEvent> {
    campaign.start(FnWorkload::new("mixed-reader", setup, workload)).collect()
}

#[test]
fn serial_event_stream_is_byte_identical_across_reruns() {
    let build = || Campaign::new().cases(mixed_cases(12)).parallelism(1);
    let first = stream_events(build());
    let second = stream_events(build());
    assert_eq!(first, second, "fixed seeds + one worker => identical event sequences");
    // And the per-case ordering contract holds: Started, Injection*, Outcome.
    let mut last_started = None;
    for event in &first {
        match event {
            CaseEvent::Started { index, .. } => {
                assert_eq!(Some(*index), last_started.map(|i: usize| i + 1).or(Some(0)));
                last_started = Some(*index);
            }
            CaseEvent::Injection { index, .. } | CaseEvent::Outcome { index, .. } => {
                assert_eq!(Some(*index), last_started, "case events follow their own Started");
            }
            CaseEvent::Skipped { .. } => unreachable!("nothing halts this run"),
        }
    }
    assert_eq!(first.iter().filter(|e| matches!(e, CaseEvent::Outcome { .. })).count(), 12);
}

#[test]
fn serial_event_stream_is_deterministic_under_stop_on_first_crash() {
    let build = || Campaign::new().cases(mixed_cases(12)).stop_on_first_crash(true).parallelism(1);
    let first = stream_events(build());
    let second = stream_events(build());
    assert_eq!(first, second, "the halt point is part of the deterministic stream");
    // Case 3 is the first crash; cases 4.. surface as CrashHalt skips, in
    // ascending order, after the executed prefix.
    let crash_at = first
        .iter()
        .position(|e| matches!(e, CaseEvent::Outcome { outcome, .. } if outcome.status.is_crash()))
        .expect("one case crashes");
    let skips: Vec<usize> = first
        .iter()
        .filter_map(|e| match e {
            CaseEvent::Skipped { index, reason, .. } => {
                assert_eq!(*reason, SkipReason::CrashHalt);
                Some(*index)
            }
            _ => None,
        })
        .collect();
    assert_eq!(skips, (4..12).collect::<Vec<_>>());
    assert!(
        first[crash_at..].iter().all(|e| !matches!(e, CaseEvent::Started { .. })),
        "nothing starts after the crash"
    );
}

#[test]
fn cancellation_mid_run_leaves_a_consistent_report_at_any_parallelism() {
    for workers in [1usize, 4, 8] {
        // Far more cases than the bounded channel can buffer: backpressure
        // guarantees unclaimed cases remain when the cancel lands.
        let total = 48;
        let mut run = Campaign::new().cases(mixed_cases(total)).parallelism(workers).start(FnWorkload::new(
            "mixed-reader",
            setup,
            workload,
        ));
        let cancel = run.cancel_handle();
        // Cancel once a handful of outcomes arrived, and read the stream to
        // its end.
        let (mut outcome_indices, mut skipped_indices) = (Vec::new(), Vec::new());
        for event in run.by_ref() {
            match event {
                CaseEvent::Outcome { index, .. } => {
                    outcome_indices.push(index);
                    if outcome_indices.len() == 3 {
                        cancel.cancel();
                    }
                }
                CaseEvent::Skipped { index, .. } => skipped_indices.push(index),
                _ => {}
            }
        }
        // The stream ends every scheduled case exactly once, as an outcome
        // or as a skip: the claim counter's never-claimed tail and the
        // claimed cases partition 0..total.
        let mut ended: Vec<usize> = outcome_indices.iter().chain(&skipped_indices).copied().collect();
        ended.sort_unstable();
        assert_eq!(ended, (0..total).collect::<Vec<_>>(), "parallelism({workers})");
        let report = run.into_report();
        // Consistency: the report is the stream's fold, outcomes stay in
        // case order, and nothing is double-counted.
        assert_eq!(report.outcomes.len(), outcome_indices.len(), "parallelism({workers})");
        assert_eq!(report.cases_skipped, skipped_indices.len(), "parallelism({workers})");
        assert_eq!(report.outcomes.len() + report.cases_skipped, total, "parallelism({workers})");
        assert!(report.outcomes.len() >= 3, "parallelism({workers}) reported the in-flight outcomes");
        assert!(report.cases_skipped > 0, "parallelism({workers}) skipped the tail");
        let mut names: Vec<usize> = report
            .outcomes
            .iter()
            .map(|o| o.name.trim_start_matches("case-").parse::<usize>().unwrap())
            .collect();
        let sorted = {
            let mut sorted = names.clone();
            sorted.sort_unstable();
            sorted
        };
        assert_eq!(names, sorted, "parallelism({workers}) outcomes are slot-ordered");
        names.dedup();
        assert_eq!(names.len(), report.outcomes.len(), "parallelism({workers}) no duplicate outcomes");
        assert!(report.to_text().contains(&format!("cases skipped: {}", report.cases_skipped)));
    }
}

#[test]
fn cancel_handle_is_idempotent_and_inert_after_drain() {
    // Double-cancel mid-run: the second call is a no-op, the report is as
    // consistent as after a single cancel.
    let mut run =
        Campaign::new()
            .cases(mixed_cases(48))
            .parallelism(4)
            .start(FnWorkload::new("mixed-reader", setup, workload));
    let cancel = run.cancel_handle();
    let mut outcomes_seen = 0;
    let mut cancelled_skips = 0;
    for event in run.by_ref() {
        match event {
            CaseEvent::Outcome { .. } => {
                outcomes_seen += 1;
                if outcomes_seen == 3 {
                    cancel.cancel();
                    cancel.cancel(); // idempotent: already-cancelled is a no-op
                }
            }
            CaseEvent::Skipped { reason, .. } => {
                assert_eq!(reason, SkipReason::Cancelled);
                cancelled_skips += 1;
            }
            _ => {}
        }
    }
    // Cancelling again after the stream drained changes nothing either.
    cancel.cancel();
    let report = run.into_report();
    assert_eq!(report.outcomes.len() + report.cases_skipped, 48);
    assert!(report.cases_skipped > 0, "the tail was skipped");
    assert_eq!(report.cases_skipped, cancelled_skips, "every skip carried SkipReason::Cancelled exactly once");

    // Cancel after the stream already drained naturally: the handle
    // outlives the run's work and stays inert — no skips appear.
    let mut run = Campaign::new()
        .cases(mixed_cases(6))
        .start(FnWorkload::new("mixed-reader", setup, workload));
    let cancel = run.cancel_handle();
    for _ in run.by_ref() {}
    cancel.cancel();
    cancel.cancel();
    let report = run.into_report();
    assert_eq!(report.outcomes.len(), 6);
    assert_eq!(report.cases_skipped, 0, "cancel after drain skips nothing");
}

#[test]
fn blocking_run_equals_the_collected_stream() {
    let blocking =
        Campaign::new()
            .cases(mixed_cases(10))
            .run_workload(FnWorkload::new("mixed-reader", setup, workload));
    let streamed = Campaign::new()
        .cases(mixed_cases(10))
        .start(FnWorkload::new("mixed-reader", setup, workload))
        .into_report();
    assert_eq!(blocking, streamed);

    // The events the stream yielded reassemble into the same outcomes.
    let events = stream_events(Campaign::new().cases(mixed_cases(10)));
    let outcomes: Vec<_> = events
        .into_iter()
        .filter_map(|e| match e {
            CaseEvent::Outcome { outcome, .. } => Some(outcome),
            _ => None,
        })
        .collect();
    assert_eq!(outcomes, blocking.outcomes);
}

/// Runs `campaign` by iterating it, cancelling whenever `keep` returns
/// `false` for an event; returns every event and the report.
fn iterated(campaign: Campaign, mut keep: impl FnMut(&CaseEvent) -> bool) -> (Vec<CaseEvent>, CampaignReport) {
    let mut run = campaign.start(FnWorkload::new("mixed-reader", setup, workload));
    let cancel = run.cancel_handle();
    let mut events = Vec::new();
    for event in run.by_ref() {
        if !keep(&event) {
            cancel.cancel();
        }
        events.push(event);
    }
    (events, run.into_report())
}

/// [`iterated`] through `CampaignRun::drain`, with `keep` as its callback.
fn drained(campaign: Campaign, mut keep: impl FnMut(&CaseEvent) -> bool) -> (Vec<CaseEvent>, CampaignReport) {
    let mut events = Vec::new();
    let report = campaign.start(FnWorkload::new("mixed-reader", setup, workload)).drain(|event| {
        events.push(event.clone());
        keep(event)
    });
    (events, report)
}

/// A callback that returns `false` at the `k`-th event it sees (0-based)
/// and `true` at every other.
fn cancel_at(k: usize) -> impl FnMut(&CaseEvent) -> bool {
    let mut seen = 0;
    move |_| {
        seen += 1;
        seen != k + 1
    }
}

/// Asserts the per-case ordering contract over a stream of `total` cases:
/// a case that ran emits `Started`, its `Injection`s and one `Outcome`; a
/// vetoed one `Started` then `Skipped`; an unclaimed one a lone `Skipped`.
/// Every case ends exactly once.
fn assert_per_case_order(events: &[CaseEvent], total: usize) {
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Seen {
        Nothing,
        Started,
        Ended,
    }
    let mut seen = vec![Seen::Nothing; total];
    for event in events {
        let case = &mut seen[event.index()];
        *case = match (event, *case) {
            (CaseEvent::Started { .. }, Seen::Nothing) => Seen::Started,
            (CaseEvent::Injection { .. }, Seen::Started) => Seen::Started,
            (CaseEvent::Outcome { .. }, Seen::Started) => Seen::Ended,
            (CaseEvent::Skipped { .. }, Seen::Nothing | Seen::Started) => Seen::Ended,
            (event, state) => panic!("{event:?} after {state:?}"),
        };
    }
    assert!(seen.iter().all(|&case| case == Seen::Ended), "{seen:?}");
}

#[test]
fn a_drained_session_folds_the_report_its_iteration_folds() {
    let total = 24;
    for halt in [false, true] {
        let serial = || Campaign::new().cases(mixed_cases(total)).stop_on_first_crash(halt).parallelism(1);
        // Serially, the callback sees the very events the iterator yields,
        // and a cancel at any event stops both at the same case.
        let (events, report) = iterated(serial(), |_| true);
        assert_eq!(drained(serial(), |_| true), (events.clone(), report.clone()), "halt {halt}");
        assert_per_case_order(&events, total);
        for k in 0..events.len() {
            let (events, report) = iterated(serial(), cancel_at(k));
            assert_eq!(drained(serial(), cancel_at(k)), (events.clone(), report), "halt {halt}, cancel at {k}");
            assert_per_case_order(&events, total);
        }
        if halt {
            assert!(report.cases_skipped > 0, "the crash halt skipped the tail");
        } else {
            // Four workers complete cases in any order, but fold the same
            // report, and each case's events keep their order.
            let (events, pooled) = drained(serial().parallelism(4), |_| true);
            assert_eq!(pooled, report);
            assert_eq!(iterated(serial().parallelism(4), |_| true).1, report);
            assert_per_case_order(&events, total);
            // A cancel at four workers ends every case once, too.
            let (events, cancelled) = drained(serial().parallelism(4), cancel_at(10));
            assert_per_case_order(&events, total);
            assert_eq!(cancelled.outcomes.len() + cancelled.cases_skipped, total);
        }
    }
}

/// Shared hook counters, cloneable into the per-run workload objects.
#[derive(Default)]
struct HookCounters {
    teardowns: AtomicUsize,
    setups: AtomicUsize,
    veto_marked: AtomicBool,
}

/// A workload that records its hook sequence and vetoes marked cases.
#[derive(Clone)]
struct HookRecorder {
    counters: Arc<HookCounters>,
}

impl Workload for HookRecorder {
    fn name(&self) -> &str {
        "hook-recorder"
    }

    fn setup(&self, _case: &TestCase) -> lfi::runtime::PooledProcess {
        self.counters.setups.fetch_add(1, Ordering::SeqCst);
        setup().into()
    }

    fn run(&self, process: &mut Process) -> ExitStatus {
        workload(process)
    }

    fn teardown(&self, _process: &mut Process) {
        self.counters.teardowns.fetch_add(1, Ordering::SeqCst);
    }

    fn health_check(&self, process: &mut Process) -> bool {
        // Passive resolution check plus the veto switch.
        process.fnptr("read").is_ok() && !self.counters.veto_marked.load(Ordering::SeqCst)
    }
}

#[test]
fn workload_hooks_fire_in_contract_order() {
    let counters = Arc::new(HookCounters::default());
    let recorder = HookRecorder { counters: Arc::clone(&counters) };
    let report = Campaign::new().cases(mixed_cases(6)).run_workload(recorder.clone());
    assert_eq!(report.outcomes.len(), 6);
    assert_eq!(counters.setups.load(Ordering::SeqCst), 6);
    assert_eq!(counters.teardowns.load(Ordering::SeqCst), 6, "teardown once per executed case");

    // Flip the veto: every case is set up, health-checked and skipped —
    // teardown never fires for unexecuted cases.
    counters.setups.store(0, Ordering::SeqCst);
    counters.teardowns.store(0, Ordering::SeqCst);
    counters.veto_marked.store(true, Ordering::SeqCst);
    let vetoed = Campaign::new().cases(mixed_cases(4)).run_workload(recorder);
    assert!(vetoed.outcomes.is_empty());
    assert_eq!(vetoed.cases_skipped, 4);
    assert_eq!(counters.setups.load(Ordering::SeqCst), 4);
    assert_eq!(counters.teardowns.load(Ordering::SeqCst), 0);
}

#[test]
fn registry_workloads_drive_streaming_sessions() {
    let mut registry = WorkloadRegistry::new();
    registry.register(FnWorkload::new("mixed-reader", setup, workload));
    let shared = registry.get("mixed-reader").expect("registered");
    let report = Campaign::new().cases(mixed_cases(8)).parallelism(2).start_arc(shared).into_report();
    assert_eq!(report.outcomes.len(), 8);
    assert_eq!(report.crashes().count(), 2, "cases 3 and 7 crash");

    // The apps registry plugs into the same session API.
    let apps = lfi::apps::workloads::registry();
    assert!(apps.names().count() >= 4);
    let pidgin = apps.get("pidgin-login").expect("shipped");
    let clean = Campaign::new()
        .case(TestCase::new("clean-login", Plan::new()))
        .start_arc(pidgin)
        .into_report();
    assert!(clean.outcomes[0].status.is_success());
}

#[test]
fn the_report_counts_what_the_stream_delivered() {
    let mut run = Campaign::new()
        .cases(mixed_cases(12))
        .start(FnWorkload::new("mixed-reader", setup, workload));
    assert_eq!(run.case_count(), 12);
    let events: Vec<CaseEvent> = run.by_ref().collect();
    let count = |matches: fn(&CaseEvent) -> bool| events.iter().filter(|e| matches(e)).count();
    assert_eq!(count(|e| matches!(e, CaseEvent::Started { .. })), 12);
    assert_eq!(count(|e| matches!(e, CaseEvent::Skipped { .. })), 0);
    let crashes = count(|e| matches!(e, CaseEvent::Outcome { outcome, .. } if outcome.status.is_crash()));
    assert_eq!(crashes, 3, "cases 3, 7 and 11 crash");
    let report = run.into_report();
    assert_eq!((report.outcomes.len(), report.cases_skipped), (count(|e| matches!(e, CaseEvent::Outcome { .. })), 0));
    assert_eq!(report.crashes().count(), crashes);
    assert_eq!(report.total_injections(), count(|e| matches!(e, CaseEvent::Injection { .. })));
}

#[test]
fn serial_and_parallel_reports_agree_on_fixed_seed_random_plans() {
    let run = |workers: usize| {
        Campaign::new().cases(mixed_cases(24)).parallelism(workers).run_workload(FnWorkload::new(
            "mixed-reader",
            setup,
            workload,
        ))
    };
    let serial = run(1);
    assert_eq!(serial, run(4));
    assert!(serial.total_injections() > 0, "the random triggers actually fired");
}

/// The id and name of every thread that ran a workload.
type ThreadLog = Arc<std::sync::Mutex<Vec<(std::thread::ThreadId, Option<String>)>>>;

#[test]
fn serial_sessions_run_the_workload_on_the_callers_thread() {
    let threads = ThreadLog::default();
    let recording = |threads: &ThreadLog| {
        let threads = Arc::clone(threads);
        FnWorkload::new("thread-recorder", setup, move |process: &mut Process| {
            let current = std::thread::current();
            threads.lock().unwrap().push((current.id(), current.name().map(str::to_owned)));
            workload(process)
        })
    };
    let caller = std::thread::current().id();

    let report = Campaign::new().cases(mixed_cases(6)).parallelism(1).run_workload(recording(&threads));
    assert_eq!(report.outcomes.len(), 6);
    let seen = std::mem::take(&mut *threads.lock().unwrap());
    assert_eq!(seen.len(), 6);
    for (id, name) in &seen {
        assert_eq!(*id, caller, "serial cases run on the consumer's thread");
        assert!(!name.as_deref().unwrap_or("").starts_with("lfi-campaign-"), "no worker ran {name:?}");
    }

    // Streaming consumers drive serial sessions on their own thread too.
    let events: Vec<CaseEvent> = Campaign::new().cases(mixed_cases(3)).start(recording(&threads)).collect();
    assert_eq!(events.iter().filter(|e| matches!(e, CaseEvent::Outcome { .. })).count(), 3);
    assert!(threads.lock().unwrap().drain(..).all(|(id, _)| id == caller));

    // A parallel session still uses its worker pool.
    Campaign::new().cases(mixed_cases(6)).parallelism(4).run_workload(recording(&threads));
    let pooled = threads.lock().unwrap();
    assert_eq!(pooled.len(), 6);
    assert!(pooled.iter().all(|(_, name)| name.as_deref().unwrap_or("").starts_with("lfi-campaign-")));
}

#[test]
fn serial_consumer_side_cancel_is_deterministic() {
    // Nothing runs ahead of a serial consumer, so cancelling after the k-th
    // outcome stops the run at the same case on every rerun.
    let cancel_after = |k: usize| {
        let mut run = Campaign::new().cases(mixed_cases(24)).parallelism(1).start(FnWorkload::new(
            "mixed-reader",
            setup,
            workload,
        ));
        let cancel = run.cancel_handle();
        let mut events = Vec::new();
        let mut outcomes = 0;
        for event in run.by_ref() {
            if matches!(event, CaseEvent::Outcome { .. }) {
                outcomes += 1;
                if outcomes == k {
                    cancel.cancel();
                }
            }
            events.push(event);
        }
        (events, run.into_report())
    };
    let (first, report) = cancel_after(5);
    for _ in 0..20 {
        assert_eq!(cancel_after(5).0, first, "identical stream and skip tail on every rerun");
    }
    assert_eq!(report.outcomes.len(), 5);
    let skips: Vec<usize> = first
        .iter()
        .filter_map(|e| match e {
            CaseEvent::Skipped { index, reason, .. } => {
                assert_eq!(*reason, SkipReason::Cancelled);
                Some(*index)
            }
            _ => None,
        })
        .collect();
    assert_eq!(skips, (5..24).collect::<Vec<_>>(), "the tail starts right after the cancelling outcome");
}

#[test]
fn cancel_from_another_thread_stops_a_serial_run() {
    // Case 1 parks until a controller thread has cancelled the run, so the
    // cancel lands while the case is in flight on the consumer's thread.
    let (running_tx, running_rx) = std::sync::mpsc::channel::<()>();
    let (cancelled_tx, cancelled_rx) = std::sync::mpsc::channel::<()>();
    let gate = std::sync::Mutex::new((running_tx, cancelled_rx));
    let runs = AtomicUsize::new(0);
    let run = Campaign::new().cases(mixed_cases(8)).parallelism(1).start(FnWorkload::new(
        "parked-reader",
        setup,
        move |process: &mut Process| {
            if runs.fetch_add(1, Ordering::SeqCst) == 1 {
                let gate = gate.lock().unwrap();
                gate.0.send(()).unwrap();
                gate.1.recv().unwrap();
            }
            workload(process)
        },
    ));
    let cancel = run.cancel_handle();
    let controller = std::thread::spawn(move || {
        running_rx.recv().unwrap();
        cancel.cancel();
        cancelled_tx.send(()).unwrap();
    });
    let report = run.into_report();
    controller.join().unwrap();
    assert_eq!(report.outcomes.len(), 2, "the in-flight case finished");
    assert_eq!(report.cases_skipped, 6, "nothing was claimed after the cancel");
}

#[test]
fn dropping_a_serial_run_after_started_never_runs_that_case() {
    let runs = Arc::new(AtomicUsize::new(0));
    let counting = {
        let runs = Arc::clone(&runs);
        FnWorkload::new("counting-reader", setup, move |process: &mut Process| {
            runs.fetch_add(1, Ordering::SeqCst);
            workload(process)
        })
    };
    let mut run = Campaign::new().cases(mixed_cases(4)).parallelism(1).start(counting);
    let mut started = 0;
    for event in run.by_ref() {
        if let CaseEvent::Started { index, .. } = event {
            started += 1;
            if started == 2 {
                assert_eq!(index, 1);
                break;
            }
        }
    }
    drop(run);
    assert_eq!(runs.load(Ordering::SeqCst), 1, "only the first case ran; the claimed second one did not");
}

/// A workload whose setup hook panics.
struct PanickingSetup;

impl Workload for PanickingSetup {
    fn name(&self) -> &str {
        "panicking-setup"
    }

    fn setup(&self, _case: &TestCase) -> lfi::runtime::PooledProcess {
        panic!("setup hook bug")
    }

    fn run(&self, process: &mut Process) -> ExitStatus {
        workload(process)
    }
}

#[test]
fn workload_hook_panics_reach_streaming_and_blocking_callers() {
    let message = |payload: Box<dyn std::any::Any + Send>| {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    };
    for workers in [1usize, 4] {
        let streamed = std::panic::catch_unwind(|| {
            Campaign::new().cases(mixed_cases(4)).parallelism(workers).start(PanickingSetup).count()
        });
        assert_eq!(message(streamed.expect_err("the consumer sees the panic")), "setup hook bug", "{workers}");
        let blocking = std::panic::catch_unwind(|| {
            Campaign::new().cases(mixed_cases(4)).parallelism(workers).run_workload(PanickingSetup)
        });
        assert_eq!(message(blocking.expect_err("the caller sees the panic")), "setup hook bug", "{workers}");
    }
}
