//! Overhead of the streaming campaign session on the dispatch corpus:
//!
//! * `inline_loop`    — the pre-session baseline: a hand-rolled serial loop
//!   (setup + interceptor + workload per case) with no threads, channel or
//!   events — what the old blocking campaign driver compiled down to;
//! * `blocking_run`   — `Campaign::run_workload`, a thin wrapper that
//!   collects the event stream into a report;
//! * `streaming_report` — `Campaign::start(...).into_report()`, the same
//!   path spelled out;
//! * `streaming_drain` — `Campaign::start` with the events taken one by
//!   one from the iterator (what a progress UI that keeps events does);
//! * `callback_drain` — `Campaign::start` consumed with
//!   `CampaignRun::drain`, each event lent to a counting callback (what the
//!   explorer and the fabric do).
//!
//! The acceptance bar for the session redesign is that the streaming paths
//! stay within a few percent of the blocking baseline: the per-case cost
//! (process setup, interceptor synthesis, a few hundred dispatched calls)
//! must dwarf the channel and worker-handoff overhead.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lfi_controller::{Campaign, CaseEvent, FnWorkload, Injector, TestCase};
use lfi_runtime::{ExitStatus, NativeLibrary, Process, ProcessArena};
use lfi_scenario::{FaultAction, Plan, PlanEntry, Trigger};

/// Cases per campaign and dispatched calls per case: enough dispatch work
/// that the numbers reflect campaign plumbing amortized over real cases.
const CASES: usize = 24;
const CALLS_PER_CASE: i64 = 400;

fn libc() -> NativeLibrary {
    NativeLibrary::builder("libc.so.6").function("read", |ctx| ctx.arg(2)).build()
}

fn setup() -> Process {
    let mut process = Process::new();
    process.load(libc());
    process
}

fn workload(process: &mut Process) -> ExitStatus {
    let mut failures = 0;
    for i in 0..CALLS_PER_CASE {
        if process.call("read", &[3, 0, i & 0xff]).unwrap_or(-1) < 0 {
            failures += 1;
        }
    }
    ExitStatus::Exited(failures.min(1))
}

/// One fault per case, each on a distinct call ordinal of the dispatch
/// corpus function.
fn cases() -> Vec<TestCase> {
    (0..CASES)
        .map(|i| {
            TestCase::new(
                format!("stream-{i:02}"),
                Plan::new().entry(PlanEntry {
                    function: "read".into(),
                    trigger: Trigger::on_call(1 + (i as u64 % 16)),
                    action: FaultAction::return_value(-1).with_errno(5),
                }),
            )
        })
        .collect()
}

/// One case of the hand-rolled serial loop: preload the case's
/// interceptor, run the workload, take the log and its replay plan.
fn run_inline(process: &mut Process, case: TestCase) {
    let injector = Injector::new(case.plan);
    process.preload(injector.synthesize_interceptor());
    let status = workload(process);
    let log = injector.log();
    black_box((log.replay_plan(), log, status));
}

fn bench_campaign_stream(c: &mut Criterion) {
    let mut group = c.benchmark_group("campaign_stream");
    group.sample_size(10);

    group.bench_function("inline_loop", |b| {
        b.iter(|| black_box(cases().into_iter().map(|case| run_inline(&mut setup(), case)).count()))
    });

    group.bench_function("inline_loop_arena", |b| {
        // The same serial loop with per-case setup drawn from a process
        // arena: the pooled process is restored (not rebuilt) between
        // cases — the per-case floor.
        let arena = ProcessArena::new(setup);
        arena.prewarm(1);
        b.iter(|| black_box(cases().into_iter().map(|case| run_inline(&mut arena.checkout(), case)).count()))
    });

    group.bench_function("blocking_run", |b| {
        b.iter(|| {
            let report =
                Campaign::new()
                    .cases(cases())
                    .run_workload(FnWorkload::new("dispatch-corpus", setup, workload));
            assert_eq!(report.outcomes.len(), CASES);
            black_box(report.total_injections())
        })
    });

    group.bench_function("streaming_report", |b| {
        b.iter(|| {
            let report = Campaign::new()
                .cases(cases())
                .start(FnWorkload::new("dispatch-corpus", setup, workload))
                .into_report();
            assert_eq!(report.outcomes.len(), CASES);
            black_box(report.total_injections())
        })
    });

    group.bench_function("streaming_drain", |b| {
        b.iter(|| {
            let run = Campaign::new().cases(cases()).start(FnWorkload::new("dispatch-corpus", setup, workload));
            let mut outcomes = 0usize;
            for event in run {
                if matches!(event, CaseEvent::Outcome { .. }) {
                    outcomes += 1;
                }
            }
            assert_eq!(outcomes, CASES);
            black_box(outcomes)
        })
    });

    group.bench_function("callback_drain", |b| {
        b.iter(|| {
            let run = Campaign::new().cases(cases()).start(FnWorkload::new("dispatch-corpus", setup, workload));
            let mut outcomes = 0usize;
            let report = run.drain(|event| {
                if matches!(event, CaseEvent::Outcome { .. }) {
                    outcomes += 1;
                }
                true
            });
            assert_eq!((outcomes, report.outcomes.len()), (CASES, CASES));
            black_box(report.total_injections())
        })
    });

    group.finish();
}

criterion_group!(benches, bench_campaign_stream);
criterion_main!(benches);
