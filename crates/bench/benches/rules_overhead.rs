//! Overhead of closed-loop rule evaluation on the campaign event stream:
//!
//! * `passive` — an empty `RuleSet`: the engine folds every event into
//!   `CampaignState` (the vitals any consumer pays for) but evaluates no
//!   rules or machines;
//! * `active`  — a realistic policy: a per-symbol escalation rule, a
//!   global rate watch, and the canonical circuit breaker, all evaluated
//!   on every event.
//!
//! Both feed the *same* pre-recorded event stream (one fixed campaign over
//! the dispatch corpus) through a fresh engine per iteration, so the pair
//! isolates exactly the marginal cost of rule + machine evaluation.  The
//! acceptance bar for the rules layer is `active <= 1.10x passive`: policy
//! evaluation must stay in the noise next to state folding, because a
//! closed loop pays it inline on every event it reads from the stream.
//!
//! # Methodology
//!
//! The two sides are measured in short **interleaved rounds** (the same
//! label is re-benched [`ROUNDS`] times) and the CI gate compares the
//! per-label *minima* across rounds.  One long passive run followed by one
//! long active run would fold CPU frequency drift into the ratio; paired
//! short rounds hit both sides with the same clock, and the minimum
//! discards the samples a migration or thermal step inflated.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lfi_controller::{Campaign, CaseEvent, FnWorkload, TestCase};
use lfi_rules::{Action, CircuitBreaker, Cmp, Condition, Metric, Rule, RuleEngine, RuleSet};
use lfi_runtime::{ExitStatus, NativeLibrary, Process};
use lfi_scenario::{FaultAction, Plan, PlanEntry, Trigger};

/// Campaign length: long enough that one-time engine construction (rule
/// builders, breaker lowering, machine compilation) amortizes out and the
/// pair compares steady-state per-event cost, which is what the stream
/// consumer pays.
const CASES: usize = 512;
const CALLS_PER_CASE: i64 = 40;
/// Fresh-engine replays of the recorded stream per timed iteration — each
/// iteration is ~1 ms, long enough that scheduler jitter does not swamp
/// the active/passive ratio the CI gate checks.
const REPLAYS: usize = 4;
/// Interleaved passive/active measurement rounds (see module docs).
const ROUNDS: usize = 8;

fn setup() -> Process {
    let mut process = Process::new();
    process.load(NativeLibrary::builder("libc.so.6").function("read", |ctx| ctx.arg(2)).build());
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

/// One fixed serial campaign, recorded as the event stream both engines
/// replay.
fn record_events() -> Vec<CaseEvent> {
    let cases: Vec<TestCase> = (0..CASES)
        .map(|i| {
            TestCase::new(
                format!("rules-{i:02}"),
                Plan::new().entry(PlanEntry {
                    function: "read".into(),
                    trigger: Trigger::on_call(1 + (i as u64 % 16)),
                    action: FaultAction::return_value(-1).with_errno(5),
                }),
            )
        })
        .collect();
    Campaign::new()
        .cases(cases)
        .start(FnWorkload::new("dispatch-corpus", setup, workload))
        .collect()
}

/// The canonical closed-loop policy (the `closed_loop` example's rule
/// set): per-symbol escalation on new crash clusters, a global crash
/// budget, and the per-symbol circuit breaker.
///
/// Windowed-rate guards (e.g. [`Metric::CrashRate`]) are deliberately
/// absent: a sliding window moves on every fold, so such rules opt out of
/// the engine's change-mask gating by design and pay per-event evaluation.
fn active_set() -> RuleSet {
    RuleSet::new()
        .rule(
            Rule::per_symbol(
                "escalate-on-crash",
                Condition::at_least(Metric::CrashClusters, 1.0),
                [Action::EscalateSiblings],
            )
            .once(),
        )
        .rule(Rule::global("crash-budget", Condition::threshold(Metric::Crashes, Cmp::Ge, 6.0), [Action::Cancel]))
        .machine(CircuitBreaker::tripping_after(2).cooldown(64))
}

fn bench_rules_overhead(c: &mut Criterion) {
    let events = record_events();
    assert!(events.len() >= CASES * 2, "the recorded stream covers every case");

    let mut group = c.benchmark_group("rules_overhead");
    group.sample_size(2);

    let run = |b: &mut criterion::Bencher, set: &dyn Fn() -> RuleSet| {
        b.iter(|| {
            let mut seen = 0;
            for _ in 0..REPLAYS {
                let mut engine = RuleEngine::new(set());
                for event in &events {
                    black_box(engine.observe(event));
                }
                seen += engine.state().events_seen;
            }
            black_box(seen)
        })
    };

    for _ in 0..ROUNDS {
        group.bench_function("passive", |b| run(b, &RuleSet::new));
        group.bench_function("active", |b| run(b, &active_set));
    }

    group.finish();
}

criterion_group!(benches, bench_rules_overhead);
criterion_main!(benches);
