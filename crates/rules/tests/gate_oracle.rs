//! Gate oracle for the rules engine: skipping guards whose inputs did not
//! change must never alter the decision log.
//!
//! Each seed builds a random [`RuleSet`] and a random event stream, then
//! runs them through two engines: the set as built, and a copy in which
//! every guard also reads `events_seen >= 0`.  That conjunct is always
//! true, but `events_seen` moves on every fold, so the copy evaluates every
//! guard on every event.  The two decision logs must be identical.

use lfi_controller::{CaseEvent, InjectionRecord, TestLog, TestOutcome};
use lfi_intern::Symbol;
use lfi_rules::{Action, Cmp, Condition, Metric, Rule, RuleEngine, RuleSet, StateMachine};
use lfi_runtime::{ExitStatus, Signal};
use lfi_scenario::Plan;

const SEEDS: u64 = 3000;
const SYMBOLS: [&str; 3] = ["read", "write", "close"];
const STATES: [&str; 3] = ["A", "B", "C"];

/// SplitMix64: a dependency-free, fixed-seed stream.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

fn metric(rng: &mut Stream) -> Metric {
    let window = 1 + rng.below(4);
    *rng.pick(&[
        Metric::EventsSeen,
        Metric::CasesStarted,
        Metric::CasesFinished,
        Metric::CasesSkipped,
        Metric::Successes,
        Metric::Failures,
        Metric::Crashes,
        Metric::Injections,
        Metric::Clusters,
        Metric::CrashClusters,
        Metric::DistinctOutcomes,
        Metric::OutcomeEntropy,
        Metric::CaseRate { window },
        Metric::CrashRate { window },
        Metric::InjectionRate { window },
        Metric::EventsInState,
        Metric::CrashesSinceEntry,
    ])
}

fn condition(rng: &mut Stream, depth: u32) -> Condition {
    let leaf = depth == 0 || rng.chance(50);
    if leaf {
        if rng.chance(15) {
            return Condition::Always;
        }
        let cmp = *rng.pick(&[Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge, Cmp::Eq, Cmp::Ne]);
        return Condition::threshold(metric(rng), cmp, rng.below(5) as f64);
    }
    match rng.below(3) {
        0 => condition(rng, depth - 1).negate(),
        1 => condition(rng, depth - 1).and(condition(rng, depth - 1)),
        _ => condition(rng, depth - 1).or(condition(rng, depth - 1)),
    }
}

fn action(rng: &mut Stream) -> Action {
    match rng.below(20) {
        0 => Action::Cancel,
        1..=3 => Action::Pause,
        4..=6 => Action::Mute,
        7..=9 => Action::Unmute,
        10..=12 => Action::EscalateSiblings,
        _ => Action::EmitMetric { name: "hit".into(), value: 1.0 },
    }
}

fn rule_set(rng: &mut Stream) -> RuleSet {
    let mut set = RuleSet::new();
    for index in 0..rng.below(4) {
        let name = format!("r{index}");
        let when = condition(rng, 2);
        let mut rule = if rng.chance(50) {
            Rule::global(name, when, [action(rng)])
        } else {
            Rule::per_symbol(name, when, [action(rng)])
        };
        rule = if rng.chance(40) { rule.once() } else { rule.cooldown(rng.below(4)) };
        set = set.rule(rule);
    }
    for index in 0..1 + rng.below(3) {
        let mut machine = StateMachine::new(format!("m{index}"), "A");
        for _ in 0..1 + rng.below(5) {
            let from = *rng.pick(&STATES);
            let to = *rng.pick(&STATES);
            let when = condition(rng, 2);
            machine = machine.transition(from, to, when, [action(rng)]);
        }
        set = set.machine(machine);
    }
    set
}

/// The same set with every guard widened to read `events_seen`, so that no
/// guard is ever skipped.
fn ungated(set: &RuleSet) -> RuleSet {
    let always_read = || Condition::at_least(Metric::EventsSeen, 0.0);
    let mut copy = set.clone();
    for rule in &mut copy.rules {
        rule.when = rule.when.clone().and(always_read());
    }
    for machine in &mut copy.machines {
        for transition in &mut machine.transitions {
            transition.when = transition.when.clone().and(always_read());
        }
    }
    copy
}

fn events(rng: &mut Stream) -> Vec<CaseEvent> {
    let mut events = Vec::new();
    for index in 0..4 + rng.below(10) as usize {
        let name = format!("case-{index}");
        if rng.chance(15) {
            // Never claimed, or claimed and then vetoed by a health check.
            if rng.chance(50) {
                events.push(CaseEvent::Started { index, name: name.clone() });
            }
            events.push(CaseEvent::Skipped { index, name, reason: lfi_controller::SkipReason::Cancelled });
            continue;
        }
        events.push(CaseEvent::Started { index, name: name.clone() });
        let mut injections = Vec::new();
        for call in 0..rng.below(3) {
            let function = *rng.pick(&SYMBOLS);
            let record = InjectionRecord {
                function: Symbol::intern(function),
                call_number: call + 1,
                retval: Some(-1),
                errno: Some(*rng.pick(&[5, 9, 28])),
                side_effects: Vec::new(),
                call_original: false,
                stack: Vec::new(),
            };
            events.push(CaseEvent::Injection { index, record: record.clone() });
            injections.push(record);
        }
        let status = match rng.below(4) {
            0 => ExitStatus::Exited(0),
            1 => ExitStatus::Exited(1),
            2 => ExitStatus::Crashed(Signal::Segv),
            _ => ExitStatus::Crashed(Signal::Abort),
        };
        let outcome = TestOutcome {
            name,
            status,
            log: TestLog { injections, ..TestLog::default() },
            replay: Plan::default(),
            calls: Vec::new(),
            calls_dropped: 0,
        };
        events.push(CaseEvent::Outcome { index, outcome });
    }
    events
}

fn decision_log(set: RuleSet, events: &[CaseEvent]) -> String {
    let mut engine = RuleEngine::new(set);
    for event in events {
        engine.observe(event);
    }
    engine.decision_log()
}

#[test]
fn skipping_unchanged_guards_never_alters_the_decision_log() {
    let mut decided = 0;
    for seed in 0..SEEDS {
        let mut rng = Stream(seed);
        let set = rule_set(&mut rng);
        let stream = events(&mut rng);
        let gated = decision_log(set.clone(), &stream);
        let reference = decision_log(ungated(&set), &stream);
        assert_eq!(gated, reference, "seed {seed}: the gated engine diverged\nrule set: {set:#?}");
        decided += usize::from(!gated.is_empty());
    }
    // The generator must exercise the engine, not compare empty logs.
    assert!(decided as u64 > SEEDS / 2, "only {decided} of {SEEDS} seeds produced a decision");
}
