//! Per-symbol [`StateMachine`]s: named states with condition-guarded
//! transitions, msr-style, plus the canonical prebuilt [`CircuitBreaker`].

use crate::condition::{Cmp, Condition, Metric};
use crate::engine::Action;

/// One guarded transition: when the machine sits in `from` and `when`
/// holds, it moves to `to` and emits `actions`.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// Source state name.
    pub from: String,
    /// Destination state name.
    pub to: String,
    /// Guard condition, evaluated in the machine's per-symbol scope with
    /// [`Metric::EventsInState`] / [`Metric::CrashesSinceEntry`] available.
    pub when: Condition,
    /// Actions emitted when the transition fires.
    pub actions: Vec<Action>,
}

/// A named-state machine instantiated per symbol by the engine.
///
/// The engine keeps one instance per (machine, symbol) pair, created lazily
/// the first time an event mentions the symbol.  Per event, at most one
/// transition fires per instance: transitions are tried in declaration
/// order and the first whose guard holds wins — re-ordering transitions is
/// therefore semantically meaningful, exactly as in `slowtec/msr`'s rule
/// lists.
#[derive(Debug, Clone, PartialEq)]
pub struct StateMachine {
    /// Machine name (used in decision-log lines and metric labels).
    pub name: String,
    /// The state every instance starts in.
    pub initial: String,
    /// The guarded transitions, in priority order.
    pub transitions: Vec<Transition>,
}

impl StateMachine {
    /// A machine named `name` starting in `initial` with no transitions.
    pub fn new(name: impl Into<String>, initial: impl Into<String>) -> Self {
        StateMachine { name: name.into(), initial: initial.into(), transitions: Vec::new() }
    }

    /// Adds a transition (builder style).
    pub fn transition(
        mut self,
        from: impl Into<String>,
        to: impl Into<String>,
        when: Condition,
        actions: impl IntoIterator<Item = Action>,
    ) -> Self {
        self.transitions.push(Transition {
            from: from.into(),
            to: to.into(),
            when,
            actions: actions.into_iter().collect(),
        });
        self
    }
}

/// The canonical prebuilt machine: a per-symbol circuit breaker.
///
/// States and transitions:
///
/// ```text
///           crash_clusters >= trip_after
///  Closed ────────────────────────────────▶ Open      (Mute)
///           events_in_state >= cooldown
///  Open ──────────────────────────────────▶ HalfOpen  (Unmute: one probe window)
///           crashes_since_entry >= 1
///  HalfOpen ──────────────────────────────▶ Open      (Mute again)
///           events_in_state >= cooldown && crashes_since_entry == 0
///  HalfOpen ──────────────────────────────▶ Closed    (stay unmuted)
/// ```
///
/// While Open, the symbol is muted: the explorer selects none of its frontier
/// cells and gated workloads veto cases that would inject into it, so no further
/// injections reach the symbol (the "provably suppresses" guarantee the
/// closed-loop tests pin).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CircuitBreaker {
    /// Distinct crash-class clusters that trip the breaker.
    pub trip_after: u64,
    /// Events the breaker holds each of Open (before probing) and HalfOpen
    /// (before declaring recovery).
    pub cooldown_events: u64,
}

/// `Closed` state name.
pub(crate) const BREAKER_CLOSED: &str = "Closed";
/// `Open` state name.
pub(crate) const BREAKER_OPEN: &str = "Open";
/// `HalfOpen` state name.
pub(crate) const BREAKER_HALF_OPEN: &str = "HalfOpen";

impl Default for CircuitBreaker {
    fn default() -> Self {
        CircuitBreaker { trip_after: 2, cooldown_events: 64 }
    }
}

impl CircuitBreaker {
    /// A breaker tripping after `trip_after` distinct crash clusters, with
    /// the default cooldown.
    pub fn tripping_after(trip_after: u64) -> Self {
        CircuitBreaker { trip_after, ..Self::default() }
    }

    /// Sets the cooldown window (events spent Open before a HalfOpen
    /// probe, and HalfOpen before closing).
    pub fn cooldown(mut self, events: u64) -> Self {
        self.cooldown_events = events;
        self
    }

    /// Lowers the breaker into a plain [`StateMachine`] named
    /// `circuit-breaker`.
    pub fn machine(self) -> StateMachine {
        let cooldown = self.cooldown_events as f64;
        StateMachine::new("circuit-breaker", BREAKER_CLOSED)
            .transition(
                BREAKER_CLOSED,
                BREAKER_OPEN,
                Condition::at_least(Metric::CrashClusters, self.trip_after as f64),
                [Action::Mute, Action::EmitMetric { name: "breaker/tripped".into(), value: 1.0 }],
            )
            .transition(
                BREAKER_OPEN,
                BREAKER_HALF_OPEN,
                Condition::at_least(Metric::EventsInState, cooldown),
                [Action::Unmute, Action::EmitMetric { name: "breaker/probing".into(), value: 1.0 }],
            )
            .transition(
                BREAKER_HALF_OPEN,
                BREAKER_OPEN,
                Condition::at_least(Metric::CrashesSinceEntry, 1.0),
                [Action::Mute, Action::EmitMetric { name: "breaker/reopened".into(), value: 1.0 }],
            )
            .transition(
                BREAKER_HALF_OPEN,
                BREAKER_CLOSED,
                Condition::at_least(Metric::EventsInState, cooldown).and(Condition::threshold(
                    Metric::CrashesSinceEntry,
                    Cmp::Eq,
                    0.0,
                )),
                [Action::EmitMetric { name: "breaker/closed".into(), value: 1.0 }],
            )
    }
}

impl From<CircuitBreaker> for StateMachine {
    fn from(breaker: CircuitBreaker) -> StateMachine {
        breaker.machine()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_lowers_to_four_transitions() {
        let machine = CircuitBreaker::tripping_after(3).cooldown(16).machine();
        assert_eq!(machine.name, "circuit-breaker");
        assert_eq!(machine.initial, BREAKER_CLOSED);
        assert_eq!(machine.transitions.len(), 4);
        assert_eq!(machine.transitions[0].from, BREAKER_CLOSED);
        assert_eq!(machine.transitions[0].to, BREAKER_OPEN);
        assert_eq!(machine.transitions[0].actions[0], Action::Mute);
        assert_eq!(machine.transitions[0].when, Condition::at_least(Metric::CrashClusters, 3.0));
        assert_eq!(machine.transitions[1].when, Condition::at_least(Metric::EventsInState, 16.0));
    }
}
