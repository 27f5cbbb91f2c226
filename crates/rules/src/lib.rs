//! # lfi-rules — closed-loop campaign control
//!
//! The paper's loop is generate → inject → observe → **refine**, but the
//! refine half of the seed lived only in the explorer's hard-coded
//! crash-adjacent heuristic: `CaseEvent`s flowed one way into passive
//! collectors.  This crate turns refinement into a pluggable policy — a
//! rule engine in the style of `slowtec/msr`'s
//! `SyncRuntime { rules, state_machines }` — evaluated live against the
//! event stream of a running campaign, with decisions fed back mid-flight:
//!
//! ```text
//!   CampaignRun / fabric job ──CaseEvents──▶ CampaignState (rolling vitals)
//!            ▲                                   │
//!            │                         Conditions / StateMachines
//!            │                                   │
//!            └────── Actions ◀─── Decisions ◀────┘
//!     (escalate, mute, reweight,      │
//!      pause, cancel)            MetricsSink (NDJSON)
//! ```
//!
//! * [`CampaignState`] — per-symbol outcome counters, crash-cluster counts,
//!   distinct-outcome entropy, and case/injection/crash rates over sliding
//!   windows, folded incrementally from the event stream.
//! * [`Condition`] — a predicate algebra over those vitals: thresholds,
//!   rate-of-change tests, and/or/not combinators, with global and
//!   per-symbol scoping.
//! * [`StateMachine`] / [`CircuitBreaker`] — named states with guarded
//!   transitions, instantiated per symbol; the breaker
//!   (Closed→Open→HalfOpen) ships as the canonical prebuilt machine.
//! * [`Action`] — decisions wired into the existing control handles:
//!   escalate sibling errnos/adjacent ordinals onto the explorer frontier,
//!   mute/re-weight a generator, pause/cancel the run, emit a metric.
//! * [`MetricsSink`] — structured counter/gauge/histogram points with
//!   labels, exported as NDJSON for the `BENCH_*.json` tooling.
//!
//! The engine folds what the [`FaultLedger`](lfi_explore::FaultLedger)
//! folds: a finished case is its planned [`FaultCell`](lfi_scenario::FaultCell)
//! plus its [`CellResult`](lfi_explore::CellResult), and clusters are keyed by
//! the ledger's [`ClusterKey`](lfi_explore::ClusterKey).  So a rule that reads
//! `clusters` sees the counts the explorer and a fabric job report for the
//! same cells.  Drivers connect the engine to the two event sources, and
//! both read a stream: [`ClosedLoop`] folds each
//! [`Explorer`](lfi_explore::Explorer) batch's `CaseEvent`s as they arrive
//! (through [`Explorer::step_with`](lfi_explore::Explorer::step_with)) and
//! cancels the batch when a decision needs it, and [`JobMonitor`] polls a
//! fabric job's `events`/`status` wire verbs through a
//! [`FabricClient`](lfi_fabric::FabricClient).  Each owns its [`RuleEngine`]
//! by value.
//!
//! # Determinism contract (pinned)
//!
//! Rules evaluate **on the event stream in sequence order** — the
//! [`RuleEngine`] folds one event, then evaluates rules in declaration
//! order (per-symbol rules per tracked symbol in name order), then state
//! machines, emitting at most one decision batch per event; see the
//! [`engine`] module docs for the exact order.  Decisions are delivered at
//! most once per event sequence number, and a `Cancel` decision freezes the
//! engine so post-cancel races can never extend the log.  Consequently a
//! fixed-seed serial campaign (`parallelism(1)`, deterministic workload)
//! produces a **byte-identical** [`RuleEngine::decision_log`] across
//! reruns — the property `tests/closed_loop.rs` pins, and the same
//! pinned-contract style as `Explorer` and `snapshot`/`restore`.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod condition;
pub mod driver;
pub mod engine;
pub mod fabric;
pub mod machine;
pub mod metrics;
pub mod state;

pub use condition::{Cmp, Condition, EvalContext, MachineContext, Metric};
pub use driver::ClosedLoop;
pub use engine::{Action, Decision, Rule, RuleEngine, RuleScope, RuleSet};
pub use fabric::JobMonitor;
pub use machine::{CircuitBreaker, StateMachine, Transition};
pub use metrics::{HistogramPoint, MetricKind, MetricPoint, MetricsSink};
pub use state::{CampaignState, Sample, SymbolStats};
