//! # lfi-explore — coverage-guided fault-space exploration
//!
//! The core problem of the paper is fault-space explosion: exhaustive
//! injection over every (function, errno, call-site) triple is intractable
//! for real libraries (§4, §6.4), so the paper prunes the space with
//! profiler knowledge and runtime feedback.  This crate closes that loop as
//! a subsystem: an [`Explorer`] drives successive
//! [`Campaign`](lfi_controller::Campaign) batches from a seed faultload,
//! consumes each [`CampaignReport`](lfi_controller::CampaignReport) plus the
//! drained injector/call logs, and decides what to inject next:
//!
//! ```text
//!            ┌────────────────────────────────────────────────────┐
//!            │                                                    │
//!            ▼                                                    │
//!   seed ScenarioGenerator ──► fault-space cells ──► frontier     │
//!                                                      │          │
//!                                                      ▼          │
//!                                          batch of TestCases     │
//!                                                      │          │
//!                                                      ▼          │
//!                                          Campaign (run/observe) │
//!                                                      │          │
//!                              coverage ◄──────────────┤          │
//!                       (triggered cells,              ▼          │
//!                        per-function calls)   crash clusters     │
//!                                                      │          │
//!                                         prune unreached cells,  │
//!                                         escalate crash          │
//!                                         neighbours ─────────────┘
//! ```
//!
//! * **Coverage** — which (function, errno, nth-call) cells were actually
//!   *triggered*, versus merely planned, computed from the per-case
//!   injection logs and per-function intercepted-call totals.
//! * **One fold, one frontier book** — a [`FaultLedger`] turns each
//!   executed cell's outcome into coverage, clusters and counters,
//!   independently of order.  An [`ExplorationState`] keeps it with the
//!   pending, out, unreached and pruned cells, and writes stores and
//!   deltas.  The [`Explorer`] is that state plus a frontier policy;
//!   `lfi-fabric` jobs wrap the same state in a lease book, and both run
//!   their cells through [`run_cells`], so both report alike.
//! * **Pruning** — a probe run's dispatch call log removes cells for
//!   functions the workload never reaches; a planned cell whose injection
//!   did not fire prunes its function's deeper call ordinals.
//! * **Escalation** — cells adjacent to a crash (neighbouring call indices,
//!   sibling errnos from the profiler's per-function error sets) jump to the
//!   front of the frontier.
//! * **Budgets** — a global case/injection budget bounds the whole
//!   exploration.  The explorer keeps no clock, so a fixed-seed rerun
//!   writes the same store; a wall-clock bound is the caller's, through
//!   [`Explorer::step_with`]'s cancel.
//! * **Resumability** — the complete exploration state (frontier, coverage,
//!   cluster table, RNG stream position) round-trips through an XML
//!   [`ExplorationStore`], so a killed exploration resumes deterministically
//!   — see the determinism contract on [`Explorer`].
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod delta;
mod explorer;
mod ledger;
mod run;
mod state;
mod store;

pub use delta::ExplorationDelta;
pub use explorer::{CoverageSummary, ExplorationReport, Explorer};
pub use ledger::{CellResult, ClusterKey, CrashCluster, FaultLedger, FunctionCoverage, OutcomeClass};
pub use run::{run_cells, CellRun};
pub use state::{ExplorationState, FrontierCell};
pub use store::ExplorationStore;
