//! # lfi-bench — benchmark harness and experiment reproduction binary
//!
//! This crate hosts:
//!
//! * the criterion-shim benches (`benches/`), each timing one mechanism
//!   that no `repro` table or perfbench workload times on its own:
//!   interceptor dispatch (`dispatch_hot_path`), the shared profiler cache
//!   (`profiler_throughput`), case setup (`case_setup`), campaign sessions
//!   (`campaign_stream`), fabric multiplexing and fairness
//!   (`fabric_throughput`), the explorer against the exhaustive sweep
//!   (`explorer_convergence`), the rules layer (`rules_overhead`), the
//!   store and journal (`store_scale`), and the documentation and
//!   argument-constraint extensions (`extensions`);
//! * the `benchdiff` binary (`src/bin/benchdiff.rs`), which checks one
//!   `cargo bench` run's NDJSON lines against the gate table ([`GATES`],
//!   [`REQUIRED`]) and prints each bench's ratio to the committed
//!   `BENCH_BASELINE.json`;
//! * the `repro` binary (`src/bin/repro.rs`), which prints every table and
//!   figure in the paper's layout; `tests/golden/repro_quick.txt` holds the
//!   output of its deterministic `--quick` tables.
//!
//! The heavy lifting lives in [`lfi_core::experiments`]; this crate only adds
//! timing harnesses and command-line plumbing.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]

mod gates;
mod json;

pub use gates::{benchdiff, Gate, GATES, REQUIRED};
