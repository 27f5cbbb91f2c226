//! # lfi-apps — the simulated applications of the LFI evaluation
//!
//! The paper evaluates LFI against real programs: Pidgin (a previously
//! unknown crash bug, §6.1), MySQL with its own regression test suite
//! (coverage improvement, §6.1; SysBench OLTP overhead, §6.4) and Apache
//! httpd under the AB load generator (§6.4).  This crate provides faithful
//! miniatures of those programs, built on the `lfi-runtime` process model so
//! the LFI controller can interpose on their library calls exactly as the
//! real tool interposes on the real programs:
//!
//! * `native` — the "original" libc/APR the applications link against,
//!   backed by a shared in-memory world;
//! * [`pidgin`] — the IM client with the unchecked-pipe-write resolver bug;
//! * [`mysql`] — the storage engine, its test suite with basic-block
//!   coverage, and the SysBench-like OLTP workload;
//! * [`apache`] — the request server with static-HTML and PHP workloads and
//!   the AB-like load generator;
//! * [`coverage`] — basic-block coverage bookkeeping;
//! * [`workloads`] — the applications packaged as first-class
//!   [`lfi_controller::Workload`]s (fresh [`SimWorld`] + process per test
//!   case), collected in a [`lfi_controller::WorkloadRegistry`] for named
//!   lookup.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod apache;
pub mod coverage;
pub mod mysql;
pub(crate) mod native;
pub mod pidgin;
pub mod workloads;

pub use apache::{ApacheServer, RequestKind};
pub use coverage::CoverageMap;
pub use mysql::{MysqlServer, SuiteReport};
pub use native::{base_process, new_world, SimWorld, World};
pub use workloads::{MysqlSuite, PidginLogin};
