//! # lfi — a Rust reproduction of "LFI: A Practical and General Library-Level Fault Injector" (DSN 2009)
//!
//! This crate is the umbrella for the reproduction's workspace.  It re-exports
//! every component crate under a short module name and re-exports the facade
//! type [`Lfi`] at the top level, so applications can depend on a single
//! crate.  The application under test is a first-class
//! [`Workload`](controller::Workload) — a named setup/run pair (§5's start
//! script + workload) — and campaigns are streaming sessions: the whole
//! Figure 1 pipeline — profile → scenario → campaign → events → report — is
//! one chain:
//!
//! ```
//! use lfi::asm::{FaultSpec, FunctionSpec, LibraryCompiler, LibrarySpec};
//! use lfi::controller::{CaseEvent, FnWorkload};
//! use lfi::isa::Platform;
//! use lfi::runtime::{ExitStatus, NativeLibrary, Process};
//! use lfi::scenario::generator::Exhaustive;
//! use lfi::Lfi;
//!
//! // Build a (synthetic) shared library and its runtime behaviour.
//! let lib = LibraryCompiler::new().compile(
//!     &LibrarySpec::new("libdemo.so", Platform::LinuxX86)
//!         .function(FunctionSpec::scalar("demo_read", 3).success(0).fault(FaultSpec::returning(-1).with_errno(5))),
//! );
//! let runtime = NativeLibrary::builder("libdemo.so").function("demo_read", |ctx| ctx.arg(2)).build();
//!
//! // The application under test: fresh process per case + the workload.
//! let workload = FnWorkload::new(
//!     "demo-reader",
//!     move || {
//!         let mut process = Process::new();
//!         process.load(runtime.clone());
//!         process
//!     },
//!     |process: &mut Process| match process.call("demo_read", &[3, 0, 8]) {
//!         Ok(n) if n >= 0 => ExitStatus::Exited(0),
//!         _ => ExitStatus::Exited(1),
//!     },
//! );
//!
//! // Profile, generate an exhaustive faultload, and *start* the campaign:
//! // the session streams CaseEvents and collapses into the report.
//! let mut lfi = Lfi::with_options(lfi::profiler::ProfilerOptions::with_heuristics());
//! lfi.add_library(lib.object);
//! let mut run = lfi.campaign(&Exhaustive, &["libdemo.so"]).unwrap().parallelism(2).start(workload);
//! let outcomes = run.by_ref().filter(|e| matches!(e, CaseEvent::Outcome { .. })).count();
//! assert_eq!(outcomes, 1);
//! let report = run.into_report();
//! assert_eq!(report.outcomes.len(), 1);
//! assert_eq!(report.total_injections(), 1);
//! ```
//!
//! The pipeline mirrors the paper's architecture (Figure 1):
//!
//! | paper component | crate |
//! |---|---|
//! | library binaries (ELF/PE)          | [`objfile`] (+ [`isa`], [`asm`]) |
//! | disassembler / CFG recovery        | [`disasm`] |
//! | LFI profiler                       | [`profiler`], output in [`profile`] |
//! | structured documentation parser    | [`docs`] |
//! | fault scenarios ("faultloads")     | [`scenario`]: the `ScenarioGenerator` trait, generators, combinators |
//! | LFI controller / interceptors      | [`controller`]: `Injector`, the `Workload` trait + registry, and the `Campaign` builder with streaming `CampaignRun` sessions, over [`runtime`] |
//! | adaptive fault-space exploration   | [`explore`]: coverage-guided `Explorer` + resumable `ExplorationStore` |
//! | closed-loop campaign control       | [`rules`]: rule engine + per-symbol state machines + metrics over the `CaseEvent` stream (see [`Lfi::rules`](core::Lfi::rules)) |
//! | multi-tenant campaign service      | [`fabric`]: `Fabric` work-stealing fleet, crash-safe job handoff, wire protocol (see [`Lfi::fabric`](core::Lfi::fabric)) |
//! | evaluated libraries & applications | [`corpus`], [`apps`] |
//! | end-to-end facade & experiments    | [`core`] (re-exported as [`Lfi`]) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub use lfi_core::Lfi;

/// The end-to-end facade and the evaluation experiment drivers.
pub mod core {
    pub use lfi_core::*;
}

/// Interned symbols: the shared symbol table behind the dispatch fast path.
pub mod intern {
    pub use lfi_intern::*;
}

/// SimISA: the synthetic instruction set, platform ABIs and interpreter.
pub mod isa {
    pub use lfi_isa::*;
}

/// SimObj: the synthetic shared-object format.
pub mod objfile {
    pub use lfi_objfile::*;
}

/// The synthetic library compiler (`FunctionSpec` → SimISA).
pub mod asm {
    pub use lfi_asm::*;
}

/// Disassembly and control-flow-graph recovery.
pub mod disasm {
    pub use lfi_disasm::*;
}

/// Fault-profile data model and XML representation.
pub mod profile {
    pub use lfi_profile::*;
}

/// Structured library documentation, its parser, and combined
/// static+documentation profiles.
pub mod docs {
    pub use lfi_docs::*;
}

/// The LFI profiler: reverse constant propagation, side-effect analysis,
/// accuracy scoring.
pub mod profiler {
    pub use lfi_profiler::*;
}

/// The fault-scenario language, generators and ready-made libc scenarios.
pub mod scenario {
    pub use lfi_scenario::*;
}

/// The simulated process runtime (dynamic linker, dispatch chains, errno).
pub mod runtime {
    pub use lfi_runtime::*;
}

/// The LFI controller: interceptor synthesis, trigger evaluation, logs,
/// replay scripts, campaigns.
pub mod controller {
    pub use lfi_controller::*;
}

/// Coverage-guided, resumable fault-space exploration over campaigns.
pub mod explore {
    pub use lfi_explore::*;
}

/// Closed-loop campaign control: a rule engine, per-symbol state machines
/// (circuit breakers) and a structured metrics sink evaluated live over the
/// `CaseEvent` stream, with decisions fed back into the explorer frontier or
/// a fabric job's controls.
pub mod rules {
    pub use lfi_rules::*;
}

/// The multi-tenant campaign service: named jobs over one shared
/// work-stealing worker fleet, with crash-safe lease handoff and a
/// line-delimited wire protocol (in process on the caller's thread, or TCP).
pub mod fabric {
    pub use lfi_fabric::*;
}

/// Journaled binary persistence: checksummed record files, the one
/// write-ahead exploration journal with compaction and torn-tail recovery,
/// and format-sniffing load/save for the profile and exploration stores.
pub mod store {
    pub use lfi_store::*;
}

/// The synthetic library corpus (libc, kernel image, Table 1/2 libraries).
pub mod corpus {
    pub use lfi_corpus::*;
}

/// The simulated applications (Pidgin, MySQL, Apache) and their workloads.
pub mod apps {
    pub use lfi_apps::*;
}
