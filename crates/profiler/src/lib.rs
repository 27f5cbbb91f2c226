//! # lfi-profiler — the LFI profiler (§3 of the paper)
//!
//! The profiler statically analyzes library *binaries* — no source code, no
//! documentation, no symbols beyond the dynamic exports — and produces, for
//! every exported function, the set of error return values it can expose and
//! the side effects (errno-style TLS writes, globals, output arguments) that
//! accompany them.  The pipeline is:
//!
//! 1. disassemble the library and build a CFG per function (`lfi-disasm`);
//! 2. run a *reverse constant propagation* from every write to the ABI return
//!    location that precedes a `ret` (the `return_codes` module);
//! 3. recursively resolve calls to dependent functions, following imports
//!    into other registered libraries and system calls into the kernel image
//!    ([`Profiler`]);
//! 4. scan the blocks containing the constant assignments for side-effect
//!    writes (the `side_effects` module);
//! 5. optionally apply the two unsound filtering heuristics of §3.1
//!    ([`ProfilerOptions`]);
//! 6. emit a [`lfi_profile::FaultProfile`].
//!
//! Steps 1–4 run over a shared, thread-safe [`AnalysisDb`]: disassemblies are
//! content-addressed `Arc`s, completed inter-procedural resolutions are
//! memoized in sharded maps keyed by interned symbols, and the driver loop is
//! a bounded worker pool that schedules work per *function*, so batch calls
//! and repeat calls reuse every dependency analysis.
//!
//! The [`accuracy`] module scores profiles against ground truth the way the
//! paper's §6.3 does.
#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod accuracy;
mod analysis_db;
mod arg_constraints;
mod error;
mod interproc;
mod options;
mod return_codes;
mod side_effects;

pub use accuracy::{score_profile, score_sets, AccuracyReport, GroundTruth};
pub use analysis_db::AnalysisDb;
pub use arg_constraints::ArgConstraint;
pub use error::ProfilerError;
pub use interproc::{LibraryProfileReport, Profiler, ProfilingStats};
pub use options::ProfilerOptions;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Profiler>();
        assert_send_sync::<AnalysisDb>();
        assert_send_sync::<ProfilerOptions>();
        assert_send_sync::<AccuracyReport>();
        assert_send_sync::<ProfilerError>();
    }
}
