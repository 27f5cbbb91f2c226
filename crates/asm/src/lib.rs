//! # lfi-asm — the synthetic library compiler
//!
//! The LFI profiler analyzes binaries *as a compiler emitted them*: constant
//! error returns, the PIC prologue, the negate-and-store `errno` sequence,
//! calls to dependent functions whose errors propagate, occasional indirect
//! calls and branches.  This crate is the "compiler" for the reproduction's
//! synthetic libraries: it lowers declarative [`FunctionSpec`]s into SimISA
//! machine code using exactly those idioms, and packages whole
//! [`LibrarySpec`]s into SimObj shared objects.
//!
//! Because the lowering is mechanical, every compiled function also carries a
//! [`PathInfo`] table describing which argument value steers execution down
//! which path and what the *actual* observable outcome of that path is.  The
//! corpus crate uses this as execution ground truth when scoring the profiler
//! (§6.3 of the paper), and the documentation models are derived from it.
//!
//! ```
//! use lfi_asm::{FaultSpec, FunctionSpec, LibraryCompiler, LibrarySpec};
//! use lfi_isa::Platform;
//!
//! let spec = LibrarySpec::new("libtiny.so", Platform::LinuxX86)
//!     .function(
//!         FunctionSpec::scalar("tiny_read", 3)
//!             .success(0)
//!             .fault(FaultSpec::returning(-1).with_errno(9)),
//!     );
//! let compiled = LibraryCompiler::new().compile(&spec);
//! assert_eq!(compiled.object.export_count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod assembler;
mod compile;
mod spec;

pub use compile::{CompiledFunction, CompiledLibrary, ExpectedOutcome, LibraryCompiler, PathInfo};
pub use spec::{ErrorMechanism, FaultSpec, FunctionSpec, LibrarySpec, SideEffectSpec};

#[cfg(test)]
mod tests {
    use super::*;
    use lfi_isa::Platform;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LibrarySpec>();
        assert_send_sync::<FunctionSpec>();
        assert_send_sync::<CompiledLibrary>();
    }

    #[test]
    fn doc_example_compiles_and_validates() {
        let spec = LibrarySpec::new("libtiny.so", Platform::LinuxX86).function(
            FunctionSpec::scalar("tiny_read", 3)
                .success(0)
                .fault(FaultSpec::returning(-1).with_errno(9)),
        );
        let compiled = LibraryCompiler::new().compile(&spec);
        assert!(compiled.object.validate().is_ok());
    }
}
