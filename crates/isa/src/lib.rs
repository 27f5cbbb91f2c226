//! # lfi-isa — SimISA, the synthetic instruction set used by the LFI reproduction
//!
//! The original LFI profiler ([Marinescu & Candea, DSN 2009]) disassembles
//! real x86 / SPARC shared libraries.  This reproduction replaces the concrete
//! machine ISA with **SimISA**, a compact register machine that preserves every
//! property the LFI analyses rely on:
//!
//! * values live in *locations* ([`Loc`]): registers, stack slots, argument
//!   slots, globals and thread-local storage;
//! * platform ABIs ([`Abi`], [`Platform`]) differ in which location carries the
//!   return value and how position-independent code obtains its base address;
//! * control flow is expressed with conditional/unconditional jumps, direct and
//!   indirect calls, `syscall` and `ret`, so control-flow-graph recovery and
//!   reverse constant propagation work exactly as described in the paper;
//! * instructions have a binary encoding ([`encode`]) so the profiler operates
//!   on *binaries*, not on a convenient in-memory IR.
//!
//! The crate also ships a small interpreter ([`vm`]) used to derive execution
//! ground truth for the profiler-accuracy experiments (§6.3 of the paper).
//!
//! ```
//! use lfi_isa::{Inst, Loc, Operand, Platform, Reg};
//!
//! let abi = Platform::LinuxX86.abi();
//! // A function that returns the constant -1 in the platform return location.
//! let body = vec![Inst::MovImm { dst: abi.return_loc(), imm: -1 }, Inst::Ret];
//! let bytes = lfi_isa::encode::encode_function(&body);
//! let decoded = lfi_isa::encode::decode_function(&bytes).unwrap();
//! assert_eq!(body, decoded);
//! assert_eq!(abi.return_loc(), Loc::Reg(Reg(0)));
//! let _ = Operand::Imm(-1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod encode;
mod error;
mod inst;
mod loc;
mod platform;
mod reg;
pub mod vm;

pub use error::IsaError;
pub use inst::{BinAluOp, Cond, Inst, Operand};
pub use loc::Loc;
pub use platform::{Abi, Platform};
pub use reg::Reg;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Inst>();
        assert_send_sync::<Loc>();
        assert_send_sync::<Platform>();
        assert_send_sync::<Abi>();
        assert_send_sync::<IsaError>();
    }
}
