//! # lfi-disasm — disassembly and control-flow-graph recovery for SimObj
//!
//! The LFI profiler "disassembles the library and identifies all exported
//! functions, along with the dependent functions … It then constructs for
//! each function a control flow graph" (§3.1).  This crate is that stage for
//! the reproduction: it decodes the SimISA byte streams stored in SimObj
//! shared objects, splits them into basic blocks, recovers the control flow
//! graph (including the *incompleteness* introduced by indirect branches,
//! which the paper measures), and reports per-object code statistics.
//!
//! ```
//! use lfi_disasm::Disassembler;
//! use lfi_isa::{Inst, Loc, Platform, Reg};
//! use lfi_objfile::ObjectBuilder;
//!
//! let obj = ObjectBuilder::new("libone.so", Platform::LinuxX86)
//!     .export("one", vec![Inst::MovImm { dst: Loc::Reg(Reg(0)), imm: 1 }, Inst::Ret])
//!     .build();
//! let dis = Disassembler::new().disassemble_object(&obj).unwrap();
//! assert_eq!(dis.functions.len(), 1);
//! assert_eq!(dis.functions[0].cfg.blocks().len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod cache;
mod cfg;
mod disassembler;
mod error;
mod stats;

pub use cache::DisasmCache;
pub use cfg::{BasicBlock, BlockId, Cfg};
pub use disassembler::{Disassembler, FunctionDisassembly, ObjectDisassembly};
pub use error::DisasmError;
pub use stats::CodeStats;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Cfg>();
        assert_send_sync::<DisasmCache>();
        assert_send_sync::<ObjectDisassembly>();
        assert_send_sync::<CodeStats>();
        assert_send_sync::<DisasmError>();
    }
}
