//! # lfi-objfile — SimObj, the synthetic shared-object format
//!
//! The LFI profiler consumes *library binaries*: it lists their exported
//! functions, disassembles their text, follows calls into dependent libraries
//! and locates the data symbols (such as `errno`) used as error side channels.
//! SimObj is the container format that plays the role ELF/PE/COFF shared
//! objects play in the paper:
//!
//! * a **symbol table** of defined (exported or local) and imported functions,
//!   optionally carrying a C-header-style signature (return type and arity);
//! * a **text section** per defined function holding SimISA machine code in
//!   its binary encoding (see `lfi-isa::encode`);
//! * a **data layout** naming global and thread-local data slots by offset
//!   (this is what lets the analysis report "TLS offset 0x12FFF4" for
//!   `errno`, §3.3);
//! * a **dependency list** (the `DT_NEEDED` analogue) used for recursive
//!   profiling across libraries and into the kernel image;
//! * optional **stripping**, which removes local symbol names but keeps the
//!   dynamic exports — the paper notes LFI works on stripped libraries.
//!
//! ```
//! use lfi_isa::{Inst, Platform};
//! use lfi_objfile::{ObjectBuilder, ReturnType, Storage};
//!
//! let abi = Platform::LinuxX86.abi();
//! let obj = ObjectBuilder::new("libdemo.so", Platform::LinuxX86)
//!     .data_symbol("errno", abi.errno_tls_offset(), Storage::Tls)
//!     .export_with_signature(
//!         "always_fail",
//!         ReturnType::Scalar,
//!         1,
//!         vec![Inst::MovImm { dst: abi.return_loc(), imm: -1 }, Inst::Ret],
//!     )
//!     .build();
//! let bytes = obj.to_bytes();
//! let parsed = lfi_objfile::SharedObject::from_bytes(&bytes).unwrap();
//! assert_eq!(parsed.exported_symbols().count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod builder;
mod error;
mod object;
mod serialize;
pub mod stable_hash;
mod symbol;

pub use builder::ObjectBuilder;
pub use error::ObjError;
pub use object::{DataSymbol, SharedObject, Storage};
pub use symbol::{FunctionCode, FunctionSig, ReturnType, Symbol, SymbolDef, SymbolId};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedObject>();
        assert_send_sync::<Symbol>();
        assert_send_sync::<ObjError>();
        assert_send_sync::<ObjectBuilder>();
    }
}
