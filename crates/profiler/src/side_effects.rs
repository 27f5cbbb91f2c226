//! Side-effect analysis (§3.2): discovering the `errno`-style TLS writes,
//! global-variable writes and output-argument writes that accompany an error
//! return.
//!
//! Following the paper, the analysis scans the basic block that contains the
//! constant assignment feeding the return location.  Within that block it
//! tracks, instruction by instruction, which registers hold the
//! position-independent-code base address, which hold pointers taken from
//! arguments, and which hold (possibly negated) system-call results; stores
//! through the former are module-data side effects, stores through the latter
//! are output-argument side effects.

use std::collections::HashMap;

use lfi_disasm::{BlockId, Cfg};
use lfi_isa::{Abi, Inst, Loc, Operand, Reg};
use lfi_objfile::{SharedObject, Storage};
use lfi_profile::{SideEffect, SideEffectKind};

/// The value stored by a side-effecting write, before kernel resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RawSideValue {
    /// A compile-time constant.
    Const(i64),
    /// The raw result of the given system call.
    Syscall(u32),
    /// The negated result of the given system call (the errno idiom).
    NegatedSyscall(u32),
    /// Not statically resolvable.
    Unknown,
}

/// A side-effecting write found in a block, before classification against the
/// library's data layout is folded into a [`SideEffect`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RawSideEffect {
    /// Where the write goes.
    pub target: RawSideTarget,
    /// What is written.
    pub value: RawSideValue,
}

/// The destination of a side-effecting write.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum RawSideTarget {
    /// A slot in the module's data image (global or TLS, per the data layout).
    ModuleData {
        /// Offset within the module data image.
        offset: u32,
    },
    /// A write through a pointer passed as the `index`-th argument.
    OutputArg {
        /// Argument index.
        index: u8,
    },
}

/// Block-local state of one register during the forward scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegState {
    PicBase,
    ArgPointer(u8),
    Const(i64),
    SyscallResult(u32),
    NegatedSyscallResult(u32),
    Other,
}

/// Scans one basic block for side-effecting writes.
pub(crate) fn side_effects_in_block(cfg: &Cfg, block: BlockId, abi: &Abi) -> Vec<RawSideEffect> {
    let mut states: HashMap<Reg, RegState> = HashMap::new();
    let mut effects = Vec::new();
    let return_reg = abi.return_reg();

    let value_of = |operand: Operand, states: &HashMap<Reg, RegState>| -> RawSideValue {
        match operand {
            Operand::Imm(v) => RawSideValue::Const(v),
            Operand::Loc(Loc::Reg(r)) => match states.get(&r) {
                Some(RegState::Const(v)) => RawSideValue::Const(*v),
                Some(RegState::SyscallResult(n)) => RawSideValue::Syscall(*n),
                Some(RegState::NegatedSyscallResult(n)) => RawSideValue::NegatedSyscall(*n),
                _ => RawSideValue::Unknown,
            },
            Operand::Loc(_) => RawSideValue::Unknown,
        }
    };

    for inst in cfg.block_insts(block) {
        match *inst {
            Inst::LeaPicBase { dst } => {
                states.insert(dst, RegState::PicBase);
            }
            Inst::MovImm { dst: Loc::Reg(r), imm } => {
                states.insert(r, RegState::Const(imm));
            }
            Inst::Mov { dst: Loc::Reg(r), src } => {
                let state = match src {
                    Loc::Arg(n) => RegState::ArgPointer(n),
                    Loc::Reg(s) => states.get(&s).copied().unwrap_or(RegState::Other),
                    _ => RegState::Other,
                };
                states.insert(r, state);
            }
            Inst::Neg { dst: Loc::Reg(r) } => {
                let new_state = match states.get(&r) {
                    Some(RegState::SyscallResult(n)) => RegState::NegatedSyscallResult(*n),
                    Some(RegState::NegatedSyscallResult(n)) => RegState::SyscallResult(*n),
                    Some(RegState::Const(v)) => RegState::Const(-v),
                    _ => RegState::Other,
                };
                states.insert(r, new_state);
            }
            Inst::Alu { dst: Loc::Reg(r), .. } | Inst::Load { dst: r, .. } => {
                states.insert(r, RegState::Other);
            }
            Inst::Syscall { num } => {
                states.insert(return_reg, RegState::SyscallResult(num));
            }
            Inst::Call { .. } | Inst::CallIndirect { .. } => {
                // Calls clobber the return register; the PIC base register is
                // preserved by convention.
                states.insert(return_reg, RegState::Other);
            }
            Inst::Store { base, offset, src } => {
                let value = value_of(src, &states);
                match states.get(&base) {
                    Some(RegState::PicBase) if offset >= 0 => {
                        effects
                            .push(RawSideEffect { target: RawSideTarget::ModuleData { offset: offset as u32 }, value });
                    }
                    Some(RegState::ArgPointer(index)) => {
                        effects.push(RawSideEffect { target: RawSideTarget::OutputArg { index: *index }, value });
                    }
                    _ => {}
                }
            }
            // Direct stores to TLS/global locations (absolute addressing).
            Inst::MovImm { dst: Loc::Tls(offset), imm } | Inst::MovImm { dst: Loc::Global(offset), imm } => {
                effects.push(RawSideEffect {
                    target: RawSideTarget::ModuleData { offset },
                    value: RawSideValue::Const(imm),
                });
            }
            _ => {}
        }
    }
    effects
}

/// Turns raw side effects into profile-level [`SideEffect`]s, resolving
/// module-data offsets against the library's data layout and syscall-derived
/// values against the kernel's error set for that syscall.
pub(crate) fn classify_side_effects(
    raw: &[RawSideEffect],
    object: &SharedObject,
    kernel_errors: &dyn Fn(u32) -> Vec<i64>,
) -> Vec<SideEffect> {
    let mut out = Vec::new();
    for effect in raw {
        let values: Vec<i64> = match effect.value {
            RawSideValue::Const(v) => vec![v],
            RawSideValue::Syscall(num) => kernel_errors(num),
            RawSideValue::NegatedSyscall(num) => kernel_errors(num).into_iter().map(|v| -v).collect(),
            RawSideValue::Unknown => Vec::new(),
        };
        match &effect.target {
            RawSideTarget::ModuleData { offset } => {
                let kind = match object.data_symbol_at(*offset).map(|d| d.storage) {
                    Some(Storage::Tls) => SideEffectKind::Tls,
                    Some(Storage::Global) | None => SideEffectKind::Global,
                };
                for value in &values {
                    out.push(SideEffect { kind, module: object.name().to_owned(), offset: *offset, value: *value });
                }
            }
            RawSideTarget::OutputArg { index } => {
                for value in &values {
                    out.push(SideEffect {
                        kind: SideEffectKind::OutputArg,
                        module: object.name().to_owned(),
                        offset: u32::from(*index),
                        value: *value,
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfi_isa::{Operand, Platform};
    use lfi_objfile::ObjectBuilder;

    fn abi() -> Abi {
        Platform::LinuxX86.abi()
    }

    fn block_effects(insts: Vec<Inst>) -> Vec<RawSideEffect> {
        let cfg = Cfg::build(insts);
        side_effects_in_block(&cfg, cfg.entry().unwrap(), &abi())
    }

    #[test]
    fn paper_listing_errno_idiom_is_detected() {
        // The §3.2 GNU libc listing: compute errno address off the PIC base,
        // store the negated syscall result, return -1.
        let abi = abi();
        let errno = abi.errno_tls_offset() as i32;
        let effects = block_effects(vec![
            Inst::Syscall { num: 6 },
            Inst::LeaPicBase { dst: Reg(3) },
            Inst::Mov { dst: Loc::Reg(Reg(2)), src: abi.return_loc() },
            Inst::Neg { dst: Loc::Reg(Reg(2)) },
            Inst::Store { base: Reg(3), offset: errno, src: Operand::Loc(Loc::Reg(Reg(2))) },
            Inst::MovImm { dst: abi.return_loc(), imm: -1 },
            Inst::Ret,
        ]);
        assert_eq!(effects.len(), 1);
        assert_eq!(effects[0].target, RawSideTarget::ModuleData { offset: abi.errno_tls_offset() });
        assert_eq!(effects[0].value, RawSideValue::NegatedSyscall(6));
    }

    #[test]
    fn constant_errno_store_is_detected() {
        let abi = abi();
        let effects = block_effects(vec![
            Inst::LeaPicBase { dst: Reg(3) },
            Inst::Store { base: Reg(3), offset: abi.errno_tls_offset() as i32, src: Operand::Imm(9) },
            Inst::MovImm { dst: abi.return_loc(), imm: -1 },
            Inst::Ret,
        ]);
        assert_eq!(
            effects,
            vec![RawSideEffect {
                target: RawSideTarget::ModuleData { offset: abi.errno_tls_offset() },
                value: RawSideValue::Const(9),
            }]
        );
    }

    #[test]
    fn output_argument_store_is_detected() {
        let effects = block_effects(vec![
            Inst::Mov { dst: Loc::Reg(Reg(4)), src: Loc::Arg(2) },
            Inst::Store { base: Reg(4), offset: 0, src: Operand::Imm(77) },
            Inst::Ret,
        ]);
        assert_eq!(
            effects,
            vec![RawSideEffect { target: RawSideTarget::OutputArg { index: 2 }, value: RawSideValue::Const(77) }]
        );
    }

    #[test]
    fn stores_through_unknown_pointers_are_ignored() {
        let effects = block_effects(vec![
            Inst::Load { dst: Reg(4), base: Reg(5), offset: 0 },
            Inst::Store { base: Reg(4), offset: 0, src: Operand::Imm(1) },
            Inst::Ret,
        ]);
        assert!(effects.is_empty());
    }

    #[test]
    fn register_copies_preserve_pointer_provenance() {
        let effects = block_effects(vec![
            Inst::Mov { dst: Loc::Reg(Reg(4)), src: Loc::Arg(1) },
            Inst::Mov { dst: Loc::Reg(Reg(5)), src: Loc::Reg(Reg(4)) },
            Inst::Store { base: Reg(5), offset: 4, src: Operand::Imm(3) },
            Inst::Ret,
        ]);
        assert_eq!(effects[0].target, RawSideTarget::OutputArg { index: 1 });
    }

    #[test]
    fn double_negation_recovers_raw_syscall_value() {
        let abi = abi();
        let effects = block_effects(vec![
            Inst::Syscall { num: 4 },
            Inst::LeaPicBase { dst: Reg(3) },
            Inst::Mov { dst: Loc::Reg(Reg(2)), src: abi.return_loc() },
            Inst::Neg { dst: Loc::Reg(Reg(2)) },
            Inst::Neg { dst: Loc::Reg(Reg(2)) },
            Inst::Store { base: Reg(3), offset: 0x10, src: Operand::Loc(Loc::Reg(Reg(2))) },
            Inst::Ret,
        ]);
        assert_eq!(effects[0].value, RawSideValue::Syscall(4));
    }

    #[test]
    fn classification_resolves_storage_class_and_kernel_errors() {
        let abi = abi();
        let object = ObjectBuilder::new("libc.so.6", Platform::LinuxX86)
            .data_symbol("errno", abi.errno_tls_offset(), Storage::Tls)
            .data_symbol("h_errno", 0x40, Storage::Global)
            .build();
        let raw = vec![
            RawSideEffect {
                target: RawSideTarget::ModuleData { offset: abi.errno_tls_offset() },
                value: RawSideValue::NegatedSyscall(6),
            },
            RawSideEffect { target: RawSideTarget::ModuleData { offset: 0x40 }, value: RawSideValue::Const(2) },
            RawSideEffect { target: RawSideTarget::OutputArg { index: 1 }, value: RawSideValue::Const(0) },
            RawSideEffect { target: RawSideTarget::ModuleData { offset: 0x99 }, value: RawSideValue::Unknown },
        ];
        let kernel = |num: u32| if num == 6 { vec![-9, -5, -4] } else { vec![] };
        let effects = classify_side_effects(&raw, &object, &kernel);
        // Three errno values + one global + one output arg; the unknown value
        // contributes nothing.
        assert_eq!(effects.len(), 5);
        let errno_values: Vec<i64> =
            effects.iter().filter(|e| e.kind == SideEffectKind::Tls).map(|e| e.value).collect();
        assert_eq!(errno_values, vec![9, 5, 4]);
        assert!(effects.iter().any(|e| e.kind == SideEffectKind::Global && e.value == 2));
        assert!(effects.iter().any(|e| e.kind == SideEffectKind::OutputArg && e.offset == 1));
    }
}
