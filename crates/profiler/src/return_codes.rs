//! Intra-procedural return-code analysis: the "reverse constant propagation"
//! of §3.1.
//!
//! For every exit of a function the analysis identifies the last write to the
//! ABI return location and walks the control flow graph backwards, collecting
//! every value that can propagate into that location: immediate constants
//! (the common `#define`-style error codes), the results of direct calls to
//! dependent functions (resolved recursively by the inter-procedural layer),
//! raw system-call results, indirect-call results (unresolvable statically)
//! and unknown/argument-derived values.

use std::collections::{BTreeSet, HashSet};

use lfi_disasm::{BlockId, Cfg};
use lfi_isa::{Abi, Inst, Loc};

/// Where a value that reaches the return location comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum ValueOrigin {
    /// An immediate constant assigned at the given instruction.
    Const {
        /// The constant value.
        value: i64,
        /// Block containing the assignment.
        block: BlockId,
        /// Absolute instruction index of the assignment.
        inst: usize,
    },
    /// The return value of a direct call to the symbol with this index.
    CalleeReturn {
        /// Symbol-table index of the callee.
        sym: u32,
        /// Block containing the call.
        block: BlockId,
    },
    /// The return value of an indirect call; statically unresolvable.
    IndirectCallReturn {
        /// Block containing the call.
        block: BlockId,
    },
    /// The raw result of a system call.
    SyscallReturn {
        /// System call number.
        num: u32,
        /// Block containing the syscall.
        block: BlockId,
    },
    /// The value of an incoming argument.
    Argument {
        /// Argument index.
        index: u8,
    },
    /// Anything the analysis cannot resolve to one of the cases above.
    Unknown,
}

/// The result of the intra-procedural analysis for one function.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ReturnAnalysis {
    /// Every origin that can reach the return location at some `ret`.
    pub origins: BTreeSet<ValueOrigin>,
    /// The longest chain of location-to-location propagations observed while
    /// tracing (the paper reports this is ≤ 3 in practice).
    pub max_propagation_hops: usize,
}

impl ReturnAnalysis {
    /// The constant return values found, in ascending order.
    pub(crate) fn constants(&self) -> Vec<i64> {
        let mut values: Vec<i64> = self
            .origins
            .iter()
            .filter_map(|o| match o {
                ValueOrigin::Const { value, .. } => Some(*value),
                _ => None,
            })
            .collect();
        values.sort_unstable();
        values.dedup();
        values
    }
}

/// Runs the reverse constant propagation over one function.
pub(crate) fn analyze_returns(cfg: &Cfg, abi: &Abi) -> ReturnAnalysis {
    let mut analysis = ReturnAnalysis::default();
    let reachable = cfg.reachable_blocks();
    let return_loc = abi.return_loc();

    for block in cfg.blocks() {
        if !reachable.contains(&block.id) || block.is_empty() {
            continue;
        }
        let last_index = block.end - 1;
        if !matches!(cfg.insts()[last_index], Inst::Ret) {
            continue;
        }
        // Trace backwards from just before the `ret`.
        let mut visited: HashSet<(BlockId, Loc)> = HashSet::new();
        trace(cfg, abi, block.id, block.len() - 1, return_loc, 0, &mut visited, &mut analysis);
    }
    analysis
}

/// Walks backwards from `block[..upto]` looking for the writers of `loc`.
#[allow(clippy::too_many_arguments)]
fn trace(
    cfg: &Cfg,
    abi: &Abi,
    block_id: BlockId,
    upto: usize,
    mut loc: Loc,
    hops: usize,
    visited: &mut HashSet<(BlockId, Loc)>,
    out: &mut ReturnAnalysis,
) {
    out.max_propagation_hops = out.max_propagation_hops.max(hops);
    let block = cfg.block(block_id);
    let insts = cfg.block_insts(block_id);
    let mut hops = hops;

    for offset in (0..upto).rev() {
        let abs_index = block.start + offset;
        let inst = insts[offset];
        match inst {
            Inst::MovImm { dst, imm } if dst == loc => {
                out.origins.insert(ValueOrigin::Const { value: imm, block: block_id, inst: abs_index });
                return;
            }
            Inst::Mov { dst, src } if dst == loc => {
                // The value is whatever `src` held at this point: keep tracing
                // the source location upwards.
                loc = src;
                hops += 1;
                out.max_propagation_hops = out.max_propagation_hops.max(hops);
            }
            Inst::Alu { dst, .. } | Inst::Neg { dst } if dst == loc => {
                // A computed value; not a propagated constant.
                out.origins.insert(ValueOrigin::Unknown);
                return;
            }
            Inst::Load { dst, .. } | Inst::LeaPicBase { dst } if Loc::Reg(dst) == loc => {
                out.origins.insert(ValueOrigin::Unknown);
                return;
            }
            Inst::Call { sym } => {
                if loc == abi.return_loc() {
                    out.origins.insert(ValueOrigin::CalleeReturn { sym, block: block_id });
                    return;
                }
                if !loc.survives_calls() {
                    out.origins.insert(ValueOrigin::Unknown);
                    return;
                }
            }
            Inst::CallIndirect { .. } => {
                if loc == abi.return_loc() {
                    out.origins.insert(ValueOrigin::IndirectCallReturn { block: block_id });
                    return;
                }
                if !loc.survives_calls() {
                    out.origins.insert(ValueOrigin::Unknown);
                    return;
                }
            }
            Inst::Syscall { num } => {
                if loc == abi.return_loc() {
                    out.origins.insert(ValueOrigin::SyscallReturn { num, block: block_id });
                    return;
                }
                if !loc.survives_calls() {
                    out.origins.insert(ValueOrigin::Unknown);
                    return;
                }
            }
            _ => {}
        }
    }

    // Reached the top of the block without finding a writer: continue into
    // every predecessor (expanding the product graph G' on demand).
    let predecessors = cfg.predecessors(block_id);
    let is_entry = Some(block_id) == cfg.entry();
    if is_entry || predecessors.is_empty() {
        match loc {
            Loc::Arg(index) => {
                out.origins.insert(ValueOrigin::Argument { index });
            }
            _ => {
                out.origins.insert(ValueOrigin::Unknown);
            }
        }
        if predecessors.is_empty() {
            return;
        }
    }
    for &pred in predecessors {
        if visited.insert((pred, loc)) {
            let pred_len = cfg.block(pred).len();
            trace(cfg, abi, pred, pred_len, loc, hops + 1, visited, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfi_isa::{BinAluOp, Cond, Operand, Platform, Reg};

    fn abi() -> Abi {
        Platform::LinuxX86.abi()
    }

    fn ret_loc() -> Loc {
        abi().return_loc()
    }

    fn analyze(insts: Vec<Inst>) -> ReturnAnalysis {
        analyze_returns(&Cfg::build(insts), &abi())
    }

    /// True if any origin is a direct call (requiring recursive resolution).
    fn has_callee_returns(analysis: &ReturnAnalysis) -> bool {
        analysis.origins.iter().any(|o| matches!(o, ValueOrigin::CalleeReturn { .. }))
    }

    /// True if some value reaching the return location could not be resolved.
    fn has_unresolved(analysis: &ReturnAnalysis) -> bool {
        analysis.origins.iter().any(|o| {
            matches!(o, ValueOrigin::IndirectCallReturn { .. } | ValueOrigin::Argument { .. } | ValueOrigin::Unknown)
        })
    }

    #[test]
    fn single_constant_return() {
        let analysis = analyze(vec![Inst::MovImm { dst: ret_loc(), imm: -1 }, Inst::Ret]);
        assert_eq!(analysis.constants(), vec![-1]);
        assert!(!has_unresolved(&analysis));
    }

    #[test]
    fn figure_2_shape_finds_both_constants() {
        // The paper's Figure 2: if (arg == 0) ret = 0; if (arg != 1) ret = 5; return ret.
        // Modelled with a local stack slot as the `ret` variable.
        let local = Loc::Stack(-4);
        let insts = vec![
            Inst::Cmp { a: Loc::Arg(0), b: Operand::Imm(0) },
            Inst::JmpCond { cond: Cond::Ne, target: 3 },
            Inst::MovImm { dst: local, imm: 0 },
            Inst::Cmp { a: Loc::Arg(0), b: Operand::Imm(1) },
            Inst::JmpCond { cond: Cond::Ne, target: 6 },
            Inst::MovImm { dst: local, imm: 5 },
            Inst::Mov { dst: ret_loc(), src: local },
            Inst::Ret,
        ];
        let analysis = analyze(insts);
        assert_eq!(analysis.constants(), vec![0, 5]);
        assert!(analysis.max_propagation_hops >= 1);
        // The uninitialized-local path also reaches the return (unknown).
        assert!(has_unresolved(&analysis));
    }

    #[test]
    fn branchy_error_paths_are_all_found() {
        // if (arg0 == 1) return -9; if (arg0 == 2) return -5; return 0;
        let insts = vec![
            Inst::Cmp { a: Loc::Arg(0), b: Operand::Imm(1) },
            Inst::JmpCond { cond: Cond::Eq, target: 6 },
            Inst::Cmp { a: Loc::Arg(0), b: Operand::Imm(2) },
            Inst::JmpCond { cond: Cond::Eq, target: 8 },
            Inst::MovImm { dst: ret_loc(), imm: 0 },
            Inst::Ret,
            Inst::MovImm { dst: ret_loc(), imm: -9 },
            Inst::Ret,
            Inst::MovImm { dst: ret_loc(), imm: -5 },
            Inst::Ret,
        ];
        assert_eq!(analyze(insts).constants(), vec![-9, -5, 0]);
    }

    #[test]
    fn callee_and_syscall_origins_are_reported() {
        let insts = vec![Inst::Call { sym: 7 }, Inst::Ret];
        let analysis = analyze(insts);
        assert!(has_callee_returns(&analysis));
        assert!(analysis.origins.iter().any(|o| matches!(o, ValueOrigin::CalleeReturn { sym: 7, .. })));

        let insts = vec![Inst::Syscall { num: 3 }, Inst::Ret];
        let analysis = analyze(insts);
        assert!(analysis.origins.iter().any(|o| matches!(o, ValueOrigin::SyscallReturn { num: 3, .. })));
    }

    #[test]
    fn indirect_call_is_unresolvable() {
        let insts = vec![Inst::CallIndirect { loc: Loc::Reg(Reg(5)) }, Inst::Ret];
        let analysis = analyze(insts);
        assert!(has_unresolved(&analysis));
        assert!(analysis.origins.iter().any(|o| matches!(o, ValueOrigin::IndirectCallReturn { .. })));
    }

    #[test]
    fn computed_values_are_unknown() {
        let insts = vec![
            Inst::MovImm { dst: ret_loc(), imm: 4 },
            Inst::Alu { op: BinAluOp::Add, dst: ret_loc(), src: Operand::Imm(1) },
            Inst::Ret,
        ];
        let analysis = analyze(insts);
        assert!(analysis.constants().is_empty());
        assert!(has_unresolved(&analysis));
    }

    #[test]
    fn argument_passthrough_is_reported() {
        let insts = vec![Inst::Mov { dst: ret_loc(), src: Loc::Arg(2) }, Inst::Ret];
        let analysis = analyze(insts);
        assert!(analysis.origins.contains(&ValueOrigin::Argument { index: 2 }));
    }

    #[test]
    fn constants_behind_calls_survive_on_stack_but_not_in_registers() {
        // A constant parked in a register is clobbered by a call; the same
        // constant parked on the stack survives.
        let reg_case = vec![Inst::MovImm { dst: ret_loc(), imm: -7 }, Inst::Call { sym: 1 }, Inst::Ret];
        let analysis = analyze(reg_case);
        // The call's own return value is what reaches the return location.
        assert!(has_callee_returns(&analysis));
        assert!(analysis.constants().is_empty());

        let stack_case = vec![
            Inst::MovImm { dst: Loc::Stack(-8), imm: -7 },
            Inst::Call { sym: 1 },
            Inst::Mov { dst: ret_loc(), src: Loc::Stack(-8) },
            Inst::Ret,
        ];
        assert_eq!(analyze(stack_case).constants(), vec![-7]);
    }

    #[test]
    fn loops_terminate_and_find_constants() {
        // while (arg0 != 0) { } return -2;
        let insts = vec![
            Inst::Cmp { a: Loc::Arg(0), b: Operand::Imm(0) },
            Inst::JmpCond { cond: Cond::Ne, target: 0 },
            Inst::MovImm { dst: ret_loc(), imm: -2 },
            Inst::Ret,
        ];
        assert_eq!(analyze(insts).constants(), vec![-2]);
    }

    #[test]
    fn void_function_reports_unknown_only() {
        let analysis = analyze(vec![Inst::Nop, Inst::Ret]);
        assert!(analysis.constants().is_empty());
        assert!(has_unresolved(&analysis));
    }

    #[test]
    fn unreachable_ret_blocks_are_ignored() {
        // Entry returns 0; dead code afterwards would return -5 but can never
        // execute *and is never jumped to*, so it contributes nothing.
        let insts = vec![
            Inst::MovImm { dst: ret_loc(), imm: 0 },
            Inst::Ret,
            Inst::MovImm { dst: ret_loc(), imm: -5 },
            Inst::Ret,
        ];
        assert_eq!(analyze(insts).constants(), vec![0]);
    }
}
