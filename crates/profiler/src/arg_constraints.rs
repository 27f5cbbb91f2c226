//! Argument-constraint inference for error return values.
//!
//! §3.1 lists, as a limitation, that "fault profiles may include false
//! positives, i.e., return codes that can be returned by the corresponding
//! function only when certain combinations of arguments are provided" — the
//! example being `read` returning -1/`EWOULDBLOCK` only for asynchronous file
//! descriptors — and notes that "inferring the relationship between arguments
//! can be done using symbolic execution, but the current LFI prototype does
//! not support this yet".
//!
//! This module implements a lightweight version of that inference.  For each
//! constant error value found by the reverse constant propagation, it looks
//! at the conditional branches that *gate* the assignment site: a comparison
//! of an incoming argument against an immediate whose outcome decides whether
//! the assignment block can be reached at all yields an [`ArgConstraint`]
//! such as `arg0 == 2`.  The result lets a tester (or the scenario
//! generators) distinguish unconditional error returns from
//! argument-dependent ones, which is exactly the information needed to avoid
//! wasting time on faults the program can never observe for the argument
//! values it actually passes.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use lfi_disasm::{BlockId, Cfg};
use lfi_isa::{Abi, Cond, Inst, Loc, Operand};

use crate::return_codes::{analyze_returns, ValueOrigin};

/// A relation between an incoming argument and an immediate constant that
/// must hold for a particular error value to be returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArgConstraint {
    /// Index of the incoming argument.
    pub argument: u8,
    /// The relation the argument must satisfy.
    pub relation: Cond,
    /// The constant the argument is compared against.
    pub value: i64,
}

impl ArgConstraint {
    /// Creates a constraint.
    pub fn new(argument: u8, relation: Cond, value: i64) -> Self {
        ArgConstraint { argument, relation, value }
    }

    /// Whether a concrete argument vector satisfies the constraint.  Missing
    /// arguments never satisfy it.
    pub fn holds(&self, args: &[i64]) -> bool {
        args.get(self.argument as usize).is_some_and(|a| self.relation.holds(*a, self.value))
    }
}

impl fmt::Display for ArgConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match self.relation {
            Cond::Eq => "==",
            Cond::Ne => "!=",
            Cond::Lt => "<",
            Cond::Le => "<=",
            Cond::Gt => ">",
            Cond::Ge => ">=",
        };
        write!(f, "arg{} {op} {}", self.argument, self.value)
    }
}

/// Constraints for one function: error value → the argument constraints that
/// must *all* hold for the value to be returned.  Values with no inferred
/// constraint (unconditional error returns) are not present.
pub(crate) type FunctionArgConstraints = BTreeMap<i64, Vec<ArgConstraint>>;

/// Runs the argument-constraint inference over one function.
///
/// The analysis is deliberately conservative: a constraint is reported only
/// when the branch in question *decides* reachability of the assignment site
/// (the site is reachable through exactly one of the branch's two edges), so
/// every reported constraint genuinely gates the error value.  It is not
/// complete — error values steered by computed conditions, memory state or
/// callee behaviour simply get no constraint, mirroring how the paper scopes
/// this as future work rather than a soundness requirement.
pub(crate) fn analyze_arg_constraints(cfg: &Cfg, abi: &Abi) -> FunctionArgConstraints {
    let analysis = analyze_returns(cfg, abi);
    let mut per_value: BTreeMap<i64, Vec<BTreeSet<ArgConstraint>>> = BTreeMap::new();
    for origin in &analysis.origins {
        if let ValueOrigin::Const { value, block, .. } = origin {
            per_value.entry(*value).or_default().push(constraints_gating_block(cfg, *block));
        }
    }

    let mut out = FunctionArgConstraints::new();
    for (value, site_constraints) in per_value {
        // A constraint holds for the value only if every assignment site of
        // that value is gated by it.
        let mut sites = site_constraints.into_iter();
        let Some(first) = sites.next() else { continue };
        let common = sites.fold(first, |acc, next| acc.intersection(&next).copied().collect());
        if !common.is_empty() {
            out.insert(value, common.into_iter().collect());
        }
    }
    out
}

/// The argument constraints that gate reachability of `target` from the
/// function entry.
fn constraints_gating_block(cfg: &Cfg, target: BlockId) -> BTreeSet<ArgConstraint> {
    let mut constraints = BTreeSet::new();
    for block in cfg.blocks() {
        if block.id == target || block.is_empty() {
            continue;
        }
        let insts = cfg.block_insts(block.id);
        let Some(&Inst::JmpCond { cond, target: jump_target }) = insts.last() else {
            continue;
        };
        // The comparison feeding the branch: the last `cmp` in the block.
        let Some(&Inst::Cmp { a: Loc::Arg(argument), b: Operand::Imm(value) }) =
            insts.iter().rev().find(|inst| matches!(inst, Inst::Cmp { .. }))
        else {
            continue;
        };

        let taken = cfg.block_containing(jump_target as usize);
        let fallthrough = if block.end < cfg.insts().len() { cfg.block_containing(block.end) } else { None };

        let via_taken = taken.is_some_and(|s| reaches(cfg, s, target, block.id));
        let via_fallthrough = fallthrough.is_some_and(|s| reaches(cfg, s, target, block.id));
        if via_taken && !via_fallthrough {
            constraints.insert(ArgConstraint::new(argument, cond, value));
        } else if via_fallthrough && !via_taken {
            constraints.insert(ArgConstraint::new(argument, cond.negated(), value));
        }
    }
    constraints
}

/// Whether `target` is reachable from `from` without passing through `wall`.
fn reaches(cfg: &Cfg, from: BlockId, target: BlockId, wall: BlockId) -> bool {
    if from == wall {
        return false;
    }
    let mut queue = VecDeque::from([from]);
    let mut seen = BTreeSet::from([from]);
    while let Some(block) = queue.pop_front() {
        if block == target {
            return true;
        }
        for &succ in &cfg.block(block).successors {
            if succ != wall && seen.insert(succ) {
                queue.push_back(succ);
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfi_isa::Platform;

    fn abi() -> Abi {
        Platform::LinuxX86.abi()
    }

    fn ret_loc() -> Loc {
        abi().return_loc()
    }

    fn analyze(insts: Vec<Inst>) -> FunctionArgConstraints {
        analyze_arg_constraints(&Cfg::build(insts), &abi())
    }

    #[test]
    fn unconditional_error_has_no_constraint() {
        let constraints = analyze(vec![Inst::MovImm { dst: ret_loc(), imm: -1 }, Inst::Ret]);
        assert!(constraints.is_empty());
    }

    #[test]
    fn argument_gated_error_is_constrained() {
        // if (arg0 == 2) return -11;  return 0;   (read()/EWOULDBLOCK shape)
        let insts = vec![
            Inst::Cmp { a: Loc::Arg(0), b: Operand::Imm(2) },
            Inst::JmpCond { cond: Cond::Eq, target: 4 },
            Inst::MovImm { dst: ret_loc(), imm: 0 },
            Inst::Ret,
            Inst::MovImm { dst: ret_loc(), imm: -11 },
            Inst::Ret,
        ];
        let constraints = analyze(insts);
        assert_eq!(constraints[&-11], vec![ArgConstraint::new(0, Cond::Eq, 2)]);
        // The success return is gated by the opposite outcome of the same
        // comparison.
        assert_eq!(constraints[&0], vec![ArgConstraint::new(0, Cond::Ne, 2)]);
    }

    #[test]
    fn fallthrough_paths_get_the_negated_relation() {
        // if (arg1 != 0) goto success; return -7;
        let insts = vec![
            Inst::Cmp { a: Loc::Arg(1), b: Operand::Imm(0) },
            Inst::JmpCond { cond: Cond::Ne, target: 4 },
            Inst::MovImm { dst: ret_loc(), imm: -7 },
            Inst::Ret,
            Inst::MovImm { dst: ret_loc(), imm: 0 },
            Inst::Ret,
        ];
        let constraints = analyze(insts);
        assert_eq!(constraints[&-7], vec![ArgConstraint::new(1, Cond::Eq, 0)]);
    }

    #[test]
    fn nested_guards_accumulate() {
        // if (arg0 != 1) goto out; if (arg1 != 2) goto out; return -9; out: return 0;
        let insts = vec![
            Inst::Cmp { a: Loc::Arg(0), b: Operand::Imm(1) },
            Inst::JmpCond { cond: Cond::Ne, target: 6 },
            Inst::Cmp { a: Loc::Arg(1), b: Operand::Imm(2) },
            Inst::JmpCond { cond: Cond::Ne, target: 6 },
            Inst::MovImm { dst: ret_loc(), imm: -9 },
            Inst::Ret,
            Inst::MovImm { dst: ret_loc(), imm: 0 },
            Inst::Ret,
        ];
        let constraints = analyze(insts);
        let got = &constraints[&-9];
        assert!(got.contains(&ArgConstraint::new(0, Cond::Eq, 1)), "{got:?}");
        assert!(got.contains(&ArgConstraint::new(1, Cond::Eq, 2)), "{got:?}");
    }

    #[test]
    fn value_assigned_on_both_sides_of_a_branch_is_unconstrained() {
        // Both arms assign -5, so the branch does not gate the value.
        let insts = vec![
            Inst::Cmp { a: Loc::Arg(0), b: Operand::Imm(3) },
            Inst::JmpCond { cond: Cond::Eq, target: 4 },
            Inst::MovImm { dst: ret_loc(), imm: -5 },
            Inst::Ret,
            Inst::MovImm { dst: ret_loc(), imm: -5 },
            Inst::Ret,
        ];
        assert!(analyze(insts).is_empty());
    }

    #[test]
    fn non_argument_comparisons_yield_no_constraint() {
        // The guard compares a global, not an argument.
        let insts = vec![
            Inst::Cmp { a: Loc::Reg(lfi_isa::Reg(4)), b: Operand::Imm(7) },
            Inst::JmpCond { cond: Cond::Eq, target: 4 },
            Inst::MovImm { dst: ret_loc(), imm: 0 },
            Inst::Ret,
            Inst::MovImm { dst: ret_loc(), imm: -3 },
            Inst::Ret,
        ];
        assert!(analyze(insts).is_empty());
    }

    #[test]
    fn constraint_evaluation_against_concrete_arguments() {
        let constraint = ArgConstraint::new(1, Cond::Ge, 10);
        assert!(constraint.holds(&[0, 10]));
        assert!(constraint.holds(&[0, 11]));
        assert!(!constraint.holds(&[0, 9]));
        assert!(!constraint.holds(&[0]), "missing arguments never satisfy a constraint");
        assert_eq!(constraint.to_string(), "arg1 >= 10");
        assert_eq!(ArgConstraint::new(0, Cond::Eq, 2).to_string(), "arg0 == 2");
    }

    #[test]
    fn negation_round_trips() {
        for cond in [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge] {
            assert_eq!(cond.negated().negated(), cond);
            for (a, b) in [(1, 2), (2, 1), (3, 3)] {
                assert_ne!(cond.holds(a, b), cond.negated().holds(a, b));
            }
        }
    }
}
