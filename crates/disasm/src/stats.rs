use std::fmt;
use std::ops::AddAssign;

use lfi_isa::Inst;

/// Branch and call statistics over a body of disassembled code.
///
/// The paper reports (§3.1) that across 9,633 functions in 30 common
/// libraries only 0.13% of branches are indirect, and that only 2.28% of
/// indirect calls could affect the accuracy of the static error-code
/// propagation.  This type gathers the raw counts that experiment needs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodeStats {
    /// Number of functions inspected.
    pub functions: usize,
    /// Total instructions inspected.
    pub instructions: usize,
    /// Unconditional direct branches.
    pub unconditional_branches: usize,
    /// Conditional direct branches.
    pub conditional_branches: usize,
    /// Indirect branches (targets unknown to static analysis).
    pub indirect_branches: usize,
    /// Direct calls.
    pub direct_calls: usize,
    /// Indirect calls (through function pointers).
    pub indirect_calls: usize,
    /// System calls.
    pub syscalls: usize,
}

impl CodeStats {
    /// Accumulates statistics for one function body.
    pub(crate) fn absorb_function(&mut self, insts: &[Inst]) {
        self.functions += 1;
        self.instructions += insts.len();
        for inst in insts {
            match inst {
                Inst::Jmp { .. } => self.unconditional_branches += 1,
                Inst::JmpCond { .. } => self.conditional_branches += 1,
                Inst::JmpIndirect { .. } => self.indirect_branches += 1,
                Inst::Call { .. } => self.direct_calls += 1,
                Inst::CallIndirect { .. } => self.indirect_calls += 1,
                Inst::Syscall { .. } => self.syscalls += 1,
                _ => {}
            }
        }
    }

    /// Total branches of any kind.
    pub fn total_branches(&self) -> usize {
        self.unconditional_branches + self.conditional_branches + self.indirect_branches
    }

    /// Total calls of any kind (excluding syscalls).
    pub fn total_calls(&self) -> usize {
        self.direct_calls + self.indirect_calls
    }

    /// Fraction of branches that are indirect, in [0, 1].
    pub fn indirect_branch_fraction(&self) -> f64 {
        ratio(self.indirect_branches, self.total_branches())
    }

    /// Fraction of calls that are indirect, in [0, 1].
    pub fn indirect_call_fraction(&self) -> f64 {
        ratio(self.indirect_calls, self.total_calls())
    }
}

fn ratio(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

impl AddAssign for CodeStats {
    fn add_assign(&mut self, rhs: Self) {
        self.functions += rhs.functions;
        self.instructions += rhs.instructions;
        self.unconditional_branches += rhs.unconditional_branches;
        self.conditional_branches += rhs.conditional_branches;
        self.indirect_branches += rhs.indirect_branches;
        self.direct_calls += rhs.direct_calls;
        self.indirect_calls += rhs.indirect_calls;
        self.syscalls += rhs.syscalls;
    }
}

impl fmt::Display for CodeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} functions, {} instructions, {} branches ({} indirect), {} calls ({} indirect)",
            self.functions,
            self.instructions,
            self.total_branches(),
            self.indirect_branches,
            self.total_calls(),
            self.indirect_calls
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfi_isa::{Cond, Loc, Reg};

    #[test]
    fn counts_each_category() {
        let mut stats = CodeStats::default();
        stats.absorb_function(&[
            Inst::Jmp { target: 0 },
            Inst::JmpCond { cond: Cond::Eq, target: 0 },
            Inst::JmpIndirect { loc: Loc::Reg(Reg(1)) },
            Inst::Call { sym: 0 },
            Inst::CallIndirect { loc: Loc::Reg(Reg(2)) },
            Inst::Syscall { num: 3 },
            Inst::Ret,
        ]);
        assert_eq!(stats.functions, 1);
        assert_eq!(stats.instructions, 7);
        assert_eq!(stats.total_branches(), 3);
        assert_eq!(stats.total_calls(), 2);
        assert_eq!(stats.syscalls, 1);
        assert!((stats.indirect_branch_fraction() - 1.0 / 3.0).abs() < 1e-9);
        assert!((stats.indirect_call_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn ratios_handle_empty_input() {
        let stats = CodeStats::default();
        assert_eq!(stats.indirect_branch_fraction(), 0.0);
        assert_eq!(stats.indirect_call_fraction(), 0.0);
    }

    #[test]
    fn accumulation_with_add_assign() {
        let mut a = CodeStats::default();
        a.absorb_function(&[Inst::Call { sym: 0 }, Inst::Ret]);
        let mut b = CodeStats::default();
        b.absorb_function(&[Inst::Jmp { target: 0 }]);
        a += b;
        assert_eq!(a.functions, 2);
        assert_eq!(a.direct_calls, 1);
        assert_eq!(a.unconditional_branches, 1);
        assert!(!a.to_string().is_empty());
    }
}
