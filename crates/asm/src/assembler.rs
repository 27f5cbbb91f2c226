use lfi_isa::{Cond, Inst, Loc, Operand};

/// A forward-referenceable position in a function being assembled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Label(usize);

/// A tiny label-based assembler for one SimISA function body.
///
/// Jump targets in SimISA are absolute instruction indices; hand-computing
/// them while lowering multi-path functions is error prone, so the compiler
/// emits through this assembler and lets it patch the targets once all labels
/// are bound.
#[derive(Debug, Clone, Default)]
pub(crate) struct FnAsm {
    insts: Vec<Inst>,
    labels: Vec<Option<u32>>,
    fixups: Vec<(usize, Label)>,
}

impl FnAsm {
    /// Creates an empty assembler.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Declares a label that can be jumped to before it is bound.
    pub(crate) fn declare_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds a label to the *next* emitted instruction.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound; that is a bug in the caller.
    pub(crate) fn bind(&mut self, label: Label) {
        let slot = &mut self.labels[label.0];
        assert!(slot.is_none(), "label bound twice");
        *slot = Some(self.insts.len() as u32);
    }

    /// Emits an instruction verbatim.
    pub(crate) fn push(&mut self, inst: Inst) {
        self.insts.push(inst);
    }

    /// Emits a conditional jump to `label`.
    pub(crate) fn jmp_cond(&mut self, cond: Cond, label: Label) {
        self.fixups.push((self.insts.len(), label));
        self.insts.push(Inst::JmpCond { cond, target: u32::MAX });
    }

    /// Emits `cmp a, b`.
    pub(crate) fn cmp(&mut self, a: Loc, b: impl Into<Operand>) {
        self.insts.push(Inst::Cmp { a, b: b.into() });
    }

    /// Emits `mov dst, imm`.
    pub(crate) fn mov_imm(&mut self, dst: Loc, imm: i64) {
        self.insts.push(Inst::MovImm { dst, imm });
    }

    /// Emits `mov dst, src`.
    pub(crate) fn mov(&mut self, dst: Loc, src: Loc) {
        self.insts.push(Inst::Mov { dst, src });
    }

    /// Emits `ret`.
    pub(crate) fn ret(&mut self) {
        self.insts.push(Inst::Ret);
    }

    /// Resolves all label references and returns the finished body.
    ///
    /// # Panics
    ///
    /// Panics if a referenced label was never bound; that is a bug in the
    /// caller (the compiler), not a recoverable condition.
    pub(crate) fn finish(mut self) -> Vec<Inst> {
        for (index, label) in self.fixups {
            let target = self.labels[label.0].expect("jump to an unbound label");
            match &mut self.insts[index] {
                Inst::JmpCond { target: t, .. } => *t = target,
                other => unreachable!("fixup recorded for non-jump instruction {other:?}"),
            }
        }
        self.insts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfi_isa::Reg;

    #[test]
    fn forward_and_backward_labels_resolve() {
        let mut asm = FnAsm::new();
        let loop_top = asm.declare_label();
        let exit = asm.declare_label();
        asm.bind(loop_top);
        asm.cmp(Loc::Arg(0), 0i64);
        asm.jmp_cond(Cond::Eq, exit);
        asm.push(Inst::Nop);
        asm.jmp_cond(Cond::Ne, loop_top);
        asm.bind(exit);
        asm.mov_imm(Loc::Reg(Reg(0)), 0);
        asm.ret();
        let body = asm.finish();
        assert_eq!(body[1], Inst::JmpCond { cond: Cond::Eq, target: 4 });
        assert_eq!(body[3], Inst::JmpCond { cond: Cond::Ne, target: 0 });
    }

    #[test]
    #[should_panic(expected = "label bound twice")]
    fn double_bind_panics() {
        let mut asm = FnAsm::new();
        let l = asm.declare_label();
        asm.bind(l);
        asm.bind(l);
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics_at_finish() {
        let mut asm = FnAsm::new();
        let l = asm.declare_label();
        asm.jmp_cond(Cond::Eq, l);
        let _ = asm.finish();
    }

    #[test]
    fn helpers_emit_expected_instructions() {
        let mut asm = FnAsm::new();
        asm.mov_imm(Loc::Reg(Reg(1)), 5);
        asm.mov(Loc::Reg(Reg(2)), Loc::Reg(Reg(1)));
        asm.ret();
        let body = asm.finish();
        assert_eq!(body.len(), 3);
        assert_eq!(body[0], Inst::MovImm { dst: Loc::Reg(Reg(1)), imm: 5 });
        assert_eq!(body[1], Inst::Mov { dst: Loc::Reg(Reg(2)), src: Loc::Reg(Reg(1)) });
        assert_eq!(body[2], Inst::Ret);
    }
}
