use std::collections::{BTreeSet, HashSet, VecDeque};
use std::fmt;

use lfi_isa::Inst;

/// Identifier of a basic block within one function's [`Cfg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub usize);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// A maximal straight-line sequence of instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// This block's id.
    pub id: BlockId,
    /// Index of the first instruction in the block.
    pub start: usize,
    /// Index one past the last instruction in the block.
    pub end: usize,
    /// Ids of blocks control can flow to.
    pub successors: Vec<BlockId>,
    /// True if the block ends in an indirect jump, whose targets the static
    /// analysis cannot resolve (a source of CFG incompleteness, §3.1).
    pub has_indirect_successor: bool,
    /// True if the block ends the function (a `ret`, or code that falls off
    /// the end of the body).
    pub is_exit: bool,
}

impl BasicBlock {
    /// Number of instructions in the block.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True when the block holds no instructions (never produced by
    /// [`Cfg::build`], but kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// The control flow graph of one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cfg {
    insts: Vec<Inst>,
    blocks: Vec<BasicBlock>,
    predecessors: Vec<Vec<BlockId>>,
    block_of_inst: Vec<BlockId>,
}

impl Cfg {
    /// Builds the control flow graph of a decoded function body.
    ///
    /// Leaders are the entry instruction, every branch target and every
    /// instruction following a terminator; blocks span from one leader to the
    /// next.  Jump targets outside the body are tolerated (the block simply
    /// gets no successor for them) so that the profiler degrades gracefully on
    /// malformed code, mirroring the paper's tolerance of disassembly
    /// imperfections.
    pub fn build(insts: Vec<Inst>) -> Cfg {
        if insts.is_empty() {
            return Cfg { insts, blocks: Vec::new(), predecessors: Vec::new(), block_of_inst: Vec::new() };
        }

        let len = insts.len();
        let mut leaders: BTreeSet<usize> = BTreeSet::new();
        leaders.insert(0);
        for (i, inst) in insts.iter().enumerate() {
            match *inst {
                Inst::Jmp { target } | Inst::JmpCond { target, .. } => {
                    if (target as usize) < len {
                        leaders.insert(target as usize);
                    }
                    if i + 1 < len {
                        leaders.insert(i + 1);
                    }
                }
                Inst::JmpIndirect { .. } | Inst::Ret if i + 1 < len => {
                    leaders.insert(i + 1);
                }
                _ => {}
            }
        }

        let starts: Vec<usize> = leaders.into_iter().collect();
        let mut blocks: Vec<BasicBlock> = Vec::with_capacity(starts.len());
        for (bi, &start) in starts.iter().enumerate() {
            let end = starts.get(bi + 1).copied().unwrap_or(len);
            blocks.push(BasicBlock {
                id: BlockId(bi),
                start,
                end,
                successors: Vec::new(),
                has_indirect_successor: false,
                is_exit: false,
            });
        }

        let block_index_of = |inst_index: usize| -> BlockId {
            // Binary search over block starts.
            let pos = starts.partition_point(|&s| s <= inst_index);
            BlockId(pos - 1)
        };

        let mut block_of_inst = vec![BlockId(0); len];
        for block in &blocks {
            for slot in block_of_inst.iter_mut().take(block.end).skip(block.start) {
                *slot = block.id;
            }
        }

        // Successor edges, derived from each block's final instruction.
        // Indexing (not iterating) because the loop reads neighbouring
        // blocks while mutating the current one.
        let mut predecessors: Vec<Vec<BlockId>> = vec![Vec::new(); blocks.len()];
        #[allow(clippy::needless_range_loop)]
        for bi in 0..blocks.len() {
            let last_index = blocks[bi].end - 1;
            let last = insts[last_index];
            let mut succs: Vec<BlockId> = Vec::new();
            let mut indirect = false;
            let mut exit = false;
            match last {
                Inst::Ret => exit = true,
                Inst::Jmp { target } => {
                    if (target as usize) < len {
                        succs.push(block_index_of(target as usize));
                    } else {
                        exit = true;
                    }
                }
                Inst::JmpCond { target, .. } => {
                    if (target as usize) < len {
                        succs.push(block_index_of(target as usize));
                    }
                    if blocks[bi].end < len {
                        succs.push(BlockId(bi + 1));
                    } else {
                        exit = true;
                    }
                }
                Inst::JmpIndirect { .. } => indirect = true,
                _ => {
                    // The block ends because the next instruction is a leader,
                    // or because the body ends.
                    if blocks[bi].end < len {
                        succs.push(BlockId(bi + 1));
                    } else {
                        exit = true;
                    }
                }
            }
            succs.dedup();
            for &s in &succs {
                predecessors[s.0].push(BlockId(bi));
            }
            blocks[bi].successors = succs;
            blocks[bi].has_indirect_successor = indirect;
            blocks[bi].is_exit = exit;
        }

        Cfg { insts, blocks, predecessors, block_of_inst }
    }

    /// The decoded instructions of the whole function.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// All basic blocks, in address order.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// The block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this graph.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.0]
    }

    /// The instructions of one block.
    pub fn block_insts(&self, id: BlockId) -> &[Inst] {
        let b = self.block(id);
        &self.insts[b.start..b.end]
    }

    /// The block containing instruction index `index`, if in range.
    pub fn block_containing(&self, index: usize) -> Option<BlockId> {
        self.block_of_inst.get(index).copied()
    }

    /// The entry block, if the function is non-empty.
    pub fn entry(&self) -> Option<BlockId> {
        self.blocks.first().map(|b| b.id)
    }

    /// Predecessor blocks of `id`.
    pub fn predecessors(&self, id: BlockId) -> &[BlockId] {
        &self.predecessors[id.0]
    }

    /// Blocks reachable from the entry along recovered edges.  Blocks only
    /// reachable through indirect jumps are *not* included, matching the
    /// incompleteness the paper accepts.
    pub fn reachable_blocks(&self) -> HashSet<BlockId> {
        let mut seen = HashSet::new();
        let Some(entry) = self.entry() else { return seen };
        let mut queue = VecDeque::from([entry]);
        while let Some(id) = queue.pop_front() {
            if seen.insert(id) {
                for &s in &self.block(id).successors {
                    queue.push_back(s);
                }
            }
        }
        seen
    }

    /// Renders the graph in Graphviz DOT form (the reproduction of Figure 2).
    pub fn to_dot(&self, name: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("digraph \"{name}\" {{\n  node [shape=box, fontname=\"monospace\"];\n"));
        for block in &self.blocks {
            let mut label = format!("{}\\n", block.id);
            for (i, inst) in self.block_insts(block.id).iter().enumerate() {
                label.push_str(&format!("{:>4}: {}\\l", block.start + i, inst));
            }
            out.push_str(&format!("  {} [label=\"{}\"];\n", block.id, label.replace('"', "'")));
        }
        for block in &self.blocks {
            for succ in &block.successors {
                out.push_str(&format!("  {} -> {};\n", block.id, succ));
            }
            if block.has_indirect_successor {
                out.push_str(&format!("  {} -> unknown [style=dashed];\n", block.id));
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfi_isa::{Cond, Loc, Reg};

    fn ret0() -> Inst {
        Inst::MovImm { dst: Loc::Reg(Reg(0)), imm: 0 }
    }

    #[test]
    fn straight_line_is_one_block() {
        let cfg = Cfg::build(vec![ret0(), Inst::Ret]);
        assert_eq!(cfg.blocks().len(), 1);
        assert!(cfg.blocks()[0].is_exit);
        assert!(cfg.blocks()[0].successors.is_empty());
        assert_eq!(cfg.block_insts(BlockId(0)).len(), 2);
    }

    #[test]
    fn diamond_has_four_blocks() {
        // 0: cmp arg0, 0
        // 1: jne 4
        // 2: mov r0, 0
        // 3: ret
        // 4: mov r0, 5
        // 5: ret
        let insts = vec![
            Inst::Cmp { a: Loc::Arg(0), b: 0i64.into() },
            Inst::JmpCond { cond: Cond::Ne, target: 4 },
            ret0(),
            Inst::Ret,
            Inst::MovImm { dst: Loc::Reg(Reg(0)), imm: 5 },
            Inst::Ret,
        ];
        let cfg = Cfg::build(insts);
        assert_eq!(cfg.blocks().len(), 3);
        let entry = cfg.entry().unwrap();
        assert_eq!(cfg.block(entry).successors.len(), 2);
        assert_eq!(cfg.blocks().iter().filter(|b| b.is_exit).count(), 2);
        // Both exits have the entry as (transitive) predecessor.
        for exit in cfg.blocks().iter().filter(|b| b.is_exit) {
            assert_eq!(cfg.predecessors(exit.id), &[entry]);
        }
    }

    #[test]
    fn loop_back_edge_is_recovered() {
        // 0: cmp arg0, 0
        // 1: jeq 4
        // 2: nop
        // 3: jmp 0
        // 4: ret
        let insts = vec![
            Inst::Cmp { a: Loc::Arg(0), b: 0i64.into() },
            Inst::JmpCond { cond: Cond::Eq, target: 4 },
            Inst::Nop,
            Inst::Jmp { target: 0 },
            Inst::Ret,
        ];
        let cfg = Cfg::build(insts);
        let entry = cfg.entry().unwrap();
        // The loop body jumps back to the entry.
        let body = cfg.block_containing(2).unwrap();
        assert!(cfg.block(body).successors.contains(&entry));
        assert!(cfg.predecessors(entry).contains(&body));
        assert_eq!(cfg.reachable_blocks().len(), cfg.blocks().len());
    }

    #[test]
    fn indirect_jump_has_no_recovered_successor() {
        let insts = vec![Inst::JmpIndirect { loc: Loc::Reg(Reg(6)) }, Inst::Ret];
        let cfg = Cfg::build(insts);
        assert!(cfg.blocks()[0].has_indirect_successor);
        assert!(cfg.blocks()[0].successors.is_empty());
        // The second block is not reachable along recovered edges.
        assert_eq!(cfg.reachable_blocks().len(), 1);
    }

    #[test]
    fn dead_code_after_ret_is_kept_but_unreachable() {
        let insts = vec![ret0(), Inst::Ret, Inst::Nop, Inst::Nop];
        let cfg = Cfg::build(insts);
        assert_eq!(cfg.blocks().len(), 2);
        assert_eq!(cfg.reachable_blocks().len(), 1);
        // The trailing block falls off the end and is treated as an exit.
        assert!(cfg.blocks()[1].is_exit);
    }

    #[test]
    fn empty_function_yields_empty_graph() {
        let cfg = Cfg::build(Vec::new());
        assert!(cfg.blocks().is_empty());
        assert!(cfg.entry().is_none());
        assert!(cfg.reachable_blocks().is_empty());
    }

    #[test]
    fn out_of_range_branch_target_is_tolerated() {
        let insts = vec![Inst::Jmp { target: 99 }];
        let cfg = Cfg::build(insts);
        assert_eq!(cfg.blocks().len(), 1);
        assert!(cfg.blocks()[0].successors.is_empty());
        assert!(cfg.blocks()[0].is_exit);
    }

    #[test]
    fn dot_output_mentions_every_block() {
        let insts = vec![
            Inst::Cmp { a: Loc::Arg(0), b: 0i64.into() },
            Inst::JmpCond { cond: Cond::Ne, target: 4 },
            ret0(),
            Inst::Ret,
            Inst::MovImm { dst: Loc::Reg(Reg(0)), imm: 5 },
            Inst::Ret,
        ];
        let cfg = Cfg::build(insts);
        let dot = cfg.to_dot("blah");
        assert!(dot.starts_with("digraph"));
        for block in cfg.blocks() {
            assert!(dot.contains(&block.id.to_string()));
        }
    }

    #[test]
    fn block_len_and_emptiness() {
        let cfg = Cfg::build(vec![ret0(), Inst::Ret]);
        let b = &cfg.blocks()[0];
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
    }
}
