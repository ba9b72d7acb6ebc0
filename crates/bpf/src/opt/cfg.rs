//! Basic-block discovery, CFG construction, dominators, and the shared
//! program-compaction utility every instruction-removing pass uses.
//!
//! Blocks end at jumps and `exit`; conditional jumps are block
//! terminators, which matters for soundness elsewhere: the verifier
//! refines register ranges only on branch *edges*, so any fact a pass
//! derives strictly inside a block cannot be invalidated by refinement.

use crate::insn::Insn;

/// A half-open instruction range `[start, end)` plus its CFG edges
/// (indices into [`Cfg::blocks`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct Block {
    pub(crate) start: usize,
    pub(crate) end: usize,
    pub(crate) succs: Vec<usize>,
    pub(crate) preds: Vec<usize>,
}

/// Control-flow graph over basic blocks, with immediate dominators.
#[derive(Debug, Clone)]
pub(crate) struct Cfg {
    pub(crate) blocks: Vec<Block>,
    /// pc → owning block index.
    pub(crate) block_of: Vec<usize>,
    /// Immediate dominator per block; `None` for unreachable blocks,
    /// `Some(0)` for the entry (which dominates itself).
    idom: Vec<Option<usize>>,
    /// Reverse postorder over reachable blocks.
    rpo: Vec<usize>,
}

/// Static successors of the instruction at `pc`:
/// `(fall_through, jump_target)`. `exit` has neither; an unconditional
/// jump has only a target; a conditional jump has both.
fn insn_succs(prog: &[Insn], pc: usize) -> (Option<usize>, Option<usize>) {
    match prog[pc] {
        Insn::Exit => (None, None),
        Insn::Jump { cond, off } => {
            let target = pc as i64 + 1 + off as i64;
            let target = if (0..prog.len() as i64).contains(&target) {
                Some(target as usize)
            } else {
                None
            };
            if cond.is_some() {
                (Some(pc + 1).filter(|&p| p < prog.len()), target)
            } else {
                (None, target)
            }
        }
        _ => (Some(pc + 1).filter(|&p| p < prog.len()), None),
    }
}

impl Cfg {
    /// Build blocks, edges, reverse postorder, and dominators.
    pub(crate) fn build(prog: &[Insn]) -> Cfg {
        let n = prog.len();
        let mut leader = vec![false; n];
        if n > 0 {
            leader[0] = true;
        }
        for pc in 0..n {
            if let Insn::Jump { off, .. } = prog[pc] {
                let target = pc as i64 + 1 + off as i64;
                if (0..n as i64).contains(&target) {
                    leader[target as usize] = true;
                }
            }
            if matches!(prog[pc], Insn::Jump { .. } | Insn::Exit) && pc + 1 < n {
                leader[pc + 1] = true;
            }
        }
        let mut blocks = Vec::new();
        let mut block_of = vec![0usize; n];
        let mut start = 0usize;
        for (pc, is_leader) in leader.iter().enumerate() {
            if pc > start && *is_leader {
                blocks.push(Block {
                    start,
                    end: pc,
                    ..Block::default()
                });
                start = pc;
            }
        }
        if n > 0 {
            blocks.push(Block {
                start,
                end: n,
                ..Block::default()
            });
        }
        for (i, b) in blocks.iter().enumerate() {
            block_of[b.start..b.end].fill(i);
        }
        // Edges come from each block's terminator.
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for (i, b) in blocks.iter().enumerate() {
            let last = b.end - 1;
            let (ft, tgt) = insn_succs(prog, last);
            for succ_pc in [tgt, ft].into_iter().flatten() {
                edges.push((i, block_of[succ_pc]));
            }
        }
        for &(from, to) in &edges {
            blocks[from].succs.push(to);
            blocks[to].preds.push(from);
        }
        let mut cfg = Cfg {
            blocks,
            block_of,
            idom: Vec::new(),
            rpo: Vec::new(),
        };
        cfg.compute_rpo();
        cfg.compute_dominators();
        cfg
    }

    fn compute_rpo(&mut self) {
        let n = self.blocks.len();
        let mut state = vec![0u8; n]; // 0 unvisited, 1 on stack, 2 done
        let mut post = Vec::with_capacity(n);
        if n == 0 {
            return;
        }
        // Iterative DFS with an explicit successor cursor.
        let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
        state[0] = 1;
        while let Some(&mut (b, ref mut cursor)) = stack.last_mut() {
            if *cursor < self.blocks[b].succs.len() {
                let s = self.blocks[b].succs[*cursor];
                *cursor += 1;
                if state[s] == 0 {
                    state[s] = 1;
                    stack.push((s, 0));
                }
            } else {
                state[b] = 2;
                post.push(b);
                stack.pop();
            }
        }
        post.reverse();
        self.rpo = post;
    }

    /// Cooper–Harvey–Kennedy iterative dominator computation over RPO.
    fn compute_dominators(&mut self) {
        let n = self.blocks.len();
        self.idom = vec![None; n];
        if n == 0 {
            return;
        }
        let mut rpo_index = vec![usize::MAX; n];
        for (i, &b) in self.rpo.iter().enumerate() {
            rpo_index[b] = i;
        }
        self.idom[0] = Some(0);
        let mut changed = true;
        while changed {
            changed = false;
            for &b in self.rpo.iter().skip(1) {
                let mut new_idom: Option<usize> = None;
                for &p in &self.blocks[b].preds {
                    if self.idom[p].is_none() {
                        continue; // unreachable predecessor
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => self.intersect(cur, p, &rpo_index),
                    });
                }
                if new_idom.is_some() && self.idom[b] != new_idom {
                    self.idom[b] = new_idom;
                    changed = true;
                }
            }
        }
    }

    fn intersect(&self, a: usize, b: usize, rpo_index: &[usize]) -> usize {
        let (mut a, mut b) = (a, b);
        while a != b {
            while rpo_index[a] > rpo_index[b] {
                a = self.idom[a].expect("reachable block has idom");
            }
            while rpo_index[b] > rpo_index[a] {
                b = self.idom[b].expect("reachable block has idom");
            }
        }
        a
    }

    /// Does block `a` dominate block `b`? (Walks the idom chain.)
    pub(crate) fn dominates(&self, a: usize, b: usize) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur] {
                Some(d) if d != cur => cur = d,
                _ => return false,
            }
        }
    }
}

/// Delete every killed instruction and re-aim surviving jumps. A jump
/// whose target was killed resolves to the next surviving pc — sound
/// because passes only kill instructions that are unreachable or have
/// no effect, so falling "through" them was always a no-op.
///
/// Returns the number of instructions removed.
pub(crate) fn compact(prog: &mut Vec<Insn>, kill: &[bool]) -> usize {
    debug_assert_eq!(prog.len(), kill.len());
    let n = prog.len();
    let removed = kill.iter().filter(|&&k| k).count();
    if removed == 0 {
        return 0;
    }
    // new_index[i] = number of survivors strictly before old pc i; for a
    // killed pc this is exactly the new pc of the next survivor.
    let mut new_index = vec![0usize; n + 1];
    let mut count = 0usize;
    for i in 0..n {
        new_index[i] = count;
        if !kill[i] {
            count += 1;
        }
    }
    new_index[n] = count;
    let mut out = Vec::with_capacity(count);
    for pc in 0..n {
        if kill[pc] {
            continue;
        }
        let mut insn = prog[pc];
        if let Insn::Jump { ref mut off, .. } = insn {
            let old_target = (pc as i64 + 1 + *off as i64).clamp(0, n as i64) as usize;
            let new_target = new_index[old_target] as i64;
            *off = (new_target - (new_index[pc] as i64 + 1)) as i32;
        }
        out.push(insn);
    }
    *prog = out;
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{AluOp, Cond, Src, R0, R1};

    fn mov0() -> Insn {
        Insn::Alu {
            op: AluOp::Mov,
            dst: R0,
            src: Src::Imm(0),
        }
    }

    fn ja(off: i32) -> Insn {
        Insn::Jump { cond: None, off }
    }

    fn jcond(off: i32) -> Insn {
        Insn::Jump {
            cond: Some((Cond::Eq, R1, Src::Imm(0))),
            off,
        }
    }

    #[test]
    fn diamond_blocks_edges_and_dominators() {
        // 0: mov        ── B0
        // 1: jeq +2 →4  ── B0 terminator
        // 2: mov        ── B1 (then side)
        // 3: ja +1 →5   ── B1
        // 4: mov        ── B2 (else side)
        // 5: exit       ── B3 (join)
        let prog = vec![mov0(), jcond(2), mov0(), ja(1), mov0(), Insn::Exit];
        let cfg = Cfg::build(&prog);
        assert_eq!(cfg.blocks.len(), 4);
        assert_eq!(cfg.blocks[0].succs.len(), 2);
        assert_eq!(cfg.block_of[5], 3);
        assert_eq!(cfg.blocks[3].preds.len(), 2);
        // Entry dominates everything; neither arm dominates the join.
        assert!(cfg.dominates(0, 3));
        assert!(!cfg.dominates(1, 3));
        assert!(!cfg.dominates(2, 3));
        assert_eq!(cfg.idom[3], Some(0));
    }

    #[test]
    fn loop_back_edge_and_dominators() {
        // 0: mov            ── B0
        // 1: jeq +2 → 4     ── B1 (header)
        // 2: mov            ── B2 (body)
        // 3: ja -3 → 1      ── B2 back edge
        // 4: exit           ── B3
        let prog = vec![mov0(), jcond(2), mov0(), ja(-3), Insn::Exit];
        let cfg = Cfg::build(&prog);
        assert_eq!(cfg.blocks.len(), 4);
        let header = cfg.block_of[1];
        let body = cfg.block_of[2];
        assert!(cfg.blocks[body].succs.contains(&header));
        assert!(cfg.dominates(header, body));
        assert!(cfg.dominates(header, cfg.block_of[4]));
    }

    #[test]
    fn compact_retargets_jumps_over_killed_range() {
        // 0: ja +2 → 3, 1..2 killed, 3: exit — target shifts to 1.
        let mut prog = vec![ja(2), mov0(), mov0(), Insn::Exit];
        let removed = compact(&mut prog, &[false, true, true, false]);
        assert_eq!(removed, 2);
        assert_eq!(prog, vec![ja(0), Insn::Exit]);
    }

    #[test]
    fn compact_resolves_killed_target_to_next_survivor() {
        // Jump targets a killed no-op: it must land on the survivor after.
        let mut prog = vec![jcond(1), mov0(), mov0(), Insn::Exit];
        // Kill pc2 (the jump target stays pc... target is 0+1+1 = 2 killed).
        let removed = compact(&mut prog, &[false, false, true, false]);
        assert_eq!(removed, 1);
        // New layout: 0 jcond → target must now be pc 2 (exit).
        assert_eq!(prog.len(), 3);
        match prog[0] {
            Insn::Jump { off, .. } => assert_eq!(off, 1), // 0+1+1 = 2 = exit
            _ => panic!(),
        }
        assert_eq!(prog[2], Insn::Exit);
    }

    #[test]
    fn backward_jump_offsets_survive_compaction() {
        // 0 mov, 1 mov(kill), 2 jcond back to 0.
        let mut prog = vec![mov0(), mov0(), jcond(-3), Insn::Exit];
        compact(&mut prog, &[false, true, false, false]);
        match prog[1] {
            Insn::Jump { off, .. } => assert_eq!(off, -2), // 1+1-2 = 0
            _ => panic!(),
        }
    }
}
