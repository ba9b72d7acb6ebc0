//! Peephole simplification: algebraic identities on single
//! instructions, adjacent immediate add/sub merging within a block, and
//! removal of no-op jumps.
//!
//! Every rewrite preserves the VM's exact 64-bit wrapping semantics
//! (`vm::alu`), so the optimized program computes bit-identical
//! register values.

use crate::insn::{AluOp, Insn, Src};
use crate::opt::cfg::{compact, Cfg};

#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PeepCounts {
    pub(crate) removed: u64,
    pub(crate) rewritten: u64,
}

/// One pass of peephole rewrites. Call to fixed point via the driver.
pub(crate) fn peephole(prog: &mut Vec<Insn>) -> PeepCounts {
    let mut counts = PeepCounts::default();
    let mut kill = vec![false; prog.len()];

    for pc in 0..prog.len() {
        match prog[pc] {
            // `jmp +0` falls through anyway.
            Insn::Jump { cond: None, off: 0 } => {
                kill[pc] = true;
                counts.removed += 1;
            }
            // `mov rX, rX` is a no-op.
            Insn::Alu {
                op: AluOp::Mov,
                dst,
                src: Src::Reg(s),
            } if dst == s => {
                kill[pc] = true;
                counts.removed += 1;
            }
            Insn::Alu {
                op,
                dst,
                src: Src::Imm(i),
            } => {
                let identity = matches!(
                    (op, i),
                    (AluOp::Add | AluOp::Sub | AluOp::Or | AluOp::Xor, 0)
                        | (AluOp::Lsh | AluOp::Rsh | AluOp::Arsh, 0)
                        | (AluOp::Mul | AluOp::Div, 1)
                        | (AluOp::And, -1)
                );
                if identity {
                    kill[pc] = true;
                    counts.removed += 1;
                    continue;
                }
                // Absorbing elements rewrite to constant movs.
                let absorbed = match (op, i) {
                    (AluOp::Mul | AluOp::And, 0) => Some(0i64),
                    (AluOp::Mod, 1) => Some(0),
                    (AluOp::Or, -1) => Some(-1),
                    _ => None,
                };
                if let Some(v) = absorbed {
                    prog[pc] = Insn::Alu {
                        op: AluOp::Mov,
                        dst,
                        src: Src::Imm(v),
                    };
                    counts.rewritten += 1;
                }
            }
            _ => {}
        }
    }
    compact(prog, &kill);

    // Merge adjacent `add/sub dst, imm` pairs on the same register
    // within a block (the second pc must not be a jump target). The
    // merge is exact under wrapping arithmetic.
    let cfg = Cfg::build(prog);
    let mut kill = vec![false; prog.len()];
    for b in &cfg.blocks {
        let mut pc = b.start;
        while pc + 1 < b.end {
            let (a, c) = (prog[pc], prog[pc + 1]);
            if let (
                Insn::Alu {
                    op: op1,
                    dst: d1,
                    src: Src::Imm(i1),
                },
                Insn::Alu {
                    op: op2,
                    dst: d2,
                    src: Src::Imm(i2),
                },
            ) = (a, c)
            {
                let signed = |op: AluOp, i: i64| match op {
                    AluOp::Add => Some(i),
                    AluOp::Sub => Some(i.wrapping_neg()),
                    _ => None,
                };
                if d1 == d2 {
                    if let (Some(s1), Some(s2)) = (signed(op1, i1), signed(op2, i2)) {
                        let total = s1.wrapping_add(s2);
                        prog[pc + 1] = Insn::Alu {
                            op: AluOp::Add,
                            dst: d1,
                            src: Src::Imm(total),
                        };
                        kill[pc] = true;
                        counts.removed += 1;
                        pc += 2;
                        continue;
                    }
                }
            }
            pc += 1;
        }
    }
    compact(prog, &kill);
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{Cond, Reg, R0, R6, R7};
    use crate::maps::MapRegistry;
    use crate::vm::{NullWorld, Vm};

    fn mov_imm(dst: Reg, v: i64) -> Insn {
        Insn::Alu {
            op: AluOp::Mov,
            dst,
            src: Src::Imm(v),
        }
    }

    fn run_r0(prog: &[Insn]) -> u64 {
        let mut maps = MapRegistry::new();
        let mut world = NullWorld::default();
        Vm::run(prog, &[], &mut maps, &mut world)
            .expect("program runs")
            .0
    }

    #[test]
    fn identities_are_removed() {
        let mut prog = vec![
            mov_imm(R0, 5),
            Insn::Alu {
                op: AluOp::Add,
                dst: R0,
                src: Src::Imm(0),
            },
            Insn::Alu {
                op: AluOp::Mul,
                dst: R0,
                src: Src::Imm(1),
            },
            Insn::Alu {
                op: AluOp::And,
                dst: R0,
                src: Src::Imm(-1),
            },
            Insn::Alu {
                op: AluOp::Mov,
                dst: R0,
                src: Src::Reg(R0),
            },
            Insn::Exit,
        ];
        let before = run_r0(&prog);
        let c = peephole(&mut prog);
        assert_eq!(c.removed, 4);
        assert_eq!(prog.len(), 2);
        assert_eq!(run_r0(&prog), before);
    }

    #[test]
    fn absorbing_ops_become_constant_movs() {
        let mut prog = vec![
            mov_imm(R0, 123),
            Insn::Alu {
                op: AluOp::Mul,
                dst: R0,
                src: Src::Imm(0),
            },
            Insn::Exit,
        ];
        let before = run_r0(&prog);
        let c = peephole(&mut prog);
        assert_eq!(c.rewritten, 1);
        assert_eq!(prog[1], mov_imm(R0, 0));
        assert_eq!(run_r0(&prog), before);
    }

    #[test]
    fn adjacent_add_sub_merge_is_exact() {
        let mut prog = vec![
            mov_imm(R6, 100),
            Insn::Alu {
                op: AluOp::Add,
                dst: R6,
                src: Src::Imm(7),
            },
            Insn::Alu {
                op: AluOp::Sub,
                dst: R6,
                src: Src::Imm(3),
            },
            Insn::Alu {
                op: AluOp::Mov,
                dst: R0,
                src: Src::Reg(R6),
            },
            Insn::Exit,
        ];
        let before = run_r0(&prog);
        let c = peephole(&mut prog);
        assert_eq!(c.removed, 1);
        assert_eq!(run_r0(&prog), before);
        assert_eq!(before, 104);
    }

    #[test]
    fn merge_respects_block_boundaries() {
        // The second add is a jump target: merging would change the
        // value seen when entering via the jump.
        let mut prog = vec![
            mov_imm(R6, 0),
            mov_imm(R7, 1),
            Insn::Jump {
                cond: Some((Cond::Eq, R7, Src::Imm(1))),
                off: 1,
            }, // → 4 (the second add)
            Insn::Alu {
                op: AluOp::Add,
                dst: R6,
                src: Src::Imm(10),
            },
            Insn::Alu {
                op: AluOp::Add,
                dst: R6,
                src: Src::Imm(1),
            },
            Insn::Alu {
                op: AluOp::Mov,
                dst: R0,
                src: Src::Reg(R6),
            },
            Insn::Exit,
        ];
        let before = run_r0(&prog);
        peephole(&mut prog);
        assert_eq!(run_r0(&prog), before);
        assert_eq!(before, 1);
    }

    #[test]
    fn noop_jump_is_removed_and_targets_stay_valid() {
        let mut prog = vec![
            mov_imm(R0, 1),
            Insn::Jump { cond: None, off: 0 },
            Insn::Alu {
                op: AluOp::Add,
                dst: R0,
                src: Src::Imm(2),
            },
            Insn::Exit,
        ];
        let before = run_r0(&prog);
        let c = peephole(&mut prog);
        assert!(c.removed >= 1);
        assert_eq!(run_r0(&prog), before);
    }
}
