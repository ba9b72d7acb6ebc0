//! Constant and copy propagation.
//!
//! Two cooperating rewrites, both strictly in place (no instruction
//! moves, so pc-indexed verifier facts stay valid):
//!
//! * **Fact-seeded folding** — the verifier's tnum + interval domain
//!   already proved "register r equals constant c at pc" as a join over
//!   every path; we rewrite register operands to immediates and fold
//!   whole ALU ops whose destination is constant, evaluating with the
//!   VM's own [`crate::vm::alu`] so folded bits match execution
//!   exactly (wrapping, div-by-zero → 0, mod-by-zero → dst, masked
//!   shifts).
//! * **Copy propagation** — block-local only: the verifier refines
//!   register ranges on branch edges, and branches terminate blocks, so
//!   a within-block copy substitution can never lose a refinement the
//!   re-verification pass needs. Jump operands are left untouched for
//!   the same reason (substituting them would redirect the refinement
//!   to the wrong register).
//!
//! Soundness of operand rewrites: a fact `Const(c)` is a join over an
//! over-approximation of all executions, so the register holds exactly
//! `c` whenever the instruction executes; `Src::Imm(c as i64)`
//! round-trips to the same 64-bit pattern in the VM.

use crate::insn::{AluOp, Insn, Src};
use crate::opt::cfg::Cfg;
use crate::opt::dataflow::insn_defs;
use crate::verifier::PcFacts;
use crate::vm::alu;

/// Rewrite one `Src` operand to an immediate if the fact table proves
/// the register constant at this pc.
fn fold_src(src: &mut Src, consts: &dyn Fn(usize) -> Option<u64>) -> bool {
    if let Src::Reg(r) = *src {
        if let Some(c) = consts(r.index()) {
            *src = Src::Imm(c as i64);
            return true;
        }
    }
    false
}

/// Fold one instruction: `consts(reg)` answers "is this register a
/// known constant just before `insn` executes".
fn constprop_insn(insn: &mut Insn, consts: &dyn Fn(usize) -> Option<u64>) -> u64 {
    let mut rewrites = 0u64;
    match insn {
        Insn::Alu { op, dst, src } => {
            if *op != AluOp::Neg && fold_src(src, consts) {
                rewrites += 1;
            }
            // Fold the whole op when the destination is constant too.
            if *op != AluOp::Mov {
                let d = consts(dst.index());
                let folded = match (*op, d, *src) {
                    (AluOp::Neg, Some(d), _) => Some(alu(AluOp::Neg, d, 0)),
                    (_, Some(d), Src::Imm(i)) => Some(alu(*op, d, i as u64)),
                    _ => None,
                };
                if let Some(v) = folded {
                    *insn = Insn::Alu {
                        op: AluOp::Mov,
                        dst: *dst,
                        src: Src::Imm(v as i64),
                    };
                    rewrites += 1;
                }
            }
        }
        Insn::Store { src, .. } => {
            rewrites += u64::from(fold_src(src, consts));
        }
        _ => {}
    }
    rewrites
}

/// Fact-seeded constant folding/propagation over the whole program.
/// Returns the number of operand/instruction rewrites.
pub(crate) fn facts_constprop(prog: &mut [Insn], facts: &[PcFacts]) -> u64 {
    let mut rewrites = 0u64;
    for (pc, insn) in prog.iter_mut().enumerate() {
        let f = &facts[pc];
        if !f.visited {
            continue;
        }
        let consts = |r: usize| f.reg_const[r].value();
        rewrites += constprop_insn(insn, &consts);
        // Jump source operands may also be folded: the fact proves the
        // register constant on every path, so the verifier's branch
        // refinement of it was already a no-op.
        if let Insn::Jump {
            cond: Some((_, _, src)),
            ..
        } = insn
        {
            if fold_src(src, &consts) {
                rewrites += 1;
            }
        }
    }
    rewrites
}

/// Block-local copy propagation: after `mov dst, src`, reads of `dst`
/// become reads of `src` until either register is redefined. Jump
/// operands are excluded (see module docs).
pub(crate) fn copyprop(prog: &mut [Insn]) -> u64 {
    if prog.is_empty() {
        return 0;
    }
    let cfg = Cfg::build(prog);
    let mut rewrites = 0u64;
    for b in &cfg.blocks {
        // copy_of[i] = Some(j) means ri currently equals rj.
        let mut copy_of: [Option<u8>; 11] = [None; 11];
        let subst = |copy_of: &[Option<u8>; 11], r: crate::insn::Reg| -> Option<crate::insn::Reg> {
            copy_of[r.index()].map(crate::insn::Reg)
        };
        for slot in &mut prog[b.start..b.end] {
            let mut insn = *slot;
            let mut changed = false;
            match &mut insn {
                Insn::Alu { op, src, .. } if *op != AluOp::Neg => {
                    if let Src::Reg(r) = *src {
                        if let Some(s) = subst(&copy_of, r) {
                            *src = Src::Reg(s);
                            changed = true;
                        }
                    }
                }
                Insn::Load { base, .. } => {
                    if let Some(s) = subst(&copy_of, *base) {
                        *base = s;
                        changed = true;
                    }
                }
                Insn::Store { base, src, .. } => {
                    if let Some(s) = subst(&copy_of, *base) {
                        *base = s;
                        changed = true;
                    }
                    if let Src::Reg(r) = *src {
                        if let Some(s) = subst(&copy_of, r) {
                            *src = Src::Reg(s);
                            changed = true;
                        }
                    }
                }
                _ => {}
            }
            if changed {
                rewrites += 1;
                *slot = insn;
            }
            // Transfer: kill copies broken by this instruction's defs,
            // then record a new copy if this is a reg-to-reg move.
            let defs = insn_defs(slot);
            for r in 0..11u8 {
                if defs & (1 << r) != 0 {
                    copy_of[r as usize] = None;
                    for c in &mut copy_of {
                        if *c == Some(r) {
                            *c = None;
                        }
                    }
                }
            }
            if let Insn::Alu {
                op: AluOp::Mov,
                dst,
                src: Src::Reg(s),
            } = *slot
            {
                if dst != s {
                    // Follow chains: if s is itself a copy of t, dst
                    // equals t as well (and t survived s's def).
                    let root = copy_of[s.index()].unwrap_or(s.0);
                    copy_of[dst.index()] = Some(root);
                }
            }
        }
    }
    rewrites
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{Cond, Reg, Size, R0, R10, R2, R6};
    use crate::maps::MapRegistry;
    use crate::verifier::verify_with_facts;

    fn mov_imm(dst: Reg, v: i64) -> Insn {
        Insn::Alu {
            op: AluOp::Mov,
            dst,
            src: Src::Imm(v),
        }
    }

    fn facts_for(prog: &[Insn]) -> Vec<PcFacts> {
        let maps = MapRegistry::new();
        let (res, facts) = verify_with_facts(prog, &maps, 0);
        res.expect("test program must verify");
        facts
    }

    #[test]
    fn facts_fold_alu_chains_to_movs() {
        // r6 = 7; r0 = r6; r0 *= 3 → all constant.
        let mut prog = vec![
            mov_imm(R6, 7),
            Insn::Alu {
                op: AluOp::Mov,
                dst: R0,
                src: Src::Reg(R6),
            },
            Insn::Alu {
                op: AluOp::Mul,
                dst: R0,
                src: Src::Imm(3),
            },
            Insn::Exit,
        ];
        let facts = facts_for(&prog);
        let n = facts_constprop(&mut prog, &facts);
        assert!(n >= 2, "expected operand + fold rewrites, got {n}");
        assert_eq!(prog[1], mov_imm(R0, 7));
        assert_eq!(prog[2], mov_imm(R0, 21));
    }

    #[test]
    fn folding_matches_vm_division_semantics() {
        // The verifier rejects statically-known division by zero, so
        // this fold can only trigger through `constprop_insn` on facts
        // from a div whose operand became constant late; exercise the
        // folder directly: r0 = 5; r0 /= 0 → mov r0, 0 (eBPF rule),
        // and r0 %= 0 keeps the dividend.
        let consts = |r: usize| if r == 0 { Some(5u64) } else { None };
        let mut div = Insn::Alu {
            op: AluOp::Div,
            dst: R0,
            src: Src::Imm(0),
        };
        constprop_insn(&mut div, &consts);
        assert_eq!(div, mov_imm(R0, 0));
        let mut rem = Insn::Alu {
            op: AluOp::Mod,
            dst: R0,
            src: Src::Imm(0),
        };
        constprop_insn(&mut rem, &consts);
        assert_eq!(rem, mov_imm(R0, 5));
    }

    #[test]
    fn join_over_paths_blocks_unsound_folding() {
        // r2 is 1 or 2 depending on an unknown branch: no constant fact
        // at the join, so the final add must NOT fold.
        let prog = vec![
            Insn::Call {
                helper: crate::insn::Helper::GetCurrentPidTgid,
            }, // r0 = unknown scalar
            mov_imm(R2, 1),
            Insn::Jump {
                cond: Some((Cond::Eq, R0, Src::Imm(0))),
                off: 1,
            },
            mov_imm(R2, 2),
            Insn::Alu {
                op: AluOp::Add,
                dst: R2,
                src: Src::Imm(10),
            },
            mov_imm(R0, 0),
            Insn::Exit,
        ];
        let mut prog = prog;
        let facts = facts_for(&prog);
        facts_constprop(&mut prog, &facts);
        assert!(
            matches!(prog[4], Insn::Alu { op: AluOp::Add, .. }),
            "add at the join must survive: {:?}",
            prog[4]
        );
    }

    #[test]
    fn copyprop_substitutes_within_block_only() {
        // mov r2, r10; store [r2-8] → store [r10-8].
        let mut prog = vec![
            Insn::Alu {
                op: AluOp::Mov,
                dst: R2,
                src: Src::Reg(R10),
            },
            Insn::Store {
                size: Size::B8,
                base: R2,
                off: -8,
                src: Src::Imm(1),
            },
            mov_imm(R0, 0),
            Insn::Exit,
        ];
        let n = copyprop(&mut prog);
        assert_eq!(n, 1);
        assert!(
            matches!(prog[1], Insn::Store { base: R10, .. }),
            "{:?}",
            prog[1]
        );
    }

    #[test]
    fn copyprop_kills_on_redefinition() {
        // mov r2, r6; mov r6, 0; add r0, r2 — r2 ≠ r6 anymore.
        let mut prog = vec![
            mov_imm(R6, 3),
            mov_imm(R0, 0),
            Insn::Alu {
                op: AluOp::Mov,
                dst: R2,
                src: Src::Reg(R6),
            },
            mov_imm(R6, 0),
            Insn::Alu {
                op: AluOp::Add,
                dst: R0,
                src: Src::Reg(R2),
            },
            Insn::Exit,
        ];
        copyprop(&mut prog);
        assert_eq!(
            prog[4],
            Insn::Alu {
                op: AluOp::Add,
                dst: R0,
                src: Src::Reg(R2),
            },
            "copy must die when source is redefined"
        );
    }
}
