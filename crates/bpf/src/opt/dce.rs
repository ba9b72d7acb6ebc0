//! Dead-code elimination.
//!
//! `dce` removes pure register-writing instructions whose result no
//! path can observe (liveness-driven).
//!
//! Soundness note: only side-effect-free instructions are candidates:
//! `Alu`, `Load`, `LoadMap`. `Store`, `Call`, `Jump`, `Exit` are never
//! removed (calls mutate maps/rings; stores mutate memory; control flow
//! is left alone). Removing a dead `Load` can skip a map-op *meta
//! counter* bump, but never changes register state, memory, or emitted
//! samples — the bit-identity bar compares those.

use crate::insn::Insn;
use crate::opt::cfg::{compact, Cfg};
use crate::opt::dataflow::{insn_defs, insn_uses, Liveness};

/// Remove pure instructions whose defined registers are dead. Returns
/// the number of instructions removed.
pub(crate) fn dce(prog: &mut Vec<Insn>) -> u64 {
    if prog.is_empty() {
        return 0;
    }
    let cfg = Cfg::build(prog);
    let lv = Liveness::solve(prog, &cfg);
    let mut kill = vec![false; prog.len()];
    for (bi, b) in cfg.blocks.iter().enumerate() {
        // Walk the block backwards, maintaining the live set.
        let mut live = lv.live_out[bi];
        for pc in (b.start..b.end).rev() {
            let insn = &prog[pc];
            let defs = insn_defs(insn);
            let pure = matches!(
                insn,
                Insn::Alu { .. } | Insn::Load { .. } | Insn::LoadMap { .. }
            );
            if pure && defs != 0 && defs & live == 0 {
                kill[pc] = true;
                continue; // dead insn contributes no uses
            }
            live = (live & !defs) | insn_uses(insn);
        }
    }
    compact(prog, &kill) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{AluOp, Cond, Helper, Reg, Size, Src, R0, R10, R2, R6};

    fn mov_imm(dst: Reg, v: i64) -> Insn {
        Insn::Alu {
            op: AluOp::Mov,
            dst,
            src: Src::Imm(v),
        }
    }

    #[test]
    fn dce_removes_unused_movs_keeps_result_chain() {
        let mut prog = vec![
            mov_imm(R6, 42), // dead: never read
            mov_imm(R0, 7),
            Insn::Alu {
                op: AluOp::Add,
                dst: R0,
                src: Src::Imm(1),
            },
            Insn::Exit,
        ];
        let removed = dce(&mut prog);
        assert_eq!(removed, 1);
        assert_eq!(prog.len(), 3);
        assert_eq!(prog[0], mov_imm(R0, 7));
    }

    #[test]
    fn dce_keeps_loop_carried_values() {
        // The counter is read by the back-edge condition: must survive.
        let mut prog = vec![
            mov_imm(R6, 0),
            Insn::Jump {
                cond: Some((Cond::Ge, R6, Src::Imm(3))),
                off: 2,
            },
            Insn::Alu {
                op: AluOp::Add,
                dst: R6,
                src: Src::Imm(1),
            },
            Insn::Jump {
                cond: None,
                off: -3,
            },
            mov_imm(R0, 0),
            Insn::Exit,
        ];
        let removed = dce(&mut prog);
        assert_eq!(removed, 0);
    }

    #[test]
    fn dce_never_touches_calls_or_stores() {
        // The call's R0 result is dead, but helpers have side effects.
        let mut prog = vec![
            mov_imm(R2, 0),
            Insn::Call {
                helper: Helper::KtimeGetNs,
            },
            Insn::Store {
                size: Size::B8,
                base: R10,
                off: -8,
                src: Src::Imm(1),
            },
            mov_imm(R0, 0),
            Insn::Exit,
        ];
        let removed = dce(&mut prog);
        // Only the `mov r2, 0` is removable (r2 clobbered by the call).
        assert_eq!(removed, 1);
        assert!(prog.iter().any(|i| matches!(i, Insn::Call { .. })));
        assert!(prog.iter().any(|i| matches!(i, Insn::Store { .. })));
    }
}
