//! Register dataflow: per-instruction use/def sets and per-block
//! liveness (backward may-analysis). The lattice is finite — register
//! bitmasks — so the worklist iteration terminates at a fixed point.

use crate::insn::{Helper, Insn, Src};
use crate::opt::cfg::Cfg;

/// Register set as a bitmask (bit i = Ri).
pub(crate) type RegSet = u16;

const ALL_REGS: RegSet = (1 << 11) - 1;

fn bit(i: usize) -> RegSet {
    1 << i
}

fn src_bit(src: Src) -> RegSet {
    match src {
        Src::Reg(r) => bit(r.index()),
        Src::Imm(_) => 0,
    }
}

/// Registers the helper reads on entry: `R1..=R{arity}`.
fn helper_uses(h: Helper) -> RegSet {
    let mut m = 0;
    for i in 1..=h.num_args() {
        m |= bit(i);
    }
    m
}

/// Registers read by `insn`.
pub(crate) fn insn_uses(insn: &Insn) -> RegSet {
    use crate::insn::AluOp;
    match insn {
        Insn::Alu {
            op: AluOp::Mov,
            src,
            ..
        } => src_bit(*src),
        Insn::Alu {
            op: AluOp::Neg,
            dst,
            ..
        } => bit(dst.index()),
        Insn::Alu { dst, src, .. } => bit(dst.index()) | src_bit(*src),
        Insn::Load { base, .. } => bit(base.index()),
        Insn::Store { base, src, .. } => bit(base.index()) | src_bit(*src),
        Insn::Jump { cond: None, .. } => 0,
        Insn::Jump {
            cond: Some((_, dst, src)),
            ..
        } => bit(dst.index()) | src_bit(*src),
        Insn::Call { helper } => helper_uses(*helper),
        Insn::LoadMap { .. } => 0,
        Insn::Exit => bit(0),
    }
}

/// Registers written by `insn`. Calls define `R0`–`R5` (the VM clobbers
/// the caller-saved argument registers with a poison pattern).
pub(crate) fn insn_defs(insn: &Insn) -> RegSet {
    match insn {
        Insn::Alu { dst, .. } | Insn::Load { dst, .. } | Insn::LoadMap { dst, .. } => {
            bit(dst.index())
        }
        Insn::Call { .. } => 0b11_1111, // R0..=R5
        _ => 0,
    }
}

/// Per-block liveness solution: `live_out[b]` is the set of registers
/// that may be read before being written on some path leaving block `b`.
#[derive(Debug, Clone)]
pub(crate) struct Liveness {
    pub(crate) live_out: Vec<RegSet>,
}

impl Liveness {
    /// Backward worklist iteration to fixed point. A block whose
    /// terminator can fall off the program end is given `ALL_REGS`
    /// out-liveness (unreachable in verified programs, but harmlessly
    /// conservative).
    pub(crate) fn solve(prog: &[Insn], cfg: &Cfg) -> Liveness {
        let nb = cfg.blocks.len();
        // Per-block gen (upward-exposed uses) and kill (defs).
        let mut gen = vec![0 as RegSet; nb];
        let mut kill = vec![0 as RegSet; nb];
        for (i, b) in cfg.blocks.iter().enumerate() {
            for insn in &prog[b.start..b.end] {
                let u = insn_uses(insn);
                gen[i] |= u & !kill[i];
                kill[i] |= insn_defs(insn);
            }
        }
        let mut live_in = vec![0 as RegSet; nb];
        let mut live_out = vec![0 as RegSet; nb];
        for (i, b) in cfg.blocks.iter().enumerate() {
            let last = b.end - 1;
            let falls_off =
                !matches!(prog[last], Insn::Jump { .. } | Insn::Exit) && b.end == prog.len();
            if falls_off {
                live_out[i] = ALL_REGS;
            }
        }
        let mut changed = true;
        while changed {
            changed = false;
            for i in (0..nb).rev() {
                let mut out = live_out[i];
                for &s in &cfg.blocks[i].succs {
                    out |= live_in[s];
                }
                let inn = gen[i] | (out & !kill[i]);
                if out != live_out[i] || inn != live_in[i] {
                    live_out[i] = out;
                    live_in[i] = inn;
                    changed = true;
                }
            }
        }
        Liveness { live_out }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{AluOp, Cond, Size, R0, R1, R10, R2, R3, R6};

    fn mov_imm(dst: crate::insn::Reg, v: i64) -> Insn {
        Insn::Alu {
            op: AluOp::Mov,
            dst,
            src: Src::Imm(v),
        }
    }

    #[test]
    fn use_def_sets_per_shape() {
        let add = Insn::Alu {
            op: AluOp::Add,
            dst: R2,
            src: Src::Reg(R3),
        };
        assert_eq!(insn_uses(&add), 0b1100);
        assert_eq!(insn_defs(&add), 0b0100);
        let mov = mov_imm(R6, 1);
        assert_eq!(insn_uses(&mov), 0);
        let call = Insn::Call {
            helper: Helper::MapUpdate,
        };
        assert_eq!(insn_uses(&call), 0b1_1110); // R1..=R4
        assert_eq!(insn_defs(&call), 0b11_1111); // R0..=R5 clobbered
        let st = Insn::Store {
            size: Size::B8,
            base: R10,
            off: -8,
            src: Src::Reg(R0),
        };
        assert_eq!(insn_uses(&st), (1 << 10) | 1);
        assert_eq!(insn_defs(&st), 0);
        assert_eq!(insn_uses(&Insn::Exit), 1);
    }

    #[test]
    fn liveness_sees_loop_carried_registers() {
        // 0: mov r0, 0
        // 1: jeq r1, 0, +2 → 4
        // 2: add r0, 1          (r0 live around the loop)
        // 3: ja -3 → 1
        // 4: exit
        let prog = vec![
            mov_imm(R0, 0),
            Insn::Jump {
                cond: Some((Cond::Eq, R1, Src::Imm(0))),
                off: 2,
            },
            Insn::Alu {
                op: AluOp::Add,
                dst: R0,
                src: Src::Imm(1),
            },
            Insn::Jump {
                cond: None,
                off: -3,
            },
            Insn::Exit,
        ];
        let cfg = Cfg::build(&prog);
        let lv = Liveness::solve(&prog, &cfg);
        let header = cfg.block_of[1];
        let body = cfg.block_of[2];
        // r0 is live out of the body (read by exit after the loop) and
        // r1 is live out of the entry block (read by the header).
        assert_ne!(lv.live_out[body] & 1, 0, "r0 live around back edge");
        assert_ne!(
            lv.live_out[cfg.block_of[0]] & 0b10,
            0,
            "r1 live into header"
        );
        assert_ne!(lv.live_out[header] & 1, 0);
    }
}
