//! Structural loop unrolling for counted loops with verifier-bounded
//! trip counts.
//!
//! The collector programs emitted by codegen use one canonical loop
//! shape (matching the kernel-BPF "bounded loop" idiom):
//!
//! ```text
//!   init:     mov  ctr, c0
//!   top:      jge  ctr, n, -> after     (exit check)
//!   body:     ...                        (straight-line, ctr not written)
//!   step:     add  ctr, s                (last body instruction)
//!   backedge: ja   -> top
//!   after:    ...
//! ```
//!
//! When the trip count is a compile-time constant and small, replacing
//! the region `[top..=backedge]` with `trips` copies of the body is an
//! exact semantic substitution: each copy ends with the `add`, so `ctr`
//! leaves the unrolled region holding `c0 + trips*s` just as the loop
//! form would, and the per-iteration exit check and back-edge jump
//! (2 executed instructions per trip, plus the final exit test) simply
//! disappear. Follow-up constant propagation then freezes `ctr` in each
//! copy, which in turn lets bounds checks inside the body fold away.
//!
//! Guard rails:
//! * operands pinned to `[0, 2^31]` (and step ≥ 1) so signed and
//!   unsigned comparisons agree and no wrapping can occur;
//! * `ctr` must not be written anywhere in the body except the step
//!   (calls clobber R0–R5, which the def-set check covers);
//! * no jump from outside the region may target into it;
//! * the header must dominate the back edge (a genuine natural loop);
//! * `trips` ≤ the verifier's loop bound and the expansion must fit
//!   the instruction budget.

use crate::insn::{AluOp, Cond, Insn, Src};
use crate::opt::cfg::Cfg;
use crate::opt::dataflow::insn_defs;

/// Verifier bound: loops beyond this many trips never verified anyway.
const MAX_TRIPS: u64 = 512;

const IMM_BOUND: i64 = 1 << 31;

#[derive(Debug, Clone, Copy)]
struct Candidate {
    top: usize,
    backedge: usize,
    trips: u64,
}

fn exit_cond(c: Cond) -> bool {
    matches!(c, Cond::Ge | Cond::Gt | Cond::SGe | Cond::SGt)
}

fn trip_count(cond: Cond, c0: i64, n: i64, s: i64) -> Option<u64> {
    let (c0, n, s) = (c0 as u64, n as u64, s as u64);
    let trips = match cond {
        // exit when ctr >= n
        Cond::Ge | Cond::SGe => {
            if c0 >= n {
                0
            } else {
                (n - c0).div_ceil(s)
            }
        }
        // exit when ctr > n
        Cond::Gt | Cond::SGt => {
            if c0 > n {
                0
            } else {
                (n - c0) / s + 1
            }
        }
        _ => return None,
    };
    Some(trips)
}

fn find_candidate(prog: &[Insn], budget: usize) -> Option<Candidate> {
    let n_insns = prog.len();
    let cfg = Cfg::build(prog);
    'tops: for top in 1..n_insns {
        let Insn::Jump {
            cond: Some((cond, ctr, Src::Imm(bound))),
            off,
        } = prog[top]
        else {
            continue;
        };
        if !exit_cond(cond) {
            continue;
        }
        let after = top as i64 + 1 + off as i64;
        // Region shape: body of at least one insn plus the back edge.
        if after < top as i64 + 3 || after > n_insns as i64 {
            continue;
        }
        let backedge = (after - 1) as usize;
        match prog[backedge] {
            Insn::Jump { cond: None, off: b } if backedge as i64 + 1 + b as i64 == top as i64 => {}
            _ => continue,
        }
        // Known initial value immediately before the header.
        let Insn::Alu {
            op: AluOp::Mov,
            dst: init_dst,
            src: Src::Imm(c0),
        } = prog[top - 1]
        else {
            continue;
        };
        if init_dst != ctr {
            continue;
        }
        // Step: the last body instruction increments the counter...
        let Insn::Alu {
            op: AluOp::Add,
            dst: step_dst,
            src: Src::Imm(step),
        } = prog[backedge - 1]
        else {
            continue;
        };
        if step_dst != ctr {
            continue;
        }
        // ...and nothing else in the body writes it, jumps, or exits.
        for insn in &prog[top + 1..backedge - 1] {
            if matches!(insn, Insn::Jump { .. } | Insn::Exit) {
                continue 'tops;
            }
            if insn_defs(insn) & (1 << ctr.index()) != 0 {
                continue 'tops;
            }
        }
        // Value bounds: signed/unsigned agnostic, no wrapping possible.
        if !(0..=IMM_BOUND).contains(&c0)
            || !(0..=IMM_BOUND).contains(&bound)
            || !(1..=IMM_BOUND).contains(&step)
        {
            continue;
        }
        let Some(trips) = trip_count(cond, c0, bound, step) else {
            continue;
        };
        if trips == 0 || trips > MAX_TRIPS {
            // trips == 0 is branch folding's job (dead loop body).
            continue;
        }
        // No jump from outside the region may land inside it.
        for (pc, insn) in prog.iter().enumerate() {
            if (top..=backedge).contains(&pc) {
                continue;
            }
            if let Insn::Jump { off: o, .. } = insn {
                let t = pc as i64 + 1 + *o as i64;
                if (top as i64..=backedge as i64).contains(&t) {
                    continue 'tops;
                }
            }
        }
        // Natural-loop sanity: the header must dominate the back edge.
        let hb = cfg.block_of[top];
        let bb = cfg.block_of[backedge];
        if !cfg.dominates(hb, bb) {
            continue;
        }
        let body_len = backedge - (top + 1);
        let region_len = backedge - top + 1;
        let new_len = n_insns - region_len + trips as usize * body_len;
        if new_len > budget {
            continue;
        }
        return Some(Candidate {
            top,
            backedge,
            trips,
        });
    }
    None
}

fn apply(prog: &mut Vec<Insn>, c: Candidate) {
    let Candidate {
        top,
        backedge,
        trips,
    } = c;
    let body: Vec<Insn> = prog[top + 1..backedge].to_vec();
    let region_len = backedge - top + 1;
    let delta = trips as i64 * body.len() as i64 - region_len as i64;

    let mut out: Vec<Insn> = Vec::with_capacity(prog.len().wrapping_add_signed(delta as isize));
    out.extend_from_slice(&prog[..top]);
    for _ in 0..trips {
        out.extend_from_slice(&body);
    }
    out.extend_from_slice(&prog[backedge + 1..]);

    // Retarget jumps that cross the resized region. Sources before the
    // region keep their pc; sources after shift by `delta`; targets
    // after the region shift by `delta`. (No jump targets inside the
    // region — `find_candidate` guarantees it.)
    let unrolled = top..top + trips as usize * body.len();
    for (pc, insn) in out.iter_mut().enumerate() {
        if unrolled.contains(&pc) {
            continue; // body copies are jump-free
        }
        // Map the new pc back to the old pc of the same instruction.
        let old_pc = if pc < top {
            pc as i64
        } else {
            pc as i64 - delta
        };
        if let Insn::Jump { cond, off } = *insn {
            let old_target = old_pc + 1 + off as i64;
            let new_target = if old_target > backedge as i64 {
                old_target + delta
            } else {
                old_target
            };
            let new_off = new_target - (pc as i64 + 1);
            if new_off != off as i64 {
                *insn = Insn::Jump {
                    cond,
                    off: new_off as i32,
                };
            }
        }
    }
    *prog = out;
}

/// Unroll every matching constant-trip loop, innermost-first (re-scan
/// after each rewrite). Returns the number of loops unrolled.
pub(crate) fn unroll(prog: &mut Vec<Insn>, budget: usize) -> u64 {
    let mut count = 0;
    while let Some(c) = find_candidate(prog, budget) {
        apply(prog, c);
        count += 1;
        if count >= 64 {
            break; // defensive cap; real programs have a handful
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{Reg, Size, R0, R10, R6, R7};
    use crate::maps::MapRegistry;
    use crate::verifier::verify;
    use crate::vm::{NullWorld, Vm};

    fn mov_imm(dst: Reg, v: i64) -> Insn {
        Insn::Alu {
            op: AluOp::Mov,
            dst,
            src: Src::Imm(v),
        }
    }

    fn add_imm(dst: Reg, v: i64) -> Insn {
        Insn::Alu {
            op: AluOp::Add,
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

    /// sum += ctr for ctr in c0..n step s, returning the sum.
    fn counted_loop(c0: i64, n: i64, s: i64) -> Vec<Insn> {
        vec![
            mov_imm(R0, 0),
            mov_imm(R6, c0),
            Insn::Jump {
                cond: Some((Cond::Ge, R6, Src::Imm(n))),
                off: 3,
            },
            Insn::Alu {
                op: AluOp::Add,
                dst: R0,
                src: Src::Reg(R6),
            },
            add_imm(R6, s),
            Insn::Jump {
                cond: None,
                off: -4,
            },
            Insn::Exit,
        ]
    }

    #[test]
    fn unrolls_counted_loop_bit_identically() {
        let orig = counted_loop(0, 5, 1);
        let before = run_r0(&orig);
        let mut prog = orig.clone();
        let n = unroll(&mut prog, 4096);
        assert_eq!(n, 1);
        assert!(
            !prog.iter().any(|i| matches!(i, Insn::Jump { .. })),
            "loop fully flattened: {prog:?}"
        );
        assert_eq!(run_r0(&prog), before);
        assert_eq!(before, 10); // 0+1+2+3+4
                                // The unrolled form still verifies.
        let maps = MapRegistry::new();
        verify(&prog, &maps, 0).expect("unrolled program re-verifies");
    }

    #[test]
    fn non_unit_step_and_gt_exit() {
        // for (ctr = 1; !(ctr > 7); ctr += 3): trips = (7-1)/3 + 1 = 3.
        let mut prog = vec![
            mov_imm(R0, 0),
            mov_imm(R6, 1),
            Insn::Jump {
                cond: Some((Cond::Gt, R6, Src::Imm(7))),
                off: 3,
            },
            Insn::Alu {
                op: AluOp::Add,
                dst: R0,
                src: Src::Reg(R6),
            },
            add_imm(R6, 3),
            Insn::Jump {
                cond: None,
                off: -4,
            },
            Insn::Exit,
        ];
        let before = run_r0(&prog);
        assert_eq!(before, 1 + 4 + 7);
        assert_eq!(unroll(&mut prog, 4096), 1);
        assert_eq!(run_r0(&prog), before);
    }

    #[test]
    fn jumps_crossing_the_region_are_retargeted() {
        // A guard before the loop jumps over it to the exit path.
        let mut prog = vec![
            mov_imm(R0, 0),
            mov_imm(R7, 0),
            Insn::Jump {
                cond: Some((Cond::Ne, R7, Src::Imm(0))),
                off: 6,
            }, // -> 9 (mov r0, 99)
            mov_imm(R6, 0),
            Insn::Jump {
                cond: Some((Cond::Ge, R6, Src::Imm(3))),
                off: 3,
            }, // -> 8 (exit block)
            Insn::Alu {
                op: AluOp::Add,
                dst: R0,
                src: Src::Imm(10),
            },
            add_imm(R6, 1),
            Insn::Jump {
                cond: None,
                off: -4,
            }, // -> 4
            Insn::Jump { cond: None, off: 1 }, // -> 10 (exit)
            mov_imm(R0, 99),
            Insn::Exit,
        ];
        let before = run_r0(&prog);
        assert_eq!(before, 30);
        assert_eq!(unroll(&mut prog, 4096), 1);
        assert_eq!(run_r0(&prog), before);
        let maps = MapRegistry::new();
        verify(&prog, &maps, 0).expect("retargeted program verifies");
    }

    #[test]
    fn body_writing_counter_is_rejected() {
        let mut prog = vec![
            mov_imm(R0, 0),
            mov_imm(R6, 0),
            Insn::Jump {
                cond: Some((Cond::Ge, R6, Src::Imm(5))),
                off: 3,
            },
            mov_imm(R6, 1), // resets the counter: not a counted loop
            add_imm(R6, 1),
            Insn::Jump {
                cond: None,
                off: -4,
            },
            Insn::Exit,
        ];
        assert_eq!(unroll(&mut prog, 4096), 0);
    }

    #[test]
    fn call_in_body_rejects_caller_saved_counter() {
        // ctr = r0 is clobbered by the helper call: must not unroll.
        let mut prog = vec![
            mov_imm(R0, 0),
            Insn::Jump {
                cond: Some((Cond::Ge, R0, Src::Imm(3))),
                off: 3,
            },
            Insn::Call {
                helper: crate::insn::Helper::KtimeGetNs,
            },
            add_imm(R0, 1),
            Insn::Jump {
                cond: None,
                off: -4,
            },
            Insn::Exit,
        ];
        assert_eq!(unroll(&mut prog, 4096), 0);
    }

    #[test]
    fn budget_blocks_oversized_expansion() {
        let mut prog = counted_loop(0, 400, 1);
        // 400 copies of a 2-insn body would blow a tiny budget.
        assert_eq!(unroll(&mut prog, 64), 0);
        assert_eq!(unroll(&mut prog, 4096), 1);
    }

    #[test]
    fn unrolled_loop_with_stack_traffic_verifies() {
        // Store ctr to the stack each trip, then read it back after.
        let mut prog = vec![
            mov_imm(R0, 0),
            mov_imm(R6, 0),
            Insn::Jump {
                cond: Some((Cond::Ge, R6, Src::Imm(4))),
                off: 3,
            },
            Insn::Store {
                size: Size::B8,
                base: R10,
                off: -8,
                src: Src::Reg(R6),
            },
            add_imm(R6, 1),
            Insn::Jump {
                cond: None,
                off: -4,
            },
            Insn::Load {
                size: Size::B8,
                dst: R0,
                base: R10,
                off: -8,
            },
            Insn::Exit,
        ];
        let before = run_r0(&prog);
        assert_eq!(before, 3);
        assert_eq!(unroll(&mut prog, 4096), 1);
        assert_eq!(run_r0(&prog), before);
        let maps = MapRegistry::new();
        verify(&prog, &maps, 0).expect("unrolled program verifies");
    }
}
