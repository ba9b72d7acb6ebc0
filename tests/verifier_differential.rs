//! Differential soundness for the range-tracking verifier.
//!
//! The generator (`common::TWO_WAY`, shared with
//! `lowered_differential.rs`) is deliberately nastier than
//! `bpf_soundness.rs`'s: jump offsets may be *negative* and immediates
//! span the full adversarial range (`i64::MIN`, `u64::MAX` as `-1`, shift
//! counts ≥ 64, …). The contract under test is the kernel's before 5.3:
//! **every program with a back edge is rejected, at its first one, and
//! every program the verifier accepts executes without any runtime
//! fault** — no bad memory access, no uninitialized read — and was
//! verified visiting each instruction at most once.
//!
//! The suite also pins what that means for a Collector-style loop: it is
//! rejected, and its unrolled form — the shape codegen emits — verifies
//! and runs.

use tscout_suite::bpf::asm::ProgramBuilder;
use tscout_suite::bpf::insn::{
    disassemble, AluOp, Cond, Insn, Reg, Size, R0, R1, R10, R2, R3, R4, R6,
};
use tscout_suite::bpf::vm::{NullWorld, Vm};
use tscout_suite::bpf::{verify, VerifyError};

mod common;
use common::{maps, two_way_cases};

/// Back edge ⟹ rejected at the first one; accepted ⟹ runs clean. Also
/// records the accept/reject split so a generator or verifier regression
/// that makes the property vacuous (or the verifier vacuously
/// permissive) shows up as an assertion, not silence.
#[test]
fn back_edges_are_rejected_and_accepted_programs_never_fault() {
    let total = 8192usize;
    let (mut accepted, mut back_edged) = (0usize, 0usize);
    for (prog, ctx) in two_way_cases(total) {
        let mut m = maps();
        let verdict = verify(&prog, &m, 64);
        let first_back_edge = prog
            .iter()
            .position(|insn| matches!(insn, Insn::Jump { off, .. } if *off < 0));
        if let Some(pc) = first_back_edge {
            back_edged += 1;
            assert_eq!(
                verdict,
                Err(VerifyError::BackEdge { pc }),
                "{}",
                disassemble(&prog)
            );
        }
        if let Ok(stats) = verdict {
            accepted += 1;
            assert!(
                stats.insns_visited <= prog.len(),
                "{stats:?}\n{}",
                disassemble(&prog)
            );
            let mut world = NullWorld::default();
            if let Err(e) = Vm::run(&prog, &ctx, &mut m, &mut world) {
                panic!(
                    "verifier accepted a faulting program: {e}\n{}",
                    disassemble(&prog)
                );
            }
        }
    }
    let rejected = total - accepted;
    println!("accept/reject: {accepted}/{rejected} of {total}, {back_edged} with a back edge");
    assert!(
        accepted > 40,
        "only {accepted}/{total} programs verified — property is near-vacuous"
    );
    assert!(
        back_edged > 40,
        "only {back_edged}/{total} programs hold a back edge — the rejection is near-vacuous"
    );
    assert!(
        rejected > accepted,
        "verifier accepted {accepted}/{total} random programs — suspiciously permissive"
    );
}

/// A Collector-style loop (sum the 8 payload words of the ctx, store the
/// sum on the stack) is rejected at its back edge, bounded or not; the
/// same body unrolled 8×, the way codegen emits per-counter work,
/// verifies, runs each instruction once and computes the right answer.
#[test]
fn collector_loop_is_rejected_and_its_unrolled_form_sums_to_36() {
    // r3 = ctx[8·(i & 7)]; r0 += r3. The mask keeps the access in bounds
    // whatever `i` is.
    let body = |b: &mut ProgramBuilder, i: Reg| {
        b.mov_reg(R3, i);
        b.alu_imm(AluOp::And, R3, 7);
        b.alu_imm(AluOp::Lsh, R3, 3);
        b.mov_reg(R4, R6);
        b.alu_reg(AluOp::Add, R4, R3);
        b.load(Size::B8, R3, R4, 0);
        b.alu_reg(AluOp::Add, R0, R3);
        b.alu_imm(AluOp::Add, i, 1);
    };
    let m = maps();

    // for (r2 = 0; r2 < 8; r2++) r0 += ctx[r2]
    let mut b = ProgramBuilder::new();
    b.mov_reg(R6, R1);
    b.mov_imm(R0, 0);
    b.mov_imm(R2, 0);
    let top = b.label();
    let after = b.label();
    b.bind(top);
    b.jump_if_imm(Cond::Ge, R2, 8, after);
    body(&mut b, R2);
    b.jump(top);
    b.bind(after);
    b.store_reg(Size::B8, R10, -8, R0);
    b.exit();
    let looped = b.resolve().unwrap();
    let back = looped.len() - 3;
    assert_eq!(
        verify(&looped, &m, 64),
        Err(VerifyError::BackEdge { pc: back })
    );

    let mut b = ProgramBuilder::new();
    b.mov_reg(R6, R1);
    b.mov_imm(R0, 0);
    b.mov_imm(R2, 0);
    for _ in 0..8 {
        body(&mut b, R2);
    }
    b.store_reg(Size::B8, R10, -8, R0);
    b.exit();
    let unrolled = b.resolve().unwrap();
    let stats = verify(&unrolled, &m, 64).expect("the unrolled loop must verify");
    assert_eq!(stats.insns_visited, unrolled.len());

    // Eight little-endian words 1..=8 sum to 36.
    let ctx: Vec<u8> = (1u64..=8).flat_map(u64::to_le_bytes).collect();
    let mut maps_run = maps();
    let mut world = NullWorld::default();
    let (r0, exec) = Vm::run(&unrolled, &ctx, &mut maps_run, &mut world).unwrap();
    assert_eq!(r0, 36, "sum of 1..=8");
    assert_eq!(exec.insns, unrolled.len() as u64);
}
