//! Differential soundness for the range-tracking verifier.
//!
//! The generator (`common::LOOPY`, shared with
//! `lowered_differential.rs`) is deliberately nastier than
//! `bpf_soundness.rs`'s:
//! jump offsets may be *negative*, so random programs contain loops,
//! and immediates span the full adversarial range (`i64::MIN`,
//! `u64::MAX` as `-1`, shift counts ≥ 64, …). The contract under test
//! is the kernel's: **every program the verifier accepts must execute
//! without any runtime fault** — no bad memory access, no uninitialized
//! read, and no fuel exhaustion either, because the per-edge trip budget
//! bounds total back-edge traversals well under the VM's fuel.
//!
//! The suite also pins the end-to-end story the loop-emitting codegen
//! relies on: a bounded-loop Collector-style program verifies and runs,
//! and the same program with its exit condition removed is rejected.

use tscout_suite::bpf::asm::ProgramBuilder;
use tscout_suite::bpf::insn::{AluOp, Cond, Size, R0, R1, R2, R3, R4, R6};
use tscout_suite::bpf::vm::{NullWorld, Vm};
use tscout_suite::bpf::{verify, verify_with_stats, VerifyError};

mod common;
use common::{loopy_cases, maps};

/// Accepted ⟹ runs clean, loops included. Also records the
/// accept/reject split so a generator or verifier regression that makes
/// the property vacuous (or the verifier vacuously permissive) shows up
/// as an assertion, not silence.
#[test]
fn accepted_loopy_programs_never_fault() {
    let total = 8192usize;
    let mut accepted = 0usize;
    for (prog, ctx) in loopy_cases(total) {
        let mut m = maps();
        if verify(&prog, &m, 64).is_ok() {
            accepted += 1;
            let mut world = NullWorld::default();
            if let Err(e) = Vm::run(&prog, &ctx, &mut m, &mut world) {
                panic!(
                    "verifier accepted a faulting program: {e}\n{}",
                    tscout_suite::bpf::insn::disassemble(&prog)
                );
            }
        }
    }
    let rejected = total - accepted;
    println!("accept/reject: {accepted}/{rejected} of {total}");
    assert!(
        accepted > 40,
        "only {accepted}/{total} programs verified — property is near-vacuous"
    );
    assert!(
        rejected > accepted,
        "verifier accepted {accepted}/{total} random programs — suspiciously permissive"
    );
}

/// A Collector-style bounded loop (sum the 8 payload words of the ctx,
/// store the sum on the stack) verifies, runs, and computes the right
/// answer; removing the loop's exit condition turns it into an
/// unbounded loop the verifier must reject.
#[test]
fn bounded_collector_loop_end_to_end_and_unbounded_variant_rejected() {
    let build = |bounded: bool| {
        let mut b = ProgramBuilder::new();
        b.mov_reg(R6, R1); // ctx base survives across the loop
        b.mov_imm(R0, 0); // sum
        b.mov_imm(R2, 0); // counter
        let top = b.label();
        let after = b.label();
        b.bind(top);
        if bounded {
            b.jump_if_imm(Cond::Ge, R2, 8, after);
        }
        b.mov_reg(R3, R2);
        b.alu_imm(AluOp::And, R3, 7); // mask keeps the access in bounds even
        b.alu_imm(AluOp::Lsh, R3, 3); // without the guard: byte offset 8·(i & 7)
        b.mov_reg(R4, R6);
        b.alu_reg(AluOp::Add, R4, R3); // ctx + 8·i
        b.load(Size::B8, R3, R4, 0);
        b.alu_reg(AluOp::Add, R0, R3);
        b.alu_imm(AluOp::Add, R2, 1);
        b.jump(top);
        b.bind(after);
        b.store_reg(Size::B8, tscout_suite::bpf::insn::R10, -8, R0);
        b.exit();
        b.resolve().unwrap()
    };

    let m = maps();
    let prog = build(true);
    let stats = verify_with_stats(&prog, &m, 64).expect("bounded loop must verify");
    assert!(
        stats.insns_visited > stats.insns,
        "loop exploration must revisit the body"
    );

    // Eight little-endian words 1..=8 sum to 36.
    let ctx: Vec<u8> = (1u64..=8).flat_map(u64::to_le_bytes).collect();
    let mut maps_run = maps();
    let mut world = NullWorld::default();
    let (r0, exec) = Vm::run(&prog, &ctx, &mut maps_run, &mut world).unwrap();
    assert_eq!(r0, 36, "sum of 1..=8");
    assert!(
        exec.insns > prog.len() as u64,
        "the loop must actually loop"
    );

    let unbounded = build(false);
    match verify(&unbounded, &m, 64) {
        Err(VerifyError::BackEdge { .. }) | Err(VerifyError::TooComplex) => {}
        other => panic!("unbounded loop must be rejected, got {other:?}"),
    }
}
