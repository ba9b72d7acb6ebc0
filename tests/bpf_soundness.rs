//! Randomized tests for the BPF substrate: the verifier's guarantees
//! must hold at runtime.
//!
//! The central property mirrors the kernel's contract: **any program the
//! verifier accepts executes without a memory fault**, for arbitrary
//! context bytes. Conversely the verifier must never panic on garbage
//! programs. Random programs are generated over the full instruction
//! set, jumps forward only, biased toward plausible shapes so a useful
//! fraction verifies.
//!
//! Originally `proptest` properties; now driven by the in-workspace
//! deterministic RNG (fixed seeds, fixed case counts) so the suite
//! builds offline and failures reproduce exactly. The generator lives
//! in `tests/common`, where `lowered_differential.rs` draws the same
//! programs for the lowered engine.

use tscout_suite::rng::{RngExt, SeedableRng, StdRng};

use tscout_suite::bpf::insn::{AluOp, Size};
use tscout_suite::bpf::lower::lower;
use tscout_suite::bpf::verify;
use tscout_suite::bpf::vm::{NullWorld, Vm};

mod common;
use common::{engines_agree, forward_cases, maps, unterminated_cases};

/// The kernel contract: verified ⟹ no runtime fault, for any ctx.
#[test]
fn verified_programs_never_fault() {
    let mut verified = 0usize;
    for (prog, ctx) in forward_cases(4096) {
        let mut m = maps();
        if verify(&prog, &m, 64).is_ok() {
            verified += 1;
            let mut world = NullWorld::default();
            if let Err(e) = Vm::run(&prog, &ctx, &mut m, &mut world) {
                panic!(
                    "verifier accepted a faulting program: {e}\n{}",
                    tscout_suite::bpf::insn::disassemble(&prog)
                );
            }
        }
    }
    println!("verified {verified}/4096");
    // The generator is biased toward plausible shapes; if nothing ever
    // verifies the property above is vacuous.
    assert!(
        verified > 20,
        "only {verified}/4096 programs verified — generator broken?"
    );
}

/// The verifier itself must be total: never panic, always an answer.
#[test]
fn verifier_is_total() {
    for (prog, ctx_size) in unterminated_cases(512) {
        let m = maps();
        let _ = verify(&prog, &m, ctx_size);
    }
}

/// Division and modulo never trap at runtime (eBPF semantics), even in
/// unverified programs, as long as addresses are valid.
#[test]
fn div_mod_never_trap() {
    use tscout_suite::bpf::asm::ProgramBuilder;
    use tscout_suite::bpf::insn::{R0, R6};
    let mut rng = StdRng::seed_from_u64(0x0D17);
    for case in 0..256 {
        let a = rng.random::<u64>() as i64;
        // Make sure zero divisors are well covered.
        let b = if case % 4 == 0 {
            0
        } else {
            rng.random::<u64>() as i64
        };
        let mut bld = ProgramBuilder::new();
        bld.mov_imm(R0, a);
        bld.mov_imm(R6, b);
        bld.alu_reg(AluOp::Div, R0, R6);
        bld.alu_reg(AluOp::Mod, R0, R6);
        bld.exit();
        let prog = bld.resolve().unwrap();
        assert!(engines_agree("div/mod", &prog, &[]).is_ok(), "a={a} b={b}");
    }
}

/// Stack round trip: arbitrary u64s written at arbitrary aligned offsets
/// read back exactly.
#[test]
fn stack_round_trip() {
    use tscout_suite::bpf::asm::ProgramBuilder;
    use tscout_suite::bpf::insn::{R0, R10, R6};
    let mut rng = StdRng::seed_from_u64(0x0005_7AC4);
    for _ in 0..256 {
        let v = rng.random::<u64>();
        let slot = rng.random_range(1usize..64);
        let off = -(8 * slot as i32);
        let mut bld = ProgramBuilder::new();
        bld.mov_imm(R6, v as i64);
        bld.store_reg(Size::B8, R10, off, R6);
        bld.load(Size::B8, R0, R10, off);
        bld.exit();
        let prog = bld.resolve().unwrap();
        verify(&prog, &maps(), 0).unwrap();
        let (r0, _) = engines_agree("stack round trip", &prog, &[]).unwrap();
        assert_eq!(r0, v);
    }
}

/// A verified program may look a live value up as often as its length
/// allows: every lookup's pointer gets a dereference window of its own,
/// and since a run makes fewer lookups than it executes instructions, no
/// lookup count can carry one into another region. With the map-value
/// windows below the handle window the 4 097th pointer was
/// `0x4000_0000_0000`, a map handle, and the load through it died with
/// `BadAddress` — in a program the verifier accepts.
#[test]
fn a_verified_program_may_make_thousands_of_lookups() {
    use tscout_suite::bpf::asm::ProgramBuilder;
    use tscout_suite::bpf::insn::{Cond, Helper, R0, R1, R10, R2};
    use tscout_suite::bpf::MapId;
    let hash = MapId(0);
    let key = 7u64;
    let value = [0xA5u8; 16];
    for lookups in [4_096u64, 4_097, 20_000] {
        let mut b = ProgramBuilder::new();
        b.store_imm(Size::B8, R10, -8, key as i64);
        for _ in 0..lookups {
            b.load_map(R1, hash);
            b.mov_reg(R2, R10);
            b.alu_imm(AluOp::Add, R2, -8);
            b.call(Helper::MapLookup);
            let miss = b.label();
            b.jump_if_imm(Cond::Eq, R0, 0, miss);
            // Into `r0` itself: hit or miss it is a scalar again, so the
            // two arms join to one scalar where they meet.
            b.load(Size::B8, R0, R0, 8);
            b.bind(miss);
        }
        b.exit();
        let prog = b.resolve().unwrap();
        let populated = || {
            let mut m = maps();
            m.update(hash, &key.to_le_bytes(), &value).unwrap();
            m
        };
        verify(&prog, &populated(), 0).unwrap();
        // Reference and lowered engine, held to each other on the way.
        let mut twin = common::Twin::new(populated);
        let (r0, stats) = twin
            .run("lookups", &prog, &lower(&prog), &[])
            .unwrap_or_else(|e| panic!("{lookups} lookups: {e}"));
        assert_eq!(r0, u64::from_le_bytes([0xA5; 8]));
        assert_eq!(stats.insns, 1 + 6 * lookups + 1);
        assert_eq!(stats.helper_calls, lookups);
        // One lookup by key and one dereference per block.
        assert_eq!(twin.reference.op_stats().lookups, 2 * lookups);
    }
}
