//! Differential soundness for the range-tracking verifier.
//!
//! The generator here is deliberately nastier than `bpf_soundness.rs`:
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

use tscout_suite::rng::{RngExt, SeedableRng, StdRng};

use tscout_suite::bpf::asm::ProgramBuilder;
use tscout_suite::bpf::insn::{AluOp, Cond, Helper, Insn, Reg, Size, Src, R0, R1, R2, R3, R4, R6};
use tscout_suite::bpf::maps::MapDef;
use tscout_suite::bpf::vm::{NullWorld, Vm};
use tscout_suite::bpf::{verify, verify_with_stats, MapId, MapRegistry, VerifyError};

/// How many maps [`maps`] creates; the generators also draw the one id
/// past them.
const MAPS: u32 = 2;

fn maps() -> MapRegistry {
    let mut m = MapRegistry::new();
    m.create(MapDef::hash("h", 8, 16, 32));
    m.create(MapDef::perf_event_array("r", 16));
    assert_eq!(m.len(), MAPS as usize);
    m
}

fn arb_reg(rng: &mut StdRng) -> Reg {
    Reg(rng.random_range(0u8..=10))
}

fn arb_imm(rng: &mut StdRng) -> i64 {
    match rng.random_range(0..8) {
        0 => i64::MIN,
        1 => i64::MAX,
        2 => -1,
        3 => rng.random_range(0i64..128), // plausible shift counts / lengths
        _ => rng.random::<u64>() as i64,
    }
}

fn arb_src(rng: &mut StdRng) -> Src {
    if rng.random_bool(0.5) {
        Src::Reg(arb_reg(rng))
    } else {
        Src::Imm(arb_imm(rng))
    }
}

const ALU_OPS: [AluOp; 13] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::Mul,
    AluOp::Div,
    AluOp::Mod,
    AluOp::And,
    AluOp::Or,
    AluOp::Xor,
    AluOp::Lsh,
    AluOp::Rsh,
    AluOp::Arsh,
    AluOp::Mov,
    AluOp::Neg,
];

const SIZES: [Size; 4] = [Size::B1, Size::B2, Size::B4, Size::B8];

const CONDS: [Cond; 11] = [
    Cond::Eq,
    Cond::Ne,
    Cond::Lt,
    Cond::Le,
    Cond::Gt,
    Cond::Ge,
    Cond::SLt,
    Cond::SLe,
    Cond::SGt,
    Cond::SGe,
    Cond::Set,
];

fn arb_insn(rng: &mut StdRng) -> Insn {
    // Bias toward small `mov dst, imm` so registers get initialized and
    // a useful fraction of programs survives verification.
    if rng.random_bool(0.25) {
        return Insn::Alu {
            op: AluOp::Mov,
            dst: arb_reg(rng),
            src: Src::Imm(rng.random_range(-600i64..600)),
        };
    }
    match rng.random_range(0..7) {
        0 => Insn::Alu {
            op: ALU_OPS[rng.random_range(0..ALU_OPS.len())],
            dst: arb_reg(rng),
            src: arb_src(rng),
        },
        1 => Insn::Load {
            size: SIZES[rng.random_range(0..SIZES.len())],
            dst: arb_reg(rng),
            base: arb_reg(rng),
            off: rng.random_range(-520i32..64),
        },
        2 => Insn::Store {
            size: SIZES[rng.random_range(0..SIZES.len())],
            base: arb_reg(rng),
            off: rng.random_range(-520i32..64),
            src: arb_src(rng),
        },
        // Backward offsets are the point of this suite: random loops.
        3 => Insn::Jump {
            cond: if rng.random_bool(0.7) {
                Some((
                    CONDS[rng.random_range(0..CONDS.len())],
                    arb_reg(rng),
                    arb_src(rng),
                ))
            } else {
                None
            },
            off: rng.random_range(-8i32..8),
        },
        4 => Insn::Call {
            helper: Helper::ALL[rng.random_range(0..Helper::ALL.len())],
        },
        5 => Insn::LoadMap {
            dst: Reg(1),
            map: MapId(rng.random_range(0..=MAPS)),
        },
        _ => Insn::Exit,
    }
}

/// Accepted ⟹ runs clean, loops included. Also records the
/// accept/reject split so a generator or verifier regression that makes
/// the property vacuous (or the verifier vacuously permissive) shows up
/// as an assertion, not silence.
#[test]
fn accepted_loopy_programs_never_fault() {
    let mut rng = StdRng::seed_from_u64(0xD1FF_5EED);
    let total = 8192usize;
    let mut accepted = 0usize;
    for _ in 0..total {
        let len = rng.random_range(1usize..32);
        let mut prog: Vec<Insn> = (0..len).map(|_| arb_insn(&mut rng)).collect();
        prog.push(Insn::Exit);
        let ctx: Vec<u8> = (0..rng.random_range(0usize..64))
            .map(|_| rng.random_range(0u8..=255))
            .collect();
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
