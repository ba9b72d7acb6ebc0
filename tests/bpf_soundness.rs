//! Randomized tests for the BPF substrate: the verifier's guarantees
//! must hold at runtime.
//!
//! The central property mirrors the kernel's contract: **any program the
//! verifier accepts executes without a memory fault**, for arbitrary
//! context bytes. Conversely the verifier must never panic on garbage
//! programs. Random programs are generated over the full instruction
//! set, biased toward plausible shapes so a useful fraction verifies.
//!
//! Originally `proptest` properties; now driven by the in-workspace
//! deterministic RNG (fixed seeds, fixed case counts) so the suite
//! builds offline and failures reproduce exactly.

use tscout_suite::rng::{RngExt, SeedableRng, StdRng};

use tscout_suite::bpf::insn::{AluOp, Cond, Helper, Insn, Reg, Size, Src};
use tscout_suite::bpf::maps::MapDef;
use tscout_suite::bpf::vm::{NullWorld, Vm, VmError};
use tscout_suite::bpf::{verify, MapId, MapRegistry};

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

fn arb_src(rng: &mut StdRng) -> Src {
    if rng.random_bool(0.5) {
        Src::Reg(arb_reg(rng))
    } else {
        Src::Imm(rng.random_range(-600i64..600))
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

const CONDS: [Cond; 5] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::SGt];

fn arb_insn(rng: &mut StdRng) -> Insn {
    // Extra weight on `mov dst, imm`: it initializes registers, which is
    // what most random programs need to get past the verifier, keeping
    // the verified-programs property from going vacuous.
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
        // Forward offsets only: this suite exercises the loop-free
        // fragment; random *loops* live in `verifier_differential.rs`.
        3 => Insn::Jump {
            cond: if rng.random_bool(0.5) {
                Some((
                    CONDS[rng.random_range(0..CONDS.len())],
                    arb_reg(rng),
                    arb_src(rng),
                ))
            } else {
                None
            },
            off: rng.random_range(0i32..6),
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

fn arb_body(rng: &mut StdRng, max_len: usize) -> Vec<Insn> {
    let len = rng.random_range(1..max_len);
    (0..len).map(|_| arb_insn(rng)).collect()
}

/// The kernel contract: verified ⟹ no runtime fault, for any ctx.
#[test]
fn verified_programs_never_fault() {
    let mut rng = StdRng::seed_from_u64(0xB9F_50D);
    let mut verified = 0usize;
    for _ in 0..4096 {
        let mut prog = arb_body(&mut rng, 40);
        prog.push(Insn::Exit); // give random programs a chance to terminate
        let ctx: Vec<u8> = (0..rng.random_range(0usize..64))
            .map(|_| rng.random_range(0u8..=255))
            .collect();
        let mut m = maps();
        if verify(&prog, &m, 64).is_ok() {
            verified += 1;
            let mut world = NullWorld::default();
            match Vm::run(&prog, &ctx, &mut m, &mut world) {
                Ok(_) => {}
                Err(e) => {
                    // This generator emits forward jumps only, so fuel
                    // exhaustion is impossible here; any fault is a
                    // verifier soundness bug.
                    panic!(
                        "verifier accepted a faulting program: {e}\n{}",
                        tscout_suite::bpf::insn::disassemble(&prog)
                    );
                }
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
    let mut rng = StdRng::seed_from_u64(0x0007_07A1);
    for _ in 0..512 {
        let len = rng.random_range(0usize..60);
        let prog: Vec<Insn> = (0..len).map(|_| arb_insn(&mut rng)).collect();
        let ctx_size = rng.random_range(0usize..128);
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
        let mut m = maps();
        let mut world = NullWorld::default();
        assert!(
            Vm::run(&prog, &[], &mut m, &mut world).is_ok(),
            "a={a} b={b}"
        );
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
        let mut m = maps();
        verify(&prog, &m, 0).unwrap();
        let mut world = NullWorld::default();
        let (r0, _) = Vm::run(&prog, &[], &mut m, &mut world).unwrap();
        assert_eq!(r0, v);
    }
}

/// VmError is only used via its Display in the panic path above; keep a
/// compile-time reference so the import carries its weight.
#[allow(dead_code)]
fn _uses(e: VmError) -> String {
    e.to_string()
}
