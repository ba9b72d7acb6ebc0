//! What the BPF test suites share: the two seeded program generators
//! (`bpf_soundness.rs`'s forward-only one, `verifier_differential.rs`'s
//! adversarial one with jumps both ways) with the exact case streams
//! their properties draw, a Collector deployment, and the
//! lowered-vs-reference oracle (`lowered_differential.rs`,
//! `alloc_budget.rs`).
//!
//! Each test binary compiles its own copy and uses part of it.
#![allow(dead_code)]

use std::ops::Range;

use tscout_suite::rng::{RngExt, SeedableRng, StdRng};

use tscout_suite::bpf::insn::{disassemble, AluOp, Cond, Helper, Insn, Reg, Size, Src};
use tscout_suite::bpf::lower::{lower, Lowered};
use tscout_suite::bpf::maps::MapDef;
use tscout_suite::bpf::vm::{ExecStats, NullWorld, Vm, VmError, VmScratch};
use tscout_suite::bpf::{Loader, MapId, MapRegistry, ProgId};
use tscout_suite::tscout::codegen::{gen_begin, gen_end, gen_features, ProbeLayout, CTX_BYTES};

// ---------------------------------------------------------------------
// Seeded random programs
// ---------------------------------------------------------------------

/// How many maps [`maps`] creates; the generators also draw the one id
/// past them.
pub(crate) const MAPS: u32 = 2;

pub(crate) fn maps() -> MapRegistry {
    let mut m = MapRegistry::new();
    m.create(MapDef::hash("h", 8, 16, 32));
    m.create(MapDef::perf_event_array("r", 16));
    assert_eq!(m.len(), MAPS as usize);
    m
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

/// A random-instruction distribution over the full instruction set,
/// biased toward plausible shapes so a useful fraction verifies.
#[derive(Debug)]
pub(crate) struct Gen {
    conds: &'static [Cond],
    imm: fn(&mut StdRng) -> i64,
    /// Probability that a jump is conditional.
    conditional: f64,
    jump_off: Range<i32>,
}

/// `bpf_soundness.rs`: small immediates and forward jumps only — the
/// fragment the verifier can accept.
pub(crate) const FORWARD: Gen = Gen {
    conds: &[Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::SGt],
    imm: |rng| rng.random_range(-600i64..600),
    conditional: 0.5,
    jump_off: 0..6,
};

/// `verifier_differential.rs`: adversarial immediates (`i64::MIN`,
/// `u64::MAX` as `-1`, shift counts ≥ 64, …) and jump offsets both ways,
/// so many programs hold a back edge the verifier must reject.
pub(crate) const TWO_WAY: Gen = Gen {
    conds: &[
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
    ],
    imm: |rng| match rng.random_range(0..8) {
        0 => i64::MIN,
        1 => i64::MAX,
        2 => -1,
        3 => rng.random_range(0i64..128), // plausible shift counts / lengths
        _ => rng.random::<u64>() as i64,
    },
    conditional: 0.7,
    jump_off: -8..8,
};

fn arb_reg(rng: &mut StdRng) -> Reg {
    Reg(rng.random_range(0u8..=10))
}

impl Gen {
    fn src(&self, rng: &mut StdRng) -> Src {
        if rng.random_bool(0.5) {
            Src::Reg(arb_reg(rng))
        } else {
            Src::Imm((self.imm)(rng))
        }
    }

    pub(crate) fn insn(&self, rng: &mut StdRng) -> Insn {
        // Extra weight on small `mov dst, imm`: it initializes registers,
        // which is what most random programs need to get past the
        // verifier, keeping the accepted-programs properties from going
        // vacuous.
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
                src: self.src(rng),
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
                src: self.src(rng),
            },
            3 => Insn::Jump {
                cond: if rng.random_bool(self.conditional) {
                    Some((
                        self.conds[rng.random_range(0..self.conds.len())],
                        arb_reg(rng),
                        self.src(rng),
                    ))
                } else {
                    None
                },
                off: rng.random_range(self.jump_off.clone()),
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

    /// The `(program, context)` cases of this generator's
    /// accepted-programs property: 1 to `max_len - 1` random
    /// instructions and a closing `exit`, against 0 to 63 random context
    /// bytes. The stream depends on `seed` alone, so a longer run
    /// extends a shorter one.
    pub(crate) fn cases(
        &'static self,
        seed: u64,
        max_len: usize,
        n: usize,
    ) -> impl Iterator<Item = (Vec<Insn>, Vec<u8>)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(move |_| {
            let len = rng.random_range(1..max_len);
            let mut prog: Vec<Insn> = (0..len).map(|_| self.insn(&mut rng)).collect();
            prog.push(Insn::Exit); // give random programs a chance to terminate
            let ctx = (0..rng.random_range(0usize..64))
                .map(|_| rng.random_range(0u8..=255))
                .collect();
            (prog, ctx)
        })
    }
}

/// `verified_programs_never_fault`'s cases (tier-1 draws 4 096).
pub(crate) fn forward_cases(n: usize) -> impl Iterator<Item = (Vec<Insn>, Vec<u8>)> {
    FORWARD.cases(0xB9F_50D, 40, n)
}

/// `back_edges_are_rejected_and_accepted_programs_never_fault`'s cases
/// (tier-1 draws 8 192).
pub(crate) fn two_way_cases(n: usize) -> impl Iterator<Item = (Vec<Insn>, Vec<u8>)> {
    TWO_WAY.cases(0xD1FF_5EED, 32, n)
}

/// `verifier_is_total`'s cases (tier-1 draws 512): up to 59 instructions
/// with no closing `exit`, and a declared context size.
pub(crate) fn unterminated_cases(n: usize) -> impl Iterator<Item = (Vec<Insn>, usize)> {
    let mut rng = StdRng::seed_from_u64(0x0007_07A1);
    (0..n).map(move |_| {
        let len = rng.random_range(0usize..60);
        let prog = (0..len).map(|_| FORWARD.insn(&mut rng)).collect();
        (prog, rng.random_range(0usize..128))
    })
}

// ---------------------------------------------------------------------
// The Collector's programs
// ---------------------------------------------------------------------

pub(crate) const PROGRAMS: [&str; 3] = ["begin", "end", "features"];

pub(crate) fn layouts() -> [(&'static str, ProbeLayout); 8] {
    let l = |cpu, disk, net| ProbeLayout { cpu, disk, net };
    [
        ("none", l(false, false, false)),
        ("cpu", l(true, false, false)),
        ("disk", l(false, true, false)),
        ("net", l(false, false, true)),
        ("cpu+disk", l(true, true, false)),
        ("cpu+net", l(true, false, true)),
        ("disk+net", l(false, true, true)),
        ("all", l(true, true, true)),
    ]
}

/// Deploy one layout the way `TScout::deploy` does — maps first, then
/// the three programs generated against their ids — returning what
/// codegen produced beside what the loader holds.
pub(crate) fn deploy(p: &ProbeLayout) -> (Loader, [Vec<Insn>; 3], [ProgId; 3]) {
    let mut loader = Loader::new();
    let depth = loader.maps.create(MapDef::hash("depth", 8, 8, 256));
    let begin = loader
        .maps
        .create(MapDef::hash("begin", 8, p.snap_words() * 8, 1024));
    let done = loader
        .maps
        .create(MapDef::hash("done", 8, p.done_words() * 8, 256));
    let ring = loader.maps.create(MapDef::perf_event_array("ring", 64));
    let generated = [
        gen_begin(p, depth, begin),
        gen_end(p, depth, begin, done),
        gen_features(p, done, ring),
    ];
    let ids = [0, 1, 2].map(|i| {
        loader
            .load(PROGRAMS[i], generated[i].clone(), CTX_BYTES)
            .unwrap_or_else(|e| panic!("{} for {p:?} rejected: {e}", PROGRAMS[i]))
    });
    (loader, generated, ids)
}

/// Change one field of one instruction of a valid stream — a register,
/// an offset or immediate, an access size, a jump offset, a helper or a
/// map id, each kind equally often — and say what changed. The result is
/// what a buggy or hostile code generator would submit: mostly rejected
/// by the verifier, and both engines must still run it to an `Ok` or an
/// `Err`.
pub(crate) fn mutate(prog: &mut [Insn], rng: &mut StdRng) -> String {
    let arb_reg = |rng: &mut StdRng| {
        // Mostly architectural; sometimes a number only the register
        // file's mask makes sense of (`r26` is `r10`).
        if rng.random_bool(0.8) {
            Reg(rng.random_range(0u8..=10))
        } else {
            Reg(rng.random_range(11u8..32))
        }
    };
    let arb_off = |rng: &mut StdRng, old: i64| match rng.random_range(0..6) {
        0 => old + 8,
        1 => old - 8,
        2 => old + 1,
        3 => rng.random_range(-600i64..600),
        4 => i32::MIN as i64,
        _ => i32::MAX as i64,
    };
    let len = prog.len() as i64;
    let kind = rng.random_range(0..6);
    // Rejection-sample a site that has a field of that kind (every
    // Collector stream has all six).
    loop {
        let pc = rng.random_range(0..prog.len());
        let old = prog[pc];
        let first = rng.random_bool(0.5);
        match (kind, &mut prog[pc]) {
            (0, Insn::Alu { dst, src, .. }) => match src {
                Src::Reg(src) if first => *src = arb_reg(rng),
                _ => *dst = arb_reg(rng),
            },
            (0, Insn::Load { dst, base, .. }) => *(if first { dst } else { base }) = arb_reg(rng),
            (0, Insn::Store { base, src, .. }) => match src {
                Src::Reg(src) if first => *src = arb_reg(rng),
                _ => *base = arb_reg(rng),
            },
            (0, Insn::Jump { cond: Some(c), .. }) => c.1 = arb_reg(rng),
            (0, Insn::LoadMap { dst, .. }) => *dst = arb_reg(rng),
            (1, Insn::Alu { src, .. }) => match src {
                Src::Imm(imm) => *imm = arb_off(rng, *imm),
                Src::Reg(_) => continue,
            },
            (1, Insn::Load { off, .. } | Insn::Store { off, .. }) => {
                *off = arb_off(rng, *off as i64) as i32;
            }
            (2, Insn::Load { size, .. } | Insn::Store { size, .. }) => {
                *size = SIZES[rng.random_range(0..3)];
            }
            (3, Insn::Jump { off, .. }) => {
                *off = match rng.random_range(0..8) {
                    0 => -(pc as i64 + 1),    // to the first instruction
                    1 => -(pc as i64 + 2),    // before it
                    2 => len - pc as i64 - 1, // to the end
                    3 => len - pc as i64,     // past it
                    4 => rng.random_range(-len..len),
                    5 => *off as i64 + 1,
                    6 => i32::MIN as i64,
                    _ => i32::MAX as i64,
                } as i32;
            }
            (4, Insn::Call { helper }) => {
                *helper = Helper::ALL[rng.random_range(0..Helper::ALL.len())];
            }
            // The deployment's four maps, two ids past them, and the
            // largest there is.
            (5, Insn::LoadMap { map, .. }) => {
                *map = MapId(match rng.random_range(0..7) {
                    6 => u32::MAX,
                    id => id,
                });
            }
            _ => continue,
        }
        if prog[pc] != old {
            return format!("pc {pc}: `{old}` -> `{}`", prog[pc]);
        }
    }
}

// ---------------------------------------------------------------------
// The oracle: the lowered engine against the reference interpreter
// ---------------------------------------------------------------------

pub(crate) type RunResult = Result<(u64, ExecStats), VmError>;

/// The helper world both engines run against: a fixed clock.
fn world() -> NullWorld {
    NullWorld { time_ns: 100 }
}

/// Two registries holding the same maps, one per engine, kept in lock
/// step: whatever runs on one runs on the other, and after every run
/// they must be indistinguishable.
#[derive(Debug)]
pub(crate) struct Twin {
    pub(crate) lowered: MapRegistry,
    pub(crate) reference: MapRegistry,
    scratch: VmScratch,
}

impl Twin {
    pub(crate) fn new(mut create: impl FnMut() -> MapRegistry) -> Self {
        Twin {
            lowered: create(),
            reference: create(),
            scratch: VmScratch::default(),
        }
    }

    /// The reference interpreter, against its registry.
    pub(crate) fn run_reference(&mut self, prog: &[Insn], ctx: &[u8]) -> RunResult {
        Vm::run(prog, ctx, &mut self.reference, &mut world())
    }

    /// The lowered engine, against its registry and the kept scratch.
    pub(crate) fn run_lowered(&mut self, lowered: &Lowered, ctx: &[u8]) -> RunResult {
        lowered.run(ctx, &mut self.lowered, &mut world(), &mut self.scratch)
    }

    /// Run `prog` through both engines and hold the lowered one to the
    /// reference: the same `Result` — `r0`, `ExecStats`, fault kind,
    /// `pc` and address — and the same maps afterwards. A run that ends
    /// in `Ok` executed no instruction twice.
    pub(crate) fn run(
        &mut self,
        what: &str,
        prog: &[Insn],
        lowered: &Lowered,
        ctx: &[u8],
    ) -> RunResult {
        let expected = self.run_reference(prog, ctx);
        let got = self.run_lowered(lowered, ctx);
        assert_eq!(
            got,
            expected,
            "{what}: results differ\n{}",
            disassemble(prog)
        );
        assert_same_maps(what, prog, &self.lowered, &self.reference);
        if let Ok((_, stats)) = &got {
            assert!(
                stats.insns <= prog.len() as u64,
                "{what}: {} instructions executed, {} in the program\n{}",
                stats.insns,
                prog.len(),
                disassemble(prog)
            );
        }
        got
    }

    /// Empty every map of both registries (storage and counters stay).
    pub(crate) fn clear(&mut self) {
        for id in (0..self.reference.len() as u32).map(MapId) {
            self.lowered.clear(id);
            self.reference.clear(id);
        }
    }
}

/// The same dump of every map (ring records included), the same ring
/// statistics and the same operation counters.
pub(crate) fn assert_same_maps(
    what: &str,
    prog: &[Insn],
    lowered: &MapRegistry,
    reference: &MapRegistry,
) {
    assert_eq!(lowered.len(), reference.len());
    for id in (0..reference.len() as u32).map(MapId) {
        assert_eq!(
            lowered.dump(id),
            reference.dump(id),
            "{what}: map {id:?} differs\n{}",
            disassemble(prog)
        );
        assert_eq!(
            lowered.ring_stats(id),
            reference.ring_stats(id),
            "{what}: ring statistics of {id:?} differ\n{}",
            disassemble(prog)
        );
    }
    assert_eq!(
        lowered.op_stats(),
        reference.op_stats(),
        "{what}: map operation counts differ\n{}",
        disassemble(prog)
    );
}

/// [`Twin::run`] on fresh [`maps`], lowering `prog` on the way.
pub(crate) fn engines_agree(what: &str, prog: &[Insn], ctx: &[u8]) -> RunResult {
    Twin::new(maps).run(what, prog, &lower(prog), ctx)
}
