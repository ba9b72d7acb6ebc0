//! The lowered engine against the reference interpreter, kept as corpus.
//!
//! `Loader::run` executes what `lower` made of the verified stream;
//! `Vm::run` interprets the stream itself and is the specification. For
//! every program and context the two must return the same
//! `Result<(r0, ExecStats), VmError>` — fault kind, `pc` and address
//! included — and leave the same ring records, the same dump of every
//! map and the same `MapOpStats` (`common::Twin`). Three corpora:
//!
//! * all 24 Collector programs through `Loader`, in every state the
//!   marker state machine can put them in;
//! * every program the two seeded generators of `bpf_soundness.rs` and
//!   `verifier_differential.rs` draw, accepted by the verifier **or
//!   not** — `lower` is total, so the unverified ones are where wild and
//!   backward jumps, clobbered frame pointers and mid-program faults
//!   come from;
//! * named programs, one per way a lowering can go wrong: a jump landing
//!   inside a fusable pair or a copy run, control leaving the program or
//!   going back, a written `r10`, a fault in a fused op's last
//!   instruction, and a copy run whose one-shot copy must be refused (a
//!   source that ends mid-run or went stale, a destination off the
//!   stack, an overlap) without counting a lookup twice.
//!
//! No run executes an instruction twice, so the sweep draws 16× the
//! generators' own case counts in a few seconds.

use std::collections::BTreeMap;

use tscout_suite::bpf::asm::ProgramBuilder;
use tscout_suite::bpf::insn::{
    AluOp, Cond, Helper, Insn, Reg, Size, Src, R0, R1, R10, R2, R3, R4, R6, R7, R9,
};
use tscout_suite::bpf::lower::lower;
use tscout_suite::bpf::vm::{NullWorld, Vm, VmError};
use tscout_suite::bpf::{verify, Loader, MapId, ProgId};
use tscout_suite::tscout::codegen::{encode_ctx, CTX_BYTES};

mod common;
use common::{
    assert_same_maps, deploy, engines_agree, forward_cases, layouts, maps, two_way_cases,
    unterminated_cases, RunResult, Twin, PROGRAMS,
};

// ---------------------------------------------------------------------
// (a) The Collector's programs, through the loader
// ---------------------------------------------------------------------

const BEGIN: usize = 0;
const END: usize = 1;
const FEATURES: usize = 2;

/// One deployment per engine: `lowered` runs its programs through
/// `Loader::run`; `reference` lends its maps to `Vm::run` over the
/// generated streams.
struct Deployed {
    layout: &'static str,
    lowered: Loader,
    reference: Loader,
    generated: [Vec<Insn>; 3],
    ids: [ProgId; 3],
    time_ns: u64,
}

impl Deployed {
    fn run(&mut self, state: &str, prog: usize, ctx: &[u8]) -> (u64, u64) {
        let what = format!("{} {} ({state})", self.layout, PROGRAMS[prog]);
        self.time_ns += 250;
        let mut world = NullWorld {
            time_ns: self.time_ns,
        };
        let got = self.lowered.run(self.ids[prog], ctx, &mut world);
        // What `Loader::run` hands its engine: the context truncated or
        // zero-padded to the declared size.
        let mut declared = ctx.to_vec();
        declared.resize(CTX_BYTES, 0);
        let insns = &self.generated[prog];
        let expected = Vm::run(insns, &declared, &mut self.reference.maps, &mut world);
        assert_eq!(got, expected, "{what}: results differ");
        assert_same_maps(&what, insns, &self.lowered.maps, &self.reference.maps);
        let (r0, stats) = got.unwrap_or_else(|e| panic!("{what}: a verified program faulted: {e}"));
        (r0, stats.insns)
    }

    /// One BEGIN / END / FEATURES triple that must succeed.
    fn triple(&mut self, state: &str, ctx: &[u8]) -> [u64; 3] {
        [BEGIN, END, FEATURES].map(|prog| {
            let (r0, insns) = self.run(state, prog, ctx);
            assert_eq!(r0, 0, "{} {} ({state})", self.layout, PROGRAMS[prog]);
            insns
        })
    }
}

#[test]
fn collector_programs_agree_in_every_marker_state() {
    for (layout, p) in layouts() {
        let (lowered, generated, ids) = deploy(&p);
        let mut d = Deployed {
            layout,
            lowered,
            reference: deploy(&p).0,
            generated,
            ids,
            time_ns: 100,
        };
        let ctx = encode_ctx(5, 42, 1, 0, &[77, 88, 99]);

        // The thread's first BEGIN finds no depth entry and skips one load.
        let first = d.triple("first on the thread", &ctx);
        let steady = d.triple("steady", &ctx);
        assert_eq!([first[0] + 1, first[1], first[2]], steady, "{layout}");
        if layout == "all" {
            assert_eq!(steady, [67, 262, 307]);
        }

        // Nested to depth 2 (paper §5.2): the inner pair completes first.
        for prog in [BEGIN, BEGIN, END, FEATURES, END, FEATURES] {
            assert_eq!(d.run("nested", prog, &ctx).0, 0, "{layout}");
        }

        // The strict state machine: END without BEGIN and FEATURES
        // without END return 1, on a fresh thread and on a used one.
        for tid in [43, 42] {
            let ctx = encode_ctx(5, tid, 1, 0, &[]);
            for prog in [END, FEATURES] {
                assert_eq!(d.run("out of order", prog, &ctx).0, 1, "{layout}");
            }
        }

        // A context shorter and one longer than the declared size.
        let short = &encode_ctx(5, 44, 1, 0, &[])[..16];
        assert_eq!(d.triple("16-byte context", short), first, "{layout}");
        let mut long = encode_ctx(5, 45, 1, 0, &[1, 2, 3]);
        long.extend([0xFF; 64]);
        assert_eq!(d.triple("oversized context", &long), first, "{layout}");

        // Six samples reached the ring, byte for byte the same.
        let records = d.lowered.maps.ring_drain(MapId(3), usize::MAX);
        assert_eq!(records.len(), 6, "{layout}");
        assert_eq!(records, d.reference.maps.ring_drain(MapId(3), usize::MAX));
    }
}

/// Every helper argument of the Collector's programs lies in the stack
/// and is read there. A staging buffer that grew means a key, value or
/// record went through a copy again.
#[test]
fn collector_helper_arguments_are_never_staged() {
    let (all, probes) = layouts()[7];
    assert_eq!(all, "all");
    let (mut loader, _, ids) = deploy(&probes);
    let mut world = NullWorld::default();
    for i in 0..1_000u64 {
        let ctx = encode_ctx(5, 40 + i % 4, 1, 0, &[i, 88, 99]);
        for id in ids {
            world.time_ns += 250;
            assert_eq!(loader.run(id, &ctx, &mut world).unwrap().0, 0);
        }
    }
    assert_eq!(loader.maps.ring_stats(MapId(3)).produced, 1_000);
    assert_eq!(loader.staged_capacity(), 0);
}

// ---------------------------------------------------------------------
// (b) Every program the seeded generators draw, accepted or not
// ---------------------------------------------------------------------

/// The ways a run can end; a sweep must reach each of them, so that a
/// generator or lowering change that empties a class shows up as an
/// assertion.
const ENDINGS: [&str; 6] = [
    "Ok",
    "BadAddress",
    "ReadOnly",
    "BadHelperArgs",
    "PcOutOfBounds",
    "BackEdge",
];

/// Run every generated case through both engines; how many ended in
/// each of [`ENDINGS`], were `accepted` by the verifier, and were
/// `fused` (shortened by `lower` — random instructions rarely line a
/// pair up: (a), (c) and the mutants of the Collector's streams in
/// `alloc_budget.rs` are where fused ops are exercised).
fn sweep() -> BTreeMap<&'static str, usize> {
    const SCALE: usize = 16;
    let mut seen = BTreeMap::new();
    let mut case = |prog: &[Insn], ctx: &[u8], ctx_size: usize| {
        let lowered = lower(prog);
        let ending = match Twin::new(maps).run("generated", prog, &lowered, ctx) {
            Ok(_) => "Ok",
            Err(VmError::BadAddress { .. }) => "BadAddress",
            Err(VmError::ReadOnly { .. }) => "ReadOnly",
            Err(VmError::BadHelperArgs { .. }) => "BadHelperArgs",
            Err(VmError::PcOutOfBounds { .. }) => "PcOutOfBounds",
            Err(VmError::BackEdge { .. }) => "BackEdge",
            Err(e @ (VmError::StaleMapValue { .. } | VmError::BadMapHandle { .. })) => {
                panic!("no generated program deletes a key it holds a pointer to: {e}")
            }
            Err(e @ VmError::NoSuchProgram { .. }) => panic!("only the loader says {e}"),
        };
        let accepted = verify(prog, &maps(), ctx_size).is_ok();
        let fused = lowered.op_count() < prog.len();
        for (class, hit) in [(ending, true), ("accepted", accepted), ("fused", fused)] {
            *seen.entry(class).or_insert(0) += hit as usize;
        }
    };
    for (prog, ctx) in forward_cases(4096 * SCALE) {
        case(&prog, &ctx, 64);
    }
    for (prog, ctx) in two_way_cases(8192 * SCALE) {
        case(&prog, &ctx, 64);
    }
    // No closing `exit`: these fall off the end.
    for (prog, ctx_size) in unterminated_cases(512 * SCALE) {
        case(&prog, &vec![0xC3; ctx_size], ctx_size);
    }
    println!("{seen:?}");
    let cases: usize = ENDINGS.iter().map(|class| seen[class]).sum();
    assert_eq!(cases, SCALE * (4096 + 8192 + 512));
    seen
}

#[test]
fn generated_programs_agree_accepted_or_not() {
    let seen = sweep();
    for class in ENDINGS.iter().chain(&["accepted"]) {
        assert!(
            seen[class] >= 8,
            "few generated programs are {class}: {seen:?}"
        );
    }
}

// ---------------------------------------------------------------------
// (c) Named programs: one per way a lowering can go wrong
// ---------------------------------------------------------------------

fn alu(op: AluOp, dst: Reg, src: Src) -> Insn {
    Insn::Alu { op, dst, src }
}

fn mov(dst: Reg, src: Reg) -> Insn {
    alu(AluOp::Mov, dst, Src::Reg(src))
}

fn mov_imm(dst: Reg, imm: i64) -> Insn {
    alu(AluOp::Mov, dst, Src::Imm(imm))
}

fn add_imm(dst: Reg, imm: i64) -> Insn {
    alu(AluOp::Add, dst, Src::Imm(imm))
}

fn ldx8(dst: Reg, base: Reg, off: i32) -> Insn {
    Insn::Load {
        size: Size::B8,
        dst,
        base,
        off,
    }
}

fn stx8(base: Reg, off: i32, src: Reg) -> Insn {
    Insn::Store {
        size: Size::B8,
        base,
        off,
        src: Src::Reg(src),
    }
}

fn ja(off: i32) -> Insn {
    Insn::Jump { cond: None, off }
}

/// A jump may land on the `add` of a `mov; add` pair, or on the access
/// behind it: then the pair (or the triple) must not fuse, or the target
/// would have no op of its own.
#[test]
fn a_jump_into_a_fusable_shape_keeps_it_apart() {
    // Lands on the `add`: r2 = 0 - 8, never r10 - 8.
    let onto_add = vec![
        mov_imm(R2, 0),
        ja(1),
        mov(R2, R10),
        add_imm(R2, -8),
        mov(R0, R2),
        Insn::Exit,
    ];
    assert_eq!(lower(&onto_add).op_count(), onto_add.len());
    let (r0, stats) = engines_agree("onto the add", &onto_add, &[]).unwrap();
    assert_eq!((r0 as i64, stats.insns), (-8, 5));

    // Lands on the load behind a pair: the pair fuses, the load stays.
    let onto_load = vec![
        mov(R2, R1),
        Insn::Jump {
            cond: Some((Cond::Eq, R2, Src::Reg(R1))),
            off: 2,
        },
        mov(R2, R10),
        add_imm(R2, -8),
        ldx8(R0, R2, 0),
        Insn::Exit,
    ];
    assert_eq!(lower(&onto_load).op_count(), onto_load.len() - 1);
    let ctx = 0xC0FFEEu64.to_le_bytes();
    let (r0, stats) = engines_agree("onto the load", &onto_load, &ctx).unwrap();
    assert_eq!((r0, stats.insns), (0xC0FFEE, 4));

    // The same shapes with nothing landing inside fuse whole.
    let apart = vec![mov(R2, R1), add_imm(R2, 0), ldx8(R0, R2, 0), Insn::Exit];
    assert_eq!(lower(&apart).op_count(), 2);
    let (r0, stats) = engines_agree("fused load", &apart, &ctx).unwrap();
    assert_eq!((r0, stats.insns), (0xC0FFEE, 4));
}

/// Control leaving the program — off the end, to the end, past it — is
/// the reference's `PcOutOfBounds`; going back, even to before the
/// program, is its `BackEdge` at the jump.
#[test]
fn wild_control_flow_traps_where_the_reference_does() {
    let out = |pc| Err(VmError::PcOutOfBounds { pc });
    let back = |pc| Err(VmError::BackEdge { pc });
    assert_eq!(engines_agree("empty", &[], &[]), out(0));
    let falls_off = [mov_imm(R0, 1), mov_imm(R0, 2)];
    assert_eq!(engines_agree("falls off", &falls_off, &[]), out(2));
    assert_eq!(
        engines_agree("to the end", &[ja(1), Insn::Exit], &[]),
        out(2)
    );
    assert_eq!(engines_agree("past", &[ja(40), Insn::Exit], &[]), out(41));
    let before = [mov_imm(R0, 0), ja(-5), Insn::Exit];
    assert_eq!(engines_agree("before", &before, &[]), back(1));
    let far = [ja(i32::MIN), ja(i32::MAX)];
    assert_eq!(engines_agree("far before", &far, &[]), back(0));
    let onto_itself = [mov_imm(R0, 0), ja(-1), Insn::Exit];
    assert_eq!(engines_agree("onto itself", &onto_itself, &[]), back(1));
    // Not taken, a wild or backward jump is harmless.
    let not_taken = [
        mov_imm(R0, 3),
        Insn::Jump {
            cond: Some((Cond::Eq, R0, Src::Imm(4))),
            off: -100,
        },
        Insn::Exit,
    ];
    assert_eq!(engines_agree("not taken", &not_taken, &[]).unwrap().0, 3);
}

/// Only a stream that never names `r10` as a destination gets its
/// `[r10+off]` accesses turned into stack indexes — and register numbers
/// are masked to the sixteen-slot file, so `r26` *is* `r10`.
#[test]
fn a_written_frame_pointer_is_honoured() {
    let ctx = 0xFEEDu64.to_le_bytes();
    for alias in [R10, Reg(26)] {
        let prog = [
            mov_imm(R6, 0x5EED),
            stx8(R10, -8, R6),
            mov(alias, R1),
            add_imm(alias, 8),
            // `r10` is the end of the context now: this reads its word.
            ldx8(R0, R10, -8),
            Insn::Exit,
        ];
        let (r0, _) = engines_agree("r10 written", &prog, &ctx).unwrap();
        assert_eq!(r0, 0xFEED, "through {alias}");
    }
    // Untouched, the same accesses hit the stack; out of range they
    // fault like any other access.
    let prog = [
        mov_imm(R6, 0x5EED),
        stx8(R10, -8, R6),
        ldx8(R0, R10, -8),
        Insn::Exit,
    ];
    assert_eq!(engines_agree("stack", &prog, &ctx).unwrap().0, 0x5EED);
    for off in [-4, 0, 8, -513, -520, i32::MIN, i32::MAX] {
        let prog = [ldx8(R0, R10, off), Insn::Exit];
        let got = engines_agree("stack edge", &prog, &ctx);
        assert!(
            matches!(got, Err(VmError::BadAddress { pc: 0, .. })),
            "{off}: {got:?}"
        );
    }
}

/// A fused op faults in its last instruction, and says so: the `pc` is
/// the load's or store's, not the `mov`'s.
#[test]
fn faults_inside_fused_ops_carry_the_source_pc() {
    let wild = [
        mov_imm(R0, 0),
        mov(R2, R1),
        add_imm(R2, 4096),
        ldx8(R0, R2, 0),
        Insn::Exit,
    ];
    let got = engines_agree("wild load", &wild, &[0; 8]);
    assert!(
        matches!(got, Err(VmError::BadAddress { pc: 3, .. })),
        "{got:?}"
    );

    let read_only = [
        mov_imm(R0, 0),
        mov(R2, R1),
        add_imm(R2, 0),
        stx8(R2, 0, R0),
        Insn::Exit,
    ];
    let got = engines_agree("store to ctx", &read_only, &[0; 8]);
    assert!(
        matches!(got, Err(VmError::ReadOnly { pc: 3, .. })),
        "{got:?}"
    );

    // A pointer whose key was deleted, dereferenced through a fused op.
    let hash = MapId(0);
    let mut b = ProgramBuilder::new();
    b.store_imm(Size::B8, R10, -8, 7);
    b.load_map(R1, hash);
    b.mov_reg(R2, R10);
    b.alu_imm(AluOp::Add, R2, -8);
    b.call(Helper::MapLookup);
    b.mov_reg(R6, R0);
    b.load_map(R1, hash);
    b.mov_reg(R2, R10);
    b.alu_imm(AluOp::Add, R2, -8);
    b.call(Helper::MapDelete);
    b.mov_reg(R3, R6);
    b.alu_imm(AluOp::Add, R3, 8);
    b.load(Size::B8, R0, R3, 0);
    b.exit();
    let prog = b.resolve().unwrap();
    let mut twin = Twin::new(|| {
        let mut m = maps();
        m.update(hash, &7u64.to_le_bytes(), &[9; 16]).unwrap();
        m
    });
    let got: RunResult = twin.run("stale", &prog, &lower(&prog), &[]);
    assert_eq!(got, Err(VmError::StaleMapValue { pc: 12 }));
}

/// What this suite and the mutation fuzz in `alloc_budget.rs` found on
/// their first runs, in the helper layer both engines share: publishing
/// to a map id that does not exist indexed past the registry and
/// panicked, and the test world multiplied a hostile counter index with
/// overflow checks on. Both are faults or values now, never panics.
#[test]
fn hostile_helper_arguments_fault_instead_of_panicking() {
    for map in [MapId(2), MapId(u32::MAX)] {
        let mut b = ProgramBuilder::new();
        b.store_imm(Size::B8, R10, -8, 7);
        b.load_map(R1, map);
        b.mov_reg(R2, R10);
        b.alu_imm(AluOp::Add, R2, -8);
        b.mov_imm(R3, 8);
        b.call(Helper::PerfEventOutput);
        b.exit();
        let prog = b.resolve().unwrap();
        assert!(verify(&prog, &maps(), 0).is_err(), "no such map");
        assert_eq!(
            engines_agree("output to no map", &prog, &[]),
            Err(VmError::BadHelperArgs {
                pc: 5,
                helper: Helper::PerfEventOutput
            })
        );
    }

    let mut b = ProgramBuilder::new();
    b.mov_imm(R1, -1);
    b.mov_reg(R2, R10);
    b.alu_imm(AluOp::Add, R2, -24);
    b.call(Helper::PerfEventReadBuf);
    b.load(Size::B8, R0, R10, -24);
    b.exit();
    let prog = b.resolve().unwrap();
    let (r0, _) = engines_agree("counter u64::MAX", &prog, &[]).unwrap();
    assert_eq!(r0, u64::MAX.wrapping_mul(100));
}

// ---------------------------------------------------------------------
// (d) Helper arguments: in place from the stack, staged from elsewhere
// ---------------------------------------------------------------------

/// `r<arg> = r10 + off`.
fn fp_arg(b: &mut ProgramBuilder, arg: Reg, off: i64) {
    b.mov_reg(arg, R10);
    b.alu_imm(AluOp::Add, arg, off);
}

/// `r6 = map_lookup_elem(h, &7)`, the key at `[r10-8]`; exits with
/// `r0 = 99` on a miss. Six instructions before the miss check.
fn lookup_seven(b: &mut ProgramBuilder) {
    b.store_imm(Size::B8, R10, -8, 7);
    b.load_map(R1, MapId(0));
    fp_arg(b, R2, -8);
    b.call(Helper::MapLookup);
    b.mov_reg(R6, R0);
    let hit = b.label();
    b.jump_if_imm(Cond::Ne, R6, 0, hit);
    b.mov_imm(R0, 99);
    b.exit();
    b.bind(hit);
}

/// Key 7 of the hash map holds `[7, 9]` as two words: a value that
/// contains its own key, and a second key.
fn seven_holds_seven_and_nine() -> common::Twin {
    Twin::new(|| {
        let mut m = maps();
        let value = [7u64.to_le_bytes(), 9u64.to_le_bytes()].concat();
        m.update(MapId(0), &7u64.to_le_bytes(), &value).unwrap();
        m
    })
}

/// An argument inside a map value may lie in the very storage the helper
/// mutates, so it is copied out first; one in the stack cannot and is
/// not. Either way both engines do what a `BTreeMap` would, and count
/// the operations the copying helper layer counted.
#[test]
fn helper_arguments_that_alias_map_storage_are_copied_out_first() {
    let (seven, nine) = (7u64.to_le_bytes().to_vec(), 9u64.to_le_bytes().to_vec());
    let value = [seven.clone(), nine.clone()].concat();
    let ops = |twin: &Twin| {
        let o = twin.lowered.op_stats();
        (o.lookups, o.updates, o.deletes, o.ring_pushes)
    };

    // delete(h, key = the value's own first word): the entry goes.
    let mut b = ProgramBuilder::new();
    lookup_seven(&mut b);
    b.load_map(R1, MapId(0));
    b.mov_reg(R2, R6);
    b.call(Helper::MapDelete);
    b.exit();
    let prog = b.resolve().unwrap();
    let mut twin = seven_holds_seven_and_nine();
    assert_eq!(
        twin.run("delete by own value", &prog, &lower(&prog), &[])
            .unwrap()
            .0,
        0
    );
    assert_eq!(twin.lowered.dump(MapId(0)), []);
    assert_eq!(
        ops(&twin),
        (2, 1, 1, 0),
        "one lookup is the staged dereference"
    );

    // update(h, key = the value's first word, value = the value itself)
    // rewrites 7 in place; update(h, key = its second word, value = the
    // value) inserts 9 while reading from the slab that grows.
    for (what, key_off, want) in [
        (
            "overwrite by own value",
            0,
            vec![(seven.clone(), value.clone())],
        ),
        (
            "insert from own value",
            8,
            vec![(seven.clone(), value.clone()), (nine, value.clone())],
        ),
    ] {
        let mut b = ProgramBuilder::new();
        lookup_seven(&mut b);
        b.load_map(R1, MapId(0));
        b.mov_reg(R2, R6);
        b.alu_imm(AluOp::Add, R2, key_off);
        b.mov_reg(R3, R6);
        b.mov_imm(R4, 0);
        b.call(Helper::MapUpdate);
        b.exit();
        let prog = b.resolve().unwrap();
        let mut twin = seven_holds_seven_and_nine();
        assert_eq!(twin.run(what, &prog, &lower(&prog), &[]).unwrap().0, 0);
        let model: BTreeMap<_, _> = want.into_iter().collect();
        assert_eq!(twin.lowered.dump(MapId(0)), Vec::from_iter(model), "{what}");
        assert_eq!(ops(&twin), (3, 2, 0, 0), "{what}: two staged dereferences");
    }

    // perf_event_output(ring, record = the value) and (ring, the context).
    let ctx: Vec<u8> = (0..16).collect();
    for (what, from_ctx, record, lookups) in [
        ("output a map value", false, &value, 2),
        ("output the context", true, &ctx, 1),
    ] {
        let mut b = ProgramBuilder::new();
        b.mov_reg(R7, R1);
        lookup_seven(&mut b);
        b.load_map(R1, MapId(1));
        b.mov_reg(R2, if from_ctx { R7 } else { R6 });
        b.mov_imm(R3, 16);
        b.call(Helper::PerfEventOutput);
        b.exit();
        let prog = b.resolve().unwrap();
        let mut twin = seven_holds_seven_and_nine();
        let (r0, stats) = twin.run(what, &prog, &lower(&prog), &ctx).unwrap();
        assert_eq!((r0, stats.ring_publishes), (0, 1), "{what}");
        assert_eq!(
            twin.lowered.ring_drain(MapId(1), 9),
            std::slice::from_ref(record),
            "{what}"
        );
        assert_eq!(ops(&twin), (lookups, 1, 0, 1), "{what}");
    }
}

/// An argument must lie wholly inside one window: a key whose last byte
/// is one past the top of the stack, and a record as long as the address
/// space, are the faults they always were — at the call, naming the
/// argument's first byte.
#[test]
fn helper_arguments_that_leave_their_window_fault_at_the_call() {
    let top = tscout_suite::bpf::vm::STACK_BASE + tscout_suite::bpf::vm::STACK_SIZE as u64;
    for helper in [Helper::MapLookup, Helper::MapUpdate, Helper::MapDelete] {
        let mut b = ProgramBuilder::new();
        b.load_map(R1, MapId(0));
        fp_arg(&mut b, R2, -7);
        fp_arg(&mut b, R3, -16);
        b.call(helper);
        b.exit();
        let prog = b.resolve().unwrap();
        assert_eq!(
            engines_agree("key over the top", &prog, &[]),
            Err(VmError::BadAddress {
                pc: 5,
                addr: top - 7
            }),
            "{helper:?}"
        );
    }
    let mut b = ProgramBuilder::new();
    b.load_map(R1, MapId(1));
    fp_arg(&mut b, R2, -8);
    b.mov_imm(R3, -1);
    b.call(Helper::PerfEventOutput);
    b.exit();
    let prog = b.resolve().unwrap();
    let mut twin = Twin::new(maps);
    assert_eq!(
        twin.run("record of u64::MAX bytes", &prog, &lower(&prog), &[]),
        Err(VmError::BadAddress {
            pc: 4,
            addr: top - 8
        })
    );
    assert_eq!(twin.lowered.ring_stats(MapId(1)).produced, 0);
}

// ---------------------------------------------------------------------
// (e) Copy runs: FEATURES' word-copy loops as one op
// ---------------------------------------------------------------------

/// `groups` word copies the way FEATURES' loops emit them: group `g` is
/// `mov r1, from; add r1, k; ldx8 r2, [r1+o1]; mov r3, to; add r3, k;
/// stx8 [r3+o2], r2` with `k = first_k + 8g`.
fn copy_words(
    b: &mut ProgramBuilder,
    from: Reg,
    to: Reg,
    first_k: i64,
    groups: i64,
    o: (i32, i32),
) {
    for g in 0..groups {
        let k = first_k + 8 * g;
        b.mov_reg(R1, from);
        b.alu_imm(AluOp::Add, R1, k);
        b.load(Size::B8, R2, R1, o.0);
        b.mov_reg(R3, to);
        b.alu_imm(AluOp::Add, R3, k);
        b.store_reg(Size::B8, R3, o.1, R2);
    }
}

/// `r0 = Σ 2^(8i)·[r10 + base + 8i]` over `words` stack words, each
/// expected below 256: the stack as one number, so the oracle sees it.
fn fold_stack(b: &mut ProgramBuilder, base: i32, words: i32) {
    b.mov_imm(R0, 0);
    for i in (0..words).rev() {
        b.alu_imm(AluOp::Lsh, R0, 8);
        b.load(Size::B8, R4, R10, base + 8 * i);
        b.alu_reg(AluOp::Add, R0, R4);
    }
}

/// A run from the context: whole, it is one op and copies every word;
/// when the context ends mid-run the op steps and faults at the load of
/// the first word past the end, as the reference does.
#[test]
fn a_copy_run_from_the_context_faults_where_its_source_ends() {
    let mut b = ProgramBuilder::new();
    b.mov_reg(R9, R1);
    copy_words(&mut b, R9, R10, 8, 3, (0, -40));
    fold_stack(&mut b, -40, 4);
    b.exit();
    let prog = b.resolve().unwrap();
    // mov, the run, then the fold (1 + 3 per word) and exit.
    assert_eq!(lower(&prog).op_count(), 1 + 1 + 13 + 1);
    let ctx: Vec<u8> = [0u64, 1, 2, 3]
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .collect();
    let (r0, stats) = engines_agree("whole context run", &prog, &ctx).unwrap();
    assert_eq!((r0, stats.insns), (0x0302_0100, prog.len() as u64));

    // 24 bytes: the third group's load, at pc 1 + 6·2 + 2, reads past it.
    let got = engines_agree("context ends mid-run", &prog, &ctx[..24]);
    assert!(
        matches!(got, Err(VmError::BadAddress { pc: 15, .. })),
        "{got:?}"
    );
}

/// Instructions [`lookup_seven`] emits, its miss path included.
const SEVEN: usize = 9;

/// `r6 = &h[7]` (which holds `[7, 9]`), then a run of `groups` words
/// from it to `[r10-64..]`, folded into `r0`.
fn run_from_seven(groups: i64, delete_first: bool) -> Vec<Insn> {
    let mut b = ProgramBuilder::new();
    lookup_seven(&mut b);
    if delete_first {
        b.load_map(R1, MapId(0));
        fp_arg(&mut b, R2, -8);
        b.call(Helper::MapDelete);
    }
    copy_words(&mut b, R6, R10, 0, groups, (0, -64));
    fold_stack(&mut b, -64, 2);
    b.exit();
    b.resolve().unwrap()
}

/// A map-value source counts one lookup per word, copied at once or
/// stepped: a value long enough, one too short for the run (the load
/// past its end faults after counting its lookup, as the reference's
/// does), and one whose key was deleted before the run.
#[test]
fn a_copy_run_from_a_map_value_counts_a_lookup_per_word() {
    let lookups = |twin: &Twin| twin.lowered.op_stats().lookups;

    let prog = run_from_seven(2, false);
    let mut twin = seven_holds_seven_and_nine();
    let (r0, _) = twin.run("value run", &prog, &lower(&prog), &[]).unwrap();
    assert_eq!(r0, 0x0907);
    assert_eq!(lookups(&twin), 1 + 2, "the helper's, then one per word");

    // The value is two words; the third group's load faults.
    let prog = run_from_seven(3, false);
    let load_of_third = SEVEN + 6 * 2 + 2;
    let mut twin = seven_holds_seven_and_nine();
    let got = twin.run("value too short", &prog, &lower(&prog), &[]);
    assert!(
        matches!(got, Err(VmError::BadAddress { pc, .. }) if pc == load_of_third),
        "{got:?}"
    );
    assert_eq!(lookups(&twin), 1 + 3);

    // Deleted before the run: the first load finds the pointer stale.
    let prog = run_from_seven(2, true);
    let mut twin = seven_holds_seven_and_nine();
    let got = twin.run("stale value", &prog, &lower(&prog), &[]);
    assert_eq!(got, Err(VmError::StaleMapValue { pc: SEVEN + 4 + 2 }));
    assert_eq!(lookups(&twin), 1 + 1);
    assert_eq!(twin.lowered.op_stats().deletes, 1);
}

/// When the destination leaves the stack, the op refuses the one-shot
/// copy before counting anything and steps: the words before the fault
/// are copied and counted once each, never again for the refused try.
#[test]
fn a_refused_copy_counts_each_lookup_once() {
    let mut b = ProgramBuilder::new();
    lookup_seven(&mut b);
    // The second word's store lands on the top of the stack.
    copy_words(&mut b, R6, R10, 0, 2, (0, -8));
    b.exit();
    let prog = b.resolve().unwrap();
    let mut twin = seven_holds_seven_and_nine();
    let got = twin.run("over the top", &prog, &lower(&prog), &[]);
    let top = tscout_suite::bpf::vm::STACK_BASE + tscout_suite::bpf::vm::STACK_SIZE as u64;
    assert_eq!(
        got,
        Err(VmError::BadAddress {
            pc: SEVEN + 6 + 5,
            addr: top
        })
    );
    assert_eq!(twin.lowered.op_stats().lookups, 1 + 2);
}

/// A jump onto the second of three groups splits the run there: the
/// first group lowers as its two fused pairs, the other two as a run,
/// taken or not.
#[test]
fn a_jump_into_a_copy_run_splits_it() {
    let ctx: Vec<u8> = [0u64, 1, 2, 3]
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .collect();
    for (cond, skipped) in [(Cond::Ne, false), (Cond::Eq, true)] {
        let mut b = ProgramBuilder::new();
        let second = b.label();
        b.mov_reg(R9, R1);
        b.store_imm(Size::B8, R10, -32, 0);
        b.mov_imm(R0, 0);
        b.jump_if_imm(cond, R0, 0, second);
        copy_words(&mut b, R9, R10, 8, 1, (0, -40));
        b.bind(second);
        copy_words(&mut b, R9, R10, 16, 2, (0, -40));
        fold_stack(&mut b, -32, 3);
        b.exit();
        let prog = b.resolve().unwrap();
        // 4 ops, the pairs' 2, the run's 1, the fold's 10 and exit.
        assert_eq!(lower(&prog).op_count(), 4 + 2 + 1 + 10 + 1);
        let (r0, stats) = engines_agree("onto group 2", &prog, &ctx).unwrap();
        let want = if skipped { 0x0003_0200 } else { 0x0003_0201 };
        assert_eq!(r0, want, "{cond:?}");
        assert_eq!(stats.insns, prog.len() as u64 - 6 * u64::from(skipped));
    }
}

/// Stack to stack, each store landing on the next group's source: the
/// run steps word by word, so the first word spreads through the range
/// (`memmove` would shift it instead).
#[test]
fn an_overlapping_stack_run_steps_word_by_word() {
    let mut b = ProgramBuilder::new();
    for i in 0..6 {
        b.store_imm(Size::B8, R10, -64 + 8 * i, i64::from(i) + 1);
    }
    b.mov_reg(R9, R10);
    copy_words(&mut b, R9, R10, 8, 4, (-64, -56));
    fold_stack(&mut b, -64, 6);
    b.exit();
    let prog = b.resolve().unwrap();
    assert_eq!(lower(&prog).op_count(), 6 + 1 + 1 + 19 + 1);
    let (r0, _) = engines_agree("overlapping", &prog, &[]).unwrap();
    assert_eq!(r0, 0x02_02_02_02_02_01);
}

/// One group is two fused pairs, never a run.
#[test]
fn a_single_copy_group_does_not_fuse_into_a_run() {
    let mut b = ProgramBuilder::new();
    b.mov_reg(R9, R1);
    copy_words(&mut b, R9, R10, 8, 1, (0, -16));
    b.load(Size::B8, R0, R10, -8);
    b.exit();
    let prog = b.resolve().unwrap();
    assert_eq!(lower(&prog).op_count(), 1 + 2 + 1 + 1);
    let ctx = [0u64, 42].map(u64::to_le_bytes).concat();
    let (r0, stats) = engines_agree("one group", &prog, &ctx).unwrap();
    assert_eq!((r0, stats.insns), (42, 9));
}
