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
//!   instruction, and a copy or Δ run whose one check must be refused (a
//!   source that ends mid-run or went stale, a destination off the
//!   stack, an overlap, a begin value outside the maps): the guard then
//!   falls through into the ops of the instructions it covers, having
//!   written and counted nothing, so no lookup counts twice.
//!
//! No run executes an instruction twice, so the sweep draws 16× the
//! generators' own case counts in a few seconds.

use std::collections::BTreeMap;

use tscout_suite::bpf::asm::ProgramBuilder;
use tscout_suite::bpf::insn::{
    AluOp, Cond, Helper, Insn, Reg, Size, Src, R0, R1, R10, R2, R3, R4, R5, R6, R7, R8, R9,
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
/// when the context ends mid-run the guard falls through and the load of
/// the first word past the end faults, as the reference's does.
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
/// through the ops the guard falls into: a value long enough, one too short for the run (the load
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
    assert_eq!(twin.copy_runs(), [1, 0]);

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
    assert_eq!(twin.copy_runs(), [0, 1]);

    // Deleted before the run: the first load finds the pointer stale.
    let prog = run_from_seven(2, true);
    let mut twin = seven_holds_seven_and_nine();
    let got = twin.run("stale value", &prog, &lower(&prog), &[]);
    assert_eq!(got, Err(VmError::StaleMapValue { pc: SEVEN + 4 + 2 }));
    assert_eq!(lookups(&twin), 1 + 1);
    assert_eq!(twin.lowered.op_stats().deletes, 1);
    assert_eq!(twin.copy_runs(), [0, 1]);
}

/// When the destination leaves the stack, the guard refuses the
/// one-shot copy before counting anything and falls through: the words before the fault
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
    assert_eq!(twin.copy_runs(), [0, 1]);
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
/// guard refuses and the copies run word by word, so the first word
/// spreads through the range (`memmove` would shift it instead).
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

// ---------------------------------------------------------------------
// (f) Δ runs: END's per-counter and I/O loops as one op
// ---------------------------------------------------------------------

/// One Δ loop the way END emits it, over a begin value in `r8`: `norm`
/// blocks take three differences, `Δ0·Δ1/Δ2`, and store through their own
/// done pointer (`r1 = r10 + 8i`, fresh `r3 = r10 + 24i`, begin `r4 = r8
/// + 24i`); plain words take one and store through the fresh pointer
/// (`r1 = r10 + 8k`, begin `r2 = r8 + 8k`). Group 0 is unrebased when
/// `lead`. Groups `first..first + groups` are emitted.
#[derive(Debug, Clone, Copy)]
struct Delta {
    norm: bool,
    lead: bool,
    first: usize,
    groups: usize,
    fresh: i32,
    begin: i32,
    done: i32,
}

impl Delta {
    fn norm(groups: usize) -> Delta {
        Delta {
            norm: true,
            lead: true,
            first: 0,
            groups,
            fresh: -200,
            begin: 8,
            done: -320,
        }
    }

    fn plain(groups: usize) -> Delta {
        Delta {
            norm: false,
            fresh: -200,
            begin: 0,
            done: -320,
            ..Delta::norm(groups)
        }
    }

    /// Bytes of the begin value the groups read.
    fn value_bytes(&self) -> usize {
        let stride = if self.norm { 24 } else { 8 };
        self.begin as usize + stride * (self.first + self.groups)
    }

    /// Instructions of group `g`, and whether it is rebased.
    fn group_len(&self, g: usize) -> usize {
        let rebases = if self.norm { 3 } else { 2 };
        let body = if self.norm { 12 } else { 4 };
        body + if g == 0 && self.lead { 0 } else { 2 * rebases }
    }

    fn emit(&self, b: &mut ProgramBuilder) {
        let rebase = |b: &mut ProgramBuilder, scratch: Reg, base: Reg, bytes: usize| {
            if bytes == 0 && self.lead {
                return base;
            }
            b.mov_reg(scratch, base);
            b.alu_imm(AluOp::Add, scratch, bytes as i64);
            scratch
        };
        for i in self.first..self.first + self.groups {
            if self.norm {
                let done = rebase(b, R1, R10, i * 8);
                let fresh = rebase(b, R3, R10, i * 24);
                let begin = rebase(b, R4, R8, i * 24);
                b.load(Size::B8, R0, fresh, self.fresh);
                b.load(Size::B8, R5, begin, self.begin);
                b.alu_reg(AluOp::Sub, R0, R5);
                b.load(Size::B8, R2, fresh, self.fresh + 8);
                b.load(Size::B8, R5, begin, self.begin + 8);
                b.alu_reg(AluOp::Sub, R2, R5);
                b.alu_reg(AluOp::Mul, R0, R2);
                b.load(Size::B8, R2, fresh, self.fresh + 16);
                b.load(Size::B8, R5, begin, self.begin + 16);
                b.alu_reg(AluOp::Sub, R2, R5);
                b.alu_reg(AluOp::Div, R0, R2);
                b.store_reg(Size::B8, done, self.done, R0);
            } else {
                let fresh = rebase(b, R1, R10, i * 8);
                let begin = rebase(b, R2, R8, i * 8);
                b.load(Size::B8, R3, fresh, self.fresh);
                b.load(Size::B8, R4, begin, self.begin);
                b.alu_reg(AluOp::Sub, R3, R4);
                b.store_reg(Size::B8, fresh, self.done, R3);
            }
        }
    }
}

/// Instructions [`delta_prog`] emits before the run.
const BEFORE_DELTA: usize = 9 + 2 * 24;

/// `r8 = &h[7]` (a begin value of `value` bytes, word `i` holding
/// `begin(i)`), 24 fresh words from `[r10-256]` holding `fresh(i)`, an
/// optional delete of key 7, `run`, then `r0` = a hash of `r0`–`r5`, and
/// of the 32 words from `[r10-320]`: every register and done slot the
/// run leaves, so the oracle sees them.
fn delta_prog(run: &Delta, fresh: impl Fn(i64) -> i64, delete: bool) -> Vec<Insn> {
    let mut b = ProgramBuilder::new();
    b.store_imm(Size::B8, R10, -8, 7);
    b.load_map(R1, MapId(0));
    fp_arg(&mut b, R2, -8);
    b.call(Helper::MapLookup);
    b.mov_reg(R8, R0);
    let hit = b.label();
    b.jump_if_imm(Cond::Ne, R8, 0, hit);
    b.mov_imm(R0, 99);
    b.exit();
    b.bind(hit);
    for i in 0..24 {
        b.mov_imm(R9, fresh(i));
        b.store_reg(Size::B8, R10, -256 + 8 * i as i32, R9);
    }
    if delete {
        b.load_map(R1, MapId(0));
        fp_arg(&mut b, R2, -8);
        b.call(Helper::MapDelete);
    }
    run.emit(&mut b);
    b.mov_imm(R9, 0);
    for r in [R0, R1, R2, R3, R4, R5] {
        b.alu_imm(AluOp::Mul, R9, 31);
        b.alu_reg(AluOp::Add, R9, r);
    }
    for i in 0..32 {
        b.load(Size::B8, R7, R10, -320 + 8 * i);
        b.alu_imm(AluOp::Mul, R9, 31);
        b.alu_reg(AluOp::Add, R9, R7);
    }
    b.mov_reg(R0, R9);
    b.exit();
    b.resolve().unwrap()
}

/// Maps whose key 7 holds `bytes` bytes, word `i` being `begin(i)`.
fn begin_value(bytes: usize, begin: impl Fn(i64) -> i64) -> Twin {
    Twin::new(|| {
        let mut m = tscout_suite::bpf::MapRegistry::new();
        m.create(tscout_suite::bpf::MapDef::hash("begin", 8, bytes, 4));
        let value: Vec<u8> = (0..bytes as i64)
            .step_by(8)
            .flat_map(|i| begin(i / 8).to_le_bytes())
            .take(bytes)
            .collect();
        m.update(MapId(0), &7u64.to_le_bytes(), &value).unwrap();
        m
    })
}

/// Fresh words well above the begin ones, so every Δ is positive and
/// every Δrunning nonzero.
fn rising(i: i64) -> i64 {
    1000 + 37 * i * i
}

fn small(i: i64) -> i64 {
    3 + i
}

/// Run `run` against a value of `bytes` bytes through both engines.
fn run_delta(what: &str, run: &Delta, bytes: usize, delete: bool) -> (Vec<Insn>, RunResult) {
    let prog = delta_prog(run, rising, delete);
    let mut twin = begin_value(bytes, small);
    let got = twin.run(what, &prog, &lower(&prog), &[]);
    (prog, got)
}

/// Whole, a loop of Δ groups is one op; its registers and done slots are
/// the reference's. Five groups of each shape, rebased from group 1.
#[test]
fn a_delta_loop_is_one_op_and_matches_the_reference() {
    for run in [Delta::norm(5), Delta::plain(5)] {
        let prog = delta_prog(&run, rising, false);
        // The lookup's 6 ops and the miss path's 2, a `mov; stx8` per
        // fresh word, the run, the fold's 1 + 2 per register and 3 per
        // done word, and the last two.
        let fold = 1 + 2 * 6 + 3 * 32 + 2;
        assert_eq!(lower(&prog).op_count(), 8 + 48 + 1 + fold, "{run:?}");
        let mut twin = begin_value(run.value_bytes(), small);
        let (_, stats) = twin.run("whole", &prog, &lower(&prog), &[]).unwrap();
        assert_eq!(stats.insns, prog.len() as u64 - 2, "{run:?}");
        assert_eq!(twin.delta_runs(), [1, 0], "{run:?}");
        let loads = if run.norm { 15 } else { 5 };
        assert_eq!(twin.lowered.op_stats().lookups, 1 + loads, "{run:?}");
    }
}

/// Each load and the store of the first, a middle and the last group
/// faults where the reference's does — the fresh word over the top of
/// the stack, the begin word past the end of the value, the done slot
/// over the top — after counting the lookups of the loads before it
/// and no others.
#[test]
fn a_delta_run_faults_at_each_load_and_store() {
    for base in [Delta::norm(5), Delta::plain(5)] {
        let (terms, stride): (i32, i32) = if base.norm { (3, 24) } else { (1, 8) };
        // What a group stores, loads fresh words and loads begin words
        // through, when rebased.
        let (done, fresh, begin) = if base.norm {
            (R1, R3, R4)
        } else {
            (R1, R1, R2)
        };
        for g in [0, 2, 4] {
            // Group 0 reads through the bases themselves.
            let via = |reg: Reg, base: Reg| if g == 0 { base } else { reg };
            let back = stride * g as i32;
            for site in 0..2 * terms + 1 {
                let (mut run, mut bytes) = (base, base.value_bytes());
                let term = site / 2;
                let (store, through) = if site == 2 * terms {
                    // Group g's done slot is the word over the top.
                    let slot = if base.norm { 8 * g as i32 } else { back };
                    (run.done, run.fresh) = (-slot, -back - 200);
                    (true, via(done, R10))
                } else if site % 2 == 0 {
                    // Group g's fresh word `term` is over the top.
                    (run.fresh, run.done) = (-back - 8 * term, -400);
                    (false, via(fresh, R10))
                } else {
                    // Group g's begin word `term` is past the value.
                    bytes = (base.begin + back + 8 * term) as usize;
                    (false, via(begin, R8))
                };
                let what = format!("norm={} group {g} site {site}", base.norm);
                let (prog, got) = run_delta(&what, &run, bytes, false);
                let Err(VmError::BadAddress { pc, .. }) = got else {
                    panic!("{what}: {got:?}\n{run:?}");
                };
                let faulted = match prog[pc] {
                    Insn::Store { base, .. } if store => base,
                    Insn::Load { base, .. } if !store => base,
                    other => panic!("{what}: faulted at {other}"),
                };
                assert_eq!(faulted, through, "{what}");
                let start = BEFORE_DELTA + (0..g).map(|k| run.group_len(k)).sum::<usize>();
                let group = start..start + run.group_len(g);
                assert!(group.contains(&pc), "{what}");
            }
        }
    }
}

/// A begin value deleted before the run faults at the first begin load;
/// one too short for the run at the first load past its end.
#[test]
fn a_stale_or_short_begin_value_steps_to_its_fault() {
    for run in [Delta::norm(4), Delta::plain(4)] {
        let (_, got) = run_delta("stale", &run, run.value_bytes(), true);
        assert_eq!(
            got,
            Err(VmError::StaleMapValue {
                pc: BEFORE_DELTA + 4 + 1
            }),
            "{run:?}"
        );
        let (prog, got) = run_delta("short", &run, run.value_bytes() - 8, false);
        let Err(VmError::BadAddress { pc, .. }) = got else {
            panic!("{got:?}");
        };
        assert!(matches!(prog[pc], Insn::Load { base, .. } if base == R4 || base == R2));
    }
}

/// `Δrunning = 0` gives 0; a Δ below zero and a product past 2^64 wrap.
#[test]
fn a_delta_run_divides_by_zero_and_wraps_as_the_alu_does() {
    type Words = fn(i64) -> i64;
    let cases: [(&str, Words, Words); 3] = [
        (
            "Δrunning = 0",
            |i| if i % 3 == 2 { 5 } else { 1000 + i },
            |_| 5,
        ),
        ("Δ below zero", |i| i, |i| 1000 * i + 7),
        ("product wraps", |i| i64::MAX - i, |i| i),
    ];
    for run in [Delta::norm(4), Delta::plain(4)] {
        for (what, fresh, begin) in cases {
            // Word i of the begin value sits at the fresh word i + 1
            // reads against (the value's word 0 is the timestamp).
            let prog = delta_prog(&run, fresh, false);
            let mut twin = begin_value(run.value_bytes(), begin);
            let got = twin.run(what, &prog, &lower(&prog), &[]);
            assert!(got.is_ok(), "{what}: {got:?}");
            assert_eq!(twin.delta_runs(), [1, 0], "{what}");
        }
    }
}

/// Group `g`'s done store lands on group `g + 1`'s first fresh word: the
/// groups run in order on the stack, so the next group reads the stored
/// result, not the snapshot.
#[test]
fn a_done_store_feeds_a_later_groups_fresh_word() {
    let norm = Delta {
        done: -200 + 24,
        ..Delta::norm(4)
    };
    let plain = Delta {
        done: -200 + 8,
        ..Delta::plain(4)
    };
    for run in [norm, plain] {
        let prog = delta_prog(&run, rising, false);
        let mut twin = begin_value(run.value_bytes(), small);
        let chained = twin.run("chained", &prog, &lower(&prog), &[]).unwrap();
        assert_eq!(twin.delta_runs(), [1, 0]);
        let apart = run_delta(
            "apart",
            &Delta { done: -320, ..run },
            run.value_bytes(),
            false,
        );
        assert_ne!(
            Ok(chained),
            apart.1,
            "{run:?}: the stores must be read back"
        );
    }
}

/// A jump onto group 2 splits the run there, taken or not.
#[test]
fn a_jump_onto_a_delta_group_splits_the_run() {
    for run in [Delta::norm(4), Delta::plain(4)] {
        for (cond, skipped) in [(Cond::Ne, false), (Cond::Eq, true)] {
            let head = delta_prog(&Delta { groups: 0, ..run }, rising, false);
            let mut b = ProgramBuilder::new();
            let onto = b.label();
            // The head up to the run: everything before its fold.
            let prog_head = &head[..BEFORE_DELTA];
            let mut prog = prog_head.to_vec();
            b.mov_imm(R9, 0);
            b.jump_if_imm(cond, R9, 0, onto);
            Delta { groups: 2, ..run }.emit(&mut b);
            b.bind(onto);
            Delta {
                first: 2,
                groups: 2,
                ..run
            }
            .emit(&mut b);
            b.mov_reg(R0, R9);
            b.exit();
            prog.extend(b.resolve().unwrap());
            let lowered = lower(&prog);
            // Head ops, the mov and jump, two runs, the last two.
            assert_eq!(lowered.op_count(), 8 + 48 + 2 + 2 + 2, "{run:?}");
            let mut twin = begin_value(run.value_bytes(), small);
            let (_, stats) = twin.run("onto group 2", &prog, &lowered, &[]).unwrap();
            let first_two: usize = (0..2).map(|g| run.group_len(g)).sum();
            let ran = prog.len() - 2 - if skipped { first_two } else { 0 };
            assert_eq!(stats.insns, ran as u64, "{cond:?}");
            assert_eq!(twin.delta_runs(), [2 - u64::from(skipped), 0]);
        }
    }
}

/// A group whose written registers alias is not a Δ group: `sub a, a`
/// (the begin word loaded into `a` itself) lowers per instruction; a
/// begin pointer rebased in place (`r8 = r8 + 8`) keeps its two rebases
/// apart, and only the body behind them, which reads through the bases
/// it finds, runs as a group. Both agree with the reference.
#[test]
fn an_aliased_register_refuses_the_delta_shape() {
    // Norm, group 0 unrebased, with `t` = `a` = r0.
    let mut b = ProgramBuilder::new();
    b.load(Size::B8, R0, R10, -200);
    b.load(Size::B8, R0, R8, 8);
    b.alu_reg(AluOp::Sub, R0, R0);
    b.load(Size::B8, R2, R10, -192);
    b.load(Size::B8, R0, R8, 16);
    b.alu_reg(AluOp::Sub, R2, R0);
    b.alu_reg(AluOp::Mul, R0, R2);
    b.load(Size::B8, R2, R10, -184);
    b.load(Size::B8, R0, R8, 24);
    b.alu_reg(AluOp::Sub, R2, R0);
    b.alu_reg(AluOp::Div, R0, R2);
    b.store_reg(Size::B8, R10, -320, R0);
    b.exit();
    let aliased = b.resolve().unwrap();
    // A plain word whose begin pointer is its own base.
    let mut b = ProgramBuilder::new();
    b.mov_reg(R1, R10);
    b.alu_imm(AluOp::Add, R1, 8);
    b.mov_reg(R8, R8);
    b.alu_imm(AluOp::Add, R8, 8);
    b.load(Size::B8, R3, R1, -200);
    b.load(Size::B8, R4, R8, 0);
    b.alu_reg(AluOp::Sub, R3, R4);
    b.store_reg(Size::B8, R1, -320, R3);
    b.exit();
    let base_written = b.resolve().unwrap();
    let prefix = &delta_prog(&Delta::norm(0), rising, false)[..BEFORE_DELTA];
    for (what, body, ops, runs) in [
        ("t = a", aliased, 12, 0),
        ("base written", base_written, 3, 1),
    ] {
        let prog: Vec<Insn> = prefix.iter().copied().chain(body).collect();
        let lowered = lower(&prog);
        assert_eq!(lowered.op_count(), 8 + 48 + ops + 1, "{what}");
        let mut twin = begin_value(64, small);
        twin.run(what, &prog, &lowered, &[]).unwrap();
        assert_eq!(twin.delta_runs(), [runs, 0], "{what}");
    }
}

/// Group 0 alone, unrebased, is a run of one group.
#[test]
fn an_unrebased_group_alone_is_a_run() {
    for run in [Delta::norm(1), Delta::plain(1)] {
        let prog = delta_prog(&run, rising, false);
        let fold = 1 + 2 * 6 + 3 * 32 + 2;
        assert_eq!(lower(&prog).op_count(), 8 + 48 + 1 + fold, "{run:?}");
        let mut twin = begin_value(run.value_bytes(), small);
        twin.run("group 0 alone", &prog, &lower(&prog), &[])
            .unwrap();
        assert_eq!(twin.delta_runs(), [1, 0]);
    }
}

/// Begin words in the context, not in a map value: the guard refuses,
/// counts the refusal and falls through into the groups' own ops, which
/// end as the reference does and count each instruction once — the
/// guard itself none.
#[test]
fn a_refused_delta_run_falls_through_into_its_own_ops() {
    for run in [Delta::norm(3), Delta::plain(3)] {
        // The context pointer kept in r6 across the lookup, whose key
        // store and result go unused, then taken as the begin pointer.
        let mut prog = delta_prog(&run, rising, false);
        assert_eq!(prog[5], mov(R8, R0), "the begin pointer is set here");
        (prog[0], prog[5]) = (mov(R6, R1), mov(R8, R6));
        let ctx: Vec<u8> = (0..run.value_bytes() as i64 / 8)
            .flat_map(|i| small(i).to_le_bytes())
            .collect();
        let mut twin = begin_value(run.value_bytes(), small);
        let got = twin.run("begin in the context", &prog, &lower(&prog), &ctx);
        let (_, stats) = got.unwrap();
        assert_eq!(stats.insns, prog.len() as u64 - 2, "{run:?}");
        assert_eq!(twin.delta_runs(), [0, 1], "{run:?}");
    }
}
