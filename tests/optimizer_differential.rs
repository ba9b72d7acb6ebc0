//! Differential correctness for the load-time optimizer.
//!
//! The optimizer's contract is absolute: for any verified program, the
//! optimized form must (a) re-verify and (b) be observationally
//! equivalent — same `R0`, same map contents, same ring records, byte
//! for byte. This suite enforces the contract two ways:
//!
//! * **adversarially**: thousands of seeded random programs with loops
//!   (the `verifier_differential` generator), each executed optimized
//!   and unoptimized against fresh identical map registries, comparing
//!   every observable output;
//! * **end-to-end**: the real codegen Collector triple (BEGIN / END /
//!   FEATURES) on all eight probe layouts, re-verifying each optimized
//!   stream, comparing the published sample bytes and asserting the
//!   paper-motivated win — each program *executes* at least 15% fewer
//!   instructions after optimization.

use tscout_suite::rng::{RngExt, SeedableRng, StdRng};

use tscout_suite::bpf::insn::{AluOp, Cond, Helper, Insn, Reg, Size, Src};
use tscout_suite::bpf::maps::MapDef;
use tscout_suite::bpf::opt::{optimize, OptStats, PASS_NAMES};
use tscout_suite::bpf::vm::{NullWorld, Vm};
use tscout_suite::bpf::{verify, MapId, MapRegistry};
use tscout_suite::tscout::codegen::{
    encode_ctx, gen_begin, gen_end, gen_features, ProbeLayout, CTX_BYTES,
};

fn maps() -> MapRegistry {
    let mut m = MapRegistry::new();
    m.create(MapDef::hash("h", 8, 16, 32));
    m.create(MapDef::stack("s", 8, 8));
    m.create(MapDef::perf_event_array("r", 16));
    m
}

// ---------------------------------------------------------------------
// Random-program generator (the verifier_differential recipe, biased
// a little harder toward counted loops so the unroller gets exercise).
// ---------------------------------------------------------------------

fn arb_reg(rng: &mut StdRng) -> Reg {
    Reg(rng.random_range(0u8..=10))
}

fn arb_imm(rng: &mut StdRng) -> i64 {
    match rng.random_range(0..8) {
        0 => i64::MIN,
        1 => i64::MAX,
        2 => -1,
        3 => rng.random_range(0i64..128),
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

const HELPERS: [Helper; 11] = [
    Helper::MapLookup,
    Helper::MapUpdate,
    Helper::MapDelete,
    Helper::MapPush,
    Helper::MapPop,
    Helper::PerfEventReadBuf,
    Helper::ReadTaskIo,
    Helper::ReadTcpSock,
    Helper::PerfEventOutput,
    Helper::KtimeGetNs,
    Helper::GetCurrentPidTgid,
];

fn arb_insn(rng: &mut StdRng) -> Insn {
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
            helper: HELPERS[rng.random_range(0..HELPERS.len())],
        },
        5 => Insn::LoadMap {
            dst: Reg(1),
            map: MapId(rng.random_range(0u32..4)),
        },
        _ => Insn::Exit,
    }
}

/// A canonical counted loop over random straight-line body material —
/// guaranteed back edges so the unroller runs on every seed.
fn arb_counted_loop(rng: &mut StdRng) -> Vec<Insn> {
    let ctr = Reg(rng.random_range(6u8..=9));
    let acc = Reg(rng.random_range(6u8..=9));
    let bound = rng.random_range(1i64..12);
    let step = rng.random_range(1i64..3);
    let mut prog = vec![
        Insn::Alu {
            op: AluOp::Mov,
            dst: acc,
            src: Src::Imm(rng.random_range(0i64..100)),
        },
        Insn::Alu {
            op: AluOp::Mov,
            dst: ctr,
            src: Src::Imm(0),
        },
    ];
    let body_len = rng.random_range(1usize..4);
    prog.push(Insn::Jump {
        cond: Some((Cond::Ge, ctr, Src::Imm(bound))),
        off: (body_len + 2) as i32,
    });
    for _ in 0..body_len {
        let op = [AluOp::Add, AluOp::Xor, AluOp::Mul][rng.random_range(0..3)];
        prog.push(Insn::Alu {
            op,
            dst: acc,
            src: if acc == ctr || rng.random_bool(0.5) {
                Src::Imm(rng.random_range(1i64..50))
            } else {
                Src::Reg(ctr)
            },
        });
    }
    prog.push(Insn::Alu {
        op: AluOp::Add,
        dst: ctr,
        src: Src::Imm(step),
    });
    prog.push(Insn::Jump {
        cond: None,
        off: -(body_len as i32 + 3),
    });
    prog.push(Insn::Alu {
        op: AluOp::Mov,
        dst: Reg(0),
        src: Src::Reg(acc),
    });
    prog.push(Insn::Exit);
    prog
}

/// For every verified random program, the optimized form re-verifies
/// and every observable output matches, while never executing more
/// instructions than the original.
#[test]
fn optimized_random_programs_are_observationally_identical() {
    let mut rng = StdRng::seed_from_u64(0x0917_CAFE);
    let total = 4096usize;
    let mut accepted = 0usize;
    let mut improved = 0usize;
    for i in 0..total {
        // 1 in 4 programs is a guaranteed counted loop; the rest are
        // adversarial soup (mostly exercising "optimizer must not
        // break weird-but-verified programs").
        let prog: Vec<Insn> = if i % 4 == 0 {
            arb_counted_loop(&mut rng)
        } else {
            let len = rng.random_range(1usize..32);
            let mut p: Vec<Insn> = (0..len).map(|_| arb_insn(&mut rng)).collect();
            p.push(Insn::Exit);
            p
        };
        let ctx: Vec<u8> = (0..64).map(|_| rng.random_range(0u8..=255)).collect();
        let m0 = maps();
        if verify(&prog, &m0, 64).is_err() {
            continue;
        }
        accepted += 1;
        let opt = optimize(&prog, &m0, 64).unwrap_or_else(|e| {
            panic!(
                "optimizer failed on a verified program: {e}\n{}",
                tscout_suite::bpf::insn::disassemble(&prog)
            )
        });

        let mut ma = maps();
        let mut mb = maps();
        let mut wa = NullWorld {
            time_ns: 100,
            pid_tgid: 42,
        };
        let mut wb = NullWorld {
            time_ns: 100,
            pid_tgid: 42,
        };
        let ra = Vm::run(&prog, &ctx, &mut ma, &mut wa).expect("unoptimized runs");
        let rb = Vm::run(&opt.insns, &ctx, &mut mb, &mut wb).expect("optimized runs");
        assert_eq!(
            ra.0,
            rb.0,
            "r0 differs\n{}",
            diff_context(&prog, &opt.insns)
        );
        for id in 0..ma.len() as u32 {
            assert_eq!(
                ma.dump(MapId(id)),
                mb.dump(MapId(id)),
                "map {id} differs\n{}",
                diff_context(&prog, &opt.insns)
            );
        }
        assert!(
            rb.1.insns <= ra.1.insns,
            "optimizer pessimized execution ({} -> {})\n{}",
            ra.1.insns,
            rb.1.insns,
            diff_context(&prog, &opt.insns)
        );
        if rb.1.insns < ra.1.insns {
            improved += 1;
        }
    }
    println!("accepted {accepted}/{total}, improved {improved}");
    assert!(accepted > 400, "property near-vacuous: {accepted} accepted");
    assert!(
        improved > accepted / 4,
        "optimizer barely fires: {improved}/{accepted} improved"
    );
}

fn diff_context(orig: &[Insn], opt: &[Insn]) -> String {
    format!(
        "--- original ---\n{}--- optimized ---\n{}",
        tscout_suite::bpf::insn::disassemble(orig),
        tscout_suite::bpf::insn::disassemble(opt)
    )
}

// ---------------------------------------------------------------------
// Collector-triple differential: the programs that actually ship.
// ---------------------------------------------------------------------

struct Triple {
    maps: MapRegistry,
    ring: MapId,
    begin: Vec<Insn>,
    end: Vec<Insn>,
    features: Vec<Insn>,
}

fn collector_triple(p: &ProbeLayout) -> Triple {
    let mut maps = MapRegistry::new();
    let depth = maps.create(MapDef::hash("depth", 8, 8, 256));
    let begin_map = maps.create(MapDef::hash("begin", 8, p.snap_words() * 8, 1024));
    let done = maps.create(MapDef::hash("done", 8, p.done_words() * 8, 256));
    let ring = maps.create(MapDef::perf_event_array("ring", 64));
    Triple {
        begin: gen_begin(p, depth, begin_map),
        end: gen_end(p, depth, begin_map, done),
        features: gen_features(p, done, ring),
        maps,
        ring,
    }
}

/// Drive one begin/end/features cycle, returning the drained sample
/// records plus per-program executed-instruction counts.
fn drive(triple: &mut Triple, progs: [&[Insn]; 3]) -> (Vec<Vec<u8>>, [u64; 3]) {
    let ctx = encode_ctx(5, 42, 1, 0, &[77, 88, 99]);
    let mut world = NullWorld {
        time_ns: 100,
        pid_tgid: 42,
    };
    let mut executed = [0u64; 3];
    let (r0, s) = Vm::run(progs[0], &ctx, &mut triple.maps, &mut world).expect("begin runs");
    assert_eq!(r0, 0);
    executed[0] = s.insns;
    world.time_ns = 600;
    let (r0, s) = Vm::run(progs[1], &ctx, &mut triple.maps, &mut world).expect("end runs");
    assert_eq!(r0, 0);
    executed[1] = s.insns;
    let (r0, s) = Vm::run(progs[2], &ctx, &mut triple.maps, &mut world).expect("features runs");
    assert_eq!(r0, 0);
    executed[2] = s.insns;
    (triple.maps.ring_drain(triple.ring, 16), executed)
}

#[test]
fn collector_programs_emit_bit_identical_samples_with_fewer_executed_insns() {
    // Per-pass activity summed over all 24 shipped programs.
    let mut fired = OptStats::default();
    for bits in 0u8..8 {
        let p = ProbeLayout {
            cpu: bits & 1 != 0,
            disk: bits & 2 != 0,
            net: bits & 4 != 0,
        };
        let mut plain = collector_triple(&p);
        // `optimize` erring is exactly what the Loader counts as a
        // fallback, so these three `expect`s are "zero opt_fallbacks".
        let ob = optimize(&plain.begin, &plain.maps, CTX_BYTES).expect("begin optimizes");
        let oe = optimize(&plain.end, &plain.maps, CTX_BYTES).expect("end optimizes");
        let of = optimize(&plain.features, &plain.maps, CTX_BYTES).expect("features optimizes");
        // The pipeline re-verifies its own output; verify again here so
        // the contract does not rest on that backstop alone.
        for (name, o) in [("begin", &ob), ("end", &oe), ("features", &of)] {
            fired.absorb(&o.stats);
            verify(&o.insns, &plain.maps, CTX_BYTES)
                .unwrap_or_else(|e| panic!("optimized {name} for {p:?} does not re-verify: {e}"));
        }

        let (samples_plain, exec_plain) = {
            let progs = [
                plain.begin.clone(),
                plain.end.clone(),
                plain.features.clone(),
            ];
            drive(&mut plain, [&progs[0], &progs[1], &progs[2]])
        };
        let mut optimized = collector_triple(&p);
        let (samples_opt, exec_opt) = drive(&mut optimized, [&ob.insns, &oe.insns, &of.insns]);

        assert_eq!(
            samples_plain, samples_opt,
            "sample bytes differ for layout {p:?}"
        );
        assert_eq!(samples_plain.len(), 1, "one sample per cycle");

        // Map state after the cycle matches too (depth/begin/done maps).
        for id in 0..plain.maps.len() as u32 {
            assert_eq!(
                plain.maps.dump(MapId(id)),
                optimized.maps.dump(MapId(id)),
                "map {id} differs for layout {p:?}"
            );
        }

        for (name, (before, after)) in ["begin", "end", "features"]
            .iter()
            .zip(exec_plain.iter().zip(exec_opt.iter()))
        {
            let reduction = 100.0 * (*before as f64 - *after as f64) / *before as f64;
            println!("{p:?} {name}: executed {before} -> {after} ({reduction:.1}% fewer)");
            assert!(after <= before, "{name} for {p:?} pessimized");
            // The paper-motivated bar applies to programs that loop over
            // what they snapshot; a BEGIN without the CPU probe (disk and
            // net snapshots are one helper call each) and the no-probe
            // END are ~30-insn bookkeeping stubs with nothing to shave.
            let loops = p.cpu || (*name != "begin" && (p.disk || p.net));
            if loops {
                assert!(
                    reduction >= 15.0,
                    "{name} for {p:?} shrank only {reduction:.1}% ({before} -> {after} executed)"
                );
            }
        }
    }
    // The pipeline carries only passes the shipped programs reach: a
    // pass codegen no longer feeds is dead weight in every load.
    for (i, name) in PASS_NAMES.iter().enumerate() {
        let (removed, rewritten) = (fired.removed[i], fired.rewritten[i]);
        println!("pass {name}: {removed} removed, {rewritten} rewritten over 24 programs");
        assert!(
            removed + rewritten > 0,
            "pass {name} fires on no shipped collector program"
        );
    }
}

/// The optimizer-on loader path and the optimizer-off loader path
/// produce the same observable state for the collector triple — the
/// wiring (not just the passes) preserves samples.
#[test]
fn loader_level_toggle_is_observationally_neutral() {
    use tscout_suite::bpf::Loader;
    let p = ProbeLayout {
        cpu: true,
        disk: true,
        net: true,
    };
    let mut rings = Vec::new();
    for optimize_on in [false, true] {
        let mut loader = Loader::new();
        loader.set_optimize(optimize_on);
        let depth = loader.maps.create(MapDef::hash("depth", 8, 8, 256));
        let begin_map = loader
            .maps
            .create(MapDef::hash("begin", 8, p.snap_words() * 8, 1024));
        let done = loader
            .maps
            .create(MapDef::hash("done", 8, p.done_words() * 8, 256));
        let ring = loader.maps.create(MapDef::perf_event_array("ring", 64));
        let b = loader
            .load("begin", gen_begin(&p, depth, begin_map), CTX_BYTES)
            .expect("begin loads");
        let e = loader
            .load("end", gen_end(&p, depth, begin_map, done), CTX_BYTES)
            .expect("end loads");
        let f = loader
            .load("features", gen_features(&p, done, ring), CTX_BYTES)
            .expect("features loads");
        if optimize_on {
            assert_eq!(loader.opt_fallbacks(), 0, "no fallbacks on real programs");
            assert!(loader.opt_totals().removed_total() > 0);
        }
        let ctx = encode_ctx(5, 42, 1, 0, &[77, 88, 99]);
        let mut world = NullWorld {
            time_ns: 100,
            pid_tgid: 42,
        };
        assert_eq!(loader.run(b, &ctx, &mut world).unwrap().0, 0);
        world.time_ns = 600;
        assert_eq!(loader.run(e, &ctx, &mut world).unwrap().0, 0);
        assert_eq!(loader.run(f, &ctx, &mut world).unwrap().0, 0);
        rings.push(loader.maps.ring_drain(ring, 16));
    }
    assert_eq!(rings[0], rings[1], "loader toggle changed sample bytes");
}
