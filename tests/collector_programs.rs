//! The generated Collector programs, pinned instruction for instruction.
//!
//! `tests/golden/collector_programs.txt` holds one line per
//! `ProbeLayout` × {begin, end, features}: instruction count and the
//! `crc32` of the stream's disassembly. It was written from
//! `LoadedProg.insns` by the commit before codegen started emitting the
//! flat streams itself, so it is the proof that deleting the load-time
//! pass pipeline changed no program that runs. The virtual clock charges
//! per *executed* instruction, so a changed line here moves every seeded
//! figure — regenerate the file only for an intended program change, by
//! printing `lines` from the test below.

use tscout_suite::archive::crc32;
use tscout_suite::bpf::insn::{disassemble, Helper, Insn};
use tscout_suite::bpf::maps::{MapId, MapKind};
use tscout_suite::bpf::verify;
use tscout_suite::bpf::vm::NullWorld;
use tscout_suite::tscout::codegen::{encode_ctx, CTX_BYTES};

mod common;
use common::{deploy, layouts, PROGRAMS};

#[test]
fn codegen_emits_the_pinned_streams_and_the_loader_stores_them_unchanged() {
    let mut lines = String::new();
    for (name, p) in layouts() {
        let (loader, generated, ids) = deploy(&p);
        for ((prog, insns), id) in PROGRAMS.iter().zip(&generated).zip(ids) {
            let crc = crc32(disassemble(insns).as_bytes());
            lines.push_str(&format!(
                "{name} {prog} insns={} crc32={crc:08x}\n",
                insns.len()
            ));
            assert_eq!(
                &loader.get(id).expect("loaded").insns,
                insns,
                "{name} {prog}: the program that runs is not the program that was generated"
            );
        }
    }
    assert_eq!(
        lines,
        include_str!("golden/collector_programs.txt"),
        "generated programs changed (left: this build, right: tests/golden/collector_programs.txt)"
    );
}

/// Every generated stream verifies with each instruction visited once:
/// no arm of a Collector branch is statically dead, so knowing only
/// constants costs the verifier nothing on the programs that run.
#[test]
fn every_stream_verifies_visiting_every_instruction() {
    for (name, p) in layouts() {
        let (loader, generated, _) = deploy(&p);
        for (prog, insns) in PROGRAMS.iter().zip(&generated) {
            let stats = verify(insns, &loader.maps, CTX_BYTES).expect("deploy loaded it");
            assert_eq!(stats.insns_visited, insns.len(), "{name} {prog}");
        }
    }
}

/// The substrate carries the mechanisms the Collector exercises and no
/// others: every helper is called by some generated program, and every
/// map kind is created by a deployment.
#[test]
fn the_isa_offers_the_helpers_and_map_kinds_the_collector_uses() {
    let mut called = Vec::new();
    // One slot per `MapKind` variant; the match below has no wildcard.
    let mut created = [false; 2];
    for (_, p) in layouts() {
        let (loader, generated, _) = deploy(&p);
        for insn in generated.iter().flatten() {
            if let Insn::Call { helper } = insn {
                assert!(Helper::ALL.contains(helper), "{helper:?} not in ALL");
                called.push(*helper);
            }
        }
        for id in 0..loader.maps.len() {
            let def = loader.maps.def(MapId(id as u32)).expect("created above");
            created[match def.kind {
                MapKind::Hash { .. } => 0,
                MapKind::PerfEventArray { .. } => 1,
            }] = true;
        }
    }
    for helper in Helper::ALL {
        assert!(
            called.contains(&helper),
            "no generated program calls {helper:?}"
        );
    }
    assert_eq!(created, [true; 2], "a map kind no deployment creates");
}

/// `bpf.vm_insns_per_triple` = 636: what one sampled marker triple costs
/// on the virtual clock with every probe on — and the 161 ops a triple
/// dispatches from the 640-instruction streams, which is what it costs on
/// the wall clock (FEATURES' two copy loops and END's two Δ loops are one
/// run op each, a guard whose covered ops a taken run skips and only a
/// refused one falls into). A codegen edit that stops matching a fused shape (`mov
/// d, b; add d, imm`, then the 8-byte load or store through `d`, a run
/// of such word copies, or a loop of Δ blocks) moves the second count
/// and not the first.
#[test]
fn all_probes_triple_executes_636_instructions() {
    let (mut loader, generated, ids) = deploy(&layouts()[7].1);
    assert_eq!(generated.each_ref().map(Vec::len), [67, 264, 309]);
    let lowered = ids.map(|id| loader.get(id).expect("loaded").lowered_ops());
    assert_eq!(lowered, [53, 70, 38]);
    let ctx = encode_ctx(5, 42, 1, 0, &[77, 88, 99]);
    let mut world = NullWorld { time_ns: 100 };
    let mut triple = || {
        ids.map(|id| {
            let (r0, stats) = loader.run(id, &ctx, &mut world).expect("runs");
            assert_eq!(r0, 0);
            stats.insns
        })
    };
    // The thread's first BEGIN finds no depth entry and skips one load.
    assert_eq!(triple(), [66, 262, 307]);
    assert_eq!(triple(), [67, 262, 307]);
}
