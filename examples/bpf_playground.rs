//! The BPF substrate, hands on: assemble a program, watch the loader
//! verify, lower and run it (or the verifier reject it), and disassemble
//! one of TScout's generated Collector programs.
//!
//! ```sh
//! cargo run --release --example bpf_playground
//! ```

use tscout_suite::bpf::asm::ProgramBuilder;
use tscout_suite::bpf::insn::{self, AluOp, Cond, Helper, Size};
use tscout_suite::bpf::maps::MapDef;
use tscout_suite::bpf::vm::NullWorld;
use tscout_suite::bpf::{verify, Loader};
use tscout_suite::tscout::codegen::{gen_features, ProbeLayout, CTX_BYTES};

use insn::{R0, R1, R10, R2, R3, R6};

fn main() {
    let mut loader = Loader::new();
    let counters = loader.maps.create(MapDef::hash("counters", 8, 8, 64));

    // A program that bumps counters[ctx.key] and returns the new value.
    let mut b = ProgramBuilder::new();
    let fresh = b.label();
    let done = b.label();
    b.load(Size::B8, R6, R1, 0); // key from ctx word 0
    b.store_reg(Size::B8, R10, -8, R6);
    b.load_map(R1, counters);
    b.mov_reg(R2, R10);
    b.alu_imm(AluOp::Add, R2, -8);
    b.call(Helper::MapLookup);
    b.jump_if_imm(Cond::Eq, R0, 0, fresh);
    // Existing entry: increment in place through the value pointer.
    b.load(Size::B8, R3, R0, 0);
    b.alu_imm(AluOp::Add, R3, 1);
    b.store_reg(Size::B8, R0, 0, R3);
    b.mov_reg(R0, R3);
    b.jump(done);
    // Missing: insert 1.
    b.bind(fresh);
    b.store_imm(Size::B8, R10, -16, 1);
    b.load_map(R1, counters);
    b.mov_reg(R2, R10);
    b.alu_imm(AluOp::Add, R2, -8);
    b.mov_reg(R3, R10);
    b.alu_imm(AluOp::Add, R3, -16);
    b.mov_imm(insn::R4, 0);
    b.call(Helper::MapUpdate);
    b.mov_imm(R0, 1);
    b.bind(done);
    b.exit();
    let prog = b.resolve().unwrap();

    println!("== hand-written counter program ==");
    print!("{}", insn::disassemble(&prog));
    let id = loader
        .load("counter", prog.clone(), 8)
        .expect("verifier should accept this");
    let lowered = loader.get(id).expect("just loaded").lowered_ops();
    println!(
        "verifier: ACCEPTED; {} instructions lowered to {lowered} ops",
        prog.len()
    );
    let mut world = NullWorld::default();
    for round in 1..=3u64 {
        let ctx = 42u64.to_le_bytes();
        let (r0, stats) = loader.run(id, &ctx, &mut world).unwrap();
        println!(
            "run {round}: counters[42] = {r0} ({} insns executed)",
            stats.insns
        );
        assert_eq!(r0, round);
    }

    // Now break it: dereference the lookup result without a null check.
    println!("\n== the same program without the null check ==");
    let mut b = ProgramBuilder::new();
    b.load(Size::B8, R6, R1, 0);
    b.store_reg(Size::B8, R10, -8, R6);
    b.load_map(R1, counters);
    b.mov_reg(R2, R10);
    b.alu_imm(AluOp::Add, R2, -8);
    b.call(Helper::MapLookup);
    b.load(Size::B8, R0, R0, 0); // boom: possibly-NULL deref
    b.exit();
    let bad = b.resolve().unwrap();
    let err = verify(&bad, &loader.maps, 8).unwrap_err();
    println!("verifier: REJECTED — {err}");

    // Finally, disassemble a TScout-generated Collector program.
    println!("\n== TScout's generated FEATURES program (CPU probe only) ==");
    let probes = ProbeLayout {
        cpu: true,
        disk: false,
        net: false,
    };
    let maps = &mut loader.maps;
    let done_map = maps.create(MapDef::hash("done", 8, probes.done_words() * 8, 256));
    let ring = maps.create(MapDef::perf_event_array("ring", 1024));
    let feat = gen_features(&probes, done_map, ring);
    println!(
        "{} instructions; verifier: {:?}",
        feat.len(),
        verify(&feat, maps, CTX_BYTES)
    );
    for line in insn::disassemble(&feat).lines().take(12) {
        println!("{line}");
    }
    println!("   ... ({} more)", feat.len().saturating_sub(12));
}
