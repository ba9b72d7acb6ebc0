//! Codegen: turns marker metadata into BPF Collector programs (paper §3.1).
//!
//! "After the developer adds markers to the DBMS's source code, TS extracts
//! their embedded metadata [...] TS then generates the source code for a
//! BPF program to create the Collector component." Our codegen skips the
//! C-source intermediate and emits bytecode for the `tscout-bpf` VM
//! directly. Codegen runs per deployment with the concrete
//! [`ProbeLayout`], so every trip count and slot offset is a Rust value
//! here: per-counter work is a plain `for` loop that emits one
//! straight-line copy per slot. The stream returned is verified as
//! submitted and lowered by the loader (`tscout_bpf::lower`) without
//! dropping or reordering an instruction: every one still executes and
//! is still charged, but the adjacent pairs `rebase` and `fp_ptr` emit —
//! `mov d, b; add d, imm`, and the 8-byte load or store through `d`
//! right behind them — run as one fused op, and FEATURES' word-copy
//! loops (two rebased pairs per word, the displacement stepping by 8)
//! run as one copy-run op per loop. `tests/collector_programs.rs` pins
//! the streams instruction for instruction
//! (`tests/golden/collector_programs.txt`) and the lowered op counts
//! beside them, so an edit here that stops matching a fused shape fails
//! a test, not a benchmark.
//!
//! Three programs are generated per subsystem:
//!
//! * **BEGIN** — snapshots the enabled probes into the *begin* map, keyed
//!   by `(tid, depth)`. The depth counter makes nested/recursive OUs work
//!   (paper §5.2): a second `BEGIN` from the same thread pushes a deeper
//!   snapshot instead of clobbering the first.
//! * **END** — pops the matching snapshot, re-reads the probes, computes
//!   normalized deltas (including the perf multiplexing normalization of
//!   §4.1, done in integer math: `Δvalue · Δenabled / Δrunning`), and
//!   parks them in the *done* map keyed by tid.
//! * **FEATURES** — merges the done-map metrics with the feature payload
//!   from the marker context and publishes the finished sample to the
//!   perf ring buffer via `perf_event_output`.
//!
//! Each program returns 0 on success and 1 when markers arrive out of
//! order (END without BEGIN, FEATURES without END) — the Collector's
//! strict state machine (§5.1): the user-space side counts the error and
//! discards intermediate state.

use crate::data::{HEADER_WORDS, MAX_PAYLOAD_WORDS};
use tscout_bpf::asm::ProgramBuilder;
use tscout_bpf::insn::{self, AluOp, Cond, Helper, Size};
use tscout_bpf::{Insn, MapId};

use insn::{R0, R1, R10, R2, R3, R4, R5, R6, R7, R8, R9};

/// Which kernel-level probes a subsystem collects (paper Fig. 3: the
/// developer ticks CPU/memory/disk/network per subsystem). Memory is
/// always a *user-level* probe (§4.2) and therefore has no kernel flag:
/// its values arrive in the FEATURES payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeLayout {
    pub cpu: bool,
    pub disk: bool,
    pub net: bool,
}

/// Number of perf counters the CPU probe reads.
pub const CPU_COUNTERS: usize = 7;
/// Words per counter in a snapshot: value, time_enabled, time_running.
const SNAP_WORDS_PER_COUNTER: usize = 3;

impl ProbeLayout {
    /// Snapshot words: ktime + 3 per counter + 4 io + 4 net.
    pub fn snap_words(&self) -> usize {
        1 + if self.cpu {
            CPU_COUNTERS * SNAP_WORDS_PER_COUNTER
        } else {
            0
        } + if self.disk { 4 } else { 0 }
            + if self.net { 4 } else { 0 }
    }

    /// Word offset of the disk block within a snapshot.
    fn disk_word(&self) -> usize {
        1 + if self.cpu {
            CPU_COUNTERS * SNAP_WORDS_PER_COUNTER
        } else {
            0
        }
    }

    /// Word offset of the net block within a snapshot.
    fn net_word(&self) -> usize {
        self.disk_word() + if self.disk { 4 } else { 0 }
    }

    /// Metric words in the finished record: 7 CPU + 4 disk + 4 net.
    pub fn metric_words(&self) -> usize {
        (if self.cpu { CPU_COUNTERS } else { 0 })
            + if self.disk { 4 } else { 0 }
            + if self.net { 4 } else { 0 }
    }

    /// Done-map value words: start, elapsed, then metrics.
    pub fn done_words(&self) -> usize {
        2 + self.metric_words()
    }

    /// Human-readable metric names, in record order.
    pub fn metric_names(&self) -> Vec<&'static str> {
        let mut names = Vec::new();
        if self.cpu {
            names.extend([
                "cpu_cycles",
                "instructions",
                "ref_cycles",
                "cache_references",
                "cache_misses",
                "branches",
                "branch_misses",
            ]);
        }
        if self.disk {
            names.extend([
                "disk_read_bytes",
                "disk_write_bytes",
                "disk_read_sys",
                "disk_write_sys",
            ]);
        }
        if self.net {
            names.extend([
                "net_bytes_sent",
                "net_bytes_recv",
                "net_segs_out",
                "net_segs_in",
            ]);
        }
        names
    }
}

/// Marker-context layout (the tracepoint arguments serialized for BPF):
/// words `[ou, tid, subsystem, flags, n_payload, payload × 32]`.
pub const CTX_WORDS: usize = 5 + MAX_PAYLOAD_WORDS;
/// Declared BPF context size in bytes.
pub const CTX_BYTES: usize = CTX_WORDS * 8;

/// Serialize a marker context for the Collector programs into `out`
/// (payload words beyond [`MAX_PAYLOAD_WORDS`] are dropped).
pub fn encode_ctx_into(
    out: &mut [u8; CTX_BYTES],
    ou: u64,
    tid: u64,
    subsystem: u64,
    flags: u64,
    payload: &[u64],
) {
    let n = payload.len().min(MAX_PAYLOAD_WORDS);
    let header = [ou, tid, subsystem, flags, n as u64];
    let words = header.iter().chain(&payload[..n]);
    let mut chunks = out.chunks_exact_mut(8);
    for (chunk, w) in chunks.by_ref().zip(words) {
        chunk.copy_from_slice(&w.to_le_bytes());
    }
    for chunk in chunks {
        chunk.fill(0);
    }
}

/// [`encode_ctx_into`] a fresh buffer.
pub fn encode_ctx(ou: u64, tid: u64, subsystem: u64, flags: u64, payload: &[u64]) -> Vec<u8> {
    let mut out = [0u8; CTX_BYTES];
    encode_ctx_into(&mut out, ou, tid, subsystem, flags, payload);
    out.to_vec()
}

// Stack frame offsets shared by the generated programs.
const OFF_TID_KEY: i32 = -8; // 8-byte map key: tid
const OFF_BKEY: i32 = -16; // 8-byte begin-map key: (tid << 8) | depth
const OFF_SCRATCH: i32 = -24; // 8-byte scratch value (depth writeback)

/// The bytes of `words` stack words, as a frame offset.
// Fits: every layout here is a few dozen words of a 512-byte frame.
#[allow(clippy::cast_possible_truncation)]
fn word_bytes(words: usize) -> i32 {
    words as i32 * 8
}

fn snap_base(probes: &ProbeLayout) -> i32 {
    -(24 + word_bytes(probes.snap_words()))
}

fn snap_off(probes: &ProbeLayout, word: usize) -> i32 {
    snap_base(probes) + word_bytes(word)
}

/// `base` displaced by `bytes`, as the base register of one slot's loads
/// and stores: `base` itself for slot 0, else `scratch = base + bytes`.
///
/// Folding `bytes` into each access's displacement instead would drop the
/// two instructions per rebased pointer (636 → ~392 executed per
/// all-probes triple), but the virtual clock charges per executed
/// instruction, so that moves every seeded golden, figure and sample
/// byte: it is a change of its own. Until then this is the pinned shape
/// — and the one the loader's lowering fuses, so the pair costs one
/// dispatch on the wall clock while still counting two instructions, and
/// a loop of word copies through two of them (FEATURES) costs one
/// dispatch and one range check for the whole loop.
fn rebase(b: &mut ProgramBuilder, scratch: insn::Reg, base: insn::Reg, bytes: usize) -> insn::Reg {
    if bytes == 0 {
        return base;
    }
    b.mov_reg(scratch, base);
    b.alu_imm(AluOp::Add, scratch, bytes as i64);
    scratch
}

/// Emit the probe-snapshot block: ktime + enabled probes onto the stack.
/// Clobbers R0–R5; preserves R6–R9.
fn emit_snapshot(b: &mut ProgramBuilder, probes: &ProbeLayout) {
    b.call(Helper::KtimeGetNs);
    b.store_reg(Size::B8, R10, snap_off(probes, 0), R0);
    if probes.cpu {
        // The helper clobbers R1–R5, so both arguments are rebuilt per
        // counter; its 24-byte out-buffer slides with the index.
        for i in 0..CPU_COUNTERS {
            b.mov_imm(R1, i as i64);
            fp_ptr(b, R2, snap_off(probes, 1 + i * SNAP_WORDS_PER_COUNTER));
            b.call(Helper::PerfEventReadBuf);
        }
    }
    if probes.disk {
        fp_ptr(b, R1, snap_off(probes, probes.disk_word()));
        b.call(Helper::ReadTaskIo);
    }
    if probes.net {
        fp_ptr(b, R1, snap_off(probes, probes.net_word()));
        b.call(Helper::ReadTcpSock);
    }
}

/// Load `tid` from the context into R6 and store it as the tid map key.
fn emit_tid_key(b: &mut ProgramBuilder) {
    b.load(Size::B8, R6, R1, 8); // ctx word 1 = tid
    b.store_reg(Size::B8, R10, OFF_TID_KEY, R6);
}

/// `R2 = fp + off` (pointer argument setup).
fn fp_ptr(b: &mut ProgramBuilder, reg: insn::Reg, off: i32) {
    b.mov_reg(reg, R10);
    b.alu_imm(AluOp::Add, reg, off as i64);
}

/// Generate the BEGIN program.
pub fn gen_begin(probes: &ProbeLayout, depth_map: MapId, begin_map: MapId) -> Vec<Insn> {
    let mut b = ProgramBuilder::new();
    emit_tid_key(&mut b);

    // R7 = current depth (0 when absent).
    b.load_map(R1, depth_map);
    fp_ptr(&mut b, R2, OFF_TID_KEY);
    b.call(Helper::MapLookup);
    b.mov_imm(R7, 0);
    let no_depth = b.label();
    b.jump_if_imm(Cond::Eq, R0, 0, no_depth);
    b.load(Size::B8, R7, R0, 0);
    b.bind(no_depth);

    emit_snapshot(&mut b, probes);

    // bkey = (tid << 8) | depth.
    b.mov_reg(R8, R6);
    b.alu_imm(AluOp::Lsh, R8, 8);
    b.alu_reg(AluOp::Or, R8, R7);
    b.store_reg(Size::B8, R10, OFF_BKEY, R8);

    // begin[bkey] = snapshot.
    b.load_map(R1, begin_map);
    fp_ptr(&mut b, R2, OFF_BKEY);
    fp_ptr(&mut b, R3, snap_base(probes));
    b.mov_imm(R4, 0);
    b.call(Helper::MapUpdate);

    // depth[tid] = depth + 1.
    b.alu_imm(AluOp::Add, R7, 1);
    b.store_reg(Size::B8, R10, OFF_SCRATCH, R7);
    b.load_map(R1, depth_map);
    fp_ptr(&mut b, R2, OFF_TID_KEY);
    fp_ptr(&mut b, R3, OFF_SCRATCH);
    b.mov_imm(R4, 0);
    b.call(Helper::MapUpdate);

    b.mov_imm(R0, 0);
    b.exit();
    b.resolve()
        .expect("begin codegen produced invalid assembly")
}

/// Generate the END program.
pub fn gen_end(
    probes: &ProbeLayout,
    depth_map: MapId,
    begin_map: MapId,
    done_map: MapId,
) -> Vec<Insn> {
    let done_base = snap_base(probes) - word_bytes(probes.done_words());
    let done_off = |w: usize| done_base + word_bytes(w);

    let mut b = ProgramBuilder::new();
    let err = b.label();
    emit_tid_key(&mut b);

    // depth must exist and be > 0.
    b.load_map(R1, depth_map);
    fp_ptr(&mut b, R2, OFF_TID_KEY);
    b.call(Helper::MapLookup);
    b.jump_if_imm(Cond::Eq, R0, 0, err);
    b.load(Size::B8, R7, R0, 0);
    b.jump_if_imm(Cond::Eq, R7, 0, err);
    b.alu_imm(AluOp::Sub, R7, 1);
    b.store_reg(Size::B8, R10, OFF_SCRATCH, R7);
    b.load_map(R1, depth_map);
    fp_ptr(&mut b, R2, OFF_TID_KEY);
    fp_ptr(&mut b, R3, OFF_SCRATCH);
    b.mov_imm(R4, 0);
    b.call(Helper::MapUpdate);

    // bkey and snapshot lookup.
    b.mov_reg(R8, R6);
    b.alu_imm(AluOp::Lsh, R8, 8);
    b.alu_reg(AluOp::Or, R8, R7);
    b.store_reg(Size::B8, R10, OFF_BKEY, R8);
    b.load_map(R1, begin_map);
    fp_ptr(&mut b, R2, OFF_BKEY);
    b.call(Helper::MapLookup);
    b.jump_if_imm(Cond::Eq, R0, 0, err);
    b.mov_reg(R8, R0); // R8 = begin snapshot pointer

    // Fresh snapshot of the probes.
    emit_snapshot(&mut b, probes);

    // done[0] = start; done[1] = now - start.
    b.load(Size::B8, R2, R8, 0);
    b.store_reg(Size::B8, R10, done_off(0), R2);
    b.load(Size::B8, R3, R10, snap_off(probes, 0));
    b.alu_reg(AluOp::Sub, R3, R2);
    b.store_reg(Size::B8, R10, done_off(1), R3);

    let mut done_w = 2usize;
    if probes.cpu {
        // Per counter i: the done slot (stride 8) and the fresh/begin
        // counter blocks (stride 24). No helper calls, so R0–R5 are free.
        for i in 0..CPU_COUNTERS {
            let block = i * SNAP_WORDS_PER_COUNTER * 8;
            let done = rebase(&mut b, R1, R10, i * 8);
            let fresh = rebase(&mut b, R3, R10, block);
            let begin = rebase(&mut b, R4, R8, block);
            // Δvalue
            b.load(Size::B8, R0, fresh, snap_off(probes, 1));
            b.load(Size::B8, R5, begin, 8);
            b.alu_reg(AluOp::Sub, R0, R5);
            // Δenabled
            b.load(Size::B8, R2, fresh, snap_off(probes, 2));
            b.load(Size::B8, R5, begin, 16);
            b.alu_reg(AluOp::Sub, R2, R5);
            b.alu_reg(AluOp::Mul, R0, R2);
            // Δrunning
            b.load(Size::B8, R2, fresh, snap_off(probes, 3));
            b.load(Size::B8, R5, begin, 24);
            b.alu_reg(AluOp::Sub, R2, R5);
            // normalized = Δvalue · Δenabled / Δrunning (0 when Δrunning = 0)
            b.alu_reg(AluOp::Div, R0, R2);
            b.store_reg(Size::B8, done, done_off(2), R0);
        }
        done_w += CPU_COUNTERS;
    }
    // The disk and net blocks are contiguous in both the snapshot and the
    // done record, so one loop covers whichever subset is enabled.
    let io_words = if probes.disk { 4 } else { 0 } + if probes.net { 4 } else { 0 };
    let first_word = probes.disk_word();
    for k in 0..io_words {
        let fresh = rebase(&mut b, R1, R10, k * 8);
        let begin = rebase(&mut b, R2, R8, k * 8);
        b.load(Size::B8, R3, fresh, snap_off(probes, first_word));
        b.load(Size::B8, R4, begin, word_bytes(first_word));
        b.alu_reg(AluOp::Sub, R3, R4);
        b.store_reg(Size::B8, fresh, done_off(done_w), R3);
    }
    done_w += io_words;
    debug_assert_eq!(done_w, probes.done_words());

    // done[tid] = deltas; delete begin[bkey].
    b.load_map(R1, done_map);
    fp_ptr(&mut b, R2, OFF_TID_KEY);
    fp_ptr(&mut b, R3, done_base);
    b.mov_imm(R4, 0);
    b.call(Helper::MapUpdate);
    b.load_map(R1, begin_map);
    fp_ptr(&mut b, R2, OFF_BKEY);
    b.call(Helper::MapDelete);

    b.mov_imm(R0, 0);
    b.exit();
    b.bind(err);
    b.mov_imm(R0, 1);
    b.exit();
    b.resolve().expect("end codegen produced invalid assembly")
}

/// Generate the FEATURES program. `probes` must match the layout used
/// for BEGIN/END.
pub fn gen_features(probes: &ProbeLayout, done_map: MapId, ring_map: MapId) -> Vec<Insn> {
    let m = probes.metric_words();
    let rec_words = HEADER_WORDS + m + MAX_PAYLOAD_WORDS;
    let rec_bytes = rec_words * 8;
    let rec_base = -(8 + word_bytes(rec_words));
    let rec_off = |w: usize| rec_base + word_bytes(w);

    let mut b = ProgramBuilder::new();
    let err = b.label();

    b.mov_reg(R9, R1); // preserve ctx pointer across calls
    emit_tid_key(&mut b);

    b.load_map(R1, done_map);
    fp_ptr(&mut b, R2, OFF_TID_KEY);
    b.call(Helper::MapLookup);
    b.jump_if_imm(Cond::Eq, R0, 0, err);
    // R0 = done-map deltas: no helper runs before the last read of them.

    // Header: ou, tid, subsystem, flags, start, elapsed, M, n_payload.
    for (rec_w, ctx_byte) in [(0usize, 0i32), (2, 16), (3, 24), (7, 32)] {
        b.load(Size::B8, R2, R9, ctx_byte);
        b.store_reg(Size::B8, R10, rec_off(rec_w), R2);
    }
    b.store_reg(Size::B8, R10, rec_off(1), R6);
    b.load(Size::B8, R2, R0, 0);
    b.store_reg(Size::B8, R10, rec_off(4), R2);
    b.load(Size::B8, R2, R0, 8);
    b.store_reg(Size::B8, R10, rec_off(5), R2);
    b.store_imm(Size::B8, R10, rec_off(6), m as i64);

    // Metrics from the done map, then the full payload copy (the
    // zero-padded context keeps the latter branch-free). R1–R3 are
    // scratch; R0 = done pointer, R6 = tid, R9 = ctx pointer stay live.
    for i in 0..m {
        let done = rebase(&mut b, R1, R0, i * 8);
        b.load(Size::B8, R2, done, 16); // done[2 + i]
        let rec = rebase(&mut b, R3, R10, i * 8);
        b.store_reg(Size::B8, rec, rec_off(HEADER_WORDS), R2);
    }
    for j in 0..MAX_PAYLOAD_WORDS {
        let ctx = rebase(&mut b, R1, R9, j * 8);
        b.load(Size::B8, R2, ctx, 40); // ctx word 5 + j
        let rec = rebase(&mut b, R3, R10, j * 8);
        b.store_reg(Size::B8, rec, rec_off(HEADER_WORDS + m), R2);
    }

    // Publish and clean up.
    b.load_map(R1, ring_map);
    fp_ptr(&mut b, R2, rec_base);
    b.mov_imm(R3, rec_bytes as i64);
    b.call(Helper::PerfEventOutput);
    b.load_map(R1, done_map);
    fp_ptr(&mut b, R2, OFF_TID_KEY);
    b.call(Helper::MapDelete);

    b.mov_imm(R0, 0);
    b.exit();
    b.bind(err);
    b.mov_imm(R0, 1);
    b.exit();
    b.resolve()
        .expect("features codegen produced invalid assembly")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tscout_bpf::maps::MapDef;
    use tscout_bpf::{verify, MapRegistry};

    fn all_probes() -> ProbeLayout {
        ProbeLayout {
            cpu: true,
            disk: true,
            net: true,
        }
    }

    fn setup(probes: &ProbeLayout) -> (MapRegistry, MapId, MapId, MapId, MapId) {
        let mut maps = MapRegistry::new();
        let depth = maps.create(MapDef::hash("depth", 8, 8, 256));
        let begin = maps.create(MapDef::hash("begin", 8, probes.snap_words() * 8, 1024));
        let done = maps.create(MapDef::hash("done", 8, probes.done_words() * 8, 256));
        let ring = maps.create(MapDef::perf_event_array("ring", 64));
        (maps, depth, begin, done, ring)
    }

    #[test]
    fn layout_math() {
        let p = all_probes();
        assert_eq!(p.snap_words(), 30); // 1 + 21 + 4 + 4
        assert_eq!(p.metric_words(), 15);
        assert_eq!(p.done_words(), 17);
        assert_eq!(p.metric_names().len(), 15);

        let cpu_only = ProbeLayout {
            cpu: true,
            disk: false,
            net: false,
        };
        assert_eq!(cpu_only.snap_words(), 22);
        assert_eq!(cpu_only.metric_words(), 7);

        let none = ProbeLayout {
            cpu: false,
            disk: false,
            net: false,
        };
        assert_eq!(none.snap_words(), 1);
        assert_eq!(none.metric_words(), 0);
    }

    #[test]
    fn generated_programs_pass_the_verifier_all_probe_combos() {
        for cpu in [false, true] {
            for disk in [false, true] {
                for net in [false, true] {
                    let p = ProbeLayout { cpu, disk, net };
                    let (maps, depth, begin, done, ring) = setup(&p);
                    for (name, prog) in [
                        ("begin", gen_begin(&p, depth, begin)),
                        ("end", gen_end(&p, depth, begin, done)),
                        ("features", gen_features(&p, done, ring)),
                    ] {
                        verify(&prog, &maps, CTX_BYTES).unwrap_or_else(|e| {
                            panic!(
                                "{name} (cpu={cpu},disk={disk},net={net}) rejected: {e}\n{}",
                                tscout_bpf::insn::disassemble(&prog)
                            )
                        });
                    }
                }
            }
        }
    }

    #[test]
    fn programs_are_hundreds_of_instructions() {
        // Paper §5.1: "compiled BPF programs only contain 100s of
        // instructions" — sanity-check we are in the same regime.
        let p = all_probes();
        let (_, depth, begin, done, ring) = setup(&p);
        let lens = [
            gen_begin(&p, depth, begin).len(),
            gen_end(&p, depth, begin, done).len(),
            gen_features(&p, done, ring).len(),
        ];
        for l in lens {
            assert!(l > 20 && l < 1000, "unexpected program size {l}");
        }
    }

    #[test]
    fn ctx_encode_layout() {
        let ctx = encode_ctx(7, 3, 2, 0, &[11, 22]);
        assert_eq!(ctx.len(), CTX_BYTES);
        let word = |i: usize| u64::from_le_bytes(ctx[i * 8..(i + 1) * 8].try_into().unwrap());
        assert_eq!(word(0), 7);
        assert_eq!(word(1), 3);
        assert_eq!(word(2), 2);
        assert_eq!(word(3), 0);
        assert_eq!(word(4), 2);
        assert_eq!(word(5), 11);
        assert_eq!(word(6), 22);
        assert_eq!(word(7), 0); // zero padding
    }

    #[test]
    fn ctx_encode_clamps_payload() {
        let big = vec![9u64; 100];
        let ctx = encode_ctx(0, 0, 0, 0, &big);
        let n = u64::from_le_bytes(ctx[32..40].try_into().unwrap());
        assert_eq!(n, MAX_PAYLOAD_WORDS as u64);
    }

    #[test]
    fn end_without_begin_returns_error_code() {
        use tscout_bpf::vm::{NullWorld, Vm};
        let p = all_probes();
        let (mut maps, depth, begin, done, _ring) = setup(&p);
        let prog = gen_end(&p, depth, begin, done);
        let ctx = encode_ctx(1, 42, 0, 0, &[]);
        let mut world = NullWorld::default();
        let (r0, _) = Vm::run(&prog, &ctx, &mut maps, &mut world).unwrap();
        assert_eq!(r0, 1, "END without BEGIN must signal a state-machine error");
    }

    #[test]
    fn begin_end_features_round_trip_through_vm() {
        use crate::data::decode_record;
        use tscout_bpf::vm::{NullWorld, Vm};
        let p = all_probes();
        let (mut maps, depth, begin, done, ring) = setup(&p);
        let b_prog = gen_begin(&p, depth, begin);
        let e_prog = gen_end(&p, depth, begin, done);
        let f_prog = gen_features(&p, done, ring);
        let ctx = encode_ctx(5, 42, 1, 0, &[77, 88]);
        let mut world = NullWorld { time_ns: 100 };
        let (r0, _) = Vm::run(&b_prog, &ctx, &mut maps, &mut world).unwrap();
        assert_eq!(r0, 0);
        world.time_ns = 600;
        let (r0, _) = Vm::run(&e_prog, &ctx, &mut maps, &mut world).unwrap();
        assert_eq!(r0, 0);
        let (r0, _) = Vm::run(&f_prog, &ctx, &mut maps, &mut world).unwrap();
        assert_eq!(r0, 0);

        let recs = maps.ring_drain(ring, 10);
        assert_eq!(recs.len(), 1);
        let rec = decode_record(&recs[0]).unwrap();
        assert_eq!(rec.ou, 5);
        assert_eq!(rec.tid, 42);
        assert_eq!(rec.subsystem, 1);
        assert_eq!(rec.start_ns, 100);
        assert_eq!(rec.elapsed_ns, 500);
        assert_eq!(rec.metrics.len(), 15);
        assert_eq!(rec.payload, vec![77, 88]);
        // Depth returned to zero; maps drained.
        assert_eq!(
            maps.lookup(depth, &42u64.to_le_bytes()).unwrap(),
            &0u64.to_le_bytes()
        );
        assert_eq!(maps.entries(begin), 0);
        assert_eq!(maps.entries(done), 0);
    }

    #[test]
    fn nested_ous_use_depth_keys() {
        use tscout_bpf::vm::{NullWorld, Vm};
        let p = ProbeLayout {
            cpu: false,
            disk: false,
            net: false,
        };
        let (mut maps, depth, begin, done, ring) = setup(&p);
        let b_prog = gen_begin(&p, depth, begin);
        let e_prog = gen_end(&p, depth, begin, done);
        let f_prog = gen_features(&p, done, ring);
        let ctx = encode_ctx(1, 9, 0, 0, &[]);
        let mut world = NullWorld { time_ns: 0 };

        // B1 (t=0) B2 (t=10) E2 (t=30) F2 E1 (t=100) F1
        Vm::run(&b_prog, &ctx, &mut maps, &mut world).unwrap();
        world.time_ns = 10;
        Vm::run(&b_prog, &ctx, &mut maps, &mut world).unwrap();
        assert_eq!(maps.entries(begin), 2);
        world.time_ns = 30;
        let (r0, _) = Vm::run(&e_prog, &ctx, &mut maps, &mut world).unwrap();
        assert_eq!(r0, 0);
        Vm::run(&f_prog, &ctx, &mut maps, &mut world).unwrap();
        world.time_ns = 100;
        let (r0, _) = Vm::run(&e_prog, &ctx, &mut maps, &mut world).unwrap();
        assert_eq!(r0, 0);
        Vm::run(&f_prog, &ctx, &mut maps, &mut world).unwrap();

        let recs: Vec<_> = maps
            .ring_drain(ring, 10)
            .iter()
            .map(|r| crate::data::decode_record(r).unwrap())
            .collect();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].elapsed_ns, 20); // inner: 30 - 10
        assert_eq!(recs[1].elapsed_ns, 100); // outer: 100 - 0
    }
}
