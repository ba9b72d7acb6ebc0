//! The reference interpreter and the memory model both engines share.
//!
//! The kernel JIT-compiles verified bytecode to machine code; the loader
//! here lowers it ([`crate::lower`]) and runs the lowered form.
//! [`Vm::run`] interprets the submitted stream directly and is kept as
//! the executable specification: the lowered engine must return what it
//! returns, bit for bit (`tests/lowered_differential.rs`), and only
//! tests call it. A real BPF JIT *trusts* the verifier for performance;
//! both engines here stay defensive: every memory access is still
//! checked, so a verifier bug surfaces as a [`VmError`] instead of
//! undefined behavior — a property the cross-checking property tests
//! rely on. Every jump goes forward (both engines fault a taken backward
//! one with [`VmError::BackEdge`]), so no instruction runs twice and a
//! run ends within `prog.len()` instructions.
//!
//! ## Memory model
//!
//! Pointers are plain `u64`s in disjoint address windows, so pointer
//! arithmetic works with ordinary ALU instructions:
//!
//! * stack:      `0x1000_0000_0000 ..+ 512` (R10 starts at the top),
//! * context:    `0x2000_0000_0000 ..+ ctx_len` (read-only),
//! * map handles: `0x4000_0000_0000 | map_id` (opaque; only helpers use
//!   them),
//! * map values: `0x5000_0000_0000 + (entry << 32) ..+ value_size`, where
//!   `entry` indexes a per-execution table of `(map, slot, generation)`
//!   pointers created by `map_lookup_elem` — giving BPF's in-place
//!   value-update semantics; a pointer whose key has been deleted stops
//!   resolving ([`VmError::StaleMapValue`]). This window is the topmost
//!   and open-ended: a run makes fewer lookups than it executes
//!   instructions, so no entry's window can reach another region's.

use std::ops::Range;

use crate::insn::{AluOp, Helper, Insn, Reg, Size, Src};
use crate::loader::ProgId;
use crate::maps::{MapError, MapId, MapRegistry, ValueRef};

pub const STACK_BASE: u64 = 0x1000_0000_0000;
pub const STACK_SIZE: usize = 512;
pub const CTX_BASE: u64 = 0x2000_0000_0000;
pub const HANDLE_BASE: u64 = 0x4000_0000_0000;
pub const MAPV_BASE: u64 = 0x5000_0000_0000;

/// Runtime faults. A verified program should never produce one.
/// `BackEdge` is a taken jump with a negative offset; `NoSuchProgram` is
/// [`crate::Loader::run`] given an id that holds no program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    BadAddress { pc: usize, addr: u64 },
    ReadOnly { pc: usize, addr: u64 },
    StaleMapValue { pc: usize },
    BadMapHandle { pc: usize },
    BackEdge { pc: usize },
    PcOutOfBounds { pc: usize },
    BadHelperArgs { pc: usize, helper: Helper },
    NoSuchProgram { id: ProgId },
}

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VmError::BadAddress { pc, addr } => write!(f, "bad address {addr:#x} at pc {pc}"),
            VmError::ReadOnly { pc, addr } => write!(f, "write to read-only {addr:#x} at pc {pc}"),
            VmError::StaleMapValue { pc } => write!(f, "stale map value pointer at pc {pc}"),
            VmError::BadMapHandle { pc } => write!(f, "bad map handle at pc {pc}"),
            VmError::BackEdge { pc } => write!(f, "backward jump taken at pc {pc}"),
            VmError::PcOutOfBounds { pc } => write!(f, "pc {pc} out of bounds"),
            VmError::BadHelperArgs { pc, helper } => {
                write!(f, "bad args for helper {} at pc {pc}", helper.name())
            }
            VmError::NoSuchProgram { id } => write!(f, "no program loaded as id {id}"),
        }
    }
}

impl std::error::Error for VmError {}

/// Counters the caller uses to charge kernel time for the program run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    pub insns: u64,
    pub helper_calls: u64,
    /// Records published via `perf_event_output` during this run.
    pub ring_publishes: u64,
}

/// The kernel facilities helpers read. Implemented by the `tscout` runtime
/// over the simulated kernel; kept as a trait so this crate stays
/// dependency-free and unit-testable with mock worlds.
pub trait HelperWorld {
    /// Current task-local monotonic time in ns.
    fn ktime_ns(&mut self) -> u64;
    /// Read PMU counter `idx`: `[value, time_enabled, time_running]`.
    fn perf_event_read(&mut self, idx: u64) -> Option<[u64; 3]>;
    /// Task I/O accounting: `[read_bytes, write_bytes, read_syscalls, write_syscalls]`.
    fn read_task_io(&mut self) -> [u64; 4];
    /// Socket stats: `[bytes_sent, bytes_received, segs_out, segs_in]`.
    fn read_tcp_sock(&mut self) -> [u64; 4];
}

/// A no-op world for tests.
#[derive(Debug, Default)]
pub struct NullWorld {
    pub time_ns: u64,
}

impl HelperWorld for NullWorld {
    fn ktime_ns(&mut self) -> u64 {
        self.time_ns
    }
    fn perf_event_read(&mut self, idx: u64) -> Option<[u64; 3]> {
        // Wrapping: an unverified program may ask for any counter.
        Some([idx.wrapping_mul(100), 1000, 1000])
    }
    fn read_task_io(&mut self) -> [u64; 4] {
        [0; 4]
    }
    fn read_tcp_sock(&mut self) -> [u64; 4] {
        [0; 4]
    }
}

/// Working memory one program run needs beyond its registers and stack:
/// the staging bytes a helper argument outside the stack is copied
/// through, and the table of live map-value pointers. The lowered
/// engine's caller (the [`crate::Loader`]) keeps one and reuses it from
/// run to run so that no execution allocates; the reference interpreter
/// starts each run with a fresh one.
#[derive(Debug, Default)]
pub struct VmScratch {
    bytes: Vec<u8>,
    /// Live map-value pointers, one per dereference window.
    deref: Vec<ValueRef>,
}

impl VmScratch {
    /// Bytes the staging buffer has ever grown to.
    pub(crate) fn staged_capacity(&self) -> usize {
        self.bytes.capacity()
    }
}

/// Where a helper argument's bytes are for the duration of the call.
enum Arg {
    /// In the stack, where the program put them.
    Stack(Range<usize>),
    /// In the staging buffer, copied there.
    Staged(Range<usize>),
}

impl Arg {
    #[inline(always)]
    fn bytes<'a>(self, stack: &'a [u8; STACK_SIZE], staged: &'a [u8]) -> &'a [u8] {
        match self {
            Arg::Stack(at) => &stack[at],
            Arg::Staged(at) => &staged[at],
        }
    }
}

/// The reference interpreter.
#[derive(Debug)]
pub struct Vm;

/// One run's memory: what [`mem`] and [`mem_mut`] resolve addresses in.
pub(crate) struct Exec<'a> {
    pub(crate) stack: [u8; STACK_SIZE],
    ctx: &'a [u8],
    maps: &'a mut MapRegistry,
    scratch: &'a mut VmScratch,
}

/// The `len` readable bytes at `addr`, wherever the address points.
#[inline(always)]
fn mem<'a>(
    stack: &'a [u8; STACK_SIZE],
    ctx: &'a [u8],
    maps: &'a MapRegistry,
    deref: &[ValueRef],
    pc: usize,
    addr: u64,
    len: usize,
) -> Result<&'a [u8], VmError> {
    if in_window(addr, STACK_BASE, STACK_SIZE as u64, len) {
        let off = (addr - STACK_BASE) as usize;
        return Ok(&stack[off..off + len]);
    }
    if in_window(addr, CTX_BASE, ctx.len() as u64, len) {
        let off = (addr - CTX_BASE) as usize;
        return Ok(&ctx[off..off + len]);
    }
    if let Some((entry, off)) = mapv_decode(addr) {
        let r = deref.get(entry).ok_or(VmError::BadAddress { pc, addr })?;
        let val = maps.value(*r).ok_or(VmError::StaleMapValue { pc })?;
        return off
            .checked_add(len)
            .and_then(|end| val.get(off..end))
            .ok_or(VmError::BadAddress { pc, addr });
    }
    Err(VmError::BadAddress { pc, addr })
}

impl<'a> Exec<'a> {
    /// A zeroed stack and no live map-value pointers.
    pub(crate) fn new(
        ctx: &'a [u8],
        maps: &'a mut MapRegistry,
        scratch: &'a mut VmScratch,
    ) -> Self {
        scratch.deref.clear();
        Exec {
            stack: [0; STACK_SIZE],
            ctx,
            maps,
            scratch,
        }
    }

    /// The `N` bytes at `addr`, by value.
    #[inline(always)]
    fn read<const N: usize>(&self, pc: usize, addr: u64) -> Result<[u8; N], VmError> {
        let bytes = mem(
            &self.stack,
            self.ctx,
            self.maps,
            &self.scratch.deref,
            pc,
            addr,
            N,
        )?;
        Ok(bytes.try_into().expect("mem returns exactly N bytes"))
    }

    /// Sized load, zero-extended. One fixed-width access per size, so
    /// the bounds checks and the copy compile against a constant.
    #[inline(always)]
    pub(crate) fn load(&self, pc: usize, addr: u64, size: Size) -> Result<u64, VmError> {
        Ok(match size {
            Size::B1 => u8::from_le_bytes(self.read(pc, addr)?) as u64,
            Size::B2 => u16::from_le_bytes(self.read(pc, addr)?) as u64,
            Size::B4 => u32::from_le_bytes(self.read(pc, addr)?) as u64,
            Size::B8 => u64::from_le_bytes(self.read(pc, addr)?),
        })
    }

    /// Locate the `len` bytes of a helper argument at `addr`. Bytes that
    /// lie wholly in the stack are used where they are: the stack is a
    /// field of its own, so nothing a map helper does can move or alias
    /// them. Anything else (a map value may live in the very map the
    /// helper is about to mutate) is appended to the staging buffer.
    #[inline(always)]
    fn arg(&mut self, pc: usize, addr: u64, len: usize) -> Result<Arg, VmError> {
        if in_window(addr, STACK_BASE, STACK_SIZE as u64, len) {
            let off = (addr - STACK_BASE) as usize;
            return Ok(Arg::Stack(off..off + len));
        }
        self.stage(pc, addr, len)
    }

    #[cold]
    fn stage(&mut self, pc: usize, addr: u64, len: usize) -> Result<Arg, VmError> {
        let bytes = mem(
            &self.stack,
            self.ctx,
            self.maps,
            &self.scratch.deref,
            pc,
            addr,
            len,
        )?;
        let at = self.scratch.bytes.len();
        self.scratch.bytes.extend_from_slice(bytes);
        Ok(Arg::Staged(at..at + len))
    }

    /// The `len` writable bytes at `addr`.
    #[inline(always)]
    fn mem_mut(&mut self, pc: usize, addr: u64, len: usize) -> Result<&mut [u8], VmError> {
        mem_mut(
            &mut self.stack,
            self.ctx.len(),
            self.maps,
            &self.scratch.deref,
            pc,
            addr,
            len,
        )
    }

    #[inline(always)]
    fn write<const N: usize>(&mut self, pc: usize, addr: u64, v: [u8; N]) -> Result<(), VmError> {
        self.mem_mut(pc, addr, N)?.copy_from_slice(&v);
        Ok(())
    }

    /// Sized store of `v`'s low bytes (fixed-width like [`Exec::load`]).
    #[inline(always)]
    pub(crate) fn store(
        &mut self,
        pc: usize,
        addr: u64,
        size: Size,
        v: u64,
    ) -> Result<(), VmError> {
        match size {
            Size::B1 => self.write(pc, addr, (v as u8).to_le_bytes()),
            Size::B2 => self.write(pc, addr, (v as u16).to_le_bytes()),
            Size::B4 => self.write(pc, addr, (v as u32).to_le_bytes()),
            Size::B8 => self.write(pc, addr, v.to_le_bytes()),
        }
    }
}

/// The `len` writable bytes at `addr` (the context is read-only).
#[inline(always)]
fn mem_mut<'a>(
    stack: &'a mut [u8; STACK_SIZE],
    ctx_len: usize,
    maps: &'a mut MapRegistry,
    deref: &[ValueRef],
    pc: usize,
    addr: u64,
    len: usize,
) -> Result<&'a mut [u8], VmError> {
    if in_window(addr, STACK_BASE, STACK_SIZE as u64, len) {
        let off = (addr - STACK_BASE) as usize;
        return Ok(&mut stack[off..off + len]);
    }
    if in_window(addr, CTX_BASE, ctx_len as u64, len) {
        return Err(VmError::ReadOnly { pc, addr });
    }
    if let Some((entry, off)) = mapv_decode(addr) {
        let r = deref.get(entry).ok_or(VmError::BadAddress { pc, addr })?;
        let val = maps.value_mut(*r).ok_or(VmError::StaleMapValue { pc })?;
        return off
            .checked_add(len)
            .and_then(|end| val.get_mut(off..end))
            .ok_or(VmError::BadAddress { pc, addr });
    }
    Err(VmError::BadAddress { pc, addr })
}

/// Register file size: the eleven architectural registers rounded up to
/// a power of two (see [`slot`]).
pub(crate) const REG_SLOTS: usize = 16;

/// Index of `r` in the register file.
pub(crate) fn slot(r: Reg) -> usize {
    r.0 as usize & (REG_SLOTS - 1)
}

/// The register file a program starts with: `R1` = context, `R10` = top
/// of the stack. Sixteen slots so a masked register number always indexes
/// in bounds: no check on the hot path, and no panic on a register only
/// an unverified program can name.
pub(crate) fn entry_regs() -> [u64; REG_SLOTS] {
    let mut regs = [0u64; REG_SLOTS];
    regs[1] = CTX_BASE;
    regs[10] = STACK_BASE + STACK_SIZE as u64;
    regs
}

/// `(dereference-table entry, offset into the value)` of a map-value
/// address.
fn mapv_decode(addr: u64) -> Option<(usize, usize)> {
    let rel = addr.checked_sub(MAPV_BASE)?;
    Some(((rel >> 32) as usize, (rel & 0xFFFF_FFFF) as usize))
}

#[inline(always)]
fn in_window(addr: u64, base: u64, window: u64, len: usize) -> bool {
    addr >= base && addr.saturating_add(len as u64) <= base + window
}

fn handle_decode(v: u64) -> Option<MapId> {
    if (HANDLE_BASE..HANDLE_BASE + (1 << 32)).contains(&v) {
        Some(MapId((v - HANDLE_BASE) as u32))
    } else {
        None
    }
}

impl Vm {
    /// Execute a (verified) program. Returns `R0` and execution stats;
    /// `stats.insns` is at most `prog.len()`.
    pub fn run(
        prog: &[Insn],
        ctx: &[u8],
        maps: &mut MapRegistry,
        world: &mut dyn HelperWorld,
    ) -> Result<(u64, ExecStats), VmError> {
        let mut regs = entry_regs();
        let mut scratch = VmScratch::default();
        let mut exec = Exec::new(ctx, maps, &mut scratch);
        let mut stats = ExecStats::default();
        let mut pc = 0usize;
        // Instructions executed so far.
        let mut insns = 0u64;

        loop {
            insns += 1;
            // Matched by reference so each arm loads only its own fields.
            match *prog.get(pc).ok_or(VmError::PcOutOfBounds { pc })? {
                Insn::Alu { op, dst, src } => {
                    let s = match src {
                        Src::Imm(i) => i as u64,
                        Src::Reg(r) => regs[slot(r)],
                    };
                    let d = regs[slot(dst)];
                    regs[slot(dst)] = alu(op, d, s);
                    pc += 1;
                }
                Insn::Load {
                    size,
                    dst,
                    base,
                    off,
                } => {
                    let addr = regs[slot(base)].wrapping_add(off as i64 as u64);
                    regs[slot(dst)] = exec.load(pc, addr, size)?;
                    pc += 1;
                }
                Insn::Store {
                    size,
                    base,
                    off,
                    src,
                } => {
                    let addr = regs[slot(base)].wrapping_add(off as i64 as u64);
                    let v = match src {
                        Src::Imm(i) => i as u64,
                        Src::Reg(r) => regs[slot(r)],
                    };
                    exec.store(pc, addr, size, v)?;
                    pc += 1;
                }
                Insn::Jump { cond, off } => {
                    let taken = match cond {
                        None => true,
                        Some((c, dst, src)) => {
                            let s = match src {
                                Src::Imm(i) => i as u64,
                                Src::Reg(r) => regs[slot(r)],
                            };
                            c.eval(regs[slot(dst)], s)
                        }
                    };
                    if taken && off < 0 {
                        return Err(VmError::BackEdge { pc });
                    }
                    pc += 1 + if taken { off as usize } else { 0 };
                }
                Insn::Call { helper } => {
                    Self::call(helper, &mut regs, &mut exec, world, &mut stats, pc)?;
                    pc += 1;
                }
                Insn::LoadMap { dst, map } => {
                    regs[slot(dst)] = HANDLE_BASE | map.0 as u64;
                    pc += 1;
                }
                Insn::Exit => {
                    stats.insns = insns;
                    return Ok((regs[0], stats));
                }
            }
        }
    }

    // Out of line: the helpers' code would otherwise crowd the dispatch
    // loop's registers.
    #[inline(never)]
    pub(crate) fn call(
        helper: Helper,
        regs: &mut [u64; REG_SLOTS],
        exec: &mut Exec<'_>,
        world: &mut dyn HelperWorld,
        stats: &mut ExecStats,
        pc: usize,
    ) -> Result<(), VmError> {
        let bad = || VmError::BadHelperArgs { pc, helper };
        stats.helper_calls += 1;
        exec.scratch.bytes.clear();
        let r0 = match helper {
            Helper::KtimeGetNs => world.ktime_ns(),
            Helper::MapLookup => {
                let map = handle_decode(regs[1]).ok_or_else(bad)?;
                let ks = exec.maps.def(map).ok_or_else(bad)?.key_size;
                let key = exec.arg(pc, regs[2], ks)?;
                let key = key.bytes(&exec.stack, &exec.scratch.bytes);
                match exec.maps.lookup_ref(map, key) {
                    Some(r) => {
                        let entry = exec.scratch.deref.len();
                        exec.scratch.deref.push(r);
                        MAPV_BASE + ((entry as u64) << 32)
                    }
                    None => 0,
                }
            }
            Helper::MapUpdate => {
                let map = handle_decode(regs[1]).ok_or_else(bad)?;
                let (ks, vs) = {
                    let d = exec.maps.def(map).ok_or_else(bad)?;
                    (d.key_size, d.value_size)
                };
                let key = exec.arg(pc, regs[2], ks)?;
                let val = exec.arg(pc, regs[3], vs)?;
                let (stack, staged) = (&exec.stack, &exec.scratch.bytes);
                let (key, val) = (key.bytes(stack, staged), val.bytes(stack, staged));
                errno(exec.maps.update(map, key, val))
            }
            Helper::MapDelete => {
                let map = handle_decode(regs[1]).ok_or_else(bad)?;
                let ks = exec.maps.def(map).ok_or_else(bad)?.key_size;
                let key = exec.arg(pc, regs[2], ks)?;
                let key = key.bytes(&exec.stack, &exec.scratch.bytes);
                errno(exec.maps.delete(map, key))
            }
            Helper::PerfEventReadBuf => match world.perf_event_read(regs[1]) {
                Some(triple) => {
                    exec.write::<24>(pc, regs[2], le_bytes(triple))?;
                    0
                }
                None => (-2i64) as u64,
            },
            Helper::ReadTaskIo | Helper::ReadTcpSock => {
                let quad = if helper == Helper::ReadTaskIo {
                    world.read_task_io()
                } else {
                    world.read_tcp_sock()
                };
                exec.write::<32>(pc, regs[1], le_bytes(quad))?;
                0
            }
            Helper::PerfEventOutput => {
                let map = handle_decode(regs[1]).ok_or_else(bad)?;
                exec.maps.def(map).ok_or_else(bad)?;
                let record = exec.arg(pc, regs[2], regs[3] as usize)?;
                stats.ring_publishes += 1;
                let record = record.bytes(&exec.stack, &exec.scratch.bytes);
                errno(exec.maps.ring_push(map, record))
            }
        };
        // Clobber caller-saved registers exactly as the ABI specifies.
        for r in regs.iter_mut().take(6).skip(1) {
            *r = 0xDEAD_BEEF_DEAD_BEEF;
        }
        regs[0] = r0;
        Ok(())
    }
}

/// `words` as little-endian bytes (`N` is `8 * W`).
fn le_bytes<const W: usize, const N: usize>(words: [u64; W]) -> [u8; N] {
    let mut out = [0u8; N];
    for (chunk, w) in out.as_chunks_mut::<8>().0.iter_mut().zip(words) {
        *chunk = w.to_le_bytes();
    }
    out
}

fn errno(r: Result<(), MapError>) -> u64 {
    match r {
        Ok(()) => 0,
        Err(e) => e.errno() as u64,
    }
}

/// Concrete ALU evaluation.
pub(crate) fn alu(op: AluOp, d: u64, s: u64) -> u64 {
    match op {
        AluOp::Add => d.wrapping_add(s),
        AluOp::Sub => d.wrapping_sub(s),
        AluOp::Mul => d.wrapping_mul(s),
        // eBPF semantics: division by zero yields 0, modulo by zero keeps dst.
        AluOp::Div => d.checked_div(s).unwrap_or(0),
        AluOp::Mod => d.checked_rem(s).unwrap_or(d),
        AluOp::And => d & s,
        AluOp::Or => d | s,
        AluOp::Xor => d ^ s,
        AluOp::Lsh => d << (s & 63),
        AluOp::Rsh => d >> (s & 63),
        AluOp::Arsh => ((d as i64) >> (s & 63)) as u64,
        AluOp::Mov => s,
        AluOp::Neg => (d as i64).wrapping_neg() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::ProgramBuilder;
    use crate::insn::{Cond, Size, R0, R1, R10, R2, R3, R4, R6};
    use crate::maps::MapDef;

    fn zext(bytes: &[u8]) -> u64 {
        let mut buf = [0u8; 8];
        buf[..bytes.len()].copy_from_slice(bytes);
        u64::from_le_bytes(buf)
    }

    fn run(prog: Vec<Insn>, ctx: &[u8], maps: &mut MapRegistry) -> u64 {
        let mut world = NullWorld::default();
        let (r0, _) = Vm::run(&prog, ctx, maps, &mut world).unwrap();
        r0
    }

    #[test]
    fn arithmetic_works() {
        let mut maps = MapRegistry::new();
        let mut b = ProgramBuilder::new();
        b.mov_imm(R0, 10);
        b.alu_imm(AluOp::Mul, R0, 7);
        b.alu_imm(AluOp::Add, R0, 2);
        b.alu_imm(AluOp::Div, R0, 8); // 72 / 8 = 9
        b.exit();
        assert_eq!(run(b.resolve().unwrap(), &[], &mut maps), 9);
    }

    #[test]
    fn division_by_zero_yields_zero_mod_keeps_dst() {
        let mut maps = MapRegistry::new();
        let mut b = ProgramBuilder::new();
        b.mov_imm(R0, 42);
        b.mov_imm(R6, 0);
        b.alu_reg(AluOp::Div, R0, R6);
        b.exit();
        assert_eq!(run(b.resolve().unwrap(), &[], &mut maps), 0);

        let mut b = ProgramBuilder::new();
        b.mov_imm(R0, 42);
        b.mov_imm(R6, 0);
        b.alu_reg(AluOp::Mod, R0, R6);
        b.exit();
        assert_eq!(run(b.resolve().unwrap(), &[], &mut maps), 42);
    }

    #[test]
    fn stack_store_load_round_trip() {
        let mut maps = MapRegistry::new();
        let mut b = ProgramBuilder::new();
        b.mov_imm(R6, 0x1122334455667788);
        b.store_reg(Size::B8, R10, -8, R6);
        b.load(Size::B4, R0, R10, -8); // low 4 bytes, zero-extended
        b.exit();
        assert_eq!(run(b.resolve().unwrap(), &[], &mut maps), 0x55667788);
    }

    #[test]
    fn ctx_reads_work_and_writes_fault() {
        let mut maps = MapRegistry::new();
        let ctx = 0xABCDu64.to_le_bytes();
        let mut b = ProgramBuilder::new();
        b.load(Size::B8, R0, R1, 0);
        b.exit();
        assert_eq!(run(b.resolve().unwrap(), &ctx, &mut maps), 0xABCD);

        let prog = vec![
            Insn::Store {
                size: Size::B1,
                base: R1,
                off: 0,
                src: Src::Imm(1),
            },
            Insn::Exit,
        ];
        let mut world = NullWorld::default();
        let err = Vm::run(&prog, &ctx, &mut maps, &mut world).unwrap_err();
        assert!(matches!(err, VmError::ReadOnly { .. }));
    }

    #[test]
    fn conditional_jump_selects_branch() {
        let mut maps = MapRegistry::new();
        let mut b = ProgramBuilder::new();
        let else_ = b.label();
        let end = b.label();
        b.mov_imm(R6, 5);
        b.jump_if_imm(Cond::Gt, R6, 10, else_);
        b.mov_imm(R0, 111);
        b.jump(end);
        b.bind(else_);
        b.mov_imm(R0, 222);
        b.bind(end);
        b.exit();
        assert_eq!(run(b.resolve().unwrap(), &[], &mut maps), 111);
    }

    #[test]
    fn map_update_lookup_and_in_place_mutation() {
        let mut maps = MapRegistry::new();
        let h = maps.create(MapDef::hash("h", 8, 8, 8));
        let mut b = ProgramBuilder::new();
        // key=7 at fp-8, value=100 at fp-16
        b.store_imm(Size::B8, R10, -8, 7);
        b.store_imm(Size::B8, R10, -16, 100);
        b.load_map(R1, h);
        b.mov_reg(R2, R10);
        b.alu_imm(AluOp::Add, R2, -8);
        b.mov_reg(R3, R10);
        b.alu_imm(AluOp::Add, R3, -16);
        b.mov_imm(R4, 0);
        b.call(Helper::MapUpdate);
        // lookup and bump the value in place
        b.load_map(R1, h);
        b.mov_reg(R2, R10);
        b.alu_imm(AluOp::Add, R2, -8);
        b.call(Helper::MapLookup);
        let miss = b.label();
        b.jump_if_imm(Cond::Eq, R0, 0, miss);
        b.load(Size::B8, R6, R0, 0);
        b.alu_imm(AluOp::Add, R6, 1);
        b.store_reg(Size::B8, R0, 0, R6);
        b.bind(miss);
        b.mov_imm(R0, 0);
        b.exit();
        let prog = b.resolve().unwrap();
        crate::verifier::verify(&prog, &maps, 0).unwrap();
        run(prog, &[], &mut maps);
        let stored = maps.lookup(h, &7u64.to_le_bytes()).unwrap();
        assert_eq!(zext(stored), 101);
    }

    #[test]
    fn lookup_miss_returns_null() {
        let mut maps = MapRegistry::new();
        let h = maps.create(MapDef::hash("h", 8, 8, 8));
        let mut b = ProgramBuilder::new();
        b.store_imm(Size::B8, R10, -8, 999);
        b.load_map(R1, h);
        b.mov_reg(R2, R10);
        b.alu_imm(AluOp::Add, R2, -8);
        b.call(Helper::MapLookup);
        b.exit(); // R0 = lookup result
        assert_eq!(run(b.resolve().unwrap(), &[], &mut maps), 0);
    }

    #[test]
    fn perf_event_output_publishes_to_ring() {
        let mut maps = MapRegistry::new();
        let ring = maps.create(MapDef::perf_event_array("ring", 4));
        let mut b = ProgramBuilder::new();
        b.store_imm(Size::B8, R10, -16, 0xAAAA);
        b.store_imm(Size::B8, R10, -8, 0xBBBB);
        b.load_map(R1, ring);
        b.mov_reg(R2, R10);
        b.alu_imm(AluOp::Add, R2, -16);
        b.mov_imm(R3, 16);
        b.call(Helper::PerfEventOutput);
        b.exit();
        let prog = b.resolve().unwrap();
        crate::verifier::verify(&prog, &maps, 0).unwrap();
        let mut world = NullWorld::default();
        let (_, stats) = Vm::run(&prog, &[], &mut maps, &mut world).unwrap();
        assert_eq!(stats.ring_publishes, 1);
        let records = maps.ring_drain(ring, 10);
        assert_eq!(records.len(), 1);
        assert_eq!(zext(&records[0][0..8]), 0xAAAA);
        assert_eq!(zext(&records[0][8..16]), 0xBBBB);
    }

    #[test]
    fn perf_event_read_buf_writes_triple() {
        let mut maps = MapRegistry::new();
        let mut b = ProgramBuilder::new();
        b.mov_imm(R1, 3);
        b.mov_reg(R2, R10);
        b.alu_imm(AluOp::Add, R2, -24);
        b.call(Helper::PerfEventReadBuf);
        b.load(Size::B8, R0, R10, -24); // value = idx * 100 in NullWorld
        b.exit();
        assert_eq!(run(b.resolve().unwrap(), &[], &mut maps), 300);
    }

    #[test]
    fn helper_ktime_reads_the_world_clock() {
        let mut maps = MapRegistry::new();
        let mut b = ProgramBuilder::new();
        b.call(Helper::KtimeGetNs);
        b.mov_reg(R6, R0);
        b.call(Helper::KtimeGetNs);
        b.alu_reg(AluOp::Add, R0, R6);
        b.exit();
        let prog = b.resolve().unwrap();
        let mut world = NullWorld { time_ns: 1000 };
        let (r0, stats) = Vm::run(&prog, &[], &mut maps, &mut world).unwrap();
        assert_eq!(r0, 2000);
        assert_eq!(stats.helper_calls, 2);
        assert_eq!(stats.insns, 5);
    }

    #[test]
    fn unverified_garbage_faults_safely() {
        // The VM must return an error, not panic, on wild pointers.
        let mut maps = MapRegistry::new();
        let prog = vec![
            Insn::Load {
                size: Size::B8,
                dst: R0,
                base: R1,
                off: 4096,
            },
            Insn::Exit,
        ];
        let mut world = NullWorld::default();
        let err = Vm::run(&prog, &[], &mut maps, &mut world).unwrap_err();
        assert!(matches!(err, VmError::BadAddress { .. }));
    }

    #[test]
    fn signed_shift_behaves() {
        let mut maps = MapRegistry::new();
        let mut b = ProgramBuilder::new();
        b.mov_imm(R0, -16);
        b.alu_imm(AluOp::Arsh, R0, 2);
        b.exit();
        assert_eq!(run(b.resolve().unwrap(), &[], &mut maps) as i64, -4);
    }
}
