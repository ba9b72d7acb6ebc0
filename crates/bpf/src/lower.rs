//! Lowering: the verified stream as a dense, op-specialised form — the
//! loader's stand-in for the kernel's JIT (paper §2.3).
//!
//! [`lower`] turns `&[Insn]` into [`Lowered`]: one op of at most 16
//! bytes per instruction, with everything [`Vm::run`] decides per
//! *executed* instruction decided once per *loaded* one — the ALU op and
//! `Src::Imm`/`Src::Reg`, absolute jump targets, composed map handles,
//! and 8-byte `[r10+off]` accesses as an index into the stack array when
//! the stream never writes `r10`. The adjacent shapes codegen emits for
//! every `rebase` and `fp_ptr` — `mov d, b; add d, imm`, optionally
//! followed by the 8-byte load or store through `d` — fuse into one op,
//! never across a jump target, and every architectural register is still
//! written, so there is no liveness analysis to get wrong.
//!
//! The contract is [`Vm::run`]'s result, bit for bit, for *any* stream
//! (`lower` is total; `tests/lowered_differential.rs` holds the corpus):
//! a fused op counts its arity in [`ExecStats::insns`], a fault carries
//! the source `pc`, and the maps see the same operations in the same
//! order — memory goes through the same `mem`/`mem_mut`/`call` as the
//! reference, with every region, generation and bounds check. What is
//! gone is decode and dispatch, not checks. A backward jump's target is a
//! trap op that faults with [`VmError::BackEdge`] at the jump's `pc`, so
//! every op that runs is followed by a later one and a run ends within
//! one op per instruction, with no counter to check.

use crate::insn::{AluOp, Cond, Helper, Insn, Reg, Size, Src};
use crate::maps::MapRegistry;
use crate::vm::{
    alu, entry_regs, slot, Exec, ExecStats, HelperWorld, Vm, VmError, VmScratch, HANDLE_BASE,
    STACK_BASE, STACK_SIZE,
};

/// Slot of the frame pointer in the register file.
const FP: usize = 10;

/// One lowered operation, operands in assembly order. Registers stay
/// [`Reg`]s and are masked by [`slot`] like the reference's; jump targets
/// are absolute op indexes.
#[derive(Debug, Clone, Copy)]
enum Op {
    MovImm(Reg, i64),
    MovReg(Reg, Reg),
    AddImm(Reg, i64),
    AddReg(Reg, Reg),
    SubImm(Reg, i64),
    SubReg(Reg, Reg),
    /// Every other ALU op: `dst = alu(op, dst, operand)`.
    AluImm(AluOp, Reg, i64),
    AluReg(AluOp, Reg, Reg),
    /// `ldx<size> dst, [base+off]`.
    Load(Size, Reg, Reg, i32),
    /// `stx<size> [base+off], src`.
    StoreReg(Size, Reg, i32, Reg),
    StoreImm(Size, Reg, i32, i64),
    /// `ldx8 dst, [r10+off]` as a stack index; `r10` is never written.
    LoadFp(Reg, u16),
    /// `stx8 [r10+off], src` as a stack index.
    StoreFp(u16, Reg),
    Jump(u32),
    /// `j<cond> dst, imm, target`.
    JumpImm(Cond, Reg, i64, u32),
    JumpReg(Cond, Reg, Reg, u32),
    Call(Helper),
    /// `ldmap dst, map`, the handle composed.
    LoadMap(Reg, u64),
    Exit,
    /// Control arrived at this source pc, which holds no instruction.
    Trap(usize),
    /// The backward jump at this source pc was taken.
    BackEdge(usize),
    /// `mov dst, base; add dst, imm`.
    Lea(Reg, Reg, i64),
    /// `Lea(dst, base, imm); ldx8 to, [dst+off]` as `(dst, base, imm, to, off)`.
    LeaLoad(Reg, Reg, i64, Reg, i32),
    /// `Lea(dst, base, imm); stx8 [dst+off], src` as `(dst, base, imm, off, src)`.
    LeaStore(Reg, Reg, i64, i32, Reg),
}

const _: () = assert!(std::mem::size_of::<Op>() <= 16);

/// A lowered program: what [`crate::Loader::run`] executes.
#[derive(Debug, Clone)]
pub struct Lowered {
    ops: Vec<Op>,
    /// Per op before the traps, the source pc of its last instruction —
    /// the only one of a fused op that can fault. Read on the error path
    /// only.
    fault_pc: Vec<usize>,
}

/// The 8 stack bytes at an index [`lower_at`] produced.
fn fp_word(stack: &mut [u8; STACK_SIZE], at: usize, ix: u16) -> Result<&mut [u8; 8], VmError> {
    let word = stack.get_mut(ix as usize..);
    word.and_then(<[u8]>::first_chunk_mut)
        .ok_or(VmError::BadAddress {
            pc: at,
            addr: STACK_BASE + ix as u64,
        })
}

/// Lower the instruction(s) at `pc`: the op and how many instructions it
/// covers.
fn lower_at(prog: &[Insn], pc: usize, is_target: &[bool], fp_static: bool) -> (Op, usize) {
    // The instruction at `pc + k`, unless a jump lands on it.
    let fusable = |k: usize| prog.get(pc + k).filter(|_| !is_target[pc + k]);
    // The stack index of an 8-byte `[r10+off]` access, when it is static
    // and in range.
    let fp_ix = |base: Reg, size: Size, off: i32| {
        let ix = STACK_SIZE as i64 + off as i64;
        let direct = fp_static && slot(base) == FP && size == Size::B8;
        u16::try_from(ix)
            .ok()
            .filter(|&ix| direct && usize::from(ix) <= STACK_SIZE - 8)
    };
    let op = match prog[pc] {
        Insn::Alu {
            op: AluOp::Mov,
            dst,
            src: Src::Reg(base),
        } => {
            let imm = match fusable(1) {
                Some(&Insn::Alu {
                    op: AluOp::Add,
                    dst: d,
                    src: Src::Imm(imm),
                }) if slot(d) == slot(dst) => imm,
                _ => return (Op::MovReg(dst, base), 1),
            };
            return match fusable(2) {
                Some(&Insn::Load {
                    size: Size::B8,
                    dst: to,
                    base: through,
                    off,
                }) if slot(through) == slot(dst) => (Op::LeaLoad(dst, base, imm, to, off), 3),
                Some(&Insn::Store {
                    size: Size::B8,
                    base: through,
                    off,
                    src: Src::Reg(src),
                }) if slot(through) == slot(dst) => (Op::LeaStore(dst, base, imm, off, src), 3),
                _ => (Op::Lea(dst, base, imm), 2),
            };
        }
        Insn::Alu { op, dst, src } => match (op, src) {
            (AluOp::Mov, Src::Imm(imm)) => Op::MovImm(dst, imm),
            (AluOp::Add, Src::Imm(imm)) => Op::AddImm(dst, imm),
            (AluOp::Add, Src::Reg(src)) => Op::AddReg(dst, src),
            (AluOp::Sub, Src::Imm(imm)) => Op::SubImm(dst, imm),
            (AluOp::Sub, Src::Reg(src)) => Op::SubReg(dst, src),
            (_, Src::Imm(imm)) => Op::AluImm(op, dst, imm),
            (_, Src::Reg(src)) => Op::AluReg(op, dst, src),
        },
        Insn::Load {
            size,
            dst,
            base,
            off,
        } => match fp_ix(base, size, off) {
            Some(ix) => Op::LoadFp(dst, ix),
            None => Op::Load(size, dst, base, off),
        },
        Insn::Store {
            size,
            base,
            off,
            src,
        } => match (fp_ix(base, size, off), src) {
            (Some(ix), Src::Reg(src)) => Op::StoreFp(ix, src),
            (_, Src::Reg(src)) => Op::StoreReg(size, base, off, src),
            (_, Src::Imm(imm)) => Op::StoreImm(size, base, off, imm),
        },
        // Targets are patched in once every pc has its op index.
        Insn::Jump { cond: None, .. } => Op::Jump(0),
        Insn::Jump {
            cond: Some((cond, dst, src)),
            ..
        } => match src {
            Src::Imm(imm) => Op::JumpImm(cond, dst, imm, 0),
            Src::Reg(src) => Op::JumpReg(cond, dst, src, 0),
        },
        Insn::Call { helper } => Op::Call(helper),
        Insn::LoadMap { dst, map } => Op::LoadMap(dst, HANDLE_BASE | map.0 as u64),
        Insn::Exit => Op::Exit,
    };
    (op, 1)
}

/// Lower `prog`. Total: any stream lowers, and a stream the verifier
/// would reject faults in [`Lowered::run`] exactly where [`Vm::run`]
/// faults on it.
pub fn lower(prog: &[Insn]) -> Lowered {
    let n = prog.len();
    // Where a jump lands when taken; `None` for a backward one, which
    // faults instead.
    let target = |pc: usize, off: i32| usize::try_from(off).ok().map(|off| pc + 1 + off);
    let mut is_target = vec![false; n];
    let mut fp_static = true;
    for (pc, insn) in prog.iter().enumerate() {
        match *insn {
            Insn::Jump { off, .. } => {
                if let Some(t) = target(pc, off).and_then(|t| is_target.get_mut(t)) {
                    *t = true;
                }
            }
            Insn::Alu { dst, .. } | Insn::Load { dst, .. } | Insn::LoadMap { dst, .. } => {
                fp_static &= slot(dst) != FP;
            }
            _ => {}
        }
    }

    let mut ops = Vec::with_capacity(n + 1);
    let mut fault_pc = Vec::with_capacity(n);
    // Op index of each source pc (meaningful at jump targets, which no
    // fused op covers), and of the end.
    let mut index = vec![0usize; n + 1];
    let mut jumps = Vec::new();
    let mut pc = 0;
    while pc < n {
        index[pc] = ops.len();
        if let Insn::Jump { off, .. } = prog[pc] {
            jumps.push((ops.len(), pc, target(pc, off)));
        }
        let (op, arity) = lower_at(prog, pc, &is_target, fp_static);
        ops.push(op);
        pc += arity;
        fault_pc.push(pc - 1);
    }
    // Falling off the end, or jumping to it, is the reference's
    // `PcOutOfBounds { pc: n }`; a wild target gets a trap of its own,
    // and a backward jump one that faults at the jump, as the reference
    // does before looking at the target.
    index[n] = ops.len();
    ops.push(Op::Trap(n));
    for (at, pc, target) in jumps {
        let resolved = match target.and_then(|t| index.get(t)) {
            Some(&op) => op,
            None => {
                ops.push(target.map_or(Op::BackEdge(pc), Op::Trap));
                ops.len() - 1
            }
        };
        if let Op::Jump(to) | Op::JumpImm(.., to) | Op::JumpReg(.., to) = &mut ops[at] {
            *to = u32::try_from(resolved).expect("a stream has fewer than 2^32 instructions");
        }
    }
    Lowered { ops, fault_pc }
}

impl Lowered {
    /// Ops the instructions lowered to (traps excluded): the stream's
    /// length less what fusion saved.
    pub fn op_count(&self) -> usize {
        self.fault_pc.len()
    }

    /// Execute against `ctx`: [`Vm::run`]'s result for the stream this
    /// was lowered from. Allocation-free once `scratch` has reached its
    /// working size.
    pub fn run(
        &self,
        ctx: &[u8],
        maps: &mut MapRegistry,
        world: &mut dyn HelperWorld,
        scratch: &mut VmScratch,
    ) -> Result<(u64, ExecStats), VmError> {
        let mut exec = Exec::new(ctx, maps, scratch);
        self.exec(&mut exec, world).map_err(|mut e| {
            match &mut e {
                // Memory and helper faults come back carrying the op index.
                VmError::BadAddress { pc, .. }
                | VmError::ReadOnly { pc, .. }
                | VmError::StaleMapValue { pc }
                | VmError::BadMapHandle { pc }
                | VmError::BadHelperArgs { pc, .. } => *pc = self.fault_pc[*pc],
                // Raised by trap ops, in source terms already; the
                // last is the loader's, not a run's.
                VmError::BackEdge { .. }
                | VmError::PcOutOfBounds { .. }
                | VmError::NoSuchProgram { .. } => {}
            }
            e
        })
    }

    fn exec(
        &self,
        exec: &mut Exec<'_>,
        world: &mut dyn HelperWorld,
    ) -> Result<(u64, ExecStats), VmError> {
        let mut regs = entry_regs();
        let mut stats = ExecStats::default();
        // Source instructions executed so far.
        let mut insns = 0u64;
        let mut next = 0usize;
        loop {
            insns += 1;
            let at = next;
            // Never `None`: every target is patched to an op, and the
            // ops end in a trap.
            let op = *self.ops.get(at).ok_or(VmError::PcOutOfBounds { pc: at })?;
            next += 1;
            match op {
                Op::MovImm(dst, imm) => regs[slot(dst)] = imm as u64,
                Op::MovReg(dst, src) => regs[slot(dst)] = regs[slot(src)],
                Op::AddImm(dst, imm) => regs[slot(dst)] = regs[slot(dst)].wrapping_add(imm as u64),
                Op::AddReg(dst, src) => {
                    regs[slot(dst)] = regs[slot(dst)].wrapping_add(regs[slot(src)]);
                }
                Op::SubImm(dst, imm) => regs[slot(dst)] = regs[slot(dst)].wrapping_sub(imm as u64),
                Op::SubReg(dst, src) => {
                    regs[slot(dst)] = regs[slot(dst)].wrapping_sub(regs[slot(src)]);
                }
                Op::AluImm(op, dst, imm) => regs[slot(dst)] = alu(op, regs[slot(dst)], imm as u64),
                Op::AluReg(op, dst, src) => {
                    regs[slot(dst)] = alu(op, regs[slot(dst)], regs[slot(src)]);
                }
                Op::Load(size, dst, base, off) => {
                    let addr = regs[slot(base)].wrapping_add(off as i64 as u64);
                    regs[slot(dst)] = exec.load(at, addr, size)?;
                }
                Op::StoreReg(size, base, off, src) => {
                    let addr = regs[slot(base)].wrapping_add(off as i64 as u64);
                    exec.store(at, addr, size, regs[slot(src)])?;
                }
                Op::StoreImm(size, base, off, imm) => {
                    let addr = regs[slot(base)].wrapping_add(off as i64 as u64);
                    exec.store(at, addr, size, imm as u64)?;
                }
                Op::LoadFp(dst, ix) => {
                    regs[slot(dst)] = u64::from_le_bytes(*fp_word(&mut exec.stack, at, ix)?);
                }
                Op::StoreFp(ix, src) => {
                    *fp_word(&mut exec.stack, at, ix)? = regs[slot(src)].to_le_bytes();
                }
                Op::Jump(to) => next = to as usize,
                Op::JumpImm(cond, dst, imm, to) => {
                    if cond.eval(regs[slot(dst)], imm as u64) {
                        next = to as usize;
                    }
                }
                Op::JumpReg(cond, dst, src, to) => {
                    if cond.eval(regs[slot(dst)], regs[slot(src)]) {
                        next = to as usize;
                    }
                }
                Op::Call(helper) => Vm::call(helper, &mut regs, exec, world, &mut stats, at)?,
                Op::LoadMap(dst, handle) => regs[slot(dst)] = handle,
                Op::Exit => {
                    stats.insns = insns;
                    return Ok((regs[0], stats));
                }
                Op::Trap(pc) => return Err(VmError::PcOutOfBounds { pc }),
                Op::BackEdge(pc) => return Err(VmError::BackEdge { pc }),
                Op::Lea(dst, base, imm) => {
                    insns += 1;
                    regs[slot(dst)] = regs[slot(base)].wrapping_add(imm as u64);
                }
                Op::LeaLoad(dst, base, imm, to, off) => {
                    insns += 2;
                    regs[slot(dst)] = regs[slot(base)].wrapping_add(imm as u64);
                    let addr = regs[slot(dst)].wrapping_add(off as i64 as u64);
                    regs[slot(to)] = exec.load(at, addr, Size::B8)?;
                }
                Op::LeaStore(dst, base, imm, off, src) => {
                    insns += 2;
                    regs[slot(dst)] = regs[slot(base)].wrapping_add(imm as u64);
                    let addr = regs[slot(dst)].wrapping_add(off as i64 as u64);
                    exec.store(at, addr, Size::B8, regs[slot(src)])?;
                }
            }
        }
    }
}
