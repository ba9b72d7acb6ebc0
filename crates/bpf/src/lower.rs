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
//! followed by the 8-byte load or store through `d` — fuse into one op.
//! Two kinds of loop codegen emits fuse into one run op each, kept in a
//! side table:
//!
//! * a copy run: two or more back-to-back word copies, each `mov d1, b;
//!   add d1, k; ldx8 v, [d1+o1]; mov d2, c; add d2, k; stx8 [d2+o2], v`
//!   with `k` stepping by 8 (a `FEATURES` copy loop). When the whole
//!   destination lies in the stack and the whole source in the context
//!   or in one live map value, it checks the two ranges once and copies.
//! * a Δ run: one or more of `END`'s blocks, each taking the difference
//!   of fresh snapshot words on the stack and begin snapshot words in a
//!   map value (three, normalised `Δ0·Δ1/Δ2`, per CPU counter; one per
//!   I/O word) and storing it through a done pointer, each block behind
//!   its rebases but the first. When the fresh and done words lie wholly
//!   in the stack and the begin words in one live map value, it checks
//!   the two stack ranges once, resolves the value once and runs the
//!   blocks in order on the stack array.
//!
//! A run op is a guard: the ops its instructions lower to without it
//! follow it. Taken, it continues past them; refused, it has
//! written and counted nothing and falls through into them, so a fault
//! carries the pc of the instruction that faulted with no second copy of
//! their semantics. Nothing fuses across a jump target, and every
//! architectural register is still written, so there is no liveness
//! analysis to get wrong.
//!
//! The contract is [`Vm::run`]'s result, bit for bit, for *any* stream
//! (`lower` is total; `tests/lowered_differential.rs` holds the corpus):
//! a fused op counts its arity in [`ExecStats::insns`] (a taken guard
//! its run's length, a refused one nothing), a fault carries the source
//! `pc` of the faulting instruction, and the maps see the same
//! operations in the same order — memory goes through the same
//! `mem`/`mem_mut`/`call` as the reference, with every region,
//! generation and bounds check (a run's one check covers every word, and
//! counts a map value's lookups per word loaded). What is gone is decode
//! and dispatch, not checks. A backward jump's target is a
//! trap op that faults with [`VmError::BackEdge`] at the jump's `pc`, so
//! every op that runs is followed by a later one and a program ends
//! within as many ops as it lowered to, with no counter to check.

use crate::insn::{AluOp, Cond, Helper, Insn, Reg, Size, Src};
use crate::maps::MapRegistry;
use crate::vm::{
    alu, entry_regs, slot, stack_offset, Exec, ExecStats, HelperWorld, RunKind, Vm, VmError,
    VmScratch, HANDLE_BASE, REG_SLOTS, STACK_BASE, STACK_SIZE,
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
    /// The [`Run`] at this index of [`Lowered::runs`], a guard in front
    /// of the ops of the instructions it covers: taken, it continues at
    /// the second index, past them; refused, it falls through into them.
    Run(u32, u32),
}

/// `groups` back-to-back word copies, group `g` being the six
/// instructions `mov d1, b; add d1, imm + 8g; ldx8 v, [d1+o1]; mov d2, c;
/// add d2, imm + 8g; stx8 [d2+o2], v`, the five registers distinct.
#[derive(Debug, Clone, Copy)]
struct CopyRun {
    d1: Reg,
    b: Reg,
    v: Reg,
    d2: Reg,
    c: Reg,
    imm: i64,
    o1: i32,
    o2: i32,
    groups: usize,
}

impl CopyRun {
    /// The one group at `pc`, if the six instructions there form one.
    fn at(prog: &[Insn], pc: usize) -> Option<CopyRun> {
        let insns = prog.get(pc..)?;
        let (d1, b, imm) = rebase_at(insns)?;
        let (v, l, o1) = word_access(insns.get(2), true)?;
        let (d2, c, imm2) = rebase_at(insns.get(3..)?)?;
        let (w, s, o2) = word_access(insns.get(5), false)?;
        let regs = [d1, b, v, d2, c].map(slot);
        let distinct = (0..5).all(|i| !regs[i + 1..].contains(&regs[i]));
        let through = [(l, d1), (s, d2), (w, v)];
        let shaped = through.iter().all(|&(x, y)| slot(x) == slot(y)) && imm == imm2;
        (distinct && shaped).then_some(CopyRun {
            d1,
            b,
            v,
            d2,
            c,
            imm,
            o1,
            o2,
            groups: 1,
        })
    }

    /// Registers and displacements, which every group of a run shares.
    fn operands(&self) -> (Reg, Reg, Reg, Reg, Reg, i32, i32) {
        (self.d1, self.b, self.v, self.d2, self.c, self.o1, self.o2)
    }

    /// The longest run of at least two groups from `pc` that no jump
    /// lands inside.
    fn longest(prog: &[Insn], pc: usize, is_target: &[bool]) -> Option<CopyRun> {
        let clear = |at: usize| {
            is_target
                .get(at..at + 6)
                .is_some_and(|t| !t.contains(&true))
        };
        let mut run = CopyRun::at(prog, pc)?;
        loop {
            let at = pc + 6 * run.groups;
            let stepped = i64::try_from(8 * run.groups).ok();
            let stepped = stepped.and_then(|step| run.imm.checked_add(step));
            match CopyRun::at(prog, at) {
                Some(next)
                    if clear(at)
                        && next.operands() == run.operands()
                        && Some(next.imm) == stepped =>
                {
                    run.groups += 1;
                }
                _ => break,
            }
        }
        let inside = &is_target[pc + 1..pc + 6];
        (run.groups >= 2 && !inside.contains(&true)).then_some(run)
    }

    /// One check and one copy of every group when
    /// [`Exec::copy_words_to_stack`] takes the whole run; `false`, with
    /// nothing written or counted, when it refuses.
    #[inline(always)]
    fn exec(&self, regs: &mut [u64; REG_SLOTS], exec: &mut Exec<'_>) -> bool {
        let (imm, last) = (self.imm as u64, 8 * (self.groups as u64 - 1));
        let src = regs[slot(self.b)]
            .wrapping_add(imm)
            .wrapping_add(self.o1 as i64 as u64);
        let dst = regs[slot(self.c)]
            .wrapping_add(imm)
            .wrapping_add(self.o2 as i64 as u64);
        let Some(word) = exec.copy_words_to_stack(src, dst, self.groups) else {
            return false;
        };
        regs[slot(self.d1)] = regs[slot(self.b)].wrapping_add(imm.wrapping_add(last));
        regs[slot(self.v)] = word;
        regs[slot(self.d2)] = regs[slot(self.c)].wrapping_add(imm.wrapping_add(last));
        true
    }
}

/// The 8-byte access behind `insn`, `ldx8` or `stx8` from a register,
/// as `(value register, base, displacement)`.
fn word_access(insn: Option<&Insn>, load: bool) -> Option<(Reg, Reg, i32)> {
    match (*insn?, load) {
        (
            Insn::Load {
                size: Size::B8,
                dst,
                base,
                off,
            },
            true,
        ) => Some((dst, base, off)),
        (
            Insn::Store {
                size: Size::B8,
                base,
                off,
                src: Src::Reg(src),
            },
            false,
        ) => Some((src, base, off)),
        _ => None,
    }
}

/// `dst <op>= src` at `insn`, as `(dst, src)`.
fn alu_reg(insn: Option<&Insn>, op: AluOp) -> Option<(usize, usize)> {
    match *insn? {
        Insn::Alu {
            op: o,
            dst,
            src: Src::Reg(src),
        } if o == op => Some((slot(dst), slot(src))),
        _ => None,
    }
}

/// `mov d, b; add d, imm` at `insns`, as `(d, b, imm)`.
fn rebase_at(insns: &[Insn]) -> Option<(Reg, Reg, i64)> {
    match *insns.first_chunk::<2>()? {
        [Insn::Alu {
            op: AluOp::Mov,
            dst,
            src: Src::Reg(base),
        }, Insn::Alu {
            op: AluOp::Add,
            dst: d,
            src: Src::Imm(imm),
        }] if slot(d) == slot(dst) => Some((dst, base, imm)),
        _ => None,
    }
}

/// A pointer a Δ group reads or writes through: a rebased group `g`
/// sets `reg = base + imm + step·g`; an unrebased leading group reads
/// through `base` itself (`imm` is then 0).
#[derive(Debug, Clone, Copy)]
struct Ptr {
    reg: Reg,
    base: Reg,
    imm: i64,
    step: i64,
}

impl Ptr {
    /// The pointer's value in group `g`.
    fn at(&self, regs: &[u64; REG_SLOTS], g: usize) -> u64 {
        let step = self.step.wrapping_mul(g as i64);
        regs[slot(self.base)].wrapping_add(self.imm.wrapping_add(step) as u64)
    }
}

/// Where a Δ run's words of one kind lie, for the fast path's one
/// check: group `g`'s word `j` is `lo` bytes past its pointer, plus
/// `step·g + rel[j]`, and every word of the run lies in the `len` bytes
/// from the first pointer plus `lo`.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    lo: i32,
    rel: [usize; 3],
    len: usize,
    step: usize,
}

impl Span {
    /// `None` when the pointer steps backwards or the span overflows:
    /// the run is then not fused.
    fn new(offs: &[i32], step: i64, groups: usize) -> Option<Span> {
        let lo = *offs.iter().min()?;
        let step = usize::try_from(step).ok()?;
        let mut rel = [0; 3];
        for (r, &o) in rel.iter_mut().zip(offs) {
            *r = usize::try_from(i64::from(o) - i64::from(lo)).ok()?;
        }
        let reach = *rel.iter().max()?;
        let len = step.checked_mul(groups - 1)?.checked_add(reach)?;
        Some(Span {
            lo,
            rel,
            len: len.checked_add(8)?,
            step,
        })
    }

    /// The address of the span's first byte, given its pointer.
    fn start(&self, ptr: &Ptr, regs: &[u64; REG_SLOTS]) -> u64 {
        ptr.at(regs, 0).wrapping_add(self.lo as i64 as u64)
    }
}

/// The little-endian word at `bytes[at..at + 8]`.
#[inline(always)]
fn word(bytes: &[u8], at: usize) -> u64 {
    let mut w = [0; 8];
    w.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(w)
}

/// One of END's Δ loops: `groups` back-to-back blocks that each take the
/// difference of a fresh snapshot word on the stack and the begin
/// snapshot's word in a map value, and store the result through a done
/// pointer. A normalised group (`norm`, END's per-counter block) is
///
/// ```text
/// ldx8 a, [f+o0]; ldx8 t, [b+p0]; sub a, t
/// ldx8 e, [f+o1]; ldx8 t, [b+p1]; sub e, t; mul a, e
/// ldx8 e, [f+o2]; ldx8 t, [b+p2]; sub e, t; div a, e
/// stx8 [d+od], a
/// ```
///
/// behind the three rebases of `d`, `f` and `b`; a plain one (END's I/O
/// words) is `ldx8 a, [f+o0]; ldx8 t, [b+p0]; sub a, t; stx8 [f+od], a`
/// behind the rebases of `f` and `b`. The leading group may read through
/// the bases themselves, as `rebase` emits block 0. Every register a
/// group writes is distinct and none is a base, so each group sees the
/// bases the first one saw.
#[derive(Debug, Clone, Copy)]
struct DeltaRun {
    norm: bool,
    /// `d`, `f`, `b` when normalised, else `f`, `b`: in rebase order.
    ptrs: [Ptr; 3],
    a: Reg,
    t: Reg,
    e: Reg,
    fresh_off: [i32; 3],
    begin_off: [i32; 3],
    done_off: i32,
    groups: usize,
    /// Group 0 has no rebases.
    lead: bool,
    /// What the one-check path checks: done, fresh and begin words.
    spans: [Span; 3],
}

impl DeltaRun {
    fn rebases(&self) -> usize {
        2 + usize::from(self.norm)
    }

    /// Δ terms per group: begin-value loads, and as many fresh ones.
    fn terms(&self) -> usize {
        if self.norm {
            3
        } else {
            1
        }
    }

    fn done(&self) -> &Ptr {
        &self.ptrs[0]
    }

    fn fresh(&self) -> &Ptr {
        &self.ptrs[usize::from(self.norm)]
    }

    fn begin(&self) -> &Ptr {
        &self.ptrs[1 + usize::from(self.norm)]
    }

    /// Instructions of a rebased group, and how many the leading group
    /// has fewer (its rebases).
    fn group_len(&self) -> (usize, usize) {
        let body = if self.norm { 12 } else { 4 };
        let rebases = 2 * self.rebases();
        (body + rebases, if self.lead { rebases } else { 0 })
    }

    /// Source instructions the run covers.
    fn len(&self) -> usize {
        let (stride, skipped) = self.group_len();
        stride * self.groups - skipped
    }

    /// The one group at `pc`, rebased or leading, if the instructions
    /// there form one whose written registers are distinct and none of
    /// them a base.
    fn at(prog: &[Insn], pc: usize) -> Option<DeltaRun> {
        let insns = prog.get(pc..)?;
        let mut leas = [(Reg(0), Reg(0), 0); 3];
        let mut rebases = 0;
        while rebases < 3 {
            let Some(lea) = insns.get(2 * rebases..).and_then(rebase_at) else {
                break;
            };
            leas[rebases] = lea;
            rebases += 1;
        }
        let body = &insns[2 * rebases..];
        let at = |k: usize| body.get(k);
        let same = |x: Reg, y: Reg| slot(x) == slot(y);
        let (a, f, o0) = word_access(at(0), true)?;
        let (t, b, p0) = word_access(at(1), true)?;
        let sub = |k: usize, x: Reg| alu_reg(at(k), AluOp::Sub) == Some((slot(x), slot(t)));
        let norm = word_access(at(3), false).is_none();
        let (e, fresh_off, begin_off, (v, d, done_off)) = if norm {
            let (e, f1, o1) = word_access(at(3), true)?;
            let (t1, b1, p1) = word_access(at(4), true)?;
            let (e2, f2, o2) = word_access(at(7), true)?;
            let (t2, b2, p2) = word_access(at(8), true)?;
            let through = [
                (f1, f),
                (f2, f),
                (b1, b),
                (b2, b),
                (t1, t),
                (t2, t),
                (e2, e),
            ];
            let shaped = through.iter().all(|&(x, y)| same(x, y))
                && sub(5, e)
                && sub(9, e)
                && alu_reg(at(6), AluOp::Mul) == Some((slot(a), slot(e)))
                && alu_reg(at(10), AluOp::Div) == Some((slot(a), slot(e)));
            shaped.then_some(())?;
            (e, [o0, o1, o2], [p0, p1, p2], word_access(at(11), false)?)
        } else {
            (a, [o0; 3], [p0; 3], word_access(at(3), false)?)
        };
        // The store goes through the done pointer: its own when
        // normalised, the fresh one otherwise.
        let stored = sub(2, a) && same(v, a) && (norm || same(d, f));
        let wanted = 2 + usize::from(norm);
        let through = if norm { [d, f, b] } else { [f, b, b] };
        (stored && (rebases == 0 || rebases == wanted)).then_some(())?;
        let lead = rebases == 0;
        let mut ptrs = [Ptr {
            reg: f,
            base: f,
            imm: 0,
            step: 0,
        }; 3];
        for (i, p) in ptrs.iter_mut().enumerate().take(wanted) {
            let (reg, base, imm) = if lead {
                (through[i], through[i], 0)
            } else {
                leas[i]
            };
            same(reg, through[i]).then_some(())?;
            *p = Ptr {
                reg,
                base,
                imm,
                step: 0,
            };
        }
        let values = [a, t, e];
        let pointers = if lead { &ptrs[..0] } else { &ptrs[..wanted] };
        let mut written = [usize::MAX; 6];
        let regs = values[..2 + usize::from(norm)]
            .iter()
            .chain(pointers.iter().map(|p| &p.reg));
        for (w, &r) in written.iter_mut().zip(regs) {
            *w = slot(r);
        }
        let written = &written[..2 + usize::from(norm) + pointers.len()];
        let distinct = (0..written.len()).all(|i| !written[i + 1..].contains(&written[i]));
        let bases_kept = ptrs[..wanted]
            .iter()
            .all(|p| !written.contains(&slot(p.base)));
        (distinct && bases_kept).then_some(DeltaRun {
            norm,
            ptrs,
            a,
            t,
            e,
            fresh_off,
            begin_off,
            done_off,
            groups: 1,
            lead,
            spans: [Span::default(); 3],
        })
    }

    /// `next`, a rebased group, as this run's next group: the same shape,
    /// registers and displacements, each pointer's displacement stepping
    /// as the run's first two groups set it.
    fn extend(&mut self, next: &DeltaRun) -> bool {
        let same = |x: Reg, y: Reg| slot(x) == slot(y);
        let shaped = !next.lead
            && next.norm == self.norm
            && [(next.a, self.a), (next.t, self.t), (next.e, self.e)]
                .iter()
                .all(|&(x, y)| same(x, y))
            && (next.fresh_off, next.begin_off, next.done_off)
                == (self.fresh_off, self.begin_off, self.done_off);
        if !shaped {
            return false;
        }
        let mut ptrs = self.ptrs;
        let g = i64::try_from(self.groups).ok();
        for (p, n) in ptrs.iter_mut().zip(&next.ptrs).take(self.rebases()) {
            // A leading group reads through the bases, so its pointer
            // registers are the first rebased group's.
            let reg_ok = (self.lead && self.groups == 1) || same(p.reg, n.reg);
            let step = match self.groups {
                1 => n.imm.checked_sub(p.imm),
                _ => g
                    .and_then(|g| p.step.checked_mul(g))
                    .and_then(|s| p.imm.checked_add(s))
                    .filter(|&imm| imm == n.imm)
                    .map(|_| p.step),
            };
            match step {
                Some(step) if reg_ok && same(p.base, n.base) => {
                    *p = Ptr {
                        reg: n.reg,
                        step,
                        ..*p
                    };
                }
                _ => return false,
            }
        }
        self.ptrs = ptrs;
        self.groups += 1;
        true
    }

    /// The longest run from `pc` that no jump lands inside, one group or
    /// more, when its one check can be formed.
    fn longest(prog: &[Insn], pc: usize, is_target: &[bool]) -> Option<DeltaRun> {
        let clear = |from: usize, len: usize| {
            is_target
                .get(from..from + len)
                .is_some_and(|t| !t.contains(&true))
        };
        let mut run = DeltaRun::at(prog, pc)?;
        clear(pc + 1, run.len() - 1).then_some(())?;
        loop {
            let at = pc + run.len();
            match DeltaRun::at(prog, at) {
                Some(next) if clear(at, next.len()) && run.extend(&next) => {}
                _ => break,
            }
        }
        run.spans = [
            Span::new(&[run.done_off], run.done().step, run.groups)?,
            Span::new(&run.fresh_off[..run.terms()], run.fresh().step, run.groups)?,
            Span::new(&run.begin_off[..run.terms()], run.begin().step, run.groups)?,
        ];
        Some(run)
    }

    /// Every group on the stack array at once when the fresh words and
    /// the done slots lie wholly in the stack and the begin words in one
    /// live map value; `false`, with nothing written, when refused.
    #[inline(always)]
    fn exec(&self, regs: &mut [u64; REG_SLOTS], exec: &mut Exec<'_>) -> bool {
        self.whole(regs, exec).is_some()
    }

    /// The one-check path: both stack ranges first, then the begin value
    /// (resolved once, its lookups counted once it is taken), then the
    /// groups in order. `None`, with nothing written or counted, when a
    /// range is refused.
    #[inline(always)]
    fn whole(&self, regs: &mut [u64; REG_SLOTS], exec: &mut Exec<'_>) -> Option<()> {
        let [done, fresh, begin] = &self.spans;
        let f0 = stack_offset(fresh.start(self.fresh(), regs), fresh.len)?;
        let d0 = stack_offset(done.start(self.done(), regs), done.len)?;
        let loads = (self.terms() * self.groups) as u64;
        let begin_at = begin.start(self.begin(), regs);
        let (stack, value) = exec.stack_and_value(begin_at, begin.len, loads)?;
        let (mut a, mut t, mut e) = (0, 0, 0);
        for g in 0..self.groups {
            let (f, b) = (f0 + fresh.step * g, begin.step * g);
            let delta = |j: usize| {
                let v = word(&stack[..], f + fresh.rel[j]);
                let w = word(value, b + begin.rel[j]);
                (v.wrapping_sub(w), w)
            };
            (a, t) = delta(0);
            if self.norm {
                let (enabled, _) = delta(1);
                (e, t) = delta(2);
                a = alu(AluOp::Div, a.wrapping_mul(enabled), e);
            }
            let d = d0 + done.step * g;
            stack[d..d + 8].copy_from_slice(&a.to_le_bytes());
        }
        regs[slot(self.a)] = a;
        regs[slot(self.t)] = t;
        if self.norm {
            regs[slot(self.e)] = e;
        }
        if self.groups > usize::from(self.lead) {
            for p in &self.ptrs[..self.rebases()] {
                regs[slot(p.reg)] = p.at(regs, self.groups - 1);
            }
        }
        Some(())
    }
}

/// A side-table entry [`Op::Run`] executes.
// A program has a handful of runs, read in place: boxing the larger one
// would only add a pointer to chase.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy)]
enum Run {
    Copy(CopyRun),
    Delta(DeltaRun),
}

impl Run {
    /// Source instructions the run covers.
    fn len(&self) -> usize {
        match self {
            Run::Copy(run) => 6 * run.groups,
            Run::Delta(run) => run.len(),
        }
    }

    /// Whether the run was taken whole; both outcomes are counted, per
    /// kind of run.
    #[inline(always)]
    fn exec(&self, regs: &mut [u64; REG_SLOTS], exec: &mut Exec<'_>) -> bool {
        let (kind, taken) = match self {
            Run::Copy(run) => (RunKind::Copy, run.exec(regs, exec)),
            Run::Delta(run) => (RunKind::Delta, run.exec(regs, exec)),
        };
        exec.count_run(kind, !taken);
        taken
    }
}

const _: () = assert!(std::mem::size_of::<Op>() <= 16);

/// A lowered program: what [`crate::Loader::run`] executes.
#[derive(Debug, Clone)]
pub struct Lowered {
    ops: Vec<Op>,
    /// What [`Op::Run`] indexes.
    runs: Vec<Run>,
    /// Ops a run through the stream dispatches when every guard is
    /// taken: the ops a guard covers and the traps excluded.
    op_count: usize,
    /// The source pc each op before the traps faults at: its last
    /// instruction, the only one of a fused pair or triple that can
    /// fault (a guard's entry is never read). Read on the error path
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
    let mut runs = Vec::new();
    let mut op_count = 0;
    let mut fault_pc = Vec::with_capacity(n);
    // Op index of each source pc (meaningful at jump targets, which no
    // fused op or run covers), and of the end.
    let mut index = vec![0usize; n + 1];
    // Jumps and guards, with the source pc each continues at.
    let mut jumps = Vec::new();
    let mut pc = 0;
    while pc < n {
        index[pc] = ops.len();
        op_count += 1;
        if let Insn::Jump { off, .. } = prog[pc] {
            jumps.push((ops.len(), pc, target(pc, off)));
        }
        let run = CopyRun::longest(prog, pc, &is_target)
            .map(Run::Copy)
            .or_else(|| DeltaRun::longest(prog, pc, &is_target).map(Run::Delta));
        // A run's ops are its guard and then its instructions' own ops,
        // none fused past the run's end.
        let (end, within) = match run.zip(u32::try_from(runs.len()).ok()) {
            Some((run, ix)) => {
                let end = pc + run.len();
                jumps.push((ops.len(), pc, Some(end)));
                runs.push(run);
                ops.push(Op::Run(ix, 0));
                fault_pc.push(pc);
                (end, &prog[..end])
            }
            None => (pc + 1, prog),
        };
        while pc < end {
            let (op, arity) = lower_at(within, pc, &is_target, fp_static);
            ops.push(op);
            pc += arity;
            fault_pc.push(pc - 1);
        }
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
        if let Op::Jump(to) | Op::JumpImm(.., to) | Op::JumpReg(.., to) | Op::Run(_, to) =
            &mut ops[at]
        {
            // Ops number at most two per instruction plus one, and no
            // stream of 2^31 instructions fits in memory.
            #[allow(clippy::expect_used)]
            let resolved =
                u32::try_from(resolved).expect("a stream has fewer than 2^31 instructions");
            *to = resolved;
        }
    }
    Lowered {
        ops,
        runs,
        op_count,
        fault_pc,
    }
}

impl Lowered {
    /// Ops the instructions lowered to, as a run whose guards are all
    /// taken dispatches them (traps and the ops a guard covers excluded):
    /// the stream's length less what fusion saved.
    pub fn op_count(&self) -> usize {
        self.op_count
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
                // Memory and helper faults come back carrying the
                // faulting op's index.
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
                Op::Run(ix, past) => {
                    // Never `None`: `lower` made one run per index.
                    let run = self
                        .runs
                        .get(ix as usize)
                        .ok_or(VmError::PcOutOfBounds { pc: at })?;
                    if run.exec(&mut regs, exec) {
                        insns += run.len() as u64 - 1;
                        next = past as usize;
                    } else {
                        // Refused: the ops it falls into count themselves.
                        insns -= 1;
                    }
                }
            }
        }
    }
}
