//! The static verifier: a range-tracking abstract interpreter.
//!
//! Models the Linux BPF verifier's checks (paper §5.1): it tracks an
//! abstract value for each register at every reachable instruction and
//! rejects the program if *any* execution can perform an unsafe
//! operation. Scalars carry a full value-tracking domain —
//! tristate numbers ([`crate::tnum::Tnum`], known bits) plus signed and
//! unsigned `[min, max]` intervals, kept mutually consistent — so the
//! verifier can prove variable-offset memory accesses in bounds.
//! Enforced properties:
//!
//! * every jump goes forward: the first jump with a negative offset is
//!   rejected with `BackEdge` before the walk starts, reachable or not
//!   (Linux's rule before 5.3; the Collector's programs never loop), so
//!   every path ends within `prog.len()` instructions;
//! * a hard instruction-count cap (the kernel's is 1M; "TS's compiled
//!   BPF programs only contain 100s of instructions");
//! * every register is written before it is read;
//! * every memory access is through a typed pointer whose offset range
//!   (constant base + a bounded variable part, from pointer arithmetic
//!   with range-tracked scalars) is provably in bounds for its region
//!   (512-byte stack, read-only context, map values of declared size);
//! * stack reads only touch bytes previously written on this path;
//! * map-lookup results must be null-checked before dereference; both
//!   arms of the null test are refined, as are both arms of every
//!   scalar conditional jump (`if r2 > 15 goto exit` proves
//!   `r2 ∈ [0, 15]` on the fall-through path);
//! * helper calls obey typed signatures; calls clobber `R1`–`R5`;
//! * `exit` requires `R0` to hold a scalar;
//! * pointers never leak into arithmetic other than `± bounded scalar`,
//!   never get compared (except null checks), and never get stored to
//!   memory.
//!
//! Since every jump goes forward, program order is a topological order
//! of the control-flow graph, so verification is one forward pass with
//! joins at merge points (PREVAIL's approach, Gershuni et al., PLDI
//! 2019): an instruction's state is the join of what its incoming edges
//! carry, and it is visited once or, if nothing reaches it, not at all.
//! A join only over-approximates — two different kinds of value join to
//! uninitialised, so reading that register is rejected — and cost is
//! linear in the program's length. [`verify_with_log`] additionally
//! produces a kernel-style human-readable trace of the walk for
//! rejection diagnostics.

use std::collections::BTreeMap;

use crate::insn::{AluOp, Cond, Helper, Insn, Reg, Src};
use crate::maps::{MapId, MapKind, MapRegistry};
use crate::tnum::Tnum;

/// Stack size available to a program, like eBPF.
pub const STACK_SIZE: i64 = 512;
/// Maximum program length (the kernel's modern limit).
pub const MAX_INSNS: usize = 1_000_000;
/// Largest record `perf_event_output` may publish.
pub const MAX_OUTPUT_BYTES: i64 = 8192;
/// Pointer offsets (base plus variable part) are confined to this many
/// bytes either side of the region start, like the kernel's
/// `BPF_MAX_VAR_OFF` discipline.
pub const MAX_PTR_OFF: i64 = 1 << 29;
/// Verifier log size cap (the kernel truncates its log buffer too).
const MAX_LOG_BYTES: usize = 64 * 1024;

/// Why a program was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    EmptyProgram,
    TooLong {
        len: usize,
    },
    InvalidRegister {
        pc: usize,
    },
    WriteToFramePointer {
        pc: usize,
    },
    UninitRead {
        pc: usize,
        reg: u8,
    },
    BackEdge {
        pc: usize,
    },
    JumpOutOfBounds {
        pc: usize,
    },
    FellOffEnd {
        pc: usize,
    },
    PointerArithmetic {
        pc: usize,
    },
    PointerComparison {
        pc: usize,
    },
    PointerStore {
        pc: usize,
    },
    DivisionByZero {
        pc: usize,
    },
    NotAPointer {
        pc: usize,
    },
    PossiblyNullDeref {
        pc: usize,
    },
    OutOfBounds {
        pc: usize,
        region: &'static str,
        off: i64,
        size: usize,
    },
    UninitStackRead {
        pc: usize,
        off: i64,
    },
    CtxWrite {
        pc: usize,
    },
    UnknownMap {
        pc: usize,
    },
    BadHelperArg {
        pc: usize,
        helper: Helper,
        arg: u8,
        expected: &'static str,
    },
    ExitWithoutScalarR0 {
        pc: usize,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::EmptyProgram => write!(f, "empty program"),
            VerifyError::TooLong { len } => write!(f, "program too long ({len} insns)"),
            VerifyError::InvalidRegister { pc } => write!(f, "invalid register at pc {pc}"),
            VerifyError::WriteToFramePointer { pc } => write!(f, "write to r10 at pc {pc}"),
            VerifyError::UninitRead { pc, reg } => {
                write!(f, "read of uninitialized r{reg} at pc {pc}")
            }
            VerifyError::BackEdge { pc } => {
                write!(f, "back edge at pc {pc}: jumps must go forward")
            }
            VerifyError::JumpOutOfBounds { pc } => write!(f, "jump out of bounds at pc {pc}"),
            VerifyError::FellOffEnd { pc } => write!(f, "control falls off program end at pc {pc}"),
            VerifyError::PointerArithmetic { pc } => {
                write!(f, "disallowed pointer arithmetic at pc {pc}")
            }
            VerifyError::PointerComparison { pc } => {
                write!(f, "disallowed pointer comparison at pc {pc}")
            }
            VerifyError::PointerStore { pc } => write!(f, "pointer stored to memory at pc {pc}"),
            VerifyError::DivisionByZero { pc } => write!(f, "division by zero at pc {pc}"),
            VerifyError::NotAPointer { pc } => {
                write!(f, "memory access via non-pointer at pc {pc}")
            }
            VerifyError::PossiblyNullDeref { pc } => {
                write!(f, "map value dereferenced without null check at pc {pc}")
            }
            VerifyError::OutOfBounds {
                pc,
                region,
                off,
                size,
            } => {
                write!(
                    f,
                    "{region} access out of bounds at pc {pc} (off {off}, size {size})"
                )
            }
            VerifyError::UninitStackRead { pc, off } => {
                write!(f, "read of uninitialized stack at fp{off:+} (pc {pc})")
            }
            VerifyError::CtxWrite { pc } => write!(f, "store to read-only context at pc {pc}"),
            VerifyError::UnknownMap { pc } => write!(f, "reference to unknown map at pc {pc}"),
            VerifyError::BadHelperArg {
                pc,
                helper,
                arg,
                expected,
            } => write!(
                f,
                "helper {} arg r{arg} at pc {pc}: expected {expected}",
                helper.name()
            ),
            VerifyError::ExitWithoutScalarR0 { pc } => {
                write!(f, "exit with non-scalar r0 at pc {pc}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// The scalar abstract domain: a tnum (known bits) plus unsigned and
/// signed interval bounds, all describing the same set of `u64` values.
/// Kept mutually consistent by [`Range::sync`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Range {
    tnum: Tnum,
    umin: u64,
    umax: u64,
    smin: i64,
    smax: i64,
}

impl Range {
    fn unknown() -> Self {
        Range {
            tnum: Tnum::unknown(),
            umin: 0,
            umax: u64::MAX,
            smin: i64::MIN,
            smax: i64::MAX,
        }
    }

    fn cnst(v: i64) -> Self {
        Range {
            tnum: Tnum::cnst(v as u64),
            umin: v as u64,
            umax: v as u64,
            smin: v,
            smax: v,
        }
    }

    fn const_u(self) -> Option<u64> {
        if self.umin == self.umax {
            Some(self.umin)
        } else {
            None
        }
    }

    fn const_i(self) -> Option<i64> {
        if self.smin == self.smax {
            Some(self.smin)
        } else {
            None
        }
    }

    /// Every value either side admits: the hull of both intervals and
    /// the union of both tnums.
    fn join(self, other: Range) -> Range {
        Range {
            tnum: self.tnum.union(other.tnum),
            umin: self.umin.min(other.umin),
            umax: self.umax.max(other.umax),
            smin: self.smin.min(other.smin),
            smax: self.smax.max(other.smax),
        }
        .sync()
        .unwrap_or_else(Range::unknown)
    }

    /// Propagate information between the three sub-domains until they
    /// agree. Returns `None` when they contradict — the abstract value
    /// describes no concrete value, i.e. the path is dead.
    fn sync(mut self) -> Option<Range> {
        // The domains converge in a couple of rounds; 8 is a safe cap.
        for _ in 0..8 {
            let prev = self;
            self.umin = self.umin.max(self.tnum.min());
            self.umax = self.umax.min(self.tnum.max());
            if self.umin > self.umax {
                return None;
            }
            // Unsigned bounds imply signed ones only when the range does
            // not straddle the sign boundary.
            if (self.umin as i64) <= (self.umax as i64) {
                self.smin = self.smin.max(self.umin as i64);
                self.smax = self.smax.min(self.umax as i64);
            }
            if self.smin > self.smax {
                return None;
            }
            // Symmetrically, a sign-pure signed range casts to unsigned.
            if self.smin >= 0 || self.smax < 0 {
                self.umin = self.umin.max(self.smin as u64);
                self.umax = self.umax.min(self.smax as u64);
                if self.umin > self.umax {
                    return None;
                }
            }
            self.tnum = self.tnum.intersect(Tnum::range(self.umin, self.umax))?;
            if self == prev {
                break;
            }
        }
        Some(self)
    }
}

impl std::fmt::Display for Range {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(c) = self.const_u() {
            return write!(f, "{c:#x}");
        }
        write!(f, "u=[{:#x},{:#x}]", self.umin, self.umax)?;
        if self.smin != i64::MIN || self.smax != i64::MAX {
            write!(f, " s=[{},{}]", self.smin, self.smax)?;
        }
        if self.tnum != Tnum::unknown() {
            write!(f, " t={}", self.tnum)?;
        }
        Ok(())
    }
}

/// Abstract transfer function for a scalar ALU op. Always returns a
/// sound over-approximation; contradictions collapse to `unknown` (they
/// cannot arise from a live input, but over-approximating is safe).
fn range_alu(op: AluOp, d: Range, s: Range) -> Range {
    use AluOp::*;
    let mut r = Range::unknown();
    match op {
        Mov | Neg => unreachable!("handled before range_alu"),
        Add => {
            r.tnum = d.tnum.add(s.tnum);
            if let (Some(lo), Some(hi)) = (d.umin.checked_add(s.umin), d.umax.checked_add(s.umax)) {
                r.umin = lo;
                r.umax = hi;
            }
            if let (Some(lo), Some(hi)) = (d.smin.checked_add(s.smin), d.smax.checked_add(s.smax)) {
                r.smin = lo;
                r.smax = hi;
            }
        }
        Sub => {
            r.tnum = d.tnum.sub(s.tnum);
            if let (Some(lo), Some(hi)) = (d.umin.checked_sub(s.umax), d.umax.checked_sub(s.umin)) {
                r.umin = lo;
                r.umax = hi;
            }
            if let (Some(lo), Some(hi)) = (d.smin.checked_sub(s.smax), d.smax.checked_sub(s.smin)) {
                r.smin = lo;
                r.smax = hi;
            }
        }
        Mul => {
            r.tnum = d.tnum.mul(s.tnum);
            if let (Some(lo), Some(hi)) = (d.umin.checked_mul(s.umin), d.umax.checked_mul(s.umax)) {
                r.umin = lo;
                r.umax = hi;
            }
        }
        Div => {
            // VM semantics: unsigned division, divide-by-zero yields 0.
            if let Some(c) = s.const_u() {
                if c == 0 {
                    return Range::cnst(0);
                }
                r.umin = d.umin / c;
                r.umax = d.umax / c;
            } else {
                r.umin = 0;
                r.umax = d.umax;
            }
        }
        Mod => {
            // VM semantics: unsigned remainder, mod-by-zero keeps dst.
            if let (Some(a), Some(c)) = (d.const_u(), s.const_u()) {
                return Range::cnst(if c == 0 { a } else { a % c } as i64);
            }
            if let Some(c) = s.const_u() {
                if c == 0 {
                    return d;
                }
                r.umin = 0;
                r.umax = d.umax.min(c - 1);
            } else {
                // d % s <= d whether or not s is zero.
                r.umin = 0;
                r.umax = d.umax;
            }
        }
        And => {
            r.tnum = d.tnum.and(s.tnum);
            r.umin = 0;
            r.umax = d.umax.min(s.umax);
        }
        Or => {
            r.tnum = d.tnum.or(s.tnum);
            r.umin = d.umin.max(s.umin);
        }
        Xor => {
            r.tnum = d.tnum.xor(s.tnum);
        }
        Lsh => {
            if let Some(c) = s.const_u() {
                let c = (c & 63) as u32;
                r.tnum = d.tnum.lshift(c);
                // Bounds shift only when no set bit can fall off the top.
                if d.umax.leading_zeros() >= c {
                    r.umin = d.umin << c;
                    r.umax = d.umax << c;
                }
            }
        }
        Rsh => {
            if let Some(c) = s.const_u() {
                let c = (c & 63) as u32;
                r.tnum = d.tnum.rshift(c);
                r.umin = d.umin >> c;
                r.umax = d.umax >> c;
            } else {
                r.umin = 0;
                r.umax = d.umax;
            }
        }
        Arsh => {
            if let Some(c) = s.const_u() {
                let c = (c & 63) as u32;
                r.tnum = d.tnum.arshift(c);
                r.smin = d.smin >> c;
                r.smax = d.smax >> c;
            }
        }
    }
    r.sync().unwrap_or_else(Range::unknown)
}

/// A branch condition to assume while refining: either one of the insn
/// set's conditions or the negation of `Set` (which has no insn form).
#[derive(Debug, Clone, Copy)]
enum BranchCond {
    C(Cond),
    NotSet,
}

/// The condition that holds on the fall-through arm when `c` does not.
fn negate(c: Cond) -> BranchCond {
    use BranchCond::C;
    match c {
        Cond::Eq => C(Cond::Ne),
        Cond::Ne => C(Cond::Eq),
        Cond::Lt => C(Cond::Ge),
        Cond::Ge => C(Cond::Lt),
        Cond::Gt => C(Cond::Le),
        Cond::Le => C(Cond::Gt),
        Cond::SLt => C(Cond::SGe),
        Cond::SGe => C(Cond::SLt),
        Cond::SGt => C(Cond::SLe),
        Cond::SLe => C(Cond::SGt),
        Cond::Set => BranchCond::NotSet,
    }
}

/// Shrink `r` assuming `r != other`; only exact endpoints move. `None`
/// when `r` must equal the excluded constant.
fn refine_ne(r: &mut Range, other: &Range) -> Option<()> {
    if let Some(c) = other.const_u() {
        if r.umin == c {
            if c == u64::MAX {
                return None;
            }
            r.umin += 1;
        }
        if r.umax == c {
            if c == 0 {
                return None;
            }
            r.umax -= 1;
        }
    }
    if let Some(c) = other.const_i() {
        if r.smin == c {
            if c == i64::MAX {
                return None;
            }
            r.smin += 1;
        }
        if r.smax == c {
            if c == i64::MIN {
                return None;
            }
            r.smax -= 1;
        }
    }
    Some(())
}

/// Refine both operand ranges assuming `cond(d, s)` holds. Returns the
/// narrowed pair, or `None` when the condition cannot hold — that
/// branch arm is dead. Every `?` on checked endpoint arithmetic below
/// coincides exactly with a genuine contradiction (e.g. `d < s` with
/// `s.umax == 0` means "unsigned less than zero": impossible).
fn refine(cond: BranchCond, d: Range, s: Range) -> Option<(Range, Range)> {
    let (mut d, mut s) = (d, s);
    match cond {
        BranchCond::C(Cond::Eq) => {
            let t = d.tnum.intersect(s.tnum)?;
            d.tnum = t;
            s.tnum = t;
            d.umin = d.umin.max(s.umin);
            s.umin = d.umin;
            d.umax = d.umax.min(s.umax);
            s.umax = d.umax;
            d.smin = d.smin.max(s.smin);
            s.smin = d.smin;
            d.smax = d.smax.min(s.smax);
            s.smax = d.smax;
        }
        BranchCond::C(Cond::Ne) => {
            refine_ne(&mut d, &s)?;
            refine_ne(&mut s, &d)?;
        }
        BranchCond::C(Cond::Lt) => {
            d.umax = d.umax.min(s.umax.checked_sub(1)?);
            s.umin = s.umin.max(d.umin.checked_add(1)?);
        }
        BranchCond::C(Cond::Le) => {
            d.umax = d.umax.min(s.umax);
            s.umin = s.umin.max(d.umin);
        }
        BranchCond::C(Cond::Gt) => {
            d.umin = d.umin.max(s.umin.checked_add(1)?);
            s.umax = s.umax.min(d.umax.checked_sub(1)?);
        }
        BranchCond::C(Cond::Ge) => {
            d.umin = d.umin.max(s.umin);
            s.umax = s.umax.min(d.umax);
        }
        BranchCond::C(Cond::SLt) => {
            d.smax = d.smax.min(s.smax.checked_sub(1)?);
            s.smin = s.smin.max(d.smin.checked_add(1)?);
        }
        BranchCond::C(Cond::SLe) => {
            d.smax = d.smax.min(s.smax);
            s.smin = s.smin.max(d.smin);
        }
        BranchCond::C(Cond::SGt) => {
            d.smin = d.smin.max(s.smin.checked_add(1)?);
            s.smax = s.smax.min(d.smax.checked_sub(1)?);
        }
        BranchCond::C(Cond::SGe) => {
            d.smin = d.smin.max(s.smin);
            s.smax = s.smax.min(d.smax);
        }
        BranchCond::C(Cond::Set) => {
            // `d & s != 0`: impossible when no bit can be set in both.
            if (d.tnum.value | d.tnum.mask) & (s.tnum.value | s.tnum.mask) == 0 {
                return None;
            }
        }
        BranchCond::NotSet => {
            // `d & s == 0`: impossible when a bit is known set in both;
            // against a constant mask, the masked bits become known 0.
            if d.tnum.value & s.tnum.value != 0 {
                return None;
            }
            if let Some(c) = s.tnum.const_value() {
                d.tnum.mask &= !c;
            }
            if let Some(c) = d.tnum.const_value() {
                s.tnum.mask &= !c;
            }
        }
    }
    Some((d.sync()?, s.sync()?))
}

/// Abstract register type. Pointers carry a constant base offset plus a
/// variable part `[vmin, vmax]` accumulated from bounded-scalar
/// arithmetic; the concrete offset is `off + v` for some `v` in range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegType {
    Uninit,
    Scalar(Range),
    PtrStack {
        off: i64,
        vmin: i64,
        vmax: i64,
    },
    PtrCtx {
        off: i64,
        vmin: i64,
        vmax: i64,
    },
    PtrMap {
        map: MapId,
        off: i64,
        vmin: i64,
        vmax: i64,
    },
    PtrMapOrNull {
        map: MapId,
    },
    MapHandle(MapId),
}

impl RegType {
    fn cnst(v: i64) -> Self {
        RegType::Scalar(Range::cnst(v))
    }

    fn unknown_scalar() -> Self {
        RegType::Scalar(Range::unknown())
    }

    fn is_scalar(self) -> bool {
        matches!(self, RegType::Scalar(_))
    }

    fn const_i(self) -> Option<i64> {
        match self {
            RegType::Scalar(r) => r.const_i(),
            _ => None,
        }
    }

    /// What a register holds where two edges meet: an equal value
    /// stays, two scalars join their ranges, and anything else — two
    /// pointers at different offsets included — is unusable.
    fn join(self, other: RegType) -> RegType {
        match (self, other) {
            _ if self == other => self,
            (RegType::Scalar(a), RegType::Scalar(b)) => RegType::Scalar(a.join(b)),
            _ => RegType::Uninit,
        }
    }
}

fn fmt_ptr(
    f: &mut std::fmt::Formatter<'_>,
    base: &str,
    off: i64,
    vmin: i64,
    vmax: i64,
) -> std::fmt::Result {
    write!(f, "{base}{off:+}")?;
    if (vmin, vmax) != (0, 0) {
        write!(f, "+[{vmin},{vmax}]")?;
    }
    Ok(())
}

impl std::fmt::Display for RegType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegType::Uninit => write!(f, "uninit"),
            RegType::Scalar(r) => write!(f, "{r}"),
            RegType::PtrStack { off, vmin, vmax } => fmt_ptr(f, "fp", *off, *vmin, *vmax),
            RegType::PtrCtx { off, vmin, vmax } => fmt_ptr(f, "ctx", *off, *vmin, *vmax),
            RegType::PtrMap {
                map,
                off,
                vmin,
                vmax,
            } => fmt_ptr(f, &format!("map_value({})", map.0), *off, *vmin, *vmax),
            RegType::PtrMapOrNull { map } => write!(f, "map_value_or_null({})", map.0),
            RegType::MapHandle(map) => write!(f, "map_handle({})", map.0),
        }
    }
}

/// The abstract machine state before one instruction.
#[derive(Debug, Clone, Copy)]
struct State {
    regs: [RegType; 11],
    /// One bit per stack byte: written on every path to here.
    stack_init: [u64; 8],
}

impl State {
    fn entry() -> Self {
        let mut regs = [RegType::Uninit; 11];
        regs[1] = RegType::PtrCtx {
            off: 0,
            vmin: 0,
            vmax: 0,
        }; // R1 = ctx at entry
        regs[10] = RegType::PtrStack {
            off: 0,
            vmin: 0,
            vmax: 0,
        }; // R10 = frame top
        State {
            regs,
            stack_init: [0; 8],
        }
    }

    fn stack_bit(off: i64) -> (usize, u64) {
        // off in [-512, -1]; bit index 0 = fp-512.
        let idx = (off + STACK_SIZE) as usize;
        (idx / 64, 1u64 << (idx % 64))
    }

    fn mark_stack_init(&mut self, off: i64, size: usize) {
        for b in 0..size as i64 {
            let (w, m) = Self::stack_bit(off + b);
            self.stack_init[w] |= m;
        }
    }

    fn stack_is_init(&self, off: i64, size: usize) -> bool {
        (0..size as i64).all(|b| {
            let (w, m) = Self::stack_bit(off + b);
            self.stack_init[w] & m != 0
        })
    }

    /// The state where two edges meet: registers join one by one, and a
    /// stack byte is written only if both edges wrote it.
    fn join(mut self, other: &State) -> State {
        for (r, o) in self.regs.iter_mut().zip(other.regs) {
            *r = r.join(o);
        }
        for (w, o) in self.stack_init.iter_mut().zip(other.stack_init) {
            *w &= o;
        }
        self
    }
}

/// Statistics from one verifier pass — the "verifier pass stats" leg of
/// the BPF VM's telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyStats {
    /// Program length in instructions.
    pub insns: usize,
    /// Instructions the walk reached, each once: at most `insns`, fewer
    /// when a branch is statically dead.
    pub insns_visited: usize,
}

/// Verify a program against a map registry and a declared context size,
/// reporting how much work the pass did.
pub fn verify(
    prog: &[Insn],
    maps: &MapRegistry,
    ctx_size: usize,
) -> Result<VerifyStats, VerifyError> {
    run(prog, maps, ctx_size, false).0
}

/// Like [`verify`], but also produces a kernel-style human-readable
/// trace of the walk (most useful on rejection).
pub fn verify_with_log(
    prog: &[Insn],
    maps: &MapRegistry,
    ctx_size: usize,
) -> (Result<VerifyStats, VerifyError>, String) {
    run(prog, maps, ctx_size, true)
}

fn run(
    prog: &[Insn],
    maps: &MapRegistry,
    ctx_size: usize,
    want_log: bool,
) -> (Result<VerifyStats, VerifyError>, String) {
    let mut log = if want_log { Some(String::new()) } else { None };
    if let Some(l) = log.as_mut() {
        l.push_str(&format!(
            "verifying {} insns, ctx {} bytes\n",
            prog.len(),
            ctx_size
        ));
    }
    let early = if prog.is_empty() {
        Some(VerifyError::EmptyProgram)
    } else if prog.len() > MAX_INSNS {
        Some(VerifyError::TooLong { len: prog.len() })
    } else {
        prog.iter()
            .position(|insn| matches!(insn, Insn::Jump { off, .. } if *off < 0))
            .map(|pc| VerifyError::BackEdge { pc })
    };
    if let Some(err) = early {
        let mut log = log.unwrap_or_default();
        if want_log {
            log.push_str(&format!("rejected: {err}\n"));
        }
        return (Err(err), log);
    }
    let mut v = Verifier {
        prog,
        maps,
        ctx_size,
        insns_visited: 0,
        pending: BTreeMap::new(),
        log,
    };
    let result = v.walk();
    let stats = VerifyStats {
        insns: prog.len(),
        insns_visited: v.insns_visited,
    };
    let mut log = v.log.take().unwrap_or_default();
    if want_log {
        match &result {
            Ok(()) => log.push_str("accepted\n"),
            Err(e) => log.push_str(&format!("rejected: {e}\n")),
        }
        log.push_str(&format!(
            "stats: insns {} visited {}\n",
            stats.insns, stats.insns_visited,
        ));
    }
    debug_assert!(
        result.is_err() || stats.insns_visited <= stats.insns,
        "{stats:?}: an instruction was visited twice"
    );
    (result.map(|()| stats), log)
}

struct Verifier<'a> {
    prog: &'a [Insn],
    maps: &'a MapRegistry,
    ctx_size: usize,
    insns_visited: usize,
    /// States that jumps carried ahead of the walk, keyed by target pc;
    /// two jumps to one target leave their join.
    pending: BTreeMap<usize, State>,
    log: Option<String>,
}

impl<'a> Verifier<'a> {
    /// Append one log line; the closure only runs when logging is on.
    fn trace(&mut self, f: impl FnOnce() -> String) {
        if let Some(log) = self.log.as_mut() {
            if log.len() < MAX_LOG_BYTES {
                log.push_str(&f());
                log.push('\n');
                if log.len() >= MAX_LOG_BYTES {
                    log.push_str("...log truncated...\n");
                }
            }
        }
    }

    /// One pass in program order. Every jump goes forward, so when the
    /// walk reaches a pc every edge into it has been followed: its state
    /// is the join of the fall-through and what jumps carried there. A
    /// pc nothing reaches is skipped; anything that reaches
    /// `prog.len()` fell off the end.
    fn walk(&mut self) -> Result<(), VerifyError> {
        let mut fall = Some(State::entry());
        for pc in 0..=self.prog.len() {
            let st = match (fall.take(), self.pending.remove(&pc)) {
                (Some(a), Some(b)) => a.join(&b),
                (Some(st), None) | (None, Some(st)) => st,
                (None, None) => continue,
            };
            if pc == self.prog.len() {
                return Err(VerifyError::FellOffEnd { pc });
            }
            self.insns_visited += 1;
            fall = self.step(pc, st)?;
        }
        Ok(())
    }

    /// Carry `st` along a jump edge to `target`.
    fn jump_to(&mut self, target: usize, st: State) {
        self.pending
            .entry(target)
            .and_modify(|p| *p = p.join(&st))
            .or_insert(st);
    }

    fn read_reg(&self, st: &State, pc: usize, r: Reg) -> Result<RegType, VerifyError> {
        if !r.is_valid() {
            return Err(VerifyError::InvalidRegister { pc });
        }
        match st.regs[r.index()] {
            RegType::Uninit => Err(VerifyError::UninitRead { pc, reg: r.0 }),
            t => Ok(t),
        }
    }

    fn src_type(&self, st: &State, pc: usize, src: Src) -> Result<RegType, VerifyError> {
        match src {
            Src::Imm(i) => Ok(RegType::cnst(i)),
            Src::Reg(r) => self.read_reg(st, pc, r),
        }
    }

    fn check_writable(&self, pc: usize, r: Reg) -> Result<(), VerifyError> {
        if !r.is_valid() {
            return Err(VerifyError::InvalidRegister { pc });
        }
        if !r.is_writable() {
            return Err(VerifyError::WriteToFramePointer { pc });
        }
        Ok(())
    }

    /// Check a pointer access over the pointer's whole offset span
    /// `[off+vmin, off+vmax]` and, for stack reads, initialization.
    fn check_access(
        &self,
        st: &State,
        pc: usize,
        base: RegType,
        off: i32,
        size: usize,
        write: bool,
    ) -> Result<(), VerifyError> {
        match base {
            RegType::PtrStack { off: p, vmin, vmax } => {
                let lo = (p + vmin) + off as i64;
                let hi = (p + vmax) + off as i64;
                let span = (hi - lo) as usize + size;
                if lo < -STACK_SIZE || hi + size as i64 > 0 {
                    return Err(VerifyError::OutOfBounds {
                        pc,
                        region: "stack",
                        off: lo,
                        size: span,
                    });
                }
                if !write && !st.stack_is_init(lo, span) {
                    return Err(VerifyError::UninitStackRead { pc, off: lo });
                }
                Ok(())
            }
            RegType::PtrCtx { off: p, vmin, vmax } => {
                if write {
                    return Err(VerifyError::CtxWrite { pc });
                }
                let lo = (p + vmin) + off as i64;
                let hi = (p + vmax) + off as i64;
                if lo < 0 || hi + size as i64 > self.ctx_size as i64 {
                    return Err(VerifyError::OutOfBounds {
                        pc,
                        region: "ctx",
                        off: lo,
                        size: (hi - lo) as usize + size,
                    });
                }
                Ok(())
            }
            RegType::PtrMap {
                map,
                off: p,
                vmin,
                vmax,
            } => {
                let vs = self
                    .maps
                    .def(map)
                    .ok_or(VerifyError::UnknownMap { pc })?
                    .value_size as i64;
                let lo = (p + vmin) + off as i64;
                let hi = (p + vmax) + off as i64;
                if lo < 0 || hi + size as i64 > vs {
                    return Err(VerifyError::OutOfBounds {
                        pc,
                        region: "map value",
                        off: lo,
                        size: (hi - lo) as usize + size,
                    });
                }
                Ok(())
            }
            RegType::PtrMapOrNull { .. } => Err(VerifyError::PossiblyNullDeref { pc }),
            _ => Err(VerifyError::NotAPointer { pc }),
        }
    }

    /// Check the instruction at `pc` against `st`, hand any jump edge
    /// its state, and return the state that falls through to `pc + 1`
    /// (`None` after an `exit` or a jump with no live fall-through).
    fn step(&mut self, pc: usize, mut st: State) -> Result<Option<State>, VerifyError> {
        let insn = self.prog[pc];
        self.trace(|| format!("{pc}: {insn}"));
        match insn {
            Insn::Alu { op, dst, src } => {
                self.check_writable(pc, dst)?;
                let d = if op == AluOp::Mov {
                    RegType::Uninit
                } else {
                    self.read_reg(&st, pc, dst)?
                };
                let s = self.src_type(&st, pc, src)?;
                let result = self.alu_result(pc, op, d, s)?;
                st.regs[dst.index()] = result;
                self.trace(|| format!("  ; r{}={}", dst.0, result));
            }
            Insn::Load {
                size,
                dst,
                base,
                off,
            } => {
                self.check_writable(pc, dst)?;
                let b = self.read_reg(&st, pc, base)?;
                self.check_access(&st, pc, b, off, size.bytes(), false)?;
                // Loads are zero-extended, so sub-64-bit loads have
                // known bounds.
                st.regs[dst.index()] = if size.bytes() == 8 {
                    RegType::unknown_scalar()
                } else {
                    let max = (1u64 << (size.bytes() * 8)) - 1;
                    RegType::Scalar(Range {
                        tnum: Tnum {
                            value: 0,
                            mask: max,
                        },
                        umin: 0,
                        umax: max,
                        smin: 0,
                        smax: max as i64,
                    })
                };
            }
            Insn::Store {
                size,
                base,
                off,
                src,
            } => {
                let b = self.read_reg(&st, pc, base)?;
                let s = self.src_type(&st, pc, src)?;
                if !s.is_scalar() {
                    return Err(VerifyError::PointerStore { pc });
                }
                self.check_access(&st, pc, b, off, size.bytes(), true)?;
                if let RegType::PtrStack { off: p, vmin, vmax } = b {
                    // A variable-offset store initializes *some* bytes
                    // of the span; marking the whole span is still safe
                    // because the VM zero-fills the stack (init
                    // tracking is a strictness check, not a safety
                    // one).
                    let lo = (p + vmin) + off as i64;
                    st.mark_stack_init(lo, (vmax - vmin) as usize + size.bytes());
                }
            }
            Insn::Jump { cond, off } => {
                // `off` is not negative: `run` rejected every back edge.
                let target = pc as i64 + 1 + off as i64;
                if target > self.prog.len() as i64 {
                    return Err(VerifyError::JumpOutOfBounds { pc });
                }
                let Some((c, dst, src)) = cond else {
                    self.jump_to(target as usize, st);
                    return Ok(None);
                };
                let (taken, fall) = self.branch(pc, st, c, dst, src)?;
                match taken {
                    Some(t) => self.jump_to(target as usize, t),
                    None => self.trace(|| format!("{pc}: branch never taken (dead arm)")),
                }
                if fall.is_none() {
                    self.trace(|| format!("{pc}: branch always taken (dead fall-through)"));
                }
                return Ok(fall);
            }
            Insn::Call { helper } => {
                self.check_call(&mut st, pc, helper)?;
            }
            Insn::LoadMap { dst, map } => {
                self.check_writable(pc, dst)?;
                if self.maps.def(map).is_none() {
                    return Err(VerifyError::UnknownMap { pc });
                }
                st.regs[dst.index()] = RegType::MapHandle(map);
            }
            Insn::Exit => {
                if !st.regs[0].is_scalar() {
                    return Err(VerifyError::ExitWithoutScalarR0 { pc });
                }
                self.trace(|| format!("{pc}: exit; r0={}", st.regs[0]));
                return Ok(None);
            }
        }
        Ok(Some(st))
    }

    /// The states on a conditional jump's two edges, `(taken,
    /// fall-through)`, each refined by what holds on it; `None` for an
    /// edge the condition rules out.
    fn branch(
        &self,
        pc: usize,
        st: State,
        c: Cond,
        dst: Reg,
        src: Src,
    ) -> Result<(Option<State>, Option<State>), VerifyError> {
        let d = self.read_reg(&st, pc, dst)?;
        let s = self.src_type(&st, pc, src)?;
        // Null-check refinement for map lookups.
        if let RegType::PtrMapOrNull { map } = d {
            if s.const_i() != Some(0) || !matches!(c, Cond::Eq | Cond::Ne) {
                return Err(VerifyError::PointerComparison { pc });
            }
            let mut null_st = st;
            null_st.regs[dst.index()] = RegType::cnst(0);
            let mut ptr_st = st;
            ptr_st.regs[dst.index()] = RegType::PtrMap {
                map,
                off: 0,
                vmin: 0,
                vmax: 0,
            };
            return Ok(if c == Cond::Eq {
                (Some(null_st), Some(ptr_st))
            } else {
                (Some(ptr_st), Some(null_st))
            });
        }
        let (RegType::Scalar(dr), RegType::Scalar(sr)) = (d, s) else {
            return Err(VerifyError::PointerComparison { pc });
        };
        let arm = |cond| {
            let (rd, rs) = refine(cond, dr, sr)?;
            let mut arm = st;
            arm.regs[dst.index()] = RegType::Scalar(rd);
            if let Src::Reg(sreg) = src {
                arm.regs[sreg.index()] = RegType::Scalar(rs);
            }
            Some(arm)
        };
        Ok((arm(BranchCond::C(c)), arm(negate(c))))
    }

    /// What an ALU op leaves in its destination. Both operands have been
    /// read, so neither is `Uninit` — except `dst` of a `Mov`, which is
    /// not read.
    fn alu_result(
        &self,
        pc: usize,
        op: AluOp,
        dst: RegType,
        src: RegType,
    ) -> Result<RegType, VerifyError> {
        use AluOp::*;
        use RegType::*;
        match (op, dst, src) {
            (Mov, ..) => Ok(src),
            (Neg, Scalar(r), _) => Ok(Scalar(range_alu(Sub, Range::cnst(0), r))),
            (Add | Sub, PtrStack { .. } | PtrCtx { .. } | PtrMap { .. }, Scalar(s)) => {
                self.ptr_math(pc, op, dst, s)
            }
            (Div | Mod, Scalar(_), Scalar(b)) if b.const_u() == Some(0) => {
                Err(VerifyError::DivisionByZero { pc })
            }
            (_, Scalar(a), Scalar(b)) => Ok(Scalar(range_alu(op, a, b))),
            _ => Err(VerifyError::PointerArithmetic { pc }),
        }
    }

    /// Pointer ± scalar. Constant scalars fold into the base offset;
    /// bounded scalars widen the variable part. All arithmetic is
    /// checked and the resulting span is capped at ±[`MAX_PTR_OFF`], so
    /// adversarial constants (e.g. `i64::MIN`) reject instead of
    /// overflowing.
    fn ptr_math(
        &self,
        pc: usize,
        op: AluOp,
        ptr: RegType,
        s: Range,
    ) -> Result<RegType, VerifyError> {
        let err = VerifyError::PointerArithmetic { pc };
        let (RegType::PtrStack { off, vmin, vmax }
        | RegType::PtrCtx { off, vmin, vmax }
        | RegType::PtrMap {
            off, vmin, vmax, ..
        }) = ptr
        else {
            return Err(err);
        };
        let add = op == AluOp::Add;
        let (off, vmin, vmax) = if let Some(c) = s.const_i() {
            let off = if add {
                off.checked_add(c)
            } else {
                off.checked_sub(c)
            };
            (off.ok_or_else(|| err.clone())?, vmin, vmax)
        } else {
            let (lo, hi) = if add {
                (vmin.checked_add(s.smin), vmax.checked_add(s.smax))
            } else {
                (vmin.checked_sub(s.smax), vmax.checked_sub(s.smin))
            };
            (
                off,
                lo.ok_or_else(|| err.clone())?,
                hi.ok_or_else(|| err.clone())?,
            )
        };
        let lo = off.checked_add(vmin).ok_or_else(|| err.clone())?;
        let hi = off.checked_add(vmax).ok_or_else(|| err.clone())?;
        if lo < -MAX_PTR_OFF || hi > MAX_PTR_OFF {
            return Err(err);
        }
        Ok(match ptr {
            RegType::PtrStack { .. } => RegType::PtrStack { off, vmin, vmax },
            RegType::PtrCtx { .. } => RegType::PtrCtx { off, vmin, vmax },
            RegType::PtrMap { map, .. } => RegType::PtrMap {
                map,
                off,
                vmin,
                vmax,
            },
            _ => unreachable!(),
        })
    }

    fn check_call(&self, st: &mut State, pc: usize, helper: Helper) -> Result<(), VerifyError> {
        use Helper::*;
        let ret = match helper {
            KtimeGetNs => RegType::unknown_scalar(),
            MapLookup => {
                let map = self.arg_map(st, pc, helper, 1, is_hash)?;
                let ks = self.maps.def(map).unwrap().key_size;
                self.arg_ptr(st, pc, helper, 2, ks, false)?;
                RegType::PtrMapOrNull { map }
            }
            MapUpdate => {
                let map = self.arg_map(st, pc, helper, 1, is_hash)?;
                let (ks, vs) = {
                    let d = self.maps.def(map).unwrap();
                    (d.key_size, d.value_size)
                };
                self.arg_ptr(st, pc, helper, 2, ks, false)?;
                self.arg_ptr(st, pc, helper, 3, vs, false)?;
                self.arg_scalar(st, pc, helper, 4)?;
                RegType::unknown_scalar()
            }
            MapDelete => {
                let map = self.arg_map(st, pc, helper, 1, is_hash)?;
                let ks = self.maps.def(map).unwrap().key_size;
                self.arg_ptr(st, pc, helper, 2, ks, false)?;
                RegType::unknown_scalar()
            }
            PerfEventReadBuf => {
                self.arg_scalar(st, pc, helper, 1)?;
                self.arg_ptr(st, pc, helper, 2, 24, true)?;
                RegType::unknown_scalar()
            }
            ReadTaskIo | ReadTcpSock => {
                self.arg_ptr(st, pc, helper, 1, 32, true)?;
                RegType::unknown_scalar()
            }
            PerfEventOutput => {
                self.arg_map(st, pc, helper, 1, is_ring)?;
                // The runtime length is r3; the data pointer must be
                // valid for the largest value r3 can take.
                let len = match st.regs[3] {
                    RegType::Scalar(r) if r.umin >= 1 && r.umax <= MAX_OUTPUT_BYTES as u64 => {
                        r.umax as usize
                    }
                    _ => {
                        return Err(VerifyError::BadHelperArg {
                            pc,
                            helper,
                            arg: 3,
                            expected: "bounded length in 1..=8192",
                        })
                    }
                };
                self.arg_ptr(st, pc, helper, 2, len, false)?;
                RegType::unknown_scalar()
            }
        };
        // Calls clobber the caller-saved registers.
        for r in 1..=5 {
            st.regs[r] = RegType::Uninit;
        }
        st.regs[0] = ret;
        Ok(())
    }

    fn arg_scalar(
        &self,
        st: &State,
        pc: usize,
        helper: Helper,
        arg: u8,
    ) -> Result<(), VerifyError> {
        if st.regs[arg as usize].is_scalar() {
            Ok(())
        } else {
            Err(VerifyError::BadHelperArg {
                pc,
                helper,
                arg,
                expected: "scalar",
            })
        }
    }

    fn arg_map(
        &self,
        st: &State,
        pc: usize,
        helper: Helper,
        arg: u8,
        wanted: fn(MapKind) -> bool,
    ) -> Result<MapId, VerifyError> {
        let bad = |expected| VerifyError::BadHelperArg {
            pc,
            helper,
            arg,
            expected,
        };
        match st.regs[arg as usize] {
            RegType::MapHandle(m) => {
                let def = self.maps.def(m).ok_or(VerifyError::UnknownMap { pc })?;
                if wanted(def.kind) {
                    Ok(m)
                } else {
                    Err(bad("map of compatible kind"))
                }
            }
            _ => Err(bad("map handle")),
        }
    }

    fn arg_ptr(
        &self,
        st: &mut State,
        pc: usize,
        helper: Helper,
        arg: u8,
        size: usize,
        write: bool,
    ) -> Result<(), VerifyError> {
        let t = self.read_reg(st, pc, Reg(arg))?;
        self.check_access(st, pc, t, 0, size, write)
            .map_err(|e| match e {
                VerifyError::NotAPointer { .. } => VerifyError::BadHelperArg {
                    pc,
                    helper,
                    arg,
                    expected: "pointer to memory",
                },
                other => other,
            })?;
        if write {
            if let RegType::PtrStack { off, vmin, vmax } = t {
                st.mark_stack_init(off + vmin, (vmax - vmin) as usize + size);
            }
        }
        Ok(())
    }
}

fn is_hash(kind: MapKind) -> bool {
    matches!(kind, MapKind::Hash { .. })
}

fn is_ring(kind: MapKind) -> bool {
    matches!(kind, MapKind::PerfEventArray { .. })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::ProgramBuilder;
    use crate::insn::{Size, R0, R1, R10, R2, R3, R4, R6};
    use crate::maps::MapDef;

    fn maps() -> (MapRegistry, MapId, MapId) {
        let mut r = MapRegistry::new();
        let h = r.create(MapDef::hash("h", 8, 16, 64));
        let ring = r.create(MapDef::perf_event_array("ring", 16));
        (r, h, ring)
    }

    fn ok(prog: Vec<Insn>, maps: &MapRegistry, ctx: usize) {
        if let Err(e) = verify(&prog, maps, ctx) {
            panic!("expected OK, got {e}\n{}", crate::insn::disassemble(&prog));
        }
    }

    fn rejected(prog: Vec<Insn>, maps: &MapRegistry, ctx: usize) -> VerifyError {
        verify(&prog, maps, ctx).expect_err("expected rejection")
    }

    #[test]
    fn minimal_program_verifies() {
        let (m, ..) = maps();
        let mut b = ProgramBuilder::new();
        b.mov_imm(R0, 0).exit();
        ok(b.resolve().unwrap(), &m, 0);
    }

    #[test]
    fn empty_program_rejected() {
        let (m, ..) = maps();
        assert_eq!(rejected(vec![], &m, 0), VerifyError::EmptyProgram);
    }

    #[test]
    fn exit_with_uninit_r0_rejected() {
        let (m, ..) = maps();
        assert!(matches!(
            rejected(vec![Insn::Exit], &m, 0),
            VerifyError::ExitWithoutScalarR0 { .. }
        ));
    }

    #[test]
    fn uninit_register_read_rejected() {
        let (m, ..) = maps();
        let mut b = ProgramBuilder::new();
        b.mov_reg(R0, R6).exit();
        assert!(matches!(
            rejected(b.resolve().unwrap(), &m, 0),
            VerifyError::UninitRead { .. }
        ));
    }

    #[test]
    fn unconditional_back_edge_rejected() {
        let (m, ..) = maps();
        let prog = vec![
            Insn::Alu {
                op: AluOp::Mov,
                dst: R0,
                src: Src::Imm(0),
            },
            Insn::Jump {
                cond: None,
                off: -2,
            },
            Insn::Exit,
        ];
        assert_eq!(rejected(prog, &m, 0), VerifyError::BackEdge { pc: 1 });

        // A loop whose counter bounds it is a back edge all the same:
        // for (r6 = 0; r6 < 10; ) r6 += 1.
        let mut b = ProgramBuilder::new();
        b.mov_imm(R6, 0);
        let top = b.label();
        b.bind(top);
        b.alu_imm(AluOp::Add, R6, 1);
        b.jump_if_imm(Cond::Lt, R6, 10, top);
        b.mov_imm(R0, 0).exit();
        assert_eq!(
            rejected(b.resolve().unwrap(), &m, 0),
            VerifyError::BackEdge { pc: 2 }
        );
    }

    #[test]
    fn back_edge_on_a_dead_arm_rejected() {
        // `r0 == 1` never holds, so no path takes the jump: the rule is
        // about the program, not its paths.
        let (m, ..) = maps();
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.bind(top);
        b.mov_imm(R0, 0);
        b.jump_if_imm(Cond::Eq, R0, 1, top);
        b.exit();
        assert_eq!(
            rejected(b.resolve().unwrap(), &m, 0),
            VerifyError::BackEdge { pc: 1 }
        );
    }

    #[test]
    fn fall_off_end_rejected() {
        let (m, ..) = maps();
        let prog = vec![Insn::Alu {
            op: AluOp::Mov,
            dst: R0,
            src: Src::Imm(0),
        }];
        assert!(matches!(
            rejected(prog, &m, 0),
            VerifyError::FellOffEnd { .. }
        ));
    }

    #[test]
    fn stack_write_then_read_ok() {
        let (m, ..) = maps();
        let mut b = ProgramBuilder::new();
        b.store_imm(Size::B8, R10, -8, 7);
        b.load(Size::B8, R0, R10, -8);
        b.exit();
        ok(b.resolve().unwrap(), &m, 0);
    }

    #[test]
    fn uninit_stack_read_rejected() {
        let (m, ..) = maps();
        let mut b = ProgramBuilder::new();
        b.load(Size::B8, R0, R10, -8);
        b.exit();
        assert!(matches!(
            rejected(b.resolve().unwrap(), &m, 0),
            VerifyError::UninitStackRead { .. }
        ));
    }

    #[test]
    fn stack_out_of_bounds_rejected() {
        let (m, ..) = maps();
        for off in [-520, 0, 8] {
            let mut b = ProgramBuilder::new();
            b.store_imm(Size::B8, R10, off, 7);
            b.mov_imm(R0, 0).exit();
            assert!(
                matches!(
                    rejected(b.resolve().unwrap(), &m, 0),
                    VerifyError::OutOfBounds {
                        region: "stack",
                        ..
                    }
                ),
                "offset {off} should be rejected"
            );
        }
        // -512 .. -505 is the deepest valid 8-byte slot.
        let mut b = ProgramBuilder::new();
        b.store_imm(Size::B8, R10, -512, 7);
        b.mov_imm(R0, 0).exit();
        ok(b.resolve().unwrap(), &m, 0);
    }

    #[test]
    fn ctx_read_ok_write_rejected_oob_rejected() {
        let (m, ..) = maps();
        let mut b = ProgramBuilder::new();
        b.load(Size::B8, R0, R1, 0);
        b.exit();
        ok(b.resolve().unwrap(), &m, 16);

        let mut b = ProgramBuilder::new();
        b.store_imm(Size::B8, R1, 0, 1);
        b.mov_imm(R0, 0).exit();
        assert!(matches!(
            rejected(b.resolve().unwrap(), &m, 16),
            VerifyError::CtxWrite { .. }
        ));

        let mut b = ProgramBuilder::new();
        b.load(Size::B8, R0, R1, 16);
        b.exit();
        assert!(matches!(
            rejected(b.resolve().unwrap(), &m, 16),
            VerifyError::OutOfBounds { region: "ctx", .. }
        ));
    }

    fn lookup_prog(check_null: bool) -> (MapRegistry, Vec<Insn>) {
        let (m, h, ..) = maps();
        let mut b = ProgramBuilder::new();
        b.store_imm(Size::B8, R10, -8, 1); // key = 1
        b.load_map(R1, h);
        b.mov_reg(R2, R10);
        b.alu_imm(AluOp::Add, R2, -8);
        b.call(Helper::MapLookup);
        if check_null {
            let miss = b.label();
            b.jump_if_imm(Cond::Eq, R0, 0, miss);
            b.load(Size::B8, R3, R0, 0); // deref value
            b.bind(miss);
        } else {
            b.load(Size::B8, R3, R0, 0);
        }
        b.mov_imm(R0, 0).exit();
        (m, b.resolve().unwrap())
    }

    #[test]
    fn map_lookup_with_null_check_ok() {
        let (m, prog) = lookup_prog(true);
        ok(prog, &m, 0);
    }

    #[test]
    fn map_lookup_without_null_check_rejected() {
        let (m, prog) = lookup_prog(false);
        assert!(matches!(
            verify(&prog, &m, 0),
            Err(VerifyError::PossiblyNullDeref { .. })
        ));
    }

    #[test]
    fn map_value_oob_rejected() {
        let (m, h, ..) = maps();
        let mut b = ProgramBuilder::new();
        b.store_imm(Size::B8, R10, -8, 1);
        b.load_map(R1, h);
        b.mov_reg(R2, R10);
        b.alu_imm(AluOp::Add, R2, -8);
        b.call(Helper::MapLookup);
        let miss = b.label();
        b.jump_if_imm(Cond::Eq, R0, 0, miss);
        b.load(Size::B8, R3, R0, 16); // value_size is 16: off 16 is OOB
        b.bind(miss);
        b.mov_imm(R0, 0).exit();
        assert!(matches!(
            rejected(b.resolve().unwrap(), &m, 0),
            VerifyError::OutOfBounds {
                region: "map value",
                ..
            }
        ));
    }

    #[test]
    fn pointer_arithmetic_with_unknown_scalar_rejected() {
        let (m, ..) = maps();
        let mut b = ProgramBuilder::new();
        b.call(Helper::KtimeGetNs); // R0 = unknown scalar
        b.mov_reg(R2, R10);
        b.alu_reg(AluOp::Add, R2, R0); // fp + unknown
        b.store_imm(Size::B8, R2, -8, 1);
        b.mov_imm(R0, 0).exit();
        assert!(matches!(
            rejected(b.resolve().unwrap(), &m, 0),
            VerifyError::PointerArithmetic { .. }
        ));
    }

    #[test]
    fn branch_refinement_allows_variable_stack_access() {
        // ktime() & guard proves r0 ∈ [0, 7]; fp-16+r0 stays in frame.
        let (m, ..) = maps();
        let mut b = ProgramBuilder::new();
        b.call(Helper::KtimeGetNs);
        let out = b.label();
        b.jump_if_imm(Cond::Gt, R0, 7, out);
        b.mov_reg(R2, R10);
        b.alu_imm(AluOp::Add, R2, -16);
        b.alu_reg(AluOp::Add, R2, R0);
        b.store_imm(Size::B8, R2, 0, 1);
        b.bind(out);
        b.mov_imm(R0, 0).exit();
        ok(b.resolve().unwrap(), &m, 0);
    }

    #[test]
    fn too_wide_refined_range_still_rejected() {
        // The guard only proves r0 <= 600; fp-16+600+8 overruns fp.
        let (m, ..) = maps();
        let mut b = ProgramBuilder::new();
        b.call(Helper::KtimeGetNs);
        let out = b.label();
        b.jump_if_imm(Cond::Gt, R0, 600, out);
        b.mov_reg(R2, R10);
        b.alu_imm(AluOp::Add, R2, -16);
        b.alu_reg(AluOp::Add, R2, R0);
        b.store_imm(Size::B8, R2, 0, 1);
        b.bind(out);
        b.mov_imm(R0, 0).exit();
        assert!(matches!(
            rejected(b.resolve().unwrap(), &m, 0),
            VerifyError::OutOfBounds {
                region: "stack",
                ..
            }
        ));
    }

    #[test]
    fn variable_ctx_read_with_masked_index_ok() {
        // r0 = ktime() & 7 — the tnum alone bounds the index.
        let (m, ..) = maps();
        let mut b = ProgramBuilder::new();
        b.mov_reg(R6, R1); // ctx survives the call in a callee-saved reg
        b.call(Helper::KtimeGetNs);
        b.alu_imm(AluOp::And, R0, 7);
        b.mov_reg(R2, R6);
        b.alu_reg(AluOp::Add, R2, R0);
        b.load(Size::B1, R0, R2, 0);
        b.exit();
        ok(b.resolve().unwrap(), &m, 8);
    }

    #[test]
    fn jset_refinement_proves_bit_clear() {
        // Fall-through of jset r0, 8 proves bit 3 is 0, so r0 (already
        // masked to bit 3 only) must be exactly 0 and the OOB store in
        // the dead region is never visited.
        let (m, ..) = maps();
        let mut b = ProgramBuilder::new();
        b.call(Helper::KtimeGetNs);
        b.alu_imm(AluOp::And, R0, 8);
        let t = b.label();
        let end = b.label();
        b.jump_if_imm(Cond::Set, R0, 8, t);
        b.jump_if_imm(Cond::Eq, R0, 0, end);
        b.store_imm(Size::B8, R10, 100, 1); // dead: would be OOB
        b.bind(t);
        b.bind(end);
        b.mov_imm(R0, 0).exit();
        ok(b.resolve().unwrap(), &m, 0);
    }

    #[test]
    fn pointer_add_i64_min_does_not_panic() {
        let (m, ..) = maps();
        for op in [AluOp::Add, AluOp::Sub] {
            let mut b = ProgramBuilder::new();
            b.mov_reg(R2, R10);
            b.alu_imm(op, R2, i64::MIN);
            b.store_imm(Size::B8, R2, 0, 1);
            b.mov_imm(R0, 0).exit();
            assert!(matches!(
                rejected(b.resolve().unwrap(), &m, 0),
                VerifyError::PointerArithmetic { .. }
            ));
        }
    }

    #[test]
    fn adversarial_constant_arithmetic_does_not_panic() {
        // Overflow-prone constant folds must wrap, not panic.
        let (m, ..) = maps();
        for op in [AluOp::Add, AluOp::Sub, AluOp::Mul, AluOp::Neg] {
            let mut b = ProgramBuilder::new();
            b.mov_imm(R0, i64::MIN);
            b.alu_imm(op, R0, i64::MAX);
            b.alu_imm(op, R0, i64::MIN);
            b.exit();
            ok(b.resolve().unwrap(), &m, 0);
        }
    }

    #[test]
    fn a_diamond_chain_is_walked_once() {
        // A chain of diamonds: 2^k paths, but each insn is visited once.
        let (m, ..) = maps();
        let k = 6;
        let mut b = ProgramBuilder::new();
        for _ in 0..k {
            b.call(Helper::KtimeGetNs);
            let els = b.label();
            let end = b.label();
            b.jump_if_imm(Cond::Eq, R0, 0, els);
            b.store_imm(Size::B8, R10, -8, 1);
            b.jump(end);
            b.bind(els);
            b.store_imm(Size::B8, R10, -8, 2);
            b.bind(end);
        }
        b.mov_imm(R0, 0).exit();
        let prog = b.resolve().unwrap();
        let s = verify(&prog, &m, 0).unwrap();
        assert_eq!(s.insns_visited, prog.len(), "{s:?}");
    }

    /// A diamond whose arms leave `r2` pointing into two regions and
    /// write different stack bytes: after the join neither the pointer
    /// nor the bytes only one arm wrote may be read.
    #[test]
    fn joined_arms_keep_only_what_both_agree_on() {
        let (m, ..) = maps();
        let diamond_then_load = |base, off| {
            let mut b = ProgramBuilder::new();
            b.mov_reg(R6, R1);
            b.store_imm(Size::B8, R10, -8, 0);
            b.call(Helper::KtimeGetNs);
            let (els, end) = (b.label(), b.label());
            b.jump_if_imm(Cond::Eq, R0, 0, els);
            b.mov_reg(R2, R10).alu_imm(AluOp::Add, R2, -8);
            b.store_imm(Size::B8, R10, -16, 1).jump(end);
            b.bind(els);
            b.mov_reg(R2, R6).store_imm(Size::B8, R10, -24, 2);
            b.bind(end);
            b.load(Size::B8, R0, base, off).exit();
            verify(&b.resolve().unwrap(), &m, 8)
        };
        assert!(diamond_then_load(R10, -8).is_ok(), "both arms wrote fp-8");
        let err = diamond_then_load(R2, 0).unwrap_err();
        assert_eq!(err, VerifyError::UninitRead { pc: 10, reg: 2 });
        assert!(err.to_string().contains("uninitialized r2"), "{err}");
        for off in [-16, -24] {
            let err = VerifyError::UninitStackRead {
                pc: 10,
                off: off.into(),
            };
            assert_eq!(diamond_then_load(R10, off), Err(err));
        }
    }

    /// Every ALU op but `mov` reads its destination, so an uninitialised
    /// one is reported as the register it is.
    #[test]
    fn alu_on_an_uninitialised_destination_names_it() {
        use AluOp::*;
        let (m, ..) = maps();
        for op in [Add, Sub, Mul, Div, Mod, And, Or, Xor, Lsh, Rsh, Arsh, Neg] {
            let mut b = ProgramBuilder::new();
            b.alu_imm(op, R6, 1).mov_imm(R0, 0).exit();
            let err = rejected(b.resolve().unwrap(), &m, 0);
            assert_eq!(err, VerifyError::UninitRead { pc: 0, reg: 6 }, "{op:?}");
        }
    }

    #[test]
    fn pointer_comparison_rejected() {
        let (m, ..) = maps();
        let mut b = ProgramBuilder::new();
        let l = b.label();
        b.mov_reg(R2, R10);
        b.jump_if_reg(Cond::Eq, R2, R10, l);
        b.bind(l);
        b.mov_imm(R0, 0).exit();
        assert!(matches!(
            rejected(b.resolve().unwrap(), &m, 0),
            VerifyError::PointerComparison { .. }
        ));
    }

    #[test]
    fn pointer_store_rejected() {
        let (m, ..) = maps();
        let mut b = ProgramBuilder::new();
        b.store_reg(Size::B8, R10, -8, R10);
        b.mov_imm(R0, 0).exit();
        assert!(matches!(
            rejected(b.resolve().unwrap(), &m, 0),
            VerifyError::PointerStore { .. }
        ));
    }

    #[test]
    fn write_to_r10_rejected() {
        let (m, ..) = maps();
        let mut b = ProgramBuilder::new();
        b.mov_imm(R10, 0);
        b.exit();
        assert!(matches!(
            rejected(b.resolve().unwrap(), &m, 0),
            VerifyError::WriteToFramePointer { .. }
        ));
    }

    #[test]
    fn division_by_zero_imm_rejected() {
        let (m, ..) = maps();
        let mut b = ProgramBuilder::new();
        b.mov_imm(R0, 10);
        b.alu_imm(AluOp::Div, R0, 0);
        b.exit();
        assert!(matches!(
            rejected(b.resolve().unwrap(), &m, 0),
            VerifyError::DivisionByZero { .. }
        ));
    }

    #[test]
    fn helper_clobbers_caller_saved_registers() {
        let (m, ..) = maps();
        let mut b = ProgramBuilder::new();
        b.mov_imm(R1, 5);
        b.call(Helper::KtimeGetNs);
        b.mov_reg(R2, R1); // R1 was clobbered by the call
        b.exit();
        assert!(matches!(
            rejected(b.resolve().unwrap(), &m, 0),
            VerifyError::UninitRead { reg: 1, .. }
        ));
    }

    #[test]
    fn callee_saved_registers_survive_calls() {
        let (m, ..) = maps();
        let mut b = ProgramBuilder::new();
        b.mov_imm(R6, 5);
        b.call(Helper::KtimeGetNs);
        b.mov_reg(R0, R6);
        b.exit();
        ok(b.resolve().unwrap(), &m, 0);
    }

    #[test]
    fn helper_wrong_map_class_rejected() {
        let (m, h, ring) = maps();
        // MapLookup on the ring, PerfEventOutput into the hash map.
        for (map, helper) in [(ring, Helper::MapLookup), (h, Helper::PerfEventOutput)] {
            let mut b = ProgramBuilder::new();
            b.store_imm(Size::B8, R10, -8, 1);
            b.load_map(R1, map);
            b.mov_reg(R2, R10);
            b.alu_imm(AluOp::Add, R2, -8);
            b.mov_imm(R3, 8);
            b.call(helper);
            b.mov_imm(R0, 0).exit();
            assert!(matches!(
                rejected(b.resolve().unwrap(), &m, 0),
                VerifyError::BadHelperArg { arg: 1, .. }
            ));
        }
    }

    #[test]
    fn perf_event_output_requires_bounded_len() {
        let (m, _, ring) = maps();
        let mut b = ProgramBuilder::new();
        b.store_imm(Size::B8, R10, -8, 0);
        b.load_map(R1, ring);
        b.mov_reg(R2, R10);
        b.alu_imm(AluOp::Add, R2, -8);
        b.call(Helper::KtimeGetNs); // clobbers R1..R5!
        b.load_map(R1, ring);
        b.mov_reg(R2, R10);
        b.alu_imm(AluOp::Add, R2, -8);
        b.mov_reg(R3, R0); // unknown scalar length
        b.call(Helper::PerfEventOutput);
        b.exit();
        assert!(matches!(
            rejected(b.resolve().unwrap(), &m, 0),
            VerifyError::BadHelperArg { arg: 3, .. }
        ));
    }

    #[test]
    fn perf_event_output_ok_with_const_len() {
        let (m, _, ring) = maps();
        let mut b = ProgramBuilder::new();
        b.store_imm(Size::B8, R10, -16, 1);
        b.store_imm(Size::B8, R10, -8, 2);
        b.load_map(R1, ring);
        b.mov_reg(R2, R10);
        b.alu_imm(AluOp::Add, R2, -16);
        b.mov_imm(R3, 16);
        b.call(Helper::PerfEventOutput);
        b.exit();
        ok(b.resolve().unwrap(), &m, 0);
    }

    #[test]
    fn perf_event_output_ok_with_range_bounded_len() {
        // r3 refined into [1, 16]; the data pointer covers 16 bytes.
        let (m, _, ring) = maps();
        let mut b = ProgramBuilder::new();
        b.store_imm(Size::B8, R10, -16, 1);
        b.store_imm(Size::B8, R10, -8, 2);
        b.call(Helper::KtimeGetNs);
        b.alu_imm(AluOp::And, R0, 15);
        b.alu_imm(AluOp::Add, R0, 1); // r0 ∈ [1, 16]
        b.load_map(R1, ring);
        b.mov_reg(R2, R10);
        b.alu_imm(AluOp::Add, R2, -16);
        b.mov_reg(R3, R0);
        b.call(Helper::PerfEventOutput);
        b.exit();
        ok(b.resolve().unwrap(), &m, 0);
    }

    #[test]
    fn map_update_full_signature_ok() {
        let (m, h, ..) = maps();
        let mut b = ProgramBuilder::new();
        b.store_imm(Size::B8, R10, -8, 1); // key
        for i in 0..2 {
            b.store_imm(Size::B8, R10, -24 + i * 8, 0); // 16-byte value
        }
        b.load_map(R1, h);
        b.mov_reg(R2, R10);
        b.alu_imm(AluOp::Add, R2, -8);
        b.mov_reg(R3, R10);
        b.alu_imm(AluOp::Add, R3, -24);
        b.mov_imm(R4, 0);
        b.call(Helper::MapUpdate);
        b.exit();
        ok(b.resolve().unwrap(), &m, 0);
    }

    #[test]
    fn read_task_io_marks_destination_initialized() {
        let (m, ..) = maps();
        let mut b = ProgramBuilder::new();
        b.mov_reg(R1, R10);
        b.alu_imm(AluOp::Add, R1, -32);
        b.call(Helper::ReadTaskIo);
        // Reading what the helper wrote must now be legal.
        b.load(Size::B8, R0, R10, -8);
        b.exit();
        ok(b.resolve().unwrap(), &m, 0);
    }

    #[test]
    fn unknown_map_rejected() {
        let (m, ..) = maps();
        let mut b = ProgramBuilder::new();
        b.load_map(R1, MapId(99));
        b.mov_imm(R0, 0).exit();
        assert!(matches!(
            rejected(b.resolve().unwrap(), &m, 0),
            VerifyError::UnknownMap { .. }
        ));
    }

    #[test]
    fn verify_stats_count_visited_insns() {
        let (m, ..) = maps();
        let mut b = ProgramBuilder::new();
        b.mov_imm(R0, 0).exit();
        let prog = b.resolve().unwrap();
        let s = verify(&prog, &m, 0).unwrap();
        assert_eq!((s.insns, s.insns_visited), (2, 2));

        // A genuinely two-sided fork (unknown scalar): both arms are
        // live, and the `exit` they meet at is visited once.
        let mut b = ProgramBuilder::new();
        b.call(Helper::KtimeGetNs);
        let l = b.label();
        b.jump_if_imm(Cond::Eq, R0, 0, l);
        b.mov_imm(R0, 7);
        b.bind(l);
        b.exit();
        let prog = b.resolve().unwrap();
        let s = verify(&prog, &m, 0).unwrap();
        assert_eq!((s.insns, s.insns_visited), (4, 4));
    }

    #[test]
    fn statically_dead_branch_not_explored() {
        // jeq on a constant: only one arm is live now.
        let (m, ..) = maps();
        let mut b = ProgramBuilder::new();
        b.mov_imm(R0, 0);
        let l = b.label();
        b.jump_if_imm(Cond::Eq, R0, 0, l);
        b.mov_imm(R0, 1); // dead
        b.bind(l);
        b.exit();
        let prog = b.resolve().unwrap();
        let s = verify(&prog, &m, 0).unwrap();
        assert_eq!((s.insns, s.insns_visited), (4, 3));
    }

    #[test]
    fn verify_with_log_reports_rejection() {
        let (m, ..) = maps();
        let mut b = ProgramBuilder::new();
        b.load(Size::B8, R0, R10, -8); // uninit stack read
        b.exit();
        let (res, log) = verify_with_log(&b.resolve().unwrap(), &m, 0);
        assert!(res.is_err());
        assert!(log.contains("verifying 2 insns"), "log was: {log}");
        assert!(log.contains("rejected:"), "log was: {log}");
        assert!(log.contains("ldx"), "log should show insns: {log}");

        let mut b = ProgramBuilder::new();
        b.mov_imm(R0, 0).exit();
        let (res, log) = verify_with_log(&b.resolve().unwrap(), &m, 0);
        assert!(res.is_ok());
        assert!(log.contains("accepted"), "log was: {log}");
        assert!(log.contains("stats:"), "log was: {log}");
    }

    #[test]
    fn too_long_program_rejected() {
        let (m, ..) = maps();
        let mut prog = vec![
            Insn::Alu {
                op: AluOp::Mov,
                dst: R0,
                src: Src::Imm(0)
            };
            MAX_INSNS + 1
        ];
        prog.push(Insn::Exit);
        assert!(matches!(
            verify(&prog, &m, 0),
            Err(VerifyError::TooLong { .. })
        ));
    }

    #[test]
    fn const_folding_keeps_lengths_checkable() {
        let (m, _, ring) = maps();
        // Length computed via const arithmetic still counts as constant.
        let mut b = ProgramBuilder::new();
        b.store_imm(Size::B8, R10, -8, 0);
        b.load_map(R1, ring);
        b.mov_reg(R2, R10);
        b.alu_imm(AluOp::Add, R2, -8);
        b.mov_imm(R3, 4);
        b.alu_imm(AluOp::Mul, R3, 2);
        b.call(Helper::PerfEventOutput);
        b.exit();
        ok(b.resolve().unwrap(), &m, 0);
    }

    // ---- direct unit tests of the abstract domain ----

    #[test]
    fn range_sync_detects_contradiction() {
        let mut r = Range::unknown();
        r.umin = 10;
        r.umax = 5;
        assert_eq!(r.sync(), None);
        let mut r = Range::unknown();
        r.tnum = Tnum::cnst(3);
        r.umin = 4;
        assert_eq!(r.sync(), None);
        // Consistent case: tnum tightens bounds.
        let mut r = Range::unknown();
        r.tnum = Tnum::cnst(9);
        let r = r.sync().unwrap();
        assert_eq!((r.umin, r.umax, r.smin, r.smax), (9, 9, 9, 9));
    }

    #[test]
    fn refine_branches_narrow_both_sides() {
        let d = Range::unknown();
        let s = Range::cnst(15);
        let (d2, _) = refine(BranchCond::C(Cond::Gt), d, s).unwrap();
        assert_eq!(d2.umin, 16);
        let (d3, _) = refine(BranchCond::C(Cond::Le), d, s).unwrap();
        assert_eq!(d3.umax, 15);
        // Contradiction: nothing is unsigned-less-than zero.
        assert!(refine(BranchCond::C(Cond::Lt), d, Range::cnst(0)).is_none());
        // Eq against a constant pins the register.
        let (d4, _) = refine(BranchCond::C(Cond::Eq), d, s).unwrap();
        assert_eq!(d4.const_u(), Some(15));
        // Ne against the only possible value kills the branch.
        assert!(refine(BranchCond::C(Cond::Ne), Range::cnst(4), Range::cnst(4)).is_none());
    }

    #[test]
    fn range_alu_tracks_bounds() {
        let a = Range::cnst(10);
        let b = Range::cnst(4);
        assert_eq!(range_alu(AluOp::Add, a, b).const_u(), Some(14));
        assert_eq!(range_alu(AluOp::Sub, a, b).const_u(), Some(6));
        assert_eq!(range_alu(AluOp::Mul, a, b).const_u(), Some(40));
        assert_eq!(range_alu(AluOp::Div, a, b).const_u(), Some(2));
        assert_eq!(range_alu(AluOp::Mod, a, b).const_u(), Some(2));
        let masked = range_alu(AluOp::And, Range::unknown(), Range::cnst(0xFF));
        assert_eq!(masked.umin, 0);
        assert_eq!(masked.umax, 0xFF);
        let shifted = range_alu(AluOp::Lsh, masked, Range::cnst(4));
        assert_eq!(shifted.umax, 0xFF0);
    }
}
