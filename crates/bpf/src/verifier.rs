//! The static verifier: one forward pass over constants and typed
//! pointers.
//!
//! Models the Linux BPF verifier's checks (paper §5.1): it tracks an
//! abstract value for each register at every reachable instruction and
//! rejects the program if *any* execution can perform an unsafe
//! operation. A scalar is a known constant or unknown. An ALU op on two
//! constants is folded by `vm::alu`, the function both engines execute,
//! and a conditional jump between two constants is decided by
//! [`Cond::eval`], so the verifier keeps no second copy of either's
//! semantics. A pointer carries one constant offset into its region.
//! Enforced properties:
//!
//! * every jump goes forward: the first jump with a negative offset is
//!   rejected with `BackEdge` before the walk starts, reachable or not
//!   (Linux's rule before 5.3; the Collector's programs never loop), so
//!   every path ends within `prog.len()` instructions;
//! * a hard instruction-count cap (the kernel's is 1M; "TS's compiled
//!   BPF programs only contain 100s of instructions");
//! * every register is written before it is read;
//! * every memory access is through a typed pointer whose constant
//!   offset is in bounds for its region (512-byte stack, read-only
//!   context, map values of declared size);
//! * stack reads only touch bytes previously written on this path;
//! * map-lookup results must be null-checked before dereference; both
//!   arms of the null test are refined, and on the arm where `r == c`
//!   holds for a constant `c` (`jeq`'s jump, `jne`'s fall-through), `r`
//!   is that constant;
//! * helper calls obey typed signatures, and `perf_event_output`'s
//!   length is a constant in 1..=8192; calls clobber `R1`–`R5`;
//! * `exit` requires `R0` to hold a scalar;
//! * pointers never leak into arithmetic other than `± constant`, never
//!   get compared (except null checks), and never get stored to memory.
//!
//! Since every jump goes forward, program order is a topological order
//! of the control-flow graph, so verification is one forward pass with
//! joins at merge points (PREVAIL's approach, Gershuni et al., PLDI
//! 2019): an instruction's state is the join of what its incoming edges
//! carry, and it is visited once or, if nothing reaches it, not at all.
//! A join only over-approximates — two different constants join to
//! unknown, two different kinds of value to uninitialised, so reading
//! that register is rejected — and cost is linear in the program's
//! length. [`verify_with_log`] additionally produces a kernel-style
//! human-readable trace of the walk for rejection diagnostics.

use std::collections::BTreeMap;

use crate::insn::{AluOp, Cond, Helper, Insn, Reg, Src};
use crate::maps::{MapDef, MapId, MapKind, MapRegistry};
use crate::vm::alu;

/// Stack size available to a program, like eBPF.
pub const STACK_SIZE: i64 = 512;
/// Maximum program length (the kernel's modern limit).
pub const MAX_INSNS: usize = 1_000_000;
/// Largest record `perf_event_output` may publish.
pub const MAX_OUTPUT_BYTES: usize = 8192;
/// A pointer's offset is confined to this many bytes either side of its
/// region start, like the kernel's `BPF_MAX_VAR_OFF` discipline.
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

/// The memory a pointer points into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Region {
    Stack,
    Ctx,
    Map(MapId),
}

/// Abstract register type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegType {
    Uninit,
    /// A known constant, or `None` for any value.
    Scalar(Option<u64>),
    /// A region and a constant byte offset from its start (from the top
    /// of the frame for the stack).
    Ptr(Region, i64),
    PtrMapOrNull(MapId),
    MapHandle(MapId),
}

impl RegType {
    fn is_scalar(self) -> bool {
        matches!(self, RegType::Scalar(_))
    }

    /// What a register holds where two edges meet: an equal value
    /// stays, two different scalars are unknown, and anything else — two
    /// pointers at different offsets included — is unusable.
    fn join(self, other: RegType) -> RegType {
        match (self, other) {
            _ if self == other => self,
            (RegType::Scalar(_), RegType::Scalar(_)) => RegType::Scalar(None),
            _ => RegType::Uninit,
        }
    }
}

impl std::fmt::Display for RegType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegType::Uninit => write!(f, "uninit"),
            RegType::Scalar(Some(c)) => write!(f, "{c:#x}"),
            RegType::Scalar(None) => write!(f, "scalar"),
            RegType::Ptr(Region::Stack, off) => write!(f, "fp{off:+}"),
            RegType::Ptr(Region::Ctx, off) => write!(f, "ctx{off:+}"),
            RegType::Ptr(Region::Map(map), off) => write!(f, "map_value({}){off:+}", map.0),
            RegType::PtrMapOrNull(map) => write!(f, "map_value_or_null({})", map.0),
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
        regs[1] = RegType::Ptr(Region::Ctx, 0); // R1 = ctx at entry
        regs[10] = RegType::Ptr(Region::Stack, 0); // R10 = frame top
        State {
            regs,
            stack_init: [0; 8],
        }
    }

    /// The `(word, bit)` of each stack byte `off .. off + size`, which
    /// `check_access` has put in the frame; bit 0 is fp-512.
    fn stack_bits(off: i64, size: usize) -> impl Iterator<Item = (usize, u64)> {
        // An access outside the frame has no bits (`check_access` lets
        // none through).
        let first = usize::try_from(off + STACK_SIZE).unwrap_or(usize::MAX);
        (first..first.saturating_add(size)).map(|i| (i / 64, 1 << (i % 64)))
    }

    fn mark_stack_init(&mut self, off: i64, size: usize) {
        for (w, m) in Self::stack_bits(off, size) {
            self.stack_init[w] |= m;
        }
    }

    fn stack_is_init(&self, off: i64, size: usize) -> bool {
        Self::stack_bits(off, size).all(|(w, m)| self.stack_init[w] & m != 0)
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
            Src::Imm(i) => Ok(RegType::Scalar(Some(i as u64))),
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

    /// Check an access of `size` bytes at `off` from the pointer `base`
    /// and, for stack reads, that every byte was written.
    fn check_access(
        &self,
        st: &State,
        pc: usize,
        base: RegType,
        off: i32,
        size: usize,
        write: bool,
    ) -> Result<(), VerifyError> {
        let (region, lo) = match base {
            RegType::Ptr(region, p) => (region, p + i64::from(off)),
            RegType::PtrMapOrNull(_) => return Err(VerifyError::PossiblyNullDeref { pc }),
            _ => return Err(VerifyError::NotAPointer { pc }),
        };
        let (name, start, end) = match region {
            Region::Stack => ("stack", -STACK_SIZE, 0),
            Region::Ctx if write => return Err(VerifyError::CtxWrite { pc }),
            Region::Ctx => ("ctx", 0, self.ctx_size as i64),
            Region::Map(map) => {
                let def = self.maps.def(map).ok_or(VerifyError::UnknownMap { pc })?;
                ("map value", 0, def.value_size as i64)
            }
        };
        if lo < start || lo + size as i64 > end {
            return Err(VerifyError::OutOfBounds {
                pc,
                region: name,
                off: lo,
                size,
            });
        }
        if region == Region::Stack && !write && !st.stack_is_init(lo, size) {
            return Err(VerifyError::UninitStackRead { pc, off: lo });
        }
        Ok(())
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
                let result = alu_result(pc, op, d, s)?;
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
                st.regs[dst.index()] = RegType::Scalar(None);
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
                if let RegType::Ptr(Region::Stack, p) = b {
                    st.mark_stack_init(p + i64::from(off), size.bytes());
                }
            }
            Insn::Jump { cond, off } => {
                // `off` is not negative: `run` rejected every back edge.
                let target = pc + 1 + off.unsigned_abs() as usize;
                if target > self.prog.len() {
                    return Err(VerifyError::JumpOutOfBounds { pc });
                }
                let Some((c, dst, src)) = cond else {
                    self.jump_to(target, st);
                    return Ok(None);
                };
                let (taken, fall) = self.branch(pc, st, c, dst, src)?;
                match taken {
                    Some(t) => self.jump_to(target, t),
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
    /// fall-through)`; `None` for an edge the condition rules out.
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
        let (eq, ne) = match (c, d, s) {
            // A null check on a map lookup's result: a map value pointer
            // where it is not null.
            (Cond::Eq | Cond::Ne, RegType::PtrMapOrNull(map), RegType::Scalar(Some(0))) => {
                let (mut null, mut ptr) = (st, st);
                null.regs[dst.index()] = RegType::Scalar(Some(0));
                ptr.regs[dst.index()] = RegType::Ptr(Region::Map(map), 0);
                (null, ptr)
            }
            (_, RegType::Scalar(Some(a)), RegType::Scalar(Some(b))) => {
                let taken = c.eval(a, b).then_some(st);
                return Ok((taken, taken.xor(Some(st))));
            }
            (_, RegType::Scalar(a), RegType::Scalar(b)) => {
                // Where the two are equal, a constant side names the other.
                let mut eq = st;
                if let Some(k) = a.or(b) {
                    eq.regs[dst.index()] = RegType::Scalar(Some(k));
                    if let Src::Reg(r) = src {
                        eq.regs[r.index()] = RegType::Scalar(Some(k));
                    }
                }
                (eq, st)
            }
            _ => return Err(VerifyError::PointerComparison { pc }),
        };
        Ok(match c {
            Cond::Eq => (Some(eq), Some(ne)),
            Cond::Ne => (Some(ne), Some(eq)),
            _ => (Some(st), Some(st)),
        })
    }

    fn check_call(&self, st: &mut State, pc: usize, helper: Helper) -> Result<(), VerifyError> {
        use Helper::*;
        let ret = match helper {
            KtimeGetNs => RegType::Scalar(None),
            MapLookup => {
                let (map, def) = self.arg_map(st, pc, helper, 1, is_hash)?;
                self.arg_ptr(st, pc, helper, 2, def.key_size, false)?;
                RegType::PtrMapOrNull(map)
            }
            MapUpdate => {
                let (_, def) = self.arg_map(st, pc, helper, 1, is_hash)?;
                self.arg_ptr(st, pc, helper, 2, def.key_size, false)?;
                self.arg_ptr(st, pc, helper, 3, def.value_size, false)?;
                self.arg_scalar(st, pc, helper, 4)?;
                RegType::Scalar(None)
            }
            MapDelete => {
                let (_, def) = self.arg_map(st, pc, helper, 1, is_hash)?;
                self.arg_ptr(st, pc, helper, 2, def.key_size, false)?;
                RegType::Scalar(None)
            }
            PerfEventReadBuf => {
                self.arg_scalar(st, pc, helper, 1)?;
                self.arg_ptr(st, pc, helper, 2, 24, true)?;
                RegType::Scalar(None)
            }
            ReadTaskIo | ReadTcpSock => {
                self.arg_ptr(st, pc, helper, 1, 32, true)?;
                RegType::Scalar(None)
            }
            PerfEventOutput => {
                self.arg_map(st, pc, helper, 1, is_ring)?;
                // The data pointer must be valid for the length in r3.
                let len = match st.regs[3] {
                    RegType::Scalar(Some(len)) => usize::try_from(len).ok(),
                    _ => None,
                }
                .filter(|len| (1..=MAX_OUTPUT_BYTES).contains(len))
                .ok_or(VerifyError::BadHelperArg {
                    pc,
                    helper,
                    arg: 3,
                    expected: "constant length in 1..=8192",
                })?;
                self.arg_ptr(st, pc, helper, 2, len, false)?;
                RegType::Scalar(None)
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
    ) -> Result<(MapId, &MapDef), VerifyError> {
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
                    Ok((m, def))
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
        if let (true, RegType::Ptr(Region::Stack, off)) = (write, t) {
            st.mark_stack_init(off, size);
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

/// What an ALU op leaves in its destination. Both operands have been
/// read, so neither is `Uninit` — except `dst` of a `Mov`, which is not
/// read. Two constants fold to what the VM computes; anything with an
/// unknown scalar in it is unknown.
fn alu_result(pc: usize, op: AluOp, dst: RegType, src: RegType) -> Result<RegType, VerifyError> {
    use RegType::*;
    match (op, dst, src) {
        (AluOp::Mov, ..) => Ok(src),
        (AluOp::Neg, Scalar(a), _) => Ok(Scalar(a.map(|a| alu(op, a, 0)))),
        (AluOp::Add | AluOp::Sub, Ptr(region, off), Scalar(Some(c))) => {
            // The offset moves as the VM moves the address; an offset
            // beyond ±MAX_PTR_OFF (an adversarial `i64::MIN`, say) is
            // rejected rather than left to wrap.
            let off = alu(op, off as u64, c) as i64;
            if (-MAX_PTR_OFF..=MAX_PTR_OFF).contains(&off) {
                Ok(Ptr(region, off))
            } else {
                Err(VerifyError::PointerArithmetic { pc })
            }
        }
        (AluOp::Div | AluOp::Mod, Scalar(_), Scalar(Some(0))) => {
            Err(VerifyError::DivisionByZero { pc })
        }
        (_, Scalar(a), Scalar(b)) => Ok(Scalar(a.zip(b).map(|(a, b)| alu(op, a, b)))),
        _ => Err(VerifyError::PointerArithmetic { pc }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::ProgramBuilder;
    use crate::insn::{Size, R0, R1, R10, R2, R3, R4, R6};

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

    /// A stack index behind a bound check is still a variable offset,
    /// whether the bound would keep `fp-16 + r0` in the frame (7) or not
    /// (600): it is rejected where it is formed.
    #[test]
    fn guarded_variable_stack_offset_is_pointer_arithmetic() {
        let (m, ..) = maps();
        for bound in [7, 600] {
            let mut b = ProgramBuilder::new();
            b.call(Helper::KtimeGetNs);
            let out = b.label();
            b.jump_if_imm(Cond::Gt, R0, bound, out);
            b.mov_reg(R2, R10);
            b.alu_imm(AluOp::Add, R2, -16);
            b.alu_reg(AluOp::Add, R2, R0);
            b.store_imm(Size::B8, R2, 0, 1);
            b.bind(out);
            b.mov_imm(R0, 0).exit();
            assert_eq!(
                rejected(b.resolve().unwrap(), &m, 0),
                VerifyError::PointerArithmetic { pc: 4 },
                "bound {bound}"
            );
        }
    }

    #[test]
    fn masked_ctx_index_is_pointer_arithmetic() {
        // r0 = ktime() & 7 is in 0..8, but not a constant.
        let (m, ..) = maps();
        let mut b = ProgramBuilder::new();
        b.mov_reg(R6, R1); // ctx survives the call in a callee-saved reg
        b.call(Helper::KtimeGetNs);
        b.alu_imm(AluOp::And, R0, 7);
        b.mov_reg(R2, R6);
        b.alu_reg(AluOp::Add, R2, R0);
        b.load(Size::B1, R0, R2, 0);
        b.exit();
        assert_eq!(
            rejected(b.resolve().unwrap(), &m, 8),
            VerifyError::PointerArithmetic { pc: 4 }
        );
    }

    #[test]
    fn jset_on_an_unknown_scalar_leaves_both_arms_live() {
        // Neither `jset r0, 8` nor `jeq r0, 0` on an unknown r0 rules an
        // arm out, so the out-of-frame store behind them is reached.
        let (m, ..) = maps();
        let mut b = ProgramBuilder::new();
        b.call(Helper::KtimeGetNs);
        b.alu_imm(AluOp::And, R0, 8);
        let t = b.label();
        let end = b.label();
        b.jump_if_imm(Cond::Set, R0, 8, t);
        b.jump_if_imm(Cond::Eq, R0, 0, end);
        b.store_imm(Size::B8, R10, 100, 1);
        b.bind(t);
        b.bind(end);
        b.mov_imm(R0, 0).exit();
        assert_eq!(
            rejected(b.resolve().unwrap(), &m, 0),
            VerifyError::OutOfBounds {
                pc: 4,
                region: "stack",
                off: 100,
                size: 8
            }
        );
    }

    /// On the arm where `r0 == 16` holds — `jeq`'s jump, `jne`'s
    /// fall-through — r0 is the constant 16 and is a checkable length.
    #[test]
    fn an_equality_test_makes_its_register_the_constant() {
        let (m, _, ring) = maps();
        for c in [Cond::Eq, Cond::Ne] {
            let mut b = ProgramBuilder::new();
            b.store_imm(Size::B8, R10, -16, 1);
            b.store_imm(Size::B8, R10, -8, 2);
            b.call(Helper::KtimeGetNs);
            let (equal, end) = (b.label(), b.label());
            if c == Cond::Eq {
                b.jump_if_imm(Cond::Eq, R0, 16, equal).jump(end);
            } else {
                b.jump_if_imm(Cond::Ne, R0, 16, end);
            }
            b.bind(equal);
            b.load_map(R1, ring).mov_reg(R2, R10);
            b.alu_imm(AluOp::Add, R2, -16).mov_reg(R3, R0);
            b.call(Helper::PerfEventOutput);
            b.bind(end);
            b.mov_imm(R0, 0).exit();
            ok(b.resolve().unwrap(), &m, 0);
        }
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
    /// nor the bytes only one arm wrote may be read. Two arms that leave
    /// one constant in `r6` keep it; two different constants join to
    /// an unknown scalar, no longer a checkable length.
    #[test]
    fn joined_arms_keep_only_what_both_agree_on() {
        let (m, _, ring) = maps();
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

        let diamond_then_output = |lens: [i64; 2]| {
            let mut b = ProgramBuilder::new();
            b.store_imm(Size::B8, R10, -16, 0);
            b.store_imm(Size::B8, R10, -8, 0);
            b.call(Helper::KtimeGetNs);
            let (els, end) = (b.label(), b.label());
            b.jump_if_imm(Cond::Eq, R0, 0, els);
            b.mov_imm(R6, lens[0]).jump(end);
            b.bind(els);
            b.mov_imm(R6, lens[1]);
            b.bind(end);
            b.load_map(R1, ring).mov_reg(R2, R10);
            b.alu_imm(AluOp::Add, R2, -16).mov_reg(R3, R6);
            b.call(Helper::PerfEventOutput).exit();
            verify(&b.resolve().unwrap(), &m, 0)
        };
        assert!(diamond_then_output([16, 16]).is_ok(), "both arms left 16");
        assert!(matches!(
            diamond_then_output([8, 16]),
            Err(VerifyError::BadHelperArg { arg: 3, .. })
        ));
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
    fn perf_event_output_rejects_a_masked_len() {
        // r0 = (ktime() & 15) + 1 is in 1..=16, but not a constant.
        let (m, _, ring) = maps();
        let mut b = ProgramBuilder::new();
        b.store_imm(Size::B8, R10, -16, 1);
        b.store_imm(Size::B8, R10, -8, 2);
        b.call(Helper::KtimeGetNs);
        b.alu_imm(AluOp::And, R0, 15);
        b.alu_imm(AluOp::Add, R0, 1);
        b.load_map(R1, ring);
        b.mov_reg(R2, R10);
        b.alu_imm(AluOp::Add, R2, -16);
        b.mov_reg(R3, R0);
        b.call(Helper::PerfEventOutput);
        b.exit();
        assert_eq!(
            rejected(b.resolve().unwrap(), &m, 0),
            VerifyError::BadHelperArg {
                pc: 9,
                helper: Helper::PerfEventOutput,
                arg: 3,
                expected: "constant length in 1..=8192"
            }
        );
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
}
