//! The instruction set: a compact, typed rendering of eBPF.
//!
//! Differences from kernel eBPF are deliberate simplifications that do not
//! change the properties the reproduction depends on:
//!
//! * instructions are a Rust `enum`, not a packed 8-byte encoding;
//! * only 64-bit ALU (eBPF's ALU32 class is omitted);
//! * map references are first-class ([`Insn::LoadMap`]) instead of the
//!   `ld_imm64` pseudo-instruction + fd relocation dance;
//! * helpers are an enum with typed signatures instead of numeric ids.

use crate::maps::MapId;
use std::fmt;

/// A register. `R0` is the return/scratch register, `R1`–`R5` are caller-
/// saved argument registers, `R6`–`R9` are callee-saved, and `R10` is the
/// read-only frame pointer (top of the 512-byte stack).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(pub u8);

pub const R0: Reg = Reg(0);
pub const R1: Reg = Reg(1);
pub const R2: Reg = Reg(2);
pub const R3: Reg = Reg(3);
pub const R4: Reg = Reg(4);
pub const R5: Reg = Reg(5);
pub const R6: Reg = Reg(6);
pub const R7: Reg = Reg(7);
pub const R8: Reg = Reg(8);
pub const R9: Reg = Reg(9);
pub const R10: Reg = Reg(10);

impl Reg {
    pub fn index(self) -> usize {
        self.0 as usize
    }

    pub fn is_valid(self) -> bool {
        self.0 <= 10
    }

    /// The frame pointer is read-only, like eBPF's R10.
    pub fn is_writable(self) -> bool {
        self.0 <= 9
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Second operand of ALU and jump instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Src {
    Reg(Reg),
    Imm(i64),
}

impl fmt::Display for Src {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Src::Reg(r) => write!(f, "{r}"),
            Src::Imm(i) => write!(f, "{i}"),
        }
    }
}

/// 64-bit ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AluOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    And,
    Or,
    Xor,
    Lsh,
    Rsh,
    Arsh,
    Mov,
    Neg,
}

impl AluOp {
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::Mod => "mod",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Lsh => "lsh",
            AluOp::Rsh => "rsh",
            AluOp::Arsh => "arsh",
            AluOp::Mov => "mov",
            AluOp::Neg => "neg",
        }
    }
}

/// Jump conditions (unsigned unless prefixed `S`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cond {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    SLt,
    SLe,
    SGt,
    SGe,
    /// Jump if `dst & src != 0`.
    Set,
}

impl Cond {
    pub fn mnemonic(self) -> &'static str {
        match self {
            Cond::Eq => "jeq",
            Cond::Ne => "jne",
            Cond::Lt => "jlt",
            Cond::Le => "jle",
            Cond::Gt => "jgt",
            Cond::Ge => "jge",
            Cond::SLt => "jslt",
            Cond::SLe => "jsle",
            Cond::SGt => "jsgt",
            Cond::SGe => "jsge",
            Cond::Set => "jset",
        }
    }

    /// Evaluate the condition on concrete values.
    pub fn eval(self, dst: u64, src: u64) -> bool {
        match self {
            Cond::Eq => dst == src,
            Cond::Ne => dst != src,
            Cond::Lt => dst < src,
            Cond::Le => dst <= src,
            Cond::Gt => dst > src,
            Cond::Ge => dst >= src,
            Cond::SLt => (dst as i64) < (src as i64),
            Cond::SLe => (dst as i64) <= (src as i64),
            Cond::SGt => (dst as i64) > (src as i64),
            Cond::SGe => (dst as i64) >= (src as i64),
            Cond::Set => dst & src != 0,
        }
    }
}

/// Memory access width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    B1,
    B2,
    B4,
    B8,
}

impl Size {
    pub fn bytes(self) -> usize {
        match self {
            Size::B1 => 1,
            Size::B2 => 2,
            Size::B4 => 4,
            Size::B8 => 8,
        }
    }
}

/// Kernel helper functions callable from BPF programs.
///
/// These are the helpers TScout's generated Collector calls (paper
/// §3.2/§4) and no others: hash-map manipulation, perf counter reads,
/// `task_struct` I/O accounting, `tcp_sock` statistics, the clock, and
/// `perf_event_output`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Helper {
    /// `R1`=map, `R2`=key ptr → `R0` = value ptr or NULL.
    MapLookup,
    /// `R1`=map, `R2`=key ptr, `R3`=value ptr, `R4`=flags → `R0`=0/err.
    MapUpdate,
    /// `R1`=map, `R2`=key ptr → `R0`=0/err.
    MapDelete,
    /// `R1`=counter index, `R2`=ptr to 24-byte out buffer
    /// `{value, time_enabled, time_running}` → `R0`=0/err.
    PerfEventReadBuf,
    /// `R1`=ptr to 32-byte out buffer
    /// `{read_bytes, write_bytes, read_syscalls, write_syscalls}` → `R0`=0.
    ReadTaskIo,
    /// `R1`=ptr to 32-byte out buffer
    /// `{bytes_sent, bytes_received, segs_out, segs_in}` → `R0`=0.
    ReadTcpSock,
    /// `R1`=perf-event-array map, `R2`=data ptr, `R3`=length (constant)
    /// → `R0`=0/err. Ships a sample to the user-space Processor.
    PerfEventOutput,
    /// → `R0` = current task virtual time in ns.
    KtimeGetNs,
}

impl Helper {
    /// Every helper, in declaration order.
    pub const ALL: [Helper; 8] = [
        Helper::MapLookup,
        Helper::MapUpdate,
        Helper::MapDelete,
        Helper::PerfEventReadBuf,
        Helper::ReadTaskIo,
        Helper::ReadTcpSock,
        Helper::PerfEventOutput,
        Helper::KtimeGetNs,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Helper::MapLookup => "map_lookup_elem",
            Helper::MapUpdate => "map_update_elem",
            Helper::MapDelete => "map_delete_elem",
            Helper::PerfEventReadBuf => "perf_event_read_buf",
            Helper::ReadTaskIo => "read_task_io",
            Helper::ReadTcpSock => "read_tcp_sock",
            Helper::PerfEventOutput => "perf_event_output",
            Helper::KtimeGetNs => "ktime_get_ns",
        }
    }
}

/// One instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Insn {
    /// `dst = dst <op> src` (64-bit). `Mov` copies, `Neg` ignores `src`.
    Alu { op: AluOp, dst: Reg, src: Src },
    /// `dst = *(size*)(base + off)` — zero-extended.
    Load {
        size: Size,
        dst: Reg,
        base: Reg,
        off: i32,
    },
    /// `*(size*)(base + off) = src` — truncated to `size`.
    Store {
        size: Size,
        base: Reg,
        off: i32,
        src: Src,
    },
    /// Conditional (`Some`) or unconditional (`None`) jump. Target is
    /// `pc + 1 + off`. A negative `off` is a back edge: the verifier
    /// rejects it and both engines fault if it is taken, so control only
    /// moves forward.
    Jump {
        cond: Option<(Cond, Reg, Src)>,
        off: i32,
    },
    /// Call a kernel helper.
    Call { helper: Helper },
    /// `dst = handle(map)` — the `ld_imm64 map_fd` pseudo-instruction.
    LoadMap { dst: Reg, map: MapId },
    /// Return `R0` to the kernel.
    Exit,
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Insn::Alu {
                op: AluOp::Neg,
                dst,
                ..
            } => write!(f, "neg {dst}"),
            Insn::Alu { op, dst, src } => write!(f, "{} {dst}, {src}", op.mnemonic()),
            Insn::Load {
                size,
                dst,
                base,
                off,
            } => {
                write!(f, "ldx{} {dst}, [{base}{off:+}]", size.bytes())
            }
            Insn::Store {
                size,
                base,
                off,
                src,
            } => {
                write!(f, "stx{} [{base}{off:+}], {src}", size.bytes())
            }
            Insn::Jump { cond: None, off } => write!(f, "ja {off:+}"),
            Insn::Jump {
                cond: Some((c, dst, src)),
                off,
            } => {
                write!(f, "{} {dst}, {src}, {off:+}", c.mnemonic())
            }
            Insn::Call { helper } => write!(f, "call {}", helper.name()),
            Insn::LoadMap { dst, map } => write!(f, "ldmap {dst}, map#{}", map.0),
            Insn::Exit => write!(f, "exit"),
        }
    }
}

impl Insn {
    /// Disassemble one instruction at `pc`, resolving relative jump
    /// offsets to absolute targets (`ja +3 -> 12`). This is the form
    /// the verifier log header and test failure messages use; the
    /// `Display` impl keeps the bare relative rendering for contexts
    /// where the pc is unknown.
    pub fn disasm(&self, pc: usize) -> String {
        match self {
            Insn::Jump { off, .. } => {
                let target = pc as i64 + 1 + *off as i64;
                format!("{self} -> {target}")
            }
            _ => format!("{self}"),
        }
    }
}

/// Disassemble a program into one line per instruction, with jump
/// targets resolved to absolute pcs.
pub fn disassemble(prog: &[Insn]) -> String {
    let mut out = String::new();
    for (pc, insn) in prog.iter().enumerate() {
        out.push_str(&format!("{pc:4}: {}\n", insn.disasm(pc)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cond_eval_signed_vs_unsigned() {
        let minus_one = (-1i64) as u64;
        assert!(Cond::Gt.eval(minus_one, 1)); // unsigned: huge
        assert!(Cond::SLt.eval(minus_one, 1)); // signed: -1 < 1
        assert!(Cond::Set.eval(0b1010, 0b0010));
        assert!(!Cond::Set.eval(0b1010, 0b0101));
    }

    #[test]
    fn reg_validity() {
        assert!(R10.is_valid());
        assert!(!R10.is_writable());
        assert!(R9.is_writable());
        assert!(!Reg(11).is_valid());
    }

    #[test]
    fn display_round_trips_reasonably() {
        let prog = vec![
            Insn::Alu {
                op: AluOp::Mov,
                dst: R0,
                src: Src::Imm(0),
            },
            Insn::Load {
                size: Size::B8,
                dst: R1,
                base: R10,
                off: -8,
            },
            Insn::Jump {
                cond: Some((Cond::Eq, R0, Src::Imm(0))),
                off: 1,
            },
            Insn::Call {
                helper: Helper::KtimeGetNs,
            },
            Insn::Exit,
        ];
        let text = disassemble(&prog);
        assert!(text.contains("mov r0, 0"));
        assert!(text.contains("ldx8 r1, [r10-8]"));
        assert!(text.contains("jeq r0, 0, +1 -> 4"), "got: {text}");
        assert!(text.contains("call ktime_get_ns"));
        assert!(text.contains("exit"));
    }

    #[test]
    fn disasm_resolves_jump_targets() {
        let ja = Insn::Jump {
            cond: None,
            off: -3,
        };
        assert_eq!(ja.disasm(10), "ja -3 -> 8");
        let exit = Insn::Exit;
        assert_eq!(exit.disasm(5), "exit");
    }

    #[test]
    fn size_bytes() {
        assert_eq!(Size::B1.bytes(), 1);
        assert_eq!(Size::B2.bytes(), 2);
        assert_eq!(Size::B4.bytes(), 4);
        assert_eq!(Size::B8.bytes(), 8);
    }
}
