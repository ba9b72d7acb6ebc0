//! # tscout-bpf — a from-scratch BPF-style virtual machine
//!
//! TScout generates a kernel-space program (via Linux BPF) that collects
//! metrics at operating-unit boundaries (paper §3). This crate reproduces
//! the BPF substrate that program runs on:
//!
//! * [`insn`] — a register ISA modeled on eBPF: eleven registers
//!   (`R0`–`R10`), 64-bit ALU, sized loads/stores, forward jumps,
//!   helper calls, and `exit`. With no way back, a run executes each
//!   instruction at most once.
//! * [`asm`] — a label-based program builder. TScout's Codegen emits real
//!   bytecode through it.
//! * [`tnum`] — tristate numbers, the kernel verifier's known-bits
//!   abstract domain, used by the verifier's scalar value tracking.
//! * [`verifier`] — a range-tracking abstract interpreter in the spirit
//!   of the kernel's: one forward pass that tracks register types and
//!   scalar value ranges (tnum + signed/unsigned bounds), refines both
//!   arms of conditional branches, joins states where edges meet, proves
//!   variable-offset accesses in bounds, and rejects back edges (any
//!   jump with a negative offset), uninitialized reads, and over-long
//!   programs.
//! * [`maps`] — the two BPF map kinds the Collector creates: hash
//!   (recursive operators, paper §5.2, key their snapshot by
//!   `(tid, depth)`) and the perf-event ring buffer that ships samples to
//!   the user-space Processor (bounded, overwrites when full — paper
//!   §3.2).
//! * [`vm`] — the memory model, the helpers and the reference
//!   interpreter. Execution trusts the verifier but still checks
//!   everything defensively; helper calls reach the simulated kernel
//!   through the [`vm::HelperWorld`] trait, which keeps this crate
//!   independent of `tscout-kernel`.
//! * [`lower`] — the verified stream as a dense, op-specialised form:
//!   one op per instruction, the adjacent `mov; add` (`; ldx8`/`stx8`)
//!   shapes codegen emits fused into one. This is the engine programs
//!   run on; [`Vm::run`] is kept as its executable specification and the
//!   two are held to the same result bit for bit.
//! * [`loader`] — verify → lower → run, plus attach, detach and reload
//!   for dynamic feature selection (paper §5.4). A program is verified
//!   as submitted and lowered 1:1: nothing reorders, drops or rewrites
//!   an instruction, and every executed one is still counted.
//!
//! The crate is deliberately self-contained (its only dependency is the
//! zero-dep in-workspace telemetry crate, for profiler frame guards) so
//! the verifier and interpreter can be property-tested in isolation.
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod asm;
pub mod insn;
pub mod loader;
pub mod lower;
pub mod maps;
pub mod tnum;
pub mod verifier;
pub mod vm;

pub use asm::ProgramBuilder;
pub use insn::{AluOp, Cond, Helper, Insn, Reg, Size, Src};
pub use loader::{LoadError, Loader, ProgId};
pub use maps::{MapDef, MapId, MapKind, MapOpStats, MapRegistry, RingStats};
pub use tnum::Tnum;
pub use verifier::{verify, verify_with_log, VerifyError, VerifyStats};
pub use vm::{ExecStats, HelperWorld, Vm, VmError};
