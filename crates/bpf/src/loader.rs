//! The program loader: verify → lower → run, plus unload/reload.
//!
//! "During this loading step, the BPF subsystem verifies the program's
//! safety, just-in-time compiles the bytecode to machine code, and
//! transfers it into the kernel" (paper §2.3). Our loader verifies the
//! stream as submitted, lowers it ([`crate::lower`]: one op per
//! instruction, adjacent pairs and runs of word copies fused) and runs
//! the lowered form — the
//! only engine behind [`Loader::run`]. The submitted stream stays on the
//! [`LoadedProg`] for disassembly and the program pins, and the
//! reference interpreter ([`crate::Vm::run`]) stays as the lowered
//! engine's specification. Unload/reload supports TScout's dynamic
//! feature selection (§5.4: "TS can dynamically unload BPF programs,
//! modify them, and reload them").

use tscout_telemetry::FrameId;

use crate::insn::Insn;
use crate::lower::{lower, Lowered};
use crate::maps::MapRegistry;
use crate::verifier::{verify, verify_with_log, VerifyError, VerifyStats};
use crate::vm::{ExecStats, HelperWorld, VmError, VmScratch};

/// Identifier of a loaded program. Also used as the attachment token in the
/// simulated kernel's tracepoint registry.
pub type ProgId = u64;

/// Load-time failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The verifier rejected the program; `log` carries the kernel-style
    /// human-readable verifier trace for diagnosis.
    Verify { err: VerifyError, log: String },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Verify { err, log } => {
                write!(
                    f,
                    "verifier rejected program: {err}\n--- verifier log ---\n{log}"
                )
            }
        }
    }
}

impl std::error::Error for LoadError {}

/// A verified, loaded program.
#[derive(Debug, Clone)]
pub struct LoadedProg {
    pub name: String,
    /// `bpf:prog:<name>`, interned once here: whoever fires the program
    /// holds this frame across its execution *and* the charge for it
    /// (the VM runs in zero virtual time — its instruction cost is
    /// charged by the caller afterwards).
    pub frame: FrameId,
    /// The instruction stream, exactly as submitted and verified.
    pub insns: Vec<Insn>,
    /// What `insns` lowered to: the form [`Loader::run`] executes.
    lowered: Lowered,
    pub ctx_size: usize,
}

impl LoadedProg {
    /// How many ops `insns` lowered to (`insns.len()` less what fusing
    /// adjacent pairs and loops into runs saved).
    pub fn lowered_ops(&self) -> usize {
        self.lowered.op_count()
    }
}

/// Owns the maps and the loaded programs — the "BPF subsystem".
#[derive(Debug, Default)]
pub struct Loader {
    pub maps: MapRegistry,
    progs: Vec<Option<LoadedProg>>,
    verify_totals: VerifyStats,
    verify_runs: u64,
    /// The lowered engine's working memory, reused by every `run`.
    scratch: VmScratch,
    /// Staging buffer for contexts shorter than a program's declared
    /// size (zero-padded before the run).
    padded_ctx: Vec<u8>,
}

impl Loader {
    pub fn new() -> Self {
        Self::default()
    }

    /// Verify and load a program. The program may only be attached after a
    /// successful load, mirroring the kernel flow.
    pub fn load(
        &mut self,
        name: &str,
        insns: Vec<Insn>,
        ctx_size: usize,
    ) -> Result<ProgId, LoadError> {
        // The kernel-style verifier trace has one reader, a rejection's
        // `LoadError`, so only a rejected program pays for a logged run.
        let stats = verify(&insns, &self.maps, ctx_size).map_err(|err| {
            let (_, log) = verify_with_log(&insns, &self.maps, ctx_size);
            LoadError::Verify { err, log }
        })?;
        self.verify_totals.insns += stats.insns;
        self.verify_totals.insns_visited += stats.insns_visited;
        self.verify_runs += 1;
        let id = self.progs.len() as ProgId;
        self.progs.push(Some(LoadedProg {
            name: name.into(),
            frame: FrameId::intern(&format!("bpf:prog:{name}"), false),
            lowered: lower(&insns),
            insns,
            ctx_size,
        }));
        Ok(id)
    }

    /// Cumulative verifier work across every successful `load`:
    /// instructions checked and instructions visited.
    pub fn verify_totals(&self) -> VerifyStats {
        self.verify_totals
    }

    /// Number of successful verifier passes (one per loaded program).
    pub fn verify_runs(&self) -> u64 {
        self.verify_runs
    }

    /// Unload a program (dynamic reload support). Unknown/already-unloaded
    /// ids are ignored, like closing an already-closed fd.
    pub fn unload(&mut self, id: ProgId) {
        if let Some(slot) = usize::try_from(id).ok().and_then(|i| self.progs.get_mut(i)) {
            *slot = None;
        }
    }

    pub fn get(&self, id: ProgId) -> Option<&LoadedProg> {
        let slot = usize::try_from(id).ok().and_then(|i| self.progs.get(i));
        slot.and_then(|p| p.as_ref())
    }

    /// Number of currently loaded programs.
    pub fn loaded_count(&self) -> usize {
        self.progs.iter().filter(|p| p.is_some()).count()
    }

    /// Test hook: bytes the helper staging buffer has ever grown to — 0
    /// while every helper argument of every run lay in the stack.
    #[doc(hidden)]
    pub fn staged_capacity(&self) -> usize {
        self.scratch.staged_capacity()
    }

    /// Execute a loaded program against a context payload.
    pub fn run(
        &mut self,
        id: ProgId,
        ctx: &[u8],
        world: &mut dyn HelperWorld,
    ) -> Result<(u64, ExecStats), VmError> {
        let prog = usize::try_from(id)
            .ok()
            .and_then(|i| self.progs.get(i))
            .and_then(|p| p.as_ref())
            .ok_or(VmError::NoSuchProgram { id })?;
        // Context is truncated/zero-padded to the declared size so variable
        // payloads (e.g. feature vectors) stay within verified bounds.
        // (`progs`, `maps` and the scratch buffers are disjoint fields, so
        // the program runs in place — no per-call clone.)
        let ctx = if ctx.len() >= prog.ctx_size {
            &ctx[..prog.ctx_size]
        } else {
            self.padded_ctx.clear();
            self.padded_ctx.extend_from_slice(ctx);
            self.padded_ctx.resize(prog.ctx_size, 0);
            &self.padded_ctx
        };
        prog.lowered
            .run(ctx, &mut self.maps, world, &mut self.scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::ProgramBuilder;
    use crate::insn::{Size, R0, R1};
    use crate::vm::NullWorld;

    fn trivial() -> Vec<Insn> {
        let mut b = ProgramBuilder::new();
        b.mov_imm(R0, 7).exit();
        b.resolve().unwrap()
    }

    #[test]
    fn load_and_run() {
        let mut l = Loader::new();
        let id = l.load("t", trivial(), 0).unwrap();
        let mut w = NullWorld::default();
        let (r0, _) = l.run(id, &[], &mut w).unwrap();
        assert_eq!(r0, 7);
        assert_eq!(l.get(id).unwrap().name, "t");
        assert_eq!(l.verify_runs(), 1);
        assert_eq!(
            l.verify_totals(),
            VerifyStats {
                insns: 2,
                insns_visited: 2
            }
        );
    }

    #[test]
    fn load_rejects_bad_programs() {
        let mut l = Loader::new();
        let err = l.load("bad", vec![Insn::Exit], 0).unwrap_err();
        let LoadError::Verify { err, log } = err;
        assert!(matches!(err, VerifyError::ExitWithoutScalarR0 { .. }));
        assert!(log.contains("rejected:"), "log was: {log}");
        assert!(format!("{}", LoadError::Verify { err, log }).contains("verifier log"));
        assert_eq!(l.loaded_count(), 0);
    }

    #[test]
    fn unload_then_run_fails() {
        let mut l = Loader::new();
        let id = l.load("t", trivial(), 0).unwrap();
        l.unload(id);
        assert!(l.get(id).is_none());
        let mut w = NullWorld::default();
        for id in [id, 99] {
            assert_eq!(l.run(id, &[], &mut w), Err(VmError::NoSuchProgram { id }));
        }
        // Reload gets a fresh id.
        let id2 = l.load("t2", trivial(), 0).unwrap();
        assert_ne!(id, id2);
        assert_eq!(l.loaded_count(), 1);
    }

    #[test]
    fn profile_scope_attributes_program_executions() {
        use tscout_telemetry::{Profiler, TaskFrames};
        let mut l = Loader::new();
        let id = l.load("begin_ee", trivial(), 0).unwrap();
        let (p, task) = (Profiler::new(), TaskFrames::default());
        p.set_period_ns(10.0);
        {
            let _frame = p.push_frames(&task, [l.get(id).unwrap().frame]);
            let mut w = NullWorld::default();
            l.run(id, &[], &mut w).unwrap();
            p.on_charge(&task, &mut 0.0, 25.0, None); // the caller charging the VM's cost
        }
        let folded = p.folded();
        assert_eq!(folded.len(), 1);
        assert_eq!(folded[0].0, "bpf:prog:begin_ee");
        assert_eq!(folded[0].1.samples, 2);
    }

    /// `load` verifies without the log and re-runs the verifier with it
    /// on rejection: the error must still carry the whole trace, not
    /// only the verdict line.
    #[test]
    fn rejected_program_carries_the_full_verifier_log() {
        let mut b = ProgramBuilder::new();
        b.mov_imm(R0, 0);
        b.load(Size::B8, R0, R1, 64); // 8 bytes past a 64-byte context
        b.exit();
        let prog = b.resolve().unwrap();
        let mut l = Loader::new();
        let LoadError::Verify { err, log } = l.load("oob", prog.clone(), 64).unwrap_err();
        let (direct, direct_log) = verify_with_log(&prog, &l.maps, 64);
        assert_eq!(Err(err), direct);
        assert_eq!(log, direct_log);
        for part in [
            "verifying 3 insns, ctx 64 bytes",
            "rejected:",
            "stats: insns 3",
        ] {
            assert!(log.contains(part), "log lacks {part:?}: {log}");
        }
        assert_eq!((l.loaded_count(), l.verify_runs()), (0, 0));
    }

    #[test]
    fn ctx_is_padded_to_declared_size() {
        let mut l = Loader::new();
        let mut b = ProgramBuilder::new();
        b.load(Size::B8, R0, R1, 8); // read past a 4-byte payload
        b.exit();
        let id = l.load("pad", b.resolve().unwrap(), 16).unwrap();
        let mut w = NullWorld::default();
        let (r0, _) = l.run(id, &[0xFF, 0xFF, 0xFF, 0xFF], &mut w).unwrap();
        assert_eq!(r0, 0); // padded region reads as zero
    }

    #[test]
    fn oversized_ctx_is_truncated() {
        let mut l = Loader::new();
        let mut b = ProgramBuilder::new();
        b.load(Size::B8, R0, R1, 0);
        b.exit();
        let id = l.load("trunc", b.resolve().unwrap(), 8).unwrap();
        let mut w = NullWorld::default();
        let mut ctx = vec![0u8; 32];
        ctx[..8].copy_from_slice(&123u64.to_le_bytes());
        let (r0, _) = l.run(id, &ctx, &mut w).unwrap();
        assert_eq!(r0, 123);
    }
}
