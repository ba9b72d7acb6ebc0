//! Load-time optimizer for verified collector programs.
//!
//! TScout interposes this pass pipeline between verification and
//! interpretation: the verifier has already computed per-pc constant
//! facts as a byproduct of its abstract interpretation, and the
//! optimizer turns those proofs into shorter programs. Because
//! collectors run on every tracepoint crossing, each removed
//! instruction is shaved from *every* begin/end pair the probed system
//! executes.
//!
//! The pipeline (one fixed-point iteration) is the five passes that
//! fire on the collector programs codegen emits
//! (`tests/optimizer_differential.rs` fails the day one of them stops
//! firing):
//!
//! 1. re-verify, exporting per-pc facts ([`crate::verifier`]);
//! 2. verifier-fact constant propagation (`constprop`);
//! 3. block-local copy propagation (`copyprop`);
//! 4. liveness dead-code elimination (`dce`);
//! 5. algebraic peephole simplification (`peephole`);
//! 6. bounded-loop unrolling (`unroll`), which re-seeds steps 1–5 on
//!    the next iteration (unrolled counters become constants).
//!
//! Iterating to a fixed point matters: unrolling exposes constants,
//! constants fold address arithmetic, folded arithmetic exposes dead
//! code. The driver stops when an iteration changes nothing or after
//! `MAX_ITERATIONS`.
//!
//! **Hard bar:** the optimized program must re-verify and produce
//! bit-identical samples. The driver enforces the first itself (any
//! failure returns [`OptError`] and callers fall back to the original
//! program); the differential test-suite enforces the second.

mod cfg;
mod constprop;
mod dataflow;
mod dce;
mod peephole;
mod unroll;

use crate::insn::{disassemble, Insn};
use crate::maps::MapRegistry;
use crate::verifier::{verify_with_facts, VerifyError};
use std::fmt;

/// Pass labels, in pipeline order. Indexes into [`OptStats::removed`]
/// and [`OptStats::rewritten`]; also the `pass` label on the
/// `tscout_opt_insns_removed_total` metric.
pub const PASS_NAMES: [&str; 5] = ["constprop", "copyprop", "dce", "peephole", "unroll"];

const P_CONSTPROP: usize = 0;
const P_COPYPROP: usize = 1;
const P_DCE: usize = 2;
const P_PEEPHOLE: usize = 3;
const P_UNROLL: usize = 4;

/// Fixed-point cap: iterations of the full pipeline (the shipped
/// collector programs converge in at most 4).
const MAX_ITERATIONS: usize = 8;
/// Maximum program length (insns) an unroll may expand to.
const UNROLL_BUDGET: usize = 4096;
/// Human-readable report cap in bytes (reports are diagnostics, not
/// logs of record; long ones truncate).
const REPORT_CAP: usize = 8192;

/// Per-pass and whole-pipeline statistics for one optimized program.
#[derive(Debug, Clone, Copy, Default)]
pub struct OptStats {
    /// Full-pipeline iterations until fixed point (or the cap).
    pub iterations: u64,
    pub insns_before: u64,
    pub insns_after: u64,
    pub loops_unrolled: u64,
    /// Instructions removed, indexed by [`PASS_NAMES`].
    pub removed: [u64; PASS_NAMES.len()],
    /// Instructions rewritten in place, indexed by [`PASS_NAMES`].
    pub rewritten: [u64; PASS_NAMES.len()],
}

impl OptStats {
    pub fn removed_total(&self) -> u64 {
        self.removed.iter().sum()
    }

    pub fn rewritten_total(&self) -> u64 {
        self.rewritten.iter().sum()
    }

    /// Fold another program's stats into this accumulator.
    pub fn absorb(&mut self, other: &OptStats) {
        self.iterations += other.iterations;
        self.insns_before += other.insns_before;
        self.insns_after += other.insns_after;
        self.loops_unrolled += other.loops_unrolled;
        for i in 0..PASS_NAMES.len() {
            self.removed[i] += other.removed[i];
            self.rewritten[i] += other.rewritten[i];
        }
    }
}

/// A successfully optimized program plus its paper trail.
#[derive(Debug, Clone)]
pub struct Optimized {
    pub insns: Vec<Insn>,
    pub stats: OptStats,
    /// Capped human-readable report (per-iteration pass activity and
    /// the final disassembly).
    pub report: String,
}

/// Optimization failure. Callers are expected to fall back to the
/// unoptimized program — optimization is an upgrade, never a gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OptError {
    /// The input program does not verify; nothing to optimize.
    Input(VerifyError),
    /// A rewrite produced a program the verifier rejects. This is an
    /// optimizer bug; the error carries the verifier's complaint.
    Reverify(VerifyError),
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptError::Input(e) => write!(f, "input program failed verification: {e}"),
            OptError::Reverify(e) => {
                write!(f, "optimized program failed re-verification: {e}")
            }
        }
    }
}

impl std::error::Error for OptError {}

const TRUNCATED: &str = "... (report truncated)\n";

fn push_capped(report: &mut String, line: &str) {
    if report.len() >= REPORT_CAP || report.ends_with(TRUNCATED) {
        return;
    }
    if report.len() + line.len() + 1 > REPORT_CAP {
        report.push_str(TRUNCATED);
        return;
    }
    report.push_str(line);
    report.push('\n');
}

/// Run the full pipeline on `prog` to a fixed point.
///
/// `maps` and `ctx_size` must be the same environment the program will
/// execute under — the verifier facts (and therefore every rewrite)
/// are only sound for that environment.
pub fn optimize(prog: &[Insn], maps: &MapRegistry, ctx_size: usize) -> Result<Optimized, OptError> {
    let mut insns = prog.to_vec();
    let mut stats = OptStats {
        insns_before: insns.len() as u64,
        ..OptStats::default()
    };
    let mut report = String::new();
    push_capped(&mut report, &format!("optimizer: {} insns in", insns.len()));

    for iter in 0..MAX_ITERATIONS {
        let len_at_start = insns.len();
        let mut removed = [0u64; PASS_NAMES.len()];
        let mut rewritten = [0u64; PASS_NAMES.len()];

        // 1. (Re-)verify and export facts. The first failure is the
        // caller's problem (Input); later ones are ours (Reverify).
        let (res, facts) = verify_with_facts(&insns, maps, ctx_size);
        if let Err(e) = res {
            return Err(if iter == 0 {
                OptError::Input(e)
            } else {
                OptError::Reverify(e)
            });
        }

        // 2. Verifier facts → constant operands/folds. In place, so
        // the pc-indexed `facts` stay valid; every later pass may
        // compact the program and must not consult them.
        rewritten[P_CONSTPROP] += constprop::facts_constprop(&mut insns, &facts);
        drop(facts);

        // 3. Block-local copy forwarding.
        rewritten[P_COPYPROP] += constprop::copyprop(&mut insns);

        // 4. Dead code.
        removed[P_DCE] += dce::dce(&mut insns);

        // 5. Algebraic identities.
        let pc = peephole::peephole(&mut insns);
        removed[P_PEEPHOLE] += pc.removed;
        rewritten[P_PEEPHOLE] += pc.rewritten;

        // 6. Loop unrolling last: it grows the program, and the next
        // iteration's passes shrink the copies back down.
        let unrolled = unroll::unroll(&mut insns, UNROLL_BUDGET);
        stats.loops_unrolled += unrolled;
        rewritten[P_UNROLL] += unrolled;

        stats.iterations = iter as u64 + 1;
        for i in 0..PASS_NAMES.len() {
            stats.removed[i] += removed[i];
            stats.rewritten[i] += rewritten[i];
        }

        let activity: Vec<String> = PASS_NAMES
            .iter()
            .enumerate()
            .filter(|&(i, _)| removed[i] + rewritten[i] > 0)
            .map(|(i, name)| format!("{name}:-{}/~{}", removed[i], rewritten[i]))
            .collect();
        push_capped(
            &mut report,
            &format!(
                "iter {}: {} -> {} insns [{}]",
                iter + 1,
                len_at_start,
                insns.len(),
                activity.join(" ")
            ),
        );

        let changed = insns.len() != len_at_start
            || removed.iter().sum::<u64>() + rewritten.iter().sum::<u64>() > 0;
        if !changed {
            break;
        }
    }

    // Hard bar: the result must still verify. (The loop's own head
    // re-verifies every intermediate program except the last one.)
    let (res, _) = verify_with_facts(&insns, maps, ctx_size);
    if let Err(e) = res {
        return Err(OptError::Reverify(e));
    }

    stats.insns_after = insns.len() as u64;
    push_capped(
        &mut report,
        &format!(
            "optimizer: {} insns out ({} removed, {} rewritten, {} loops unrolled, {} iterations)",
            insns.len(),
            stats.removed_total(),
            stats.rewritten_total(),
            stats.loops_unrolled,
            stats.iterations,
        ),
    );
    for line in disassemble(&insns).lines() {
        push_capped(&mut report, line);
    }

    Ok(Optimized {
        insns,
        stats,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{AluOp, Cond, Reg, Src, R0, R6};
    use crate::vm::{NullWorld, Vm};

    fn mov_imm(dst: Reg, v: i64) -> Insn {
        Insn::Alu {
            op: AluOp::Mov,
            dst,
            src: Src::Imm(v),
        }
    }

    fn run_r0(prog: &[Insn]) -> u64 {
        let mut maps = MapRegistry::new();
        let mut world = NullWorld::default();
        Vm::run(prog, &[], &mut maps, &mut world)
            .expect("program runs")
            .0
    }

    /// sum of 0..8 via a counted loop.
    fn loopy_program() -> Vec<Insn> {
        vec![
            mov_imm(R0, 0),
            mov_imm(R6, 0),
            Insn::Jump {
                cond: Some((Cond::Ge, R6, Src::Imm(8))),
                off: 3,
            },
            Insn::Alu {
                op: AluOp::Add,
                dst: R0,
                src: Src::Reg(R6),
            },
            Insn::Alu {
                op: AluOp::Add,
                dst: R6,
                src: Src::Imm(1),
            },
            Insn::Jump {
                cond: None,
                off: -4,
            },
            Insn::Exit,
        ]
    }

    #[test]
    fn loopy_program_collapses_to_constant() {
        let prog = loopy_program();
        let before = run_r0(&prog);
        assert_eq!(before, 28);
        let maps = MapRegistry::new();
        let o = optimize(&prog, &maps, 0).expect("optimizes");
        assert_eq!(run_r0(&o.insns), before, "bit-identical result");
        assert!(o.stats.loops_unrolled >= 1);
        assert!(
            o.insns.len() <= 3,
            "sum-of-constants should fold to mov+exit: {}",
            disassemble(&o.insns)
        );
        assert!(o.stats.insns_after < o.stats.insns_before);
        assert!(o.report.contains("insns out"));
    }

    #[test]
    fn already_minimal_program_is_untouched() {
        let prog = vec![mov_imm(R0, 7), Insn::Exit];
        let maps = MapRegistry::new();
        let o = optimize(&prog, &maps, 0).expect("optimizes");
        assert_eq!(o.insns, prog);
        assert_eq!(o.stats.removed_total(), 0);
    }

    #[test]
    fn unverifiable_input_is_rejected_as_input_error() {
        // Reads uninitialized r5: the verifier rejects it.
        let prog = vec![
            Insn::Alu {
                op: AluOp::Mov,
                dst: R0,
                src: Src::Reg(crate::insn::R5),
            },
            Insn::Exit,
        ];
        let maps = MapRegistry::new();
        match optimize(&prog, &maps, 0) {
            Err(OptError::Input(_)) => {}
            other => panic!("expected Input error, got {other:?}"),
        }
    }

    #[test]
    fn report_is_capped() {
        let mut report = String::new();
        let line = "x".repeat(99);
        for _ in 0..200 {
            push_capped(&mut report, &line);
        }
        assert!(
            report.len() <= REPORT_CAP + TRUNCATED.len(),
            "cap respected: {}",
            report.len()
        );
        assert!(report.ends_with(TRUNCATED));
    }

    #[test]
    fn stats_absorb_accumulates() {
        let mut a = OptStats::default();
        let mut b = OptStats::default();
        b.removed[P_DCE] = 3;
        b.insns_before = 10;
        b.insns_after = 7;
        b.iterations = 2;
        a.absorb(&b);
        a.absorb(&b);
        assert_eq!(a.removed[P_DCE], 6);
        assert_eq!(a.insns_before, 20);
        assert_eq!(a.iterations, 4);
    }
}
