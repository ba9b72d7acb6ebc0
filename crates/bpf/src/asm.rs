//! A label-based program builder.
//!
//! TScout's Codegen emits Collector bytecode through this builder (paper
//! §3.1: "TS then generates the source code for a BPF program"). Labels
//! keep the generated control flow readable; `resolve()` patches jump
//! offsets and fails loudly on undefined references. A label bound
//! before its jump resolves to a negative offset, which the verifier
//! rejects as a back edge; the builder allows it so tests can submit one.

use crate::insn::{AluOp, Cond, Helper, Insn, Reg, Size, Src};
use crate::maps::MapId;
use std::collections::HashMap;

/// A forward-reference label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Errors from `resolve`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A jump references a label that was never `bind`-ed.
    UnboundLabel(usize),
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AsmError::UnboundLabel(l) => write!(f, "label L{l} was never bound"),
        }
    }
}

impl std::error::Error for AsmError {}

#[derive(Debug)]
enum Pending {
    Done(Insn),
    Jump {
        cond: Option<(Cond, Reg, Src)>,
        target: Label,
    },
}

/// Builder for straight-line-with-forward-branches BPF programs.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    insns: Vec<Pending>,
    labels: HashMap<Label, usize>,
    next_label: usize,
}

impl ProgramBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocate a label to be bound later.
    pub fn label(&mut self) -> Label {
        let l = Label(self.next_label);
        self.next_label += 1;
        l
    }

    /// Bind a label to the *next* emitted instruction.
    pub fn bind(&mut self, l: Label) -> &mut Self {
        self.labels.insert(l, self.insns.len());
        self
    }

    /// Current instruction count.
    pub fn len(&self) -> usize {
        self.insns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.insns.is_empty()
    }

    // -- ALU ------------------------------------------------------------

    pub fn mov_imm(&mut self, dst: Reg, imm: i64) -> &mut Self {
        self.push(Insn::Alu {
            op: AluOp::Mov,
            dst,
            src: Src::Imm(imm),
        })
    }

    pub fn mov_reg(&mut self, dst: Reg, src: Reg) -> &mut Self {
        self.push(Insn::Alu {
            op: AluOp::Mov,
            dst,
            src: Src::Reg(src),
        })
    }

    pub fn alu_imm(&mut self, op: AluOp, dst: Reg, imm: i64) -> &mut Self {
        self.push(Insn::Alu {
            op,
            dst,
            src: Src::Imm(imm),
        })
    }

    pub fn alu_reg(&mut self, op: AluOp, dst: Reg, src: Reg) -> &mut Self {
        self.push(Insn::Alu {
            op,
            dst,
            src: Src::Reg(src),
        })
    }

    // -- memory -----------------------------------------------------------

    pub fn load(&mut self, size: Size, dst: Reg, base: Reg, off: i32) -> &mut Self {
        self.push(Insn::Load {
            size,
            dst,
            base,
            off,
        })
    }

    pub fn store_reg(&mut self, size: Size, base: Reg, off: i32, src: Reg) -> &mut Self {
        self.push(Insn::Store {
            size,
            base,
            off,
            src: Src::Reg(src),
        })
    }

    pub fn store_imm(&mut self, size: Size, base: Reg, off: i32, imm: i64) -> &mut Self {
        self.push(Insn::Store {
            size,
            base,
            off,
            src: Src::Imm(imm),
        })
    }

    // -- control ----------------------------------------------------------

    pub fn jump(&mut self, target: Label) -> &mut Self {
        self.insns.push(Pending::Jump { cond: None, target });
        self
    }

    pub fn jump_if_imm(&mut self, cond: Cond, dst: Reg, imm: i64, target: Label) -> &mut Self {
        self.insns.push(Pending::Jump {
            cond: Some((cond, dst, Src::Imm(imm))),
            target,
        });
        self
    }

    pub fn jump_if_reg(&mut self, cond: Cond, dst: Reg, src: Reg, target: Label) -> &mut Self {
        self.insns.push(Pending::Jump {
            cond: Some((cond, dst, Src::Reg(src))),
            target,
        });
        self
    }

    pub fn call(&mut self, helper: Helper) -> &mut Self {
        self.push(Insn::Call { helper })
    }

    pub fn load_map(&mut self, dst: Reg, map: MapId) -> &mut Self {
        self.push(Insn::LoadMap { dst, map })
    }

    pub fn exit(&mut self) -> &mut Self {
        self.push(Insn::Exit)
    }

    fn push(&mut self, insn: Insn) -> &mut Self {
        self.insns.push(Pending::Done(insn));
        self
    }

    /// Patch jump offsets and return the final program.
    pub fn resolve(self) -> Result<Vec<Insn>, AsmError> {
        let labels = self.labels;
        self.insns
            .into_iter()
            .enumerate()
            .map(|(pc, pending)| match pending {
                Pending::Done(insn) => Ok(insn),
                Pending::Jump { cond, target } => {
                    let tgt = *labels
                        .get(&target)
                        .ok_or(AsmError::UnboundLabel(target.0))?;
                    Ok(Insn::Jump {
                        cond,
                        off: (tgt as i64 - pc as i64 - 1) as i32,
                    })
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::{R0, R1};

    #[test]
    fn builds_and_resolves_forward_jump() {
        let mut b = ProgramBuilder::new();
        let done = b.label();
        b.mov_imm(R0, 1);
        b.jump_if_imm(Cond::Eq, R0, 0, done);
        b.mov_imm(R0, 2);
        b.bind(done);
        b.exit();
        let prog = b.resolve().unwrap();
        assert_eq!(prog.len(), 4);
        match prog[1] {
            Insn::Jump {
                cond: Some((Cond::Eq, R0, Src::Imm(0))),
                off,
            } => assert_eq!(off, 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn jump_to_next_insn_has_zero_offset() {
        let mut b = ProgramBuilder::new();
        let l = b.label();
        b.jump(l);
        b.bind(l);
        b.exit();
        let prog = b.resolve().unwrap();
        assert_eq!(prog[0], Insn::Jump { cond: None, off: 0 });
    }

    #[test]
    fn unbound_label_errors() {
        let mut b = ProgramBuilder::new();
        let l = b.label();
        b.jump(l);
        b.exit();
        assert!(matches!(b.resolve(), Err(AsmError::UnboundLabel(_))));
    }

    #[test]
    fn backward_jump_resolves_to_negative_offset() {
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.bind(top);
        b.mov_imm(R1, 0);
        b.jump(top);
        b.exit();
        let prog = b.resolve().unwrap();
        assert_eq!(
            prog[1],
            Insn::Jump {
                cond: None,
                off: -2
            }
        );
    }

    #[test]
    fn store_and_load_helpers_produce_expected_insns() {
        let mut b = ProgramBuilder::new();
        b.store_imm(Size::B8, crate::insn::R10, -8, 42);
        b.load(Size::B8, R1, crate::insn::R10, -8);
        b.exit();
        let prog = b.resolve().unwrap();
        assert!(matches!(
            prog[0],
            Insn::Store {
                size: Size::B8,
                off: -8,
                ..
            }
        ));
        assert!(matches!(
            prog[1],
            Insn::Load {
                size: Size::B8,
                off: -8,
                ..
            }
        ));
    }
}
