//! The elaborated design: the flat, executable representation produced by
//! [`elaborate`](crate::elab::elaborate) and consumed by the scheduler.
//!
//! Module hierarchy is flattened: every net/variable becomes a [`Signal`]
//! with a hierarchical name, every `always`/`initial` block and continuous
//! assignment becomes a [`Process`] whose body is compiled to a small
//! bytecode ([`Instr`]) so that suspension (delays, event controls) only
//! needs to remember a program counter.

use vgen_verilog::ast::{BinaryOp, CaseKind, Edge, UnaryOp};
use vgen_verilog::value::LogicVec;

/// Index of a [`Signal`] in the design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SignalId(pub u32);

/// Index of a [`Memory`] in the design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MemoryId(pub u32);

/// Index of a [`Process`] in the design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessId(pub u32);

/// Whether a signal is a net (wire) or a variable (reg/integer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignalClass {
    /// Driven by continuous assignments / ports; procedural writes illegal.
    Net,
    /// Written by procedural code; continuous assignment illegal.
    Var,
}

/// A flattened scalar or vector signal.
#[derive(Debug, Clone)]
pub struct Signal {
    /// Hierarchical name, e.g. `dut.cur_state`.
    pub name: String,
    /// Bit width (>= 1).
    pub width: usize,
    /// Declared `signed`.
    pub signed: bool,
    /// Net or variable.
    pub class: SignalClass,
    /// Declared range MSB index (e.g. 7 in `[7:0]`).
    pub msb: i64,
    /// Declared range LSB index (e.g. 0 in `[7:0]`).
    pub lsb: i64,
}

impl Signal {
    /// Maps a declared bit index (as written in source) to a bit position
    /// (0 = LSB of the storage), or `None` when out of range.
    pub fn bit_position(&self, index: i64) -> Option<usize> {
        let (hi, lo) = if self.msb >= self.lsb {
            (self.msb, self.lsb)
        } else {
            (self.lsb, self.msb)
        };
        if index < lo || index > hi {
            return None;
        }
        if self.msb >= self.lsb {
            Some((index - self.lsb) as usize)
        } else {
            Some((self.lsb - index) as usize)
        }
    }
}

/// A memory (`reg [7:0] mem [0:63]`), flattened to words.
#[derive(Debug, Clone)]
pub struct Memory {
    /// Hierarchical name.
    pub name: String,
    /// Word width in bits.
    pub width: usize,
    /// First declared word index.
    pub low: i64,
    /// Last declared word index.
    pub high: i64,
    /// Declared `signed`.
    pub signed: bool,
}

impl Memory {
    /// Number of words.
    pub fn depth(&self) -> usize {
        (self.high - self.low + 1) as usize
    }

    /// Maps a declared word index to a storage offset.
    pub fn word_position(&self, index: i64) -> Option<usize> {
        if index < self.low || index > self.high {
            return None;
        }
        Some((index - self.low) as usize)
    }
}

/// The base of a (bit/part) select: a signal or a memory word.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectBase {
    /// A whole signal.
    Signal(SignalId),
    /// A memory word `mem[index]`.
    MemWord {
        /// Which memory.
        mem: MemoryId,
        /// Word index expression (declared index space).
        index: Box<EExpr>,
    },
}

/// Elaborated expression. All identifiers are resolved, parameter values
/// folded, and select indices normalised to *declared index space* (the
/// evaluator maps them to bit positions via the signal's range).
#[derive(Debug, Clone, PartialEq)]
pub enum EExpr {
    /// A constant value.
    Const(LogicVec),
    /// A string literal (only valid as a system-task argument).
    Str(String),
    /// Read a whole signal.
    Signal(SignalId),
    /// Read a memory word.
    Read(SelectBase),
    /// Dynamic single-bit select `base[index]`.
    BitSelect {
        /// Selected signal or memory word.
        base: SelectBase,
        /// Index in declared index space.
        index: Box<EExpr>,
    },
    /// Constant part select `base[msb:lsb]` (declared index space).
    PartSelect {
        /// Selected signal or memory word.
        base: SelectBase,
        /// Declared MSB index.
        msb: i64,
        /// Declared LSB index.
        lsb: i64,
    },
    /// Indexed part select `base[start +: width]`.
    IndexedSelect {
        /// Selected signal or memory word.
        base: SelectBase,
        /// Start index expression (declared index space).
        start: Box<EExpr>,
        /// Constant width.
        width: usize,
        /// `true` for `+:`.
        ascending: bool,
    },
    /// Width adjustment inserted by the elaborator's context-sizing pass
    /// (IEEE 1364 §5.4): extends the operand to `width` (sign-extending when
    /// the operand is signed) so that arithmetic captures carries into the
    /// assignment target's width. Never truncates below the operand's width.
    Resize {
        /// Target width.
        width: usize,
        /// Operand.
        arg: Box<EExpr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        arg: Box<EExpr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Box<EExpr>,
        /// Right operand.
        rhs: Box<EExpr>,
    },
    /// Conditional operator.
    Ternary {
        /// Condition.
        cond: Box<EExpr>,
        /// Value when true.
        then: Box<EExpr>,
        /// Value when false (merged bitwise with `then` when unknown).
        els: Box<EExpr>,
    },
    /// Concatenation (first item = most significant).
    Concat(Vec<EExpr>),
    /// Replication with a constant count.
    Replicate {
        /// Constant replication count.
        count: usize,
        /// Replicated items.
        items: Vec<EExpr>,
    },
    /// System function call (`$time`, `$random`, `$signed`, ...).
    SysCall {
        /// Function name without `$`.
        name: String,
        /// Arguments.
        args: Vec<EExpr>,
    },
    /// A user function call, executed synchronously by the evaluator.
    FuncCall {
        /// Index into [`Design::functions`].
        func: u32,
        /// Argument expressions, one per parameter.
        args: Vec<EExpr>,
    },
}

/// Elaborated assignment target.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// Whole signal.
    Signal(SignalId),
    /// One bit of a signal, dynamic index (declared index space).
    BitSelect {
        /// Target signal.
        sig: SignalId,
        /// Index expression.
        index: EExpr,
    },
    /// Constant part select of a signal (declared index space).
    PartSelect {
        /// Target signal.
        sig: SignalId,
        /// Declared MSB index.
        msb: i64,
        /// Declared LSB index.
        lsb: i64,
    },
    /// Indexed part select of a signal.
    IndexedSelect {
        /// Target signal.
        sig: SignalId,
        /// Start index expression.
        start: EExpr,
        /// Constant width.
        width: usize,
        /// `true` for `+:`.
        ascending: bool,
    },
    /// A memory word.
    MemWord {
        /// Target memory.
        mem: MemoryId,
        /// Word index expression.
        index: EExpr,
    },
    /// Concatenation of lvalues (first = most significant).
    Concat(Vec<LValue>),
}

impl LValue {
    /// The signals this lvalue writes (memories excluded).
    pub fn written_signals(&self, out: &mut Vec<SignalId>) {
        match self {
            LValue::Signal(s)
            | LValue::BitSelect { sig: s, .. }
            | LValue::PartSelect { sig: s, .. }
            | LValue::IndexedSelect { sig: s, .. } => out.push(*s),
            LValue::MemWord { .. } => {}
            LValue::Concat(items) => {
                for i in items {
                    i.written_signals(out);
                }
            }
        }
    }
}

/// One term of a sensitivity list.
#[derive(Debug, Clone, PartialEq)]
pub struct SensTerm {
    /// Watched expression (usually a signal; edges use its LSB).
    pub expr: EExpr,
    /// Edge qualifier; `None` wakes on any value change.
    pub edge: Option<Edge>,
}

/// A full sensitivity specification: expression terms plus memories whose
/// writes should wake the process (needed for `@*` bodies that read RAMs).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Sensitivity {
    /// Expression terms (edges and level changes).
    pub terms: Vec<SensTerm>,
    /// Memories watched for any word write.
    pub mems: Vec<MemoryId>,
}

/// Bytecode instruction for the process VM.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// Evaluate `rhs` and write to `lv` immediately (blocking assign).
    Assign {
        /// Target.
        lv: LValue,
        /// Source expression.
        rhs: EExpr,
    },
    /// Evaluate `rhs` now and schedule the write for the NBA region.
    AssignNba {
        /// Target.
        lv: LValue,
        /// Source expression.
        rhs: EExpr,
    },
    /// Unconditional jump.
    Jump(usize),
    /// Jump when the condition is false **or unknown** (Verilog `if`).
    JumpIfFalse {
        /// Condition.
        cond: EExpr,
        /// Jump target.
        target: usize,
    },
    /// Jump when the case label does **not** match the selector.
    JumpIfNoMatch {
        /// Case flavour (exact / casez / casex).
        kind: CaseKind,
        /// Selector expression.
        sel: EExpr,
        /// Label expression.
        label: EExpr,
        /// Jump target.
        target: usize,
    },
    /// Suspend for a time delay.
    Delay(EExpr),
    /// Suspend until an event in the list fires.
    WaitEvent(Sensitivity),
    /// Suspend until `cond` is true (checked immediately, then on changes).
    WaitCond(EExpr),
    /// Invoke a system task.
    SysCall {
        /// Task name without `$`.
        name: String,
        /// Arguments.
        args: Vec<EExpr>,
    },
    /// Terminate the process (initial blocks and continuous-assign stubs).
    End,
}

/// What kind of source construct a process came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProcessKind {
    /// `always` block (body loops forever).
    Always,
    /// `initial` block (runs once).
    Initial,
    /// Continuous assignment / gate (evaluate once at t=0, then on changes).
    Continuous,
}

/// A compiled process.
#[derive(Debug, Clone)]
pub struct Process {
    /// Where it came from (affects scheduling at time 0).
    pub kind: ProcessKind,
    /// Hierarchical name for diagnostics.
    pub name: String,
    /// Compiled body.
    pub code: Vec<Instr>,
}

/// A compiled user function. Verilog functions are static (one set of
/// locals per definition, no recursion) and combinational (no timing
/// controls), so locals live as ordinary design signals and the body is
/// ordinary bytecode executed synchronously by the expression evaluator.
#[derive(Debug, Clone)]
pub struct FunctionDef {
    /// Hierarchical name.
    pub name: String,
    /// Parameter signals, in declaration order.
    pub params: Vec<SignalId>,
    /// The return-value signal (assigned by the body via the function
    /// name).
    pub ret: SignalId,
    /// Compiled body (Assign/Jump/match/End only).
    pub code: Vec<Instr>,
    /// Module-level signals the body reads (beyond params/locals), used
    /// for `@*` sensitivity of processes that call the function.
    pub outer_reads: Vec<SignalId>,
    /// Memories the body reads.
    pub outer_mem_reads: Vec<MemoryId>,
    /// The body's height, charged against
    /// [`vgen_verilog::parser::MAX_CALL_HEIGHT`] while a call runs.
    pub height: usize,
}

/// A fully elaborated, executable design.
#[derive(Debug, Clone, Default)]
pub struct Design {
    /// All signals, flattened.
    pub signals: Vec<Signal>,
    /// All memories, flattened.
    pub memories: Vec<Memory>,
    /// All processes (always/initial/continuous).
    pub processes: Vec<Process>,
    /// All compiled user functions.
    pub functions: Vec<FunctionDef>,
    /// Name of the top module this design was elaborated from.
    pub top: String,
}

impl Design {
    /// Looks up a signal by hierarchical name.
    pub fn signal_by_name(&self, name: &str) -> Option<SignalId> {
        self.signals
            .iter()
            .position(|s| s.name == name)
            .map(|i| SignalId(i as u32))
    }

    /// Access a signal's metadata.
    pub fn signal(&self, id: SignalId) -> &Signal {
        &self.signals[id.0 as usize]
    }

    /// Access a memory's metadata.
    pub fn memory(&self, id: MemoryId) -> &Memory {
        &self.memories[id.0 as usize]
    }

    /// The elaborated bit width of a signal, by hierarchical name.
    ///
    /// Convenience for analyses (e.g. `vgen-lint` width checks) that want
    /// the elaborator's authoritative width — parameters folded, ranges
    /// evaluated — without tracking [`SignalId`]s.
    pub fn signal_width(&self, name: &str) -> Option<usize> {
        self.signal_by_name(name).map(|id| self.signal(id).width)
    }
}

impl EExpr {
    /// Collects every signal read by this expression into `out` and reports
    /// whether any memory is read (used to build `@*` sensitivity lists).
    pub fn read_set(&self, out: &mut Vec<SignalId>, mems: &mut Vec<MemoryId>) {
        match self {
            EExpr::Const(_) | EExpr::Str(_) => {}
            EExpr::Signal(s) => out.push(*s),
            EExpr::Read(base) => base.read_set(out, mems),
            EExpr::BitSelect { base, index } => {
                base.read_set(out, mems);
                index.read_set(out, mems);
            }
            EExpr::PartSelect { base, .. } => base.read_set(out, mems),
            EExpr::IndexedSelect { base, start, .. } => {
                base.read_set(out, mems);
                start.read_set(out, mems);
            }
            EExpr::Resize { arg, .. } => arg.read_set(out, mems),
            EExpr::Unary { arg, .. } => arg.read_set(out, mems),
            EExpr::Binary { lhs, rhs, .. } => {
                lhs.read_set(out, mems);
                rhs.read_set(out, mems);
            }
            EExpr::Ternary { cond, then, els } => {
                cond.read_set(out, mems);
                then.read_set(out, mems);
                els.read_set(out, mems);
            }
            EExpr::Concat(items) | EExpr::Replicate { items, .. } => {
                for i in items {
                    i.read_set(out, mems);
                }
            }
            EExpr::SysCall { args, .. } => {
                for a in args {
                    a.read_set(out, mems);
                }
            }
            EExpr::FuncCall { args, .. } => {
                // Args only; the function's own outer reads are folded in
                // by the elaborator, which has the FunctionDef table.
                for a in args {
                    a.read_set(out, mems);
                }
            }
        }
    }
}

impl SelectBase {
    fn read_set(&self, out: &mut Vec<SignalId>, mems: &mut Vec<MemoryId>) {
        match self {
            SelectBase::Signal(s) => out.push(*s),
            SelectBase::MemWord { mem, index } => {
                mems.push(*mem);
                index.read_set(out, mems);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(msb: i64, lsb: i64) -> Signal {
        Signal {
            name: "s".into(),
            width: (msb - lsb).unsigned_abs() as usize + 1,
            signed: false,
            class: SignalClass::Var,
            msb,
            lsb,
        }
    }

    #[test]
    fn bit_position_descending_range() {
        let s = sig(7, 0);
        assert_eq!(s.bit_position(0), Some(0));
        assert_eq!(s.bit_position(7), Some(7));
        assert_eq!(s.bit_position(8), None);
        assert_eq!(s.bit_position(-1), None);
    }

    #[test]
    fn bit_position_ascending_range() {
        let s = sig(0, 7);
        assert_eq!(s.bit_position(7), Some(0));
        assert_eq!(s.bit_position(0), Some(7));
    }

    #[test]
    fn bit_position_offset_range() {
        let s = sig(11, 4);
        assert_eq!(s.bit_position(4), Some(0));
        assert_eq!(s.bit_position(11), Some(7));
        assert_eq!(s.bit_position(3), None);
    }

    #[test]
    fn memory_word_position() {
        let m = Memory {
            name: "mem".into(),
            width: 8,
            low: 0,
            high: 63,
            signed: false,
        };
        assert_eq!(m.depth(), 64);
        assert_eq!(m.word_position(0), Some(0));
        assert_eq!(m.word_position(63), Some(63));
        assert_eq!(m.word_position(64), None);
    }

    #[test]
    fn read_set_collects_nested() {
        let e = EExpr::Binary {
            op: BinaryOp::Add,
            lhs: Box::new(EExpr::Signal(SignalId(1))),
            rhs: Box::new(EExpr::BitSelect {
                base: SelectBase::MemWord {
                    mem: MemoryId(0),
                    index: Box::new(EExpr::Signal(SignalId(2))),
                },
                index: Box::new(EExpr::Signal(SignalId(3))),
            }),
        };
        let mut sigs = Vec::new();
        let mut mems = Vec::new();
        e.read_set(&mut sigs, &mut mems);
        assert_eq!(sigs, vec![SignalId(1), SignalId(2), SignalId(3)]);
        assert_eq!(mems, vec![MemoryId(0)]);
    }

    #[test]
    fn lvalue_written_signals() {
        let lv = LValue::Concat(vec![
            LValue::Signal(SignalId(1)),
            LValue::PartSelect {
                sig: SignalId(2),
                msb: 3,
                lsb: 0,
            },
        ]);
        let mut out = Vec::new();
        lv.written_signals(&mut out);
        assert_eq!(out, vec![SignalId(1), SignalId(2)]);
    }
}
