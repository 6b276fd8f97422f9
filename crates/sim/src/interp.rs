//! Runtime state, expression evaluation and lvalue writes.

use vgen_verilog::ast::Edge;
use vgen_verilog::parser::MAX_CALL_HEIGHT;
use vgen_verilog::value::{Logic, LogicVec};

use crate::design::*;

/// A runtime error during simulation (unknown system function, etc.).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeError {
    /// Description of the problem.
    pub message: String,
}

impl RuntimeError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        RuntimeError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "runtime error: {}", self.message)
    }
}

impl std::error::Error for RuntimeError {}

/// Deterministic 32-bit LCG backing `$random`.
#[derive(Debug, Clone)]
pub struct Lcg {
    state: u64,
}

impl Lcg {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Lcg { state: seed }
    }

    /// Next 32-bit value (Numerical Recipes constants).
    pub fn next_u32(&mut self) -> u32 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.state >> 32) as u32
    }
}

/// Mutable simulation state: signal values, memory contents, time, RNG.
#[derive(Debug, Clone)]
pub struct State {
    /// Current value of every signal, indexed by [`SignalId`].
    pub signals: Vec<LogicVec>,
    /// Current contents of every memory, indexed by [`MemoryId`].
    pub memories: Vec<Vec<LogicVec>>,
    /// Current simulation time.
    pub time: u64,
    /// `$random` generator.
    pub random: Lcg,
    /// Re-entrancy guard per function (Verilog functions are static; a
    /// recursive call is a runtime error).
    func_active: Vec<bool>,
    /// Summed height of the function calls running now.
    call_height: usize,
}

impl State {
    /// Initialises all signals and memory words to `x`.
    pub fn new(design: &Design) -> Self {
        State {
            signals: design
                .signals
                .iter()
                .map(|s| LogicVec::unknown(s.width).with_signed(s.signed))
                .collect(),
            memories: design
                .memories
                .iter()
                .map(|m| vec![LogicVec::unknown(m.width); m.depth()])
                .collect(),
            time: 0,
            random: Lcg::new(0x5eed_cafe),
            func_active: vec![false; design.functions.len()],
            call_height: 0,
        }
    }

    /// Reads a signal value.
    pub fn signal(&self, id: SignalId) -> &LogicVec {
        &self.signals[id.0 as usize]
    }

    /// Reads a memory word by storage offset, `x` when out of range.
    pub fn mem_word(&self, id: MemoryId, offset: usize) -> LogicVec {
        let words = &self.memories[id.0 as usize];
        words
            .get(offset)
            .cloned()
            .unwrap_or_else(|| LogicVec::unknown(words[0].width()))
    }
}

/// Changes produced by a write, used to wake sensitive processes.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Changes {
    /// Signals whose value changed, with their previous value.
    pub signals: Vec<(SignalId, LogicVec)>,
    /// Memories with at least one changed word.
    pub mems: Vec<MemoryId>,
}

impl Changes {
    /// True when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.signals.is_empty() && self.mems.is_empty()
    }
}

/// Evaluates an elaborated expression against the current state.
///
/// # Errors
///
/// Returns [`RuntimeError`] for unknown system functions. Out-of-range and
/// unknown indices produce `x` values, per Verilog semantics.
pub fn eval(design: &Design, state: &mut State, e: &EExpr) -> Result<LogicVec, RuntimeError> {
    match e {
        EExpr::Const(v) => Ok(v.clone()),
        EExpr::Str(_) => Err(RuntimeError::new(
            "string literal used outside a system task argument",
        )),
        EExpr::Signal(id) => Ok(state.signal(*id).clone()),
        EExpr::Read(base) => read_base(design, state, base),
        EExpr::BitSelect { base, index } => {
            let idx = eval(design, state, index)?;
            let value = read_base(design, state, base)?;
            let Some(i) = idx.to_i64() else {
                return Ok(LogicVec::unknown(1));
            };
            let pos = match base {
                SelectBase::Signal(id) => design.signal(*id).bit_position(i),
                // Memory words index from bit 0 of the word's range.
                SelectBase::MemWord { mem, .. } => {
                    let m = design.memory(*mem);
                    if i >= 0 && (i as usize) < m.width {
                        Some(i as usize)
                    } else {
                        None
                    }
                }
            };
            Ok(match pos {
                Some(p) => LogicVec::from_bits(vec![value.bit(p)], false),
                None => LogicVec::unknown(1),
            })
        }
        EExpr::PartSelect { base, msb, lsb } => {
            let value = read_base(design, state, base)?;
            let (hi, lo) = match base {
                SelectBase::Signal(id) => {
                    let s = design.signal(*id);
                    (
                        s.bit_position(*msb).unwrap_or(usize::MAX),
                        s.bit_position(*lsb).unwrap_or(usize::MAX),
                    )
                }
                SelectBase::MemWord { .. } => (*msb as usize, *lsb as usize),
            };
            if hi == usize::MAX || lo == usize::MAX || hi < lo {
                let w = (*msb - *lsb).unsigned_abs() as usize + 1;
                return Ok(LogicVec::unknown(w));
            }
            Ok(value.select(hi, lo))
        }
        EExpr::IndexedSelect {
            base,
            start,
            width,
            ascending,
        } => {
            let value = read_base(design, state, base)?;
            let s = eval(design, state, start)?;
            let Some(s) = s.to_i64() else {
                return Ok(LogicVec::unknown(*width));
            };
            let indices = indexed_range(s, *width, *ascending);
            let bits: Vec<Logic> = indices
                .iter()
                .map(|i| {
                    let pos = match base {
                        SelectBase::Signal(id) => design.signal(*id).bit_position(*i),
                        SelectBase::MemWord { mem, .. } => {
                            let m = design.memory(*mem);
                            if *i >= 0 && (*i as usize) < m.width {
                                Some(*i as usize)
                            } else {
                                None
                            }
                        }
                    };
                    pos.map(|p| value.bit(p)).unwrap_or(Logic::X)
                })
                .collect();
            Ok(LogicVec::from_bits(bits, false))
        }
        EExpr::Resize { width, arg } => {
            let v = eval(design, state, arg)?;
            if v.width() >= *width {
                Ok(v)
            } else {
                Ok(v.resize(*width))
            }
        }
        EExpr::Unary { op, arg } => {
            let v = eval(design, state, arg)?;
            Ok(op.apply(&v))
        }
        EExpr::Binary { op, lhs, rhs } => {
            let a = eval(design, state, lhs)?;
            let b = eval(design, state, rhs)?;
            Ok(op.apply(&a, &b))
        }
        EExpr::Ternary { cond, then, els } => {
            let c = eval(design, state, cond)?;
            match c.truthiness() {
                Some(true) => eval(design, state, then),
                Some(false) => eval(design, state, els),
                None => {
                    // IEEE: merge bitwise; differing bits become x.
                    let a = eval(design, state, then)?;
                    let b = eval(design, state, els)?;
                    Ok(a.merge_unknown(&b))
                }
            }
        }
        EExpr::Concat(items) => {
            let mut acc: Option<LogicVec> = None;
            for i in items {
                let v = eval(design, state, i)?;
                acc = Some(match acc {
                    None => v,
                    Some(a) => a.concat(&v),
                });
            }
            acc.ok_or_else(|| RuntimeError::new("empty concatenation"))
        }
        EExpr::Replicate { count, items } => {
            let mut acc: Option<LogicVec> = None;
            for i in items {
                let v = eval(design, state, i)?;
                acc = Some(match acc {
                    None => v,
                    Some(a) => a.concat(&v),
                });
            }
            let inner = acc.ok_or_else(|| RuntimeError::new("empty replication"))?;
            Ok(inner.replicate(*count))
        }
        EExpr::SysCall { name, args } => match (name.as_str(), args.len()) {
            ("time" | "stime" | "realtime", 0) => Ok(LogicVec::from_u64(state.time, 64)),
            ("random", 0 | 1) => {
                let v = state.random.next_u32();
                Ok(LogicVec::from_u64(v as u64, 32).with_signed(true))
            }
            ("urandom", 0 | 1) => {
                let v = state.random.next_u32();
                Ok(LogicVec::from_u64(v as u64, 32))
            }
            ("signed", 1) => Ok(eval(design, state, &args[0])?.with_signed(true)),
            ("unsigned", 1) => Ok(eval(design, state, &args[0])?.with_signed(false)),
            ("clog2", 1) => {
                let v = eval(design, state, &args[0])?;
                let n = v.to_u64().unwrap_or(0);
                let r = if n <= 1 {
                    0
                } else {
                    64 - (n - 1).leading_zeros() as u64
                };
                Ok(LogicVec::from_u64(r, 32))
            }
            _ => Err(RuntimeError::new(format!(
                "unknown system function `${name}`"
            ))),
        },
        EExpr::FuncCall { func, args } => {
            let mut values = Vec::with_capacity(args.len());
            for a in args {
                values.push(eval(design, state, a)?);
            }
            exec_function(design, state, *func, &values)
        }
    }
}

/// Maximum instructions per function invocation (runaway-loop backstop).
const FUNCTION_STEP_BUDGET: usize = 200_000;

/// Executes a compiled user function synchronously: binds `args` to the
/// parameter signals, runs the body bytecode, returns the return signal.
///
/// # Errors
///
/// Returns [`RuntimeError`] on recursion, calls nested past
/// [`MAX_CALL_HEIGHT`], wrong arity, a body instruction that is not allowed
/// in functions (guaranteed absent by elaboration), or budget exhaustion.
fn exec_function(
    design: &Design,
    state: &mut State,
    func: u32,
    args: &[LogicVec],
) -> Result<LogicVec, RuntimeError> {
    use crate::design::Instr;
    let def = design
        .functions
        .get(func as usize)
        .ok_or_else(|| RuntimeError::new("unknown function index"))?;
    if state.func_active[func as usize] {
        return Err(RuntimeError::new(format!(
            "recursive call of function `{}`",
            def.name
        )));
    }
    if args.len() != def.params.len() {
        return Err(RuntimeError::new(format!(
            "function `{}` takes {} arguments, got {}",
            def.name,
            def.params.len(),
            args.len()
        )));
    }
    let call_height = state.call_height + def.height;
    if call_height > MAX_CALL_HEIGHT {
        return Err(RuntimeError::new(format!(
            "function calls nested deeper than {MAX_CALL_HEIGHT} levels"
        )));
    }
    state.func_active[func as usize] = true;
    let caller_height = std::mem::replace(&mut state.call_height, call_height);
    let result = (|| {
        let mut scratch = Changes::default();
        for (param, value) in def.params.iter().zip(args) {
            apply_write(
                design,
                state,
                &ResolvedLValue::Signal(*param),
                value,
                &mut scratch,
            );
        }
        // The return value starts as x each invocation.
        let ret_width = design.signal(def.ret).width;
        apply_write(
            design,
            state,
            &ResolvedLValue::Signal(def.ret),
            &LogicVec::unknown(ret_width),
            &mut scratch,
        );
        let mut pc = 0usize;
        let mut steps = 0usize;
        loop {
            steps += 1;
            if steps > FUNCTION_STEP_BUDGET {
                return Err(RuntimeError::new(format!(
                    "function `{}` exceeded its step budget",
                    def.name
                )));
            }
            let Some(instr) = def.code.get(pc) else {
                break;
            };
            match instr {
                Instr::Assign { lv, rhs } => {
                    let value = eval(design, state, rhs)?;
                    let resolved = resolve_lvalue(design, state, lv)?;
                    apply_write(design, state, &resolved, &value, &mut scratch);
                    pc += 1;
                }
                Instr::Jump(t) => pc = *t,
                Instr::JumpIfFalse { cond, target } => {
                    let v = eval(design, state, cond)?;
                    pc = if v.truthiness() == Some(true) {
                        pc + 1
                    } else {
                        *target
                    };
                }
                Instr::JumpIfNoMatch {
                    kind,
                    sel,
                    label,
                    target,
                } => {
                    let s = eval(design, state, sel)?;
                    let l = eval(design, state, label)?;
                    let matched = match kind {
                        vgen_verilog::ast::CaseKind::Exact => s.case_eq(&l).to_u64() == Some(1),
                        vgen_verilog::ast::CaseKind::Z => s.case_matches(&l, false),
                        vgen_verilog::ast::CaseKind::X => s.case_matches(&l, true),
                    };
                    pc = if matched { pc + 1 } else { *target };
                }
                Instr::End => break,
                other => {
                    return Err(RuntimeError::new(format!(
                        "instruction {other:?} is not allowed in function `{}`",
                        def.name
                    )))
                }
            }
        }
        Ok(state.signal(def.ret).clone())
    })();
    state.func_active[func as usize] = false;
    state.call_height = caller_height;
    result
}

/// Computes the declared bit indices touched by `[start +: width]` /
/// `[start -: width]`, MSB-last (LSB first, matching storage order).
fn indexed_range(start: i64, width: usize, ascending: bool) -> Vec<i64> {
    if ascending {
        (0..width as i64).map(|k| start + k).collect()
    } else {
        (0..width as i64)
            .map(|k| start - (width as i64 - 1) + k)
            .collect()
    }
}

fn read_base(
    design: &Design,
    state: &mut State,
    base: &SelectBase,
) -> Result<LogicVec, RuntimeError> {
    match base {
        SelectBase::Signal(id) => Ok(state.signal(*id).clone()),
        SelectBase::MemWord { mem, index } => {
            let idx = eval(design, state, index)?;
            let m = design.memory(*mem);
            let Some(i) = idx.to_i64() else {
                return Ok(LogicVec::unknown(m.width));
            };
            match m.word_position(i) {
                Some(off) => Ok(state.mem_word(*mem, off)),
                None => Ok(LogicVec::unknown(m.width)),
            }
        }
    }
}

/// An lvalue with all dynamic indices evaluated, ready to apply.
#[derive(Debug, Clone, PartialEq)]
pub enum ResolvedLValue {
    /// Whole signal.
    Signal(SignalId),
    /// Bit positions `lo..=hi` of a signal (storage space).
    Bits {
        /// Target signal.
        sig: SignalId,
        /// Highest storage bit (inclusive).
        hi: usize,
        /// Lowest storage bit (inclusive).
        lo: usize,
    },
    /// A memory word by storage offset.
    MemWord {
        /// Target memory.
        mem: MemoryId,
        /// Word offset.
        offset: usize,
    },
    /// Concatenation, first element takes the most-significant bits.
    Concat(Vec<ResolvedLValue>),
    /// Index was unknown or out of range: the write is dropped.
    NoOp {
        /// Width the dropped target would have had (for concat slicing).
        width: usize,
    },
}

impl ResolvedLValue {
    /// Bit width of the target.
    pub fn width(&self, design: &Design) -> usize {
        match self {
            ResolvedLValue::Signal(id) => design.signal(*id).width,
            ResolvedLValue::Bits { hi, lo, .. } => hi - lo + 1,
            ResolvedLValue::MemWord { mem, .. } => design.memory(*mem).width,
            ResolvedLValue::Concat(items) => items.iter().map(|i| i.width(design)).sum(),
            ResolvedLValue::NoOp { width } => *width,
        }
    }
}

/// Evaluates the dynamic indices of `lv` against the current state.
///
/// # Errors
///
/// Propagates evaluation errors from index expressions.
pub fn resolve_lvalue(
    design: &Design,
    state: &mut State,
    lv: &LValue,
) -> Result<ResolvedLValue, RuntimeError> {
    Ok(match lv {
        LValue::Signal(id) => ResolvedLValue::Signal(*id),
        LValue::BitSelect { sig, index } => {
            let idx = eval(design, state, index)?;
            match idx
                .to_i64()
                .and_then(|i| design.signal(*sig).bit_position(i))
            {
                Some(p) => ResolvedLValue::Bits {
                    sig: *sig,
                    hi: p,
                    lo: p,
                },
                None => ResolvedLValue::NoOp { width: 1 },
            }
        }
        LValue::PartSelect { sig, msb, lsb } => {
            let s = design.signal(*sig);
            match (s.bit_position(*msb), s.bit_position(*lsb)) {
                (Some(hi), Some(lo)) if hi >= lo => ResolvedLValue::Bits { sig: *sig, hi, lo },
                _ => ResolvedLValue::NoOp {
                    width: (*msb - *lsb).unsigned_abs() as usize + 1,
                },
            }
        }
        LValue::IndexedSelect {
            sig,
            start,
            width,
            ascending,
        } => {
            let sv = eval(design, state, start)?;
            let s = design.signal(*sig);
            match sv.to_i64() {
                Some(st) => {
                    let idxs = indexed_range(st, *width, *ascending);
                    let lo = idxs.iter().filter_map(|i| s.bit_position(*i)).min();
                    let hi = idxs.iter().filter_map(|i| s.bit_position(*i)).max();
                    match (lo, hi) {
                        (Some(lo), Some(hi)) if hi - lo + 1 == *width => {
                            ResolvedLValue::Bits { sig: *sig, hi, lo }
                        }
                        _ => ResolvedLValue::NoOp { width: *width },
                    }
                }
                None => ResolvedLValue::NoOp { width: *width },
            }
        }
        LValue::MemWord { mem, index } => {
            let idx = eval(design, state, index)?;
            match idx
                .to_i64()
                .and_then(|i| design.memory(*mem).word_position(i))
            {
                Some(offset) => ResolvedLValue::MemWord { mem: *mem, offset },
                None => ResolvedLValue::NoOp {
                    width: design.memory(*mem).width,
                },
            }
        }
        LValue::Concat(items) => {
            let items: Vec<ResolvedLValue> = items
                .iter()
                .map(|i| resolve_lvalue(design, state, i))
                .collect::<Result<_, _>>()?;
            ResolvedLValue::Concat(items)
        }
    })
}

/// Writes `value` to a resolved lvalue, recording changed signals/memories.
pub fn apply_write(
    design: &Design,
    state: &mut State,
    lv: &ResolvedLValue,
    value: &LogicVec,
    changes: &mut Changes,
) {
    match lv {
        ResolvedLValue::Signal(id) => {
            let sig = design.signal(*id);
            let new = value.resize(sig.width).with_signed(sig.signed);
            let old = &state.signals[id.0 as usize];
            if *old != new {
                let prev = old.clone();
                state.signals[id.0 as usize] = new;
                changes.signals.push((*id, prev));
            }
        }
        ResolvedLValue::Bits { sig, hi, lo } => {
            let old = &state.signals[sig.0 as usize];
            let new = old.with_range(*hi, *lo, value);
            if *old != new {
                let prev = std::mem::replace(&mut state.signals[sig.0 as usize], new);
                changes.signals.push((*sig, prev));
            }
        }
        ResolvedLValue::MemWord { mem, offset } => {
            let m = design.memory(*mem);
            let new = value.resize(m.width);
            let words = &mut state.memories[mem.0 as usize];
            if *offset < words.len() && words[*offset] != new {
                words[*offset] = new;
                if !changes.mems.contains(mem) {
                    changes.mems.push(*mem);
                }
            }
        }
        ResolvedLValue::Concat(items) => {
            // First item gets the most-significant bits.
            let total: usize = items.iter().map(|i| i.width(design)).sum();
            let v = value.resize(total);
            let mut lo = total;
            for item in items {
                let w = item.width(design);
                lo -= w;
                let slice = v.select(lo + w - 1, lo);
                apply_write(design, state, item, &slice, changes);
            }
        }
        ResolvedLValue::NoOp { .. } => {}
    }
}

/// Writes an owned value to a whole-signal target without the extra clone
/// [`apply_write`] pays for borrowed values; other targets defer to the
/// shared path.
pub(crate) fn apply_write_owned(
    design: &Design,
    state: &mut State,
    lv: &ResolvedLValue,
    value: LogicVec,
    changes: &mut Changes,
) {
    if let ResolvedLValue::Signal(id) = lv {
        let sig = design.signal(*id);
        let new = if value.width() == sig.width {
            value
        } else {
            value.resize(sig.width)
        }
        .with_signed(sig.signed);
        let old = &state.signals[id.0 as usize];
        if *old != new {
            let prev = std::mem::replace(&mut state.signals[id.0 as usize], new);
            changes.signals.push((*id, prev));
        }
    } else {
        apply_write(design, state, lv, &value, changes);
    }
}

/// True when `(from, to)` constitutes the given edge on a scalar bit,
/// per IEEE 1364 (posedge: 0→1, 0→x/z, x/z→1).
#[inline]
pub fn is_edge(from: Logic, to: Logic, edge: Edge) -> bool {
    if from == to {
        return false;
    }
    match edge {
        Edge::Pos => {
            matches!(
                (from, to),
                (Logic::Zero, Logic::One)
                    | (Logic::Zero, Logic::X)
                    | (Logic::Zero, Logic::Z)
                    | (Logic::X, Logic::One)
                    | (Logic::Z, Logic::One)
            )
        }
        Edge::Neg => {
            matches!(
                (from, to),
                (Logic::One, Logic::Zero)
                    | (Logic::One, Logic::X)
                    | (Logic::One, Logic::Z)
                    | (Logic::X, Logic::Zero)
                    | (Logic::Z, Logic::Zero)
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgen_verilog::ast::BinaryOp;

    fn tiny_design() -> Design {
        Design {
            signals: vec![
                Signal {
                    name: "a".into(),
                    width: 8,
                    signed: false,
                    class: SignalClass::Var,
                    msb: 7,
                    lsb: 0,
                },
                Signal {
                    name: "b".into(),
                    width: 4,
                    signed: false,
                    class: SignalClass::Var,
                    msb: 3,
                    lsb: 0,
                },
            ],
            memories: vec![Memory {
                name: "mem".into(),
                width: 8,
                low: 0,
                high: 15,
                signed: false,
            }],
            processes: vec![],
            functions: vec![],
            top: "t".into(),
        }
    }

    fn setup() -> (Design, State) {
        let d = tiny_design();
        let mut s = State::new(&d);
        s.signals[0] = LogicVec::from_u64(0xA5, 8);
        s.signals[1] = LogicVec::from_u64(0x3, 4);
        (d, s)
    }

    #[test]
    fn eval_signal_and_binary() {
        let (d, mut s) = setup();
        let e = EExpr::Binary {
            op: BinaryOp::Add,
            lhs: Box::new(EExpr::Signal(SignalId(0))),
            rhs: Box::new(EExpr::Signal(SignalId(1))),
        };
        assert_eq!(eval(&d, &mut s, &e).expect("eval").to_u64(), Some(0xA8));
    }

    #[test]
    fn eval_bit_select_dynamic() {
        let (d, mut s) = setup();
        let e = EExpr::BitSelect {
            base: SelectBase::Signal(SignalId(0)),
            index: Box::new(EExpr::Const(LogicVec::from_u64(2, 4))),
        };
        // 0xA5 = 1010_0101, bit 2 = 1.
        assert_eq!(eval(&d, &mut s, &e).expect("eval").to_u64(), Some(1));
    }

    #[test]
    fn eval_bit_select_out_of_range_is_x() {
        let (d, mut s) = setup();
        let e = EExpr::BitSelect {
            base: SelectBase::Signal(SignalId(0)),
            index: Box::new(EExpr::Const(LogicVec::from_u64(12, 8))),
        };
        assert!(eval(&d, &mut s, &e).expect("eval").has_unknown());
    }

    #[test]
    fn eval_part_select() {
        let (d, mut s) = setup();
        let e = EExpr::PartSelect {
            base: SelectBase::Signal(SignalId(0)),
            msb: 7,
            lsb: 4,
        };
        assert_eq!(eval(&d, &mut s, &e).expect("eval").to_u64(), Some(0xA));
    }

    #[test]
    fn eval_indexed_select() {
        let (d, mut s) = setup();
        let e = EExpr::IndexedSelect {
            base: SelectBase::Signal(SignalId(0)),
            start: Box::new(EExpr::Const(LogicVec::from_u64(4, 4))),
            width: 4,
            ascending: true,
        };
        assert_eq!(eval(&d, &mut s, &e).expect("eval").to_u64(), Some(0xA));
        let e = EExpr::IndexedSelect {
            base: SelectBase::Signal(SignalId(0)),
            start: Box::new(EExpr::Const(LogicVec::from_u64(3, 4))),
            width: 4,
            ascending: false,
        };
        assert_eq!(eval(&d, &mut s, &e).expect("eval").to_u64(), Some(0x5));
    }

    #[test]
    fn eval_memory_word() {
        let (d, mut s) = setup();
        s.memories[0][5] = LogicVec::from_u64(0x42, 8);
        let e = EExpr::Read(SelectBase::MemWord {
            mem: MemoryId(0),
            index: Box::new(EExpr::Const(LogicVec::from_u64(5, 6))),
        });
        assert_eq!(eval(&d, &mut s, &e).expect("eval").to_u64(), Some(0x42));
        // Out-of-range word reads x.
        let e = EExpr::Read(SelectBase::MemWord {
            mem: MemoryId(0),
            index: Box::new(EExpr::Const(LogicVec::from_u64(99, 8))),
        });
        assert!(eval(&d, &mut s, &e).expect("eval").has_unknown());
    }

    #[test]
    fn ternary_x_merges() {
        let (d, mut s) = setup();
        let e = EExpr::Ternary {
            cond: Box::new(EExpr::Const(LogicVec::unknown(1))),
            then: Box::new(EExpr::Const(LogicVec::from_u64(0b1100, 4))),
            els: Box::new(EExpr::Const(LogicVec::from_u64(0b1010, 4))),
        };
        let v = eval(&d, &mut s, &e).expect("eval");
        assert_eq!(v.bit(3), Logic::One);
        assert_eq!(v.bit(2), Logic::X);
        assert_eq!(v.bit(1), Logic::X);
        assert_eq!(v.bit(0), Logic::Zero);
    }

    #[test]
    fn sys_time_and_random() {
        let (d, mut s) = setup();
        s.time = 77;
        let t = eval(
            &d,
            &mut s,
            &EExpr::SysCall {
                name: "time".into(),
                args: vec![],
            },
        )
        .expect("eval");
        assert_eq!(t.to_u64(), Some(77));
        let r1 = eval(
            &d,
            &mut s,
            &EExpr::SysCall {
                name: "random".into(),
                args: vec![],
            },
        )
        .expect("eval");
        let r2 = eval(
            &d,
            &mut s,
            &EExpr::SysCall {
                name: "random".into(),
                args: vec![],
            },
        )
        .expect("eval");
        assert_ne!(r1, r2);
    }

    #[test]
    fn unknown_sysfunc_errors() {
        let (d, mut s) = setup();
        assert!(eval(
            &d,
            &mut s,
            &EExpr::SysCall {
                name: "bogus".into(),
                args: vec![],
            }
        )
        .is_err());
    }

    #[test]
    fn write_whole_signal_resizes() {
        let (d, mut s) = setup();
        let mut ch = Changes::default();
        apply_write(
            &d,
            &mut s,
            &ResolvedLValue::Signal(SignalId(1)),
            &LogicVec::from_u64(0xFF, 8),
            &mut ch,
        );
        assert_eq!(s.signal(SignalId(1)).to_u64(), Some(0xF));
        assert_eq!(ch.signals.len(), 1);
    }

    #[test]
    fn write_same_value_reports_no_change() {
        let (d, mut s) = setup();
        let mut ch = Changes::default();
        apply_write(
            &d,
            &mut s,
            &ResolvedLValue::Signal(SignalId(0)),
            &LogicVec::from_u64(0xA5, 8),
            &mut ch,
        );
        assert!(ch.is_empty());
    }

    #[test]
    fn write_bit_range() {
        let (d, mut s) = setup();
        let mut ch = Changes::default();
        apply_write(
            &d,
            &mut s,
            &ResolvedLValue::Bits {
                sig: SignalId(0),
                hi: 7,
                lo: 4,
            },
            &LogicVec::from_u64(0xF, 4),
            &mut ch,
        );
        assert_eq!(s.signal(SignalId(0)).to_u64(), Some(0xF5));
    }

    #[test]
    fn write_memory_word() {
        let (d, mut s) = setup();
        let mut ch = Changes::default();
        apply_write(
            &d,
            &mut s,
            &ResolvedLValue::MemWord {
                mem: MemoryId(0),
                offset: 3,
            },
            &LogicVec::from_u64(0x7E, 8),
            &mut ch,
        );
        assert_eq!(s.mem_word(MemoryId(0), 3).to_u64(), Some(0x7E));
        assert_eq!(ch.mems, vec![MemoryId(0)]);
    }

    #[test]
    fn write_concat_splits_msb_first() {
        let (d, mut s) = setup();
        let mut ch = Changes::default();
        // {b, a} = 12'hBCD → b = 0xB, a = 0xCD.
        apply_write(
            &d,
            &mut s,
            &ResolvedLValue::Concat(vec![
                ResolvedLValue::Signal(SignalId(1)),
                ResolvedLValue::Signal(SignalId(0)),
            ]),
            &LogicVec::from_u64(0xBCD, 12),
            &mut ch,
        );
        assert_eq!(s.signal(SignalId(1)).to_u64(), Some(0xB));
        assert_eq!(s.signal(SignalId(0)).to_u64(), Some(0xCD));
    }

    #[test]
    fn resolve_unknown_index_is_noop() {
        let (d, mut s) = setup();
        let lv = LValue::BitSelect {
            sig: SignalId(0),
            index: EExpr::Const(LogicVec::unknown(4)),
        };
        let r = resolve_lvalue(&d, &mut s, &lv).expect("resolve");
        assert_eq!(r, ResolvedLValue::NoOp { width: 1 });
        let mut ch = Changes::default();
        apply_write(&d, &mut s, &r, &LogicVec::from_bool(true), &mut ch);
        assert!(ch.is_empty());
    }

    #[test]
    fn edge_tables() {
        use Logic::*;
        assert!(is_edge(Zero, One, Edge::Pos));
        assert!(is_edge(Zero, X, Edge::Pos));
        assert!(is_edge(X, One, Edge::Pos));
        assert!(!is_edge(One, Zero, Edge::Pos));
        assert!(!is_edge(X, Z, Edge::Pos));
        assert!(is_edge(One, Zero, Edge::Neg));
        assert!(is_edge(One, Z, Edge::Neg));
        assert!(is_edge(Z, Zero, Edge::Neg));
        assert!(!is_edge(Zero, One, Edge::Neg));
        assert!(!is_edge(One, One, Edge::Neg));
    }

    #[test]
    fn lcg_is_deterministic() {
        let mut a = Lcg::new(1);
        let mut b = Lcg::new(1);
        for _ in 0..10 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }
}
