//! RTL synthesis: AST module → word-level [`Netlist`].
//!
//! The classic recipe: collect drivers, then symbolically execute each
//! process. Combinational `always` blocks become mux trees (with latch
//! detection at unassigned merge paths); single-clock `always @(posedge
//! clk [or posedge rst])` blocks become D flip-flops with optional
//! asynchronous reset; constant-bound `for` loops unroll; user functions
//! inline. Anything outside the synthesizable subset produces an error
//! diagnostic.

use std::collections::{HashMap, HashSet};

use vgen_verilog::ast::*;
use vgen_verilog::parser::MAX_CALL_HEIGHT;
use vgen_verilog::span::Span;
use vgen_verilog::value::{LogicVec, MAX_SIGNAL_BITS};

use crate::netlist::{AsyncReset, Cell, NetId, Netlist};

/// Severity of a synthesis diagnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// The construct cannot be synthesized; the run fails.
    Error,
    /// Suspicious but tolerated (ignored initial block, `$display`, ...).
    Warning,
}

/// One synthesis diagnostic.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// Human-readable message.
    pub message: String,
    /// Source location.
    pub span: Span,
}

/// A fatal synthesis failure (the first error diagnostic).
#[derive(Debug, Clone, PartialEq)]
pub struct SynthError {
    /// Description of the problem.
    pub message: String,
    /// Source location.
    pub span: Span,
}

impl std::fmt::Display for SynthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "synthesis error: {}", self.message)
    }
}

impl std::error::Error for SynthError {}

/// A successful synthesis run: the netlist plus any warnings.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthResult {
    /// The synthesized netlist.
    pub netlist: Netlist,
    /// Non-fatal diagnostics.
    pub warnings: Vec<Diagnostic>,
}

/// Synthesizes one module (no hierarchy) into a word-level netlist.
///
/// # Errors
///
/// Returns [`SynthError`] for non-synthesizable constructs: delays and
/// event controls inside bodies, `while`/`forever`/non-constant loops,
/// memories, instances, latch inference, multiple drivers, mixed
/// edge/level sensitivity, combinational loops, unknown identifiers,
/// user-function calls nested past [`MAX_CALL_HEIGHT`], and nets or ports
/// declared wider than [`MAX_SIGNAL_BITS`].
///
/// ```
/// use vgen_synth::synthesize;
/// let file = vgen_verilog::parse(
///     "module m(input a, b, output y); assign y = a & b; endmodule",
/// )?;
/// let result = synthesize(&file.modules[0])?;
/// assert_eq!(result.netlist.register_count(), 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn synthesize(module: &Module) -> Result<SynthResult, SynthError> {
    let mut lw = Lowerer::new(module)?;
    lw.collect_drivers()?;
    lw.resolve_all()?;
    lw.finish()
}

fn err(message: impl Into<String>, span: Span) -> SynthError {
    SynthError {
        message: message.into(),
        span,
    }
}

#[derive(Debug, Clone)]
struct SigInfo {
    width: usize,
    signed: bool,
    msb: i64,
    lsb: i64,
    dir: Option<PortDir>,
}

impl SigInfo {
    fn bit_position(&self, index: i64) -> Option<usize> {
        let (hi, lo) = if self.msb >= self.lsb {
            (self.msb, self.lsb)
        } else {
            (self.lsb, self.msb)
        };
        if index < lo || index > hi {
            return None;
        }
        Some(if self.msb >= self.lsb {
            (index - self.lsb) as usize
        } else {
            (self.lsb - index) as usize
        })
    }
}

/// A partial continuous driver: bit positions `[hi:lo]` of the target.
#[derive(Debug, Clone)]
struct PartialAssign<'a> {
    hi: usize,
    lo: usize,
    rhs: &'a Expr,
    /// For concat targets: which bits of the lowered RHS this member takes
    /// (`(hi, lo)` in RHS bit positions); `None` takes the whole RHS.
    take: Option<(usize, usize)>,
    span: Span,
}

#[derive(Debug, Clone)]
enum Driver<'a> {
    /// Input port.
    Input,
    /// One or more continuous assignments covering bit ranges.
    Assign(Vec<PartialAssign<'a>>),
    /// Combinational always block (index into `comb_blocks`).
    Comb(usize),
    /// Sequential always block (index into `seq_blocks`).
    Seq(usize),
}

#[derive(Debug)]
struct CombBlock<'a> {
    body: &'a Stmt,
    targets: Vec<String>,
    span: Span,
}

#[derive(Debug)]
struct SeqBlock<'a> {
    body: &'a Stmt,
    terms: Vec<&'a EventExpr>,
    targets: Vec<String>,
    span: Span,
}

struct Lowerer<'a> {
    module: &'a Module,
    netlist: Netlist,
    params: HashMap<String, LogicVec>,
    sigs: HashMap<String, SigInfo>,
    funcs: HashMap<String, &'a FunctionDecl>,
    drivers: HashMap<String, Driver<'a>>,
    comb_blocks: Vec<CombBlock<'a>>,
    seq_blocks: Vec<SeqBlock<'a>>,
    seq_qs: Vec<Option<HashMap<String, NetId>>>,
    seq_lowered: Vec<bool>,
    resolved: HashMap<String, NetId>,
    /// Unresolved nets the current lowering read, with the span of each
    /// read (see [`Lowerer::resolve_all`]).
    missing: Vec<(String, Span)>,
    warnings: Vec<Diagnostic>,
    tmp: u32,
}

impl<'a> Lowerer<'a> {
    fn new(module: &'a Module) -> Result<Self, SynthError> {
        let mut lw = Lowerer {
            module,
            netlist: Netlist {
                name: module.name.clone(),
                ..Default::default()
            },
            params: HashMap::new(),
            sigs: HashMap::new(),
            funcs: HashMap::new(),
            drivers: HashMap::new(),
            comb_blocks: Vec::new(),
            seq_blocks: Vec::new(),
            seq_qs: Vec::new(),
            seq_lowered: Vec::new(),
            resolved: HashMap::new(),
            missing: Vec::new(),
            warnings: Vec::new(),
            tmp: 0,
        };
        lw.collect_decls()?;
        Ok(lw)
    }

    fn warn(&mut self, message: impl Into<String>, span: Span) {
        self.warnings.push(Diagnostic {
            severity: Severity::Warning,
            message: message.into(),
            span,
        });
    }

    fn fresh(&mut self, hint: &str, width: usize, signed: bool) -> NetId {
        self.tmp += 1;
        let name = format!("${hint}{}", self.tmp);
        self.netlist.add_net(name, width.max(1), signed)
    }

    // --------------------------------------------------------- declarations

    fn const_eval(&self, e: &Expr) -> Result<LogicVec, SynthError> {
        match &e.kind {
            ExprKind::Number(v) => Ok(v.clone()),
            ExprKind::Ident(n) => self
                .params
                .get(n)
                .cloned()
                .ok_or_else(|| err(format!("`{n}` is not a constant"), e.span)),
            ExprKind::Unary { op, arg } => Ok(op.apply(&self.const_eval(arg)?)),
            ExprKind::Binary { op, lhs, rhs } => {
                Ok(op.apply(&self.const_eval(lhs)?, &self.const_eval(rhs)?))
            }
            ExprKind::Ternary { cond, then, els } => match self.const_eval(cond)?.truthiness() {
                Some(true) => self.const_eval(then),
                Some(false) => self.const_eval(els),
                None => Err(err("unknown constant condition", e.span)),
            },
            _ => Err(err("expression must be constant here", e.span)),
        }
    }

    fn const_i64(&self, e: &Expr) -> Result<i64, SynthError> {
        self.const_eval(e)?
            .to_i64()
            .ok_or_else(|| err("constant contains x/z", e.span))
    }

    fn collect_decls(&mut self) -> Result<(), SynthError> {
        // Parameters first.
        for item in &self.module.items {
            if let Item::Param(p) = item {
                for (name, value) in &p.assigns {
                    let v = self.const_eval(value)?;
                    self.params.insert(name.clone(), v);
                }
            }
        }
        for item in &self.module.items {
            match item {
                Item::Decl(d) => {
                    let (msb, lsb) = match &d.range {
                        Some(r) => {
                            let (msb, lsb) = (self.const_i64(&r.msb)?, self.const_i64(&r.lsb)?);
                            // In i128: `msb - lsb` on hostile i64s can overflow.
                            let bits = (i128::from(msb) - i128::from(lsb)).unsigned_abs() + 1;
                            if bits > MAX_SIGNAL_BITS as u128 {
                                return Err(err(
                                    format!(
                                        "range [{msb}:{lsb}] exceeds the {MAX_SIGNAL_BITS}-bit limit"
                                    ),
                                    r.msb.span,
                                ));
                            }
                            (msb, lsb)
                        }
                        None => (0, 0),
                    };
                    for n in &d.names {
                        if !n.dims.is_empty() {
                            return Err(err(
                                format!(
                                    "memory `{}` is not supported by the netlist backend",
                                    n.name
                                ),
                                n.span,
                            ));
                        }
                        let (width, signed, msb, lsb) = match d.kind {
                            Some(NetKind::Integer) => (32usize, true, 31i64, 0i64),
                            Some(NetKind::Time) => (64, false, 63, 0),
                            _ => ((msb - lsb).unsigned_abs() as usize + 1, d.signed, msb, lsb),
                        };
                        let entry = self.sigs.entry(n.name.clone()).or_insert(SigInfo {
                            width,
                            signed,
                            msb,
                            lsb,
                            dir: None,
                        });
                        entry.width = entry.width.max(width);
                        entry.signed |= signed;
                        if let Some(dir) = d.dir {
                            entry.dir = Some(dir);
                        }
                        if let Some(init) = &n.init {
                            // `wire x = e;` is a continuous assignment.
                            let w = entry.width;
                            let all = PartialAssign {
                                hi: w - 1,
                                lo: 0,
                                rhs: init,
                                take: None,
                                span: n.span,
                            };
                            self.add_assign_driver(&n.name, all)?;
                        }
                    }
                }
                Item::Function(f) => {
                    self.funcs.insert(f.name.clone(), f);
                }
                _ => {}
            }
        }
        Ok(())
    }

    fn sig(&self, name: &str, span: Span) -> Result<SigInfo, SynthError> {
        if let Some(s) = self.sigs.get(name) {
            return Ok(s.clone());
        }
        Err(err(format!("unknown identifier `{name}`"), span))
    }

    // -------------------------------------------------------------- drivers

    fn add_assign_driver(&mut self, name: &str, part: PartialAssign<'a>) -> Result<(), SynthError> {
        match self.drivers.get_mut(name) {
            None => {
                self.drivers
                    .insert(name.to_string(), Driver::Assign(vec![part]));
                Ok(())
            }
            Some(Driver::Assign(parts)) => {
                for p in parts.iter() {
                    if part.lo <= p.hi && p.lo <= part.hi {
                        return Err(err(
                            format!("multiple drivers for bits of `{name}`"),
                            part.span,
                        ));
                    }
                }
                parts.push(part);
                Ok(())
            }
            Some(_) => Err(err(
                format!("`{name}` is driven by both an assign and an always block"),
                part.span,
            )),
        }
    }

    fn add_block_driver(
        &mut self,
        name: &str,
        driver: Driver<'a>,
        span: Span,
    ) -> Result<(), SynthError> {
        if self.drivers.contains_key(name) {
            return Err(err(format!("multiple drivers for `{name}`"), span));
        }
        self.drivers.insert(name.to_string(), driver);
        Ok(())
    }

    fn collect_drivers(&mut self) -> Result<(), SynthError> {
        // Input ports drive themselves.
        let inputs: Vec<String> = self
            .sigs
            .iter()
            .filter(|(_, i)| i.dir == Some(PortDir::Input))
            .map(|(n, _)| n.clone())
            .collect();
        for name in inputs {
            self.drivers.insert(name, Driver::Input);
        }
        for item in &self.module.items {
            match item {
                Item::Decl(_) | Item::Param(_) | Item::Function(_) | Item::Defparam { .. } => {}
                Item::Assign(a) => {
                    for (lhs, rhs) in &a.assigns {
                        if a.delay.is_some() {
                            self.warn("assign delay ignored in synthesis", a.span);
                        }
                        self.collect_assign_target(lhs, rhs)?;
                    }
                }
                Item::Gate(g) => {
                    // Gates were validated by the parser: conns[0] is output.
                    // Re-express as an assign on a synthetic expression is
                    // complicated without owning an Expr; reject rarely-used
                    // gate primitives politely.
                    return Err(err(
                        "gate primitives are not supported by the netlist backend",
                        g.span,
                    ));
                }
                Item::Initial(i) => {
                    self.warn("initial block ignored in synthesis", i.span);
                }
                Item::Instance(inst) => {
                    return Err(err(
                        format!(
                            "hierarchical synthesis of instance `{}` is not supported",
                            inst.name
                        ),
                        inst.span,
                    ))
                }
                Item::Always(al) => self.collect_always(al)?,
            }
        }
        Ok(())
    }

    fn collect_assign_target(&mut self, lhs: &'a Expr, rhs: &'a Expr) -> Result<(), SynthError> {
        match &lhs.kind {
            ExprKind::Ident(name) => {
                let info = self.sig(name, lhs.span)?;
                self.add_assign_driver(
                    name,
                    PartialAssign {
                        hi: info.width - 1,
                        lo: 0,
                        rhs,
                        take: None,
                        span: lhs.span,
                    },
                )
            }
            ExprKind::Index { base, index } => {
                let ExprKind::Ident(name) = &base.kind else {
                    return Err(err("unsupported assign target", lhs.span));
                };
                let info = self.sig(name, lhs.span)?;
                let i = self.const_i64(index)?;
                let pos = info
                    .bit_position(i)
                    .ok_or_else(|| err(format!("bit {i} out of range for `{name}`"), lhs.span))?;
                self.add_assign_driver(
                    name,
                    PartialAssign {
                        hi: pos,
                        lo: pos,
                        rhs,
                        take: None,
                        span: lhs.span,
                    },
                )
            }
            ExprKind::PartSelect { base, msb, lsb } => {
                let ExprKind::Ident(name) = &base.kind else {
                    return Err(err("unsupported assign target", lhs.span));
                };
                let info = self.sig(name, lhs.span)?;
                let hi_i = self.const_i64(msb)?;
                let lo_i = self.const_i64(lsb)?;
                let hi = info.bit_position(hi_i).ok_or_else(|| {
                    err(format!("bit {hi_i} out of range for `{name}`"), lhs.span)
                })?;
                let lo = info.bit_position(lo_i).ok_or_else(|| {
                    err(format!("bit {lo_i} out of range for `{name}`"), lhs.span)
                })?;
                self.add_assign_driver(
                    name,
                    PartialAssign {
                        hi: hi.max(lo),
                        lo: hi.min(lo),
                        rhs,
                        take: None,
                        span: lhs.span,
                    },
                )
            }
            ExprKind::Concat(items) => {
                // `assign {cout, s} = rhs;` — members (whole signals only)
                // take slices of the RHS, MSB-first.
                let mut widths = Vec::new();
                for item in items {
                    let ExprKind::Ident(name) = &item.kind else {
                        return Err(err(
                            "concat assign targets must be simple signals",
                            item.span,
                        ));
                    };
                    widths.push(self.sig(name, item.span)?.width);
                }
                let total: usize = widths.iter().sum();
                let mut hi = total;
                for (item, w) in items.iter().zip(widths) {
                    let ExprKind::Ident(name) = &item.kind else {
                        unreachable!("validated above");
                    };
                    let name = name.clone();
                    self.add_assign_driver(
                        &name,
                        PartialAssign {
                            hi: w - 1,
                            lo: 0,
                            rhs,
                            take: Some((hi - 1, hi - w)),
                            span: item.span,
                        },
                    )?;
                    hi -= w;
                }
                Ok(())
            }
            _ => Err(err(
                "only whole signals and constant selects can be assign targets",
                lhs.span,
            )),
        }
    }

    fn collect_always(&mut self, al: &'a AlwaysItem) -> Result<(), SynthError> {
        let StmtKind::Event { control, stmt } = &al.body.kind else {
            return Err(err(
                "always block without an event control is not synthesizable",
                al.span,
            ));
        };
        let Some(body) = stmt else {
            return Err(err("empty always block", al.span));
        };
        let mut targets = Vec::new();
        collect_targets(body, &mut targets);
        targets.sort();
        targets.dedup();
        if targets.is_empty() {
            self.warn("always block assigns nothing", al.span);
            return Ok(());
        }
        match control {
            EventControl::Star => {
                let idx = self.comb_blocks.len();
                self.comb_blocks.push(CombBlock {
                    body,
                    targets: targets.clone(),
                    span: al.span,
                });
                for t in &targets {
                    self.add_block_driver(t, Driver::Comb(idx), al.span)?;
                }
                Ok(())
            }
            EventControl::List(terms) => {
                let edges = terms.iter().filter(|t| t.edge.is_some()).count();
                if edges == 0 {
                    // Level-sensitive list: treated as combinational; warn
                    // if the list misses a read signal (sim/synth mismatch).
                    let idx = self.comb_blocks.len();
                    self.comb_blocks.push(CombBlock {
                        body,
                        targets: targets.clone(),
                        span: al.span,
                    });
                    for t in &targets {
                        self.add_block_driver(t, Driver::Comb(idx), al.span)?;
                    }
                    Ok(())
                } else if edges == terms.len() {
                    let idx = self.seq_blocks.len();
                    self.seq_qs.push(None);
                    self.seq_lowered.push(false);
                    self.seq_blocks.push(SeqBlock {
                        body,
                        terms: terms.iter().collect(),
                        targets: targets.clone(),
                        span: al.span,
                    });
                    for t in &targets {
                        self.add_block_driver(t, Driver::Seq(idx), al.span)?;
                    }
                    Ok(())
                } else {
                    Err(err(
                        "mixed edge and level sensitivity is not synthesizable",
                        al.span,
                    ))
                }
            }
        }
    }

    // ------------------------------------------------------------ resolution

    fn resolve_all(&mut self) -> Result<(), SynthError> {
        // Name order, so that which of several errors is reported does
        // not vary from run to run. A work list instead of recursion: a net
        // whose lowering read unresolved nets is rolled back and retried
        // after them, so chains of any length resolve on a flat stack. The
        // flag marks a retry; reading a net that waits for one is a loop.
        let mut names: Vec<String> = self.sigs.keys().cloned().collect();
        names.sort_unstable();
        let mut todo: Vec<(String, Span, bool)> = names
            .into_iter()
            .rev()
            .map(|n| (n, Span::default(), false))
            .collect();
        let mut waiting: HashSet<String> = HashSet::new();
        while let Some((name, span, retry)) = todo.pop() {
            if self.resolved.contains_key(&name) {
                continue;
            }
            if !retry && waiting.contains(&name) {
                return Err(err(format!("combinational loop through `{name}`"), span));
            }
            let mark = (
                self.netlist.nets.len(),
                self.netlist.cells.len(),
                self.warnings.len(),
                self.tmp,
            );
            let lowered = self.lower_net(&name, span);
            if self.missing.is_empty() {
                self.resolved.extend(lowered?);
                continue;
            }
            self.netlist.nets.truncate(mark.0);
            self.netlist.cells.truncate(mark.1);
            self.warnings.truncate(mark.2);
            self.tmp = mark.3;
            waiting.insert(name.clone());
            todo.push((name, span, true));
            todo.extend(self.missing.drain(..).rev().map(|(n, s)| (n, s, false)));
        }
        // Second phase: sequential d-side logic (registers already resolve
        // to their q nets, so every read finds a resolved net).
        for idx in 0..self.seq_blocks.len() {
            self.alloc_seq_block(idx)?;
            self.lower_seq_body(idx)?;
        }
        Ok(())
    }

    /// The net carrying the final value of `name`. An unresolved net is
    /// recorded as missing and read as a placeholder of its width, for
    /// [`Lowerer::resolve_all`] to roll back.
    fn net_of(&mut self, name: &str, span: Span) -> Result<NetId, SynthError> {
        if let Some(&n) = self.resolved.get(name) {
            return Ok(n);
        }
        let info = self.sig(name, span)?;
        self.missing.push((name.to_string(), span));
        Ok(self.fresh("missing", info.width, info.signed))
    }

    /// Lowers the driver of `name` and returns the nets it resolves: its
    /// own, or every target of its combinational block. Inputs, undriven
    /// nets and registers read nothing, so they never roll back.
    fn lower_net(&mut self, name: &str, span: Span) -> Result<Vec<(String, NetId)>, SynthError> {
        let info = self.sig(name, span)?;
        let n = match self.drivers.get(name) {
            Some(Driver::Input) => {
                let n = self
                    .netlist
                    .add_net(name.to_string(), info.width, info.signed);
                self.netlist.inputs.push((name.to_string(), n));
                n
            }
            None => {
                self.warn(format!("`{name}` is never driven"), span);
                let y = self.fresh("undriven", info.width, info.signed);
                self.netlist.cells.push(Cell::Const {
                    value: LogicVec::unknown(info.width),
                    y,
                });
                y
            }
            Some(Driver::Assign(parts)) => {
                let parts: Vec<PartialAssign<'a>> = parts.clone();
                self.lower_assign_parts(name, &info, &parts)?
            }
            Some(&Driver::Comb(idx)) => return self.lower_comb_block(idx),
            Some(&Driver::Seq(idx)) => {
                // Registers break combinational cycles: allocate the q
                // nets now; the d-side logic is lowered in a later phase.
                self.alloc_seq_block(idx)?;
                return Ok(Vec::new());
            }
        };
        Ok(vec![(name.to_string(), n)])
    }

    fn lower_assign_parts(
        &mut self,
        name: &str,
        info: &SigInfo,
        parts: &[PartialAssign<'a>],
    ) -> Result<NetId, SynthError> {
        if parts.len() == 1 && parts[0].lo == 0 && parts[0].hi == info.width - 1 {
            let n = self.lower_part_rhs(&parts[0], info.width, name)?;
            return Ok(self.resize_to(n, info.width, info.signed, name));
        }
        // Partial drivers: build MSB-first concat; gaps read x.
        let mut sorted: Vec<&PartialAssign<'a>> = parts.iter().collect();
        sorted.sort_by_key(|p| std::cmp::Reverse(p.hi));
        let mut pieces = Vec::new();
        let mut next = info.width as i64 - 1;
        for p in sorted {
            if (p.hi as i64) < next {
                let gap_w = (next - p.hi as i64) as usize;
                let y = self.fresh("gap", gap_w, false);
                self.netlist.cells.push(Cell::Const {
                    value: LogicVec::unknown(gap_w),
                    y,
                });
                pieces.push(y);
            }
            let w = p.hi - p.lo + 1;
            let n = self.lower_part_rhs(p, w, name)?;
            pieces.push(self.resize_to(n, w, false, name));
            next = p.lo as i64 - 1;
        }
        if next >= 0 {
            let gap_w = (next + 1) as usize;
            let y = self.fresh("gap", gap_w, false);
            self.netlist.cells.push(Cell::Const {
                value: LogicVec::unknown(gap_w),
                y,
            });
            pieces.push(y);
        }
        let y = self.fresh(name, info.width, info.signed);
        self.netlist.cells.push(Cell::Concat { parts: pieces, y });
        Ok(y)
    }

    /// Lowers one partial driver's RHS, honouring a concat-member `take`
    /// slice: the RHS is computed at the concat's full width and the
    /// member's bit range extracted.
    fn lower_part_rhs(
        &mut self,
        p: &PartialAssign<'a>,
        member_width: usize,
        name: &str,
    ) -> Result<NetId, SynthError> {
        match p.take {
            None => self.lower_expr(p.rhs, &mut Ctx::default(), Some(member_width)),
            Some((hi, lo)) => {
                let n = self.lower_expr(p.rhs, &mut Ctx::default(), Some(hi + 1))?;
                let n = self.resize_to(n, hi + 1, false, name);
                let y = self.fresh("take", hi - lo + 1, false);
                self.netlist.cells.push(Cell::Slice { a: n, hi, lo, y });
                Ok(y)
            }
        }
    }

    fn resize_to(&mut self, n: NetId, width: usize, signed: bool, hint: &str) -> NetId {
        if self.netlist.net(n).width == width {
            return n;
        }
        let y = self.fresh(hint, width, signed);
        self.netlist.cells.push(Cell::Resize { a: n, y });
        y
    }

    // ------------------------------------------------- combinational blocks

    fn lower_comb_block(&mut self, idx: usize) -> Result<Vec<(String, NetId)>, SynthError> {
        let (body, targets, span) = {
            let b = &self.comb_blocks[idx];
            (b.body, b.targets.clone(), b.span)
        };
        let mut ctx = Ctx::default();
        for t in &targets {
            ctx.env.insert(t.clone(), None);
        }
        self.exec_stmt(body, &mut ctx)?;
        let mut nets = Vec::new();
        for t in targets {
            let info = self.sig(&t, span)?;
            match ctx.env.get(&t).cloned().flatten() {
                Some(n) => {
                    let n = self.resize_to(n, info.width, info.signed, &t);
                    nets.push((t, n));
                }
                None => {
                    return Err(err(
                        format!("latch inferred for `{t}`: not assigned on all paths"),
                        span,
                    ))
                }
            }
        }
        Ok(nets)
    }

    // ----------------------------------------------------- sequential blocks

    /// Allocates the register q nets of a sequential block (idempotent) so
    /// its targets resolve without lowering the d-side logic.
    fn alloc_seq_block(&mut self, idx: usize) -> Result<(), SynthError> {
        if self.seq_qs[idx].is_some() {
            return Ok(());
        }
        let (targets, span) = {
            let b = &self.seq_blocks[idx];
            (b.targets.clone(), b.span)
        };
        let mut qs: HashMap<String, NetId> = HashMap::new();
        for t in &targets {
            let info = self.sig(t, span)?;
            let q = self
                .netlist
                .add_net(format!("{t}$q"), info.width, info.signed);
            qs.insert(t.clone(), q);
            self.resolved.insert(t.clone(), q);
        }
        self.seq_qs[idx] = Some(qs);
        Ok(())
    }

    fn lower_seq_body(&mut self, idx: usize) -> Result<(), SynthError> {
        if self.seq_lowered[idx] {
            return Ok(());
        }
        self.seq_lowered[idx] = true;
        let (body, terms, targets, span): (&Stmt, Vec<EventExpr>, Vec<String>, Span) = {
            let b = &self.seq_blocks[idx];
            (
                b.body,
                b.terms.iter().map(|t| (*t).clone()).collect(),
                b.targets.clone(),
                b.span,
            )
        };
        let qs: HashMap<String, NetId> =
            self.seq_qs[idx].clone().expect("alloc_seq_block ran first");

        // Identify clock vs async resets: peel `if (rst) <consts> else ...`,
        // looking through single-statement begin/end wrappers.
        fn unwrap_block(mut s: &Stmt) -> &Stmt {
            while let StmtKind::Block { decls, stmts, .. } = &s.kind {
                if decls.is_empty() && stmts.len() == 1 {
                    s = &stmts[0];
                } else {
                    break;
                }
            }
            s
        }
        let mut body = unwrap_block(body);
        let mut resets: Vec<(String, Edge, &Stmt)> = Vec::new();
        let mut remaining: Vec<EventExpr> = terms.clone();
        while remaining.len() > 1 {
            let StmtKind::If { cond, then, els } = &body.kind else {
                return Err(err(
                    "multi-edge always must follow the `if (reset) ... else ...` pattern",
                    span,
                ));
            };
            let (rname, active_edge) = match &cond.kind {
                ExprKind::Ident(n) => (n.clone(), Edge::Pos),
                ExprKind::Unary {
                    op: UnaryOp::LogicNot | UnaryOp::BitNot,
                    arg,
                } => match &arg.kind {
                    ExprKind::Ident(n) => (n.clone(), Edge::Neg),
                    _ => return Err(err("unsupported async reset condition", cond.span)),
                },
                _ => return Err(err("unsupported async reset condition", cond.span)),
            };
            let pos = remaining
                .iter()
                .position(|t| matches!(&t.expr.kind, ExprKind::Ident(n) if *n == rname))
                .ok_or_else(|| {
                    err(
                        format!("reset `{rname}` not in the sensitivity list"),
                        cond.span,
                    )
                })?;
            let term = remaining.remove(pos);
            let edge = term.edge.expect("seq terms all have edges");
            if (edge == Edge::Pos) != (active_edge == Edge::Pos) {
                self.warn(
                    format!("reset `{rname}` edge does not match its active level"),
                    cond.span,
                );
            }
            resets.push((rname, edge, then));
            body = unwrap_block(
                els.as_deref()
                    .ok_or_else(|| err("async reset if must have an else branch", span))?,
            );
        }
        let clk_term = remaining
            .first()
            .ok_or_else(|| err("no clock in sensitivity list", span))?;
        let ExprKind::Ident(clk_name) = &clk_term.expr.kind else {
            return Err(err("clock must be a simple signal", span));
        };
        let clk_edge = clk_term.edge.expect("seq terms all have edges");
        let clk = self.net_of(&clk_name.clone(), span)?;

        // Synchronous logic: unassigned targets hold their value.
        let mut ctx = Ctx {
            seq_regs: qs.clone(),
            ..Ctx::default()
        };
        for t in &targets {
            ctx.env.insert(t.clone(), None);
        }
        self.exec_stmt(body, &mut ctx)?;

        // Evaluate reset values per target (innermost reset wins last).
        let mut reset_specs: Vec<(NetId, Edge, HashMap<String, NetId>)> = Vec::new();
        for (rname, redge, rbody) in &resets {
            let rnet = self.net_of(rname, span)?;
            let mut rctx = Ctx {
                seq_regs: qs.clone(),
                ..Ctx::default()
            };
            for t in &targets {
                rctx.env.insert(t.clone(), None);
            }
            self.exec_stmt(rbody, &mut rctx)?;
            let mut values = HashMap::new();
            for t in &targets {
                if let Some(Some(v)) = rctx.env.get(t) {
                    values.insert(t.clone(), *v);
                }
            }
            reset_specs.push((rnet, *redge, values));
        }

        for t in &targets {
            let q = qs[t];
            let d = match ctx.env.get(t).cloned().flatten() {
                Some(n) => {
                    let info = self.sig(t, span)?;
                    self.resize_to(n, info.width, info.signed, t)
                }
                None => q, // hold
            };
            let reset = reset_specs.iter().find_map(|(rnet, redge, values)| {
                values.get(t).map(|v| AsyncReset {
                    signal: *rnet,
                    edge: *redge,
                    value: *v,
                })
            });
            self.netlist.cells.push(Cell::Dff {
                clk,
                edge: clk_edge,
                d,
                q,
                reset,
            });
        }
        Ok(())
    }

    // ---------------------------------------------------- statement execution

    fn exec_stmt(&mut self, stmt: &Stmt, ctx: &mut Ctx) -> Result<(), SynthError> {
        match &stmt.kind {
            StmtKind::Block { decls, stmts, .. } => {
                for d in decls {
                    let (msb, lsb) = match &d.range {
                        Some(r) => (self.const_i64(&r.msb)?, self.const_i64(&r.lsb)?),
                        None => match d.kind {
                            Some(NetKind::Integer) => (31, 0),
                            _ => (0, 0),
                        },
                    };
                    for n in &d.names {
                        ctx.local_widths
                            .insert(n.name.clone(), (msb - lsb).unsigned_abs() as usize + 1);
                        ctx.env.insert(n.name.clone(), None);
                    }
                }
                for s in stmts {
                    self.exec_stmt(s, ctx)?;
                }
                Ok(())
            }
            StmtKind::Assign {
                lhs, rhs, delay, ..
            } => {
                if delay.is_some() {
                    self.warn("intra-assignment delay ignored in synthesis", stmt.span);
                }
                self.exec_assign(lhs, rhs, ctx, stmt.span)
            }
            StmtKind::If { cond, then, els } => {
                // Constant conditions fold (loop bodies rely on this).
                if let Ok(c) = self.const_eval_ctx(cond, ctx) {
                    return match c.truthiness() {
                        Some(true) => self.exec_stmt(then, ctx),
                        Some(false) => match els {
                            Some(e) => self.exec_stmt(e, ctx),
                            None => Ok(()),
                        },
                        None => Err(err("constant condition is x", cond.span)),
                    };
                }
                let c = self.lower_expr(cond, ctx, None)?;
                let c1 = self.to_bool_net(c);
                let saved = ctx.env.clone();
                self.exec_stmt(then, ctx)?;
                let then_env = std::mem::replace(&mut ctx.env, saved.clone());
                if let Some(e) = els {
                    self.exec_stmt(e, ctx)?;
                }
                let else_env = std::mem::replace(&mut ctx.env, saved);
                let seq_regs = ctx.seq_regs.clone();
                ctx.env = self.mux_envs(c1, then_env, else_env, &seq_regs)?;
                Ok(())
            }
            StmtKind::Case { kind, expr, arms } => {
                self.exec_case(*kind, expr, arms, ctx, stmt.span)
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                // Constant unroll.
                let ExprKind::Ident(var) = &init.0.kind else {
                    return Err(err("loop variable must be a simple name", stmt.span));
                };
                let var = var.clone();
                let mut value = self
                    .const_eval_ctx(&init.1, ctx)
                    .map_err(|_| err("loop bounds must be constant for synthesis", stmt.span))?;
                let mut iterations = 0;
                loop {
                    ctx.const_env.insert(var.clone(), value.clone());
                    let c = self.const_eval_ctx(cond, ctx).map_err(|_| {
                        err("loop condition must be constant for synthesis", cond.span)
                    })?;
                    if c.truthiness() != Some(true) {
                        break;
                    }
                    iterations += 1;
                    if iterations > 4096 {
                        return Err(err("loop unrolling exceeded 4096 iterations", stmt.span));
                    }
                    self.exec_stmt(body, ctx)?;
                    value = self
                        .const_eval_ctx(&step.1, ctx)
                        .map_err(|_| err("loop step must be constant for synthesis", stmt.span))?;
                }
                // The loop variable's final value becomes its block value,
                // so it is not misdiagnosed as a latch.
                let final_net = self.const_net(value);
                if ctx.env.contains_key(&var) {
                    ctx.env.insert(var.clone(), Some(final_net));
                }
                ctx.const_env.remove(&var);
                Ok(())
            }
            StmtKind::SysCall { name, .. } => {
                self.warn(format!("`${name}` ignored in synthesis"), stmt.span);
                Ok(())
            }
            StmtKind::Null => Ok(()),
            StmtKind::Delay { .. } | StmtKind::Event { .. } | StmtKind::Wait { .. } => Err(err(
                "timing controls inside always bodies are not synthesizable",
                stmt.span,
            )),
            StmtKind::While { .. } | StmtKind::Repeat { .. } | StmtKind::Forever { .. } => Err(
                err("only constant-bound for loops are synthesizable", stmt.span),
            ),
            StmtKind::TaskCall { .. } | StmtKind::Disable(_) => {
                Err(err("tasks are not synthesizable", stmt.span))
            }
        }
    }

    fn exec_assign(
        &mut self,
        lhs: &Expr,
        rhs: &Expr,
        ctx: &mut Ctx,
        span: Span,
    ) -> Result<(), SynthError> {
        match &lhs.kind {
            ExprKind::Ident(name) => {
                // Loop variables stay constant when possible.
                if ctx.const_env.contains_key(name) {
                    if let Ok(v) = self.const_eval_ctx(rhs, ctx) {
                        ctx.const_env.insert(name.clone(), v);
                        return Ok(());
                    }
                }
                let width = self.target_width(name, ctx, span)?;
                let n = self.lower_expr(rhs, ctx, Some(width))?;
                let n = self.resize_to(n, width, false, name);
                if !ctx.env.contains_key(name) {
                    return Err(err(
                        format!("assignment to `{name}` outside the block's target set"),
                        span,
                    ));
                }
                ctx.env.insert(name.clone(), Some(n));
                Ok(())
            }
            ExprKind::Index { base, index } => {
                let ExprKind::Ident(name) = &base.kind else {
                    return Err(err("unsupported assignment target", span));
                };
                let info = self.sig(name, span)?;
                let i = self
                    .const_eval_ctx(index, ctx)
                    .map_err(|_| err("dynamic bit-select targets are not synthesizable", span))?;
                let i = i
                    .to_i64()
                    .ok_or_else(|| err("x in bit-select index", span))?;
                let pos = info
                    .bit_position(i)
                    .ok_or_else(|| err(format!("bit {i} out of range"), span))?;
                let bit = self.lower_expr(rhs, ctx, Some(1))?;
                let bit = self.resize_to(bit, 1, false, name);
                self.splice_into(name, pos, pos, bit, ctx, span)
            }
            ExprKind::PartSelect { base, msb, lsb } => {
                let ExprKind::Ident(name) = &base.kind else {
                    return Err(err("unsupported assignment target", span));
                };
                let info = self.sig(name, span)?;
                let hi_i = self.const_i64(msb)?;
                let lo_i = self.const_i64(lsb)?;
                let (hi, lo) = match (info.bit_position(hi_i), info.bit_position(lo_i)) {
                    (Some(a), Some(b)) => (a.max(b), a.min(b)),
                    _ => return Err(err("part select out of range", span)),
                };
                let v = self.lower_expr(rhs, ctx, Some(hi - lo + 1))?;
                let v = self.resize_to(v, hi - lo + 1, false, name);
                self.splice_into(name, hi, lo, v, ctx, span)
            }
            ExprKind::Concat(items) => {
                // Evaluate once, then split MSB-first.
                let total: usize = items
                    .iter()
                    .map(|i| self.lvalue_width(i, ctx))
                    .collect::<Result<Vec<usize>, _>>()?
                    .iter()
                    .sum();
                let v = self.lower_expr(rhs, ctx, Some(total))?;
                let v = self.resize_to(v, total, false, "concat");
                let mut hi = total;
                for item in items {
                    let w = self.lvalue_width(item, ctx)?;
                    let y = self.fresh("split", w, false);
                    self.netlist.cells.push(Cell::Slice {
                        a: v,
                        hi: hi - 1,
                        lo: hi - w,
                        y,
                    });
                    hi -= w;
                    // Reuse exec_assign by faking a pre-lowered RHS: assign
                    // directly.
                    self.assign_net_to_lvalue(item, y, ctx)?;
                }
                Ok(())
            }
            _ => Err(err("unsupported assignment target", span)),
        }
    }

    /// Directly assigns an already-lowered net to a simple lvalue.
    fn assign_net_to_lvalue(
        &mut self,
        lhs: &Expr,
        net: NetId,
        ctx: &mut Ctx,
    ) -> Result<(), SynthError> {
        match &lhs.kind {
            ExprKind::Ident(name) => {
                let width = self.target_width(name, ctx, lhs.span)?;
                let n = self.resize_to(net, width, false, name);
                ctx.env.insert(name.clone(), Some(n));
                Ok(())
            }
            _ => Err(err(
                "only simple names are supported inside concat targets",
                lhs.span,
            )),
        }
    }

    fn lvalue_width(&mut self, e: &Expr, ctx: &Ctx) -> Result<usize, SynthError> {
        match &e.kind {
            ExprKind::Ident(name) => self.target_width(name, ctx, e.span),
            _ => Err(err("unsupported concat target element", e.span)),
        }
    }

    fn target_width(&self, name: &str, ctx: &Ctx, span: Span) -> Result<usize, SynthError> {
        if let Some(w) = ctx.local_widths.get(name) {
            return Ok(*w);
        }
        Ok(self.sig(name, span)?.width)
    }

    /// Read-modify-write of bit positions `[hi:lo]` of a target.
    fn splice_into(
        &mut self,
        name: &str,
        hi: usize,
        lo: usize,
        value: NetId,
        ctx: &mut Ctx,
        span: Span,
    ) -> Result<(), SynthError> {
        let width = self.target_width(name, ctx, span)?;
        let current = match ctx.env.get(name) {
            Some(Some(n)) => *n,
            Some(None) => {
                // Reading the pre-block value: registers read q; pure comb
                // partial init would be a latch — but bit-wise full
                // assignment across the block is common, so start from the
                // register/previous value when available, else x.
                if let Some(&q) = ctx.seq_regs.get(name) {
                    q
                } else {
                    let y = self.fresh("init", width, false);
                    self.netlist.cells.push(Cell::Const {
                        value: LogicVec::unknown(width),
                        y,
                    });
                    y
                }
            }
            None => {
                return Err(err(
                    format!("assignment to `{name}` outside the block's target set"),
                    span,
                ))
            }
        };
        let mut pieces: Vec<NetId> = Vec::new();
        if hi + 1 < width {
            let y = self.fresh("keep_hi", width - hi - 1, false);
            self.netlist.cells.push(Cell::Slice {
                a: current,
                hi: width - 1,
                lo: hi + 1,
                y,
            });
            pieces.push(y);
        }
        pieces.push(value);
        if lo > 0 {
            let y = self.fresh("keep_lo", lo, false);
            self.netlist.cells.push(Cell::Slice {
                a: current,
                hi: lo - 1,
                lo: 0,
                y,
            });
            pieces.push(y);
        }
        let y = self.fresh(name, width, false);
        self.netlist.cells.push(Cell::Concat { parts: pieces, y });
        ctx.env.insert(name.to_string(), Some(y));
        Ok(())
    }

    fn exec_case(
        &mut self,
        kind: CaseKind,
        selector: &Expr,
        arms: &[CaseArm],
        ctx: &mut Ctx,
        span: Span,
    ) -> Result<(), SynthError> {
        let sel = self.lower_expr(selector, ctx, None)?;
        let sel_width = self.netlist.net(sel).width;
        // Build an if-else chain: execute arms in priority order.
        // We fold from the front: each arm contributes a guarded env merge.
        let saved = ctx.env.clone();
        let mut default_arm: Option<&CaseArm> = None;
        let mut guarded: Vec<(NetId, HashMap<String, Option<NetId>>)> = Vec::new();
        for arm in arms {
            if arm.labels.is_empty() {
                default_arm = Some(arm);
                continue;
            }
            // Condition: OR of per-label matches.
            let mut cond: Option<NetId> = None;
            for label in &arm.labels {
                let m = self.lower_case_match(kind, sel, sel_width, label, ctx)?;
                cond = Some(match cond {
                    None => m,
                    Some(prev) => {
                        let y = self.fresh("case_or", 1, false);
                        self.netlist.cells.push(Cell::Binary {
                            op: BinaryOp::LogicOr,
                            a: prev,
                            b: m,
                            y,
                        });
                        y
                    }
                });
            }
            ctx.env = saved.clone();
            self.exec_stmt(&arm.body, ctx)?;
            let env = std::mem::replace(&mut ctx.env, saved.clone());
            guarded.push((cond.expect("non-default arm has labels"), env));
        }
        // Base env: default arm (or unchanged).
        ctx.env = saved.clone();
        if let Some(d) = default_arm {
            self.exec_stmt(&d.body, ctx)?;
        }
        let mut acc = std::mem::replace(&mut ctx.env, saved);
        // Later guards have lower priority, so fold from the last arm
        // backwards with earlier arms overriding.
        let seq_regs = ctx.seq_regs.clone();
        for (cond, env) in guarded.into_iter().rev() {
            acc = self.mux_envs(cond, env, acc, &seq_regs)?;
        }
        ctx.env = acc;
        let _ = span;
        Ok(())
    }

    fn lower_case_match(
        &mut self,
        kind: CaseKind,
        sel: NetId,
        sel_width: usize,
        label: &Expr,
        ctx: &mut Ctx,
    ) -> Result<NetId, SynthError> {
        // Wildcard (casez/casex) labels must be constants.
        if kind != CaseKind::Exact {
            let v = self
                .const_eval_ctx(label, ctx)
                .map_err(|_| err("casez/casex labels must be constant", label.span))?;
            let v = v.resize(sel_width);
            let mut mask_bits = Vec::new();
            let mut value_bits = Vec::new();
            use vgen_verilog::value::Logic;
            for i in 0..sel_width {
                let b = v.bit(i);
                let wild = b == Logic::Z || (kind == CaseKind::X && b == Logic::X);
                mask_bits.push(if wild { Logic::Zero } else { Logic::One });
                value_bits.push(if wild { Logic::Zero } else { b });
            }
            let mask = LogicVec::from_bits(mask_bits, false);
            let value = LogicVec::from_bits(value_bits, false);
            let mask_n = self.const_net(mask);
            let value_n = self.const_net(value);
            let masked = self.fresh("case_mask", sel_width, false);
            self.netlist.cells.push(Cell::Binary {
                op: BinaryOp::BitAnd,
                a: sel,
                b: mask_n,
                y: masked,
            });
            let y = self.fresh("case_eq", 1, false);
            self.netlist.cells.push(Cell::Binary {
                op: BinaryOp::Eq,
                a: masked,
                b: value_n,
                y,
            });
            return Ok(y);
        }
        let l = self.lower_expr(label, ctx, Some(sel_width))?;
        let y = self.fresh("case_eq", 1, false);
        self.netlist.cells.push(Cell::Binary {
            op: BinaryOp::Eq,
            a: sel,
            b: l,
            y,
        });
        Ok(y)
    }

    fn mux_envs(
        &mut self,
        cond: NetId,
        then_env: HashMap<String, Option<NetId>>,
        else_env: HashMap<String, Option<NetId>>,
        seq_regs: &HashMap<String, NetId>,
    ) -> Result<HashMap<String, Option<NetId>>, SynthError> {
        let mut out = HashMap::new();
        let keys: Vec<&String> = then_env.keys().chain(else_env.keys()).collect();
        for k in keys {
            if out.contains_key(k) {
                continue;
            }
            let t = then_env.get(k).cloned().flatten();
            let e = else_env.get(k).cloned().flatten();
            let merged = match (t, e) {
                (Some(a), Some(b)) if a == b => Some(a),
                (Some(a), Some(b)) => {
                    let w = self.netlist.net(a).width.max(self.netlist.net(b).width);
                    let a = self.resize_to(a, w, false, k);
                    let b = self.resize_to(b, w, false, k);
                    let y = self.fresh(k, w, false);
                    self.netlist.cells.push(Cell::Mux { sel: cond, a, b, y });
                    Some(y)
                }
                (Some(a), None) => self.partial_merge(cond, Some(a), None, k, seq_regs)?,
                (None, Some(b)) => self.partial_merge(cond, None, Some(b), k, seq_regs)?,
                (None, None) => None,
            };
            out.insert(k.clone(), merged);
        }
        Ok(out)
    }

    /// One side of an if assigned, the other didn't: registers hold (mux
    /// with q); pure combinational targets stay unassigned (latch detected
    /// at block exit if it survives).
    fn partial_merge(
        &mut self,
        cond: NetId,
        then_v: Option<NetId>,
        else_v: Option<NetId>,
        name: &str,
        seq_regs: &HashMap<String, NetId>,
    ) -> Result<Option<NetId>, SynthError> {
        let Some(&q) = seq_regs.get(name) else {
            // Combinational: an unassigned side leaves the target
            // unassigned overall — conservative latch detection.
            return Ok(None);
        };
        let (a, b) = (then_v.unwrap_or(q), else_v.unwrap_or(q));
        if a == b {
            return Ok(Some(a));
        }
        let w = self.netlist.net(a).width.max(self.netlist.net(b).width);
        let a = self.resize_to(a, w, false, name);
        let b = self.resize_to(b, w, false, name);
        let y = self.fresh(name, w, false);
        self.netlist.cells.push(Cell::Mux { sel: cond, a, b, y });
        Ok(Some(y))
    }

    // ----------------------------------------------------------- expressions

    fn const_net(&mut self, v: LogicVec) -> NetId {
        let y = self.fresh("const", v.width(), v.is_signed());
        self.netlist.cells.push(Cell::Const { value: v, y });
        y
    }

    #[allow(clippy::wrong_self_convention)]
    fn to_bool_net(&mut self, n: NetId) -> NetId {
        if self.netlist.net(n).width == 1 {
            return n;
        }
        let y = self.fresh("bool", 1, false);
        self.netlist.cells.push(Cell::Unary {
            op: UnaryOp::ReduceOr,
            a: n,
            y,
        });
        y
    }

    fn const_eval_ctx(&self, e: &Expr, ctx: &Ctx) -> Result<LogicVec, SynthError> {
        match &e.kind {
            ExprKind::Ident(n) => {
                if let Some(v) = ctx.const_env.get(n) {
                    return Ok(v.clone());
                }
                self.const_eval(e)
            }
            ExprKind::Unary { op, arg } => Ok(op.apply(&self.const_eval_ctx(arg, ctx)?)),
            ExprKind::Binary { op, lhs, rhs } => Ok(op.apply(
                &self.const_eval_ctx(lhs, ctx)?,
                &self.const_eval_ctx(rhs, ctx)?,
            )),
            _ => self.const_eval(e),
        }
    }

    fn lower_expr(
        &mut self,
        e: &Expr,
        ctx: &mut Ctx,
        want: Option<usize>,
    ) -> Result<NetId, SynthError> {
        match &e.kind {
            ExprKind::Number(v) => {
                let mut v = v.clone();
                if let Some(w) = want {
                    if v.width() < w {
                        v = v.resize(w);
                    }
                }
                Ok(self.const_net(v))
            }
            ExprKind::Ident(name) => {
                if let Some(v) = ctx.const_env.get(name) {
                    return Ok(self.const_net(v.clone()));
                }
                if let Some(v) = self.params.get(name) {
                    return Ok(self.const_net(v.clone()));
                }
                let n = self.read_signal(name, ctx, e.span)?;
                if let Some(w) = want {
                    if self.netlist.net(n).width < w {
                        return Ok(self.resize_to(n, w, self.netlist.net(n).signed, name));
                    }
                }
                Ok(n)
            }
            ExprKind::Unary { op, arg } => {
                let propagate = matches!(op, UnaryOp::Plus | UnaryOp::Neg | UnaryOp::BitNot);
                let a = self.lower_expr(arg, ctx, if propagate { want } else { None })?;
                let aw = self.netlist.net(a).width;
                let (w, signed) = if propagate {
                    (aw, self.netlist.net(a).signed)
                } else {
                    (1, false)
                };
                let y = self.fresh("u", w, signed);
                self.netlist.cells.push(Cell::Unary { op: *op, a, y });
                Ok(y)
            }
            ExprKind::Binary { op, lhs, rhs } => {
                use BinaryOp::*;
                let propagate = matches!(
                    op,
                    Add | Sub | Mul | Div | Rem | BitAnd | BitOr | BitXor | BitXnor
                );
                let shiftish = matches!(op, Shl | Shr | AShl | AShr | Pow);
                let a =
                    self.lower_expr(lhs, ctx, if propagate || shiftish { want } else { None })?;
                let b = self.lower_expr(rhs, ctx, if propagate { want } else { None })?;
                let (aw, bw) = (self.netlist.net(a).width, self.netlist.net(b).width);
                let signed = self.netlist.net(a).signed && self.netlist.net(b).signed;
                let w = if propagate {
                    aw.max(bw)
                } else if shiftish {
                    aw
                } else {
                    1
                };
                let y = self.fresh("b", w, signed && (propagate || shiftish));
                self.netlist.cells.push(Cell::Binary { op: *op, a, b, y });
                Ok(y)
            }
            ExprKind::Ternary { cond, then, els } => {
                let c = self.lower_expr(cond, ctx, None)?;
                let c1 = self.to_bool_net(c);
                let a = self.lower_expr(then, ctx, want)?;
                let b = self.lower_expr(els, ctx, want)?;
                let w = self.netlist.net(a).width.max(self.netlist.net(b).width);
                let a = self.resize_to(a, w, self.netlist.net(a).signed, "mux_a");
                let b = self.resize_to(b, w, self.netlist.net(b).signed, "mux_b");
                let y = self.fresh("mux", w, false);
                self.netlist.cells.push(Cell::Mux { sel: c1, a, b, y });
                Ok(y)
            }
            ExprKind::Index { base, index } => {
                let ExprKind::Ident(name) = &base.kind else {
                    return Err(err("unsupported select base", e.span));
                };
                let info = self.sig(name, e.span)?;
                let a = self.read_signal(name, ctx, e.span)?;
                // Constant index → slice; dynamic → BitSelect cell.
                if let Ok(v) = self.const_eval_ctx(index, ctx) {
                    let i = v
                        .to_i64()
                        .ok_or_else(|| err("x in bit-select index", e.span))?;
                    let pos = info
                        .bit_position(i)
                        .ok_or_else(|| err(format!("bit {i} out of range"), e.span))?;
                    let y = self.fresh("bit", 1, false);
                    self.netlist.cells.push(Cell::Slice {
                        a,
                        hi: pos,
                        lo: pos,
                        y,
                    });
                    return Ok(y);
                }
                let idx = self.lower_expr(index, ctx, None)?;
                let y = self.fresh("bitsel", 1, false);
                self.netlist.cells.push(Cell::BitSelect {
                    a,
                    idx,
                    lsb_index: info.lsb,
                    descending: info.msb >= info.lsb,
                    y,
                });
                Ok(y)
            }
            ExprKind::PartSelect { base, msb, lsb } => {
                let ExprKind::Ident(name) = &base.kind else {
                    return Err(err("unsupported select base", e.span));
                };
                let info = self.sig(name, e.span)?;
                let a = self.read_signal(name, ctx, e.span)?;
                let hi_i = self.const_i64(msb)?;
                let lo_i = self.const_i64(lsb)?;
                let (hi, lo) = match (info.bit_position(hi_i), info.bit_position(lo_i)) {
                    (Some(x), Some(y2)) => (x.max(y2), x.min(y2)),
                    _ => return Err(err("part select out of range", e.span)),
                };
                let y = self.fresh("slice", hi - lo + 1, false);
                self.netlist.cells.push(Cell::Slice { a, hi, lo, y });
                Ok(y)
            }
            ExprKind::IndexedSelect {
                base,
                start,
                width,
                ascending,
            } => {
                let ExprKind::Ident(name) = &base.kind else {
                    return Err(err("unsupported select base", e.span));
                };
                let info = self.sig(name, e.span)?;
                let a = self.read_signal(name, ctx, e.span)?;
                let w = self
                    .const_i64(width)?
                    .try_into()
                    .map_err(|_| err("negative width", e.span))?;
                let s = self
                    .const_eval_ctx(start, ctx)
                    .map_err(|_| err("dynamic indexed selects are not synthesizable", e.span))?;
                let s = s.to_i64().ok_or_else(|| err("x in select", e.span))?;
                let (hi_i, lo_i) = if *ascending {
                    (s + w as i64 - 1, s)
                } else {
                    (s, s - w as i64 + 1)
                };
                let (hi, lo) = match (info.bit_position(hi_i), info.bit_position(lo_i)) {
                    (Some(x), Some(y2)) => (x.max(y2), x.min(y2)),
                    _ => return Err(err("indexed select out of range", e.span)),
                };
                let y = self.fresh("islice", w, false);
                self.netlist.cells.push(Cell::Slice { a, hi, lo, y });
                Ok(y)
            }
            ExprKind::Concat(items) => {
                let parts: Vec<NetId> = items
                    .iter()
                    .map(|i| self.lower_expr(i, ctx, None))
                    .collect::<Result<_, _>>()?;
                let w: usize = parts.iter().map(|p| self.netlist.net(*p).width).sum();
                let y = self.fresh("cat", w, false);
                self.netlist.cells.push(Cell::Concat { parts, y });
                Ok(y)
            }
            ExprKind::Replicate { count, items } => {
                let c: usize = self
                    .const_i64(count)?
                    .try_into()
                    .map_err(|_| err("negative replication", e.span))?;
                let parts: Vec<NetId> = items
                    .iter()
                    .map(|i| self.lower_expr(i, ctx, None))
                    .collect::<Result<_, _>>()?;
                let inner = if parts.len() == 1 {
                    parts[0]
                } else {
                    let w: usize = parts.iter().map(|p| self.netlist.net(*p).width).sum();
                    let y = self.fresh("cat", w, false);
                    self.netlist.cells.push(Cell::Concat { parts, y });
                    y
                };
                let w = self.netlist.net(inner).width * c;
                let y = self.fresh("rep", w, false);
                self.netlist.cells.push(Cell::Replicate {
                    a: inner,
                    count: c,
                    y,
                });
                Ok(y)
            }
            ExprKind::SysCall { name, args } => match (name.as_str(), args.len()) {
                ("signed", 1) => {
                    let a = self.lower_expr(&args[0], ctx, want)?;
                    let w = self.netlist.net(a).width;
                    let y = self.fresh("signed", w, true);
                    self.netlist.cells.push(Cell::Resize { a, y });
                    Ok(y)
                }
                ("unsigned", 1) => {
                    let a = self.lower_expr(&args[0], ctx, want)?;
                    let w = self.netlist.net(a).width;
                    let y = self.fresh("unsigned", w, false);
                    self.netlist.cells.push(Cell::Resize { a, y });
                    Ok(y)
                }
                _ => Err(err(format!("`${name}` is not synthesizable"), e.span)),
            },
            ExprKind::Call { name, args } => self.inline_function(name, args, ctx, e.span),
            ExprKind::Real(_) | ExprKind::Str(_) => {
                Err(err("reals/strings are not synthesizable", e.span))
            }
        }
    }

    fn inline_function(
        &mut self,
        name: &str,
        args: &[Expr],
        ctx: &mut Ctx,
        span: Span,
    ) -> Result<NetId, SynthError> {
        let Some(f) = self.funcs.get(name).copied() else {
            return Err(err(format!("unknown function `{name}`"), span));
        };
        if ctx.inlining.iter().any(|n| n == name) {
            return Err(err(
                format!("recursive function `{name}` is not synthesizable"),
                span,
            ));
        }
        let call_height = ctx.call_height + f.height();
        if call_height > MAX_CALL_HEIGHT {
            return Err(err(
                format!("function calls nested deeper than {MAX_CALL_HEIGHT} levels"),
                span,
            ));
        }
        // Bind arguments.
        let mut fctx = Ctx {
            inlining: {
                let mut v = ctx.inlining.clone();
                v.push(name.to_string());
                v
            },
            call_height,
            ..Ctx::default()
        };
        let (ret_msb, ret_lsb) = match &f.range {
            Some(r) => (self.const_i64(&r.msb)?, self.const_i64(&r.lsb)?),
            None => (0, 0),
        };
        let ret_width = (ret_msb - ret_lsb).unsigned_abs() as usize + 1;
        fctx.local_widths.insert(name.to_string(), ret_width);
        fctx.env.insert(name.to_string(), None);
        let mut param_names = Vec::new();
        for d in &f.decls {
            let (msb, lsb) = match &d.range {
                Some(r) => (self.const_i64(&r.msb)?, self.const_i64(&r.lsb)?),
                None => match d.kind {
                    Some(NetKind::Integer) => (31, 0),
                    _ => (0, 0),
                },
            };
            let w = (msb - lsb).unsigned_abs() as usize + 1;
            for n in &d.names {
                fctx.local_widths.insert(n.name.clone(), w);
                fctx.env.insert(n.name.clone(), None);
                if d.dir == Some(PortDir::Input) {
                    param_names.push((n.name.clone(), w));
                }
            }
        }
        if param_names.len() != args.len() {
            return Err(err(
                format!(
                    "function `{name}` takes {} arguments, got {}",
                    param_names.len(),
                    args.len()
                ),
                span,
            ));
        }
        for ((pname, w), arg) in param_names.iter().zip(args) {
            let a = self.lower_expr(arg, ctx, Some(*w))?;
            let a = self.resize_to(a, *w, false, pname);
            fctx.env.insert(pname.clone(), Some(a));
        }
        self.exec_stmt(&f.body, &mut fctx)?;
        match fctx.env.get(name).cloned().flatten() {
            Some(n) => Ok(self.resize_to(n, ret_width, f.signed, name)),
            None => Err(err(
                format!("function `{name}` does not assign its return value on all paths"),
                span,
            )),
        }
    }

    /// Reads a signal inside an expression: block-local symbolic value if
    /// assigned (blocking semantics), register q inside seq blocks, or the
    /// module-level resolved net.
    fn read_signal(&mut self, name: &str, ctx: &mut Ctx, span: Span) -> Result<NetId, SynthError> {
        if let Some(v) = ctx.env.get(name) {
            match v {
                Some(n) => return Ok(*n),
                None => {
                    if let Some(&q) = ctx.seq_regs.get(name) {
                        return Ok(q);
                    }
                    // Reading a comb target before assigning it: a latch /
                    // feedback read. Conservatively produce x with warning.
                    if ctx.local_widths.contains_key(name) || self.sigs.contains_key(name) {
                        self.warn(format!("`{name}` read before assignment in block"), span);
                        let w = self.target_width(name, ctx, span)?;
                        return Ok(self.const_net(LogicVec::unknown(w)));
                    }
                    return Err(err(format!("unknown identifier `{name}`"), span));
                }
            }
        }
        if let Some(&q) = ctx.seq_regs.get(name) {
            return Ok(q);
        }
        self.net_of(name, span)
    }

    fn finish(mut self) -> Result<SynthResult, SynthError> {
        // Wire outputs.
        for port in &self.module.ports {
            let info = self.sig(port, self.module.span)?;
            match info.dir {
                Some(PortDir::Output) => {
                    let n = self.net_of(port, self.module.span)?;
                    self.netlist.outputs.push((port.clone(), n));
                }
                Some(PortDir::Input) => {
                    // Ensure unused inputs still appear.
                    let _ = self.net_of(port, self.module.span)?;
                }
                _ => {}
            }
        }
        Ok(SynthResult {
            netlist: self.netlist,
            warnings: self.warnings,
        })
    }
}

/// Per-block symbolic execution context.
#[derive(Debug, Clone, Default)]
struct Ctx {
    /// Symbolic value of each block target / local; `None` = unassigned.
    env: HashMap<String, Option<NetId>>,
    /// Constant loop variables.
    const_env: HashMap<String, LogicVec>,
    /// Widths of block-local declarations / function locals.
    local_widths: HashMap<String, usize>,
    /// Register q nets when lowering a sequential block.
    seq_regs: HashMap<String, NetId>,
    /// Function inlining stack (recursion guard).
    inlining: Vec<String>,
    /// Summed height of the functions being inlined.
    call_height: usize,
}

fn collect_targets(stmt: &Stmt, out: &mut Vec<String>) {
    match &stmt.kind {
        StmtKind::Block { stmts, decls, .. } => {
            for s in stmts {
                collect_targets(s, out);
            }
            // Block locals are not module-level targets.
            for d in decls {
                for n in &d.names {
                    out.retain(|t| t != &n.name);
                }
            }
        }
        StmtKind::Assign { lhs, .. } => collect_lvalue_names(lhs, out),
        StmtKind::If { then, els, .. } => {
            collect_targets(then, out);
            if let Some(e) = els {
                collect_targets(e, out);
            }
        }
        StmtKind::Case { arms, .. } => {
            for a in arms {
                collect_targets(&a.body, out);
            }
        }
        StmtKind::For {
            init, step, body, ..
        } => {
            collect_lvalue_names(&init.0, out);
            collect_lvalue_names(&step.0, out);
            collect_targets(body, out);
        }
        StmtKind::While { body, .. }
        | StmtKind::Repeat { body, .. }
        | StmtKind::Forever { body } => collect_targets(body, out),
        StmtKind::Delay { stmt, .. }
        | StmtKind::Event { stmt, .. }
        | StmtKind::Wait { stmt, .. } => {
            if let Some(s) = stmt {
                collect_targets(s, out);
            }
        }
        _ => {}
    }
}

fn collect_lvalue_names(e: &Expr, out: &mut Vec<String>) {
    match &e.kind {
        ExprKind::Ident(n) => out.push(n.clone()),
        ExprKind::Index { base, .. }
        | ExprKind::PartSelect { base, .. }
        | ExprKind::IndexedSelect { base, .. } => collect_lvalue_names(base, out),
        ExprKind::Concat(items) => {
            for i in items {
                collect_lvalue_names(i, out);
            }
        }
        _ => {}
    }
}
