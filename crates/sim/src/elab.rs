//! Elaboration: AST → executable [`Design`].
//!
//! Flattens the module hierarchy, resolves parameters, allocates signals and
//! memories, checks declaration/assignment legality (the semantic half of
//! the "compiles" check), and compiles every process body to the bytecode
//! defined in [`crate::design`].

use std::collections::HashMap;

use vgen_verilog::ast::{
    self, AssignOp, CaseKind, Connection, Expr, ExprKind, Item, NetKind, PortDir, Stmt, StmtKind,
};
use vgen_verilog::span::Span;
use vgen_verilog::value::{LogicVec, MAX_SIGNAL_BITS};
use vgen_verilog::SourceFile;

use crate::design::*;

/// An error detected during elaboration (semantic error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElabError {
    /// Description of the problem.
    pub message: String,
    /// Source location.
    pub span: Span,
    /// Whether elaboration was abandoned because a
    /// [`CancelToken`](vgen_obs::CancelToken) tripped, rather than because
    /// the design is ill-formed. The supervision layer uses this to
    /// classify the candidate as *timed out* instead of *uncompilable*.
    pub cancelled: bool,
}

impl ElabError {
    fn new(message: impl Into<String>, span: Span) -> Self {
        ElabError {
            message: message.into(),
            span,
            cancelled: false,
        }
    }

    fn cancelled_at(span: Span) -> Self {
        ElabError {
            message: "elaboration cancelled: check deadline exceeded".into(),
            span,
            cancelled: true,
        }
    }
}

impl std::fmt::Display for ElabError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ElabError {}

/// Maximum instantiation depth before assuming recursive instantiation.
const MAX_DEPTH: usize = 32;

/// Maximum number of module instances elaborated into one design.
///
/// Generated code sometimes instantiates wide arrays of submodules; past
/// this point we assume an instantiation bomb and fail elaboration instead
/// of exhausting memory.
pub const MAX_INSTANCES: usize = 4096;

/// Maximum total bits across all signals (nets and variables) in a design.
pub const MAX_TOTAL_SIGNAL_BITS: u64 = 1 << 24;

/// Maximum total bits across all memories in a design.
pub const MAX_TOTAL_MEMORY_BITS: u64 = 1 << 26;

/// Width of hidden temporaries used for intra-assignment delays.
const TEMP_WIDTH: usize = 128;

/// Elaborates `top` (and everything it instantiates) from `file`.
///
/// # Errors
///
/// Returns [`ElabError`] for undeclared identifiers, conflicting
/// declarations, procedural assignment to nets, continuous assignment to
/// variables, non-constant ranges, unknown modules, unsupported constructs
/// (tasks/functions/inout ports), and out-of-range constant selects.
///
/// ```
/// use vgen_verilog::parse;
/// use vgen_sim::elab::elaborate;
/// let f = parse("module m(input a, output y); assign y = ~a; endmodule")?;
/// let design = elaborate(&f, "m")?;
/// assert_eq!(design.top, "m");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn elaborate(file: &SourceFile, top: &str) -> Result<Design, ElabError> {
    elaborate_with_cancel(&[file], top, &vgen_obs::CancelToken::unlimited())
}

/// Elaborates `top` from separately parsed `files` as if they were one
/// file, concatenated in order: a module name resolves to its first
/// definition in that order. Linking a candidate with a shared, already
/// parsed testbench this way spares re-parsing the testbench per check.
///
/// Runs under a cooperative [`vgen_obs::CancelToken`]: the elaborator
/// polls the token periodically (per instance and per batch of lowered
/// statements) and returns an [`ElabError`] with `cancelled == true` once
/// it trips.
///
/// # Errors
///
/// Same as [`elaborate`].
pub fn elaborate_with_cancel(
    files: &[&SourceFile],
    top: &str,
    cancel: &vgen_obs::CancelToken,
) -> Result<Design, ElabError> {
    let _span = vgen_obs::span("elaborate");
    let mut el = Elaborator {
        files,
        design: Design {
            top: top.to_string(),
            ..Design::default()
        },
        temp_counter: 0,
        instances: 0,
        total_signal_bits: 0,
        total_memory_bits: 0,
        cancel: cancel.clone(),
        work: 0,
    };
    el.instantiate(top, "", &[], Span::default(), 0)?;
    Ok(el.design)
}

/// Elaborates using the *first* module in the file as top — the common case
/// when checking a single generated completion.
///
/// # Errors
///
/// Same as [`elaborate`].
pub fn elaborate_first(file: &SourceFile) -> Result<Design, ElabError> {
    let top = &file.modules[0].name;
    elaborate(file, top)
}

#[derive(Debug, Clone)]
enum Sym {
    Signal(SignalId),
    Memory(MemoryId),
    Param(LogicVec),
}

#[derive(Debug, Default)]
struct Scope {
    syms: HashMap<String, Sym>,
    /// User functions visible in this module instance, by name.
    funcs: HashMap<String, u32>,
}

impl Scope {
    fn lookup(&self, name: &str) -> Option<&Sym> {
        self.syms.get(name)
    }
}

/// Declaration info accumulated across possibly-split declarations
/// (`output q;` + `reg q;`).
#[derive(Debug, Default, Clone)]
struct DeclInfo<'a> {
    dir: Option<PortDir>,
    kind: Option<NetKind>,
    signed: bool,
    range: Option<(i64, i64)>,
    dims: Option<(i64, i64)>,
    init: Option<&'a Expr>,
    span: Span,
}

struct Elaborator<'a> {
    /// Source files in lookup order (see [`elaborate_with_cancel`]).
    files: &'a [&'a SourceFile],
    design: Design,
    temp_counter: u32,
    /// Module instances elaborated so far (capped at [`MAX_INSTANCES`]).
    instances: usize,
    /// Running total of allocated signal bits.
    total_signal_bits: u64,
    /// Running total of allocated memory bits.
    total_memory_bits: u64,
    /// Cooperative cancellation handle (unlimited by default).
    cancel: vgen_obs::CancelToken,
    /// Work counter driving periodic cancel polls.
    work: u32,
}

/// Units of elaboration work (statements lowered, instances entered)
/// between cancel polls.
const CANCEL_POLL_WORK: u32 = 1024;

impl<'a> Elaborator<'a> {
    /// Counts one unit of work; every [`CANCEL_POLL_WORK`] units, polls the
    /// cancel token and errors out if it has tripped.
    fn check_cancel(&mut self, span: Span) -> Result<(), ElabError> {
        self.work = self.work.wrapping_add(1);
        if self.work.is_multiple_of(CANCEL_POLL_WORK) && self.cancel.poll() {
            return Err(ElabError::cancelled_at(span));
        }
        Ok(())
    }

    // ------------------------------------------------------------ instances

    /// The first definition of `name` across the files, in order. Borrowed
    /// from the input, never cloned.
    fn module(&self, name: &str) -> Option<&'a ast::Module> {
        self.files.iter().find_map(|f| f.module(name))
    }

    fn instantiate(
        &mut self,
        module_name: &str,
        prefix: &str,
        param_overrides: &[(Option<String>, LogicVec)],
        inst_span: Span,
        depth: usize,
    ) -> Result<Scope, ElabError> {
        // Instances are coarse units; poll unconditionally so instance
        // bombs observe the deadline even with the work counter mid-window.
        if self.cancel.poll() {
            return Err(ElabError::cancelled_at(inst_span));
        }
        if depth > MAX_DEPTH {
            return Err(ElabError::new(
                format!("instantiation depth exceeds {MAX_DEPTH} (recursive instantiation?)"),
                inst_span,
            ));
        }
        self.instances += 1;
        if self.instances > MAX_INSTANCES {
            return Err(ElabError::new(
                format!("design exceeds {MAX_INSTANCES} module instances"),
                inst_span,
            ));
        }
        let module = self
            .module(module_name)
            .ok_or_else(|| ElabError::new(format!("unknown module `{module_name}`"), inst_span))?;

        let mut scope = Scope::default();

        // Pass 1: parameters, in declaration order.
        let mut positional_index = 0usize;
        for item in &module.items {
            let Item::Param(p) = item else { continue };
            for (name, default) in &p.assigns {
                let mut value = self.const_expr(default, &scope, &[])?;
                if !p.local {
                    let mut overridden = false;
                    for (oname, oval) in param_overrides {
                        if oname.as_deref() == Some(name.as_str()) {
                            value = oval.clone();
                            overridden = true;
                        }
                    }
                    if !overridden {
                        if let Some((None, oval)) = param_overrides
                            .get(positional_index)
                            .filter(|(n, _)| n.is_none())
                        {
                            value = oval.clone();
                        }
                    }
                    positional_index += 1;
                }
                if let Some(r) = &p.range {
                    let (msb, lsb) = self.const_range(r, &scope)?;
                    let width = (msb - lsb).unsigned_abs() as usize + 1;
                    value = value.resize(width);
                }
                if p.signed {
                    value = value.with_signed(true);
                }
                if scope.syms.insert(name.clone(), Sym::Param(value)).is_some() {
                    return Err(ElabError::new(
                        format!("duplicate parameter `{name}`"),
                        p.span,
                    ));
                }
            }
        }

        // Pass 2: merge declarations.
        let mut decls: Vec<(String, DeclInfo)> = Vec::new();
        let mut index: HashMap<String, usize> = HashMap::new();
        for item in &module.items {
            let Item::Decl(d) = item else { continue };
            let range = match &d.range {
                Some(r) => Some(self.const_range(r, &scope)?),
                None => None,
            };
            for n in &d.names {
                if scope.lookup(&n.name).is_some() {
                    return Err(ElabError::new(
                        format!("`{}` conflicts with a parameter", n.name),
                        n.span,
                    ));
                }
                let dims = match n.dims.len() {
                    0 => None,
                    1 => {
                        let (a, b) = self.const_range(&n.dims[0], &scope)?;
                        Some((a.min(b), a.max(b)))
                    }
                    _ => {
                        return Err(ElabError::new(
                            "multi-dimensional arrays are not supported",
                            n.span,
                        ))
                    }
                };
                let idx = *index.entry(n.name.clone()).or_insert_with(|| {
                    decls.push((n.name.clone(), DeclInfo::default()));
                    decls.len() - 1
                });
                let info = &mut decls[idx].1;
                if info.span == Span::default() {
                    info.span = n.span;
                }
                if let Some(dir) = d.dir {
                    if info.dir.is_some() && info.dir != Some(dir) {
                        return Err(ElabError::new(
                            format!("conflicting port direction for `{}`", n.name),
                            n.span,
                        ));
                    }
                    info.dir = Some(dir);
                }
                if let Some(kind) = d.kind {
                    if let Some(prev) = info.kind {
                        if prev != kind {
                            return Err(ElabError::new(
                                format!("conflicting redeclaration of `{}`", n.name),
                                n.span,
                            ));
                        }
                    }
                    info.kind = Some(kind);
                }
                info.signed |= d.signed;
                if let Some(r) = range {
                    if let Some(prev) = info.range {
                        if prev != r {
                            return Err(ElabError::new(
                                format!("conflicting ranges for `{}`", n.name),
                                n.span,
                            ));
                        }
                    }
                    info.range = Some(r);
                }
                if let Some(dm) = dims {
                    if info.dims.is_some() {
                        return Err(ElabError::new(
                            format!("duplicate array declaration of `{}`", n.name),
                            n.span,
                        ));
                    }
                    info.dims = Some(dm);
                }
                if let Some(init) = &n.init {
                    if info.init.is_some() {
                        return Err(ElabError::new(
                            format!("duplicate initialiser for `{}`", n.name),
                            n.span,
                        ));
                    }
                    info.init = Some(init);
                }
            }
        }

        // Pass 3: allocate storage.
        for (name, info) in &decls {
            let full_name = if prefix.is_empty() {
                name.clone()
            } else {
                format!("{prefix}.{name}")
            };
            if let Some((low, high)) = info.dims {
                if info.kind != Some(NetKind::Reg) {
                    return Err(ElabError::new(
                        format!("array `{name}` must be declared `reg`"),
                        info.span,
                    ));
                }
                let (msb, lsb) = info.range.unwrap_or((0, 0));
                let width = (msb - lsb).unsigned_abs() as usize + 1;
                self.charge_memory_bits(width, (high - low) as u64 + 1, info.span)?;
                let id = MemoryId(self.design.memories.len() as u32);
                self.design.memories.push(Memory {
                    name: full_name,
                    width,
                    low,
                    high,
                    signed: info.signed,
                });
                scope.syms.insert(name.clone(), Sym::Memory(id));
                continue;
            }
            let (width, signed, msb, lsb, class) = match info.kind {
                Some(NetKind::Integer) => (32, true, 31, 0, SignalClass::Var),
                Some(NetKind::Time) => (64, false, 63, 0, SignalClass::Var),
                Some(NetKind::Real) => {
                    return Err(ElabError::new(
                        format!("`real` variable `{name}` is not supported"),
                        info.span,
                    ))
                }
                Some(NetKind::Reg) => {
                    if info.dir == Some(PortDir::Input) {
                        return Err(ElabError::new(
                            format!("input port `{name}` cannot be declared `reg`"),
                            info.span,
                        ));
                    }
                    let (msb, lsb) = info.range.unwrap_or((0, 0));
                    let width = (msb - lsb).unsigned_abs() as usize + 1;
                    (width, info.signed, msb, lsb, SignalClass::Var)
                }
                Some(NetKind::Wire) | Some(NetKind::Supply0) | Some(NetKind::Supply1) | None => {
                    let (msb, lsb) = info.range.unwrap_or((0, 0));
                    let width = (msb - lsb).unsigned_abs() as usize + 1;
                    (width, info.signed, msb, lsb, SignalClass::Net)
                }
            };
            self.charge_signal_bits(width, info.span)?;
            let id = SignalId(self.design.signals.len() as u32);
            self.design.signals.push(Signal {
                name: full_name,
                width,
                signed,
                class,
                msb,
                lsb,
            });
            scope.syms.insert(name.clone(), Sym::Signal(id));
            // supply0/supply1 are constant drivers.
            match info.kind {
                Some(NetKind::Supply0) => self.push_const_driver(id, LogicVec::zero(width)),
                Some(NetKind::Supply1) => self.push_const_driver(
                    id,
                    LogicVec::from_u64(u64::MAX, width.min(64)).resize(width),
                ),
                _ => {}
            }
        }

        // Ports must be declared with a direction.
        for p in &module.ports {
            match scope.lookup(p) {
                Some(Sym::Signal(id)) => {
                    let has_dir = decls
                        .iter()
                        .find(|(n, _)| n == p)
                        .map(|(_, i)| i.dir.is_some())
                        .unwrap_or(false);
                    if !has_dir {
                        return Err(ElabError::new(
                            format!("port `{p}` has no direction declaration"),
                            module.span,
                        ));
                    }
                    let _ = id;
                }
                Some(_) => {
                    return Err(ElabError::new(
                        format!("port `{p}` is not a simple signal"),
                        module.span,
                    ))
                }
                None => {
                    return Err(ElabError::new(
                        format!("port `{p}` is never declared"),
                        module.span,
                    ))
                }
            }
        }

        // Pass 3.5: user functions. Register all names first (so functions
        // can call functions defined later in the module), then compile
        // bodies.
        let mut func_items = Vec::new();
        for item in &module.items {
            if let Item::Function(f) = item {
                let idx = self.design.functions.len() as u32;
                if scope.funcs.insert(f.name.clone(), idx).is_some() {
                    return Err(ElabError::new(
                        format!("duplicate function `{}`", f.name),
                        f.span,
                    ));
                }
                let (ret, params, frame) = self.alloc_function_storage(f, &scope, prefix)?;
                self.design.functions.push(FunctionDef {
                    name: format!("{prefix}.{}", f.name),
                    params,
                    ret,
                    code: Vec::new(),
                    outer_reads: Vec::new(),
                    outer_mem_reads: Vec::new(),
                    height: f.height(),
                });
                func_items.push((idx, f, frame));
            }
        }
        for (idx, f, frame) in func_items {
            self.compile_function(idx, f, &scope, frame, prefix)?;
        }

        // Pass 4: initialisers.
        for (name, info) in &decls {
            let Some(init) = info.init else { continue };
            let Some(Sym::Signal(id)) = scope.lookup(name).cloned() else {
                return Err(ElabError::new(
                    format!("initialiser on array `{name}` is not supported"),
                    info.span,
                ));
            };
            let sig_class = self.design.signal(id).class;
            let rhs = self.elab_expr(init, &scope, &[])?;
            match sig_class {
                SignalClass::Net => {
                    // `wire y = expr;` is a continuous assignment.
                    self.push_continuous(LValue::Signal(id), rhs, format!("{prefix}.init.{name}"));
                }
                SignalClass::Var => {
                    // `reg r = 0;` runs once at time zero.
                    let rhs = widen(
                        &self.design,
                        &rhs,
                        lvalue_width(&self.design, &LValue::Signal(id)),
                    );
                    self.design.processes.push(Process {
                        kind: ProcessKind::Initial,
                        name: format!("{prefix}.init.{name}"),
                        code: vec![
                            Instr::Assign {
                                lv: LValue::Signal(id),
                                rhs,
                            },
                            Instr::End,
                        ],
                    });
                }
            }
        }

        // Pass 5: behaviour.
        for item in &module.items {
            match item {
                Item::Decl(_) | Item::Param(_) | Item::Defparam { .. } | Item::Function(_) => {}
                Item::Assign(a) => {
                    for (lhs, rhs) in &a.assigns {
                        let lv = self.elab_lvalue(lhs, &scope, &[], false)?;
                        let rhs = self.elab_expr(rhs, &scope, &[])?;
                        self.push_continuous(lv, rhs, format!("{prefix}.assign"));
                    }
                }
                Item::Gate(g) => self.elab_gate(g, &scope, prefix)?,
                Item::Always(a) => {
                    let mut code = Vec::new();
                    self.compile_stmt(&a.body, &scope, &mut Vec::new(), &mut code, prefix)?;
                    code.push(Instr::Jump(0));
                    self.design.processes.push(Process {
                        kind: ProcessKind::Always,
                        name: format!("{prefix}.always"),
                        code,
                    });
                }
                Item::Initial(i) => {
                    let mut code = Vec::new();
                    self.compile_stmt(&i.body, &scope, &mut Vec::new(), &mut code, prefix)?;
                    code.push(Instr::End);
                    self.design.processes.push(Process {
                        kind: ProcessKind::Initial,
                        name: format!("{prefix}.initial"),
                        code,
                    });
                }
                Item::Instance(inst) => {
                    self.elab_instance(inst, &scope, prefix, depth)?;
                }
            }
        }

        Ok(scope)
    }

    /// Allocates the return, parameter and local signals of a function and
    /// returns the local name frame used to compile its body.
    #[allow(clippy::type_complexity)]
    fn alloc_function_storage(
        &mut self,
        f: &ast::FunctionDecl,
        scope: &Scope,
        prefix: &str,
    ) -> Result<(SignalId, Vec<SignalId>, HashMap<String, Sym>), ElabError> {
        let mut frame = HashMap::new();
        let (ret_msb, ret_lsb) = match &f.range {
            Some(r) => self.const_range(r, scope)?,
            None => (0, 0),
        };
        let ret_width = (ret_msb - ret_lsb).unsigned_abs() as usize + 1;
        self.charge_signal_bits(ret_width, f.span)?;
        let ret = SignalId(self.design.signals.len() as u32);
        self.design.signals.push(Signal {
            name: format!("{prefix}.{}", f.name),
            width: ret_width,
            signed: f.signed,
            class: SignalClass::Var,
            msb: ret_msb,
            lsb: ret_lsb,
        });
        frame.insert(f.name.clone(), Sym::Signal(ret));
        let mut params = Vec::new();
        for d in &f.decls {
            let range = match &d.range {
                Some(r) => Some(self.const_range(r, scope)?),
                None => None,
            };
            for n in &d.names {
                if !n.dims.is_empty() {
                    return Err(ElabError::new(
                        "arrays are not allowed inside functions",
                        n.span,
                    ));
                }
                let (width, signed, msb, lsb) = match d.kind {
                    Some(NetKind::Integer) => (32usize, true, 31i64, 0i64),
                    Some(NetKind::Time) => (64, false, 63, 0),
                    _ => {
                        let (msb, lsb) = range.unwrap_or((0, 0));
                        ((msb - lsb).unsigned_abs() as usize + 1, d.signed, msb, lsb)
                    }
                };
                self.charge_signal_bits(width, n.span)?;
                let id = SignalId(self.design.signals.len() as u32);
                self.design.signals.push(Signal {
                    name: format!("{prefix}.{}.{}", f.name, n.name),
                    width,
                    signed,
                    class: SignalClass::Var,
                    msb,
                    lsb,
                });
                if frame.insert(n.name.clone(), Sym::Signal(id)).is_some() {
                    return Err(ElabError::new(
                        format!(
                            "duplicate declaration `{}` in function `{}`",
                            n.name, f.name
                        ),
                        n.span,
                    ));
                }
                match d.dir {
                    Some(PortDir::Input) => params.push(id),
                    Some(_) => {
                        return Err(ElabError::new(
                            "functions only take `input` arguments",
                            n.span,
                        ))
                    }
                    None => {}
                }
            }
        }
        if params.is_empty() {
            return Err(ElabError::new(
                format!("function `{}` must have at least one input", f.name),
                f.span,
            ));
        }
        Ok((ret, params, frame))
    }

    /// Compiles a function body and validates its combinational contract.
    fn compile_function(
        &mut self,
        idx: u32,
        f: &ast::FunctionDecl,
        scope: &Scope,
        frame: HashMap<String, Sym>,
        prefix: &str,
    ) -> Result<(), ElabError> {
        let mut locals = vec![frame];
        let mut code = Vec::new();
        self.compile_stmt(&f.body, scope, &mut locals, &mut code, prefix)?;
        code.push(Instr::End);
        // Validate the combinational contract.
        let allowed: Vec<SignalId> = {
            let mut ids: Vec<SignalId> = locals[0]
                .values()
                .filter_map(|s| match s {
                    Sym::Signal(id) => Some(*id),
                    _ => None,
                })
                .collect();
            ids.sort_unstable();
            ids
        };
        let mut outer_reads = Vec::new();
        let mut outer_mem_reads = Vec::new();
        for instr in &code {
            match instr {
                Instr::Delay(_) | Instr::WaitEvent(_) | Instr::WaitCond(_) => {
                    return Err(ElabError::new(
                        format!("timing controls are not allowed in function `{}`", f.name),
                        f.span,
                    ))
                }
                Instr::AssignNba { .. } => {
                    return Err(ElabError::new(
                        format!(
                            "non-blocking assignment is not allowed in function `{}`",
                            f.name
                        ),
                        f.span,
                    ))
                }
                Instr::SysCall { name, .. } => {
                    return Err(ElabError::new(
                        format!("`${name}` is not allowed in function `{}`", f.name),
                        f.span,
                    ))
                }
                Instr::Assign { lv, .. } => {
                    let mut written = Vec::new();
                    lv.written_signals(&mut written);
                    for w in written {
                        if allowed.binary_search(&w).is_err() {
                            return Err(ElabError::new(
                                format!(
                                    "function `{}` may only assign its own locals (writes `{}`)",
                                    f.name,
                                    self.design.signal(w).name
                                ),
                                f.span,
                            ));
                        }
                    }
                }
                _ => {}
            }
            instr_reads(instr, &mut outer_reads, &mut outer_mem_reads);
        }
        outer_reads.retain(|s| allowed.binary_search(s).is_err());
        outer_reads.sort_unstable();
        outer_reads.dedup();
        outer_mem_reads.sort_unstable();
        outer_mem_reads.dedup();
        let def = &mut self.design.functions[idx as usize];
        def.code = code;
        def.outer_reads = outer_reads;
        def.outer_mem_reads = outer_mem_reads;
        Ok(())
    }

    /// Collects the function indices called anywhere in an instruction so
    /// sensitivity lists can include the functions' outer reads.
    fn called_funcs(instrs: &[Instr], out: &mut Vec<u32>) {
        fn walk_expr(e: &EExpr, out: &mut Vec<u32>) {
            match e {
                EExpr::FuncCall { func, args } => {
                    out.push(*func);
                    for a in args {
                        walk_expr(a, out);
                    }
                }
                EExpr::Resize { arg, .. } | EExpr::Unary { arg, .. } => walk_expr(arg, out),
                EExpr::Binary { lhs, rhs, .. } => {
                    walk_expr(lhs, out);
                    walk_expr(rhs, out);
                }
                EExpr::Ternary { cond, then, els } => {
                    walk_expr(cond, out);
                    walk_expr(then, out);
                    walk_expr(els, out);
                }
                EExpr::BitSelect { base, index } => {
                    walk_base(base, out);
                    walk_expr(index, out);
                }
                EExpr::PartSelect { base, .. } => walk_base(base, out),
                EExpr::IndexedSelect { base, start, .. } => {
                    walk_base(base, out);
                    walk_expr(start, out);
                }
                EExpr::Read(base) => walk_base(base, out),
                EExpr::Concat(items) | EExpr::Replicate { items, .. } => {
                    for i in items {
                        walk_expr(i, out);
                    }
                }
                EExpr::SysCall { args, .. } => {
                    for a in args {
                        walk_expr(a, out);
                    }
                }
                EExpr::Const(_) | EExpr::Str(_) | EExpr::Signal(_) => {}
            }
        }
        fn walk_base(b: &SelectBase, out: &mut Vec<u32>) {
            if let SelectBase::MemWord { index, .. } = b {
                walk_expr(index, out);
            }
        }
        for instr in instrs {
            match instr {
                Instr::Assign { lv, rhs } | Instr::AssignNba { lv, rhs } => {
                    walk_expr(rhs, out);
                    // Index expressions inside lvalues can call functions.
                    fn walk_lv(lv: &LValue, out: &mut Vec<u32>) {
                        match lv {
                            LValue::BitSelect { index, .. } => walk_expr(index, out),
                            LValue::IndexedSelect { start, .. } => walk_expr(start, out),
                            LValue::MemWord { index, .. } => walk_expr(index, out),
                            LValue::Concat(items) => {
                                for i in items {
                                    walk_lv(i, out);
                                }
                            }
                            _ => {}
                        }
                    }
                    walk_lv(lv, out);
                }
                Instr::JumpIfFalse { cond, .. } => walk_expr(cond, out),
                Instr::JumpIfNoMatch { sel, label, .. } => {
                    walk_expr(sel, out);
                    walk_expr(label, out);
                }
                Instr::SysCall { args, .. } => {
                    for a in args {
                        walk_expr(a, out);
                    }
                }
                Instr::WaitCond(c) => walk_expr(c, out),
                _ => {}
            }
        }
    }

    /// Extends a (signals, memories) read set with the outer reads of every
    /// function called from `instrs`.
    fn add_function_reads(
        &self,
        instrs: &[Instr],
        sigs: &mut Vec<SignalId>,
        mems: &mut Vec<MemoryId>,
    ) {
        let mut funcs = Vec::new();
        Self::called_funcs(instrs, &mut funcs);
        funcs.sort_unstable();
        funcs.dedup();
        for fidx in funcs {
            let def = &self.design.functions[fidx as usize];
            sigs.extend_from_slice(&def.outer_reads);
            mems.extend_from_slice(&def.outer_mem_reads);
        }
    }

    /// Accounts `width` bits of signal storage against the design budget.
    ///
    /// Called before every signal allocation so a hostile declaration fails
    /// with an [`ElabError`] instead of exhausting memory at simulation time.
    fn charge_signal_bits(&mut self, width: usize, span: Span) -> Result<(), ElabError> {
        if width > MAX_SIGNAL_BITS {
            return Err(ElabError::new(
                format!("signal width {width} exceeds the {MAX_SIGNAL_BITS}-bit limit"),
                span,
            ));
        }
        self.total_signal_bits = self.total_signal_bits.saturating_add(width as u64);
        if self.total_signal_bits > MAX_TOTAL_SIGNAL_BITS {
            return Err(ElabError::new(
                format!("design exceeds {MAX_TOTAL_SIGNAL_BITS} total signal bits"),
                span,
            ));
        }
        Ok(())
    }

    /// Accounts one memory (`width` bits × `words` entries) against the
    /// design budget.
    fn charge_memory_bits(
        &mut self,
        width: usize,
        words: u64,
        span: Span,
    ) -> Result<(), ElabError> {
        if width > MAX_SIGNAL_BITS {
            return Err(ElabError::new(
                format!("memory word width {width} exceeds the {MAX_SIGNAL_BITS}-bit limit"),
                span,
            ));
        }
        let bits = (width as u64).saturating_mul(words);
        self.total_memory_bits = self.total_memory_bits.saturating_add(bits);
        if self.total_memory_bits > MAX_TOTAL_MEMORY_BITS {
            return Err(ElabError::new(
                format!("design exceeds {MAX_TOTAL_MEMORY_BITS} total memory bits"),
                span,
            ));
        }
        Ok(())
    }

    fn push_const_driver(&mut self, id: SignalId, value: LogicVec) {
        self.design.processes.push(Process {
            kind: ProcessKind::Initial,
            name: format!("supply.{}", self.design.signal(id).name),
            code: vec![
                Instr::Assign {
                    lv: LValue::Signal(id),
                    rhs: EExpr::Const(value),
                },
                Instr::End,
            ],
        });
    }

    /// Emits a continuous-assignment process: evaluate once at t=0, then
    /// re-evaluate whenever anything in the RHS (or lvalue indices) changes.
    fn push_continuous(&mut self, lv: LValue, rhs: EExpr, name: String) {
        let rhs = widen(&self.design, &rhs, lvalue_width(&self.design, &lv));
        let mut sigs = Vec::new();
        let mut mems = Vec::new();
        rhs.read_set(&mut sigs, &mut mems);
        lvalue_index_reads(&lv, &mut sigs, &mut mems);
        self.add_function_reads(
            &[Instr::Assign {
                lv: lv.clone(),
                rhs: rhs.clone(),
            }],
            &mut sigs,
            &mut mems,
        );
        sigs.sort_unstable();
        sigs.dedup();
        mems.sort_unstable();
        mems.dedup();
        let sens = Sensitivity {
            terms: sigs
                .into_iter()
                .map(|s| SensTerm {
                    expr: EExpr::Signal(s),
                    edge: None,
                })
                .collect(),
            mems,
        };
        let code = if sens.terms.is_empty() && sens.mems.is_empty() {
            // Constant RHS: assign once.
            vec![Instr::Assign { lv, rhs }, Instr::End]
        } else {
            vec![
                Instr::Assign { lv, rhs },
                Instr::WaitEvent(sens),
                Instr::Jump(0),
            ]
        };
        self.design.processes.push(Process {
            kind: ProcessKind::Continuous,
            name,
            code,
        });
    }

    fn elab_gate(
        &mut self,
        g: &ast::GateInstance,
        scope: &Scope,
        prefix: &str,
    ) -> Result<(), ElabError> {
        use ast::{BinaryOp, GateKind, UnaryOp};
        let out = self.elab_lvalue(&g.conns[0], scope, &[], false)?;
        let ins: Vec<EExpr> = g.conns[1..]
            .iter()
            .map(|e| self.elab_expr(e, scope, &[]))
            .collect::<Result<_, _>>()?;
        if ins.is_empty() {
            return Err(ElabError::new("gate has no inputs", g.span));
        }
        let fold = |op: BinaryOp, items: &[EExpr]| -> EExpr {
            let mut it = items.iter().cloned();
            let first = it.next().expect("non-empty inputs");
            it.fold(first, |acc, x| EExpr::Binary {
                op,
                lhs: Box::new(acc),
                rhs: Box::new(x),
            })
        };
        let invert = |e: EExpr| EExpr::Unary {
            op: UnaryOp::BitNot,
            arg: Box::new(e),
        };
        let rhs = match g.kind {
            GateKind::And => fold(BinaryOp::BitAnd, &ins),
            GateKind::Or => fold(BinaryOp::BitOr, &ins),
            GateKind::Xor => fold(BinaryOp::BitXor, &ins),
            GateKind::Nand => invert(fold(BinaryOp::BitAnd, &ins)),
            GateKind::Nor => invert(fold(BinaryOp::BitOr, &ins)),
            GateKind::Xnor => invert(fold(BinaryOp::BitXor, &ins)),
            GateKind::Not => {
                if ins.len() != 1 {
                    return Err(ElabError::new("`not` gate takes exactly one input", g.span));
                }
                invert(ins[0].clone())
            }
            GateKind::Buf => {
                if ins.len() != 1 {
                    return Err(ElabError::new("`buf` gate takes exactly one input", g.span));
                }
                ins[0].clone()
            }
        };
        let name = g.name.clone().unwrap_or_else(|| "gate".to_string());
        self.push_continuous(out, rhs, format!("{prefix}.{name}"));
        Ok(())
    }

    fn elab_instance(
        &mut self,
        inst: &ast::Instance,
        scope: &Scope,
        prefix: &str,
        depth: usize,
    ) -> Result<(), ElabError> {
        // Evaluate parameter overrides in the parent scope.
        let mut overrides = Vec::new();
        for c in &inst.params {
            match c {
                Connection::Named(n, Some(e)) => {
                    overrides.push((Some(n.clone()), self.const_expr(e, scope, &[])?));
                }
                Connection::Named(_, None) => {}
                Connection::Positional(e) => {
                    overrides.push((None, self.const_expr(e, scope, &[])?));
                }
            }
        }
        let child_prefix = if prefix.is_empty() {
            inst.name.clone()
        } else {
            format!("{prefix}.{}", inst.name)
        };
        let child_scope = self.instantiate(
            &inst.module,
            &child_prefix,
            &overrides,
            inst.span,
            depth + 1,
        )?;
        let child = self
            .module(&inst.module)
            .expect("instantiate verified the module exists");

        // Resolve connections to (port name, outer expr).
        let mut bindings: Vec<(String, &Expr)> = Vec::new();
        let mut positional = true;
        for c in &inst.conns {
            if matches!(c, Connection::Named(..)) {
                positional = false;
            }
        }
        if positional {
            if inst.conns.len() > child.ports.len() {
                return Err(ElabError::new(
                    format!(
                        "too many connections for `{}` ({} > {})",
                        inst.module,
                        inst.conns.len(),
                        child.ports.len()
                    ),
                    inst.span,
                ));
            }
            for (i, c) in inst.conns.iter().enumerate() {
                let Connection::Positional(e) = c else {
                    unreachable!("checked all-positional")
                };
                bindings.push((child.ports[i].clone(), e));
            }
        } else {
            for c in &inst.conns {
                match c {
                    Connection::Named(port, Some(e)) => {
                        if !child.ports.iter().any(|p| p == port) {
                            return Err(ElabError::new(
                                format!("module `{}` has no port `{port}`", inst.module),
                                inst.span,
                            ));
                        }
                        bindings.push((port.clone(), e));
                    }
                    Connection::Named(_, None) => {}
                    Connection::Positional(_) => {
                        return Err(ElabError::new(
                            "cannot mix named and positional connections",
                            inst.span,
                        ))
                    }
                }
            }
        }

        for (port, outer) in bindings {
            let Some(Sym::Signal(inner)) = child_scope.lookup(&port).cloned() else {
                return Err(ElabError::new(
                    format!("port `{port}` of `{}` is not a signal", inst.module),
                    inst.span,
                ));
            };
            // Find the port's direction from the child module declarations.
            let dir = child
                .items
                .iter()
                .find_map(|i| match i {
                    Item::Decl(d) if d.names.iter().any(|n| n.name == port) => d.dir,
                    _ => None,
                })
                .ok_or_else(|| {
                    ElabError::new(format!("port `{port}` has no direction"), inst.span)
                })?;
            match dir {
                PortDir::Input => {
                    let rhs = self.elab_expr(outer, scope, &[])?;
                    self.push_continuous(
                        LValue::Signal(inner),
                        rhs,
                        format!("{child_prefix}.port.{port}"),
                    );
                }
                PortDir::Output => {
                    let lv = self.elab_lvalue(outer, scope, &[], false)?;
                    self.push_continuous(
                        lv,
                        EExpr::Signal(inner),
                        format!("{child_prefix}.port.{port}"),
                    );
                }
                PortDir::Inout => {
                    return Err(ElabError::new("inout ports are not supported", inst.span))
                }
            }
        }
        Ok(())
    }

    // ----------------------------------------------------------- statements

    #[allow(clippy::only_used_in_recursion)]
    fn compile_stmt(
        &mut self,
        stmt: &Stmt,
        scope: &Scope,
        locals: &mut Vec<HashMap<String, Sym>>,
        code: &mut Vec<Instr>,
        prefix: &str,
    ) -> Result<(), ElabError> {
        self.check_cancel(stmt.span)?;
        match &stmt.kind {
            StmtKind::Block { name, decls, stmts } => {
                let mut frame = HashMap::new();
                for d in decls {
                    let range = match &d.range {
                        Some(r) => Some(self.const_range(r, scope)?),
                        None => None,
                    };
                    for n in &d.names {
                        let (width, signed, msb, lsb) = match d.kind {
                            Some(NetKind::Integer) => (32usize, true, 31i64, 0i64),
                            Some(NetKind::Time) => (64, false, 63, 0),
                            _ => {
                                let (msb, lsb) = range.unwrap_or((0, 0));
                                let width = (msb - lsb).unsigned_abs() as usize + 1;
                                (width, d.signed, msb, lsb)
                            }
                        };
                        if !n.dims.is_empty() {
                            return Err(ElabError::new(
                                "arrays inside blocks are not supported",
                                n.span,
                            ));
                        }
                        self.charge_signal_bits(width, n.span)?;
                        let id = SignalId(self.design.signals.len() as u32);
                        let block = name.clone().unwrap_or_else(|| "blk".to_string());
                        self.design.signals.push(Signal {
                            name: format!("{prefix}.{block}.{}", n.name),
                            width,
                            signed,
                            class: SignalClass::Var,
                            msb,
                            lsb,
                        });
                        frame.insert(n.name.clone(), Sym::Signal(id));
                    }
                }
                locals.push(frame);
                for s in stmts {
                    self.compile_stmt(s, scope, locals, code, prefix)?;
                }
                locals.pop();
            }
            StmtKind::Assign {
                lhs,
                op,
                delay,
                rhs,
            } => {
                let lv = self.elab_lvalue(lhs, scope, locals, true)?;
                let rhs = self.elab_expr_local(rhs, scope, locals)?;
                let rhs = widen(&self.design, &rhs, lvalue_width(&self.design, &lv));
                match delay {
                    None => match op {
                        AssignOp::Blocking => code.push(Instr::Assign { lv, rhs }),
                        AssignOp::NonBlocking => code.push(Instr::AssignNba { lv, rhs }),
                    },
                    Some(d) => {
                        // Intra-assignment delay: evaluate now, wait, write.
                        // (For `<=` this blocks the process — a documented
                        // simplification; the benchmark set never uses it.)
                        let amount = self.elab_expr_local(d, scope, locals)?;
                        let tmp = self.alloc_temp(prefix)?;
                        code.push(Instr::Assign {
                            lv: LValue::Signal(tmp),
                            rhs,
                        });
                        code.push(Instr::Delay(amount));
                        let read = EExpr::Signal(tmp);
                        match op {
                            AssignOp::Blocking => code.push(Instr::Assign { lv, rhs: read }),
                            AssignOp::NonBlocking => code.push(Instr::AssignNba { lv, rhs: read }),
                        }
                    }
                }
            }
            StmtKind::If { cond, then, els } => {
                let cond = self.elab_expr_local(cond, scope, locals)?;
                let jif = code.len();
                code.push(Instr::Jump(0)); // placeholder
                self.compile_stmt(then, scope, locals, code, prefix)?;
                match els {
                    None => {
                        let end = code.len();
                        code[jif] = Instr::JumpIfFalse { cond, target: end };
                    }
                    Some(e) => {
                        let jend = code.len();
                        code.push(Instr::Jump(0)); // placeholder
                        let else_start = code.len();
                        code[jif] = Instr::JumpIfFalse {
                            cond,
                            target: else_start,
                        };
                        self.compile_stmt(e, scope, locals, code, prefix)?;
                        let end = code.len();
                        code[jend] = Instr::Jump(end);
                    }
                }
            }
            StmtKind::Case { kind, expr, arms } => {
                self.compile_case(*kind, expr, arms, scope, locals, code, prefix)?;
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                let init_lv = self.elab_lvalue(&init.0, scope, locals, true)?;
                let init_rhs = self.elab_expr_local(&init.1, scope, locals)?;
                code.push(Instr::Assign {
                    lv: init_lv,
                    rhs: init_rhs,
                });
                let loop_top = code.len();
                let cond = self.elab_expr_local(cond, scope, locals)?;
                let jexit = code.len();
                code.push(Instr::Jump(0)); // placeholder
                self.compile_stmt(body, scope, locals, code, prefix)?;
                let step_lv = self.elab_lvalue(&step.0, scope, locals, true)?;
                let step_rhs = self.elab_expr_local(&step.1, scope, locals)?;
                code.push(Instr::Assign {
                    lv: step_lv,
                    rhs: step_rhs,
                });
                code.push(Instr::Jump(loop_top));
                let end = code.len();
                code[jexit] = Instr::JumpIfFalse { cond, target: end };
            }
            StmtKind::While { cond, body } => {
                let loop_top = code.len();
                let cond = self.elab_expr_local(cond, scope, locals)?;
                let jexit = code.len();
                code.push(Instr::Jump(0));
                self.compile_stmt(body, scope, locals, code, prefix)?;
                code.push(Instr::Jump(loop_top));
                let end = code.len();
                code[jexit] = Instr::JumpIfFalse { cond, target: end };
            }
            StmtKind::Repeat { count, body } => {
                // counter = count; while (counter > 0) { body; counter-- }
                let count = self.elab_expr_local(count, scope, locals)?;
                let counter = self.alloc_temp(prefix)?;
                code.push(Instr::Assign {
                    lv: LValue::Signal(counter),
                    rhs: count,
                });
                let loop_top = code.len();
                let cond = EExpr::Binary {
                    op: ast::BinaryOp::Gt,
                    lhs: Box::new(EExpr::Signal(counter)),
                    rhs: Box::new(EExpr::Const(LogicVec::zero(TEMP_WIDTH))),
                };
                let jexit = code.len();
                code.push(Instr::Jump(0));
                self.compile_stmt(body, scope, locals, code, prefix)?;
                code.push(Instr::Assign {
                    lv: LValue::Signal(counter),
                    rhs: EExpr::Binary {
                        op: ast::BinaryOp::Sub,
                        lhs: Box::new(EExpr::Signal(counter)),
                        rhs: Box::new(EExpr::Const(LogicVec::from_u64(1, TEMP_WIDTH))),
                    },
                });
                code.push(Instr::Jump(loop_top));
                let end = code.len();
                code[jexit] = Instr::JumpIfFalse { cond, target: end };
            }
            StmtKind::Forever { body } => {
                let loop_top = code.len();
                self.compile_stmt(body, scope, locals, code, prefix)?;
                code.push(Instr::Jump(loop_top));
            }
            StmtKind::Delay { amount, stmt } => {
                let amount = self.elab_expr_local(amount, scope, locals)?;
                code.push(Instr::Delay(amount));
                if let Some(s) = stmt {
                    self.compile_stmt(s, scope, locals, code, prefix)?;
                }
            }
            StmtKind::Event { control, stmt } => {
                let sens = self.elab_event_control(control, scope, locals, stmt.as_deref())?;
                code.push(Instr::WaitEvent(sens));
                if let Some(s) = stmt {
                    self.compile_stmt(s, scope, locals, code, prefix)?;
                }
            }
            StmtKind::Wait { cond, stmt } => {
                let cond = self.elab_expr_local(cond, scope, locals)?;
                code.push(Instr::WaitCond(cond));
                if let Some(s) = stmt {
                    self.compile_stmt(s, scope, locals, code, prefix)?;
                }
            }
            StmtKind::SysCall { name, args } => {
                let args: Vec<EExpr> = args
                    .iter()
                    .map(|a| self.elab_expr_local(a, scope, locals))
                    .collect::<Result<_, _>>()?;
                code.push(Instr::SysCall {
                    name: name.clone(),
                    args,
                });
            }
            StmtKind::TaskCall { name, .. } => {
                return Err(ElabError::new(
                    format!("user task `{name}` is not supported"),
                    stmt.span,
                ))
            }
            StmtKind::Disable(_) => {
                return Err(ElabError::new("`disable` is not supported", stmt.span))
            }
            StmtKind::Null => {}
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn compile_case(
        &mut self,
        kind: CaseKind,
        selector: &Expr,
        arms: &[ast::CaseArm],
        scope: &Scope,
        locals: &mut Vec<HashMap<String, Sym>>,
        code: &mut Vec<Instr>,
        prefix: &str,
    ) -> Result<(), ElabError> {
        let sel = self.elab_expr_local(selector, scope, locals)?;
        // Layout: per non-default arm, a run of match tests that jump to the
        // arm body; then a jump to the default body (or end); then bodies.
        struct Pending {
            jump_to_body_at: Vec<usize>,
        }
        let mut pendings: Vec<Pending> = Vec::new();
        let mut default_arm: Option<usize> = None;
        for (i, arm) in arms.iter().enumerate() {
            if arm.labels.is_empty() {
                if default_arm.is_some() {
                    return Err(ElabError::new(
                        "multiple `default` arms in case",
                        selector.span,
                    ));
                }
                default_arm = Some(i);
                pendings.push(Pending {
                    jump_to_body_at: vec![],
                });
                continue;
            }
            let mut jumps = Vec::new();
            for label in &arm.labels {
                let label = self.elab_expr_local(label, scope, locals)?;
                let test_at = code.len();
                code.push(Instr::JumpIfNoMatch {
                    kind,
                    sel: sel.clone(),
                    label,
                    target: test_at + 2,
                });
                jumps.push(code.len());
                code.push(Instr::Jump(0)); // to body, patched below
            }
            pendings.push(Pending {
                jump_to_body_at: jumps,
            });
        }
        // No label matched: jump to default body or past everything.
        let no_match_jump = code.len();
        code.push(Instr::Jump(0));

        // Emit bodies.
        let mut body_starts = vec![0usize; arms.len()];
        let mut end_jumps = Vec::new();
        for (i, arm) in arms.iter().enumerate() {
            body_starts[i] = code.len();
            self.compile_stmt(&arm.body, scope, locals, code, prefix)?;
            end_jumps.push(code.len());
            code.push(Instr::Jump(0));
        }
        let end = code.len();
        for j in end_jumps {
            code[j] = Instr::Jump(end);
        }
        for (i, p) in pendings.iter().enumerate() {
            for &at in &p.jump_to_body_at {
                code[at] = Instr::Jump(body_starts[i]);
            }
        }
        code[no_match_jump] = Instr::Jump(match default_arm {
            Some(d) => body_starts[d],
            None => end,
        });
        Ok(())
    }

    fn elab_event_control(
        &mut self,
        control: &ast::EventControl,
        scope: &Scope,
        locals: &mut Vec<HashMap<String, Sym>>,
        body: Option<&Stmt>,
    ) -> Result<Sensitivity, ElabError> {
        match control {
            ast::EventControl::List(terms) => {
                let mut out = Vec::new();
                for t in terms {
                    out.push(SensTerm {
                        expr: self.elab_expr_local(&t.expr, scope, locals)?,
                        edge: t.edge,
                    });
                }
                Ok(Sensitivity {
                    terms: out,
                    mems: vec![],
                })
            }
            ast::EventControl::Star => {
                // Sensitivity = everything the body reads. Compile the body
                // into scratch code to collect the read set.
                let mut sigs = Vec::new();
                let mut mems = Vec::new();
                if let Some(b) = body {
                    let mut scratch = Vec::new();
                    self.compile_stmt(b, scope, locals, &mut scratch, "@*")?;
                    for instr in &scratch {
                        instr_reads(instr, &mut sigs, &mut mems);
                    }
                    self.add_function_reads(&scratch, &mut sigs, &mut mems);
                }
                sigs.sort_unstable();
                sigs.dedup();
                mems.sort_unstable();
                mems.dedup();
                Ok(Sensitivity {
                    terms: sigs
                        .into_iter()
                        .map(|s| SensTerm {
                            expr: EExpr::Signal(s),
                            edge: None,
                        })
                        .collect(),
                    mems,
                })
            }
        }
    }

    fn alloc_temp(&mut self, prefix: &str) -> Result<SignalId, ElabError> {
        self.charge_signal_bits(TEMP_WIDTH, Span::default())?;
        let id = SignalId(self.design.signals.len() as u32);
        self.temp_counter += 1;
        self.design.signals.push(Signal {
            name: format!("{prefix}.$tmp{}", self.temp_counter),
            width: TEMP_WIDTH,
            signed: false,
            class: SignalClass::Var,
            msb: TEMP_WIDTH as i64 - 1,
            lsb: 0,
        });
        Ok(id)
    }

    // ---------------------------------------------------------- expressions

    fn lookup<'s>(
        scope: &'s Scope,
        locals: &'s [HashMap<String, Sym>],
        name: &str,
    ) -> Option<&'s Sym> {
        for frame in locals.iter().rev() {
            if let Some(s) = frame.get(name) {
                return Some(s);
            }
        }
        scope.lookup(name)
    }

    fn elab_expr(
        &mut self,
        e: &Expr,
        scope: &Scope,
        locals: &[HashMap<String, Sym>],
    ) -> Result<EExpr, ElabError> {
        match &e.kind {
            ExprKind::Number(v) => Ok(EExpr::Const(v.clone())),
            ExprKind::Str(s) => Ok(EExpr::Str(s.clone())),
            ExprKind::Real(t) => {
                // Reals only appear as delays in practice; round to integer.
                let v: f64 = t
                    .parse()
                    .map_err(|_| ElabError::new(format!("bad real literal `{t}`"), e.span))?;
                Ok(EExpr::Const(LogicVec::from_u64(v.round() as u64, 64)))
            }
            ExprKind::Ident(name) => match Self::lookup(scope, locals, name) {
                Some(Sym::Signal(id)) => Ok(EExpr::Signal(*id)),
                Some(Sym::Param(v)) => Ok(EExpr::Const(v.clone())),
                Some(Sym::Memory(_)) => Err(ElabError::new(
                    format!("memory `{name}` used without an index"),
                    e.span,
                )),
                None => Err(ElabError::new(
                    format!("undeclared identifier `{name}`"),
                    e.span,
                )),
            },
            ExprKind::Index { base, index } => {
                let idx = self.elab_expr(index, scope, locals)?;
                let sel_base = self.elab_select_base(base, scope, locals)?;
                match sel_base {
                    // `mem[i]` is a word read, not a bit select.
                    PendingBase::Memory(mem) => Ok(EExpr::Read(SelectBase::MemWord {
                        mem,
                        index: Box::new(idx),
                    })),
                    PendingBase::Resolved(b) => Ok(EExpr::BitSelect {
                        base: b,
                        index: Box::new(idx),
                    }),
                }
            }
            ExprKind::PartSelect { base, msb, lsb } => {
                let msb = self.const_i64(msb, scope, locals)?;
                let lsb = self.const_i64(lsb, scope, locals)?;
                let b = self.resolved_base(base, scope, locals)?;
                self.check_part_select(&b, msb, lsb, e.span)?;
                Ok(EExpr::PartSelect { base: b, msb, lsb })
            }
            ExprKind::IndexedSelect {
                base,
                start,
                width,
                ascending,
            } => {
                let start = self.elab_expr(start, scope, locals)?;
                let width = self.const_usize(width, scope, locals)?;
                if width == 0 {
                    return Err(ElabError::new("zero-width part select", e.span));
                }
                if width > MAX_SIGNAL_BITS {
                    return Err(ElabError::new(
                        format!(
                            "part select width {width} exceeds the {MAX_SIGNAL_BITS}-bit limit"
                        ),
                        e.span,
                    ));
                }
                let b = self.resolved_base(base, scope, locals)?;
                Ok(EExpr::IndexedSelect {
                    base: b,
                    start: Box::new(start),
                    width,
                    ascending: *ascending,
                })
            }
            ExprKind::Unary { op, arg } => Ok(EExpr::Unary {
                op: *op,
                arg: Box::new(self.elab_expr(arg, scope, locals)?),
            }),
            ExprKind::Binary { op, lhs, rhs } => Ok(EExpr::Binary {
                op: *op,
                lhs: Box::new(self.elab_expr(lhs, scope, locals)?),
                rhs: Box::new(self.elab_expr(rhs, scope, locals)?),
            }),
            ExprKind::Ternary { cond, then, els } => Ok(EExpr::Ternary {
                cond: Box::new(self.elab_expr(cond, scope, locals)?),
                then: Box::new(self.elab_expr(then, scope, locals)?),
                els: Box::new(self.elab_expr(els, scope, locals)?),
            }),
            ExprKind::Concat(items) => {
                let items: Vec<EExpr> = items
                    .iter()
                    .map(|i| self.elab_expr(i, scope, locals))
                    .collect::<Result<_, _>>()?;
                Ok(EExpr::Concat(items))
            }
            ExprKind::Replicate { count, items } => {
                let count = self.const_usize(count, scope, locals)?;
                if count == 0 {
                    return Err(ElabError::new("zero replication count", e.span));
                }
                if count > MAX_SIGNAL_BITS {
                    return Err(ElabError::new(
                        format!("replication count {count} exceeds the {MAX_SIGNAL_BITS} limit"),
                        e.span,
                    ));
                }
                let items: Vec<EExpr> = items
                    .iter()
                    .map(|i| self.elab_expr(i, scope, locals))
                    .collect::<Result<_, _>>()?;
                Ok(EExpr::Replicate { count, items })
            }
            ExprKind::SysCall { name, args } => {
                let args: Vec<EExpr> = args
                    .iter()
                    .map(|a| self.elab_expr(a, scope, locals))
                    .collect::<Result<_, _>>()?;
                Ok(EExpr::SysCall {
                    name: name.clone(),
                    args,
                })
            }
            ExprKind::Call { name, args } => {
                let Some(&idx) = scope.funcs.get(name) else {
                    return Err(ElabError::new(format!("unknown function `{name}`"), e.span));
                };
                let arity = self.design.functions[idx as usize].params.len();
                if args.len() != arity {
                    return Err(ElabError::new(
                        format!(
                            "function `{name}` takes {arity} arguments, got {}",
                            args.len()
                        ),
                        e.span,
                    ));
                }
                let args: Vec<EExpr> = args
                    .iter()
                    .map(|a| self.elab_expr(a, scope, locals))
                    .collect::<Result<_, _>>()?;
                Ok(EExpr::FuncCall { func: idx, args })
            }
        }
    }

    fn elab_expr_local(
        &mut self,
        e: &Expr,
        scope: &Scope,
        locals: &[HashMap<String, Sym>],
    ) -> Result<EExpr, ElabError> {
        self.elab_expr(e, scope, locals)
    }

    fn resolved_base(
        &mut self,
        base: &Expr,
        scope: &Scope,
        locals: &[HashMap<String, Sym>],
    ) -> Result<SelectBase, ElabError> {
        match self.elab_select_base(base, scope, locals)? {
            PendingBase::Resolved(b) => Ok(b),
            PendingBase::Memory(_) => Err(ElabError::new(
                "part select directly on a memory needs a word index",
                base.span,
            )),
        }
    }

    fn elab_select_base(
        &mut self,
        base: &Expr,
        scope: &Scope,
        locals: &[HashMap<String, Sym>],
    ) -> Result<PendingBase, ElabError> {
        match &base.kind {
            ExprKind::Ident(name) => match Self::lookup(scope, locals, name) {
                Some(Sym::Signal(id)) => Ok(PendingBase::Resolved(SelectBase::Signal(*id))),
                Some(Sym::Memory(id)) => Ok(PendingBase::Memory(*id)),
                Some(Sym::Param(_)) => Err(ElabError::new(
                    format!("cannot select bits of parameter `{name}`"),
                    base.span,
                )),
                None => Err(ElabError::new(
                    format!("undeclared identifier `{name}`"),
                    base.span,
                )),
            },
            ExprKind::Index { base: inner, index } => {
                // `mem[i][b]`: inner index must resolve to a memory word.
                let idx = self.elab_expr(index, scope, locals)?;
                match self.elab_select_base(inner, scope, locals)? {
                    PendingBase::Memory(mem) => Ok(PendingBase::Resolved(SelectBase::MemWord {
                        mem,
                        index: Box::new(idx),
                    })),
                    PendingBase::Resolved(_) => Err(ElabError::new(
                        "select of a bit-select is not supported",
                        base.span,
                    )),
                }
            }
            _ => Err(ElabError::new(
                "can only select bits of a signal or memory word",
                base.span,
            )),
        }
    }

    fn check_part_select(
        &self,
        base: &SelectBase,
        msb: i64,
        lsb: i64,
        span: Span,
    ) -> Result<(), ElabError> {
        if let SelectBase::Signal(id) = base {
            let sig = self.design.signal(*id);
            if sig.bit_position(msb).is_none() || sig.bit_position(lsb).is_none() {
                return Err(ElabError::new(
                    format!(
                        "part select [{msb}:{lsb}] out of range for `{}` [{}:{}]",
                        sig.name, sig.msb, sig.lsb
                    ),
                    span,
                ));
            }
            let pm = sig.bit_position(msb).expect("checked");
            let pl = sig.bit_position(lsb).expect("checked");
            if pm < pl {
                return Err(ElabError::new(
                    format!("reversed part select [{msb}:{lsb}] on `{}`", sig.name),
                    span,
                ));
            }
        }
        Ok(())
    }

    fn elab_lvalue(
        &mut self,
        e: &Expr,
        scope: &Scope,
        locals: &[HashMap<String, Sym>],
        procedural: bool,
    ) -> Result<LValue, ElabError> {
        let lv =
            match &e.kind {
                ExprKind::Ident(name) => match Self::lookup(scope, locals, name) {
                    Some(Sym::Signal(id)) => LValue::Signal(*id),
                    Some(Sym::Memory(_)) => {
                        return Err(ElabError::new(
                            format!("cannot assign whole memory `{name}`"),
                            e.span,
                        ))
                    }
                    Some(Sym::Param(_)) => {
                        return Err(ElabError::new(
                            format!("cannot assign to parameter `{name}`"),
                            e.span,
                        ))
                    }
                    None => {
                        return Err(ElabError::new(
                            format!("undeclared identifier `{name}`"),
                            e.span,
                        ))
                    }
                },
                ExprKind::Index { base, index } => {
                    let idx = self.elab_expr(index, scope, locals)?;
                    match self.elab_select_base(base, scope, locals)? {
                        PendingBase::Memory(mem) => LValue::MemWord { mem, index: idx },
                        PendingBase::Resolved(SelectBase::Signal(sig)) => {
                            LValue::BitSelect { sig, index: idx }
                        }
                        PendingBase::Resolved(SelectBase::MemWord { mem, index }) => {
                            // `mem[i][b] = ...` — read-modify-write of one bit of
                            // a word is not supported as an lvalue.
                            let _ = (mem, index);
                            return Err(ElabError::new(
                                "bit select of a memory word as assignment target is not supported",
                                e.span,
                            ));
                        }
                    }
                }
                ExprKind::PartSelect { base, msb, lsb } => {
                    let msb = self.const_i64(msb, scope, locals)?;
                    let lsb = self.const_i64(lsb, scope, locals)?;
                    let b = self.resolved_base(base, scope, locals)?;
                    self.check_part_select(&b, msb, lsb, e.span)?;
                    match b {
                        SelectBase::Signal(sig) => LValue::PartSelect { sig, msb, lsb },
                        SelectBase::MemWord { .. } => return Err(ElabError::new(
                            "part select of a memory word as assignment target is not supported",
                            e.span,
                        )),
                    }
                }
                ExprKind::IndexedSelect {
                    base,
                    start,
                    width,
                    ascending,
                } => {
                    let start = self.elab_expr(start, scope, locals)?;
                    let width = self.const_usize(width, scope, locals)?;
                    if width > MAX_SIGNAL_BITS {
                        return Err(ElabError::new(
                            format!(
                                "part select width {width} exceeds the {MAX_SIGNAL_BITS}-bit limit"
                            ),
                            e.span,
                        ));
                    }
                    match self.resolved_base(base, scope, locals)? {
                        SelectBase::Signal(sig) => LValue::IndexedSelect {
                            sig,
                            start,
                            width,
                            ascending: *ascending,
                        },
                        SelectBase::MemWord { .. } => return Err(ElabError::new(
                            "indexed select of a memory word as assignment target is not supported",
                            e.span,
                        )),
                    }
                }
                ExprKind::Concat(items) => {
                    let items: Vec<LValue> = items
                        .iter()
                        .map(|i| self.elab_lvalue(i, scope, locals, procedural))
                        .collect::<Result<_, _>>()?;
                    LValue::Concat(items)
                }
                _ => {
                    return Err(ElabError::new(
                        "expression is not a valid assignment target",
                        e.span,
                    ))
                }
            };
        // Net/variable legality.
        let mut sigs = Vec::new();
        lv.written_signals(&mut sigs);
        for s in sigs {
            let sig = self.design.signal(s);
            match (procedural, sig.class) {
                (true, SignalClass::Net) => {
                    return Err(ElabError::new(
                        format!(
                            "`{}` is a wire; procedural assignment requires a reg",
                            sig.name
                        ),
                        e.span,
                    ))
                }
                (false, SignalClass::Var) => {
                    return Err(ElabError::new(
                        format!(
                            "`{}` is a reg; continuous assignment requires a wire",
                            sig.name
                        ),
                        e.span,
                    ))
                }
                _ => {}
            }
        }
        Ok(lv)
    }

    // ------------------------------------------------------------ constants

    fn const_expr(
        &mut self,
        e: &Expr,
        scope: &Scope,
        locals: &[HashMap<String, Sym>],
    ) -> Result<LogicVec, ElabError> {
        let ee = self.elab_expr(e, scope, locals)?;
        fold_const(&ee).ok_or_else(|| ElabError::new("expression must be constant here", e.span))
    }

    fn const_i64(
        &mut self,
        e: &Expr,
        scope: &Scope,
        locals: &[HashMap<String, Sym>],
    ) -> Result<i64, ElabError> {
        let v = self.const_expr(e, scope, locals)?;
        v.to_i64()
            .ok_or_else(|| ElabError::new("constant contains x/z where a number is needed", e.span))
    }

    fn const_usize(
        &mut self,
        e: &Expr,
        scope: &Scope,
        locals: &[HashMap<String, Sym>],
    ) -> Result<usize, ElabError> {
        let v = self.const_i64(e, scope, locals)?;
        usize::try_from(v).map_err(|_| ElabError::new("constant must be non-negative", e.span))
    }

    fn const_range(&mut self, r: &ast::Range, scope: &Scope) -> Result<(i64, i64), ElabError> {
        let msb = self.const_i64(&r.msb, scope, &[])?;
        let lsb = self.const_i64(&r.lsb, scope, &[])?;
        // Reject absurd spans here (i128 arithmetic: `msb - lsb` on the raw
        // i64s could itself overflow on hostile inputs) so every downstream
        // `(msb - lsb).unsigned_abs() + 1` width computation is safe.
        let span_bits = (msb as i128 - lsb as i128).unsigned_abs() + 1;
        if span_bits > MAX_SIGNAL_BITS as u128 {
            return Err(ElabError::new(
                format!("range [{msb}:{lsb}] exceeds the {MAX_SIGNAL_BITS}-bit limit"),
                r.msb.span,
            ));
        }
        Ok((msb, lsb))
    }
}

enum PendingBase {
    Resolved(SelectBase),
    Memory(MemoryId),
}

/// Static width of an lvalue (all select widths are compile-time constants).
fn lvalue_width(design: &Design, lv: &LValue) -> usize {
    match lv {
        LValue::Signal(id) => design.signal(*id).width,
        LValue::BitSelect { .. } => 1,
        LValue::PartSelect { msb, lsb, .. } => (*msb - *lsb).unsigned_abs() as usize + 1,
        LValue::IndexedSelect { width, .. } => *width,
        LValue::MemWord { mem, .. } => design.memory(*mem).width,
        LValue::Concat(items) => items.iter().map(|i| lvalue_width(design, i)).sum(),
    }
}

/// Context-determined width propagation (IEEE 1364 §5.4, simplified):
/// extends the operands of arithmetic/bitwise/conditional operators to the
/// assignment context width `w`, so e.g. `{carry, sum} = a + b` computes the
/// sum at 2 bits. Self-determined constructs (concats, shifts' right
/// operand, comparisons, reductions) are left alone.
fn widen(design: &Design, e: &EExpr, w: usize) -> EExpr {
    use vgen_verilog::ast::{BinaryOp, UnaryOp};
    let self_width = expr_width(design, e);
    match e {
        EExpr::Const(v) => {
            if v.width() < w {
                EExpr::Const(v.resize(w))
            } else {
                e.clone()
            }
        }
        EExpr::Unary { op, arg } => match op {
            UnaryOp::Plus | UnaryOp::Neg | UnaryOp::BitNot => EExpr::Unary {
                op: *op,
                arg: Box::new(widen(design, arg, w)),
            },
            _ => e.clone(), // reductions and ! are self-determined 1-bit
        },
        EExpr::Binary { op, lhs, rhs } => match op {
            BinaryOp::Add
            | BinaryOp::Sub
            | BinaryOp::Mul
            | BinaryOp::Div
            | BinaryOp::Rem
            | BinaryOp::BitAnd
            | BinaryOp::BitOr
            | BinaryOp::BitXor
            | BinaryOp::BitXnor => EExpr::Binary {
                op: *op,
                lhs: Box::new(widen(design, lhs, w)),
                rhs: Box::new(widen(design, rhs, w)),
            },
            BinaryOp::Shl | BinaryOp::Shr | BinaryOp::AShl | BinaryOp::AShr | BinaryOp::Pow => {
                EExpr::Binary {
                    op: *op,
                    lhs: Box::new(widen(design, lhs, w)),
                    rhs: rhs.clone(),
                }
            }
            _ => e.clone(), // comparisons/logical ops are 1-bit results
        },
        EExpr::Ternary { cond, then, els } => EExpr::Ternary {
            cond: cond.clone(),
            then: Box::new(widen(design, then, w)),
            els: Box::new(widen(design, els, w)),
        },
        // Leaves and self-determined constructs: extend the value itself.
        _ => {
            if self_width > 0 && self_width < w {
                EExpr::Resize {
                    width: w,
                    arg: Box::new(e.clone()),
                }
            } else {
                e.clone()
            }
        }
    }
}

/// Best-effort static width of an expression; 0 when unknown.
fn expr_width(design: &Design, e: &EExpr) -> usize {
    use vgen_verilog::ast::{BinaryOp, UnaryOp};
    match e {
        EExpr::Const(v) => v.width(),
        EExpr::Str(_) => 0,
        EExpr::Signal(id) => design.signal(*id).width,
        EExpr::Read(base) => match base {
            SelectBase::Signal(id) => design.signal(*id).width,
            SelectBase::MemWord { mem, .. } => design.memory(*mem).width,
        },
        EExpr::BitSelect { .. } => 1,
        EExpr::PartSelect { msb, lsb, .. } => (*msb - *lsb).unsigned_abs() as usize + 1,
        EExpr::IndexedSelect { width, .. } => *width,
        EExpr::Resize { width, arg } => (*width).max(expr_width(design, arg)),
        EExpr::Unary { op, arg } => match op {
            UnaryOp::Plus | UnaryOp::Neg | UnaryOp::BitNot => expr_width(design, arg),
            _ => 1,
        },
        EExpr::Binary { op, lhs, rhs } => match op {
            BinaryOp::Add
            | BinaryOp::Sub
            | BinaryOp::Mul
            | BinaryOp::Div
            | BinaryOp::Rem
            | BinaryOp::BitAnd
            | BinaryOp::BitOr
            | BinaryOp::BitXor
            | BinaryOp::BitXnor => expr_width(design, lhs).max(expr_width(design, rhs)),
            BinaryOp::Shl | BinaryOp::Shr | BinaryOp::AShl | BinaryOp::AShr | BinaryOp::Pow => {
                expr_width(design, lhs)
            }
            _ => 1,
        },
        EExpr::Ternary { then, els, .. } => expr_width(design, then).max(expr_width(design, els)),
        EExpr::Concat(items) => items.iter().map(|i| expr_width(design, i)).sum(),
        EExpr::Replicate { count, items } => {
            items.iter().map(|i| expr_width(design, i)).sum::<usize>() * count
        }
        EExpr::SysCall { name, args } => match name.as_str() {
            "time" | "stime" | "realtime" => 64,
            "random" | "urandom" | "clog2" => 32,
            "signed" | "unsigned" => args.first().map(|a| expr_width(design, a)).unwrap_or(0),
            _ => 0,
        },
        EExpr::FuncCall { func, .. } => design
            .functions
            .get(*func as usize)
            .map(|f| design.signal(f.ret).width)
            .unwrap_or(0),
    }
}

/// Folds an elaborated expression to a constant if it reads no state.
pub fn fold_const(e: &EExpr) -> Option<LogicVec> {
    match e {
        EExpr::Const(v) => Some(v.clone()),
        EExpr::Unary { op, arg } => Some(op.apply(&fold_const(arg)?)),
        EExpr::Binary { op, lhs, rhs } => Some(op.apply(&fold_const(lhs)?, &fold_const(rhs)?)),
        EExpr::Ternary { cond, then, els } => {
            let c = fold_const(cond)?;
            match c.truthiness() {
                Some(true) => fold_const(then),
                Some(false) => fold_const(els),
                None => None,
            }
        }
        EExpr::Concat(items) => {
            let mut acc: Option<LogicVec> = None;
            for i in items {
                let v = fold_const(i)?;
                acc = Some(match acc {
                    None => v,
                    Some(a) => a.concat(&v),
                });
            }
            acc
        }
        EExpr::Replicate { count, items } => {
            let mut acc: Option<LogicVec> = None;
            for i in items {
                let v = fold_const(i)?;
                acc = Some(match acc {
                    None => v,
                    Some(a) => a.concat(&v),
                });
            }
            acc.map(|a| a.replicate(*count))
        }
        EExpr::SysCall { name, args } => match (name.as_str(), args.len()) {
            ("signed", 1) => Some(fold_const(&args[0])?.with_signed(true)),
            ("unsigned", 1) => Some(fold_const(&args[0])?.with_signed(false)),
            _ => None,
        },
        _ => None,
    }
}

fn lvalue_index_reads(lv: &LValue, sigs: &mut Vec<SignalId>, mems: &mut Vec<MemoryId>) {
    match lv {
        LValue::Signal(_) | LValue::PartSelect { .. } => {}
        LValue::BitSelect { index, .. } => index.read_set(sigs, mems),
        LValue::IndexedSelect { start, .. } => start.read_set(sigs, mems),
        LValue::MemWord { index, .. } => index.read_set(sigs, mems),
        LValue::Concat(items) => {
            for i in items {
                lvalue_index_reads(i, sigs, mems);
            }
        }
    }
}

fn instr_reads(instr: &Instr, sigs: &mut Vec<SignalId>, mems: &mut Vec<MemoryId>) {
    match instr {
        Instr::Assign { lv, rhs } | Instr::AssignNba { lv, rhs } => {
            rhs.read_set(sigs, mems);
            lvalue_index_reads(lv, sigs, mems);
        }
        Instr::JumpIfFalse { cond, .. } => cond.read_set(sigs, mems),
        Instr::JumpIfNoMatch { sel, label, .. } => {
            sel.read_set(sigs, mems);
            label.read_set(sigs, mems);
        }
        Instr::SysCall { args, .. } => {
            for a in args {
                a.read_set(sigs, mems);
            }
        }
        Instr::WaitCond(c) => c.read_set(sigs, mems),
        Instr::Jump(_) | Instr::Delay(_) | Instr::WaitEvent(_) | Instr::End => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgen_verilog::parse;

    fn elab(src: &str) -> Result<Design, ElabError> {
        let f = parse(src).expect("parse");
        elaborate_first(&f)
    }

    fn elab_ok(src: &str) -> Design {
        match elab(src) {
            Ok(d) => d,
            Err(e) => panic!("elaboration failed: {e}\nsource:\n{src}"),
        }
    }

    #[test]
    fn simple_assign() {
        let d = elab_ok("module m(input a, output y); assign y = ~a; endmodule");
        assert_eq!(d.signals.len(), 2);
        assert_eq!(d.processes.len(), 1);
        assert_eq!(d.processes[0].kind, ProcessKind::Continuous);
    }

    #[test]
    fn register_widths_from_ranges() {
        let d = elab_ok(
            "module m(input clk, output reg [3:0] q); always @(posedge clk) q <= q + 1; endmodule",
        );
        let q = d.signal_by_name("q").expect("q");
        assert_eq!(d.signal(q).width, 4);
        assert_eq!(d.signal(q).class, SignalClass::Var);
    }

    #[test]
    fn parameters_fold() {
        let d = elab_ok(
            "module m; parameter W = 4; parameter D = W * 2; reg [D-1:0] r; initial r = 0; endmodule",
        );
        let r = d.signal_by_name("r").expect("r");
        assert_eq!(d.signal(r).width, 8);
    }

    #[test]
    fn memory_allocation() {
        let d = elab_ok("module m; reg [7:0] mem [0:63]; initial mem[0] = 8'hFF; endmodule");
        assert_eq!(d.memories.len(), 1);
        assert_eq!(d.memory(MemoryId(0)).depth(), 64);
        assert_eq!(d.memory(MemoryId(0)).width, 8);
    }

    #[test]
    fn integer_is_32bit_signed() {
        let d = elab_ok("module m; integer i; initial i = -1; endmodule");
        let i = d.signal_by_name("i").expect("i");
        assert_eq!(d.signal(i).width, 32);
        assert!(d.signal(i).signed);
    }

    #[test]
    fn split_port_declaration_merges() {
        let d = elab_ok("module m(q);\noutput q;\nreg q;\ninitial q = 0;\nendmodule");
        let q = d.signal_by_name("q").expect("q");
        assert_eq!(d.signal(q).class, SignalClass::Var);
    }

    #[test]
    fn error_undeclared_identifier() {
        let e = elab("module m(output y); assign y = nothere; endmodule");
        assert!(e.is_err());
        assert!(e.expect_err("err").message.contains("undeclared"));
    }

    #[test]
    fn error_procedural_assign_to_wire() {
        let e = elab("module m(input a, output y); always @(a) y = a; endmodule");
        assert!(e.expect_err("err").message.contains("wire"));
    }

    #[test]
    fn error_continuous_assign_to_reg() {
        let e = elab("module m(input a); reg r; assign r = a; endmodule");
        assert!(e.expect_err("err").message.contains("reg"));
    }

    #[test]
    fn error_input_reg() {
        let e = elab("module m(input reg a); endmodule");
        assert!(e.is_err());
    }

    #[test]
    fn error_part_select_out_of_range() {
        let e = elab("module m(input [3:0] a, output y); assign y = a[7:4]; endmodule");
        assert!(e.expect_err("err").message.contains("out of range"));
    }

    #[test]
    fn error_unknown_module() {
        let e = elab("module m; missing u1(); endmodule");
        assert!(e.expect_err("err").message.contains("unknown module"));
    }

    #[test]
    fn error_undirected_port() {
        let e = elab("module m(p); wire p; endmodule");
        assert!(e.expect_err("err").message.contains("direction"));
    }

    #[test]
    fn instance_flattens_hierarchy() {
        let f = parse(
            "module sub(input a, output y); assign y = ~a; endmodule\n\
             module m(input x, output z); sub u1(.a(x), .y(z)); endmodule",
        )
        .expect("parse");
        let d = elaborate(&f, "m").expect("elab");
        // Signals: x, z (top), u1.a, u1.y.
        assert!(d.signal_by_name("u1.a").is_some());
        assert!(d.signal_by_name("u1.y").is_some());
        // Processes: sub's assign + 2 port connections.
        assert_eq!(d.processes.len(), 3);
    }

    // The first module is the top in elaborate_first, so define sub first
    // and use `elaborate` by name in this test.
    #[test]
    fn parameter_override_via_instance() {
        let f = parse(
            "module sub #(parameter W = 2) (input [W-1:0] a, output [W-1:0] y);\n\
             assign y = ~a; endmodule\n\
             module top(input [7:0] x, output [7:0] z);\n\
             sub #(.W(8)) u(.a(x), .y(z)); endmodule",
        )
        .expect("parse");
        let d = elaborate(&f, "top").expect("elab");
        let a = d.signal_by_name("u.a").expect("u.a");
        assert_eq!(d.signal(a).width, 8);
    }

    #[test]
    fn positional_parameter_override() {
        let f = parse(
            "module sub #(parameter W = 2) (output [W-1:0] y); assign y = 0; endmodule\n\
             module top(output [3:0] z); sub #(4) u(.y(z)); endmodule",
        )
        .expect("parse");
        let d = elaborate(&f, "top").expect("elab");
        let y = d.signal_by_name("u.y").expect("u.y");
        assert_eq!(d.signal(y).width, 4);
    }

    #[test]
    fn case_compiles_with_default() {
        let d = elab_ok(
            "module m(input [1:0] s, output reg y);\nalways @(*)\ncase (s)\n\
             2'b00: y = 1'b0;\n2'b01, 2'b10: y = 1'b1;\ndefault: y = 1'b0;\nendcase\nendmodule",
        );
        // One process, with match/jump structure.
        assert_eq!(d.processes.len(), 1);
        let has_match = d.processes[0]
            .code
            .iter()
            .any(|i| matches!(i, Instr::JumpIfNoMatch { .. }));
        assert!(has_match);
    }

    #[test]
    fn star_sensitivity_collects_reads() {
        let d = elab_ok(
            "module m(input a, b, c, output reg y);\nalways @(*) begin\n\
             if (a) y = b; else y = c;\nend\nendmodule",
        );
        let Instr::WaitEvent(sens) = &d.processes[0].code[0] else {
            panic!("expected WaitEvent first, got {:?}", d.processes[0].code[0]);
        };
        // Reads a, b, c (y is written, and lvalue writes don't count).
        assert_eq!(sens.terms.len(), 3);
    }

    #[test]
    fn gate_elaboration() {
        let d = elab_ok(
            "module m(input a, b, output y, z);\nand g1(y, a, b);\nnor g2(z, a, b);\nendmodule",
        );
        assert_eq!(d.processes.len(), 2);
    }

    #[test]
    fn wire_initialiser_is_continuous() {
        let d = elab_ok("module m(input a, b); wire y = a & b; endmodule");
        assert_eq!(d.processes[0].kind, ProcessKind::Continuous);
    }

    #[test]
    fn reg_initialiser_is_initial() {
        let d = elab_ok("module m; reg [3:0] r = 4'd5; endmodule");
        assert_eq!(d.processes[0].kind, ProcessKind::Initial);
    }

    #[test]
    fn error_user_function_call() {
        let e = elab("module m(output y); assign y = f(1); endmodule");
        assert!(e.expect_err("err").message.contains("function"));
    }

    #[test]
    fn error_recursive_instantiation() {
        let e = elab("module m; m u(); endmodule");
        assert!(e.is_err());
    }

    #[test]
    fn fold_const_handles_ops() {
        let two = EExpr::Const(LogicVec::from_u64(2, 8));
        let three = EExpr::Const(LogicVec::from_u64(3, 8));
        let sum = EExpr::Binary {
            op: ast::BinaryOp::Add,
            lhs: Box::new(two),
            rhs: Box::new(three),
        };
        assert_eq!(fold_const(&sum).expect("const").to_u64(), Some(5));
        assert_eq!(fold_const(&EExpr::Signal(SignalId(0))), None);
    }

    #[test]
    fn repeat_compiles_to_loop() {
        let d = elab_ok("module m; reg clk; initial begin repeat (3) #5 clk = ~clk; end endmodule");
        let code = &d.processes[0].code;
        assert!(code.iter().any(|i| matches!(i, Instr::Delay(_))));
        assert!(code.iter().any(|i| matches!(i, Instr::Jump(_))));
    }

    #[test]
    fn named_block_locals_resolve() {
        let d = elab_ok("module m; initial begin : b integer i; i = 3; end endmodule");
        assert!(d.signals.iter().any(|s| s.name.contains("b.i")));
    }

    #[test]
    fn error_huge_signal_width() {
        let e = elab("module m; reg [99999999:0] r; endmodule");
        assert!(e.expect_err("err").message.contains("limit"));
    }

    #[test]
    fn error_reversed_huge_range_does_not_overflow() {
        // A near-i64::MAX span must produce an error, not an arithmetic
        // panic in the width computation.
        let e = elab("module m; reg [64'h7FFFFFFFFFFFFFFF:0] r; endmodule");
        assert!(e.is_err());
    }

    #[test]
    fn error_huge_memory() {
        // 64K-bit words x 1M entries blows the total-memory-bits budget
        // even though each dimension individually passes its own cap.
        let e = elab("module m; reg [65535:0] mem [0:999999]; endmodule");
        assert!(e.expect_err("err").message.contains("memory bits"));
    }

    #[test]
    fn error_instance_bomb() {
        // Shallow but wide: fanout 8 over 5 levels = 8^5 leaves, which
        // stays under MAX_DEPTH but must trip MAX_INSTANCES.
        let mut src = String::from("module n0; wire w; endmodule\n");
        for i in 1..=5 {
            let child = format!("n{}", i - 1);
            src.push_str(&format!("module n{i};\n"));
            for j in 0..8 {
                src.push_str(&format!("  {child} u{j}();\n"));
            }
            src.push_str("endmodule\n");
        }
        src.push_str("module top; n5 root(); endmodule\n");
        let f = vgen_verilog::parse(&src).expect("parse");
        let e = elaborate(&f, "top");
        assert!(e.expect_err("err").message.contains("instances"));
    }

    #[test]
    fn error_huge_replication() {
        let e = elab("module m(input a, output y); assign y = |{99999999{a}}; endmodule");
        assert!(e.expect_err("err").message.contains("limit"));
    }
}
