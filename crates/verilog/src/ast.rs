//! Abstract syntax tree for the Verilog-2005 subset.
//!
//! The tree is deliberately close to the concrete syntax: ranges keep their
//! `msb:lsb` expressions unevaluated, numbers keep their parsed
//! [`LogicVec`] value, and every statement/expression
//! carries a [`Span`] so the simulator and mutation engine can point back at
//! source.

use crate::span::Span;
use crate::value::{Logic, LogicVec};

/// A parsed source file: one or more module definitions.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceFile {
    /// Modules in declaration order.
    pub modules: Vec<Module>,
}

impl SourceFile {
    /// Finds a module by name.
    pub fn module(&self, name: &str) -> Option<&Module> {
        self.modules.iter().find(|m| m.name == name)
    }
}

/// A `module ... endmodule` definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Module {
    /// The module identifier.
    pub name: String,
    /// Names in the header port list, in order. For ANSI-style headers the
    /// corresponding direction/type declarations also appear in `items`.
    pub ports: Vec<String>,
    /// Module body items (plus ANSI header declarations).
    pub items: Vec<Item>,
    /// Span of the whole definition.
    pub span: Span,
}

/// Direction of a port declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDir {
    /// `input`
    Input,
    /// `output`
    Output,
    /// `inout`
    Inout,
}

/// The storage class of a declared signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetKind {
    /// `wire` (also used for bare `input a`).
    Wire,
    /// `reg`
    Reg,
    /// `integer` — 32-bit signed variable.
    Integer,
    /// `time` — 64-bit unsigned variable.
    Time,
    /// `real` — parsed but unsupported by the simulator.
    Real,
    /// `supply0` — constant 0 net.
    Supply0,
    /// `supply1` — constant 1 net.
    Supply1,
}

/// A `[msb:lsb]` range, unevaluated.
#[derive(Debug, Clone, PartialEq)]
pub struct Range {
    /// Most-significant index expression.
    pub msb: Expr,
    /// Least-significant index expression.
    pub lsb: Expr,
}

/// One name in a declaration, e.g. `mem [0:63]` or `q = 1'b0`.
#[derive(Debug, Clone, PartialEq)]
pub struct Declarator {
    /// Declared identifier.
    pub name: String,
    /// Unpacked (array) dimensions, e.g. RAM word count.
    pub dims: Vec<Range>,
    /// Optional initialiser (`wire x = a & b;` / `reg r = 0;`).
    pub init: Option<Expr>,
    /// Span of the declarator.
    pub span: Span,
}

/// A module body item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A net/variable/port declaration covering one or more names.
    Decl(Decl),
    /// `parameter`/`localparam` declaration.
    Param(ParamDecl),
    /// `assign lhs = rhs;` (possibly several comma-separated assigns).
    Assign(AssignItem),
    /// `always <stmt>`.
    Always(AlwaysItem),
    /// `initial <stmt>`.
    Initial(InitialItem),
    /// Module instantiation.
    Instance(Instance),
    /// Built-in gate primitive instantiation (`and g(y, a, b);`).
    Gate(GateInstance),
    /// `defparam path = value;` — parsed and ignored by elaboration.
    Defparam {
        /// Hierarchical parameter path.
        path: String,
        /// Override value.
        value: Expr,
        /// Source span.
        span: Span,
    },
    /// A `function ... endfunction` definition.
    Function(FunctionDecl),
}

/// A user function definition. Verilog functions are combinational: they
/// take at least one input, may declare locals, and return by assigning to
/// their own name.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDecl {
    /// Function name (also the return variable).
    pub name: String,
    /// Whether the return value is signed.
    pub signed: bool,
    /// Return range, e.g. `[7:0]`; `None` for a 1-bit return.
    pub range: Option<Range>,
    /// Input and local declarations, in order.
    pub decls: Vec<Decl>,
    /// The body statement.
    pub body: Stmt,
    /// Source span.
    pub span: Span,
}

impl FunctionDecl {
    /// Height of the body: the nodes on its longest path from the body
    /// statement through nested statements down to an expression's deepest
    /// leaf. A call runs that path on top of the caller's stack, so nested
    /// calls are budgeted by the sum of their functions' heights
    /// ([`crate::parser::MAX_CALL_HEIGHT`]).
    pub fn height(&self) -> usize {
        stmt_height(&self.body)
    }
}

fn stmt_height(stmt: &Stmt) -> usize {
    let opt = |s: &Option<Box<Stmt>>| s.as_deref().map_or(0, stmt_height);
    let below = match &stmt.kind {
        StmtKind::Block { stmts, .. } => stmts.iter().map(stmt_height).max().unwrap_or(0),
        StmtKind::Assign {
            lhs, delay, rhs, ..
        } => tallest([lhs, rhs].into_iter().chain(delay)),
        StmtKind::If { cond, then, els } => expr_height(cond).max(stmt_height(then)).max(opt(els)),
        StmtKind::Case { expr, arms, .. } => arms.iter().fold(expr_height(expr), |h, arm| {
            h.max(tallest(&arm.labels)).max(stmt_height(&arm.body))
        }),
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => tallest([&init.0, &init.1, cond, &step.0, &step.1]).max(stmt_height(body)),
        StmtKind::While { cond: e, body } | StmtKind::Repeat { count: e, body } => {
            expr_height(e).max(stmt_height(body))
        }
        StmtKind::Forever { body } => stmt_height(body),
        StmtKind::Delay { amount: e, stmt } | StmtKind::Wait { cond: e, stmt } => {
            expr_height(e).max(opt(stmt))
        }
        StmtKind::Event { stmt, .. } => opt(stmt),
        StmtKind::SysCall { args, .. } | StmtKind::TaskCall { args, .. } => tallest(args),
        StmtKind::Disable(_) | StmtKind::Null => 0,
    };
    below + 1
}

fn expr_height(e: &Expr) -> usize {
    let below = match &e.kind {
        ExprKind::Number(_) | ExprKind::Real(_) | ExprKind::Str(_) | ExprKind::Ident(_) => 0,
        ExprKind::Unary { arg, .. } => expr_height(arg),
        ExprKind::Binary { lhs, rhs, .. } => tallest([lhs, rhs].map(|b| &**b)),
        ExprKind::Ternary { cond, then, els } => tallest([cond, then, els].map(|b| &**b)),
        ExprKind::Index { base, index } => tallest([base, index].map(|b| &**b)),
        ExprKind::PartSelect { base, msb, lsb } => tallest([base, msb, lsb].map(|b| &**b)),
        ExprKind::IndexedSelect {
            base, start, width, ..
        } => tallest([base, start, width].map(|b| &**b)),
        ExprKind::Replicate { count, items } => expr_height(count).max(tallest(items)),
        ExprKind::Concat(items)
        | ExprKind::SysCall { args: items, .. }
        | ExprKind::Call { args: items, .. } => tallest(items),
    };
    below + 1
}

fn tallest<'e>(exprs: impl IntoIterator<Item = &'e Expr>) -> usize {
    exprs.into_iter().map(expr_height).max().unwrap_or(0)
}

/// A net/variable/port declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    /// Port direction if this declaration is (part of) a port.
    pub dir: Option<PortDir>,
    /// Storage kind; `None` for a bare `input [3:0] a;` (defaults to wire).
    pub kind: Option<NetKind>,
    /// Whether declared `signed`.
    pub signed: bool,
    /// Packed range, e.g. `[7:0]`.
    pub range: Option<Range>,
    /// The declared names.
    pub names: Vec<Declarator>,
    /// Source span of the declaration.
    pub span: Span,
}

/// A `parameter` or `localparam` declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamDecl {
    /// `true` for `localparam`.
    pub local: bool,
    /// Whether declared `signed`.
    pub signed: bool,
    /// Optional range.
    pub range: Option<Range>,
    /// `(name, default value)` pairs.
    pub assigns: Vec<(String, Expr)>,
    /// Source span.
    pub span: Span,
}

/// An `assign` item.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignItem {
    /// Optional `#delay`.
    pub delay: Option<Expr>,
    /// `(lvalue, rvalue)` pairs.
    pub assigns: Vec<(Expr, Expr)>,
    /// Source span.
    pub span: Span,
}

/// An `always` construct.
#[derive(Debug, Clone, PartialEq)]
pub struct AlwaysItem {
    /// The process body (usually an event-controlled statement).
    pub body: Stmt,
    /// Source span.
    pub span: Span,
}

/// An `initial` construct.
#[derive(Debug, Clone, PartialEq)]
pub struct InitialItem {
    /// The process body.
    pub body: Stmt,
    /// Source span.
    pub span: Span,
}

/// A connection in an instantiation port/parameter list.
#[derive(Debug, Clone, PartialEq)]
pub enum Connection {
    /// `.port(expr)`; `expr` is `None` for an unconnected `.port()`.
    Named(String, Option<Expr>),
    /// Positional `expr`.
    Positional(Expr),
}

/// A module instantiation.
#[derive(Debug, Clone, PartialEq)]
pub struct Instance {
    /// Name of the instantiated module.
    pub module: String,
    /// Parameter overrides from `#(...)`.
    pub params: Vec<Connection>,
    /// Instance name.
    pub name: String,
    /// Port connections.
    pub conns: Vec<Connection>,
    /// Source span.
    pub span: Span,
}

/// The primitive gate types supported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// `and`
    And,
    /// `or`
    Or,
    /// `not`
    Not,
    /// `nand`
    Nand,
    /// `nor`
    Nor,
    /// `xor`
    Xor,
    /// `xnor`
    Xnor,
    /// `buf`
    Buf,
}

/// A primitive gate instantiation: first connection is the output.
#[derive(Debug, Clone, PartialEq)]
pub struct GateInstance {
    /// Which gate.
    pub kind: GateKind,
    /// Optional instance name.
    pub name: Option<String>,
    /// Output followed by inputs.
    pub conns: Vec<Expr>,
    /// Source span.
    pub span: Span,
}

/// Kind of procedural assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssignOp {
    /// `=`
    Blocking,
    /// `<=`
    NonBlocking,
}

/// Edge qualifier in an event expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Edge {
    /// `posedge`
    Pos,
    /// `negedge`
    Neg,
}

/// One term of an event control list.
#[derive(Debug, Clone, PartialEq)]
pub struct EventExpr {
    /// Optional edge qualifier.
    pub edge: Option<Edge>,
    /// The watched expression.
    pub expr: Expr,
}

/// An `@(...)` event control.
#[derive(Debug, Clone, PartialEq)]
pub enum EventControl {
    /// `@*` or `@(*)` — implicit sensitivity to everything read.
    Star,
    /// `@(list)` with `or`/`,` separated terms.
    List(Vec<EventExpr>),
}

/// A case statement arm.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseArm {
    /// Match labels; empty means `default`.
    pub labels: Vec<Expr>,
    /// The arm body.
    pub body: Stmt,
}

/// Flavour of a case statement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CaseKind {
    /// `case` — exact 4-state match.
    Exact,
    /// `casez` — `z`/`?` are wildcards.
    Z,
    /// `casex` — `x`, `z` and `?` are wildcards.
    X,
}

/// A procedural statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// The statement variant.
    pub kind: StmtKind,
    /// Source span.
    pub span: Span,
}

/// Statement variants.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// `begin [...] end`, optionally named, with local declarations.
    Block {
        /// Label after `begin : name`.
        name: Option<String>,
        /// Local `integer`/`reg` declarations.
        decls: Vec<Decl>,
        /// Statements in order.
        stmts: Vec<Stmt>,
    },
    /// Procedural assignment, optionally with intra-assignment delay.
    Assign {
        /// Target lvalue.
        lhs: Expr,
        /// Blocking or non-blocking.
        op: AssignOp,
        /// `#d` between the operator and the RHS (intra-assignment delay).
        delay: Option<Expr>,
        /// Source expression.
        rhs: Expr,
    },
    /// `if (cond) then [else els]`.
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then: Box<Stmt>,
        /// Optional else branch.
        els: Option<Box<Stmt>>,
    },
    /// `case`/`casez`/`casex`.
    Case {
        /// Flavour.
        kind: CaseKind,
        /// Selector.
        expr: Expr,
        /// Arms in order (first match wins; default may appear anywhere).
        arms: Vec<CaseArm>,
    },
    /// `for (init; cond; step) body` — init/step are blocking assigns.
    For {
        /// Initialisation `(lhs, rhs)`.
        init: Box<(Expr, Expr)>,
        /// Loop condition.
        cond: Expr,
        /// Step `(lhs, rhs)`.
        step: Box<(Expr, Expr)>,
        /// Body.
        body: Box<Stmt>,
    },
    /// `while (cond) body`.
    While {
        /// Loop condition.
        cond: Expr,
        /// Body.
        body: Box<Stmt>,
    },
    /// `repeat (count) body`.
    Repeat {
        /// Iteration count expression.
        count: Expr,
        /// Body.
        body: Box<Stmt>,
    },
    /// `forever body`.
    Forever {
        /// Body.
        body: Box<Stmt>,
    },
    /// `#delay [stmt]`.
    Delay {
        /// Delay amount.
        amount: Expr,
        /// Statement executed after the delay, if any.
        stmt: Option<Box<Stmt>>,
    },
    /// `@(...) [stmt]` or `@* [stmt]`.
    Event {
        /// The event control.
        control: EventControl,
        /// Statement executed after the event, if any.
        stmt: Option<Box<Stmt>>,
    },
    /// `wait (cond) [stmt]`.
    Wait {
        /// Level-sensitive condition.
        cond: Expr,
        /// Statement executed once true.
        stmt: Option<Box<Stmt>>,
    },
    /// A system task call such as `$display("...", x)`.
    SysCall {
        /// Task name without the `$`.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// A user task call (parsed, rejected at elaboration).
    TaskCall {
        /// Task name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `disable name;`
    Disable(String),
    /// Bare `;`.
    Null,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// `+`
    Plus,
    /// `-`
    Neg,
    /// `!`
    LogicNot,
    /// `~`
    BitNot,
    /// `&`
    ReduceAnd,
    /// `|`
    ReduceOr,
    /// `^`
    ReduceXor,
    /// `~&`
    ReduceNand,
    /// `~|`
    ReduceNor,
    /// `~^` / `^~`
    ReduceXnor,
}

impl UnaryOp {
    /// Applies the operator to a value: the one operator table shared by
    /// elaboration's constant folder, the simulator and synthesis.
    pub fn apply(self, arg: &LogicVec) -> LogicVec {
        let one_bit = |l: Logic| LogicVec::from_bits(vec![l], false);
        match self {
            UnaryOp::Plus => arg.clone(),
            UnaryOp::Neg => arg.neg(),
            UnaryOp::LogicNot => arg.logic_not(),
            UnaryOp::BitNot => arg.bit_not(),
            UnaryOp::ReduceAnd => one_bit(arg.reduce_and()),
            UnaryOp::ReduceOr => one_bit(arg.reduce_or()),
            UnaryOp::ReduceXor => one_bit(arg.reduce_xor()),
            UnaryOp::ReduceNand => one_bit(arg.reduce_and().not()),
            UnaryOp::ReduceNor => one_bit(arg.reduce_or().not()),
            UnaryOp::ReduceXnor => one_bit(arg.reduce_xor().not()),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `**`
    Pow,
    /// `&`
    BitAnd,
    /// `|`
    BitOr,
    /// `^`
    BitXor,
    /// `~^` / `^~`
    BitXnor,
    /// `&&`
    LogicAnd,
    /// `||`
    LogicOr,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `===`
    CaseEq,
    /// `!==`
    CaseNe,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// `<<<`
    AShl,
    /// `>>>`
    AShr,
}

impl BinaryOp {
    /// Applies the operator to two values (see [`UnaryOp::apply`]).
    pub fn apply(self, lhs: &LogicVec, rhs: &LogicVec) -> LogicVec {
        match self {
            BinaryOp::Add => lhs.add(rhs),
            BinaryOp::Sub => lhs.sub(rhs),
            BinaryOp::Mul => lhs.mul(rhs),
            BinaryOp::Div => lhs.div(rhs),
            BinaryOp::Rem => lhs.rem(rhs),
            BinaryOp::Pow => lhs.pow(rhs),
            BinaryOp::BitAnd => lhs.bit_and(rhs),
            BinaryOp::BitOr => lhs.bit_or(rhs),
            BinaryOp::BitXor => lhs.bit_xor(rhs),
            BinaryOp::BitXnor => lhs.bit_xnor(rhs),
            BinaryOp::LogicAnd => lhs.logic_and(rhs),
            BinaryOp::LogicOr => lhs.logic_or(rhs),
            BinaryOp::Eq => lhs.eq_logic(rhs),
            BinaryOp::Ne => lhs.ne_logic(rhs),
            BinaryOp::CaseEq => lhs.case_eq(rhs),
            BinaryOp::CaseNe => lhs.case_eq(rhs).logic_not(),
            BinaryOp::Lt => lhs.lt(rhs),
            BinaryOp::Le => lhs.le(rhs),
            BinaryOp::Gt => lhs.gt(rhs),
            BinaryOp::Ge => lhs.ge(rhs),
            BinaryOp::Shl => lhs.shl(rhs),
            BinaryOp::Shr => lhs.shr(rhs),
            BinaryOp::AShl => lhs.shl(rhs),
            BinaryOp::AShr => lhs.ashr(rhs),
        }
    }
}

/// An expression with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// The expression variant.
    pub kind: ExprKind,
    /// Source span.
    pub span: Span,
}

impl Expr {
    /// Creates an expression node.
    pub fn new(kind: ExprKind, span: Span) -> Self {
        Expr { kind, span }
    }

    /// Shorthand for a number literal expression used in tests/builders.
    pub fn number(value: LogicVec, span: Span) -> Self {
        Expr::new(ExprKind::Number(value), span)
    }

    /// Shorthand for an identifier expression.
    pub fn ident(name: impl Into<String>, span: Span) -> Self {
        Expr::new(ExprKind::Ident(name.into()), span)
    }
}

/// Expression variants.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// A number literal, already parsed to a value.
    Number(LogicVec),
    /// A real literal kept as text (no real arithmetic in the subset).
    Real(String),
    /// A string literal (escapes unprocessed).
    Str(String),
    /// An identifier reference.
    Ident(String),
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        arg: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinaryOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `cond ? then : els`.
    Ternary {
        /// Condition.
        cond: Box<Expr>,
        /// Value when true.
        then: Box<Expr>,
        /// Value when false.
        els: Box<Expr>,
    },
    /// Bit-select or array word select `base[index]`.
    Index {
        /// The indexed expression (identifier or nested index).
        base: Box<Expr>,
        /// Index expression.
        index: Box<Expr>,
    },
    /// Constant part-select `base[msb:lsb]`.
    PartSelect {
        /// The selected expression.
        base: Box<Expr>,
        /// MSB expression (must be constant).
        msb: Box<Expr>,
        /// LSB expression (must be constant).
        lsb: Box<Expr>,
    },
    /// Indexed part-select `base[start +: width]` / `base[start -: width]`.
    IndexedSelect {
        /// The selected expression.
        base: Box<Expr>,
        /// Start index.
        start: Box<Expr>,
        /// Width (must be constant).
        width: Box<Expr>,
        /// `true` for `+:`.
        ascending: bool,
    },
    /// Concatenation `{a, b, ...}`.
    Concat(Vec<Expr>),
    /// Replication `{count{a, b, ...}}`.
    Replicate {
        /// Replication count (must be constant).
        count: Box<Expr>,
        /// Replicated items.
        items: Vec<Expr>,
    },
    /// System function call `$time`, `$random`, `$signed(x)`, ...
    SysCall {
        /// Function name without the `$`.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// User function call (parsed, rejected at elaboration).
    Call {
        /// Function name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_file_module_lookup() {
        let m = Module {
            name: "top".into(),
            ports: vec![],
            items: vec![],
            span: Span::default(),
        };
        let f = SourceFile { modules: vec![m] };
        assert!(f.module("top").is_some());
        assert!(f.module("nope").is_none());
    }

    #[test]
    fn expr_builders() {
        let e = Expr::ident("clk", Span::new(0, 3));
        assert_eq!(e.kind, ExprKind::Ident("clk".into()));
        let n = Expr::number(LogicVec::from_u64(3, 2), Span::default());
        assert!(matches!(n.kind, ExprKind::Number(_)));
    }

    #[test]
    fn unary_apply() {
        let v = LogicVec::from_u64(0b1011, 4);
        assert_eq!(UnaryOp::ReduceAnd.apply(&v).to_u64(), Some(0));
        assert_eq!(UnaryOp::ReduceOr.apply(&v).to_u64(), Some(1));
        assert_eq!(UnaryOp::ReduceXor.apply(&v).to_u64(), Some(1));
        assert_eq!(UnaryOp::ReduceNand.apply(&v).to_u64(), Some(1));
        assert_eq!(UnaryOp::BitNot.apply(&v).to_u64(), Some(0b0100));
        assert_eq!(UnaryOp::LogicNot.apply(&v).to_u64(), Some(0));
        assert_eq!(UnaryOp::Neg.apply(&v).to_u64(), Some(0b0101));
        assert_eq!(UnaryOp::Plus.apply(&v), v);
        let c = LogicVec::from_u64(12, 4);
        assert_eq!(UnaryOp::ReduceXor.apply(&c).to_u64(), Some(0));
    }

    #[test]
    fn binary_apply() {
        let a = LogicVec::from_u64(6, 4);
        let b = LogicVec::from_u64(3, 4);
        assert_eq!(BinaryOp::Add.apply(&a, &b).to_u64(), Some(9));
        assert_eq!(BinaryOp::Sub.apply(&a, &b).to_u64(), Some(3));
        assert_eq!(BinaryOp::Div.apply(&a, &b).to_u64(), Some(2));
        assert_eq!(BinaryOp::Lt.apply(&a, &b).to_u64(), Some(0));
        assert_eq!(BinaryOp::CaseNe.apply(&a, &b).to_u64(), Some(1));
        assert_eq!(BinaryOp::AShl.apply(&a, &b).to_u64(), Some(0));
        assert_eq!(
            BinaryOp::Shl.apply(&b, &LogicVec::from_u64(1, 2)).to_u64(),
            Some(6)
        );
        // Four-bit addition wraps.
        let (c, d) = (LogicVec::from_u64(12, 4), LogicVec::from_u64(5, 4));
        assert_eq!(BinaryOp::Add.apply(&c, &d).to_u64(), Some(1));
        assert_eq!(BinaryOp::Gt.apply(&c, &d).to_u64(), Some(1));
    }
}
