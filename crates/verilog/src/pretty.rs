//! Pretty-printer: AST back to Verilog source.
//!
//! Used by the mutation engine (mutate the AST, re-emit source) and by
//! round-trip tests. Output is canonical rather than faithful: numbers are
//! re-emitted as sized binary literals and spacing is normalised, but
//! `parse(pretty(parse(s)))` produces the same tree as `parse(s)` modulo
//! spans (verified by property tests).

use crate::ast::*;
use std::fmt::Write as _;

/// Renders a full source file.
pub fn pretty_file(file: &SourceFile) -> String {
    let mut out = String::new();
    for m in &file.modules {
        out.push_str(&pretty_module(m));
        out.push('\n');
    }
    out
}

/// Renders one module.
pub fn pretty_module(m: &Module) -> String {
    let mut p = Printer::new();
    p.module(m);
    p.out
}

struct Printer {
    out: String,
    indent: usize,
}

impl Printer {
    fn new() -> Self {
        Printer {
            out: String::new(),
            indent: 0,
        }
    }

    fn line(&mut self, text: &str) {
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
        self.out.push_str(text);
        self.out.push('\n');
    }

    fn open(&mut self, text: &str) {
        self.line(text);
        self.indent += 1;
    }

    fn close(&mut self, text: &str) {
        self.indent = self.indent.saturating_sub(1);
        self.line(text);
    }

    fn module(&mut self, m: &Module) {
        let ports = m.ports.join(", ");
        if ports.is_empty() {
            self.open(&format!("module {};", m.name));
        } else {
            self.open(&format!("module {}({});", m.name, ports));
        }
        // ANSI header decls were merged into items; emit everything as body
        // declarations (valid non-ANSI style).
        for item in &m.items {
            self.item(item);
        }
        self.close("endmodule");
    }

    fn item(&mut self, item: &Item) {
        match item {
            Item::Decl(d) => self.line(&decl_to_string(d)),
            Item::Param(p) => {
                let kw = if p.local { "localparam" } else { "parameter" };
                let mut s = kw.to_string();
                if p.signed {
                    s.push_str(" signed");
                }
                if let Some(r) = &p.range {
                    s.push_str(&format!(" [{}:{}]", expr_str(&r.msb), expr_str(&r.lsb)));
                }
                let assigns: Vec<String> = p
                    .assigns
                    .iter()
                    .map(|(n, v)| format!("{n} = {}", expr_str(v)))
                    .collect();
                s.push(' ');
                s.push_str(&assigns.join(", "));
                s.push(';');
                self.line(&s);
            }
            Item::Assign(a) => {
                let mut s = "assign ".to_string();
                if let Some(d) = &a.delay {
                    let _ = write!(s, "#{} ", expr_str(d));
                }
                let parts: Vec<String> = a
                    .assigns
                    .iter()
                    .map(|(l, r)| format!("{} = {}", expr_str(l), expr_str(r)))
                    .collect();
                s.push_str(&parts.join(", "));
                s.push(';');
                self.line(&s);
            }
            Item::Always(a) => {
                self.line("always");
                self.indent += 1;
                self.stmt(&a.body);
                self.indent -= 1;
            }
            Item::Initial(i) => {
                self.line("initial");
                self.indent += 1;
                self.stmt(&i.body);
                self.indent -= 1;
            }
            Item::Instance(inst) => {
                let mut s = inst.module.clone();
                if !inst.params.is_empty() {
                    let _ = write!(s, " #({})", conns_str(&inst.params));
                }
                let _ = write!(s, " {}({});", inst.name, conns_str(&inst.conns));
                self.line(&s);
            }
            Item::Gate(g) => {
                let kw = match g.kind {
                    GateKind::And => "and",
                    GateKind::Or => "or",
                    GateKind::Not => "not",
                    GateKind::Nand => "nand",
                    GateKind::Nor => "nor",
                    GateKind::Xor => "xor",
                    GateKind::Xnor => "xnor",
                    GateKind::Buf => "buf",
                };
                let args: Vec<String> = g.conns.iter().map(expr_str).collect();
                let name = g.name.as_deref().unwrap_or("");
                let sep = if name.is_empty() { "" } else { " " };
                self.line(&format!("{kw}{sep}{name}({});", args.join(", ")));
            }
            Item::Defparam { path, value, .. } => {
                self.line(&format!("defparam {path} = {};", expr_str(value)));
            }
            Item::Function(f) => {
                let mut header = "function ".to_string();
                if f.signed {
                    header.push_str("signed ");
                }
                if let Some(r) = &f.range {
                    let _ = write!(header, "[{}:{}] ", expr_str(&r.msb), expr_str(&r.lsb));
                }
                header.push_str(&f.name);
                header.push(';');
                self.open(&header);
                for d in &f.decls {
                    self.line(&decl_to_string(d));
                }
                self.stmt(&f.body);
                self.close("endfunction");
            }
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Block { name, decls, stmts } => {
                match name {
                    Some(n) => self.open(&format!("begin : {n}")),
                    None => self.open("begin"),
                }
                for d in decls {
                    self.line(&decl_to_string(d));
                }
                for st in stmts {
                    self.stmt(st);
                }
                self.close("end");
            }
            StmtKind::Assign {
                lhs,
                op,
                delay,
                rhs,
            } => {
                let op_s = match op {
                    AssignOp::Blocking => "=",
                    AssignOp::NonBlocking => "<=",
                };
                let d = delay
                    .as_ref()
                    .map(|d| format!("#{} ", expr_str(d)))
                    .unwrap_or_default();
                self.line(&format!("{} {op_s} {d}{};", expr_str(lhs), expr_str(rhs)));
            }
            StmtKind::If { cond, then, els } => {
                self.line(&format!("if ({})", expr_str(cond)));
                self.indent += 1;
                self.stmt(then);
                self.indent -= 1;
                if let Some(e) = els {
                    self.line("else");
                    self.indent += 1;
                    self.stmt(e);
                    self.indent -= 1;
                }
            }
            StmtKind::Case { kind, expr, arms } => {
                let kw = match kind {
                    CaseKind::Exact => "case",
                    CaseKind::Z => "casez",
                    CaseKind::X => "casex",
                };
                self.open(&format!("{kw} ({})", expr_str(expr)));
                for arm in arms {
                    if arm.labels.is_empty() {
                        self.line("default:");
                    } else {
                        let labels: Vec<String> = arm.labels.iter().map(expr_str).collect();
                        self.line(&format!("{}:", labels.join(", ")));
                    }
                    self.indent += 1;
                    self.stmt(&arm.body);
                    self.indent -= 1;
                }
                self.close("endcase");
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.line(&format!(
                    "for ({} = {}; {}; {} = {})",
                    expr_str(&init.0),
                    expr_str(&init.1),
                    expr_str(cond),
                    expr_str(&step.0),
                    expr_str(&step.1)
                ));
                self.indent += 1;
                self.stmt(body);
                self.indent -= 1;
            }
            StmtKind::While { cond, body } => {
                self.line(&format!("while ({})", expr_str(cond)));
                self.indent += 1;
                self.stmt(body);
                self.indent -= 1;
            }
            StmtKind::Repeat { count, body } => {
                self.line(&format!("repeat ({})", expr_str(count)));
                self.indent += 1;
                self.stmt(body);
                self.indent -= 1;
            }
            StmtKind::Forever { body } => {
                self.line("forever");
                self.indent += 1;
                self.stmt(body);
                self.indent -= 1;
            }
            StmtKind::Delay { amount, stmt } => match stmt {
                Some(st) => {
                    self.line(&format!("#{}", expr_str(amount)));
                    self.indent += 1;
                    self.stmt(st);
                    self.indent -= 1;
                }
                None => self.line(&format!("#{};", expr_str(amount))),
            },
            StmtKind::Event { control, stmt } => {
                let ctl = match control {
                    EventControl::Star => "@(*)".to_string(),
                    EventControl::List(terms) => {
                        let parts: Vec<String> = terms
                            .iter()
                            .map(|t| {
                                let edge = match t.edge {
                                    Some(Edge::Pos) => "posedge ",
                                    Some(Edge::Neg) => "negedge ",
                                    None => "",
                                };
                                format!("{edge}{}", expr_str(&t.expr))
                            })
                            .collect();
                        format!("@({})", parts.join(" or "))
                    }
                };
                match stmt {
                    Some(st) => {
                        self.line(&ctl);
                        self.indent += 1;
                        self.stmt(st);
                        self.indent -= 1;
                    }
                    None => self.line(&format!("{ctl};")),
                }
            }
            StmtKind::Wait { cond, stmt } => match stmt {
                Some(st) => {
                    self.line(&format!("wait ({})", expr_str(cond)));
                    self.indent += 1;
                    self.stmt(st);
                    self.indent -= 1;
                }
                None => self.line(&format!("wait ({});", expr_str(cond))),
            },
            StmtKind::SysCall { name, args } => {
                if args.is_empty() {
                    self.line(&format!("${name};"));
                } else {
                    let a: Vec<String> = args.iter().map(expr_str).collect();
                    self.line(&format!("${name}({});", a.join(", ")));
                }
            }
            StmtKind::TaskCall { name, args } => {
                if args.is_empty() {
                    self.line(&format!("{name};"));
                } else {
                    let a: Vec<String> = args.iter().map(expr_str).collect();
                    self.line(&format!("{name}({});", a.join(", ")));
                }
            }
            StmtKind::Disable(n) => self.line(&format!("disable {n};")),
            StmtKind::Null => self.line(";"),
        }
    }
}

fn decl_to_string(d: &Decl) -> String {
    let mut s = String::new();
    if let Some(dir) = d.dir {
        s.push_str(match dir {
            PortDir::Input => "input ",
            PortDir::Output => "output ",
            PortDir::Inout => "inout ",
        });
    }
    if let Some(kind) = d.kind {
        s.push_str(match kind {
            NetKind::Wire => "wire ",
            NetKind::Reg => "reg ",
            NetKind::Integer => "integer ",
            NetKind::Time => "time ",
            NetKind::Real => "real ",
            NetKind::Supply0 => "supply0 ",
            NetKind::Supply1 => "supply1 ",
        });
    } else if d.dir.is_none() {
        s.push_str("wire ");
    }
    if d.signed {
        s.push_str("signed ");
    }
    if let Some(r) = &d.range {
        let _ = write!(s, "[{}:{}] ", expr_str(&r.msb), expr_str(&r.lsb));
    }
    let names: Vec<String> = d
        .names
        .iter()
        .map(|n| {
            let mut t = n.name.clone();
            for dim in &n.dims {
                let _ = write!(t, " [{}:{}]", expr_str(&dim.msb), expr_str(&dim.lsb));
            }
            if let Some(init) = &n.init {
                let _ = write!(t, " = {}", expr_str(init));
            }
            t
        })
        .collect();
    s.push_str(&names.join(", "));
    s.push(';');
    s
}

fn conns_str(conns: &[Connection]) -> String {
    let parts: Vec<String> = conns
        .iter()
        .map(|c| match c {
            Connection::Named(port, Some(e)) => format!(".{port}({})", expr_str(e)),
            Connection::Named(port, None) => format!(".{port}()"),
            Connection::Positional(e) => expr_str(e),
        })
        .collect();
    parts.join(", ")
}

fn unary_op_str(op: UnaryOp) -> &'static str {
    match op {
        UnaryOp::Plus => "+",
        UnaryOp::Neg => "-",
        UnaryOp::LogicNot => "!",
        UnaryOp::BitNot => "~",
        UnaryOp::ReduceAnd => "&",
        UnaryOp::ReduceOr => "|",
        UnaryOp::ReduceXor => "^",
        UnaryOp::ReduceNand => "~&",
        UnaryOp::ReduceNor => "~|",
        UnaryOp::ReduceXnor => "~^",
    }
}

fn binary_op_str(op: BinaryOp) -> &'static str {
    match op {
        BinaryOp::Add => "+",
        BinaryOp::Sub => "-",
        BinaryOp::Mul => "*",
        BinaryOp::Div => "/",
        BinaryOp::Rem => "%",
        BinaryOp::Pow => "**",
        BinaryOp::BitAnd => "&",
        BinaryOp::BitOr => "|",
        BinaryOp::BitXor => "^",
        BinaryOp::BitXnor => "~^",
        BinaryOp::LogicAnd => "&&",
        BinaryOp::LogicOr => "||",
        BinaryOp::Eq => "==",
        BinaryOp::Ne => "!=",
        BinaryOp::CaseEq => "===",
        BinaryOp::CaseNe => "!==",
        BinaryOp::Lt => "<",
        BinaryOp::Le => "<=",
        BinaryOp::Gt => ">",
        BinaryOp::Ge => ">=",
        BinaryOp::Shl => "<<",
        BinaryOp::Shr => ">>",
        BinaryOp::AShl => "<<<",
        BinaryOp::AShr => ">>>",
    }
}

/// Renders an expression with full parenthesisation of nested operations
/// (safe rather than minimal — re-parsing yields the same tree).
fn expr_str(e: &Expr) -> String {
    match &e.kind {
        ExprKind::Number(v) => {
            let s = if v.is_signed() { "s" } else { "" };
            format!("{}'{s}b{}", v.width(), v.to_binary_string())
        }
        ExprKind::Real(t) => t.clone(),
        ExprKind::Str(s) => format!("\"{s}\""),
        ExprKind::Ident(n) => n.clone(),
        ExprKind::Unary { op, arg } => {
            format!("{}({})", unary_op_str(*op), expr_str(arg))
        }
        ExprKind::Binary { op, lhs, rhs } => {
            format!(
                "({} {} {})",
                expr_str(lhs),
                binary_op_str(*op),
                expr_str(rhs)
            )
        }
        ExprKind::Ternary { cond, then, els } => {
            format!(
                "({} ? {} : {})",
                expr_str(cond),
                expr_str(then),
                expr_str(els)
            )
        }
        ExprKind::Index { base, index } => {
            format!("{}[{}]", expr_str(base), expr_str(index))
        }
        ExprKind::PartSelect { base, msb, lsb } => {
            format!("{}[{}:{}]", expr_str(base), expr_str(msb), expr_str(lsb))
        }
        ExprKind::IndexedSelect {
            base,
            start,
            width,
            ascending,
        } => {
            let op = if *ascending { "+:" } else { "-:" };
            format!(
                "{}[{} {op} {}]",
                expr_str(base),
                expr_str(start),
                expr_str(width)
            )
        }
        ExprKind::Concat(items) => {
            let parts: Vec<String> = items.iter().map(expr_str).collect();
            format!("{{{}}}", parts.join(", "))
        }
        ExprKind::Replicate { count, items } => {
            let parts: Vec<String> = items.iter().map(expr_str).collect();
            format!("{{{}{{{}}}}}", expr_str(count), parts.join(", "))
        }
        ExprKind::SysCall { name, args } => {
            if args.is_empty() {
                format!("${name}")
            } else {
                let a: Vec<String> = args.iter().map(expr_str).collect();
                format!("${name}({})", a.join(", "))
            }
        }
        ExprKind::Call { name, args } => {
            let a: Vec<String> = args.iter().map(expr_str).collect();
            format!("{name}({})", a.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn round_trip(src: &str) {
        let f1 = parse(src).expect("first parse");
        let printed = pretty_file(&f1);
        let f2 = parse(&printed)
            .unwrap_or_else(|e| panic!("re-parse failed: {}\n{printed}", e.render(&printed)));
        let printed2 = pretty_file(&f2);
        assert_eq!(printed, printed2, "pretty-printing must be idempotent");
    }

    #[test]
    fn round_trip_simple() {
        round_trip("module m(input a, output y); assign y = ~a; endmodule");
    }

    #[test]
    fn round_trip_counter() {
        round_trip(
            "module counter(input clk, input reset, output reg [3:0] q);\n\
             always @(posedge clk) begin\nif (reset) q <= 4'd1;\n\
             else if (q == 4'd12) q <= 4'd1;\nelse q <= q + 4'd1;\nend\nendmodule",
        );
    }

    #[test]
    fn round_trip_fsm() {
        round_trip(
            "module abro(input clk, input reset, input a, input b, output z);\n\
             parameter IDLE = 0, SA = 1, SB = 2, SAB = 3;\n\
             reg [1:0] cur_state, next_state;\n\
             always @(posedge clk or posedge reset) begin\n\
             if (reset) cur_state <= IDLE; else cur_state <= next_state; end\n\
             always @(cur_state or a or b) begin\ncase (cur_state)\n\
             IDLE: begin if (a && b) next_state = SAB; else if (a) next_state = SA;\n\
             else if (b) next_state = SB; end\n\
             SA: if (b) next_state = SAB; else next_state = SA;\n\
             default: next_state = IDLE;\nendcase end\n\
             assign z = (cur_state == SAB);\nendmodule",
        );
    }

    #[test]
    fn round_trip_testbench_constructs() {
        round_trip(
            "module tb;\nreg clk, reset;\nwire [3:0] q;\ninteger errors;\n\
             counter dut(.clk(clk), .reset(reset), .q(q));\n\
             always #5 clk = ~clk;\ninitial begin\nclk = 0; errors = 0;\n\
             reset = 1; #12 reset = 0;\nrepeat (20) @(posedge clk);\n\
             if (q !== 4'd9) begin errors = errors + 1; $display(\"bad\"); end\n\
             if (errors == 0) $display(\"ALL TESTS PASSED\");\n$finish;\nend\nendmodule",
        );
    }

    #[test]
    fn round_trip_expressions() {
        round_trip(
            "module e(input [7:0] a, b, output [15:0] y);\n\
             assign y = {a[7:2], {2{b[1:0]}}, ^a, a[3 +: 2]} + (a * b) - (a >>> 2);\nendmodule",
        );
    }

    #[test]
    fn round_trip_ram() {
        round_trip(
            "module ram(input clk, input we, input [5:0] addr, input [7:0] din, output reg [7:0] dout);\n\
             reg [7:0] mem [0:63];\nalways @(posedge clk) begin\n\
             if (we) mem[addr] <= din;\ndout <= mem[addr];\nend\nendmodule",
        );
    }

    #[test]
    fn always_blocks_render_their_event_and_body() {
        let f =
            parse("module m(input a, output reg y); always @(a) y = !a; endmodule").expect("parse");
        let s = pretty_module(&f.modules[0]);
        assert!(s.contains("@(a)"));
        assert!(s.contains("y = !(a);"));
    }

    #[test]
    fn numbers_canonicalise() {
        let f = parse("module m(output [3:0] y); assign y = 4'd12; endmodule").expect("p");
        let p = pretty_file(&f);
        assert!(p.contains("4'b1100"), "got: {p}");
    }
}
