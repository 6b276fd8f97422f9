//! Recursive-descent parser for the Verilog-2005 subset.
//!
//! The grammar covers everything the VGen benchmark exercises: ANSI and
//! non-ANSI module headers, net/reg/integer declarations with packed and
//! unpacked ranges, parameters, continuous assigns, `always`/`initial`
//! processes with the full procedural statement set, module and gate
//! instantiation, and the complete operator precedence ladder.

use crate::ast::*;
use crate::error::ParseError;
use crate::lexer::Lexer;
use crate::number::parse_number;
use crate::span::Span;
use crate::token::{Keyword, Punct, Token, TokenKind};
use vgen_obs::CancelToken;

/// Parses a full source file (one or more modules).
///
/// # Errors
///
/// Returns the first lexical or syntactic error. The error's
/// [`render`](ParseError::render) method resolves line/column against `src`.
///
/// ```
/// use vgen_verilog::parse;
/// let file = parse("module m(input a, output y); assign y = ~a; endmodule")?;
/// assert_eq!(file.modules[0].name, "m");
/// # Ok::<(), vgen_verilog::error::ParseError>(())
/// ```
pub fn parse(src: &str) -> Result<SourceFile, ParseError> {
    parse_with_cancel(src, &CancelToken::unlimited()).map(|p| p.file)
}

/// A successful parse together with the size of the token stream it was
/// parsed from.
#[derive(Debug, Clone, PartialEq)]
pub struct Parsed {
    /// The parsed modules.
    pub file: SourceFile,
    /// Tokens the lexer produced, counting the end-of-input token: the
    /// figure [`MAX_TOKENS`] caps.
    pub tokens: usize,
}

/// [`parse`] under a cooperative [`CancelToken`]: the parser polls the
/// token every [`CANCEL_POLL_WORK`] units of work (roughly, grammar
/// productions) and bails out with a [`ParseError::cancelled_at`] error —
/// `cancelled == true` — once it trips. With an
/// [unlimited](CancelToken::unlimited) token the polls cost one relaxed
/// atomic load each and the behaviour is identical to [`parse`]. A
/// successful parse also reports its token count ([`Parsed`]).
pub fn parse_with_cancel(src: &str, cancel: &CancelToken) -> Result<Parsed, ParseError> {
    let _span = vgen_obs::span("parse");
    let tokens = Lexer::new(src).tokenize()?;
    // Lexing is linear and allocation-light; one poll after it bounds the
    // damage of a multi-megabyte input without instrumenting the scan loop.
    if cancel.poll() {
        return Err(ParseError::cancelled_at(Span::default()));
    }
    if tokens.len() > MAX_TOKENS {
        let span = tokens[MAX_TOKENS].span;
        return Err(ParseError::new(
            format!("input exceeds {MAX_TOKENS} tokens"),
            span,
        ));
    }
    let count = tokens.len();
    let file = Parser::with_cancel(tokens, cancel.clone()).parse_source_file()?;
    Ok(Parsed {
        file,
        tokens: count,
    })
}

/// Checks whether `src` is syntactically valid — the "compiles" check used
/// by the evaluation harness (mirrors `iverilog` syntax checking).
pub fn syntax_check(src: &str) -> Result<(), ParseError> {
    parse(src).map(|_| ())
}

/// Token-count ceiling for one source file. LLM completions that blow past
/// this (comment bombs, repeated garbage) are rejected up front instead of
/// being carried through the whole pipeline.
pub const MAX_TOKENS: usize = 400_000;

/// Nesting-depth ceiling for expressions and statements combined. Keeps a
/// pathological completion (`((((…))))`, thousand-deep `begin` blocks) from
/// overflowing the parser's stack; such inputs become a [`ParseError`].
///
/// Sized for the worst case: each statement level costs ~3 stack frames in
/// an unoptimised build, where a `begin`/`end` nest one level under the
/// cap needs 2–4 MiB to parse. That is more than a 2 MiB test thread has,
/// so every check runs on an 8 MiB stack (`vgen-core`'s `CHECK_STACK_BYTES`).
pub const MAX_NEST_DEPTH: usize = 100;

/// Height ceiling for one expression tree: the nodes on its longest path
/// from the root to a leaf, so `a ^ b ^ c` is 3 deep. [`MAX_NEST_DEPTH`]
/// never sees a left-associative chain (`a ^ a ^ … ^ a`) or a select chain
/// (`a[0][0]…`), because the parser builds those in a loop, but lint,
/// elaboration, simulation, synthesis, the pretty-printer and the tree's
/// drop all recurse over the tree. Deeper expressions become a
/// [`ParseError`] instead of a stack overflow no guard can catch.
///
/// Sized by measurement in an unoptimised build: on a 4 MiB thread, lint,
/// elaboration plus simulation, and the whole check first overflow on
/// chains of about 465 terms, synthesis at about 535, the pretty-printer
/// at about 1,400 and drop past 36,000. At this cap every one of them
/// stays under half of a check's 8 MiB stack. A 64-input parity chain is
/// 64 deep.
pub const MAX_EXPR_DEPTH: usize = 256;

/// Units of parser work (grammar productions entered, module items started)
/// between [`CancelToken`] polls. Large enough that the clock read
/// amortises to noise, small enough that a near-[`MAX_TOKENS`] input still
/// observes its deadline within a few milliseconds of work.
pub const CANCEL_POLL_WORK: u32 = 1024;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Current expression/statement nesting depth (recursion guard).
    depth: usize,
    /// Height of the tallest expression the current expression production
    /// has completed so far (see [`Parser::expr_frame`]).
    height: usize,
    /// Cooperative cancellation handle (unlimited by default).
    cancel: CancelToken,
    /// Work counter driving periodic [`CancelToken::poll`] calls.
    work: u32,
}

impl Parser {
    fn with_cancel(tokens: Vec<Token>, cancel: CancelToken) -> Self {
        Parser {
            tokens,
            pos: 0,
            depth: 0,
            height: 0,
            cancel,
            work: 0,
        }
    }

    /// Counts one unit of work; every [`CANCEL_POLL_WORK`] units, polls the
    /// cancel token and errors out if it has tripped.
    fn check_cancel(&mut self) -> Result<(), ParseError> {
        self.work = self.work.wrapping_add(1);
        if self.work.is_multiple_of(CANCEL_POLL_WORK) && self.cancel.poll() {
            return Err(ParseError::cancelled_at(self.span()));
        }
        Ok(())
    }

    /// Bumps the recursion guard; errors out beyond [`MAX_NEST_DEPTH`].
    fn enter(&mut self) -> Result<(), ParseError> {
        self.check_cancel()?;
        self.depth += 1;
        if self.depth > MAX_NEST_DEPTH {
            return Err(ParseError::new(
                format!("nesting exceeds {MAX_NEST_DEPTH} levels"),
                self.span(),
            ));
        }
        Ok(())
    }

    fn exit(&mut self) {
        self.depth -= 1;
    }

    /// Runs one recursive expression production under the nesting guard
    /// and tracks the height of the tree it builds. Every expression the
    /// production completes is a subtree of that tree: those of nested
    /// productions, and each node it builds itself ([`Parser::stack_node`]),
    /// so the tallest of them is the tree's height, which then counts
    /// towards the enclosing production's.
    fn expr_frame(
        &mut self,
        production: impl FnOnce(&mut Self) -> Result<Expr, ParseError>,
    ) -> Result<Expr, ParseError> {
        self.enter()?;
        let outer = std::mem::take(&mut self.height);
        let result = production(self);
        self.height = outer.max(self.height);
        self.exit();
        result
    }

    /// Counts one expression node built by the current production over
    /// every subexpression it has completed so far, the node it built last
    /// included; errors out once that makes the tree deeper than
    /// [`MAX_EXPR_DEPTH`].
    fn stack_node(&mut self, span: Span) -> Result<(), ParseError> {
        self.height += 1;
        if self.height > MAX_EXPR_DEPTH {
            return Err(ParseError::new(
                format!("expression deeper than {MAX_EXPR_DEPTH} levels"),
                span,
            ));
        }
        Ok(())
    }

    fn peek(&self) -> &TokenKind {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].kind
    }

    fn peek_at(&self, off: usize) -> &TokenKind {
        &self.tokens[(self.pos + off).min(self.tokens.len() - 1)].kind
    }

    fn span(&self) -> Span {
        self.tokens[self.pos.min(self.tokens.len() - 1)].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1)].span
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at_punct(&self, p: Punct) -> bool {
        self.peek().as_punct() == Some(p)
    }

    fn at_keyword(&self, k: Keyword) -> bool {
        self.peek().as_keyword() == Some(k)
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.at_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, k: Keyword) -> bool {
        if self.at_keyword(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<Span, ParseError> {
        if self.at_punct(p) {
            Ok(self.bump().span)
        } else {
            Err(self.unexpected(&format!("`{p}`")))
        }
    }

    fn expect_keyword(&mut self, k: Keyword) -> Result<Span, ParseError> {
        if self.at_keyword(k) {
            Ok(self.bump().span)
        } else {
            Err(self.unexpected(&format!("`{k}`")))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Span), ParseError> {
        match self.peek() {
            TokenKind::Ident(_) => {
                let t = self.bump();
                match t.kind {
                    TokenKind::Ident(s) => Ok((s, t.span)),
                    _ => unreachable!(),
                }
            }
            _ => Err(self.unexpected("identifier")),
        }
    }

    fn unexpected(&self, wanted: &str) -> ParseError {
        ParseError::new(
            format!("expected {wanted}, found {}", self.peek()),
            self.span(),
        )
    }

    // ---------------------------------------------------------- source file

    fn parse_source_file(&mut self) -> Result<SourceFile, ParseError> {
        let mut modules = Vec::new();
        while !matches!(self.peek(), TokenKind::Eof) {
            if self.at_keyword(Keyword::Module) || self.at_keyword(Keyword::Macromodule) {
                modules.push(self.parse_module()?);
            } else {
                return Err(self.unexpected("`module`"));
            }
        }
        if modules.is_empty() {
            return Err(ParseError::new("no module definition found", self.span()));
        }
        Ok(SourceFile { modules })
    }

    fn parse_module(&mut self) -> Result<Module, ParseError> {
        let start = self.bump().span; // module / macromodule
        let (name, _) = self.expect_ident()?;
        let mut ports = Vec::new();
        let mut items = Vec::new();

        // Optional parameter port list: #(parameter W = 8, ...)
        if self.eat_punct(Punct::Hash) {
            self.expect_punct(Punct::LParen)?;
            loop {
                let p = self.parse_param_decl(false)?;
                items.push(Item::Param(p));
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            self.expect_punct(Punct::RParen)?;
        }

        if self.eat_punct(Punct::LParen) {
            if !self.at_punct(Punct::RParen) {
                self.parse_port_list(&mut ports, &mut items)?;
            }
            self.expect_punct(Punct::RParen)?;
        }
        self.expect_punct(Punct::Semi)?;

        while !self.at_keyword(Keyword::Endmodule) {
            if matches!(self.peek(), TokenKind::Eof) {
                return Err(ParseError::new(
                    format!("missing `endmodule` for module `{name}`"),
                    self.span(),
                ));
            }
            items.push(self.parse_item()?);
        }
        let end = self.expect_keyword(Keyword::Endmodule)?;
        Ok(Module {
            name,
            ports,
            items,
            span: start.to(end),
        })
    }

    /// Parses the header port list, handling both ANSI (`input clk, ...`)
    /// and non-ANSI (`clk, rst`) styles, including mixed trailing names that
    /// inherit the previous direction (`input a, b, output c`).
    fn parse_port_list(
        &mut self,
        ports: &mut Vec<String>,
        items: &mut Vec<Item>,
    ) -> Result<(), ParseError> {
        let mut cur: Option<Decl> = None;
        loop {
            let dir = self.parse_opt_dir();
            if dir.is_some() {
                // Flush the previous direction group.
                if let Some(d) = cur.take() {
                    items.push(Item::Decl(d));
                }
                let kind = self.parse_opt_net_kind();
                let signed = self.eat_keyword(Keyword::Signed);
                let range = self.parse_opt_range()?;
                let (pname, pspan) = self.expect_ident()?;
                ports.push(pname.clone());
                cur = Some(Decl {
                    dir,
                    kind,
                    signed,
                    range,
                    names: vec![Declarator {
                        name: pname,
                        dims: vec![],
                        init: None,
                        span: pspan,
                    }],
                    span: pspan,
                });
            } else {
                let (pname, pspan) = self.expect_ident()?;
                ports.push(pname.clone());
                if let Some(d) = cur.as_mut() {
                    // Continuation of an ANSI group: `input a, b`.
                    d.names.push(Declarator {
                        name: pname,
                        dims: vec![],
                        init: None,
                        span: pspan,
                    });
                    d.span = d.span.to(pspan);
                }
                // Else: non-ANSI port, declared later in the body.
            }
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        if let Some(d) = cur.take() {
            items.push(Item::Decl(d));
        }
        Ok(())
    }

    fn parse_opt_dir(&mut self) -> Option<PortDir> {
        let dir = match self.peek().as_keyword()? {
            Keyword::Input => PortDir::Input,
            Keyword::Output => PortDir::Output,
            Keyword::Inout => PortDir::Inout,
            _ => return None,
        };
        self.bump();
        Some(dir)
    }

    fn parse_opt_net_kind(&mut self) -> Option<NetKind> {
        let kind = match self.peek().as_keyword()? {
            Keyword::Wire | Keyword::Tri => NetKind::Wire,
            Keyword::Reg => NetKind::Reg,
            Keyword::Integer => NetKind::Integer,
            Keyword::Time => NetKind::Time,
            Keyword::Real => NetKind::Real,
            Keyword::Supply0 => NetKind::Supply0,
            Keyword::Supply1 => NetKind::Supply1,
            _ => return None,
        };
        self.bump();
        Some(kind)
    }

    fn parse_opt_range(&mut self) -> Result<Option<Range>, ParseError> {
        if !self.at_punct(Punct::LBracket) {
            return Ok(None);
        }
        self.bump();
        let msb = self.parse_expr()?;
        self.expect_punct(Punct::Colon)?;
        let lsb = self.parse_expr()?;
        self.expect_punct(Punct::RBracket)?;
        Ok(Some(Range { msb, lsb }))
    }

    // --------------------------------------------------------- module items

    fn parse_item(&mut self) -> Result<Item, ParseError> {
        // Flat files (thousands of small items, little nesting) count work
        // here; deeply nested expressions count it in `enter`.
        self.check_cancel()?;
        let start = self.span();
        match self.peek() {
            TokenKind::Keyword(kw) => match kw {
                Keyword::Input | Keyword::Output | Keyword::Inout => {
                    let dir = self.parse_opt_dir();
                    let kind = self.parse_opt_net_kind();
                    self.parse_decl_tail(dir, kind, start)
                }
                Keyword::Wire
                | Keyword::Tri
                | Keyword::Reg
                | Keyword::Integer
                | Keyword::Time
                | Keyword::Real
                | Keyword::Supply0
                | Keyword::Supply1 => {
                    let kind = self.parse_opt_net_kind();
                    self.parse_decl_tail(None, kind, start)
                }
                Keyword::Parameter => {
                    self.bump();
                    let p = self.parse_param_decl_body(false, start)?;
                    self.expect_punct(Punct::Semi)?;
                    Ok(Item::Param(p))
                }
                Keyword::Localparam => {
                    self.bump();
                    let p = self.parse_param_decl_body(true, start)?;
                    self.expect_punct(Punct::Semi)?;
                    Ok(Item::Param(p))
                }
                Keyword::Defparam => {
                    self.bump();
                    let (mut path, _) = self.expect_ident()?;
                    while self.eat_punct(Punct::Dot) {
                        let (seg, _) = self.expect_ident()?;
                        path.push('.');
                        path.push_str(&seg);
                    }
                    self.expect_punct(Punct::Assign)?;
                    let value = self.parse_expr()?;
                    let end = self.expect_punct(Punct::Semi)?;
                    Ok(Item::Defparam {
                        path,
                        value,
                        span: start.to(end),
                    })
                }
                Keyword::Assign => {
                    self.bump();
                    let delay = self.parse_opt_delay()?;
                    let mut assigns = Vec::new();
                    loop {
                        let lhs = self.parse_expr()?;
                        self.expect_punct(Punct::Assign)?;
                        let rhs = self.parse_expr()?;
                        assigns.push((lhs, rhs));
                        if !self.eat_punct(Punct::Comma) {
                            break;
                        }
                    }
                    let end = self.expect_punct(Punct::Semi)?;
                    Ok(Item::Assign(AssignItem {
                        delay,
                        assigns,
                        span: start.to(end),
                    }))
                }
                Keyword::Always => {
                    self.bump();
                    let body = self.parse_stmt()?;
                    let span = start.to(body.span);
                    Ok(Item::Always(AlwaysItem { body, span }))
                }
                Keyword::Initial => {
                    self.bump();
                    let body = self.parse_stmt()?;
                    let span = start.to(body.span);
                    Ok(Item::Initial(InitialItem { body, span }))
                }
                Keyword::And
                | Keyword::Or
                | Keyword::Not
                | Keyword::Nand
                | Keyword::Nor
                | Keyword::Xor
                | Keyword::Xnor
                | Keyword::Buf => self.parse_gate(start),
                Keyword::Function => self.parse_function(start),
                Keyword::Task => Err(ParseError::new(
                    "`task` definitions are not supported by this subset",
                    start,
                )),
                Keyword::Generate | Keyword::Genvar => Err(ParseError::new(
                    "generate constructs are not supported by this subset",
                    start,
                )),
                other => Err(ParseError::new(
                    format!("unexpected `{other}` in module body"),
                    start,
                )),
            },
            TokenKind::Ident(_) => self.parse_instance(start),
            _ => Err(self.unexpected("module item")),
        }
    }

    fn parse_decl_tail(
        &mut self,
        dir: Option<PortDir>,
        kind: Option<NetKind>,
        start: Span,
    ) -> Result<Item, ParseError> {
        // `output reg [3:0] q;` — direction may be followed by a kind.
        let kind = match kind {
            Some(k) => Some(k),
            None => self.parse_opt_net_kind(),
        };
        let signed = self.eat_keyword(Keyword::Signed);
        let range = self.parse_opt_range()?;
        let mut names = Vec::new();
        loop {
            let (name, nspan) = self.expect_ident()?;
            let mut dims = Vec::new();
            while self.at_punct(Punct::LBracket) {
                dims.push(self.parse_opt_range()?.expect("checked opening bracket"));
            }
            let init = if self.eat_punct(Punct::Assign) {
                Some(self.parse_expr()?)
            } else {
                None
            };
            names.push(Declarator {
                name,
                dims,
                init,
                span: nspan,
            });
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        let end = self.expect_punct(Punct::Semi)?;
        Ok(Item::Decl(Decl {
            dir,
            kind,
            signed,
            range,
            names,
            span: start.to(end),
        }))
    }

    fn parse_param_decl(&mut self, local: bool) -> Result<ParamDecl, ParseError> {
        let start = self.span();
        // Inside a parameter port list the keyword is optional after the first.
        self.eat_keyword(Keyword::Parameter);
        self.parse_param_decl_body(local, start)
    }

    /// Parses `[signed] [range] name = expr {, name = expr}` after the
    /// `parameter`/`localparam` keyword.
    fn parse_param_decl_body(&mut self, local: bool, start: Span) -> Result<ParamDecl, ParseError> {
        let signed = self.eat_keyword(Keyword::Signed);
        self.eat_keyword(Keyword::Integer); // `parameter integer N = 4`
        let range = self.parse_opt_range()?;
        let mut assigns = Vec::new();
        loop {
            let (name, _) = self.expect_ident()?;
            self.expect_punct(Punct::Assign)?;
            let value = self.parse_expr()?;
            assigns.push((name, value));
            // In a module body list: `parameter A = 0, B = 1;`. In a header
            // parameter list the comma may instead introduce a new
            // `parameter` keyword, handled by the caller — stop if the next
            // token after the comma is a keyword.
            if self.at_punct(Punct::Comma)
                && matches!(self.peek_at(1), TokenKind::Ident(_))
                && self.peek_at(2).as_punct() == Some(Punct::Assign)
            {
                self.bump();
                continue;
            }
            break;
        }
        Ok(ParamDecl {
            local,
            signed,
            range,
            assigns,
            span: start.to(self.prev_span()),
        })
    }

    /// Parses `function [automatic] [signed] [range] name; {decls} stmt
    /// endfunction`. ANSI-style argument lists in the header are also
    /// accepted: `function [3:0] f(input [3:0] a);`.
    fn parse_function(&mut self, start: Span) -> Result<Item, ParseError> {
        self.expect_keyword(Keyword::Function)?;
        self.eat_keyword(Keyword::Automatic);
        let signed = self.eat_keyword(Keyword::Signed);
        let range = self.parse_opt_range()?;
        let (name, _) = self.expect_ident()?;
        let mut decls = Vec::new();
        if self.eat_punct(Punct::LParen) {
            // ANSI header arguments.
            if !self.at_punct(Punct::RParen) {
                loop {
                    let dstart = self.span();
                    let dir = self.parse_opt_dir();
                    if dir.is_none() {
                        return Err(self.unexpected("`input` argument declaration"));
                    }
                    let kind = self.parse_opt_net_kind();
                    let dsigned = self.eat_keyword(Keyword::Signed);
                    let drange = self.parse_opt_range()?;
                    let (aname, aspan) = self.expect_ident()?;
                    decls.push(Decl {
                        dir,
                        kind,
                        signed: dsigned,
                        range: drange,
                        names: vec![Declarator {
                            name: aname,
                            dims: vec![],
                            init: None,
                            span: aspan,
                        }],
                        span: dstart.to(aspan),
                    });
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
            }
            self.expect_punct(Punct::RParen)?;
        }
        self.expect_punct(Punct::Semi)?;
        // Non-ANSI input/local declarations before the body.
        loop {
            let dstart = self.span();
            match self.peek().as_keyword() {
                Some(Keyword::Input) => {
                    let dir = self.parse_opt_dir();
                    let kind = self.parse_opt_net_kind();
                    match self.parse_decl_tail(dir, kind, dstart)? {
                        Item::Decl(d) => decls.push(d),
                        _ => unreachable!("decl tail returns Decl"),
                    }
                }
                Some(Keyword::Reg | Keyword::Integer | Keyword::Time) => {
                    let kind = self.parse_opt_net_kind();
                    match self.parse_decl_tail(None, kind, dstart)? {
                        Item::Decl(d) => decls.push(d),
                        _ => unreachable!("decl tail returns Decl"),
                    }
                }
                _ => break,
            }
        }
        let body = self.parse_stmt()?;
        let end = self.expect_keyword(Keyword::Endfunction)?;
        Ok(Item::Function(FunctionDecl {
            name,
            signed,
            range,
            decls,
            body,
            span: start.to(end),
        }))
    }

    fn parse_gate(&mut self, start: Span) -> Result<Item, ParseError> {
        let kind = match self.bump().kind.as_keyword().expect("gate keyword") {
            Keyword::And => GateKind::And,
            Keyword::Or => GateKind::Or,
            Keyword::Not => GateKind::Not,
            Keyword::Nand => GateKind::Nand,
            Keyword::Nor => GateKind::Nor,
            Keyword::Xor => GateKind::Xor,
            Keyword::Xnor => GateKind::Xnor,
            Keyword::Buf => GateKind::Buf,
            _ => unreachable!("caller matched a gate keyword"),
        };
        let name = if let TokenKind::Ident(_) = self.peek() {
            Some(self.expect_ident()?.0)
        } else {
            None
        };
        self.expect_punct(Punct::LParen)?;
        let mut conns = Vec::new();
        loop {
            conns.push(self.parse_expr()?);
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::RParen)?;
        let end = self.expect_punct(Punct::Semi)?;
        if conns.len() < 2 {
            return Err(ParseError::new(
                "gate primitive needs an output and at least one input",
                start.to(end),
            ));
        }
        Ok(Item::Gate(GateInstance {
            kind,
            name,
            conns,
            span: start.to(end),
        }))
    }

    fn parse_instance(&mut self, start: Span) -> Result<Item, ParseError> {
        let (module, _) = self.expect_ident()?;
        let mut params = Vec::new();
        if self.eat_punct(Punct::Hash) {
            self.expect_punct(Punct::LParen)?;
            params = self.parse_connection_list()?;
            self.expect_punct(Punct::RParen)?;
        }
        let (name, _) = self.expect_ident()?;
        self.expect_punct(Punct::LParen)?;
        let conns = if self.at_punct(Punct::RParen) {
            Vec::new()
        } else {
            self.parse_connection_list()?
        };
        self.expect_punct(Punct::RParen)?;
        let end = self.expect_punct(Punct::Semi)?;
        Ok(Item::Instance(Instance {
            module,
            params,
            name,
            conns,
            span: start.to(end),
        }))
    }

    fn parse_connection_list(&mut self) -> Result<Vec<Connection>, ParseError> {
        let mut conns = Vec::new();
        loop {
            if self.eat_punct(Punct::Dot) {
                let (port, _) = self.expect_ident()?;
                self.expect_punct(Punct::LParen)?;
                let expr = if self.at_punct(Punct::RParen) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect_punct(Punct::RParen)?;
                conns.push(Connection::Named(port, expr));
            } else {
                conns.push(Connection::Positional(self.parse_expr()?));
            }
            if !self.eat_punct(Punct::Comma) {
                return Ok(conns);
            }
        }
    }

    // ----------------------------------------------------------- statements

    fn parse_stmt(&mut self) -> Result<Stmt, ParseError> {
        self.enter()?;
        let result = self.parse_stmt_inner();
        self.exit();
        result
    }

    fn parse_stmt_inner(&mut self) -> Result<Stmt, ParseError> {
        let start = self.span();
        match self.peek() {
            TokenKind::Keyword(Keyword::Begin) => self.parse_block(start),
            TokenKind::Keyword(Keyword::If) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                let then = Box::new(self.parse_stmt()?);
                let els = if self.eat_keyword(Keyword::Else) {
                    Some(Box::new(self.parse_stmt()?))
                } else {
                    None
                };
                let end = els.as_ref().map(|e| e.span).unwrap_or(then.span);
                Ok(Stmt {
                    kind: StmtKind::If { cond, then, els },
                    span: start.to(end),
                })
            }
            TokenKind::Keyword(k @ (Keyword::Case | Keyword::Casez | Keyword::Casex)) => {
                let kind = match k {
                    Keyword::Case => CaseKind::Exact,
                    Keyword::Casez => CaseKind::Z,
                    _ => CaseKind::X,
                };
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let expr = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                let mut arms = Vec::new();
                while !self.at_keyword(Keyword::Endcase) {
                    if matches!(self.peek(), TokenKind::Eof) {
                        return Err(ParseError::new("missing `endcase`", self.span()));
                    }
                    arms.push(self.parse_case_arm()?);
                }
                let end = self.expect_keyword(Keyword::Endcase)?;
                Ok(Stmt {
                    kind: StmtKind::Case { kind, expr, arms },
                    span: start.to(end),
                })
            }
            TokenKind::Keyword(Keyword::For) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let init_lhs = self.parse_expr()?;
                self.expect_punct(Punct::Assign)?;
                let init_rhs = self.parse_expr()?;
                self.expect_punct(Punct::Semi)?;
                let cond = self.parse_expr()?;
                self.expect_punct(Punct::Semi)?;
                let step_lhs = self.parse_expr()?;
                self.expect_punct(Punct::Assign)?;
                let step_rhs = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                let body = Box::new(self.parse_stmt()?);
                let span = start.to(body.span);
                Ok(Stmt {
                    kind: StmtKind::For {
                        init: Box::new((init_lhs, init_rhs)),
                        cond,
                        step: Box::new((step_lhs, step_rhs)),
                        body,
                    },
                    span,
                })
            }
            TokenKind::Keyword(Keyword::While) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                let body = Box::new(self.parse_stmt()?);
                let span = start.to(body.span);
                Ok(Stmt {
                    kind: StmtKind::While { cond, body },
                    span,
                })
            }
            TokenKind::Keyword(Keyword::Repeat) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let count = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                let body = Box::new(self.parse_stmt()?);
                let span = start.to(body.span);
                Ok(Stmt {
                    kind: StmtKind::Repeat { count, body },
                    span,
                })
            }
            TokenKind::Keyword(Keyword::Forever) => {
                self.bump();
                let body = Box::new(self.parse_stmt()?);
                let span = start.to(body.span);
                Ok(Stmt {
                    kind: StmtKind::Forever { body },
                    span,
                })
            }
            TokenKind::Keyword(Keyword::Wait) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                let stmt = self.parse_opt_substmt()?;
                Ok(Stmt {
                    span: start.to(self.prev_span()),
                    kind: StmtKind::Wait { cond, stmt },
                })
            }
            TokenKind::Keyword(Keyword::Disable) => {
                self.bump();
                let (name, _) = self.expect_ident()?;
                let end = self.expect_punct(Punct::Semi)?;
                Ok(Stmt {
                    kind: StmtKind::Disable(name),
                    span: start.to(end),
                })
            }
            TokenKind::Punct(Punct::Hash) => {
                self.bump();
                let amount = self.parse_delay_value()?;
                let stmt = self.parse_opt_substmt()?;
                Ok(Stmt {
                    span: start.to(self.prev_span()),
                    kind: StmtKind::Delay { amount, stmt },
                })
            }
            TokenKind::Punct(Punct::At) => {
                self.bump();
                let control = self.parse_event_control()?;
                let stmt = self.parse_opt_substmt()?;
                Ok(Stmt {
                    span: start.to(self.prev_span()),
                    kind: StmtKind::Event { control, stmt },
                })
            }
            TokenKind::SysIdent(_) => {
                let name = match self.bump().kind {
                    TokenKind::SysIdent(s) => s,
                    _ => unreachable!(),
                };
                let mut args = Vec::new();
                if self.eat_punct(Punct::LParen) {
                    if !self.at_punct(Punct::RParen) {
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat_punct(Punct::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect_punct(Punct::RParen)?;
                }
                let end = self.expect_punct(Punct::Semi)?;
                Ok(Stmt {
                    kind: StmtKind::SysCall { name, args },
                    span: start.to(end),
                })
            }
            TokenKind::Punct(Punct::Semi) => {
                let end = self.bump().span;
                Ok(Stmt {
                    kind: StmtKind::Null,
                    span: end,
                })
            }
            TokenKind::Ident(_) | TokenKind::Punct(Punct::LBrace) => {
                self.parse_assign_or_call(start)
            }
            _ => Err(self.unexpected("statement")),
        }
    }

    fn parse_opt_substmt(&mut self) -> Result<Option<Box<Stmt>>, ParseError> {
        if self.eat_punct(Punct::Semi) {
            Ok(None)
        } else {
            Ok(Some(Box::new(self.parse_stmt()?)))
        }
    }

    fn parse_block(&mut self, start: Span) -> Result<Stmt, ParseError> {
        self.expect_keyword(Keyword::Begin)?;
        let name = if self.eat_punct(Punct::Colon) {
            Some(self.expect_ident()?.0)
        } else {
            None
        };
        let mut decls = Vec::new();
        // Local declarations are only allowed at the top of the block.
        loop {
            let dstart = self.span();
            match self.peek().as_keyword() {
                Some(Keyword::Reg | Keyword::Integer | Keyword::Time | Keyword::Real) => {
                    let kind = self.parse_opt_net_kind();
                    match self.parse_decl_tail(None, kind, dstart)? {
                        Item::Decl(d) => decls.push(d),
                        _ => unreachable!("decl tail returns Decl"),
                    }
                }
                _ => break,
            }
        }
        let mut stmts = Vec::new();
        while !self.at_keyword(Keyword::End) {
            if matches!(self.peek(), TokenKind::Eof) {
                return Err(ParseError::new("missing `end`", self.span()));
            }
            stmts.push(self.parse_stmt()?);
        }
        let end = self.expect_keyword(Keyword::End)?;
        Ok(Stmt {
            kind: StmtKind::Block { name, decls, stmts },
            span: start.to(end),
        })
    }

    fn parse_case_arm(&mut self) -> Result<CaseArm, ParseError> {
        if self.eat_keyword(Keyword::Default) {
            self.eat_punct(Punct::Colon);
            let body = self.parse_stmt()?;
            return Ok(CaseArm {
                labels: vec![],
                body,
            });
        }
        let mut labels = vec![self.parse_expr()?];
        while self.eat_punct(Punct::Comma) {
            labels.push(self.parse_expr()?);
        }
        self.expect_punct(Punct::Colon)?;
        let body = self.parse_stmt()?;
        Ok(CaseArm { labels, body })
    }

    fn parse_event_control(&mut self) -> Result<EventControl, ParseError> {
        if self.eat_punct(Punct::Star) {
            return Ok(EventControl::Star);
        }
        self.expect_punct(Punct::LParen)?;
        if self.eat_punct(Punct::Star) {
            self.expect_punct(Punct::RParen)?;
            return Ok(EventControl::Star);
        }
        let mut terms = Vec::new();
        loop {
            let edge = if self.eat_keyword(Keyword::Posedge) {
                Some(Edge::Pos)
            } else if self.eat_keyword(Keyword::Negedge) {
                Some(Edge::Neg)
            } else {
                None
            };
            let expr = self.parse_expr()?;
            terms.push(EventExpr { edge, expr });
            if self.eat_keyword(Keyword::Or) || self.eat_punct(Punct::Comma) {
                continue;
            }
            break;
        }
        self.expect_punct(Punct::RParen)?;
        Ok(EventControl::List(terms))
    }

    fn parse_opt_delay(&mut self) -> Result<Option<Expr>, ParseError> {
        if !self.eat_punct(Punct::Hash) {
            return Ok(None);
        }
        Ok(Some(self.parse_delay_value()?))
    }

    fn parse_delay_value(&mut self) -> Result<Expr, ParseError> {
        if self.eat_punct(Punct::LParen) {
            let e = self.parse_expr()?;
            self.expect_punct(Punct::RParen)?;
            return Ok(e);
        }
        // A delay is a primary: number, real or identifier.
        self.parse_primary()
    }

    /// Parses a statement starting with an lvalue: a procedural assignment
    /// (`x = e;`, `x <= e;`, with optional intra-assignment delay) or a task
    /// call (`t(args);` / `t;`).
    fn parse_assign_or_call(&mut self, start: Span) -> Result<Stmt, ParseError> {
        // Task call: ident ( ... ) ; or ident ;
        if let TokenKind::Ident(name) = self.peek().clone() {
            if self.peek_at(1).as_punct() == Some(Punct::Semi) {
                self.bump();
                let end = self.bump().span;
                return Ok(Stmt {
                    kind: StmtKind::TaskCall { name, args: vec![] },
                    span: start.to(end),
                });
            }
        }
        // Lvalues are postfix expressions (identifier, select, concat);
        // using the full expression parser here would swallow `q <= x` as a
        // comparison.
        let lhs = self.expr_frame(Self::parse_postfix)?;
        let op = if self.eat_punct(Punct::Assign) {
            AssignOp::Blocking
        } else if self.eat_punct(Punct::LtEq) {
            AssignOp::NonBlocking
        } else if self.at_punct(Punct::Semi) {
            // `foo(args);` parsed as a call expression — degrade to TaskCall.
            if let ExprKind::Call { name, args } = lhs.kind {
                let end = self.bump().span;
                return Ok(Stmt {
                    kind: StmtKind::TaskCall { name, args },
                    span: start.to(end),
                });
            }
            return Err(self.unexpected("`=` or `<=`"));
        } else {
            return Err(self.unexpected("`=` or `<=`"));
        };
        let delay = self.parse_opt_delay()?;
        let rhs = self.parse_expr()?;
        let end = self.expect_punct(Punct::Semi)?;
        Ok(Stmt {
            kind: StmtKind::Assign {
                lhs,
                op,
                delay,
                rhs,
            },
            span: start.to(end),
        })
    }

    // ---------------------------------------------------------- expressions

    fn parse_expr(&mut self) -> Result<Expr, ParseError> {
        self.parse_ternary()
    }

    fn parse_ternary(&mut self) -> Result<Expr, ParseError> {
        self.expr_frame(Self::parse_ternary_inner)
    }

    fn parse_ternary_inner(&mut self) -> Result<Expr, ParseError> {
        let cond = self.parse_binary(0)?;
        if !self.eat_punct(Punct::Question) {
            return Ok(cond);
        }
        let then = self.parse_ternary()?;
        self.expect_punct(Punct::Colon)?;
        let els = self.parse_ternary()?;
        let span = cond.span.to(els.span);
        self.stack_node(span)?;
        Ok(Expr::new(
            ExprKind::Ternary {
                cond: Box::new(cond),
                then: Box::new(then),
                els: Box::new(els),
            },
            span,
        ))
    }

    /// Precedence-climbing binary expression parser. Level 0 is `||`.
    fn parse_binary(&mut self, min_level: u8) -> Result<Expr, ParseError> {
        self.expr_frame(|p| p.parse_binary_inner(min_level))
    }

    fn parse_binary_inner(&mut self, min_level: u8) -> Result<Expr, ParseError> {
        let mut lhs = self.parse_unary()?;
        loop {
            let Some((op, level)) = self.peek_binary_op() else {
                return Ok(lhs);
            };
            if level < min_level {
                return Ok(lhs);
            }
            self.bump();
            // All supported binary operators are left-associative except
            // `**`, which is right-associative.
            let next_min = if op == BinaryOp::Pow {
                level
            } else {
                level + 1
            };
            let rhs = self.parse_binary(next_min)?;
            let span = lhs.span.to(rhs.span);
            self.stack_node(span)?;
            lhs = Expr::new(
                ExprKind::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
            );
        }
    }

    fn peek_binary_op(&self) -> Option<(BinaryOp, u8)> {
        use BinaryOp::*;
        use Punct as P;
        let op = match self.peek().as_punct()? {
            P::PipePipe => (LogicOr, 0),
            P::AmpAmp => (LogicAnd, 1),
            P::Pipe => (BitOr, 2),
            P::Caret => (BitXor, 3),
            P::TildeCaret | P::CaretTilde => (BitXnor, 3),
            P::Amp => (BitAnd, 4),
            P::EqEq => (Eq, 5),
            P::NotEq => (Ne, 5),
            P::CaseEq => (CaseEq, 5),
            P::CaseNotEq => (CaseNe, 5),
            P::Lt => (Lt, 6),
            P::LtEq => (Le, 6),
            P::Gt => (Gt, 6),
            P::GtEq => (Ge, 6),
            P::Shl => (Shl, 7),
            P::Shr => (Shr, 7),
            P::AShl => (AShl, 7),
            P::AShr => (AShr, 7),
            P::Plus => (Add, 8),
            P::Minus => (Sub, 8),
            P::Star => (Mul, 9),
            P::Slash => (Div, 9),
            P::Percent => (Rem, 9),
            P::Power => (Pow, 10),
            _ => return None,
        };
        Some(op)
    }

    fn parse_unary(&mut self) -> Result<Expr, ParseError> {
        // Every operand passes through here, so this one guard bounds all
        // expression recursion (parens, unary chains, `**` right recursion).
        self.expr_frame(Self::parse_unary_inner)
    }

    fn parse_unary_inner(&mut self) -> Result<Expr, ParseError> {
        use Punct as P;
        use UnaryOp::*;
        let start = self.span();
        let op = match self.peek().as_punct() {
            Some(P::Plus) => Some(Plus),
            Some(P::Minus) => Some(Neg),
            Some(P::Bang) => Some(LogicNot),
            Some(P::Tilde) => Some(BitNot),
            Some(P::Amp) => Some(ReduceAnd),
            Some(P::Pipe) => Some(ReduceOr),
            Some(P::Caret) => Some(ReduceXor),
            Some(P::TildeAmp) => Some(ReduceNand),
            Some(P::TildePipe) => Some(ReduceNor),
            Some(P::TildeCaret) | Some(P::CaretTilde) => Some(ReduceXnor),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let arg = self.parse_unary()?;
            let span = start.to(arg.span);
            self.stack_node(span)?;
            return Ok(Expr::new(
                ExprKind::Unary {
                    op,
                    arg: Box::new(arg),
                },
                span,
            ));
        }
        self.parse_postfix()
    }

    fn parse_postfix(&mut self) -> Result<Expr, ParseError> {
        // A parenthesised primary is its inner expression, not a new node.
        let paren = self.at_punct(Punct::LParen);
        let mut expr = self.parse_primary()?;
        if !paren {
            self.stack_node(expr.span)?;
        }
        loop {
            if !self.at_punct(Punct::LBracket) {
                return Ok(expr);
            }
            self.bump();
            let first = self.parse_expr()?;
            if self.eat_punct(Punct::Colon) {
                let lsb = self.parse_expr()?;
                let end = self.expect_punct(Punct::RBracket)?;
                let span = expr.span.to(end);
                self.stack_node(span)?;
                expr = Expr::new(
                    ExprKind::PartSelect {
                        base: Box::new(expr),
                        msb: Box::new(first),
                        lsb: Box::new(lsb),
                    },
                    span,
                );
            } else if self.eat_punct(Punct::PlusColon) || {
                // distinguish +: and -: (already lexed as single tokens)
                false
            } {
                let width = self.parse_expr()?;
                let end = self.expect_punct(Punct::RBracket)?;
                let span = expr.span.to(end);
                self.stack_node(span)?;
                expr = Expr::new(
                    ExprKind::IndexedSelect {
                        base: Box::new(expr),
                        start: Box::new(first),
                        width: Box::new(width),
                        ascending: true,
                    },
                    span,
                );
            } else if self.eat_punct(Punct::MinusColon) {
                let width = self.parse_expr()?;
                let end = self.expect_punct(Punct::RBracket)?;
                let span = expr.span.to(end);
                self.stack_node(span)?;
                expr = Expr::new(
                    ExprKind::IndexedSelect {
                        base: Box::new(expr),
                        start: Box::new(first),
                        width: Box::new(width),
                        ascending: false,
                    },
                    span,
                );
            } else {
                let end = self.expect_punct(Punct::RBracket)?;
                let span = expr.span.to(end);
                self.stack_node(span)?;
                expr = Expr::new(
                    ExprKind::Index {
                        base: Box::new(expr),
                        index: Box::new(first),
                    },
                    span,
                );
            }
        }
    }

    fn parse_primary(&mut self) -> Result<Expr, ParseError> {
        let start = self.span();
        match self.peek().clone() {
            TokenKind::Number(text) => {
                self.bump();
                let value = parse_number(&text).map_err(|e| ParseError::new(e.message, start))?;
                Ok(Expr::number(value, start))
            }
            TokenKind::Real(text) => {
                self.bump();
                Ok(Expr::new(ExprKind::Real(text), start))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(Expr::new(ExprKind::Str(s), start))
            }
            TokenKind::Ident(name) => {
                self.bump();
                if self.at_punct(Punct::LParen) {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.at_punct(Punct::RParen) {
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat_punct(Punct::Comma) {
                                break;
                            }
                        }
                    }
                    let end = self.expect_punct(Punct::RParen)?;
                    return Ok(Expr::new(ExprKind::Call { name, args }, start.to(end)));
                }
                Ok(Expr::ident(name, start))
            }
            TokenKind::SysIdent(name) => {
                self.bump();
                let mut args = Vec::new();
                if self.eat_punct(Punct::LParen) {
                    if !self.at_punct(Punct::RParen) {
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat_punct(Punct::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect_punct(Punct::RParen)?;
                }
                Ok(Expr::new(
                    ExprKind::SysCall { name, args },
                    start.to(self.prev_span()),
                ))
            }
            TokenKind::Punct(Punct::LParen) => {
                self.bump();
                let inner = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                Ok(inner)
            }
            TokenKind::Punct(Punct::LBrace) => self.parse_concat(start),
            _ => Err(self.unexpected("expression")),
        }
    }

    fn parse_concat(&mut self, start: Span) -> Result<Expr, ParseError> {
        self.expect_punct(Punct::LBrace)?;
        let first = self.parse_expr()?;
        // Replication: `{count{items}}`.
        if self.at_punct(Punct::LBrace) {
            self.bump();
            let mut items = Vec::new();
            loop {
                items.push(self.parse_expr()?);
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            self.expect_punct(Punct::RBrace)?;
            let end = self.expect_punct(Punct::RBrace)?;
            return Ok(Expr::new(
                ExprKind::Replicate {
                    count: Box::new(first),
                    items,
                },
                start.to(end),
            ));
        }
        let mut items = vec![first];
        while self.eat_punct(Punct::Comma) {
            items.push(self.parse_expr()?);
        }
        let end = self.expect_punct(Punct::RBrace)?;
        Ok(Expr::new(ExprKind::Concat(items), start.to(end)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(src: &str) -> SourceFile {
        match parse(src) {
            Ok(f) => f,
            Err(e) => panic!("parse failed: {}\nsource:\n{src}", e.render(src)),
        }
    }

    #[test]
    fn simple_wire_module() {
        let f = parse_ok("module w(input a, output b); assign b = a; endmodule");
        let m = &f.modules[0];
        assert_eq!(m.name, "w");
        assert_eq!(m.ports, vec!["a", "b"]);
        assert_eq!(m.items.len(), 3); // two port decls + assign
    }

    #[test]
    fn ansi_header_with_reg_and_range() {
        let f = parse_ok("module c(input clk, input reset, output reg [3:0] q); endmodule");
        let m = &f.modules[0];
        assert_eq!(m.ports, vec!["clk", "reset", "q"]);
        let Item::Decl(d) = &m.items[2] else {
            panic!("expected decl")
        };
        assert_eq!(d.dir, Some(PortDir::Output));
        assert_eq!(d.kind, Some(NetKind::Reg));
        assert!(d.range.is_some());
    }

    #[test]
    fn header_direction_groups() {
        let f = parse_ok("module m(input a, b, output c); endmodule");
        let m = &f.modules[0];
        assert_eq!(m.ports, vec!["a", "b", "c"]);
        let Item::Decl(d) = &m.items[0] else { panic!() };
        assert_eq!(d.names.len(), 2);
    }

    #[test]
    fn non_ansi_ports() {
        let f = parse_ok("module m(a, y);\ninput a;\noutput y;\nwire a;\nassign y = a;\nendmodule");
        assert_eq!(f.modules[0].ports, vec!["a", "y"]);
    }

    #[test]
    fn always_posedge_nonblocking() {
        let f = parse_ok(
            "module m(input clk, output reg q);\n\
             always @(posedge clk) q <= ~q;\nendmodule",
        );
        let Item::Always(a) = &f.modules[0].items[2] else {
            panic!()
        };
        let StmtKind::Event { control, stmt } = &a.body.kind else {
            panic!()
        };
        let EventControl::List(terms) = control else {
            panic!()
        };
        assert_eq!(terms[0].edge, Some(Edge::Pos));
        let StmtKind::Assign { op, .. } = &stmt.as_ref().expect("stmt").kind else {
            panic!()
        };
        assert_eq!(*op, AssignOp::NonBlocking);
    }

    #[test]
    fn sensitivity_star_variants() {
        for src in [
            "module m(input a, output reg y); always @* y = a; endmodule",
            "module m(input a, output reg y); always @(*) y = a; endmodule",
        ] {
            let f = parse_ok(src);
            let Item::Always(a) = &f.modules[0].items[2] else {
                panic!()
            };
            let StmtKind::Event { control, .. } = &a.body.kind else {
                panic!()
            };
            assert_eq!(*control, EventControl::Star);
        }
    }

    #[test]
    fn event_list_or_and_comma() {
        for src in [
            "module m(input a, b, output reg y); always @(a or b) y = a & b; endmodule",
            "module m(input a, b, output reg y); always @(a, b) y = a & b; endmodule",
        ] {
            let f = parse_ok(src);
            let Item::Always(al) = f.modules[0]
                .items
                .iter()
                .find(|i| matches!(i, Item::Always(_)))
                .expect("always")
            else {
                panic!()
            };
            let StmtKind::Event {
                control: EventControl::List(terms),
                ..
            } = &al.body.kind
            else {
                panic!()
            };
            assert_eq!(terms.len(), 2);
        }
    }

    #[test]
    fn case_statement_with_default() {
        let f = parse_ok(
            "module m(input [1:0] s, output reg y);\nalways @(*) begin\n\
             case (s)\n2'b00: y = 0;\n2'b01, 2'b10: y = 1;\ndefault: y = 0;\nendcase\nend\nendmodule",
        );
        let Item::Always(a) = &f.modules[0].items[2] else {
            panic!()
        };
        let StmtKind::Event { stmt, .. } = &a.body.kind else {
            panic!()
        };
        let StmtKind::Block { stmts, .. } = &stmt.as_ref().expect("block").kind else {
            panic!()
        };
        let StmtKind::Case { arms, .. } = &stmts[0].kind else {
            panic!()
        };
        assert_eq!(arms.len(), 3);
        assert_eq!(arms[1].labels.len(), 2);
        assert!(arms[2].labels.is_empty());
    }

    #[test]
    fn parameters_and_localparams() {
        let f = parse_ok(
            "module m;\nparameter IDLE = 0, SA = 1, SB = 2, SAB = 3;\n\
             localparam W = 4;\nendmodule",
        );
        let Item::Param(p) = &f.modules[0].items[0] else {
            panic!()
        };
        assert_eq!(p.assigns.len(), 4);
        assert!(!p.local);
        let Item::Param(lp) = &f.modules[0].items[1] else {
            panic!()
        };
        assert!(lp.local);
    }

    #[test]
    fn memory_declaration() {
        let f = parse_ok("module m;\nreg [7:0] mem [0:63];\nendmodule");
        let Item::Decl(d) = &f.modules[0].items[0] else {
            panic!()
        };
        assert_eq!(d.names[0].dims.len(), 1);
    }

    #[test]
    fn module_instance_named_and_positional() {
        let f = parse_ok(
            "module tb;\nwire a, y;\nsub u1(.a(a), .y(y));\nsub u2(a, y);\n\
             sub #(.W(4)) u3(.a(a), .y());\nendmodule",
        );
        let insts: Vec<&Instance> = f.modules[0]
            .items
            .iter()
            .filter_map(|i| match i {
                Item::Instance(inst) => Some(inst),
                _ => None,
            })
            .collect();
        assert_eq!(insts.len(), 3);
        assert_eq!(insts[0].conns.len(), 2);
        assert!(matches!(insts[1].conns[0], Connection::Positional(_)));
        assert_eq!(insts[2].params.len(), 1);
        assert!(matches!(insts[2].conns[1], Connection::Named(_, None)));
    }

    #[test]
    fn gate_primitives() {
        let f = parse_ok(
            "module g(input a, b, output y1, y2);\nand g1(y1, a, b);\nor (y2, a, b);\nendmodule",
        );
        let gates: Vec<&GateInstance> = f.modules[0]
            .items
            .iter()
            .filter_map(|i| match i {
                Item::Gate(g) => Some(g),
                _ => None,
            })
            .collect();
        assert_eq!(gates.len(), 2);
        assert_eq!(gates[0].kind, GateKind::And);
        assert_eq!(gates[1].name, None);
    }

    #[test]
    fn initial_with_delays_and_syscalls() {
        let f = parse_ok(
            "module tb;\nreg clk;\ninitial begin\nclk = 0;\n#5 clk = 1;\n\
             #10;\n$display(\"t=%0d\", $time);\n$finish;\nend\nendmodule",
        );
        let Item::Initial(i) = &f.modules[0].items[1] else {
            panic!()
        };
        let StmtKind::Block { stmts, .. } = &i.body.kind else {
            panic!()
        };
        assert_eq!(stmts.len(), 5);
        assert!(matches!(stmts[1].kind, StmtKind::Delay { .. }));
        assert!(matches!(
            stmts[3].kind,
            StmtKind::SysCall { ref name, .. } if name == "display"
        ));
    }

    #[test]
    fn clock_generator() {
        let f = parse_ok("module tb;\nreg clk;\nalways #5 clk = ~clk;\nendmodule");
        let Item::Always(a) = &f.modules[0].items[1] else {
            panic!()
        };
        assert!(matches!(a.body.kind, StmtKind::Delay { .. }));
    }

    #[test]
    fn for_loop() {
        let f = parse_ok(
            "module tb;\ninteger i;\nreg [7:0] m [0:3];\ninitial begin\n\
             for (i = 0; i < 4; i = i + 1) m[i] = i;\nend\nendmodule",
        );
        let Item::Initial(init) = &f.modules[0].items[2] else {
            panic!()
        };
        let StmtKind::Block { stmts, .. } = &init.body.kind else {
            panic!()
        };
        assert!(matches!(stmts[0].kind, StmtKind::For { .. }));
    }

    #[test]
    fn expression_precedence() {
        let f = parse_ok("module m(input a, b, c, output y); assign y = a & b | c; endmodule");
        let Item::Assign(a) = f.modules[0]
            .items
            .iter()
            .find(|i| matches!(i, Item::Assign(_)))
            .expect("assign")
        else {
            panic!()
        };
        // Must parse as (a & b) | c.
        let ExprKind::Binary { op, lhs, .. } = &a.assigns[0].1.kind else {
            panic!()
        };
        assert_eq!(*op, BinaryOp::BitOr);
        assert!(matches!(
            lhs.kind,
            ExprKind::Binary {
                op: BinaryOp::BitAnd,
                ..
            }
        ));
    }

    #[test]
    fn ternary_and_comparison() {
        parse_ok(
            "module m(input [3:0] a, output [3:0] y); assign y = a >= 4 ? a - 4 : a + 1; endmodule",
        );
    }

    #[test]
    fn concat_replicate_selects() {
        parse_ok(
            "module m(input [7:0] a, output [15:0] y);\n\
             assign y = {a[7:4], {2{a[1:0]}}, a[0], {4{1'b0}}, a[3]};\nendmodule",
        );
    }

    #[test]
    fn indexed_part_select() {
        let f =
            parse_ok("module m(input [31:0] a, output [7:0] y); assign y = a[8 +: 8]; endmodule");
        let Item::Assign(item) = f.modules[0]
            .items
            .iter()
            .find(|i| matches!(i, Item::Assign(_)))
            .expect("assign")
        else {
            panic!()
        };
        assert!(matches!(
            item.assigns[0].1.kind,
            ExprKind::IndexedSelect {
                ascending: true,
                ..
            }
        ));
    }

    #[test]
    fn signed_decl_and_system_functions() {
        parse_ok(
            "module m(input signed [7:0] a, b, output signed [7:0] s);\n\
             assign s = $signed(a) + $signed(b);\nendmodule",
        );
    }

    #[test]
    fn named_block_with_decl() {
        parse_ok("module m;\ninitial begin : blk\ninteger i;\ni = 0;\nend\nendmodule");
    }

    #[test]
    fn if_else_chain() {
        let f = parse_ok(
            "module m(input [2:0] x, output reg [1:0] p);\nalways @(x)\n\
             if (x == 0) p <= 0;\nelse if (x[0]) p <= 0;\nelse if (x[1]) p <= 1;\nelse p <= 2;\nendmodule",
        );
        let Item::Always(a) = &f.modules[0].items[2] else {
            panic!()
        };
        let StmtKind::Event { stmt, .. } = &a.body.kind else {
            panic!()
        };
        assert!(matches!(
            stmt.as_ref().expect("if").kind,
            StmtKind::If { .. }
        ));
    }

    #[test]
    fn intra_assignment_delay() {
        parse_ok("module m;\nreg a;\ninitial a = #3 1'b1;\nendmodule");
    }

    #[test]
    fn wait_and_repeat_and_forever() {
        parse_ok(
            "module m;\nreg clk, done;\ninitial begin\nwait (done);\n\
             repeat (3) @(posedge clk);\nend\nalways forever #5 clk = ~clk;\nendmodule",
        );
    }

    #[test]
    fn error_missing_endmodule() {
        assert!(parse("module m(input a);").is_err());
    }

    #[test]
    fn error_missing_semicolon() {
        assert!(parse("module m(input a, output y) assign y = a; endmodule").is_err());
    }

    #[test]
    fn error_bad_expression() {
        assert!(parse("module m(output y); assign y = ; endmodule").is_err());
    }

    #[test]
    fn error_unbalanced_begin() {
        assert!(parse("module m; initial begin x = 1; endmodule").is_err());
    }

    #[test]
    fn function_definition_non_ansi() {
        let f = parse_ok(
            "module m(input [3:0] a, output [3:0] y);\n\
             function [3:0] double;\ninput [3:0] v;\ndouble = v << 1;\nendfunction\n\
             assign y = double(a);\nendmodule",
        );
        let Item::Function(func) = &f.modules[0].items[2] else {
            panic!("expected function item")
        };
        assert_eq!(func.name, "double");
        assert!(func.range.is_some());
        assert_eq!(func.decls.len(), 1);
    }

    #[test]
    fn function_definition_ansi() {
        let f = parse_ok(
            "module m(input [7:0] a, b, output [7:0] y);\n\
             function [7:0] max2(input [7:0] x, input [7:0] z);\n\
             begin\nif (x > z) max2 = x;\nelse max2 = z;\nend\nendfunction\n\
             assign y = max2(a, b);\nendmodule",
        );
        let Item::Function(func) = &f.modules[0].items[2] else {
            panic!("expected function item")
        };
        assert_eq!(func.decls.len(), 2);
    }

    #[test]
    fn function_with_locals_and_loop() {
        parse_ok(
            "module m(input [7:0] a, output [3:0] y);\n\
             function [3:0] popcount;\ninput [7:0] v;\ninteger i;\nbegin\n\
             popcount = 0;\nfor (i = 0; i < 8; i = i + 1)\n\
             popcount = popcount + {3'b0, v[i]};\nend\nendfunction\n\
             assign y = popcount(a);\nendmodule",
        );
    }

    #[test]
    fn error_on_task_definition() {
        assert!(parse("module m; task t; endtask endmodule").is_err());
    }

    #[test]
    fn error_empty_source() {
        assert!(parse("").is_err());
        assert!(parse("// just a comment").is_err());
    }

    #[test]
    fn multiple_modules() {
        let f = parse_ok("module a; endmodule module b; endmodule");
        assert_eq!(f.modules.len(), 2);
        assert!(f.module("b").is_some());
    }

    #[test]
    fn power_is_right_associative() {
        let f = parse_ok("module m(output [31:0] y); assign y = 2 ** 3 ** 2; endmodule");
        let Item::Assign(a) = &f.modules[0].items[1] else {
            panic!()
        };
        // 2 ** (3 ** 2)
        let ExprKind::Binary { op, rhs, .. } = &a.assigns[0].1.kind else {
            panic!()
        };
        assert_eq!(*op, BinaryOp::Pow);
        assert!(matches!(
            rhs.kind,
            ExprKind::Binary {
                op: BinaryOp::Pow,
                ..
            }
        ));
    }

    #[test]
    fn header_parameter_list() {
        let f = parse_ok("module m #(parameter W = 8, D = 4) (input [W-1:0] a); endmodule");
        let params: Vec<&ParamDecl> = f.modules[0]
            .items
            .iter()
            .filter_map(|i| match i {
                Item::Param(p) => Some(p),
                _ => None,
            })
            .collect();
        assert_eq!(params.len(), 1);
        assert_eq!(params[0].assigns.len(), 2);
    }

    #[test]
    fn syntax_check_api() {
        assert!(syntax_check("module m; endmodule").is_ok());
        assert!(syntax_check("module m; garbage!!! endmodule").is_err());
    }

    #[test]
    fn wire_with_initialiser() {
        parse_ok("module m(input a, b); wire y = a & b; endmodule");
    }

    #[test]
    fn reduction_operators() {
        parse_ok(
            "module m(input [3:0] a, output y0, y1, y2);\nassign y0 = &a;\n\
             assign y1 = ~|a;\nassign y2 = ^a ^ ~^a;\nendmodule",
        );
    }

    #[test]
    fn defparam_is_parsed() {
        parse_ok("module m; defparam u.W = 4; endmodule");
    }

    /// `a op a op … op a` with `terms` operands: an expression `terms` deep.
    fn chain(op: &str, terms: usize) -> String {
        format!("a{}", format!(" {op} a").repeat(terms - 1))
    }

    fn assign(rhs: &str) -> String {
        format!("module m(input [3:0] a, output y, z);\nassign y = {rhs};\nendmodule\n")
    }

    fn too_deep(src: &str) {
        let err = parse(src).expect_err("deeper than the cap");
        assert_eq!(
            err.message,
            format!("expression deeper than {MAX_EXPR_DEPTH} levels")
        );
    }

    #[test]
    fn operator_chains_parse_up_to_the_depth_cap_and_no_further() {
        for op in ["^", "+", "&&", "==", "<<"] {
            parse_ok(&assign(&chain(op, MAX_EXPR_DEPTH)));
            too_deep(&assign(&chain(op, MAX_EXPR_DEPTH + 1)));
            too_deep(&assign(&chain(op, 10_000)));
        }
    }

    #[test]
    fn depth_counts_every_node_on_the_path() {
        let full = chain("^", MAX_EXPR_DEPTH);
        let short = chain("^", MAX_EXPR_DEPTH - 1);
        // Parentheses add no node; a unary operator or a concatenation does.
        parse_ok(&assign(&format!("({full})")));
        too_deep(&assign(&format!("~({full})")));
        parse_ok(&assign(&format!("{{{short}, a}}")));
        too_deep(&assign(&format!("{{{full}, a}}")));
        // A parenthesised chain under a chain: the two heights add.
        let half = chain("+", MAX_EXPR_DEPTH / 2);
        parse_ok(&assign(&format!("({half}) + {half}")));
        too_deep(&assign(&format!("({half}) + {half} + a")));
        // A tall operand late in a chain counts once, not once per node.
        let most = chain("^", MAX_EXPR_DEPTH - 1);
        parse_ok(&assign(&format!("{most} ^ ({most})")));
        // Select chains are built in a loop too, in rvalues and lvalues.
        parse_ok(&assign(&format!("a{}", "[0]".repeat(MAX_EXPR_DEPTH - 1))));
        too_deep(&assign(&format!("a{}", "[0]".repeat(MAX_EXPR_DEPTH))));
        too_deep(&assign(&format!("a{}", "[0]".repeat(10_000))));
        too_deep(&format!(
            "module m(input a); reg [3:0] q; always @* q{} = a; endmodule",
            "[0]".repeat(10_000)
        ));
    }

    #[test]
    fn sibling_expressions_each_get_the_whole_depth() {
        let full = chain("^", MAX_EXPR_DEPTH);
        parse_ok(&format!(
            "module m(input [3:0] a, output y, z);\nassign y = {full};\nassign z = {full};\n\
             reg q;\nalways @* if ({full}) q = {full};\nendmodule\n"
        ));
    }
}
