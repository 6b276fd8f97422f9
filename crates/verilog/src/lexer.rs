//! Hand-written lexer for the Verilog-2005 subset.
//!
//! Comments (`//`, `/* */`) and compiler directives (`` `timescale `` etc.)
//! are skipped; directives are consumed to end of line, which is sufficient
//! for the benchmark corpus (no macro expansion is required by the problem
//! set).

use crate::error::ParseError;
use crate::span::Span;
use crate::token::{Keyword, Punct, Token, TokenKind};

/// Converts Verilog source text into a token stream.
#[derive(Debug)]
pub struct Lexer<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer over `src`.
    pub fn new(src: &'a str) -> Self {
        Lexer {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

    /// Tokenizes the entire input, appending a final [`TokenKind::Eof`].
    ///
    /// # Errors
    ///
    /// Returns the first lexical error encountered (unterminated string or
    /// block comment, stray character).
    pub fn tokenize(mut self) -> Result<Vec<Token>, ParseError> {
        let mut out = Vec::new();
        loop {
            let tok = self.next_token()?;
            let done = tok.kind == TokenKind::Eof;
            out.push(tok);
            if done {
                return Ok(out);
            }
        }
    }

    /// Tokenizes as much as possible, stopping silently at the first error.
    ///
    /// Used for corpus statistics and truncation where partial results are
    /// more useful than failure. Always ends with an `Eof` token.
    pub fn tokenize_lossy(mut self) -> Vec<Token> {
        let mut out = Vec::new();
        loop {
            match self.next_token() {
                Ok(tok) => {
                    let done = tok.kind == TokenKind::Eof;
                    out.push(tok);
                    if done {
                        return out;
                    }
                }
                Err(e) => {
                    out.push(Token {
                        kind: TokenKind::Eof,
                        span: e.span,
                    });
                    return out;
                }
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.bytes.get(self.pos + off).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_trivia(&mut self) -> Result<(), ParseError> {
        loop {
            match self.peek() {
                Some(b) if b.is_ascii_whitespace() => {
                    self.pos += 1;
                }
                Some(b'/') if self.peek_at(1) == Some(b'/') => {
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                Some(b'/') if self.peek_at(1) == Some(b'*') => {
                    let start = self.pos as u32;
                    self.pos += 2;
                    loop {
                        match self.peek() {
                            Some(b'*') if self.peek_at(1) == Some(b'/') => {
                                self.pos += 2;
                                break;
                            }
                            Some(_) => self.pos += 1,
                            None => {
                                return Err(ParseError::new(
                                    "unterminated block comment",
                                    Span::new(start, self.pos as u32),
                                ))
                            }
                        }
                    }
                }
                Some(b'`') => {
                    // Compiler directive: skip to end of line.
                    while let Some(b) = self.peek() {
                        if b == b'\n' {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    /// Lexes the next token (an [`TokenKind::Eof`] once the input is spent).
    pub(crate) fn next_token(&mut self) -> Result<Token, ParseError> {
        self.skip_trivia()?;
        let start = self.pos as u32;
        let Some(b) = self.peek() else {
            return Ok(Token {
                kind: TokenKind::Eof,
                span: Span::point(start),
            });
        };

        let kind = match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => self.lex_word(),
            b'\\' => self.lex_escaped_ident(),
            b'$' => self.lex_sys_ident(),
            b'0'..=b'9' => self.lex_number()?,
            b'\'' => self.lex_based_literal(start)?,
            b'"' => self.lex_string(start)?,
            _ => self.lex_punct(start)?,
        };
        Ok(Token {
            kind,
            span: Span::new(start, self.pos as u32),
        })
    }

    fn lex_word(&mut self) -> TokenKind {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'$' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = &self.src[start..self.pos];
        match Keyword::from_str(text) {
            Some(kw) => TokenKind::Keyword(kw),
            None => TokenKind::Ident(text.to_string()),
        }
    }

    fn lex_escaped_ident(&mut self) -> TokenKind {
        self.pos += 1; // backslash
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_whitespace() {
                break;
            }
            self.pos += 1;
        }
        TokenKind::Ident(self.src[start..self.pos].to_string())
    }

    fn lex_sys_ident(&mut self) -> TokenKind {
        self.pos += 1; // $
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'$' {
                self.pos += 1;
            } else {
                break;
            }
        }
        TokenKind::SysIdent(self.src[start..self.pos].to_string())
    }

    /// Lexes a number starting with a digit. If followed by `'`, continues
    /// into a based literal (`4'b01`). Also handles reals (`1.5`, `2e3`).
    fn lex_number(&mut self) -> Result<TokenKind, ParseError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9') | Some(b'_')) {
            self.pos += 1;
        }
        // Real literal?
        if self.peek() == Some(b'.') && matches!(self.peek_at(1), Some(b'0'..=b'9')) {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9') | Some(b'_')) {
                self.pos += 1;
            }
            self.maybe_exponent();
            return Ok(TokenKind::Real(self.src[start..self.pos].to_string()));
        }
        if matches!(self.peek(), Some(b'e') | Some(b'E'))
            && matches!(self.peek_at(1), Some(b'0'..=b'9') | Some(b'-') | Some(b'+'))
        {
            self.maybe_exponent();
            return Ok(TokenKind::Real(self.src[start..self.pos].to_string()));
        }
        // Based literal continuation: `8'hFF` (allow space before tick? no —
        // IEEE allows it, but we keep it strict and simple).
        if self.peek() == Some(b'\'') {
            self.consume_based_body()?;
        }
        Ok(TokenKind::Number(self.src[start..self.pos].to_string()))
    }

    fn maybe_exponent(&mut self) {
        if matches!(self.peek(), Some(b'e') | Some(b'E')) {
            let mut off = 1;
            if matches!(self.peek_at(1), Some(b'+') | Some(b'-')) {
                off = 2;
            }
            if matches!(self.peek_at(off), Some(b'0'..=b'9')) {
                self.pos += off;
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
        }
    }

    /// Lexes an unsized based literal starting at `'` (e.g. `'hFF`).
    fn lex_based_literal(&mut self, start: u32) -> Result<TokenKind, ParseError> {
        self.consume_based_body()?;
        Ok(TokenKind::Number(
            self.src[start as usize..self.pos].to_string(),
        ))
    }

    /// Consumes `'[s]<base><digits>` with the cursor on the tick.
    fn consume_based_body(&mut self) -> Result<(), ParseError> {
        let tick = self.pos as u32;
        self.pos += 1;
        if matches!(self.peek(), Some(b's') | Some(b'S')) {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'b' | b'B' | b'o' | b'O' | b'h' | b'H' | b'd' | b'D') => {
                self.pos += 1;
            }
            _ => {
                return Err(ParseError::new(
                    "expected number base after `'`",
                    Span::new(tick, self.pos as u32 + 1),
                ))
            }
        }
        // Allow whitespace between base and digits (e.g. `3 'b000` / `3'b 000`).
        while matches!(self.peek(), Some(b) if b == b' ' || b == b'\t') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9'
                | b'a'..=b'f'
                | b'A'..=b'F'
                | b'x'
                | b'X'
                | b'z'
                | b'Z'
                | b'?'
                | b'_' => self.pos += 1,
                _ => break,
            }
        }
        if self.pos == digits_start {
            return Err(ParseError::new(
                "expected digits after number base",
                Span::new(tick, self.pos as u32),
            ));
        }
        Ok(())
    }

    fn lex_string(&mut self, start: u32) -> Result<TokenKind, ParseError> {
        self.pos += 1; // opening quote
        let body_start = self.pos;
        loop {
            match self.peek() {
                Some(b'"') => {
                    let body = self.src[body_start..self.pos].to_string();
                    self.pos += 1;
                    return Ok(TokenKind::Str(body));
                }
                Some(b'\\') => {
                    self.pos += 2;
                }
                Some(b'\n') | None => {
                    return Err(ParseError::new(
                        "unterminated string literal",
                        Span::new(start, self.pos as u32),
                    ))
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    fn lex_punct(&mut self, start: u32) -> Result<TokenKind, ParseError> {
        use Punct::*;
        let b = self.bump().expect("caller checked non-empty");
        let two = self.peek();
        let three = self.peek_at(1);
        let p = match b {
            b'(' => LParen,
            b')' => RParen,
            b'[' => LBracket,
            b']' => RBracket,
            b'{' => LBrace,
            b'}' => RBrace,
            b';' => Semi,
            b',' => Comma,
            b'.' => Dot,
            b'@' => At,
            b'#' => Hash,
            b'?' => Question,
            b':' => Colon,
            b'+' => {
                if two == Some(b':') {
                    self.pos += 1;
                    PlusColon
                } else {
                    Plus
                }
            }
            b'-' => match two {
                Some(b':') => {
                    self.pos += 1;
                    MinusColon
                }
                Some(b'>') => {
                    self.pos += 1;
                    Arrow
                }
                _ => Minus,
            },
            b'*' => {
                if two == Some(b'*') {
                    self.pos += 1;
                    Power
                } else {
                    Star
                }
            }
            b'/' => Slash,
            b'%' => Percent,
            b'!' => match (two, three) {
                (Some(b'='), Some(b'=')) => {
                    self.pos += 2;
                    CaseNotEq
                }
                (Some(b'='), _) => {
                    self.pos += 1;
                    NotEq
                }
                _ => Bang,
            },
            b'~' => match two {
                Some(b'&') => {
                    self.pos += 1;
                    TildeAmp
                }
                Some(b'|') => {
                    self.pos += 1;
                    TildePipe
                }
                Some(b'^') => {
                    self.pos += 1;
                    TildeCaret
                }
                _ => Tilde,
            },
            b'&' => {
                if two == Some(b'&') {
                    self.pos += 1;
                    AmpAmp
                } else {
                    Amp
                }
            }
            b'|' => {
                if two == Some(b'|') {
                    self.pos += 1;
                    PipePipe
                } else {
                    Pipe
                }
            }
            b'^' => {
                if two == Some(b'~') {
                    self.pos += 1;
                    CaretTilde
                } else {
                    Caret
                }
            }
            b'=' => match (two, three) {
                (Some(b'='), Some(b'=')) => {
                    self.pos += 2;
                    CaseEq
                }
                (Some(b'='), _) => {
                    self.pos += 1;
                    EqEq
                }
                _ => Assign,
            },
            b'<' => match (two, three) {
                (Some(b'<'), Some(b'<')) => {
                    self.pos += 2;
                    AShl
                }
                (Some(b'<'), _) => {
                    self.pos += 1;
                    Shl
                }
                (Some(b'='), _) => {
                    self.pos += 1;
                    LtEq
                }
                _ => Lt,
            },
            b'>' => match (two, three) {
                (Some(b'>'), Some(b'>')) => {
                    self.pos += 2;
                    AShr
                }
                (Some(b'>'), _) => {
                    self.pos += 1;
                    Shr
                }
                (Some(b'='), _) => {
                    self.pos += 1;
                    GtEq
                }
                _ => Gt,
            },
            other => {
                return Err(ParseError::new(
                    format!("unexpected character `{}`", other as char),
                    Span::new(start, self.pos as u32),
                ))
            }
        };
        Ok(TokenKind::Punct(p))
    }
}

/// Convenience: tokenizes `src` in one call.
///
/// # Errors
///
/// Propagates the first lexical error. See [`Lexer::tokenize`].
pub fn tokenize(src: &str) -> Result<Vec<Token>, ParseError> {
    Lexer::new(src).tokenize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        tokenize(src)
            .expect("lex")
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lexes_module_header() {
        let ks = kinds("module top(input clk);");
        assert_eq!(
            ks,
            vec![
                TokenKind::Keyword(Keyword::Module),
                TokenKind::Ident("top".into()),
                TokenKind::Punct(Punct::LParen),
                TokenKind::Keyword(Keyword::Input),
                TokenKind::Ident("clk".into()),
                TokenKind::Punct(Punct::RParen),
                TokenKind::Punct(Punct::Semi),
                TokenKind::Eof,
            ]
        );
    }

    #[test]
    fn skips_comments_and_directives() {
        let ks = kinds("// line\n/* block\nmore */ `timescale 1ns/1ps\nwire");
        assert_eq!(ks, vec![TokenKind::Keyword(Keyword::Wire), TokenKind::Eof]);
    }

    #[test]
    fn lexes_based_numbers() {
        let ks = kinds("4'b10xz 8'hFF 'd42 4'd12 2'sb11");
        let nums: Vec<String> = ks
            .into_iter()
            .filter_map(|k| match k {
                TokenKind::Number(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(nums, vec!["4'b10xz", "8'hFF", "'d42", "4'd12", "2'sb11"]);
    }

    #[test]
    fn lexes_number_with_space_before_digits() {
        let ks = kinds("3'b 000");
        assert!(matches!(&ks[0], TokenKind::Number(s) if s == "3'b 000"));
    }

    #[test]
    fn lexes_real_numbers() {
        let ks = kinds("1.5 2e3 4.2e-1");
        let reals: Vec<String> = ks
            .into_iter()
            .filter_map(|k| match k {
                TokenKind::Real(s) => Some(s),
                _ => None,
            })
            .collect();
        assert_eq!(reals, vec!["1.5", "2e3", "4.2e-1"]);
    }

    #[test]
    fn lexes_operators_longest_match() {
        let ks = kinds("<= << <<< == === != !== >= >> >>> ~^ ^~ ** -> +: -:");
        use Punct::*;
        let ps: Vec<Punct> = ks.into_iter().filter_map(|k| k.as_punct()).collect();
        assert_eq!(
            ps,
            vec![
                LtEq, Shl, AShl, EqEq, CaseEq, NotEq, CaseNotEq, GtEq, Shr, AShr, TildeCaret,
                CaretTilde, Power, Arrow, PlusColon, MinusColon
            ]
        );
    }

    #[test]
    fn lexes_system_idents() {
        let ks = kinds("$display $finish");
        assert_eq!(ks[0], TokenKind::SysIdent("display".into()),);
        assert_eq!(ks[1], TokenKind::SysIdent("finish".into()));
    }

    #[test]
    fn lexes_strings_with_escapes() {
        let ks = kinds(r#""hello %d\n""#);
        assert_eq!(ks[0], TokenKind::Str(r"hello %d\n".into()));
    }

    #[test]
    fn escaped_identifier() {
        let ks = kinds(r"\bus[0] ;");
        assert_eq!(ks[0], TokenKind::Ident("bus[0]".into()));
        assert_eq!(ks[1], TokenKind::Punct(Punct::Semi));
    }

    #[test]
    fn error_on_unterminated_string() {
        assert!(tokenize("\"abc").is_err());
    }

    #[test]
    fn error_on_unterminated_block_comment() {
        assert!(tokenize("/* abc").is_err());
    }

    #[test]
    fn error_on_bad_based_literal() {
        assert!(tokenize("4'q1").is_err());
        assert!(tokenize("4'b").is_err());
    }

    #[test]
    fn lossy_mode_recovers() {
        let toks = Lexer::new("wire \"oops").tokenize_lossy();
        assert_eq!(toks[0].kind, TokenKind::Keyword(Keyword::Wire));
        assert_eq!(toks.last().expect("eof").kind, TokenKind::Eof);
    }

    #[test]
    fn spans_are_accurate() {
        let toks = tokenize("  wire x;").expect("lex");
        assert_eq!(toks[0].span, Span::new(2, 6));
        assert_eq!(toks[1].span, Span::new(7, 8));
        assert_eq!(toks[2].span, Span::new(8, 9));
    }

    #[test]
    fn question_alone_is_ternary() {
        let ks = kinds("a ? b : c");
        assert_eq!(ks[1], TokenKind::Punct(Punct::Question));
        assert_eq!(ks[3], TokenKind::Punct(Punct::Colon));
    }
}
