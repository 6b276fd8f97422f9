//! Byte-offset source spans and line/column resolution.

use std::fmt;

/// A half-open byte range `[start, end)` into a source string.
///
/// Spans are attached to tokens, AST nodes and diagnostics so that errors can
/// be reported with line/column information via [`LineMap`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Span {
    /// Byte offset of the first character.
    pub start: u32,
    /// Byte offset one past the last character.
    pub end: u32,
}

impl Span {
    /// Creates a span covering `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub fn new(start: u32, end: u32) -> Self {
        assert!(start <= end, "span start must not exceed end");
        Span { start, end }
    }

    /// A zero-length span at `pos`, used for end-of-file diagnostics.
    pub fn point(pos: u32) -> Self {
        Span {
            start: pos,
            end: pos,
        }
    }

    /// The smallest span covering both `self` and `other`.
    pub fn to(self, other: Span) -> Span {
        Span {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Length of the span in bytes.
    pub fn len(&self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the span covers zero bytes.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The slice of `src` covered by this span.
    ///
    /// # Panics
    ///
    /// Panics if the span is out of bounds for `src` or not on a char
    /// boundary.
    pub fn slice<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start as usize..self.end as usize]
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..{}", self.start, self.end)
    }
}

/// A 1-based line/column position, resolved from a byte offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LineCol {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number (in bytes, not display width).
    pub col: u32,
}

impl fmt::Display for LineCol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Maps byte offsets to line/column positions for one source string.
///
/// ```
/// use vgen_verilog::span::LineMap;
/// let map = LineMap::new("module m;\nendmodule\n");
/// let lc = map.line_col(10);
/// assert_eq!((lc.line, lc.col), (2, 1));
/// ```
#[derive(Debug, Clone)]
pub struct LineMap {
    /// Byte offsets at which each line starts; `line_starts[0] == 0`.
    line_starts: Vec<u32>,
}

impl LineMap {
    /// Builds the line table for `src`.
    pub fn new(src: &str) -> Self {
        let mut line_starts = vec![0u32];
        for (i, b) in src.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i as u32 + 1);
            }
        }
        LineMap { line_starts }
    }

    /// Resolves a byte offset to a 1-based line/column.
    pub fn line_col(&self, offset: u32) -> LineCol {
        let line_idx = match self.line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        LineCol {
            line: line_idx as u32 + 1,
            col: offset - self.line_starts[line_idx] + 1,
        }
    }

    /// Resolves both endpoints of a span, so diagnostics carry full
    /// line/column information rather than bare byte offsets.
    pub fn span_line_cols(&self, span: Span) -> (LineCol, LineCol) {
        (self.line_col(span.start), self.line_col(span.end))
    }

    /// The byte offset where 1-based `line` starts, if the source has that
    /// many lines.
    pub fn line_start(&self, line: u32) -> Option<u32> {
        self.line_starts.get(line as usize - 1).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_join_and_slice() {
        let a = Span::new(2, 5);
        let b = Span::new(7, 9);
        assert_eq!(a.to(b), Span::new(2, 9));
        assert_eq!(a.slice("abcdefghij"), "cde");
        assert_eq!(a.len(), 3);
        assert!(!a.is_empty());
        assert!(Span::point(4).is_empty());
    }

    #[test]
    #[should_panic(expected = "span start")]
    fn span_rejects_inverted_range() {
        let _ = Span::new(5, 2);
    }

    #[test]
    fn line_map_first_line() {
        let map = LineMap::new("abc\ndef");
        assert_eq!(map.line_col(0), LineCol { line: 1, col: 1 });
        assert_eq!(map.line_col(2), LineCol { line: 1, col: 3 });
    }

    #[test]
    fn line_map_later_lines() {
        let map = LineMap::new("abc\ndef\nghi");
        assert_eq!(map.line_col(4), LineCol { line: 2, col: 1 });
        assert_eq!(map.line_col(8), LineCol { line: 3, col: 1 });
        assert_eq!(map.line_col(10), LineCol { line: 3, col: 3 });
    }

    #[test]
    fn line_map_offset_at_newline() {
        let map = LineMap::new("ab\ncd");
        // The newline itself belongs to line 1.
        assert_eq!(map.line_col(2), LineCol { line: 1, col: 3 });
        assert_eq!(map.line_col(3), LineCol { line: 2, col: 1 });
    }

    #[test]
    fn line_map_empty_source() {
        let map = LineMap::new("");
        assert_eq!(map.line_col(0), LineCol { line: 1, col: 1 });
        // An empty source still has one line.
        assert_eq!(map.line_start(1), Some(0));
        assert_eq!(map.line_start(2), None);
    }

    #[test]
    fn span_line_cols_resolves_both_ends() {
        let map = LineMap::new("abc\ndef\nghi");
        let (start, end) = map.span_line_cols(Span::new(4, 9));
        assert_eq!(start, LineCol { line: 2, col: 1 });
        assert_eq!(end, LineCol { line: 3, col: 2 });
    }

    #[test]
    fn line_start_lookup() {
        let map = LineMap::new("ab\ncd\nef");
        assert_eq!(map.line_start(1), Some(0));
        assert_eq!(map.line_start(2), Some(3));
        assert_eq!(map.line_start(3), Some(6));
        assert_eq!(map.line_start(4), None);
    }
}
