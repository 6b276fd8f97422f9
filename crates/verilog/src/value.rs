//! Four-state logic values (`0`, `1`, `x`, `z`) and bit-vectors.
//!
//! [`LogicVec`] is the value domain shared by the constant evaluator in this
//! crate and the event-driven simulator in `vgen-sim`. Semantics follow
//! IEEE 1364-2005: arithmetic with any unknown operand bit yields all-`x`,
//! logical operators use three-valued truth tables, and `z` degrades to `x`
//! when it participates in computation.
//!
//! # Representation
//!
//! Values are stored as two packed bit-planes in the IEEE 1364 VPI
//! `aval`/`bval` encoding: for each bit, `(aval, bval)` is `(0,0)` for `0`,
//! `(1,0)` for `1`, `(0,1)` for `z` and `(1,1)` for `x`. A set `bval` bit
//! therefore means "unknown" and `aval` distinguishes `x` from `z`. Vectors
//! of width ≤ 64 keep both planes inline (no heap allocation); wider vectors
//! spill to boxed `u64` word arrays. All bitwise operators, shifts,
//! reductions, comparisons and concat/select work word-at-a-time on the
//! planes; arithmetic takes a fast path through native `u64`/`i64` math
//! whenever `bval == 0` and degrades to all-`x` otherwise, exactly as the
//! per-bit implementation did.
//!
//! Invariant: `width >= 1`, and in both planes every bit at position
//! `>= width` is zero. This makes whole-word equality (`==`, derived
//! `PartialEq`/`Hash`) a valid value comparison.

use std::fmt;

/// A single four-state logic value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Logic {
    /// Logic low.
    Zero,
    /// Logic high.
    One,
    /// Unknown.
    X,
    /// High impedance.
    Z,
}

impl Logic {
    /// Converts a bool to `Zero`/`One`.
    pub fn from_bool(b: bool) -> Logic {
        if b {
            Logic::One
        } else {
            Logic::Zero
        }
    }

    /// `true` for `X` or `Z`.
    pub fn is_unknown(self) -> bool {
        matches!(self, Logic::X | Logic::Z)
    }

    /// Returns `Some(bool)` for `Zero`/`One`, `None` otherwise.
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Logic::Zero => Some(false),
            Logic::One => Some(true),
            _ => None,
        }
    }

    /// Bitwise NOT; unknown maps to `X`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Logic {
        match self {
            Logic::Zero => Logic::One,
            Logic::One => Logic::Zero,
            _ => Logic::X,
        }
    }

    /// Bitwise AND with dominance: `0 & anything == 0`.
    pub fn and(self, rhs: Logic) -> Logic {
        match (self, rhs) {
            (Logic::Zero, _) | (_, Logic::Zero) => Logic::Zero,
            (Logic::One, Logic::One) => Logic::One,
            _ => Logic::X,
        }
    }

    /// Bitwise OR with dominance: `1 | anything == 1`.
    pub fn or(self, rhs: Logic) -> Logic {
        match (self, rhs) {
            (Logic::One, _) | (_, Logic::One) => Logic::One,
            (Logic::Zero, Logic::Zero) => Logic::Zero,
            _ => Logic::X,
        }
    }

    /// Bitwise XOR; unknown in, `X` out.
    pub fn xor(self, rhs: Logic) -> Logic {
        match (self.to_bool(), rhs.to_bool()) {
            (Some(a), Some(b)) => Logic::from_bool(a ^ b),
            _ => Logic::X,
        }
    }

    /// The character used in literals and `%b` formatting.
    pub fn to_char(self) -> char {
        match self {
            Logic::Zero => '0',
            Logic::One => '1',
            Logic::X => 'x',
            Logic::Z => 'z',
        }
    }

    /// Parses one of `0 1 x X z Z ?` (`?` is `z`, as in casez literals).
    pub fn from_char(c: char) -> Option<Logic> {
        match c {
            '0' => Some(Logic::Zero),
            '1' => Some(Logic::One),
            'x' | 'X' => Some(Logic::X),
            'z' | 'Z' | '?' => Some(Logic::Z),
            _ => None,
        }
    }
}

impl fmt::Display for Logic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_char())
    }
}

/// Error for attempting to build a zero-width vector. Zero-width values
/// cannot exist in the IEEE 1364 value domain (the `zero-width` lint rule
/// rejects the literals that would produce them); constructors taking an
/// arbitrary width surface the condition as this typed error instead of
/// panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZeroWidthError;

impl fmt::Display for ZeroWidthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "logic vector width must be positive")
    }
}

impl std::error::Error for ZeroWidthError {}

/// Bits per storage word.
const WORD: usize = 64;

/// Number of words needed for `width` bits.
#[inline]
fn words_for(width: usize) -> usize {
    width.div_ceil(WORD)
}

/// Mask of the valid bits in the top word of a `width`-bit vector.
#[inline]
fn top_mask(width: usize) -> u64 {
    let r = width % WORD;
    if r == 0 {
        u64::MAX
    } else {
        (1u64 << r) - 1
    }
}

/// Mask of the bits of word `i` whose *global* position is `>= from`.
#[inline]
fn mask_from(i: usize, from: usize) -> u64 {
    let base = i * WORD;
    if from <= base {
        u64::MAX
    } else if from >= base + WORD {
        0
    } else {
        u64::MAX << (from - base)
    }
}

/// VPI encoding of a single [`Logic`] as `(aval, bval)` bits.
#[inline]
fn encode(l: Logic) -> (u64, u64) {
    match l {
        Logic::Zero => (0, 0),
        Logic::One => (1, 0),
        Logic::Z => (0, 1),
        Logic::X => (1, 1),
    }
}

/// The two packed planes; inline for widths ≤ 64, boxed beyond.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Planes {
    Word { aval: u64, bval: u64 },
    Wide { aval: Box<[u64]>, bval: Box<[u64]> },
}

/// A fixed-width four-state bit vector with a signedness flag.
///
/// Bit 0 is the least-significant bit. Width is always at least 1.
///
/// ```
/// use vgen_verilog::value::LogicVec;
/// let a = LogicVec::from_u64(5, 4);
/// let b = LogicVec::from_u64(3, 4);
/// assert_eq!(a.add(&b).to_u64(), Some(8));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LogicVec {
    width: usize,
    signed: bool,
    planes: Planes,
}

impl LogicVec {
    /// Builds a vector by asking `f` for each `(aval, bval)` word pair.
    /// Bits above `width` are masked off, maintaining the representation
    /// invariant even when `f` returns garbage high bits.
    fn build(width: usize, signed: bool, mut f: impl FnMut(usize) -> (u64, u64)) -> LogicVec {
        debug_assert!(width > 0, "logic vector width must be positive");
        if width <= WORD {
            let (a, b) = f(0);
            let m = top_mask(width);
            LogicVec {
                width,
                signed,
                planes: Planes::Word {
                    aval: a & m,
                    bval: b & m,
                },
            }
        } else {
            let n = words_for(width);
            // Single-pass fill (no zeroed scratch that `f` immediately
            // overwrites); `f` is called in word order, which wide
            // carry-propagating callers rely on.
            let mut aval = Vec::with_capacity(n);
            let mut bval = Vec::with_capacity(n);
            for i in 0..n {
                let (wa, wb) = f(i);
                aval.push(wa);
                bval.push(wb);
            }
            let m = top_mask(width);
            aval[n - 1] &= m;
            bval[n - 1] &= m;
            LogicVec {
                width,
                signed,
                planes: Planes::Wide {
                    aval: aval.into_boxed_slice(),
                    bval: bval.into_boxed_slice(),
                },
            }
        }
    }

    /// Word `i` of both planes; words past the width read as zero.
    #[inline]
    fn word(&self, i: usize) -> (u64, u64) {
        match &self.planes {
            Planes::Word { aval, bval } => {
                if i == 0 {
                    (*aval, *bval)
                } else {
                    (0, 0)
                }
            }
            Planes::Wide { aval, bval } => match aval.get(i) {
                Some(a) => (*a, bval[i]),
                None => (0, 0),
            },
        }
    }

    /// Number of storage words backing this vector.
    pub fn word_len(&self) -> usize {
        words_for(self.width)
    }

    /// Mask of valid bits in word `i` (all-ones except the top word).
    #[inline]
    fn word_mask(&self, i: usize) -> u64 {
        if i + 1 == words_for(self.width) {
            top_mask(self.width)
        } else {
            u64::MAX
        }
    }

    /// Word `i` of `v` shifted left by `off` bits (unbounded width).
    #[inline]
    fn up_word(v: &LogicVec, i: usize, off: usize) -> (u64, u64) {
        let q = off / WORD;
        let r = off % WORD;
        if i < q {
            return (0, 0);
        }
        let (a0, b0) = v.word(i - q);
        if r == 0 {
            return (a0, b0);
        }
        let (a1, b1) = if i > q { v.word(i - q - 1) } else { (0, 0) };
        (
            (a0 << r) | (a1 >> (WORD - r)),
            (b0 << r) | (b1 >> (WORD - r)),
        )
    }

    /// Word `i` of `v` shifted right by `off` bits (zero fill from above,
    /// which is exact because bits past `v.width` are zero by invariant).
    #[inline]
    fn down_word(v: &LogicVec, i: usize, off: usize) -> (u64, u64) {
        let q = off / WORD;
        let r = off % WORD;
        let (a0, b0) = v.word(i + q);
        if r == 0 {
            return (a0, b0);
        }
        let (a1, b1) = v.word(i + q + 1);
        (
            (a0 >> r) | (a1 << (WORD - r)),
            (b0 >> r) | (b1 << (WORD - r)),
        )
    }

    /// A `width`-bit unsigned vector with every bit set to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn filled(width: usize, value: Logic) -> Self {
        assert!(width > 0, "logic vector width must be positive");
        let (ba, bb) = encode(value);
        let pa = if ba == 1 { u64::MAX } else { 0 };
        let pb = if bb == 1 { u64::MAX } else { 0 };
        Self::build(width, false, |_| (pa, pb))
    }

    /// An all-`x` unsigned vector.
    pub fn unknown(width: usize) -> Self {
        Self::filled(width, Logic::X)
    }

    /// An all-zero unsigned vector.
    pub fn zero(width: usize) -> Self {
        Self::filled(width, Logic::Zero)
    }

    /// Builds from raw bits, LSB first.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is empty.
    pub fn from_bits(bits: Vec<Logic>, signed: bool) -> Self {
        assert!(!bits.is_empty(), "logic vector width must be positive");
        let width = bits.len();
        Self::build(width, signed, |i| {
            let lo = i * WORD;
            let hi = width.min(lo + WORD);
            let mut a = 0u64;
            let mut b = 0u64;
            for (j, bit) in bits[lo..hi].iter().enumerate() {
                let (ba, bb) = encode(*bit);
                a |= ba << j;
                b |= bb << j;
            }
            (a, b)
        })
    }

    /// Builds an unsigned vector of `width` bits from the low bits of `v`.
    #[inline]
    pub fn from_u64(v: u64, width: usize) -> Self {
        assert!(width > 0, "logic vector width must be positive");
        Self::build(width, false, |i| if i == 0 { (v, 0) } else { (0, 0) })
    }

    /// Builds a signed vector of `width` bits from the two's-complement of `v`.
    ///
    /// # Errors
    ///
    /// Returns [`ZeroWidthError`] if `width == 0` — the one constructor
    /// whose width regularly comes from parsed user input rather than a
    /// declaration, so the failure is typed instead of a panic.
    pub fn from_i64(v: i64, width: usize) -> Result<Self, ZeroWidthError> {
        if width == 0 {
            return Err(ZeroWidthError);
        }
        let fill = if v < 0 { u64::MAX } else { 0 };
        Ok(Self::build(width, true, |i| {
            if i == 0 {
                (v as u64, 0)
            } else {
                (fill, 0)
            }
        }))
    }

    /// Builds a 1-bit vector from a bool.
    #[inline]
    pub fn from_bool(b: bool) -> Self {
        Self::from_u64(b as u64, 1)
    }

    /// Number of bits.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Whether the vector is treated as two's-complement in arithmetic.
    #[inline]
    pub fn is_signed(&self) -> bool {
        self.signed
    }

    /// Returns a copy with the signedness flag set to `signed`.
    #[inline]
    pub fn with_signed(mut self, signed: bool) -> Self {
        self.signed = signed;
        self
    }

    /// The bits, LSB first.
    pub fn bits(&self) -> Vec<Logic> {
        (0..self.width).map(|i| self.bit(i)).collect()
    }

    /// Bit `i` (LSB = 0), or `X` when out of range (Verilog out-of-bounds
    /// select semantics).
    #[inline]
    pub fn bit(&self, i: usize) -> Logic {
        if i >= self.width {
            return Logic::X;
        }
        let (a, b) = self.word(i / WORD);
        let sh = i % WORD;
        match ((a >> sh) & 1, (b >> sh) & 1) {
            (0, 0) => Logic::Zero,
            (1, 0) => Logic::One,
            (0, 1) => Logic::Z,
            _ => Logic::X,
        }
    }

    /// Whether any bit is `x` or `z` (any set `bval` bit).
    #[inline]
    pub fn has_unknown(&self) -> bool {
        match &self.planes {
            Planes::Word { bval, .. } => *bval != 0,
            Planes::Wide { bval, .. } => bval.iter().any(|w| *w != 0),
        }
    }

    /// Interprets as unsigned; `None` if any bit is unknown or width > 64
    /// with a set high bit.
    #[inline]
    pub fn to_u64(&self) -> Option<u64> {
        if self.has_unknown() {
            return None;
        }
        for i in 1..self.word_len() {
            if self.word(i).0 != 0 {
                return None;
            }
        }
        Some(self.word(0).0)
    }

    /// Interprets as two's-complement according to the sign flag.
    pub fn to_i64(&self) -> Option<i64> {
        if self.has_unknown() {
            return None;
        }
        let w = self.width;
        if !self.signed || self.bit(w - 1) == Logic::Zero {
            return self.to_u64().map(|v| v as i64);
        }
        // Negative: sign-extend the low 64 bits.
        let a0 = self.word(0).0;
        let v = if w >= 64 {
            a0 as i64
        } else {
            (a0 | (u64::MAX << w)) as i64
        };
        Some(v)
    }

    /// Resizes to `width`, zero-, sign- or x-extending as appropriate.
    ///
    /// Extension bits are: the sign bit for signed vectors, `X` if the top
    /// bit is `X`, `Z` if the top bit is `Z` (unsigned `x/z` literals extend
    /// with their top state, per IEEE 1364 §3.5.1), else `0`.
    pub fn resize(&self, width: usize) -> LogicVec {
        assert!(width > 0, "logic vector width must be positive");
        if width == self.width {
            return self.clone();
        }
        if width < self.width {
            return Self::build(width, self.signed, |i| self.word(i));
        }
        let top = self.bit(self.width - 1);
        let ext = match top {
            Logic::X => Logic::X,
            Logic::Z => Logic::Z,
            _ if self.signed => top,
            _ => Logic::Zero,
        };
        let (ea, eb) = encode(ext);
        let pa = if ea == 1 { u64::MAX } else { 0 };
        let pb = if eb == 1 { u64::MAX } else { 0 };
        let ow = self.width;
        Self::build(width, self.signed, |i| {
            let (a, b) = self.word(i);
            let fill = mask_from(i, ow);
            ((a & !fill) | (pa & fill), (b & !fill) | (pb & fill))
        })
    }

    /// The `(aval, bval)` plane-fill words for bits above `self.width` when
    /// this vector is widened: sign bit for signed vectors, `x`/`z` when the
    /// top bit is unknown, zero otherwise — the same extension rule as
    /// [`resize`](Self::resize), precomputed once so binary ops can widen
    /// word-at-a-time without materialising a resized clone of the operand.
    #[inline]
    fn ext_fill(&self) -> (u64, u64) {
        let top = self.bit(self.width - 1);
        let ext = match top {
            Logic::X => Logic::X,
            Logic::Z => Logic::Z,
            _ if self.signed => top,
            _ => Logic::Zero,
        };
        let (ea, eb) = encode(ext);
        (
            if ea == 1 { u64::MAX } else { 0 },
            if eb == 1 { u64::MAX } else { 0 },
        )
    }

    /// Word `i` of `self` as it would appear after `self.resize(w)` for
    /// `w >= self.width`, with `(pa, pb)` the [`ext_fill`](Self::ext_fill)
    /// planes: extension bits are OR-ed in on the fly (bits past the
    /// operand width are zero by invariant) and the result is masked to the
    /// joined width `w`.
    #[inline]
    fn widened_word(&self, i: usize, w: usize, pa: u64, pb: u64) -> (u64, u64) {
        let (a, b) = self.word(i);
        let fill = mask_from(i, self.width);
        let m = if i + 1 == words_for(w) {
            top_mask(w)
        } else {
            u64::MAX
        };
        ((a | (pa & fill)) & m, (b | (pb & fill)) & m)
    }

    /// Truthiness for `if`/`while`/ternary conditions: `Some(true)` if any
    /// bit is 1, `Some(false)` if all bits are 0, `None` (unknown) otherwise.
    #[inline]
    pub fn truthiness(&self) -> Option<bool> {
        let mut any_unknown = false;
        for i in 0..self.word_len() {
            let (a, b) = self.word(i);
            if a & !b != 0 {
                return Some(true);
            }
            if b != 0 {
                any_unknown = true;
            }
        }
        if any_unknown {
            None
        } else {
            Some(false)
        }
    }

    fn all_x(width: usize) -> LogicVec {
        LogicVec::unknown(width.max(1))
    }

    /// Common width for a binary arithmetic/bitwise op (max of operands).
    fn join_width(&self, rhs: &LogicVec) -> usize {
        self.width().max(rhs.width())
    }

    fn both_signed(&self, rhs: &LogicVec) -> bool {
        self.signed && rhs.signed
    }

    /// `self + rhs` at the joined width (result signed iff both signed).
    ///
    /// Fully known operands are exact at *any* width: beyond 64 bits the
    /// sum runs word-parallel with carry propagation instead of degrading
    /// to all-`x` like the other arithmetic ops still do.
    pub fn add(&self, rhs: &LogicVec) -> LogicVec {
        if let Some(v) = self.wide_addsub(rhs, false) {
            return v;
        }
        self.arith2(rhs, |a, b| a.wrapping_add(b))
    }

    /// `self - rhs`. Exact for fully known operands at any width, like
    /// [`add`](Self::add).
    pub fn sub(&self, rhs: &LogicVec) -> LogicVec {
        if let Some(v) = self.wide_addsub(rhs, true) {
            return v;
        }
        self.arith2(rhs, |a, b| a.wrapping_sub(b))
    }

    /// Word-parallel wide add/sub: when the joined width exceeds one word
    /// and both operands are fully known, ripple the carry across 64-bit
    /// words (subtraction is `a + !b + 1`). Each operand widens by its own
    /// signedness, the same rule the native-word path applies. `None`
    /// falls back to [`arith2`](Self::arith2).
    fn wide_addsub(&self, rhs: &LogicVec, subtract: bool) -> Option<LogicVec> {
        let w = self.join_width(rhs);
        if w <= WORD || self.has_unknown() || rhs.has_unknown() {
            return None;
        }
        let (lpa, _) = self.ext_fill();
        let (rpa, _) = rhs.ext_fill();
        // `build` calls in ascending word order, so the carry threads
        // through sequentially. Garbage above the top word's mask (from
        // `!r` on the masked top word) only feeds bits the constructor
        // masks off and a final carry-out that wrapping discards.
        let mut carry: u64 = u64::from(subtract);
        Some(Self::build(w, self.both_signed(rhs), |i| {
            let la = self.widened_word(i, w, lpa, 0).0;
            let rw = rhs.widened_word(i, w, rpa, 0).0;
            let ra = if subtract { !rw } else { rw };
            let (s1, c1) = la.overflowing_add(ra);
            let (s2, c2) = s1.overflowing_add(carry);
            carry = u64::from(c1 | c2);
            (s2, 0)
        }))
    }

    /// `self * rhs`.
    pub fn mul(&self, rhs: &LogicVec) -> LogicVec {
        self.arith2(rhs, |a, b| a.wrapping_mul(b))
    }

    /// `self / rhs`; division by zero yields all-`x` (per IEEE 1364).
    pub fn div(&self, rhs: &LogicVec) -> LogicVec {
        let w = self.join_width(rhs);
        if rhs.to_u64() == Some(0) {
            return Self::all_x(w);
        }
        if self.both_signed(rhs) {
            match (self.to_i64(), rhs.to_i64()) {
                (Some(a), Some(b)) if b != 0 => {
                    LogicVec::from_i64(a.wrapping_div(b), w).expect("joined width is positive")
                }
                _ => Self::all_x(w),
            }
        } else {
            self.arith2(rhs, |a, b| a.checked_div(b).unwrap_or(0))
        }
    }

    /// `self % rhs`; modulo by zero yields all-`x`.
    pub fn rem(&self, rhs: &LogicVec) -> LogicVec {
        let w = self.join_width(rhs);
        if rhs.to_u64() == Some(0) {
            return Self::all_x(w);
        }
        if self.both_signed(rhs) {
            match (self.to_i64(), rhs.to_i64()) {
                (Some(a), Some(b)) if b != 0 => {
                    LogicVec::from_i64(a.wrapping_rem(b), w).expect("joined width is positive")
                }
                _ => Self::all_x(w),
            }
        } else {
            self.arith2(rhs, |a, b| a.checked_rem(b).unwrap_or(0))
        }
    }

    /// `self ** rhs` (unsigned exponentiation, wrapping).
    pub fn pow(&self, rhs: &LogicVec) -> LogicVec {
        let w = self.join_width(rhs);
        match (self.to_u64(), rhs.to_u64()) {
            (Some(a), Some(b)) => {
                let mut acc: u64 = 1;
                for _ in 0..b.min(64) {
                    acc = acc.wrapping_mul(a);
                }
                LogicVec::from_u64(acc, w).with_signed(self.both_signed(rhs))
            }
            _ => Self::all_x(w),
        }
    }

    /// Known-value fast path: when `bval == 0` everywhere the operands are
    /// plain integers and `f` runs on native words; any unknown bit (or a
    /// known value that does not fit in 64 bits) degrades to all-`x`.
    fn arith2(&self, rhs: &LogicVec, f: impl Fn(u64, u64) -> u64) -> LogicVec {
        // Equal-width single-word known operands: both values are exact in
        // a native word, so `f` runs directly and the constructor masks the
        // result — the same answer the widening path below produces, minus
        // the extension scans.
        if self.width == rhs.width && !self.both_signed(rhs) {
            if let (Planes::Word { aval: la, bval: 0 }, Planes::Word { aval: ra, bval: 0 }) =
                (&self.planes, &rhs.planes)
            {
                return LogicVec::from_u64(f(*la, *ra), self.width);
            }
        }
        let w = self.join_width(rhs);
        let signed = self.both_signed(rhs);
        // Widening a signed pair to `w` preserves the two's-complement
        // value, so the operands convert directly; the unsigned reading
        // widens word-at-a-time — neither path materialises resized clones.
        if signed {
            match (self.to_i64(), rhs.to_i64()) {
                (Some(a), Some(b)) => {
                    return LogicVec::from_i64(f(a as u64, b as u64) as i64, w)
                        .expect("joined width is positive")
                }
                _ => return Self::all_x(w),
            }
        }
        match (self.widened_to_u64(w), rhs.widened_to_u64(w)) {
            (Some(a), Some(b)) => LogicVec::from_u64(f(a, b), w),
            _ => Self::all_x(w),
        }
    }

    /// `self.resize(w).to_u64()` for `w >= self.width`, computed without
    /// materialising the resized value: `None` when any bit is unknown or
    /// the (possibly sign-extended) value does not fit in 64 bits.
    fn widened_to_u64(&self, w: usize) -> Option<u64> {
        if self.has_unknown() {
            return None;
        }
        // Fully known ⇒ the extension fill is the sign bit or zero.
        let (pa, _) = self.ext_fill();
        for i in 1..words_for(w) {
            if self.widened_word(i, w, pa, 0).0 != 0 {
                return None;
            }
        }
        Some(self.widened_word(0, w, pa, 0).0)
    }

    /// Unary minus (two's-complement negation).
    pub fn neg(&self) -> LogicVec {
        LogicVec::zero(self.width())
            .with_signed(self.signed)
            .sub(self)
            .with_signed(self.signed)
    }

    /// Bitwise NOT: known bits invert, unknown bits (`x`/`z`) become `x`.
    pub fn bit_not(&self) -> LogicVec {
        Self::build(self.width, self.signed, |i| {
            let (a, b) = self.word(i);
            ((!a) | b, b)
        })
    }

    /// Word-parallel binary bitwise op: both operands are widened to the
    /// joined width on the fly ([`widened_word`](Self::widened_word), no
    /// resized clones), then `f` maps `(aval_l, bval_l, aval_r, bval_r)`
    /// words to result words.
    fn bitwise2(&self, rhs: &LogicVec, f: impl Fn(u64, u64, u64, u64) -> (u64, u64)) -> LogicVec {
        // Equal-width boxed operands: no widening can occur, so `f` zips
        // the stored words directly — a straight word-parallel sweep with
        // none of the per-word extension arithmetic below.
        if self.width == rhs.width {
            if let (Planes::Wide { aval: la, bval: lb }, Planes::Wide { aval: ra, bval: rb }) =
                (&self.planes, &rhs.planes)
            {
                return Self::build(self.width, self.both_signed(rhs), |i| {
                    f(la[i], lb[i], ra[i], rb[i])
                });
            }
        }
        let w = self.join_width(rhs);
        let (lpa, lpb) = self.ext_fill();
        let (rpa, rpb) = rhs.ext_fill();
        Self::build(w, self.both_signed(rhs), |i| {
            let (la, lb) = self.widened_word(i, w, lpa, lpb);
            let (ra, rb) = rhs.widened_word(i, w, rpa, rpb);
            f(la, lb, ra, rb)
        })
    }

    /// Bitwise AND (`0` dominates unknowns).
    pub fn bit_and(&self, rhs: &LogicVec) -> LogicVec {
        self.bitwise2(rhs, |la, lb, ra, rb| {
            let zero = (!la & !lb) | (!ra & !rb); // a known 0 on either side
            let one = (la & !lb) & (ra & !rb); // known 1 on both sides
            let bv = !(zero | one);
            (one | bv, bv)
        })
    }

    /// Bitwise OR (`1` dominates unknowns).
    pub fn bit_or(&self, rhs: &LogicVec) -> LogicVec {
        self.bitwise2(rhs, |la, lb, ra, rb| {
            let one = (la & !lb) | (ra & !rb); // a known 1 on either side
            let zero = (!la & !lb) & (!ra & !rb); // known 0 on both sides
            let bv = !(zero | one);
            (one | bv, bv)
        })
    }

    /// Bitwise XOR (any unknown in, `x` out).
    pub fn bit_xor(&self, rhs: &LogicVec) -> LogicVec {
        self.bitwise2(rhs, |la, lb, ra, rb| {
            let un = lb | rb;
            ((la ^ ra) | un, un)
        })
    }

    /// Bitwise XNOR.
    pub fn bit_xnor(&self, rhs: &LogicVec) -> LogicVec {
        self.bitwise2(rhs, |la, lb, ra, rb| {
            let un = lb | rb;
            (!(la ^ ra) | un, un)
        })
    }

    /// Reduction AND over all bits (1-bit result): a known `0` anywhere
    /// dominates, otherwise any unknown gives `x`.
    pub fn reduce_and(&self) -> Logic {
        let mut any_unknown = false;
        for i in 0..self.word_len() {
            let (a, b) = self.word(i);
            if !a & !b & self.word_mask(i) != 0 {
                return Logic::Zero;
            }
            if b != 0 {
                any_unknown = true;
            }
        }
        if any_unknown {
            Logic::X
        } else {
            Logic::One
        }
    }

    /// Reduction OR over all bits: a known `1` anywhere dominates.
    pub fn reduce_or(&self) -> Logic {
        let mut any_unknown = false;
        for i in 0..self.word_len() {
            let (a, b) = self.word(i);
            if a & !b != 0 {
                return Logic::One;
            }
            if b != 0 {
                any_unknown = true;
            }
        }
        if any_unknown {
            Logic::X
        } else {
            Logic::Zero
        }
    }

    /// Reduction XOR over all bits: parity when fully known, else `x`.
    pub fn reduce_xor(&self) -> Logic {
        let mut parity = 0u32;
        for i in 0..self.word_len() {
            let (a, b) = self.word(i);
            if b != 0 {
                return Logic::X;
            }
            parity ^= a.count_ones();
        }
        Logic::from_bool(parity & 1 == 1)
    }

    /// Logical shift left by `amount` (zero fill); unknown shift gives all-x.
    pub fn shl(&self, amount: &LogicVec) -> LogicVec {
        let w = self.width;
        let Some(n) = amount.to_u64() else {
            return Self::all_x(w);
        };
        let n = n.min(w as u64) as usize;
        Self::build(w, self.signed, |i| Self::up_word(self, i, n))
    }

    /// Logical shift right by `amount` (zero fill).
    pub fn shr(&self, amount: &LogicVec) -> LogicVec {
        let w = self.width;
        let Some(n) = amount.to_u64() else {
            return Self::all_x(w);
        };
        let n = n.min(w as u64) as usize;
        Self::build(w, self.signed, |i| Self::down_word(self, i, n))
    }

    /// Arithmetic shift right: sign fill when signed, zero fill otherwise.
    /// The fill state is the top bit, which may itself be `x`/`z`.
    pub fn ashr(&self, amount: &LogicVec) -> LogicVec {
        if !self.signed {
            return self.shr(amount);
        }
        let w = self.width;
        let Some(n) = amount.to_u64() else {
            return Self::all_x(w);
        };
        let n = n.min(w as u64) as usize;
        let (fa, fb) = encode(self.bit(w - 1));
        let pa = if fa == 1 { u64::MAX } else { 0 };
        let pb = if fb == 1 { u64::MAX } else { 0 };
        let from = w - n;
        Self::build(w, true, |i| {
            let (a, b) = Self::down_word(self, i, n);
            let fill = mask_from(i, from);
            (a | (pa & fill), b | (pb & fill))
        })
    }

    /// Value ordering for the relational operators, exact at any width.
    ///
    /// `None` if either operand has an `x`/`z` bit. Otherwise both operands
    /// are compared at the joined width: two's-complement when both are
    /// signed (sign-extended), raw zero-extended bit patterns otherwise —
    /// the same extension policy [`to_u64`](Self::to_u64)/
    /// [`to_i64`](Self::to_i64) applied in the narrow case.
    fn cmp_values(&self, rhs: &LogicVec) -> Option<std::cmp::Ordering> {
        if self.has_unknown() || rhs.has_unknown() {
            return None;
        }
        let signed = self.both_signed(rhs);
        if signed {
            let ln = self.bit(self.width - 1) == Logic::One;
            let rn = rhs.bit(rhs.width - 1) == Logic::One;
            if ln != rn {
                // Opposite signs decide immediately; same-sign values order
                // like their unsigned sign-extended bit patterns below.
                return Some(if ln {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Greater
                });
            }
        }
        let fill = |v: &LogicVec| -> u64 {
            if signed && v.bit(v.width - 1) == Logic::One {
                u64::MAX
            } else {
                0
            }
        };
        let (lpa, rpa) = (fill(self), fill(rhs));
        let w = self.join_width(rhs);
        for i in (0..words_for(w)).rev() {
            let la = self.widened_word(i, w, lpa, 0).0;
            let ra = rhs.widened_word(i, w, rpa, 0).0;
            if la != ra {
                return Some(la.cmp(&ra));
            }
        }
        Some(std::cmp::Ordering::Equal)
    }

    fn logic1(v: Option<bool>) -> LogicVec {
        match v {
            Some(b) => LogicVec::from_bool(b),
            None => LogicVec::unknown(1),
        }
    }

    /// `==`: 1-bit result, `x` if any operand bit is unknown.
    pub fn eq_logic(&self, rhs: &LogicVec) -> LogicVec {
        // Widening cannot introduce an unknown into a fully known operand,
        // so the check runs on the operands as-is.
        if self.has_unknown() || rhs.has_unknown() {
            return LogicVec::unknown(1);
        }
        let w = self.join_width(rhs);
        let (lpa, _) = self.ext_fill();
        let (rpa, _) = rhs.ext_fill();
        for i in 0..words_for(w) {
            if self.widened_word(i, w, lpa, 0).0 != rhs.widened_word(i, w, rpa, 0).0 {
                return LogicVec::from_bool(false);
            }
        }
        LogicVec::from_bool(true)
    }

    /// `!=`.
    pub fn ne_logic(&self, rhs: &LogicVec) -> LogicVec {
        self.eq_logic(rhs).logic_not()
    }

    /// `===`: exact 4-state match, always 0/1.
    pub fn case_eq(&self, rhs: &LogicVec) -> LogicVec {
        let w = self.join_width(rhs);
        let (lpa, lpb) = self.ext_fill();
        let (rpa, rpb) = rhs.ext_fill();
        for i in 0..words_for(w) {
            if self.widened_word(i, w, lpa, lpb) != rhs.widened_word(i, w, rpa, rpb) {
                return LogicVec::from_bool(false);
            }
        }
        LogicVec::from_bool(true)
    }

    /// `<`.
    pub fn lt(&self, rhs: &LogicVec) -> LogicVec {
        Self::logic1(self.cmp_values(rhs).map(|o| o.is_lt()))
    }

    /// `<=`.
    pub fn le(&self, rhs: &LogicVec) -> LogicVec {
        Self::logic1(self.cmp_values(rhs).map(|o| o.is_le()))
    }

    /// `>`.
    pub fn gt(&self, rhs: &LogicVec) -> LogicVec {
        Self::logic1(self.cmp_values(rhs).map(|o| o.is_gt()))
    }

    /// `>=`.
    pub fn ge(&self, rhs: &LogicVec) -> LogicVec {
        Self::logic1(self.cmp_values(rhs).map(|o| o.is_ge()))
    }

    /// Logical NOT (`!`): 1-bit.
    pub fn logic_not(&self) -> LogicVec {
        Self::logic1(self.truthiness().map(|b| !b))
    }

    /// Logical AND (`&&`) with three-valued truth.
    pub fn logic_and(&self, rhs: &LogicVec) -> LogicVec {
        match (self.truthiness(), rhs.truthiness()) {
            (Some(false), _) | (_, Some(false)) => LogicVec::from_bool(false),
            (Some(true), Some(true)) => LogicVec::from_bool(true),
            _ => LogicVec::unknown(1),
        }
    }

    /// Logical OR (`||`) with three-valued truth.
    pub fn logic_or(&self, rhs: &LogicVec) -> LogicVec {
        match (self.truthiness(), rhs.truthiness()) {
            (Some(true), _) | (_, Some(true)) => LogicVec::from_bool(true),
            (Some(false), Some(false)) => LogicVec::from_bool(false),
            _ => LogicVec::unknown(1),
        }
    }

    /// Concatenation `{self, rhs}` — `self` supplies the *high* bits.
    pub fn concat(&self, rhs: &LogicVec) -> LogicVec {
        let w = self.width + rhs.width;
        let off = rhs.width;
        Self::build(w, false, |i| {
            let (la, lb) = rhs.word(i);
            let (ha, hb) = Self::up_word(self, i, off);
            (la | ha, lb | hb)
        })
    }

    /// Replication `{count{self}}`.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0`.
    pub fn replicate(&self, count: usize) -> LogicVec {
        assert!(count > 0, "replication count must be positive");
        let w0 = self.width;
        let w = w0 * count;
        Self::build(w, false, |i| {
            let base = i * WORD;
            let mut a = 0u64;
            let mut b = 0u64;
            // OR in every copy of `self` that overlaps word `i`.
            let mut k = base / w0;
            while k < count && k * w0 < base + WORD {
                let (ra, rb) = Self::up_word(self, i, k * w0);
                a |= ra;
                b |= rb;
                k += 1;
            }
            (a, b)
        })
    }

    /// Part-select `[hi:lo]` in *bit-index* space (after range normalisation);
    /// out-of-range bits read as `x`.
    pub fn select(&self, hi: usize, lo: usize) -> LogicVec {
        assert!(hi >= lo, "part-select hi must be >= lo");
        let w = hi - lo + 1;
        // Result positions at or past `self.width - lo` come from out-of-range
        // source bits and read as x; in-range positions shift down cleanly.
        let x_from = self.width.saturating_sub(lo);
        Self::build(w, false, |i| {
            let (a, b) = Self::down_word(self, i, lo);
            let xm = mask_from(i, x_from);
            (a | xm, b | xm)
        })
    }

    /// Returns a copy with bit positions `lo..=hi` replaced by `value`
    /// (resized to the select width); positions outside `0..width` are
    /// dropped, as in an out-of-range part-select write. Signedness and
    /// width are preserved.
    pub fn with_range(&self, hi: usize, lo: usize, value: &LogicVec) -> LogicVec {
        assert!(hi >= lo, "part-select hi must be >= lo");
        if lo >= self.width {
            return self.clone();
        }
        let v = value.resize(hi - lo + 1);
        let end = hi.min(self.width - 1) + 1;
        Self::build(self.width, self.signed, |i| {
            let (sa, sb) = self.word(i);
            let (va, vb) = Self::up_word(&v, i, lo);
            let m = mask_from(i, lo) & !mask_from(i, end);
            ((sa & !m) | (va & m), (sb & !m) | (vb & m))
        })
    }

    /// Ternary x-merge (IEEE 1364 §5.1.13): bits where both operands agree
    /// on a *known* value keep it; every other bit is `x`. Operands are
    /// resized to the joined width; the result is unsigned.
    pub fn merge_unknown(&self, rhs: &LogicVec) -> LogicVec {
        let w = self.join_width(rhs);
        let (lpa, lpb) = self.ext_fill();
        let (rpa, rpb) = rhs.ext_fill();
        Self::build(w, false, |i| {
            let (la, lb) = self.widened_word(i, w, lpa, lpb);
            let (ra, rb) = rhs.widened_word(i, w, rpa, rpb);
            let keep = !((la ^ ra) | (lb ^ rb)) & !lb;
            ((la & keep) | !keep, !keep)
        })
    }

    /// Matches against a casez/casex pattern: pattern `z`/`?` bits (and for
    /// casex also `x` bits) are wildcards.
    pub fn case_matches(&self, pattern: &LogicVec, x_is_wild: bool) -> bool {
        let w = self.join_width(pattern);
        let (vfa, vfb) = self.ext_fill();
        let (pfa, pfb) = pattern.ext_fill();
        for i in 0..words_for(w) {
            let (va, vb) = self.widened_word(i, w, vfa, vfb);
            let (pa, pb) = pattern.widened_word(i, w, pfa, pfb);
            let wild = if x_is_wild {
                vb | pb
            } else {
                (vb & !va) | (pb & !pa) // z bits only
            };
            let diff = (va ^ pa) | (vb ^ pb);
            if diff & !wild != 0 {
                return false;
            }
        }
        true
    }

    /// Whether every bit is `z` (used by `%d` formatting).
    fn is_all_z(&self) -> bool {
        for i in 0..self.word_len() {
            let (a, b) = self.word(i);
            if a != 0 || b != self.word_mask(i) {
                return false;
            }
        }
        true
    }

    /// Renders as a binary string, MSB first (for `%b`).
    pub fn to_binary_string(&self) -> String {
        (0..self.width)
            .rev()
            .map(|i| self.bit(i).to_char())
            .collect()
    }

    /// Renders for `%d`: the decimal value, or `x`/`z` when unknown.
    pub fn to_decimal_string(&self) -> String {
        if let Some(v) = if self.signed {
            self.to_i64().map(|v| v.to_string())
        } else {
            self.to_u64().map(|v| v.to_string())
        } {
            return v;
        }
        if self.is_all_z() {
            "z".to_string()
        } else {
            "x".to_string()
        }
    }

    /// Renders for `%h`: hex digits MSB first, `x`/`z` per nibble when
    /// uniformly unknown, `X`/`Z` when partially unknown.
    pub fn to_hex_string(&self) -> String {
        let nibbles = self.width().div_ceil(4);
        let mut out = String::with_capacity(nibbles);
        for n in (0..nibbles).rev() {
            let bits: Vec<Logic> = (0..4)
                .map(|i| {
                    let idx = n * 4 + i;
                    if idx < self.width() {
                        self.bit(idx)
                    } else {
                        Logic::Zero
                    }
                })
                .collect();
            if bits.iter().all(|b| !b.is_unknown()) {
                let mut v = 0u8;
                for (i, b) in bits.iter().enumerate() {
                    if *b == Logic::One {
                        v |= 1 << i;
                    }
                }
                out.push(char::from_digit(v as u32, 16).expect("nibble"));
            } else if bits.iter().all(|b| *b == Logic::X) {
                out.push('x');
            } else if bits.iter().all(|b| *b == Logic::Z) {
                out.push('z');
            } else if bits.contains(&Logic::X) {
                out.push('X');
            } else {
                out.push('Z');
            }
        }
        out
    }
}

impl fmt::Display for LogicVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}'b{}", self.width(), self.to_binary_string())
    }
}

impl fmt::Binary for LogicVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_binary_string())
    }
}

impl fmt::LowerHex for LogicVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(val: u64, w: usize) -> LogicVec {
        LogicVec::from_u64(val, w)
    }

    #[test]
    fn logic_tables() {
        use Logic::*;
        assert_eq!(Zero.and(X), Zero);
        assert_eq!(One.and(X), X);
        assert_eq!(One.or(X), One);
        assert_eq!(Zero.or(Z), X);
        assert_eq!(One.xor(One), Zero);
        assert_eq!(One.xor(Z), X);
        assert_eq!(Z.not(), X);
    }

    #[test]
    fn u64_round_trip() {
        for val in [0u64, 1, 5, 255, 4096, u32::MAX as u64] {
            assert_eq!(v(val, 64).to_u64(), Some(val));
        }
    }

    #[test]
    fn i64_negative_round_trip() {
        let x = LogicVec::from_i64(-5, 8).unwrap();
        assert_eq!(x.to_i64(), Some(-5));
        assert_eq!(x.to_u64(), Some(0xFB));
    }

    #[test]
    fn add_wraps_at_width() {
        assert_eq!(v(15, 4).add(&v(1, 4)).to_u64(), Some(0));
        assert_eq!(v(7, 4).add(&v(8, 4)).to_u64(), Some(15));
    }

    #[test]
    fn sub_wraps() {
        assert_eq!(v(0, 4).sub(&v(1, 4)).to_u64(), Some(15));
    }

    #[test]
    fn arithmetic_with_x_poisons() {
        let x = LogicVec::unknown(4);
        assert!(v(3, 4).add(&x).has_unknown());
        assert!(x.mul(&v(2, 4)).has_unknown());
    }

    #[test]
    fn div_by_zero_is_x() {
        assert!(v(8, 4).div(&v(0, 4)).has_unknown());
        assert!(v(8, 4).rem(&v(0, 4)).has_unknown());
        assert_eq!(v(9, 4).div(&v(2, 4)).to_u64(), Some(4));
        assert_eq!(v(9, 4).rem(&v(2, 4)).to_u64(), Some(1));
    }

    #[test]
    fn signed_division_truncates_toward_zero() {
        let a = LogicVec::from_i64(-7, 8).unwrap();
        let b = LogicVec::from_i64(2, 8).unwrap();
        assert_eq!(a.div(&b).to_i64(), Some(-3));
        assert_eq!(a.rem(&b).to_i64(), Some(-1));
    }

    #[test]
    fn signed_overflow_detect_via_bits() {
        // 127 + 1 wraps to -128 in 8-bit signed.
        let a = LogicVec::from_i64(127, 8).unwrap();
        let b = LogicVec::from_i64(1, 8).unwrap();
        assert_eq!(a.add(&b).to_i64(), Some(-128));
    }

    #[test]
    fn bitwise_ops() {
        assert_eq!(v(0b1100, 4).bit_and(&v(0b1010, 4)).to_u64(), Some(0b1000));
        assert_eq!(v(0b1100, 4).bit_or(&v(0b1010, 4)).to_u64(), Some(0b1110));
        assert_eq!(v(0b1100, 4).bit_xor(&v(0b1010, 4)).to_u64(), Some(0b0110));
        assert_eq!(v(0b1100, 4).bit_not().to_u64(), Some(0b0011));
        assert_eq!(v(0b1100, 4).bit_xnor(&v(0b1010, 4)).to_u64(), Some(0b1001));
    }

    #[test]
    fn reductions() {
        assert_eq!(v(0b1111, 4).reduce_and(), Logic::One);
        assert_eq!(v(0b1101, 4).reduce_and(), Logic::Zero);
        assert_eq!(v(0, 4).reduce_or(), Logic::Zero);
        assert_eq!(v(0b0100, 4).reduce_or(), Logic::One);
        assert_eq!(v(0b0111, 4).reduce_xor(), Logic::One);
        assert_eq!(v(0b0110, 4).reduce_xor(), Logic::Zero);
    }

    #[test]
    fn shifts() {
        assert_eq!(v(0b0011, 4).shl(&v(2, 3)).to_u64(), Some(0b1100));
        assert_eq!(v(0b1100, 4).shr(&v(2, 3)).to_u64(), Some(0b0011));
        // Shift past width clears everything.
        assert_eq!(v(0b1111, 4).shl(&v(9, 4)).to_u64(), Some(0));
    }

    #[test]
    fn arithmetic_shift_right_sign_fills() {
        let neg = LogicVec::from_i64(-8, 8).unwrap(); // 0xF8
        assert_eq!(neg.ashr(&v(2, 3)).to_i64(), Some(-2));
        // Unsigned >>> behaves like >>.
        assert_eq!(v(0x80, 8).ashr(&v(4, 3)).to_u64(), Some(0x08));
    }

    #[test]
    fn comparisons() {
        assert_eq!(v(3, 4).lt(&v(5, 4)).to_u64(), Some(1));
        assert_eq!(v(5, 4).le(&v(5, 4)).to_u64(), Some(1));
        assert_eq!(v(6, 4).gt(&v(5, 4)).to_u64(), Some(1));
        assert_eq!(v(5, 4).ge(&v(6, 4)).to_u64(), Some(0));
    }

    #[test]
    fn signed_comparison() {
        let a = LogicVec::from_i64(-1, 4).unwrap();
        let b = LogicVec::from_i64(1, 4).unwrap();
        assert_eq!(a.lt(&b).to_u64(), Some(1));
        // Same bits unsigned: 15 > 1.
        let au = a.clone().with_signed(false);
        let bu = b.clone().with_signed(false);
        assert_eq!(au.lt(&bu).to_u64(), Some(0));
    }

    #[test]
    fn equality_with_x_is_x() {
        let x = LogicVec::unknown(4);
        assert!(v(3, 4).eq_logic(&x).has_unknown());
        assert_eq!(v(3, 4).eq_logic(&v(3, 4)).to_u64(), Some(1));
        assert_eq!(v(3, 4).ne_logic(&v(4, 4)).to_u64(), Some(1));
    }

    #[test]
    fn case_equality_is_two_state() {
        let x = LogicVec::unknown(4);
        assert_eq!(x.case_eq(&x).to_u64(), Some(1));
        assert_eq!(x.case_eq(&v(3, 4)).to_u64(), Some(0));
    }

    #[test]
    fn logical_ops_three_valued() {
        let x = LogicVec::unknown(1);
        let t = LogicVec::from_bool(true);
        let f = LogicVec::from_bool(false);
        assert_eq!(f.logic_and(&x).to_u64(), Some(0));
        assert!(t.logic_and(&x).has_unknown());
        assert_eq!(t.logic_or(&x).to_u64(), Some(1));
        assert!(f.logic_or(&x).has_unknown());
        assert_eq!(t.logic_not().to_u64(), Some(0));
    }

    #[test]
    fn concat_order_msb_from_lhs() {
        // {2'b10, 2'b01} == 4'b1001
        let c = v(0b10, 2).concat(&v(0b01, 2));
        assert_eq!(c.to_u64(), Some(0b1001));
        assert_eq!(c.width(), 4);
    }

    #[test]
    fn replication() {
        let r = v(0b10, 2).replicate(3);
        assert_eq!(r.to_u64(), Some(0b101010));
        assert_eq!(r.width(), 6);
    }

    #[test]
    fn part_select() {
        let val = v(0b1101_0110, 8);
        assert_eq!(val.select(7, 4).to_u64(), Some(0b1101));
        assert_eq!(val.select(3, 0).to_u64(), Some(0b0110));
        // Out-of-range reads x.
        assert!(val.select(9, 8).has_unknown());
    }

    #[test]
    fn resize_behaviour() {
        assert_eq!(v(0b11, 2).resize(4).to_u64(), Some(0b0011));
        let s = LogicVec::from_i64(-2, 4).unwrap();
        assert_eq!(s.resize(8).to_i64(), Some(-2));
        assert_eq!(v(0b1111, 4).resize(2).to_u64(), Some(0b11));
        // x extends with x.
        assert!(LogicVec::unknown(2).resize(4).bits()[3].is_unknown());
    }

    #[test]
    fn casez_wildcards() {
        // pattern 3'b1?? matches anything with bit2 == 1
        let pattern = LogicVec::from_bits(vec![Logic::Z, Logic::Z, Logic::One], false);
        assert!(v(0b100, 3).case_matches(&pattern, false));
        assert!(v(0b111, 3).case_matches(&pattern, false));
        assert!(!v(0b011, 3).case_matches(&pattern, false));
    }

    #[test]
    fn casex_treats_x_wild() {
        let pattern = LogicVec::from_bits(vec![Logic::X, Logic::One], false);
        assert!(v(0b10, 2).case_matches(&pattern, true));
        assert!(!v(0b10, 2).case_matches(&pattern, false));
    }

    #[test]
    fn formatting() {
        assert_eq!(v(0b1010, 4).to_binary_string(), "1010");
        assert_eq!(v(255, 8).to_decimal_string(), "255");
        assert_eq!(LogicVec::from_i64(-3, 8).unwrap().to_decimal_string(), "-3");
        assert_eq!(v(0xAB, 8).to_hex_string(), "ab");
        assert_eq!(LogicVec::unknown(8).to_hex_string(), "xx");
        assert_eq!(LogicVec::unknown(8).to_decimal_string(), "x");
        assert_eq!(format!("{}", v(5, 4)), "4'b0101");
    }

    #[test]
    fn truthiness() {
        assert_eq!(v(0, 4).truthiness(), Some(false));
        assert_eq!(v(2, 4).truthiness(), Some(true));
        assert_eq!(LogicVec::unknown(4).truthiness(), None);
        // 1 anywhere wins over x.
        let mixed = LogicVec::from_bits(vec![Logic::X, Logic::One], false);
        assert_eq!(mixed.truthiness(), Some(true));
    }

    #[test]
    fn neg_two_complement() {
        assert_eq!(v(1, 4).neg().to_u64(), Some(15));
        assert_eq!(LogicVec::from_i64(-4, 8).unwrap().neg().to_i64(), Some(4));
    }

    // ---- packed-representation specifics ----

    #[test]
    fn from_i64_zero_width_is_typed_error() {
        assert_eq!(LogicVec::from_i64(1, 0), Err(ZeroWidthError));
        assert_eq!(LogicVec::from_i64(-1, 0), Err(ZeroWidthError));
        assert_eq!(
            ZeroWidthError.to_string(),
            "logic vector width must be positive"
        );
        // Width 1 is the smallest legal vector.
        assert_eq!(LogicVec::from_i64(1, 1).unwrap().to_u64(), Some(1));
    }

    #[test]
    fn vpi_plane_encoding() {
        // LSB first: 1, z, x, 0 → aval 0b0101, bval 0b0110.
        let val = LogicVec::from_bits(vec![Logic::One, Logic::Z, Logic::X, Logic::Zero], false);
        assert_eq!(val.word(0), (0b0101, 0b0110));
        assert_eq!(val.word_len(), 1);
        // Round trip.
        assert_eq!(
            val.bits(),
            vec![Logic::One, Logic::Z, Logic::X, Logic::Zero]
        );
    }

    #[test]
    fn wide_vectors_use_multiple_words() {
        let val = v(1, 65).shl(&v(64, 8));
        assert_eq!(val.word_len(), 2);
        assert_eq!(val.word(0), (0, 0));
        assert_eq!(val.word(1), (1, 0));
        assert_eq!(val.bit(64), Logic::One);
        // Word index past the storage reads zero.
        assert_eq!(val.word(7), (0, 0));
    }

    #[test]
    fn wide_arithmetic_beyond_64_bits_stays_exact_for_add_sub() {
        // Add/sub run word-parallel with carry propagation, so fully known
        // values are exact at any width. The other arithmetic ops still
        // degrade to all-x past 64 bits.
        let big = v(1, 80).shl(&v(70, 8)); // 2^70
        assert_eq!(big.to_u64(), None);
        let bumped = big.add(&v(1, 80)); // 2^70 + 1
        assert!(!bumped.has_unknown());
        assert_eq!(bumped.bit(70), Logic::One);
        assert_eq!(bumped.bit(0), Logic::One);
        assert_eq!(bumped.sub(&big).to_u64(), Some(1));
        assert_eq!(bumped.sub(&bumped).to_u64(), Some(0));
        // Carry must ripple across the word boundary: (2^64 - 1) + 1 = 2^64.
        let max_word = v(1, 100).shl(&v(64, 8)).sub(&v(1, 100));
        let next = max_word.add(&v(1, 100));
        assert_eq!(next.bit(64), Logic::One);
        assert_eq!(next.bit(63), Logic::Zero);
        // Multiplication keeps the documented degradation.
        assert!(big.mul(&v(2, 80)).has_unknown());
        // Values that fit keep exact wide-width arithmetic.
        assert_eq!(v(5, 80).add(&v(7, 80)).to_u64(), Some(12));
    }

    #[test]
    fn wide_shift_crosses_word_boundary() {
        let val = v(0b11, 100);
        let up = val.shl(&v(63, 8));
        assert_eq!(up.bit(63), Logic::One);
        assert_eq!(up.bit(64), Logic::One);
        assert_eq!(up.shr(&v(63, 8)).to_u64(), Some(0b11));
    }

    #[test]
    fn wide_select_and_concat() {
        let val = v(0xDEAD, 100).shl(&v(60, 8));
        assert_eq!(val.select(75, 60).to_u64(), Some(0xDEAD));
        let cat = v(0xA, 4).concat(&v(0x5, 68));
        assert_eq!(cat.width(), 72);
        assert_eq!(cat.select(71, 68).to_u64(), Some(0xA));
        assert_eq!(cat.select(67, 0).to_u64(), Some(0x5));
    }

    #[test]
    fn wide_signed_resize_sign_extends_across_words() {
        let s = LogicVec::from_i64(-2, 66).unwrap();
        assert_eq!(s.to_i64(), Some(-2));
        let grown = s.resize(130);
        assert_eq!(grown.bit(129), Logic::One);
        assert_eq!(grown.to_i64(), Some(-2));
    }

    #[test]
    fn with_range_writes_slice() {
        let val = v(0, 8).with_range(5, 2, &v(0b1111, 4));
        assert_eq!(val.to_u64(), Some(0b0011_1100));
        // Out-of-range slots are dropped.
        let clipped = v(0, 4).with_range(5, 2, &v(0b1111, 4));
        assert_eq!(clipped.to_u64(), Some(0b1100));
        let past = v(0b1010, 4).with_range(9, 8, &v(0b11, 2));
        assert_eq!(past.to_u64(), Some(0b1010));
        // Narrow value is resized (zero-extended) to the select width.
        let widened = v(0xFF, 8).with_range(7, 0, &v(1, 1));
        assert_eq!(widened.to_u64(), Some(1));
        // Signedness and width preserved.
        let s = LogicVec::from_i64(-1, 8)
            .unwrap()
            .with_range(0, 0, &v(0, 1));
        assert!(s.is_signed());
        assert_eq!(s.width(), 8);
    }

    #[test]
    fn merge_unknown_keeps_agreeing_known_bits() {
        let a = v(0b1100, 4);
        let b = v(0b1010, 4);
        let m = a.merge_unknown(&b);
        assert_eq!(m.bit(3), Logic::One);
        assert_eq!(m.bit(2), Logic::X);
        assert_eq!(m.bit(1), Logic::X);
        assert_eq!(m.bit(0), Logic::Zero);
        // Agreeing z bits still merge to x (z is not a known value).
        let z = LogicVec::filled(4, Logic::Z);
        assert!(z.merge_unknown(&z).bits().iter().all(|b| *b == Logic::X));
    }

    #[test]
    fn replicate_across_word_boundaries() {
        let r = v(0b101, 3).replicate(30);
        assert_eq!(r.width(), 90);
        for i in 0..90 {
            assert_eq!(r.bit(i), Logic::from_bool(i % 3 != 1), "bit {i}");
        }
    }
}
