//! The mutation engine: produces *plausibly wrong* Verilog from correct
//! solutions, mirroring the failure modes the paper reports —
//! offset-by-one outputs (Fig 2c), missing wrap-around (Fig 3c), wrong
//! output condition (Fig 4c) — plus syntax-level corruption for
//! compile-failure modelling.
//!
//! A semantic mutant is one AST rewrite, named by its (op, site, parity)
//! key and rendered with the pretty-printer, so it always *parses*;
//! whether it actually fails the testbench is verified downstream by the
//! bank builder in [`crate::family`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vgen_verilog::ast::*;
use vgen_verilog::pretty::pretty_file;
use vgen_verilog::value::LogicVec;

/// Kinds of semantic AST mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SemanticOp {
    /// Add or subtract one from a numeric literal (offset-by-one, Fig 2c).
    TweakConst,
    /// Swap a binary operator for a near-miss (`==`→`!=`, `&`→`|`, ...).
    SwapBinaryOp,
    /// Negate an `if` condition.
    NegateCondition,
    /// Delete an `else` branch (missing wrap-around, Fig 3c).
    DropElse,
    /// Swap the arms of a ternary.
    SwapTernaryArms,
}

impl SemanticOp {
    /// All mutation kinds.
    pub const ALL: [SemanticOp; 5] = [
        SemanticOp::TweakConst,
        SemanticOp::SwapBinaryOp,
        SemanticOp::NegateCondition,
        SemanticOp::DropElse,
        SemanticOp::SwapTernaryArms,
    ];
}

/// The stream of up to `count` distinct semantic mutants of `src`, made
/// as it is pulled, so a caller that stops early renders no more than it
/// takes.
///
/// The stream is up to `count * 8` attempts on one RNG seeded with `seed`.
/// Each attempt shuffles the ops, takes the first with a site in `src`,
/// then draws a target site and a `pick` whose parity tells `TweakConst`
/// to add or subtract one. Texts already seen, `src` included, are dropped.
///
/// A mutant's text depends only on its `(op, site, parity)` key, so `src`
/// is parsed once, its sites counted once per op, and the AST cloned and
/// rendered only for a key not drawn before. A repeated key still makes
/// its draws, so skipping its render leaves the stream unchanged.
pub struct SemanticMutants {
    /// The parsed `src`; `None` when it does not parse.
    file: Option<SourceFile>,
    sites: [(SemanticOp, usize); 5],
    rng: StdRng,
    keys: std::collections::HashSet<(SemanticOp, usize, bool)>,
    seen: std::collections::HashSet<String>,
    attempts_left: usize,
    /// Mutants still to yield.
    wanted: usize,
}

impl SemanticMutants {
    /// The stream for `src` at `seed`, yielding at most `count` mutants.
    pub fn new(src: &str, seed: u64, count: usize) -> SemanticMutants {
        let mut file = vgen_verilog::parse(src).ok();
        let sites = SemanticOp::ALL.map(|op| (op, file.as_mut().map_or(0, |f| count_sites(f, op))));
        SemanticMutants {
            file,
            sites,
            rng: StdRng::seed_from_u64(seed),
            keys: std::collections::HashSet::new(),
            seen: std::collections::HashSet::from([src.to_string()]),
            attempts_left: count * 8,
            wanted: count,
        }
    }
}

impl Iterator for SemanticMutants {
    type Item = (String, SemanticOp);

    fn next(&mut self) -> Option<(String, SemanticOp)> {
        let file = self.file.as_ref()?;
        while self.wanted > 0 && self.attempts_left > 0 {
            self.attempts_left -= 1;
            let mut ops = self.sites;
            for i in (1..ops.len()).rev() {
                ops.swap(i, self.rng.gen_range(0..=i));
            }
            let Some((op, n)) = ops.into_iter().find(|&(_, n)| n > 0) else {
                continue;
            };
            let target = self.rng.gen_range(0..n);
            let pick = self.rng.gen_range(0..u32::MAX);
            let odd = op == SemanticOp::TweakConst && !pick.is_multiple_of(2);
            if !self.keys.insert((op, target, odd)) {
                continue;
            }
            vgen_obs::counter_add("lm.mutant_render", 1);
            let mut mutated = file.clone();
            let mut counter = target as isize;
            for m in &mut mutated.modules {
                for item in &mut m.items {
                    mutate_item(item, op, &mut counter, pick);
                }
            }
            // The walk is `count_sites`'s, so it always reaches the target.
            debug_assert!(counter < 0);
            let m = pretty_file(&mutated);
            if self.seen.insert(m.clone()) {
                self.wanted -= 1;
                return Some((m, op));
            }
        }
        None
    }
}

/// Kinds of text-level syntax corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SyntaxOp {
    /// Delete a random semicolon.
    DropSemicolon,
    /// Delete a random `end` keyword.
    DropEnd,
    /// Delete a random closing parenthesis.
    DropParen,
    /// Truncate mid-file (models a completion cut off by max_tokens).
    Truncate,
    /// Insert a stray operator token.
    StrayToken,
}

impl SyntaxOp {
    /// All corruption kinds.
    pub const ALL: [SyntaxOp; 5] = [
        SyntaxOp::DropSemicolon,
        SyntaxOp::DropEnd,
        SyntaxOp::DropParen,
        SyntaxOp::Truncate,
        SyntaxOp::StrayToken,
    ];
}

/// Applies one random syntax corruption; returns `None` when the chosen
/// op has no applicable site.
pub fn syntax_corrupt(src: &str, rng: &mut StdRng) -> Option<(String, SyntaxOp)> {
    let op = SyntaxOp::ALL[rng.gen_range(0..SyntaxOp::ALL.len())];
    let out = match op {
        SyntaxOp::DropSemicolon => delete_nth_occurrence(src, ";", rng)?,
        SyntaxOp::DropEnd => delete_nth_word(src, "end", rng)?,
        SyntaxOp::DropParen => delete_nth_occurrence(src, ")", rng)?,
        SyntaxOp::Truncate => {
            let lines: Vec<&str> = src.lines().collect();
            if lines.len() < 4 {
                return None;
            }
            let cut = rng.gen_range(2..lines.len() - 1);
            let mut s = lines[..cut].join("\n");
            // Cut again mid-line to land inside a statement.
            let keep = s.len()
                - rng
                    .gen_range(0..lines[cut - 1].len().max(1))
                    .min(s.len() - 1);
            s.truncate(keep);
            s
        }
        SyntaxOp::StrayToken => {
            let pos = find_nth_occurrence(src, "=", rng)?;
            let mut s = src.to_string();
            s.insert_str(pos, "= =");
            s
        }
    };
    Some((out, op))
}

/// Generates up to `count` syntax-corrupted variants, each verified to
/// actually fail [`vgen_verilog::syntax_check`].
pub fn syntax_mutants(src: &str, seed: u64, count: usize) -> Vec<(String, SyntaxOp)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<(String, SyntaxOp)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for _ in 0..count * 10 {
        if out.len() >= count {
            break;
        }
        if let Some((m, op)) = syntax_corrupt(src, &mut rng) {
            if vgen_verilog::syntax_check(&m).is_err() && seen.insert(m.clone()) {
                out.push((m, op));
            }
        }
    }
    out
}

fn find_nth_occurrence(src: &str, needle: &str, rng: &mut StdRng) -> Option<usize> {
    let positions: Vec<usize> = src.match_indices(needle).map(|(i, _)| i).collect();
    if positions.is_empty() {
        return None;
    }
    Some(positions[rng.gen_range(0..positions.len())])
}

fn delete_nth_occurrence(src: &str, needle: &str, rng: &mut StdRng) -> Option<String> {
    let pos = find_nth_occurrence(src, needle, rng)?;
    let mut s = src.to_string();
    s.replace_range(pos..pos + needle.len(), "");
    Some(s)
}

fn delete_nth_word(src: &str, word: &str, rng: &mut StdRng) -> Option<String> {
    let bytes = src.as_bytes();
    let positions: Vec<usize> = src
        .match_indices(word)
        .map(|(i, _)| i)
        .filter(|&i| {
            let before = i == 0 || !(bytes[i - 1].is_ascii_alphanumeric() || bytes[i - 1] == b'_');
            let end = i + word.len();
            let after =
                end >= bytes.len() || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
            before && after
        })
        .collect();
    if positions.is_empty() {
        return None;
    }
    let pos = positions[rng.gen_range(0..positions.len())];
    let mut s = src.to_string();
    s.replace_range(pos..pos + word.len(), "");
    Some(s)
}

// --------------------------------------------------------- hostile inputs

/// Kinds of *hostile* completion — inputs crafted to exhaust a checker
/// resource or hit a parser/elaborator/simulator edge case, rather than to
/// be plausibly wrong. Used by the fault-injection harness to prove the
/// checking pipeline classifies every one of them instead of panicking or
/// hanging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HostileOp {
    /// Thousands of nested statements/expressions (parser recursion).
    DeepNesting,
    /// Astronomically wide vector declarations (elaborator allocation).
    HugeVector,
    /// Memory declarations whose total bits dwarf any real design.
    HugeMemory,
    /// Zero-width selects and zero replication counts.
    ZeroWidth,
    /// String literal that never closes (lexer end-of-input handling).
    UnterminatedString,
    /// Block comment that never closes, or comment floods.
    CommentBomb,
    /// More tokens than any legitimate completion (lexer/token cap).
    TokenFlood,
    /// `$display` loops that flood simulation output.
    DisplayFlood,
    /// Zero-delay loops that never quiesce (step budget).
    InfiniteLoop,
    /// Exponential module instantiation fan-out.
    InstanceBomb,
    /// Replication counts that multiply into huge widths.
    ReplicationBomb,
    /// Hundreds of conflicting drivers on the same signals (lint race
    /// analysis must dedupe, not multiply).
    DriverRace,
    /// Deep incomplete if/case nests and giant sensitivity lists (lint
    /// latch/path analysis must stay bounded).
    LatchFarm,
    /// Long and densely interlocking combinational cycles (lint dependency
    /// graph traversal must stay linear and capped).
    CombLoopChain,
}

impl HostileOp {
    /// All hostile kinds.
    pub const ALL: [HostileOp; 14] = [
        HostileOp::DeepNesting,
        HostileOp::HugeVector,
        HostileOp::HugeMemory,
        HostileOp::ZeroWidth,
        HostileOp::UnterminatedString,
        HostileOp::CommentBomb,
        HostileOp::TokenFlood,
        HostileOp::DisplayFlood,
        HostileOp::InfiniteLoop,
        HostileOp::InstanceBomb,
        HostileOp::ReplicationBomb,
        HostileOp::DriverRace,
        HostileOp::LatchFarm,
        HostileOp::CombLoopChain,
    ];
}

/// A corpus of adversarial completions, each tagged with the resource or
/// edge case it attacks. Every entry is shaped like a *body* completion
/// for a 2-input/1-output problem (inputs `a`, `b`, output `y`) — i.e. it
/// gets appended to the prompt by the harness — except the full-source
/// entries, which start with `module`.
///
/// Guaranteed to hold at least 20 entries covering every [`HostileOp`].
pub fn hostile_corpus() -> Vec<(HostileOp, String)> {
    let mut out: Vec<(HostileOp, String)> = Vec::new();

    // Parser recursion: nested begin/end statement bomb.
    let mut begin_bomb = String::from("reg x;\ninitial ");
    begin_bomb.push_str(&"begin ".repeat(3000));
    begin_bomb.push_str("x = 1;");
    begin_bomb.push_str(&" end".repeat(3000));
    begin_bomb.push_str("\nassign y = a & b;\nendmodule\n");
    out.push((HostileOp::DeepNesting, begin_bomb));

    // Parser recursion: parenthesis nesting in an expression.
    let parens = format!(
        "assign y = {}a{};\nendmodule\n",
        "(".repeat(3000),
        ")".repeat(3000)
    );
    out.push((HostileOp::DeepNesting, parens));

    // Parser recursion: unclosed parens (error path must also be bounded).
    out.push((
        HostileOp::DeepNesting,
        format!("assign y = {}a;\nendmodule\n", "(".repeat(3000)),
    ));

    // Parser recursion: right-recursive power chains.
    out.push((
        HostileOp::DeepNesting,
        format!("assign y = a{};\nendmodule\n", " ** a".repeat(1000)),
    ));

    // Parser recursion: ternary chains.
    out.push((
        HostileOp::DeepNesting,
        format!("assign y = {}b;\nendmodule\n", "a ? b : ".repeat(1000)),
    ));

    // Parser recursion: 10,000-term left-associative operator chains. The
    // parser builds these in a loop, so only its expression-depth cap keeps
    // the tree from overflowing every stage that recurses over it.
    for op in ["^", "+", "&&"] {
        out.push((
            HostileOp::DeepNesting,
            format!(
                "assign y = a{};\nendmodule\n",
                format!(" {op} a").repeat(9_999)
            ),
        ));
    }

    // Elaborator: one absurdly wide register.
    out.push((
        HostileOp::HugeVector,
        "reg [99999999:0] r;\nalways @(*) r = {a, b};\nassign y = r[0];\nendmodule\n".to_string(),
    ));

    // Elaborator: near-i64::MAX range bound.
    out.push((
        HostileOp::HugeVector,
        "wire [64'h7FFFFFFFFFFFFFFF:0] w;\nassign y = a;\nendmodule\n".to_string(),
    ));

    // Elaborator: many medium vectors that only blow the *total* budget.
    let mut many = String::new();
    for i in 0..40 {
        many.push_str(&format!("reg [999999:0] r{i};\n"));
    }
    many.push_str("assign y = a;\nendmodule\n");
    out.push((HostileOp::HugeVector, many));

    // Elaborator: memory whose total bits dwarf the budget.
    out.push((
        HostileOp::HugeMemory,
        "reg [65535:0] mem [0:999999];\nassign y = a;\nendmodule\n".to_string(),
    ));

    // Zero-width indexed select.
    out.push((
        HostileOp::ZeroWidth,
        "wire [7:0] w;\nassign w = {6'd0, a, b};\nassign y = w[3 -: 0];\nendmodule\n".to_string(),
    ));

    // Zero replication count.
    out.push((
        HostileOp::ZeroWidth,
        "assign y = |{0{a}};\nendmodule\n".to_string(),
    ));

    // Lexer: string that never closes.
    out.push((
        HostileOp::UnterminatedString,
        "initial $display(\"this string never ends...\nassign y = a;\nendmodule\n".to_string(),
    ));

    // Lexer: string ending in a bare escape at end of input.
    out.push((
        HostileOp::UnterminatedString,
        "initial $display(\"trailing escape \\".to_string(),
    ));

    // Lexer: block comment that never closes, padded with junk.
    out.push((
        HostileOp::CommentBomb,
        format!("assign y = a; /* {}", "comment bomb ".repeat(50_000)),
    ));

    // Lexer: a flood of line comments (must stay linear).
    out.push((
        HostileOp::CommentBomb,
        format!(
            "{}assign y = a & b;\nendmodule\n",
            "// filler comment line\n".repeat(50_000)
        ),
    ));

    // Token cap: more tokens than the parser accepts.
    out.push((
        HostileOp::TokenFlood,
        format!("assign y = a;{}\nendmodule\n", ";".repeat(450_000)),
    ));

    // Simulator: output flood via an unrolled $display loop.
    out.push((
        HostileOp::DisplayFlood,
        format!(
            "assign y = a & b;\ninteger i;\ninitial begin : blk\n  for (i = 0; i < 1000000; i = i + 1)\n    $display(\"{}\");\nend\nendmodule\n",
            "F".repeat(1024)
        ),
    ));

    // Simulator: output flood paced by delays ($display each timestep).
    out.push((
        HostileOp::DisplayFlood,
        format!(
            "assign y = a & b;\ninitial forever #1 $display(\"{}\");\nendmodule\n",
            "M".repeat(1024)
        ),
    ));

    // Simulator: zero-delay always loop that never settles.
    out.push((
        HostileOp::InfiniteLoop,
        "reg spin;\nalways spin = ~spin;\nassign y = a & b;\nendmodule\n".to_string(),
    ));

    // Simulator: zero-delay forever loop inside initial.
    out.push((
        HostileOp::InfiniteLoop,
        "reg spin;\ninitial forever spin = ~spin;\nassign y = a & b;\nendmodule\n".to_string(),
    ));

    // Elaborator: exponential instantiation fan-out (full source).
    let mut bomb = String::from("module and_gate(input a, input b, output y);\n  n5 root();\n  assign y = a & b;\nendmodule\nmodule n0; wire w; endmodule\n");
    for i in 1..=5 {
        bomb.push_str(&format!("module n{i};\n"));
        for j in 0..8 {
            bomb.push_str(&format!("  n{} u{j}();\n", i - 1));
        }
        bomb.push_str("endmodule\n");
    }
    out.push((HostileOp::InstanceBomb, bomb));

    // Elaborator: replication bomb.
    out.push((
        HostileOp::ReplicationBomb,
        "assign y = |{99999999{a}};\nendmodule\n".to_string(),
    ));

    // Elaborator: nested replication that multiplies widths.
    out.push((
        HostileOp::ReplicationBomb,
        "wire [1023:0] w;\nassign w = {1024{a}};\nassign y = |{1024{w}};\nendmodule\n".to_string(),
    ));

    // Lint: one register with 400 conflicting always-block drivers. The
    // race rule must report the signal once, not O(drivers²) times.
    let mut storm = String::from("reg r;\n");
    for i in 0..400 {
        storm.push_str(&format!("always @* r = a ^ {}'d{i};\n", 16));
    }
    storm.push_str("assign y = r;\nendmodule\n");
    out.push((HostileOp::DriverRace, storm));

    // Lint: 300 signals each driven with both `=` and `<=` (mixed-style
    // analysis over many independent signals).
    let mut mixed = String::new();
    for i in 0..300 {
        mixed.push_str(&format!("reg m{i};\n"));
    }
    mixed.push_str("always @(posedge a) begin\n");
    for i in 0..300 {
        mixed.push_str(&format!("  m{i} = b;\n  m{i} <= a;\n"));
    }
    mixed.push_str("end\nassign y = m0;\nendmodule\n");
    out.push((HostileOp::DriverRace, mixed));

    // Lint: overlapping part-select drivers on a wide bus (the bit-range
    // overlap test runs across every driver pair per signal).
    let mut slices = String::from("wire [2047:0] bus;\n");
    for i in 0..200 {
        slices.push_str(&format!("assign bus[{}:{}] = {{16{{a}}}};\n", i + 16, i));
    }
    slices.push_str("assign y = bus[0];\nendmodule\n");
    out.push((HostileOp::DriverRace, slices));

    // Lint: a 300-deep else-less if nest (path-coverage analysis depth).
    let mut nest = String::from("reg q;\nalways @* begin\n");
    for i in 0..300 {
        nest.push_str(&format!("if (a ^ b ^ {}'d{i}) begin\n", 16));
    }
    nest.push_str("q = a;\n");
    nest.push_str(&"end\n".repeat(300));
    nest.push_str("end\nassign y = q;\nendmodule\n");
    out.push((HostileOp::LatchFarm, nest));

    // Lint: a giant default-less case — 1023 of 1024 labels covered, so
    // coverage counting must actually enumerate, then still report.
    let mut case_bomb =
        String::from("reg q;\nreg [9:0] sel;\nalways @* begin\nsel = {a, b, 8'd0};\ncase (sel)\n");
    for i in 0..1023 {
        case_bomb.push_str(&format!("10'd{i}: q = a;\n"));
    }
    case_bomb.push_str("endcase\nend\nassign y = q;\nendmodule\n");
    out.push((HostileOp::LatchFarm, case_bomb));

    // Lint: 500 signals read inside an always block whose sensitivity list
    // names only one of them.
    let mut sens = String::new();
    for i in 0..500 {
        sens.push_str(&format!("wire s{i} = a ^ b;\n"));
    }
    sens.push_str("reg q;\nalways @(s0) begin\nq = 1'b0;\n");
    for i in 0..500 {
        sens.push_str(&format!("q = q ^ s{i};\n"));
    }
    sens.push_str("end\nassign y = q;\nendmodule\n");
    out.push((HostileOp::LatchFarm, sens));

    // Lint: one combinational cycle threaded through 800 wires (loop
    // detection must walk the whole ring without quadratic blow-up).
    let mut ring = String::new();
    for i in 0..800 {
        ring.push_str(&format!(
            "wire c{i};\nassign c{i} = c{} ^ a;\n",
            (i + 1) % 800
        ));
    }
    ring.push_str("assign y = c0;\nendmodule\n");
    out.push((HostileOp::CombLoopChain, ring));

    // Lint: a dense all-to-all dependency clique — every pair of signals
    // forms a loop; reporting must stay capped, not enumerate them all.
    let mut clique = String::new();
    for i in 0..40 {
        let terms: Vec<String> = (0..40)
            .filter(|&j| j != i)
            .map(|j| format!("k{j}"))
            .collect();
        clique.push_str(&format!(
            "wire k{i};\nassign k{i} = {};\n",
            terms.join(" ^ ")
        ));
    }
    clique.push_str("assign y = k0;\nendmodule\n");
    out.push((HostileOp::CombLoopChain, clique));

    // Lint: feedback through an always @* block with deep control nesting.
    out.push((
        HostileOp::CombLoopChain,
        "reg f;\nalways @* begin\nif (a) begin if (b) f = ~f; else f = f ^ a; end else f = f | b;\nend\nassign y = f;\nendmodule\n"
            .to_string(),
    ));

    // Lint: zero-width part-selects in every syntactic position the width
    // rule visits (decl inits, concats, replications).
    out.push((
        HostileOp::ZeroWidth,
        "wire [7:0] w = {8{a}};\nwire z0 = w[3:4];\nwire z1 = |{w[3:4], w[0 +: 0]};\nwire z2 = &{0{w}};\nassign y = z0 ^ z1 ^ z2;\nendmodule\n"
            .to_string(),
    ));

    out
}

// ----------------------------------------------------------- slow inputs

/// Kinds of *slow* completion — inputs that stay inside every resource
/// budget (token cap, recursion cap, step cap, output cap) yet burn enough
/// wall-clock in one pipeline stage that a per-check deadline is the only
/// defence. The supervision harness uses these to prove that deadline
/// expiry is classified as a timeout (`CheckOutcome::Timeout`), never as a
/// harness fault, and that without a deadline each entry still completes
/// with an ordinary verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlowOp {
    /// A zero-delay oscillator bounded to settle just under the default
    /// step cap — millions of delta cycles, no budget violation.
    SpinNearStepCap,
    /// A long chain of always blocks: every input edge ripples through
    /// the whole chain, one sequential activation at a time.
    AlwaysChain,
    /// Thousands of modest expressions — far below the token and
    /// recursion caps, but enough total work to dominate parse time.
    ParseCrawl,
}

impl SlowOp {
    /// All slow kinds.
    pub const ALL: [SlowOp; 3] = [
        SlowOp::SpinNearStepCap,
        SlowOp::AlwaysChain,
        SlowOp::ParseCrawl,
    ];
}

/// A corpus of slow-but-legal completions for a 2-input AND problem
/// (inputs `a`, `b`, output `y`). Every entry implements a correct AND
/// gate, so under no deadline each one *passes* — proving it stayed inside
/// the simulator/parser budgets — while under a tight deadline the checker
/// must classify it as a timeout.
pub fn slow_corpus() -> Vec<(SlowOp, String)> {
    let mut out: Vec<(SlowOp, String)> = Vec::new();

    // Bounded zero-delay spin: ~800k loop iterations of delta-cycle work,
    // sized to finish below the default 5M-step budget.
    out.push((
        SlowOp::SpinNearStepCap,
        "reg tick;\ninteger i;\ninitial begin : spin\n  tick = 1'b0;\n  for (i = 0; i < 800000; i = i + 1)\n    tick = ~tick;\nend\nassign y = a & b;\nendmodule\n"
            .to_string(),
    ));

    // 1200 chained always blocks; each stimulus edge re-evaluates the
    // whole chain in series.
    let n = 1200usize;
    let mut chain = String::new();
    for i in 0..n {
        chain.push_str(&format!("reg t{i};\n"));
    }
    chain.push_str("always @* t0 = a ^ b;\n");
    for i in 1..n {
        chain.push_str(&format!("always @* t{i} = t{} ^ b;\n", i - 1));
    }
    // The chain feeds nothing: y is a plain AND so the entry passes.
    chain.push_str(&format!(
        "assign y = a & b & ~(t{} & 1'b0);\nendmodule\n",
        n - 1
    ));
    out.push((SlowOp::AlwaysChain, chain));

    // 2500 declarations, each with a modest parenthesised expression:
    // ~135k tokens (under the token cap) and 24-deep nesting (far under
    // the recursion cap), but a lot of parse work in total.
    let mut crawl = String::new();
    for i in 0..2500 {
        crawl.push_str(&format!(
            "wire p{i} = {}a ^ b{};\n",
            "(".repeat(24),
            ")".repeat(24)
        ));
    }
    crawl.push_str("assign y = a & b;\nendmodule\n");
    out.push((SlowOp::ParseCrawl, crawl));

    out
}

// ------------------------------------------------------- site enumeration

/// Sites of `op` in `file`. The walk needs `&mut` but changes nothing.
fn count_sites(file: &mut SourceFile, op: SemanticOp) -> usize {
    let mut n = 0usize;
    for m in &mut file.modules {
        for item in &mut m.items {
            visit_item(item, &mut |loc| {
                if loc_matches(&loc, op) {
                    n += 1;
                }
            });
        }
    }
    n
}

/// A mutation site location passed to visitors.
enum Loc<'a> {
    Expr(&'a mut Expr),
    Stmt(&'a mut Stmt),
}

fn loc_matches(loc: &Loc<'_>, op: SemanticOp) -> bool {
    match (loc, op) {
        (Loc::Expr(e), SemanticOp::TweakConst) => {
            matches!(&e.kind, ExprKind::Number(v) if v.width() >= 2 && !v.has_unknown())
        }
        (Loc::Expr(e), SemanticOp::SwapBinaryOp) => match &e.kind {
            ExprKind::Binary { op, .. } => swap_op(*op).is_some(),
            _ => false,
        },
        (Loc::Expr(e), SemanticOp::SwapTernaryArms) => {
            matches!(&e.kind, ExprKind::Ternary { .. })
        }
        (Loc::Stmt(s), SemanticOp::NegateCondition) => {
            matches!(&s.kind, StmtKind::If { .. })
        }
        (Loc::Stmt(s), SemanticOp::DropElse) => {
            matches!(&s.kind, StmtKind::If { els: Some(_), .. })
        }
        _ => false,
    }
}

fn swap_op(op: BinaryOp) -> Option<BinaryOp> {
    use BinaryOp::*;
    Some(match op {
        Eq => Ne,
        Ne => Eq,
        BitAnd => BitOr,
        BitOr => BitAnd,
        BitXor => BitXnor,
        BitXnor => BitXor,
        Add => Sub,
        Sub => Add,
        Lt => Le,
        Le => Lt,
        Gt => Ge,
        Ge => Gt,
        Shl => Shr,
        Shr => Shl,
        LogicAnd => LogicOr,
        LogicOr => LogicAnd,
        _ => return None,
    })
}

fn mutate_item(item: &mut Item, op: SemanticOp, counter: &mut isize, pick: u32) {
    visit_item(item, &mut |loc| {
        if !loc_matches(&loc, op) {
            return;
        }
        if *counter != 0 {
            *counter -= 1;
            return;
        }
        *counter -= 1;
        apply_mutation(loc, op, pick);
    });
}

fn apply_mutation(loc: Loc<'_>, op: SemanticOp, pick: u32) {
    match (loc, op) {
        (Loc::Expr(e), SemanticOp::TweakConst) => {
            if let ExprKind::Number(v) = &e.kind {
                let one = LogicVec::from_u64(1, v.width());
                let tweaked = if pick.is_multiple_of(2) {
                    v.add(&one)
                } else {
                    v.sub(&one)
                };
                e.kind = ExprKind::Number(tweaked);
            }
        }
        (Loc::Expr(e), SemanticOp::SwapBinaryOp) => {
            if let ExprKind::Binary { op: bop, .. } = &mut e.kind {
                if let Some(new) = swap_op(*bop) {
                    *bop = new;
                }
            }
        }
        (Loc::Expr(e), SemanticOp::SwapTernaryArms) => {
            if let ExprKind::Ternary { then, els, .. } = &mut e.kind {
                std::mem::swap(then, els);
            }
        }
        (Loc::Stmt(s), SemanticOp::NegateCondition) => {
            if let StmtKind::If { cond, .. } = &mut s.kind {
                let span = cond.span;
                let inner = std::mem::replace(cond, Expr::ident("_", span));
                *cond = Expr::new(
                    ExprKind::Unary {
                        op: UnaryOp::LogicNot,
                        arg: Box::new(inner),
                    },
                    span,
                );
            }
        }
        (Loc::Stmt(s), SemanticOp::DropElse) => {
            if let StmtKind::If { els, .. } = &mut s.kind {
                *els = None;
            }
        }
        _ => {}
    }
}

// ------------------------------------------------------------- AST walking

fn visit_item(item: &mut Item, f: &mut impl FnMut(Loc<'_>)) {
    match item {
        Item::Assign(a) => {
            for (lhs, rhs) in &mut a.assigns {
                visit_expr(lhs, f);
                visit_expr(rhs, f);
            }
        }
        Item::Always(a) => visit_stmt(&mut a.body, f),
        Item::Initial(i) => visit_stmt(&mut i.body, f),
        Item::Gate(g) => {
            for c in &mut g.conns {
                visit_expr(c, f);
            }
        }
        Item::Decl(d) => {
            for n in &mut d.names {
                if let Some(init) = &mut n.init {
                    visit_expr(init, f);
                }
            }
        }
        Item::Function(func) => visit_stmt(&mut func.body, f),
        Item::Param(_) | Item::Instance(_) | Item::Defparam { .. } => {}
    }
}

fn visit_stmt(stmt: &mut Stmt, f: &mut impl FnMut(Loc<'_>)) {
    f(Loc::Stmt(stmt));
    match &mut stmt.kind {
        StmtKind::Block { stmts, .. } => {
            for s in stmts {
                visit_stmt(s, f);
            }
        }
        StmtKind::Assign {
            lhs, rhs, delay, ..
        } => {
            visit_expr(lhs, f);
            visit_expr(rhs, f);
            if let Some(d) = delay {
                visit_expr(d, f);
            }
        }
        StmtKind::If { cond, then, els } => {
            visit_expr(cond, f);
            visit_stmt(then, f);
            if let Some(e) = els {
                visit_stmt(e, f);
            }
        }
        StmtKind::Case { expr, arms, .. } => {
            visit_expr(expr, f);
            for arm in arms {
                for l in &mut arm.labels {
                    visit_expr(l, f);
                }
                visit_stmt(&mut arm.body, f);
            }
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            visit_expr(&mut init.1, f);
            visit_expr(cond, f);
            visit_expr(&mut step.1, f);
            visit_stmt(body, f);
        }
        StmtKind::While { cond, body } => {
            visit_expr(cond, f);
            visit_stmt(body, f);
        }
        StmtKind::Repeat { count, body } => {
            visit_expr(count, f);
            visit_stmt(body, f);
        }
        StmtKind::Forever { body } => visit_stmt(body, f),
        StmtKind::Delay { amount, stmt } => {
            visit_expr(amount, f);
            if let Some(s) = stmt {
                visit_stmt(s, f);
            }
        }
        StmtKind::Event { stmt, .. } => {
            if let Some(s) = stmt {
                visit_stmt(s, f);
            }
        }
        StmtKind::Wait { cond, stmt } => {
            visit_expr(cond, f);
            if let Some(s) = stmt {
                visit_stmt(s, f);
            }
        }
        StmtKind::SysCall { args, .. } | StmtKind::TaskCall { args, .. } => {
            for a in args {
                visit_expr(a, f);
            }
        }
        StmtKind::Disable(_) | StmtKind::Null => {}
    }
}

fn visit_expr(expr: &mut Expr, f: &mut impl FnMut(Loc<'_>)) {
    f(Loc::Expr(expr));
    match &mut expr.kind {
        ExprKind::Unary { arg, .. } => visit_expr(arg, f),
        ExprKind::Binary { lhs, rhs, .. } => {
            visit_expr(lhs, f);
            visit_expr(rhs, f);
        }
        ExprKind::Ternary { cond, then, els } => {
            visit_expr(cond, f);
            visit_expr(then, f);
            visit_expr(els, f);
        }
        ExprKind::Index { base, index } => {
            visit_expr(base, f);
            visit_expr(index, f);
        }
        ExprKind::PartSelect { base, msb, lsb } => {
            visit_expr(base, f);
            visit_expr(msb, f);
            visit_expr(lsb, f);
        }
        ExprKind::IndexedSelect {
            base, start, width, ..
        } => {
            visit_expr(base, f);
            visit_expr(start, f);
            visit_expr(width, f);
        }
        ExprKind::Concat(items) => {
            for i in items {
                visit_expr(i, f);
            }
        }
        ExprKind::Replicate { count, items } => {
            visit_expr(count, f);
            for i in items {
                visit_expr(i, f);
            }
        }
        ExprKind::SysCall { args, .. } | ExprKind::Call { args, .. } => {
            for a in args {
                visit_expr(a, f);
            }
        }
        ExprKind::Number(_) | ExprKind::Real(_) | ExprKind::Str(_) | ExprKind::Ident(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn semantic_mutants(src: &str, seed: u64, count: usize) -> Vec<(String, SemanticOp)> {
        SemanticMutants::new(src, seed, count).collect()
    }

    const COUNTER: &str = "\
module counter(input clk, input reset, output reg [3:0] q);
always @(posedge clk) begin
  if (reset) q <= 4'd1;
  else if (q == 4'd12) q <= 4'd1;
  else q <= q + 4'd1;
end
endmodule
";

    #[test]
    fn hostile_corpus_is_large_and_covers_all_ops() {
        let corpus = hostile_corpus();
        assert!(corpus.len() >= 20, "only {} hostile entries", corpus.len());
        for op in HostileOp::ALL {
            assert!(
                corpus.iter().any(|(o, _)| *o == op),
                "no corpus entry for {op:?}"
            );
        }
        for (op, src) in &corpus {
            assert!(!src.is_empty(), "empty entry for {op:?}");
        }
    }

    #[test]
    fn slow_corpus_covers_all_ops_and_parses() {
        let corpus = slow_corpus();
        for op in SlowOp::ALL {
            assert!(
                corpus.iter().any(|(o, _)| *o == op),
                "no slow entry for {op:?}"
            );
        }
        for (op, src) in &corpus {
            // Every entry is a body completion ending in `endmodule`; wrap
            // it in the AND-gate header and it must parse cleanly (the
            // slowness lives downstream of syntax, except ParseCrawl which
            // is merely *slow* to parse, not invalid).
            let full = format!("module and_gate(input a, input b, output y);\n{src}");
            assert!(
                vgen_verilog::syntax_check(&full).is_ok(),
                "slow entry {op:?} does not parse"
            );
        }
    }

    #[test]
    fn semantic_mutants_parse_and_differ() {
        let muts = semantic_mutants(COUNTER, 1, 8);
        assert!(muts.len() >= 4, "got only {} mutants", muts.len());
        for (m, op) in &muts {
            assert!(
                vgen_verilog::syntax_check(m).is_ok(),
                "semantic mutant must still parse ({op:?}):\n{m}"
            );
            assert_ne!(m, COUNTER);
        }
    }

    #[test]
    fn mutants_are_distinct() {
        let muts = semantic_mutants(COUNTER, 2, 10);
        let set: std::collections::HashSet<&String> = muts.iter().map(|(m, _)| m).collect();
        assert_eq!(set.len(), muts.len());
    }

    #[test]
    fn mutants_cover_multiple_ops() {
        let muts = semantic_mutants(COUNTER, 3, 12);
        let ops: std::collections::HashSet<SemanticOp> = muts.iter().map(|(_, op)| *op).collect();
        assert!(ops.len() >= 2, "expected op diversity, got {ops:?}");
    }

    #[test]
    fn syntax_mutants_fail_to_parse() {
        let muts = syntax_mutants(COUNTER, 4, 6);
        assert!(!muts.is_empty());
        for (m, op) in &muts {
            assert!(
                vgen_verilog::syntax_check(m).is_err(),
                "syntax mutant must fail ({op:?}):\n{m}"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        assert_eq!(
            semantic_mutants(COUNTER, 9, 5),
            semantic_mutants(COUNTER, 9, 5)
        );
        assert_eq!(syntax_mutants(COUNTER, 9, 5), syntax_mutants(COUNTER, 9, 5));
    }

    #[test]
    fn unparseable_input_yields_nothing() {
        assert!(semantic_mutants("not verilog at all", 1, 4).is_empty());
    }

    /// The reference generator: every attempt clones the file, mutates
    /// and renders it, and a repeated text is dropped.
    fn per_attempt_mutants(src: &str, seed: u64, count: usize) -> Vec<(String, SemanticOp)> {
        let mut out = Vec::new();
        let Ok(file) = vgen_verilog::parse(src) else {
            return out;
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seen = std::collections::HashSet::new();
        seen.insert(src.to_string());
        for _ in 0..count * 8 {
            if out.len() >= count {
                break;
            }
            if let Some((m, op)) = mutate_once(&file, &mut rng) {
                if seen.insert(m.clone()) {
                    out.push((m, op));
                }
            }
        }
        out
    }

    /// One attempt: ops in random order until one has a site.
    fn mutate_once(file: &SourceFile, rng: &mut StdRng) -> Option<(String, SemanticOp)> {
        let mut ops = SemanticOp::ALL.to_vec();
        for i in (1..ops.len()).rev() {
            ops.swap(i, rng.gen_range(0..=i));
        }
        for op in ops {
            let mut mutated = file.clone();
            let sites = count_sites(&mut mutated, op);
            if sites == 0 {
                continue;
            }
            let target = rng.gen_range(0..sites);
            let mut counter = target as isize;
            let pick = rng.gen_range(0..u32::MAX);
            for m in &mut mutated.modules {
                for item in &mut m.items {
                    mutate_item(item, op, &mut counter, pick);
                }
            }
            if counter < 0 {
                return Some((pretty_file(&mutated), op));
            }
        }
        None
    }

    /// Every catalog and extended solution, and `COUNTER`.
    fn oracle_sources() -> Vec<String> {
        let mut sources = vec![COUNTER.to_string()];
        for p in vgen_problems::problems()
            .iter()
            .chain(vgen_problems::extended_problems())
        {
            sources.extend(p.all_solutions());
        }
        sources
    }

    fn assert_matches_oracle(seeds: std::ops::Range<u64>, counts: &[usize]) {
        for src in oracle_sources() {
            for seed in seeds.clone() {
                for &count in counts {
                    assert_eq!(
                        semantic_mutants(&src, seed, count),
                        per_attempt_mutants(&src, seed, count),
                        "seed {seed}, count {count}:\n{src}"
                    );
                }
            }
        }
    }

    #[test]
    fn keyed_generator_matches_the_per_attempt_oracle() {
        assert_matches_oracle(40..43, &[4, 30]);
    }

    /// The full sweep; run with `cargo test --release -p vgen-lm -- --ignored`.
    #[test]
    #[ignore = "slow in debug builds; CI runs it in release"]
    fn keyed_generator_matches_the_per_attempt_oracle_on_the_full_sweep() {
        assert_matches_oracle(0..60, &[1, 4, 12, 30]);
    }

    #[test]
    fn drop_else_produces_fig3c_style_bug() {
        // Find a DropElse mutant: the counter then never wraps at 12.
        let muts = semantic_mutants(COUNTER, 7, 20);
        let dropped = muts.iter().find(|(_, op)| *op == SemanticOp::DropElse);
        if let Some((m, _)) = dropped {
            let elses = m.matches("else").count();
            assert!(elses < COUNTER.matches("else").count());
        }
    }
}
