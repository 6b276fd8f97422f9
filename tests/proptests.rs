//! Property-based tests over the core substrates.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

use vgen::core::check::assemble;
use vgen::corpus::minhash::MinHasher;
use vgen::corpus::shingle::{jaccard, shingles};
use vgen::corpus::window::sliding_windows;
use vgen::lm::bpe::Bpe;
use vgen::lm::mutate::hostile_corpus;
use vgen::problems::PromptLevel;
use vgen::verilog::number::parse_number;
use vgen::verilog::pretty::pretty_file;
use vgen::verilog::truncate::{assemble_candidate, truncate_completion};
use vgen::verilog::value::LogicVec;

// ------------------------------------------------------------ LogicVec laws

proptest! {
    #[test]
    fn add_commutes(a in 0u64..=u32::MAX as u64, b in 0u64..=u32::MAX as u64, w in 1usize..40) {
        let x = LogicVec::from_u64(a, w);
        let y = LogicVec::from_u64(b, w);
        prop_assert_eq!(x.add(&y), y.add(&x));
    }

    #[test]
    fn add_then_sub_round_trips(a in any::<u64>(), b in any::<u64>(), w in 1usize..64) {
        let x = LogicVec::from_u64(a, w);
        let y = LogicVec::from_u64(b, w);
        prop_assert_eq!(x.add(&y).sub(&y).to_u64(), x.to_u64());
    }

    #[test]
    fn neg_is_involution(a in any::<u64>(), w in 1usize..64) {
        let x = LogicVec::from_u64(a, w);
        prop_assert_eq!(x.neg().neg().to_u64(), x.to_u64());
    }

    #[test]
    fn bitnot_is_involution(a in any::<u64>(), w in 1usize..64) {
        let x = LogicVec::from_u64(a, w);
        prop_assert_eq!(x.bit_not().bit_not(), x);
    }

    #[test]
    fn demorgan(a in any::<u64>(), b in any::<u64>(), w in 1usize..48) {
        let x = LogicVec::from_u64(a, w);
        let y = LogicVec::from_u64(b, w);
        prop_assert_eq!(
            x.bit_and(&y).bit_not(),
            x.bit_not().bit_or(&y.bit_not())
        );
    }

    #[test]
    fn shifts_compose(a in any::<u64>(), w in 1usize..64, s1 in 0u64..8, s2 in 0u64..8) {
        let x = LogicVec::from_u64(a, w);
        let one = |n: u64| LogicVec::from_u64(n, 8);
        prop_assert_eq!(
            x.shl(&one(s1)).shl(&one(s2)),
            x.shl(&one(s1 + s2))
        );
    }

    #[test]
    fn concat_width_adds(a in any::<u64>(), b in any::<u64>(), wa in 1usize..32, wb in 1usize..32) {
        let x = LogicVec::from_u64(a, wa);
        let y = LogicVec::from_u64(b, wb);
        let c = x.concat(&y);
        prop_assert_eq!(c.width(), wa + wb);
        // High part is x, low part is y.
        prop_assert_eq!(c.select(wb + wa - 1, wb).to_u64(), x.to_u64());
        prop_assert_eq!(c.select(wb - 1, 0).to_u64(), y.to_u64());
    }

    #[test]
    fn resize_preserves_unsigned_value_when_growing(a in any::<u64>(), w in 1usize..63) {
        let x = LogicVec::from_u64(a, w);
        prop_assert_eq!(x.resize(w + 1).to_u64(), x.to_u64());
    }

    #[test]
    fn signed_round_trip(v in -5000i64..5000, extra in 0usize..16) {
        let needed = 64 - v.abs().leading_zeros() as usize + 2;
        let w = needed + extra;
        let x = LogicVec::from_i64(v, w).unwrap();
        prop_assert_eq!(x.to_i64(), Some(v));
    }

    #[test]
    fn comparison_trichotomy(a in any::<u32>(), b in any::<u32>()) {
        let x = LogicVec::from_u64(a as u64, 32);
        let y = LogicVec::from_u64(b as u64, 32);
        let lt = x.lt(&y).to_u64() == Some(1);
        let gt = x.gt(&y).to_u64() == Some(1);
        let eq = x.eq_logic(&y).to_u64() == Some(1);
        prop_assert_eq!(lt as u8 + gt as u8 + eq as u8, 1);
    }
}

// ----------------------------------------------------------- number parsing

proptest! {
    #[test]
    fn sized_decimal_round_trips(v in 0u64..4096, w in 12usize..32) {
        let lit = format!("{w}'d{v}");
        let parsed = parse_number(&lit).expect("parse");
        prop_assert_eq!(parsed.to_u64(), Some(v));
        prop_assert_eq!(parsed.width(), w);
    }

    #[test]
    fn hex_round_trips(v in any::<u32>()) {
        let lit = format!("32'h{v:x}");
        prop_assert_eq!(parse_number(&lit).expect("parse").to_u64(), Some(v as u64));
    }

    #[test]
    fn binary_display_reparses(v in any::<u16>()) {
        let x = LogicVec::from_u64(v as u64, 16);
        let lit = format!("16'b{}", x.to_binary_string());
        prop_assert_eq!(parse_number(&lit).expect("parse"), x.with_signed(false));
    }
}

// ----------------------------------------------- parser / pretty round-trip

/// Generates small random-but-valid modules from the corpus templates.
fn template_module(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    vgen::corpus::synth::random_module(&mut rng)
}

proptest! {
    #[test]
    fn template_modules_parse(seed in any::<u64>()) {
        let src = template_module(seed);
        prop_assert!(vgen::verilog::parse(&src).is_ok(), "template must parse:\n{}", src);
    }

    #[test]
    fn pretty_print_is_idempotent(seed in any::<u64>()) {
        let src = template_module(seed);
        let f1 = vgen::verilog::parse(&src).expect("parse");
        let once = pretty_file(&f1);
        let f2 = vgen::verilog::parse(&once).expect("reparse");
        let twice = pretty_file(&f2);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn lexer_never_panics(input in ".{0,200}") {
        // Arbitrary input must lex (lossily) without panicking.
        let _ = vgen::verilog::lexer::Lexer::new(&input).tokenize_lossy();
    }

    #[test]
    fn truncation_is_prefix(input in ".{0,300}") {
        let t = truncate_completion(&input);
        prop_assert!(input.starts_with(t));
    }

    #[test]
    fn assembled_candidates_contain_one_prompt(body in "[a-z ;=]{0,80}") {
        let prompt = "module m(input a, output y);";
        let src = assemble_candidate(prompt, &body);
        prop_assert_eq!(src.matches("module m").count(), 1);
    }

    /// `assemble` runs on the sweep's own thread to key the dedup cache,
    /// outside any panic guard, so it must be total: any text, led or not
    /// by comment lines and a `module` keyword, at any problem and level,
    /// assembles without a panic into either the prompt plus a body or a
    /// cut of the whole-module completion.
    #[test]
    fn assemble_is_total(
        lead in "[ \t\n/]{0,8}",
        rest in ".{0,120}",
        tail in "[ -~\n\t]{0,80}",
        pick in 0usize..102,
    ) {
        // `pick` names the problem, the prompt level and whether the text
        // opens with a `module` keyword.
        let p = &vgen::problems::problems()[pick % 17];
        let level = PromptLevel::ALL[pick / 17 % 3];
        let module = if pick >= 51 { "module " } else { "" };
        let text = format!("{lead}{module}{rest}{tail}");
        let src = assemble(p, level, &text);
        prop_assert!(
            src.starts_with(p.prompt(level)) || text.trim_start().starts_with(src.as_str())
        );
    }
}

/// [`assemble_is_total`] over the hostile corpus, at every problem and
/// prompt level.
#[test]
fn assemble_is_total_on_the_hostile_corpus() {
    let corpus = hostile_corpus();
    for p in vgen::problems::problems() {
        for level in PromptLevel::ALL {
            for (op, text) in &corpus {
                let src = assemble(p, level, text);
                assert!(
                    src.starts_with(p.prompt(level)) || text.trim_start().starts_with(src.as_str()),
                    "{op:?} at problem {} {level:?}",
                    p.id
                );
            }
        }
    }
}

// ------------------------------------------------------------------- corpus

proptest! {
    #[test]
    fn jaccard_bounds(a in ".{0,200}", b in ".{0,200}") {
        let sa = shingles(&a, 2);
        let sb = shingles(&b, 2);
        let j = jaccard(&sa, &sb);
        prop_assert!((0.0..=1.0).contains(&j));
        // Self-similarity is 1.
        prop_assert_eq!(jaccard(&sa, &sa), 1.0);
    }

    #[test]
    fn minhash_estimate_bounded(a in "[a-f ]{20,200}", b in "[a-f ]{20,200}") {
        let h = MinHasher::new(64, 9);
        let sa = h.signature(&shingles(&a, 2));
        let sb = h.signature(&shingles(&b, 2));
        let est = h.estimate(&sa, &sb);
        prop_assert!((0.0..=1.0).contains(&est));
        prop_assert_eq!(h.estimate(&sa, &sa), 1.0);
    }

    #[test]
    fn windows_cover_every_line(lines in 1usize..80, window in 1usize..20, stride_raw in 1usize..20) {
        let stride = stride_raw.min(window);
        let text: String = (0..lines).map(|i| format!("L{i}")).collect::<Vec<_>>().join("\n");
        let windows = sliding_windows(&text, window, stride);
        let joined = windows.join("\n");
        for i in 0..lines {
            let marker = format!("L{i}");
            prop_assert!(joined.contains(&marker), "missing line {}", i);
        }
    }
}

// ------------------------------------------------------------------ synth

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn template_modules_synthesize(seed in any::<u64>()) {
        // Every corpus template is written in the synthesizable subset.
        let src = template_module(seed);
        let r = vgen::synth::synthesize_source(&src);
        prop_assert!(r.is_ok(), "template must synthesize:\n{}\n{:?}", src, r.err());
    }

    #[test]
    fn comb_templates_match_simulator(seed in any::<u64>(), a in any::<u32>(), b in any::<u32>()) {
        // The combinational template: netlist output == simulator output
        // for random inputs.
        let mut rng = StdRng::seed_from_u64(seed);
        let src = {
            // Draw templates until a combinational one appears (1 in 4).
            let mut s = vgen::corpus::synth::random_module(&mut rng);
            let mut guard = 0;
            while !s.contains("combinational") {
                s = vgen::corpus::synth::random_module(&mut rng);
                guard += 1;
                if guard > 64 { break; }
            }
            s
        };
        prop_assume!(src.contains("combinational"));
        let file = vgen::verilog::parse(&src).expect("template parses");
        let module = &file.modules[0];
        // The template has two inputs and output y; find their widths.
        let design = vgen::sim::elab::elaborate(&file, &module.name).expect("elab");
        let result = vgen::synth::synthesize_source(&src).expect("synth");
        let mut net = vgen::synth::NetlistSim::new(result.netlist);
        let mut tb = String::new();
        let mut outputs = Vec::new();
        for item in &module.items {
            let vgen::verilog::ast::Item::Decl(d) = item else { continue };
            for n in &d.names {
                let w = design
                    .signal_by_name(&n.name)
                    .map(|s| design.signal(s).width)
                    .unwrap_or(1);
                match d.dir {
                    Some(vgen::verilog::ast::PortDir::Input) => {
                        let v = LogicVec::from_u64(
                            if tb.is_empty() { a as u64 } else { b as u64 },
                            w,
                        );
                        net.set_input(&n.name, v.clone());
                        tb.push_str(&format!(
                            "reg [{}:0] {};\ninitial {} = {}'b{};\n",
                            w - 1, n.name, n.name, w, v.to_binary_string()
                        ));
                    }
                    Some(vgen::verilog::ast::PortDir::Output) => {
                        outputs.push((n.name.clone(), w));
                        tb.push_str(&format!("wire [{}:0] {};\n", w - 1, n.name));
                    }
                    _ => {}
                }
            }
        }
        net.settle();
        let conns: Vec<String> = module
            .ports
            .iter()
            .map(|p| format!(".{p}({p})"))
            .collect();
        let full = format!(
            "{src}\nmodule tb;\n{tb}\n{} dut({});\n\
             initial begin\n#1;\n{}\n$finish;\nend\nendmodule",
            module.name,
            conns.join(", "),
            outputs
                .iter()
                .map(|(o, _)| format!("$display(\"{o}=%b\", {o});"))
                .collect::<Vec<_>>()
                .join("\n")
        );
        let out = vgen::sim::simulate(&full, Some("tb"), vgen::sim::SimConfig::default())
            .expect("simulate");
        for (o, _) in &outputs {
            let want = out
                .stdout
                .lines()
                .find_map(|l| l.strip_prefix(&format!("{o}=")))
                .expect("output printed");
            prop_assert_eq!(net.output(o).to_binary_string(), want, "module:\n{}", src);
        }
    }

    #[test]
    fn template_modules_simulate_without_hanging(seed in any::<u64>()) {
        // Any template elaborates and quiesces quickly on its own.
        let src = template_module(seed);
        let out = vgen::sim::simulate(
            &src,
            None,
            vgen::sim::SimConfig::default().with_max_time(1000).with_max_steps(100_000),
        )
        .expect("simulate");
        prop_assert!(!matches!(out.reason, vgen::sim::StopReason::RuntimeError(_)));
    }
}

// ----------------------------------------------------------------------- lm

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn bpe_round_trips_any_text(text in ".{0,500}") {
        let bpe = Bpe::train("module m; endmodule always posedge", 50);
        prop_assert_eq!(bpe.decode(&bpe.encode(&text)), text);
    }

    #[test]
    fn bpe_trained_on_input_round_trips(text in "[a-z ;()=]{10,300}") {
        let bpe = Bpe::train(&text, 100);
        prop_assert_eq!(bpe.decode(&bpe.encode(&text)), text);
    }
}

// -------------------------------------------------------- checker totality

/// The guarded checker is *total*: any byte soup and any mutant of a real
/// reference yields a classified outcome, never a `HarnessFault` (which
/// would mean a panic somewhere in assemble/parse/elaborate/simulate).
fn classify(completion: &str) -> vgen::core::check::CheckOutcome {
    let p = vgen::problems::problem(2).expect("problem 2 exists");
    let config = vgen::sim::SimConfig {
        max_output_bytes: 1 << 16,
        ..vgen::sim::SimConfig::default()
            .with_max_time(100_000)
            .with_max_steps(500_000)
    };
    let policy = vgen::core::CheckPolicy::default();
    vgen::core::supervised_check_completion(
        p,
        vgen::problems::PromptLevel::Low,
        completion,
        config,
        &policy,
    )
    .outcome
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn check_classifies_arbitrary_text(completion in ".{0,400}") {
        let outcome = classify(&completion);
        prop_assert!(
            !matches!(outcome, vgen::core::check::CheckOutcome::HarnessFault(_)),
            "harness fault on arbitrary text: {:?}\n{}", outcome, completion
        );
    }

    #[test]
    fn check_classifies_verilog_shaped_noise(
        completion in "(assign |always @\\(\\*\\) |reg |wire |if \\(|endmodule|[a-z]{1,4}|[0-9]{1,9}|'h|\\[|\\]|\\{|\\}|;|=|&|\\||~|\\n| ){5,60}"
    ) {
        let outcome = classify(&completion);
        prop_assert!(
            !matches!(outcome, vgen::core::check::CheckOutcome::HarnessFault(_)),
            "harness fault on Verilog-shaped noise: {:?}\n{}", outcome, completion
        );
    }

    #[test]
    fn check_classifies_mutated_references(seed in any::<u64>()) {
        // Mutate a correct solution for the AND-gate problem; every mutant
        // (semantic or syntactic) must still classify cleanly.
        let reference = "module and_gate(input a, input b, output y);\nassign y = a & b;\nendmodule\n";
        let mutants = vgen::lm::mutate::SemanticMutants::new(reference, seed, 4)
            .map(|(m, _)| m)
            .chain(
                vgen::lm::mutate::syntax_mutants(reference, seed, 4)
                    .into_iter()
                    .map(|(m, _)| m),
            );
        for m in mutants {
            // Strip the module header so the mutant looks like a completion.
            let body = m.split_once(");").map(|(_, b)| b).unwrap_or(&m);
            let outcome = classify(body);
            prop_assert!(
                !matches!(outcome, vgen::core::check::CheckOutcome::HarnessFault(_)),
                "harness fault on mutant: {:?}\n{}", outcome, m
            );
        }
    }
}
