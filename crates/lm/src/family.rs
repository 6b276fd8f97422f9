//! The calibrated family engine: a generative model of the paper's six
//! LLMs.
//!
//! Multi-GPU fine-tuning of 0.35B–16B transformers is the unreproducible
//! gate in this paper (see DESIGN.md). This engine substitutes a
//! *distribution over Verilog candidates* per (model, tuning, problem,
//! prompt level, temperature), anchored to the paper's measured pass rates
//! (Tables III and IV) and its temperature/size/detail trends (Figs 6–7):
//!
//! * a **compile anchor** per (model, difficulty) from Table III,
//! * a **functional anchor** per (model, difficulty, level) from Table IV,
//! * an exponential **temperature decay** (§V-B.1),
//! * per-problem multipliers reproducing the §VI failure analysis
//!   (problems 7 and 12 never pass; 9 almost never),
//! * a small **corpus factor** for the GitHub+books ablation (+1.4%).
//!
//! Crucially the engine emits *real Verilog text*: correct candidates come
//! from verified solution banks; functional failures from AST mutants
//! verified to compile-but-fail; compile failures from corrupted text
//! verified to fail the parser. Every candidate still flows through the
//! real compile+simulate pipeline downstream — the harness measures, it
//! does not trust.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use vgen_corpus::CorpusSource;
use vgen_obs::CancelToken;
use vgen_problems::{Difficulty, Problem, PromptLevel};
use vgen_verilog::Parsed;

use crate::engine::{Completion, CompletionEngine};
use crate::latency::sample_seconds;
use crate::mutate::{syntax_mutants, SemanticMutants};
use crate::registry::{ModelFamily, ModelId, Tuning};

/// Compile-rate anchor from Table III (best temperature, n = 10).
pub fn compile_anchor(model: ModelId, difficulty: Difficulty) -> f64 {
    use Difficulty::*;
    use ModelFamily::*;
    use Tuning::*;
    let (b, i, a) = match (model.family, model.tuning) {
        (Megatron355M, Pretrained) => (0.000, 0.000, 0.000),
        (Megatron355M, FineTuned) => (0.730, 0.391, 0.165),
        (CodeGen2B, Pretrained) => (0.080, 0.065, 0.176),
        (CodeGen2B, FineTuned) => (0.902, 0.612, 0.592),
        (CodeGen6B, Pretrained) => (0.052, 0.152, 0.187),
        (CodeGen6B, FineTuned) => (0.987, 0.689, 0.599),
        (J1Large7B, Pretrained) => (0.182, 0.176, 0.108),
        (J1Large7B, FineTuned) => (0.882, 0.635, 0.588),
        (CodeGen16B, Pretrained) => (0.132, 0.203, 0.240),
        (CodeGen16B, FineTuned) => (0.942, 0.728, 0.596),
        (CodeDavinci002, _) => (0.847, 0.452, 0.569),
    };
    match difficulty {
        Basic => b,
        Intermediate => i,
        Advanced => a,
    }
}

/// Functional pass-rate anchor from Table IV (best temperature, n = 10),
/// resolved per prompt detail level.
pub fn functional_anchor(model: ModelId, difficulty: Difficulty, level: PromptLevel) -> f64 {
    use Difficulty::*;
    use ModelFamily::*;
    use Tuning::*;
    // Rows: [basic L M H, intermediate L M H, advanced L M H].
    let row: [f64; 9] = match (model.family, model.tuning) {
        (Megatron355M, Pretrained) => [0.0; 9],
        (Megatron355M, FineTuned) => [
            0.170, 0.591, 0.245, 0.043, 0.018, 0.025, 0.000, 0.000, 0.000,
        ],
        (CodeGen2B, Pretrained) => [
            0.000, 0.000, 0.000, 0.000, 0.000, 0.000, 0.000, 0.016, 0.020,
        ],
        (CodeGen2B, FineTuned) => [
            0.835, 0.350, 0.630, 0.130, 0.092, 0.163, 0.132, 0.048, 0.068,
        ],
        (CodeGen6B, Pretrained) => [
            0.000, 0.000, 0.000, 0.000, 0.000, 0.013, 0.000, 0.000, 0.000,
        ],
        (CodeGen6B, FineTuned) => [
            1.000, 0.500, 0.760, 0.135, 0.150, 0.168, 0.284, 0.164, 0.164,
        ],
        (J1Large7B, Pretrained) => [
            0.044, 0.058, 0.067, 0.000, 0.000, 0.021, 0.000, 0.000, 0.000,
        ],
        (J1Large7B, FineTuned) => [
            0.388, 0.283, 0.342, 0.125, 0.075, 0.200, 0.000, 0.000, 0.000,
        ],
        (CodeGen16B, Pretrained) => [
            0.000, 0.085, 0.055, 0.035, 0.003, 0.045, 0.012, 0.000, 0.016,
        ],
        (CodeGen16B, FineTuned) => [
            0.745, 0.720, 0.745, 0.213, 0.270, 0.255, 0.246, 0.290, 0.294,
        ],
        (CodeDavinci002, _) => [
            0.520, 0.685, 0.775, 0.175, 0.200, 0.150, 0.156, 0.184, 0.344,
        ],
    };
    let d = match difficulty {
        Basic => 0,
        Intermediate => 3,
        Advanced => 6,
    };
    let l = match level {
        PromptLevel::Low => 0,
        PromptLevel::Medium => 1,
        PromptLevel::High => 2,
    };
    row[d + l]
}

/// Exponential temperature decay (§V-B.1: "Pass@(scenario·10) has the
/// highest value for t=0.1 and degrades exponentially with temperature").
/// Anchors are defined at t = 0.1.
pub fn temperature_factor(t: f64, decay: f64) -> f64 {
    (-decay * (t - 0.1).max(0.0)).exp()
}

/// Decay constant for compile success (syntax survives heat better).
pub const COMPILE_DECAY: f64 = 0.9;
/// Decay constant for functional success.
pub const FUNCTIONAL_DECAY: f64 = 1.8;

/// Mild completions-per-prompt effect (§V-B.2, Fig 6 right panel):
/// n = 1 is slightly better than n = 10; n = 25 recovers part of it.
pub fn n_factor(n: usize) -> f64 {
    match n {
        0..=1 => 1.06,
        2..=10 => 1.0,
        _ => 1.03,
    }
}

/// Per-problem multiplier reproducing the §VI failure analysis: problems 7
/// (LFSR) and 12 (truth table) never pass even for CodeGen-16B FT; problem
/// 9 (shift/rotate) passes once in 540. The remaining problems in each
/// difficulty tier compensate so the tier mean stays at the anchor.
pub fn problem_multiplier(problem_id: u8) -> f64 {
    match problem_id {
        7 | 12 => 0.0,
        9 => 0.02,
        // 5 of the 8 intermediate problems share the mass of the three
        // crippled ones: 8 / 5 ≈ 1.6 keeps the tier mean at 1.
        5 | 6 | 8 | 10 | 11 => 1.596,
        _ => 1.0,
    }
}

/// Per-problem multiplier under the *engineered* prompts of
/// [`vgen_problems::engineered_prompt`] — the paper's §VI prognosis made
/// concrete: problem 7's failure is prompt-fixable ("a better prompt might
/// yield a correct result"), problem 9's partially so, while problem 12's
/// stems from "insufficient diversity in the training corpus" and no prompt
/// fixes it.
pub fn engineered_multiplier(problem_id: u8) -> f64 {
    match problem_id {
        7 => 0.70,
        9 => 0.55,
        12 => 0.0,
        other => problem_multiplier(other),
    }
}

/// Functional-rate bonus for fine-tuning on GitHub + textbooks instead of
/// GitHub alone (§VI ablation: "option (b) is marginally better (1.4%)").
pub fn corpus_factor(source: CorpusSource) -> f64 {
    match source {
        CorpusSource::GithubOnly => 1.0,
        CorpusSource::GithubAndBooks => 1.014,
    }
}

/// Verified candidate pools for one problem.
#[derive(Debug, Clone)]
pub struct MutantBank {
    /// Complete sources that pass the testbench.
    pub correct: Vec<String>,
    /// Complete sources that compile but fail the testbench.
    pub functional_fail: Vec<String>,
    /// Texts that fail to compile.
    pub syntax_fail: Vec<String>,
}

/// Builds (and verifies) the candidate bank for a problem.
///
/// Semantic mutants are kept only if they elaborate *and* fail the
/// testbench; corrupted texts only if they fail the parser. An empty-body
/// candidate (outputs left `x`) guarantees the functional pool is never
/// empty, and a torn-off header guarantees the syntax pool is never empty.
///
/// A pure function of its inputs, and never memoized itself: engines share
/// banks through a process-wide memo of its results, and callers that time
/// a build get a real one.
pub fn build_bank(problem: &Problem, seed: u64, per_pool: usize) -> MutantBank {
    let reference = problem.reference_source();
    let mut functional_fail = vec![problem.assemble("endmodule\n")];
    // Pulled lazily: mutants past the one that fills the pool are never
    // rendered.
    let mut mutants = SemanticMutants::new(&reference, seed, per_pool * 3);
    while functional_fail.len() < per_pool {
        let Some((mutant, _)) = mutants.next() else {
            break;
        };
        // One parse serves the compile check and the testbench run.
        let Ok(parsed) = vgen_verilog::parse_with_cancel(&mutant, &CancelToken::unlimited()) else {
            continue;
        };
        if vgen_sim::elab::elaborate_first(&parsed.file).is_err() {
            continue;
        }
        if !passes_testbench(&mutant, &parsed, problem) {
            functional_fail.push(mutant);
        }
    }
    // Every syntax mutant already failed the parser.
    let mut syntax_fail = vec![problem.assemble("always @( begin\n")];
    for (mutant, _) in syntax_mutants(&reference, seed ^ 0xBAD, per_pool) {
        if syntax_fail.len() >= per_pool {
            break;
        }
        syntax_fail.push(mutant);
    }
    MutantBank {
        correct: problem.all_solutions(),
        functional_fail,
        syntax_fail,
    }
}

/// Banks the process-wide memo holds: the 25-problem catalog at two seeds,
/// plus slack. Past it, the oldest bank is evicted.
const BANK_MEMO_CAPACITY: usize = 64;

/// Every input of [`build_bank`]: problem id, bank seed, pool size.
type BankKey = (u8, u64, usize);

/// One memo entry. Callers that race on a key share the slot, so they wait
/// for one build instead of each building the bank.
type BankSlot = Arc<OnceLock<Arc<MutantBank>>>;

/// The process-wide bank memo, oldest entry first.
static BANK_MEMO: Mutex<VecDeque<(BankKey, BankSlot)>> = Mutex::new(VecDeque::new());

/// The memo slot for `key`, a new empty one on a miss.
fn memo_slot(key: BankKey) -> BankSlot {
    // Each update (a push or an eviction) leaves the memo valid, so a
    // poisoned lock is safe to recover.
    let mut memo = BANK_MEMO.lock().unwrap_or_else(|e| e.into_inner());
    match memo.iter().find(|(k, _)| *k == key) {
        Some((_, slot)) => Arc::clone(slot),
        None => {
            if memo.len() >= BANK_MEMO_CAPACITY {
                memo.pop_front();
            }
            let slot = BankSlot::default();
            memo.push_back((key, Arc::clone(&slot)));
            slot
        }
    }
}

/// The bank [`build_bank`] returns for these inputs, built at most once per
/// process while it stays in the memo, and whether this call built it.
///
/// Keyed by `problem.id`: problems are entries of the static catalog, whose
/// ids are unique. A bank is a pure function of its key, so a shared bank
/// is byte-identical to a fresh one.
fn shared_bank(problem: &Problem, seed: u64, per_pool: usize) -> (Arc<MutantBank>, bool) {
    let slot = memo_slot((problem.id, seed, per_pool));
    let mut built = false;
    let bank = slot.get_or_init(|| {
        built = true;
        Arc::new(build_bank(problem, seed, per_pool))
    });
    (Arc::clone(bank), built)
}

/// Stack size of a bank-building helper thread: a check's, since a build
/// parses, elaborates and simulates mutants as a check does.
const BANK_STACK_BYTES: usize = 8 * 1024 * 1024;

/// The harness-level compile check: parse plus elaboration of the DUT.
pub fn compiles(source: &str) -> bool {
    let Ok(file) = vgen_verilog::parse(source) else {
        return false;
    };
    vgen_sim::elab::elaborate_first(&file).is_ok()
}

/// Whether `source`, parsed as `parsed`, passes the problem's testbench.
fn passes_testbench(source: &str, parsed: &Parsed, problem: &Problem) -> bool {
    let config = vgen_sim::SimConfig::default();
    vgen_problems::simulate_with_testbench(
        problem,
        source,
        parsed,
        config,
        &CancelToken::unlimited(),
    )
    .is_ok_and(|out| out.stdout.contains(vgen_problems::PASS_MARKER))
}

/// The calibrated engine for one (family, tuning) row.
#[derive(Debug)]
pub struct FamilyEngine {
    model: ModelId,
    corpus: CorpusSource,
    seed: u64,
    bank_size: usize,
    engineered_prompts: bool,
    banks: HashMap<u8, Arc<MutantBank>>,
}

impl FamilyEngine {
    /// Creates an engine for a model row, fine-tuned (when applicable) on
    /// the given corpus configuration.
    pub fn new(model: ModelId, corpus: CorpusSource, seed: u64) -> Self {
        FamilyEngine {
            model,
            corpus,
            seed,
            bank_size: 10,
            engineered_prompts: false,
            banks: HashMap::new(),
        }
    }

    /// Switches to the engineered prompts of
    /// [`vgen_problems::engineered_prompt`] for the §VI failure problems
    /// (see [`engineered_multiplier`]).
    pub fn with_engineered_prompts(mut self) -> Self {
        self.engineered_prompts = true;
        self
    }

    /// The model row this engine simulates.
    pub fn model(&self) -> ModelId {
        self.model
    }

    /// Probability that one completion compiles, for a scenario.
    pub fn p_compile(&self, difficulty: Difficulty, t: f64) -> f64 {
        (compile_anchor(self.model, difficulty) * temperature_factor(t, COMPILE_DECAY))
            .clamp(0.0, 1.0)
    }

    /// Probability that one completion passes the testbench.
    pub fn p_functional(&self, problem: &Problem, level: PromptLevel, t: f64, n: usize) -> f64 {
        let multiplier = if self.engineered_prompts {
            engineered_multiplier(problem.id)
        } else {
            problem_multiplier(problem.id)
        };
        let base = functional_anchor(self.model, problem.difficulty, level)
            * temperature_factor(t, FUNCTIONAL_DECAY)
            * multiplier
            * n_factor(n);
        let boosted = if self.model.tuning == Tuning::FineTuned {
            base * corpus_factor(self.corpus)
        } else {
            base
        };
        boosted
            .clamp(0.0, 1.0)
            .min(self.p_compile(problem.difficulty, t))
    }

    /// The problem's bank, from the process-wide memo on first use. The
    /// model is not a bank input, so every engine at one seed shares it.
    fn bank_for(&mut self, problem: &Problem) -> Arc<MutantBank> {
        if let Some(bank) = self.banks.get(&problem.id) {
            return Arc::clone(bank);
        }
        let (bank, built) = shared_bank(problem, self.bank_seed(problem), self.bank_size);
        self.keep(problem.id, Arc::clone(&bank), built);
        bank
    }

    /// The seed of a problem's bank.
    fn bank_seed(&self, problem: &Problem) -> u64 {
        self.seed ^ u64::from(problem.id)
    }

    /// Holds a bank fetched from the memo, counting whether it was built.
    fn keep(&mut self, id: u8, bank: Arc<MutantBank>, built: bool) {
        let counter = if built {
            "lm.bank_build"
        } else {
            "lm.bank_hit"
        };
        vgen_obs::counter_add(counter, 1);
        self.banks.insert(id, bank);
    }

    /// Fetches every bank of `problems` this engine does not hold yet, as
    /// [`bank_for`](Self::bank_for) would one by one. Banks already in the
    /// memo are taken on the calling thread. The missing ones are built on
    /// it and on up to `jobs - 1` helper threads, which take problems from
    /// one shared index. Returns how many banks this call built and how
    /// many helpers it spawned.
    fn prebuild(&mut self, problems: &[&'static Problem], jobs: usize) -> (usize, usize) {
        let mut missing: Vec<&'static Problem> = Vec::new();
        for &p in problems {
            if self.banks.contains_key(&p.id) || missing.iter().any(|m| m.id == p.id) {
                continue;
            }
            let hit = memo_slot((p.id, self.bank_seed(p), self.bank_size))
                .get()
                .cloned();
            match hit {
                Some(bank) => self.keep(p.id, bank, false),
                None => missing.push(p),
            }
        }
        let next = AtomicUsize::new(0);
        let take = || {
            let mut got = Vec::new();
            while let Some(&p) = missing.get(next.fetch_add(1, Ordering::Relaxed)) {
                let (bank, built) = shared_bank(p, self.bank_seed(p), self.bank_size);
                got.push((p.id, bank, built));
            }
            got
        };
        let wanted = jobs.min(missing.len()).saturating_sub(1);
        let (got, helpers) = std::thread::scope(|s| {
            // A helper the OS refuses to start leaves its share to the
            // others.
            let handles: Vec<_> = (0..wanted)
                .filter_map(|i| {
                    std::thread::Builder::new()
                        .name(format!("vgen-bank-{i}"))
                        .stack_size(BANK_STACK_BYTES)
                        .spawn_scoped(s, || {
                            let got = take();
                            // Drain this thread's counters and spans into
                            // the session here, not in its thread-local
                            // destructor, so the caller's metrics hold them.
                            vgen_obs::flush();
                            got
                        })
                        .ok()
                })
                .collect();
            let helpers = handles.len();
            let mut got = take();
            for handle in handles {
                got.extend(
                    handle
                        .join()
                        .unwrap_or_else(|e| std::panic::resume_unwind(e)),
                );
            }
            (got, helpers)
        });
        let mut built = 0;
        for (id, bank, fresh) in got {
            built += usize::from(fresh);
            self.keep(id, bank, fresh);
        }
        (built, helpers)
    }

    fn request_rng(&self, problem: &Problem, level: PromptLevel, t: f64, n: usize) -> StdRng {
        let mut h = DefaultHasher::new();
        self.seed.hash(&mut h);
        self.model.hash(&mut h);
        problem.id.hash(&mut h);
        level.hash(&mut h);
        t.to_bits().hash(&mut h);
        n.hash(&mut h);
        StdRng::seed_from_u64(h.finish())
    }
}

impl CompletionEngine for FamilyEngine {
    fn name(&self) -> String {
        format!("{}", self.model)
    }

    /// Fetches the banks of `problems` up front when `jobs > 1`, building
    /// the missing ones on up to `jobs` threads (the calling thread
    /// included); at `jobs <= 1` banks stay lazy. A bank is a pure function
    /// of (problem, seed, pool size) and each query seeds its own RNG, so
    /// every completion is the same either way. The wait is timed under
    /// the calling thread's `generate` span.
    fn prepare(&mut self, problems: &[&'static Problem], jobs: usize) {
        if jobs > 1 {
            let _span = vgen_obs::span("generate");
            self.prebuild(problems, jobs);
        }
    }

    fn generate(
        &mut self,
        problem: &Problem,
        level: PromptLevel,
        temperature: f64,
        n: usize,
    ) -> Vec<Completion> {
        let _span = vgen_obs::span("generate");
        let p_compile = self.p_compile(problem.difficulty, temperature);
        let p_functional = self.p_functional(problem, level, temperature, n);
        let model = self.model;
        let mut rng = self.request_rng(problem, level, temperature, n);
        let bank = self.bank_for(problem);
        (0..n)
            .map(|_| {
                let text = if !rng.gen_bool(p_compile) {
                    pick(&bank.syntax_fail, &mut rng)
                } else if rng.gen_bool((p_functional / p_compile.max(1e-9)).clamp(0.0, 1.0)) {
                    let mut t = pick(&bank.correct, &mut rng);
                    // LLMs over-generate past the module ~20% of the time;
                    // the harness truncation must cut this.
                    if rng.gen_bool(0.2) {
                        t.push_str(
                            "\n// continued output\nmodule scratch(input t_unused);\nendmodule\n",
                        );
                    }
                    t
                } else {
                    pick(&bank.functional_fail, &mut rng)
                };
                Completion {
                    text,
                    latency_s: sample_seconds(model, &mut rng),
                }
            })
            .collect()
    }
}

fn pick(pool: &[String], rng: &mut StdRng) -> String {
    pool[rng.gen_range(0..pool.len())].clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgen_problems::problems;

    fn cg16_ft() -> ModelId {
        ModelId::new(ModelFamily::CodeGen16B, Tuning::FineTuned)
    }

    #[test]
    fn anchors_match_paper_tables() {
        // Spot checks straight out of Tables III and IV.
        assert_eq!(compile_anchor(cg16_ft(), Difficulty::Intermediate), 0.728);
        assert_eq!(
            functional_anchor(cg16_ft(), Difficulty::Basic, PromptLevel::Medium),
            0.720
        );
        let davinci = ModelId::new(ModelFamily::CodeDavinci002, Tuning::Pretrained);
        assert_eq!(
            functional_anchor(davinci, Difficulty::Advanced, PromptLevel::High),
            0.344
        );
        let meg_pt = ModelId::new(ModelFamily::Megatron355M, Tuning::Pretrained);
        assert_eq!(compile_anchor(meg_pt, Difficulty::Basic), 0.0);
    }

    #[test]
    fn temperature_factor_decays() {
        assert!((temperature_factor(0.1, FUNCTIONAL_DECAY) - 1.0).abs() < 1e-12);
        let t3 = temperature_factor(0.3, FUNCTIONAL_DECAY);
        let t10 = temperature_factor(1.0, FUNCTIONAL_DECAY);
        assert!(t3 < 1.0 && t10 < t3);
        assert!(t10 < 0.25, "t=1.0 should be strongly degraded: {t10}");
    }

    #[test]
    fn intermediate_multipliers_average_to_one() {
        let ids = [5u8, 6, 7, 8, 9, 10, 11, 12];
        let mean: f64 = ids.iter().map(|&i| problem_multiplier(i)).sum::<f64>() / ids.len() as f64;
        assert!((mean - 1.0).abs() < 0.01, "tier mean {mean}");
    }

    #[test]
    fn bank_pools_verified() {
        let p = &problems()[5]; // counter
        let bank = build_bank(p, 11, 6);
        assert!(!bank.correct.is_empty());
        assert!(!bank.functional_fail.is_empty());
        assert!(!bank.syntax_fail.is_empty());
        let passes = |src: &str| {
            let parsed = vgen_verilog::parse_with_cancel(src, &CancelToken::unlimited());
            passes_testbench(src, &parsed.expect("compiles"), p)
        };
        for c in &bank.correct {
            assert!(compiles(c));
            assert!(passes(c));
        }
        for f in &bank.functional_fail {
            assert!(compiles(f), "functional-fail mutant must compile:\n{f}");
            assert!(!passes(f));
        }
        for s in &bank.syntax_fail {
            assert!(!compiles(s));
        }
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// FNV-1a over every text of every pool, NUL after each text and 0xFF
    /// after each pool.
    fn bank_digest(bank: &MutantBank) -> u64 {
        let mut bytes = Vec::new();
        for pool in [&bank.correct, &bank.functional_fail, &bank.syntax_fail] {
            for text in pool {
                bytes.extend_from_slice(text.as_bytes());
                bytes.push(0);
            }
            bytes.push(0xFF);
        }
        fnv1a(&bytes)
    }

    /// `bank_digest(&build_bank(p, seed ^ id, 10))` for problems 1–25 at
    /// seeds 42 and 7, as the engine seeds its banks. Any drift in the
    /// mutation or verification streams changes a digest, and with it the
    /// paper tables.
    const BANK_DIGESTS: [(u64, [u64; 25]); 2] = [
        (
            42,
            [
                0xc506c68f592ce400,
                0xa0f6e795d06f3810,
                0xd79d468c234671c3,
                0xaec4de602cb24adc,
                0xeab8e0284d129c74,
                0xfa975a3fe7247de1,
                0x10c69f07bc0ba891,
                0x17aa48a4bf1936ee,
                0xec0dcd88fc056bdd,
                0xa21f97e2a54e0425,
                0xad7318327a9d6d59,
                0xe1f71d8d77dcba95,
                0x047fd83ae4652080,
                0x2139fa277ddc60e0,
                0x4f73c6bb704fb794,
                0xd5a5f4422996de6e,
                0x7f64b95e7c3e6edc,
                0x5db07e10c2566fae,
                0x9a0b4049ec8d3475,
                0x7ca184b106e92b6d,
                0xd8e9a0f96cbcf3a8,
                0x4e267e26b47c49a5,
                0x4ac87e187012e7a3,
                0x4da6e4f75f6c895b,
                0x19827f1df3cfb862,
            ],
        ),
        (
            7,
            [
                0x96fa2b84112fde85,
                0x3dfbbffff7702d45,
                0x074309987fa1e56b,
                0xa79dd04e6bbb179b,
                0xc0675c3777eb18ed,
                0x9b9f3ec412e02886,
                0xe3737071a9349ff2,
                0xa2ad28dcf3dd311c,
                0xf7444d4b2db37f58,
                0xef8b06ed45b6348f,
                0xfe713dc8786bd478,
                0x7c81a9caa6d04b97,
                0x041e623571a4479e,
                0x12dcca951fdbb3b2,
                0x1a618c2d54aa23aa,
                0xebb37c0e8257bac3,
                0x07efebedac0ff07f,
                0xe2bc72d0a794251c,
                0x32f1f71f3eef70c6,
                0x1e7e62176ff66617,
                0x3ddaca5f71e60ec7,
                0x1d66ad5519303fdb,
                0x5e2b850e769c7f06,
                0x7e44d26cbac2f700,
                0x6d196b929fee21b4,
            ],
        ),
    ];

    #[test]
    fn bank_contents_are_pinned() {
        for (seed, digests) in BANK_DIGESTS {
            for (id, want) in (1..=25u8).zip(digests) {
                let p = vgen_problems::problem(id).expect("catalog id");
                let got = bank_digest(&build_bank(p, seed ^ u64::from(id), 10));
                assert_eq!(
                    got, want,
                    "bank of problem {id} at seed {seed}: {got:#018x}"
                );
            }
        }
    }

    /// Serializes the memo tests that need their entries to survive: the
    /// capacity test evicts everything.
    static MEMO_TEST_LOCK: Mutex<()> = Mutex::new(());

    fn memo_test_lock() -> std::sync::MutexGuard<'static, ()> {
        MEMO_TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn memo_bank_equals_a_fresh_build() {
        let _lock = memo_test_lock();
        let p = &problems()[5];
        let (shared, _) = shared_bank(p, 0x3E30_0001, 10);
        assert_eq!(
            bank_digest(&shared),
            bank_digest(&build_bank(p, 0x3E30_0001, 10))
        );
    }

    #[test]
    fn engines_of_different_models_share_banks() {
        let _lock = memo_test_lock();
        let p = &problems()[2];
        let meg_pt = ModelId::new(ModelFamily::Megatron355M, Tuning::Pretrained);
        let mut a = FamilyEngine::new(cg16_ft(), CorpusSource::GithubOnly, 0x3E30_0002);
        let mut b = FamilyEngine::new(meg_pt, CorpusSource::GithubAndBooks, 0x3E30_0002);
        assert!(Arc::ptr_eq(&a.bank_for(p), &b.bank_for(p)));
        // A different seed is a different bank.
        let mut c = FamilyEngine::new(cg16_ft(), CorpusSource::GithubOnly, 0x3E30_0003);
        assert!(!Arc::ptr_eq(&a.bank_for(p), &c.bank_for(p)));
    }

    #[test]
    fn racing_threads_build_a_bank_once() {
        let _lock = memo_test_lock();
        let p = &problems()[5];
        let barrier = std::sync::Barrier::new(4);
        let results: Vec<(Arc<MutantBank>, bool)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        shared_bank(p, 0x3E30_0004, 10)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(results.iter().filter(|(_, built)| *built).count(), 1);
        assert!(results.iter().all(|(b, _)| Arc::ptr_eq(b, &results[0].0)));
    }

    #[test]
    fn memo_stays_within_capacity() {
        let _lock = memo_test_lock();
        let p = &problems()[1];
        // One-candidate pools keep each build cheap.
        for i in 0..BANK_MEMO_CAPACITY as u64 + 8 {
            shared_bank(p, 0x3E30_1000 + i, 1);
            assert!(BANK_MEMO.lock().unwrap().len() <= BANK_MEMO_CAPACITY);
        }
        // The oldest entries went first: the newest is still a hit.
        let newest = 0x3E30_1000 + BANK_MEMO_CAPACITY as u64 + 7;
        assert!(!shared_bank(p, newest, 1).1);
    }

    #[test]
    fn prepare_builds_each_bank_once_on_helpers_and_changes_no_completion() {
        let _lock = memo_test_lock();
        // No other test seeds banks from this.
        const SEED: u64 = 0x3E35_0000;
        let paper: Vec<&'static Problem> = problems()[..17].iter().collect();
        let mut prepared = FamilyEngine::new(cg16_ft(), CorpusSource::GithubOnly, SEED);
        // Each of the 17 banks built by this call, on it and 3 helpers.
        assert_eq!(prepared.prebuild(&paper, 4), (17, 3));
        for p in &paper {
            let fresh = build_bank(p, SEED ^ u64::from(p.id), 10);
            assert_eq!(
                bank_digest(&prepared.banks[&p.id]),
                bank_digest(&fresh),
                "bank of problem {}",
                p.id
            );
        }
        // With every bank in the memo, a second engine spawns no helper.
        let meg_ft = ModelId::new(ModelFamily::Megatron355M, Tuning::FineTuned);
        let mut again = FamilyEngine::new(meg_ft, CorpusSource::GithubOnly, SEED);
        assert_eq!(again.prebuild(&paper, 4), (0, 0));
        assert!(paper
            .iter()
            .all(|p| Arc::ptr_eq(&again.banks[&p.id], &prepared.banks[&p.id])));
        // The whole grid, against an engine that fetches its banks lazily.
        let mut lazy = FamilyEngine::new(cg16_ft(), CorpusSource::GithubOnly, SEED);
        for p in &paper {
            for level in PromptLevel::ALL {
                for t in [0.1, 0.3, 0.5, 0.7, 1.0] {
                    for n in [1, 10, 25] {
                        assert_eq!(
                            prepared.generate(p, level, t, n),
                            lazy.generate(p, level, t, n),
                            "problem {} {level:?} t={t} n={n}",
                            p.id
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn generated_mix_tracks_probabilities() {
        let p = &problems()[1]; // AND gate (basic)
        let mut engine = FamilyEngine::new(cg16_ft(), CorpusSource::GithubOnly, 5);
        let completions = engine.generate(p, PromptLevel::Medium, 0.1, 400);
        let compiled = completions
            .iter()
            .filter(|c| {
                let src = vgen_verilog::truncate::truncate_completion(&c.text);
                compiles(src)
            })
            .count();
        let rate = compiled as f64 / 400.0;
        let expect = engine.p_compile(Difficulty::Basic, 0.1);
        assert!(
            (rate - expect).abs() < 0.08,
            "compile rate {rate} should track anchor {expect}"
        );
    }

    #[test]
    fn crippled_problems_never_pass() {
        let p7 = &problems()[6];
        let engine = FamilyEngine::new(cg16_ft(), CorpusSource::GithubOnly, 6);
        assert_eq!(engine.p_functional(p7, PromptLevel::High, 0.1, 10), 0.0);
    }

    #[test]
    fn functional_never_exceeds_compile() {
        for model in ModelId::all_evaluated() {
            let engine = FamilyEngine::new(model, CorpusSource::GithubOnly, 1);
            for p in problems() {
                for level in PromptLevel::ALL {
                    for &t in &[0.1, 0.5, 1.0] {
                        assert!(
                            engine.p_functional(p, level, t, 10)
                                <= engine.p_compile(p.difficulty, t) + 1e-12
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn books_ablation_helps_fine_tuned_only() {
        let p = &problems()[0];
        let ft_git = FamilyEngine::new(cg16_ft(), CorpusSource::GithubOnly, 2);
        let ft_both = FamilyEngine::new(cg16_ft(), CorpusSource::GithubAndBooks, 2);
        assert!(
            ft_both.p_functional(p, PromptLevel::Low, 0.1, 10)
                > ft_git.p_functional(p, PromptLevel::Low, 0.1, 10)
        );
        let pt = ModelId::new(ModelFamily::CodeGen16B, Tuning::Pretrained);
        let pt_git = FamilyEngine::new(pt, CorpusSource::GithubOnly, 2);
        let pt_both = FamilyEngine::new(pt, CorpusSource::GithubAndBooks, 2);
        assert_eq!(
            pt_both.p_functional(p, PromptLevel::Low, 0.1, 10),
            pt_git.p_functional(p, PromptLevel::Low, 0.1, 10)
        );
    }

    #[test]
    fn engineered_prompts_recover_prompt_fixable_problems() {
        let p7 = &problems()[6]; // LFSR: prompt-fixable per §VI.
        let p12 = &problems()[11]; // Truth table: corpus problem, not fixable.
        let plain = FamilyEngine::new(cg16_ft(), CorpusSource::GithubOnly, 4);
        let eng =
            FamilyEngine::new(cg16_ft(), CorpusSource::GithubOnly, 4).with_engineered_prompts();
        assert_eq!(plain.p_functional(p7, PromptLevel::High, 0.1, 10), 0.0);
        assert!(eng.p_functional(p7, PromptLevel::High, 0.1, 10) > 0.1);
        assert_eq!(eng.p_functional(p12, PromptLevel::High, 0.1, 10), 0.0);
        // Other problems are unaffected.
        let p6 = &problems()[5];
        assert_eq!(
            plain.p_functional(p6, PromptLevel::Low, 0.1, 10),
            eng.p_functional(p6, PromptLevel::Low, 0.1, 10)
        );
    }

    #[test]
    fn deterministic_generation() {
        let p = &problems()[3];
        let mut a = FamilyEngine::new(cg16_ft(), CorpusSource::GithubOnly, 9);
        let mut b = FamilyEngine::new(cg16_ft(), CorpusSource::GithubOnly, 9);
        let ca: Vec<String> = a
            .generate(p, PromptLevel::Low, 0.3, 10)
            .into_iter()
            .map(|c| c.text)
            .collect();
        let cb: Vec<String> = b
            .generate(p, PromptLevel::Low, 0.3, 10)
            .into_iter()
            .map(|c| c.text)
            .collect();
        assert_eq!(ca, cb);
    }
}
