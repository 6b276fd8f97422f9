//! Equivalence coverage for the completion-dedup check cache.
//!
//! The cache short-circuits checking when two completions for the same
//! problem assemble to the same source: an exact duplicate text at one
//! prompt level (common at low sampling temperatures), a whole-module
//! completion repeated at another level, or a copy that differs only in
//! what follows its `endmodule`. Its contract is strict: reports and
//! journals must be **byte-identical** with the cache on or off, at any
//! worker count, under chaos, and across kill/resume — the cache may only
//! change how fast answers arrive, never what they are.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use vgen::core::check::assemble;
use vgen::core::{
    render_eval_summary, run_engine_sweep, ChaosSpec, CheckPolicy, EvalConfig, EvalRun, Record,
    SweepHooks, SweepOptions, SweepStats,
};
use vgen::lm::engine::{Completion, CompletionEngine};
use vgen::obs::CancelToken;
use vgen::problems::{problem, Problem, PromptLevel};
use vgen::sim::SimConfig;

/// An engine that cycles through a tiny fixed palette of completions, so
/// every (problem, level) cell sees plenty of exact-duplicate texts. The
/// palette mixes a passing AND-gate body, a compile error, and noise, so
/// cached outcomes span pass/fail/no-compile.
struct CyclingEngine {
    palette: Vec<String>,
    cursor: usize,
}

impl CyclingEngine {
    fn new() -> Self {
        CyclingEngine {
            palette: vec![
                "assign y = a & b;\nendmodule\n".to_string(),
                "assign y = a | ;\nendmodule\n".to_string(),
                "always @(*) begin\nend\nendmodule\n".to_string(),
            ],
            cursor: 0,
        }
    }
}

impl CompletionEngine for CyclingEngine {
    fn name(&self) -> String {
        "dedup-cycling".into()
    }

    fn generate(
        &mut self,
        _problem: &Problem,
        _level: PromptLevel,
        _temperature: f64,
        n: usize,
    ) -> Vec<Completion> {
        (0..n)
            .map(|_| {
                let text = self.palette[self.cursor % self.palette.len()].clone();
                self.cursor += 1;
                Completion {
                    text,
                    latency_s: 0.002,
                }
            })
            .collect()
    }
}

/// 2 problems × 2 levels × 9 completions = 36 checks over a 3-text palette:
/// each (problem, level) cell holds 9 completions with only 3 distinct
/// texts, so at least 24 of the 36 checks are cache hits.
fn cfg() -> EvalConfig {
    EvalConfig {
        temperatures: vec![0.5],
        ns: vec![9],
        levels: vec![PromptLevel::Low, PromptLevel::Medium],
        problem_ids: vec![1, 2],
        sim: SimConfig::default(),
    }
}

fn journal_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("vgen-dedup-cache");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(format!("{tag}-{}.log", std::process::id()))
}

/// Runs the sweep with a fresh engine, journaling to `tag`, and returns the
/// run, its stats, and the raw journal bytes.
fn sweep(tag: &str, opts: &SweepOptions) -> (EvalRun, SweepStats, Vec<u8>) {
    sweep_engine(&mut CyclingEngine::new(), &cfg(), tag, opts)
}

/// [`sweep`] over any engine and grid.
fn sweep_engine(
    engine: &mut dyn CompletionEngine,
    config: &EvalConfig,
    tag: &str,
    opts: &SweepOptions,
) -> (EvalRun, SweepStats, Vec<u8>) {
    let path = journal_path(tag);
    let _ = std::fs::remove_file(&path);
    let (run, stats) = run_engine_sweep(
        engine,
        config,
        Some((&path, false)),
        opts,
        &SweepHooks::default(),
    )
    .expect("sweep");
    let journal = std::fs::read(&path).expect("journal bytes");
    let _ = std::fs::remove_file(&path);
    (run, stats, journal)
}

#[test]
fn serial_cache_output_is_byte_identical_to_uncached() {
    let on = SweepOptions::default();
    let off = SweepOptions {
        dedup: false,
        ..SweepOptions::default()
    };
    let (run_on, stats_on, journal_on) = sweep("serial-on", &on);
    let (run_off, stats_off, journal_off) = sweep("serial-off", &off);

    assert_eq!(run_on, run_off, "cached run diverged from uncached run");
    assert_eq!(journal_on, journal_off, "journals differ with cache on/off");
    assert_eq!(
        render_eval_summary(&run_on, "j"),
        render_eval_summary(&run_off, "j"),
        "rendered reports differ with cache on/off"
    );

    let total = run_on.records.len();
    assert_eq!(total, 36, "grid must flatten to 36 items");
    assert!(
        stats_on.cache_hits >= 24,
        "3-text palette over 9-deep cells must hit at least 24 times, got {}",
        stats_on.cache_hits
    );
    assert_eq!(stats_on.checks_run + stats_on.cache_hits, total);
    assert!(stats_on.hit_rate() > 0.5);
    assert_eq!(stats_off.cache_hits, 0, "dedup=false must never hit");
    assert_eq!(stats_off.checks_run, total);
}

#[test]
fn parallel_cache_output_is_byte_identical_across_jobs_and_cache_settings() {
    let (baseline, _, baseline_journal) = sweep("par-baseline", &SweepOptions::default());
    for jobs in [1usize, 4] {
        for dedup in [true, false] {
            let opts = SweepOptions {
                dedup,
                jobs,
                ..SweepOptions::default()
            };
            let (run, stats, journal) = sweep(&format!("par-{jobs}-{dedup}"), &opts);
            assert_eq!(run, baseline, "run diverged at jobs={jobs} dedup={dedup}");
            assert_eq!(
                journal, baseline_journal,
                "journal bytes diverged at jobs={jobs} dedup={dedup}"
            );
            assert_eq!(stats.checks_run + stats.cache_hits, run.records.len());
            if dedup {
                assert!(
                    stats.cache_hits >= 24,
                    "expected heavy hit rate at jobs={jobs}, got {}",
                    stats.cache_hits
                );
            } else {
                assert_eq!(stats.cache_hits, 0);
            }
        }
    }
}

#[test]
fn cached_parallel_run_resumes_cleanly() {
    // Kill/resume with the cache on, resuming at a different worker count:
    // the rebuilt run must match an uncached serial run byte for byte.
    let (full, _, full_journal) = sweep("resume-full", &SweepOptions::default());
    let path = journal_path("resume-torn");
    std::fs::write(&path, &full_journal).expect("seed journal");
    let text = String::from_utf8(full_journal).expect("utf8 journal");
    let kept: Vec<&str> = text.lines().take(9).collect();
    std::fs::write(&path, kept.join("\n")).expect("truncate");
    let opts = SweepOptions {
        jobs: 4,
        ..SweepOptions::default()
    };
    let (resumed, _) = run_engine_sweep(
        &mut CyclingEngine::new(),
        &cfg(),
        Some((&path, true)),
        &opts,
        &SweepHooks::default(),
    )
    .expect("resumed cached run");
    assert_eq!(
        resumed, full,
        "resume with cache on lost or altered records"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn cancel_with_followers_pending_leaves_a_prefix_that_resumes() {
    // Each (problem, level) cell of nine items holds three leaders, then
    // their six followers. Cancelling once the first record is out, with
    // one worker, stops the cursor at the second leader: the first
    // leader's followers are still pending.
    let (full, _, full_journal) = sweep("cancel-reference", &SweepOptions::default());
    for jobs in [1, 3] {
        let path = journal_path(&format!("cancel-j{jobs}"));
        let _ = std::fs::remove_file(&path);
        let token = CancelToken::unlimited();
        let trip = token.clone();
        let hooks = SweepHooks {
            observer: Some(Arc::new(move |_: &Record, _, _| trip.cancel())),
            cancel: Some(token),
            ..SweepHooks::default()
        };
        let opts = SweepOptions {
            jobs,
            ..SweepOptions::default()
        };
        let err = run_engine_sweep(
            &mut CyclingEngine::new(),
            &cfg(),
            Some((&path, false)),
            &opts,
            &hooks,
        )
        .expect_err("cancelled sweep");
        assert_eq!(err.kind(), std::io::ErrorKind::Interrupted);
        let cut = std::fs::read(&path).expect("cancelled journal");
        assert!(full_journal.starts_with(&cut), "jobs {jobs}: not a prefix");
        let kept = cut.iter().filter(|&&b| b == b'\n').count() - 1;
        assert!(
            kept >= 1 && kept < full.records.len(),
            "jobs {jobs}: kept {kept}"
        );
        if jobs == 1 {
            assert_eq!(kept, 1, "the cursor stops at the next leader");
        }
        let (resumed, stats) = run_engine_sweep(
            &mut CyclingEngine::new(),
            &cfg(),
            Some((&path, true)),
            &opts,
            &SweepHooks::default(),
        )
        .expect("resume");
        assert_eq!(stats.resumed_records, kept);
        assert_eq!(resumed, full);
        assert_eq!(std::fs::read(&path).expect("resumed journal"), full_journal);
        let _ = std::fs::remove_file(&path);
    }
}

/// A whole `and_gate` module, which assembles to itself at every prompt
/// level.
const AND_MODULE: &str =
    "module and_gate(input a, input b, output y);\nassign y = a & b;\nendmodule";

/// An engine whose completions mostly carry their own `module` header:
/// the same whole modules at every prompt level, and copies that differ
/// only after their `endmodule` (the "continued output" a model emits),
/// plus one body-only completion whose source does depend on the level.
/// The palette's length divides every cell's n, so each cell sees each
/// text once per pass.
struct WholeModuleEngine {
    palette: Vec<String>,
    cursor: usize,
}

impl WholeModuleEngine {
    fn new() -> Self {
        let broken = AND_MODULE.replace("a & b", "a | ");
        WholeModuleEngine {
            palette: vec![
                format!("{AND_MODULE}\n"),
                format!("{AND_MODULE}\nmodule junk(input q);\nendmodule\n"),
                format!("// and gate\n{AND_MODULE}\n\nThat completes the module."),
                format!("{broken}\n"),
                format!("{broken}\nendmodule\nendmodule\n"),
                "assign y = a & b;\nendmodule\nmodule extra;\n".to_string(),
            ],
            cursor: 0,
        }
    }
}

impl CompletionEngine for WholeModuleEngine {
    fn name(&self) -> String {
        "dedup-whole-module".into()
    }

    fn generate(
        &mut self,
        _problem: &Problem,
        _level: PromptLevel,
        _temperature: f64,
        n: usize,
    ) -> Vec<Completion> {
        (0..n)
            .map(|_| {
                let text = self.palette[self.cursor % self.palette.len()].clone();
                self.cursor += 1;
                Completion {
                    text,
                    latency_s: 0.003,
                }
            })
            .collect()
    }
}

/// 2 problems × 3 levels × 2 temperatures × 6 completions = 72 items.
fn whole_module_cfg() -> EvalConfig {
    EvalConfig {
        temperatures: vec![0.1, 0.5],
        ns: vec![6],
        levels: PromptLevel::ALL.to_vec(),
        problem_ids: vec![1, 2],
        sim: SimConfig::default(),
    }
}

/// The distinct (problem, level, text) and (problem, assembled source)
/// pairs of [`WholeModuleEngine`]'s completions over `config`, computed
/// without the sweep.
fn distinct_keys(config: &EvalConfig) -> (usize, usize) {
    let mut engine = WholeModuleEngine::new();
    let (mut texts, mut sources) = (HashSet::new(), HashSet::new());
    for &id in &config.problem_ids {
        let p = problem(id).expect("problem");
        for &level in &config.levels {
            for &t in &config.temperatures {
                for &n in &config.ns {
                    for c in engine.generate(p, level, t, n) {
                        sources.insert((id, assemble(p, level, &c.text)));
                        texts.insert((id, level, c.text));
                    }
                }
            }
        }
    }
    (texts.len(), sources.len())
}

#[test]
fn whole_module_completions_are_checked_once_per_distinct_source() {
    let config = whole_module_cfg();
    let (texts, sources) = distinct_keys(&config);
    // Whole modules assemble alike across levels and trailing junk, so
    // per problem the 18 distinct (level, text) pairs come down to six
    // sources: the module with and without its leading comment, the
    // broken module, and the body-only completion at each level.
    assert_eq!(texts, 36);
    assert_eq!(sources, 12);
    let clean = CheckPolicy {
        backoff: Duration::ZERO,
        ..CheckPolicy::default()
    };
    // Injected panics and healing timeouts, keyed by assembled source; no
    // `task.panic`, which fires per leader by design.
    let chaos = CheckPolicy {
        chaos: ChaosSpec::parse("check.panic%3;check.timeout:1%4", 11).expect("spec"),
        retries: 1,
        ..clean.clone()
    };
    for (tag, policy) in [("clean", clean), ("chaos", chaos)] {
        let off = SweepOptions {
            dedup: false,
            policy: policy.clone(),
            ..SweepOptions::default()
        };
        let (baseline, stats_off, baseline_journal) = sweep_engine(
            &mut WholeModuleEngine::new(),
            &config,
            &format!("wm-{tag}-off"),
            &off,
        );
        assert_eq!(baseline.records.len(), 72);
        assert_eq!(stats_off.checks_run, 72);
        if tag == "chaos" {
            assert!(
                baseline.fault_count() > 0,
                "the chaos mix injected no faults — adjust its seed"
            );
        }
        for jobs in [1usize, 4] {
            let on = SweepOptions {
                policy: policy.clone(),
                jobs,
                ..SweepOptions::default()
            };
            let (run, stats, journal) = sweep_engine(
                &mut WholeModuleEngine::new(),
                &config,
                &format!("wm-{tag}-{jobs}"),
                &on,
            );
            assert_eq!(
                stats.checks_run, sources,
                "one check per distinct (problem, source) ({tag}, jobs={jobs})"
            );
            assert_eq!(stats.cache_hits, 72 - sources);
            assert_eq!(run, baseline, "{tag} run diverged at jobs={jobs}");
            assert_eq!(
                journal, baseline_journal,
                "{tag} journal bytes diverged at jobs={jobs}"
            );
            assert_eq!(
                render_eval_summary(&run, "j"),
                render_eval_summary(&baseline, "j"),
                "{tag} report diverged at jobs={jobs}"
            );
        }
    }
}
