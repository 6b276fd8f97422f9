//! Cross-crate integration: the full paper pipeline from engine to metric.

use vgen::core::check::{check_completion, CheckOutcome};
use vgen::core::experiments::evaluate_model;
use vgen::core::sweep::EvalConfig;
use vgen::corpus::CorpusSource;
use vgen::lm::{ModelFamily, ModelId, Tuning};
use vgen::problems::{problems, PromptLevel};
use vgen::sim::SimConfig;

fn cfg(problem_ids: Vec<u8>, temperatures: Vec<f64>, n: usize) -> EvalConfig {
    EvalConfig {
        temperatures,
        ns: vec![n],
        levels: PromptLevel::ALL.to_vec(),
        problem_ids,
        sim: SimConfig::default(),
    }
}

#[test]
fn every_reference_solution_passes_through_the_full_checker() {
    for p in problems() {
        for level in PromptLevel::ALL {
            let r = check_completion(p, level, p.reference_body, SimConfig::default());
            assert_eq!(
                r.outcome,
                CheckOutcome::Pass,
                "problem {} level {level} reference failed",
                p.id
            );
        }
    }
}

#[test]
fn every_alternate_solution_passes_too() {
    for p in problems() {
        for (i, body) in p.alternate_bodies.iter().enumerate() {
            let r = check_completion(p, PromptLevel::Low, body, SimConfig::default());
            assert_eq!(
                r.outcome,
                CheckOutcome::Pass,
                "problem {} alternate {i} failed",
                p.id
            );
        }
    }
}

#[test]
fn fine_tuning_improves_both_metrics() {
    let c = cfg(vec![1, 2, 3, 4, 6], vec![0.1], 10);
    let pt = evaluate_model(
        ModelId::new(ModelFamily::CodeGen16B, Tuning::Pretrained),
        &c,
        CorpusSource::GithubOnly,
        7,
    );
    let ft = evaluate_model(
        ModelId::new(ModelFamily::CodeGen16B, Tuning::FineTuned),
        &c,
        CorpusSource::GithubOnly,
        7,
    );
    let pt_all = pt.run.tally(|_| true);
    let ft_all = ft.run.tally(|_| true);
    assert!(ft_all.compile_rate() > pt_all.compile_rate());
    assert!(ft_all.functional_rate() > pt_all.functional_rate());
}

#[test]
fn larger_models_do_better_rq3() {
    let c = cfg(vec![1, 2, 3, 4], vec![0.1], 15);
    let small = evaluate_model(
        ModelId::new(ModelFamily::Megatron355M, Tuning::FineTuned),
        &c,
        CorpusSource::GithubOnly,
        3,
    );
    let large = evaluate_model(
        ModelId::new(ModelFamily::CodeGen16B, Tuning::FineTuned),
        &c,
        CorpusSource::GithubOnly,
        3,
    );
    assert!(
        large.run.tally(|_| true).functional_rate() > small.run.tally(|_| true).functional_rate(),
        "16B should beat 355M on basic problems"
    );
}

#[test]
fn cold_temperature_wins_rq_fig6() {
    let c = cfg((1..=8).collect(), vec![0.1, 1.0], 10);
    let row = evaluate_model(
        ModelId::new(ModelFamily::CodeGen6B, Tuning::FineTuned),
        &c,
        CorpusSource::GithubOnly,
        5,
    );
    let cold = row
        .run
        .tally(|r| (r.temperature - 0.1).abs() < 1e-9)
        .functional_rate();
    let hot = row
        .run
        .tally(|r| (r.temperature - 1.0).abs() < 1e-9)
        .functional_rate();
    assert!(cold > hot, "t=0.1 ({cold}) must beat t=1.0 ({hot})");
}

#[test]
fn difficulty_ordering_rq4() {
    use vgen::problems::Difficulty;
    let c = cfg((1..=17).collect(), vec![0.1], 10);
    let row = evaluate_model(
        ModelId::new(ModelFamily::CodeGen16B, Tuning::FineTuned),
        &c,
        CorpusSource::GithubOnly,
        11,
    );
    let basic = row
        .run
        .tally(|r| r.difficulty == Difficulty::Basic)
        .functional_rate();
    let advanced = row
        .run
        .tally(|r| r.difficulty == Difficulty::Advanced)
        .functional_rate();
    assert!(
        basic > advanced,
        "basic ({basic}) must beat advanced ({advanced})"
    );
}

#[test]
fn crippled_problems_shape_sec6() {
    let c = cfg(vec![6, 7, 12], vec![0.1], 20);
    let row = evaluate_model(
        ModelId::new(ModelFamily::CodeGen16B, Tuning::FineTuned),
        &c,
        CorpusSource::GithubOnly,
        13,
    );
    let rate_of = |pid: u8| {
        let t = row.run.tally(|r| r.problem_id == pid && r.n == 20);
        assert!(t.total > 0, "problem {pid} present");
        t.functional_rate()
    };
    assert_eq!(rate_of(7), 0.0, "LFSR never passes (§VI)");
    assert_eq!(rate_of(12), 0.0, "truth table never passes (§VI)");
    assert!(rate_of(6) > 0.0, "counter passes sometimes");
}

#[test]
fn compile_rate_bounds_functional_rate() {
    let c = cfg((1..=17).collect(), vec![0.1, 0.7], 8);
    for family in [ModelFamily::CodeGen2B, ModelFamily::CodeDavinci002] {
        let row = evaluate_model(
            ModelId::new(family, Tuning::Pretrained),
            &c,
            CorpusSource::GithubOnly,
            17,
        );
        let t = row.run.tally(|_| true);
        assert!(t.passed <= t.compiled, "{family}: passed > compiled?!");
    }
}
