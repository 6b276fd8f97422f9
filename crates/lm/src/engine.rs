//! The completion-engine abstraction and the real (trainable) n-gram
//! engine.
//!
//! Two engines implement [`CompletionEngine`]:
//!
//! * [`NgramEngine`] — the genuine train→sample pipeline: BPE tokenizer +
//!   n-gram LM fitted on a corpus, autoregressive sampling with
//!   temperature/top-p. Small-scale but *real*; used to exercise the full
//!   prompt→completion→truncate→compile→simulate path.
//! * [`FamilyEngine`](crate::family::FamilyEngine) — the calibrated
//!   generative model of the paper's six LLMs (see `family`).

use crate::bpe::Bpe;
use crate::ngram::NgramModel;
use crate::sampler::{sample_token, SamplingParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use vgen_problems::{Problem, PromptLevel};

/// One generated completion with its simulated inference time.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// Raw completion text (to be truncated/assembled by the harness).
    pub text: String,
    /// Simulated wall-clock seconds for the query.
    pub latency_s: f64,
}

/// Anything that can answer a benchmark query: `n` completions for a
/// problem prompt at a detail level and temperature.
pub trait CompletionEngine {
    /// Engine display name (table row label).
    fn name(&self) -> String;

    /// Generates `n` completions for `problem` at `level` and `temperature`.
    fn generate(
        &mut self,
        problem: &Problem,
        level: PromptLevel,
        temperature: f64,
        n: usize,
    ) -> Vec<Completion>;

    /// Readies the engine, on up to `jobs` threads, for queries about
    /// `problems` before the first [`generate`](Self::generate). It must
    /// not change any completion: a sweep calls it once, with its
    /// problems and worker count, to take per-problem setup off its
    /// serial generate phase. The default does nothing.
    fn prepare(&mut self, _problems: &[&'static Problem], _jobs: usize) {}
}

/// The real trainable engine: BPE + n-gram LM + sampling loop.
#[derive(Debug)]
pub struct NgramEngine {
    bpe: Bpe,
    model: NgramModel,
    params: SamplingParams,
    seed: u64,
    queries: u64,
}

impl NgramEngine {
    /// Trains tokenizer and LM on `corpus_text`.
    ///
    /// `merges` controls BPE vocabulary size; `order` the n-gram order.
    pub fn train(corpus_text: &str, merges: usize, order: usize, seed: u64) -> Self {
        let bpe = Bpe::train(corpus_text, merges);
        let tokens = bpe.encode(corpus_text);
        let model = NgramModel::train(&tokens, order);
        NgramEngine {
            bpe,
            model,
            params: SamplingParams::default(),
            seed,
            queries: 0,
        }
    }

    /// The trained tokenizer.
    pub fn bpe(&self) -> &Bpe {
        &self.bpe
    }

    /// The trained language model.
    pub fn model(&self) -> &NgramModel {
        &self.model
    }

    /// Generates one completion for an arbitrary prompt.
    pub fn complete(&mut self, prompt: &str, params: &SamplingParams) -> String {
        self.queries += 1;
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ self.queries.wrapping_mul(0x9E3779B97F4A7C15));
        let mut context = self.bpe.encode(prompt);
        let prompt_len = context.len();
        for _ in 0..params.max_tokens {
            let scores = self.model.next_scores(&context);
            if scores.is_empty() {
                break;
            }
            let tok = sample_token(&scores, params.temperature, params.top_p, &mut rng);
            context.push(tok);
            // Early stop once the module closes, like the paper's
            // truncation rule would cut anyway.
            if self
                .bpe
                .decode(&context[prompt_len..])
                .contains("endmodule")
            {
                break;
            }
        }
        self.bpe.decode(&context[prompt_len..])
    }
}

impl CompletionEngine for NgramEngine {
    fn name(&self) -> String {
        format!(
            "ngram-{} (bpe-{})",
            self.model.order(),
            self.bpe.merge_count()
        )
    }

    fn generate(
        &mut self,
        problem: &Problem,
        level: PromptLevel,
        temperature: f64,
        n: usize,
    ) -> Vec<Completion> {
        let prompt = problem.prompt(level);
        (0..n)
            .map(|_| {
                let params = SamplingParams {
                    temperature,
                    ..self.params
                };
                let start = std::time::Instant::now();
                let text = self.complete(prompt, &params);
                Completion {
                    text,
                    latency_s: start.elapsed().as_secs_f64(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vgen_problems::problems;

    fn tiny_corpus() -> String {
        let mut text = String::new();
        for p in problems() {
            for s in p.all_solutions() {
                text.push_str(&s);
                text.push('\n');
            }
        }
        text
    }

    #[test]
    fn trains_and_generates() {
        let mut engine = NgramEngine::train(&tiny_corpus(), 200, 6, 1);
        assert!(engine.bpe().merge_count() > 50);
        let p = &problems()[0];
        let out = engine.generate(p, PromptLevel::Low, 0.1, 2);
        assert_eq!(out.len(), 2);
        assert!(!out[0].text.is_empty());
    }

    #[test]
    fn greedy_regenerates_training_patterns() {
        // Trained on solutions, a greedy sample from a solution prefix
        // should continue with plausible Verilog tokens.
        let mut engine = NgramEngine::train(&tiny_corpus(), 300, 8, 2);
        let text = engine.complete(
            "module and_gate(input a, input b, output y);\nassign y = ",
            &SamplingParams {
                temperature: 0.0,
                top_p: 1.0,
                max_tokens: 40,
            },
        );
        assert!(
            text.contains(';') || text.contains("endmodule"),
            "expected code-like continuation, got: {text}"
        );
    }

    #[test]
    fn stops_at_endmodule() {
        let mut engine = NgramEngine::train(&tiny_corpus(), 200, 6, 3);
        let p = &problems()[1];
        let out = engine.generate(p, PromptLevel::High, 0.1, 1);
        let t = &out[0].text;
        if let Some(pos) = t.find("endmodule") {
            // Nothing but possibly trailing partial tokens after it.
            assert!(t.len() - (pos + "endmodule".len()) < 64);
        }
    }

    #[test]
    fn higher_temperature_diversifies() {
        let mut engine = NgramEngine::train(&tiny_corpus(), 150, 5, 4);
        let p = &problems()[2];
        let cold: Vec<String> = engine
            .generate(p, PromptLevel::Low, 0.0, 3)
            .into_iter()
            .map(|c| c.text)
            .collect();
        // Greedy decoding is deterministic across calls with same context.
        assert_eq!(cold[0], cold[1]);
        let hot: Vec<String> = engine
            .generate(p, PromptLevel::Low, 1.5, 6)
            .into_iter()
            .map(|c| c.text)
            .collect();
        let distinct: std::collections::HashSet<&String> = hot.iter().collect();
        assert!(distinct.len() > 1, "hot sampling should vary");
    }

    #[test]
    fn engine_name_reflects_config() {
        let engine = NgramEngine::train("module m; endmodule", 10, 3, 0);
        assert!(engine.name().starts_with("ngram-3"));
    }
}
