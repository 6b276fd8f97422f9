//! Evaluation metrics.
//!
//! The paper's headline metric is **Pass@(scenario·n)**: for a *scenario*
//! (a set of problems at one difficulty and description level) with `n`
//! completions per problem, the *fraction of the scenario·n completions*
//! that pass the check (§V-B: "For compilation, the Pass@k metric reflects
//! the proportion of completions that compile. For functional tests, this
//! metric is the fraction of the k code samples that pass").

/// Aggregated counts for one cell of a results table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Total completions checked.
    pub total: usize,
    /// Completions that compiled.
    pub compiled: usize,
    /// Completions that passed the testbench.
    pub passed: usize,
}

impl Tally {
    /// Adds one observation.
    pub fn record(&mut self, compiled: bool, passed: bool) {
        self.total += 1;
        if compiled {
            self.compiled += 1;
        }
        if passed {
            self.passed += 1;
        }
    }

    /// Compile Pass@(scenario·n).
    pub fn compile_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.compiled as f64 / self.total as f64
        }
    }

    /// Functional Pass@(scenario·n).
    pub fn functional_rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.passed as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_rates() {
        let mut t = Tally::default();
        t.record(true, true);
        t.record(true, false);
        t.record(false, false);
        t.record(true, true);
        assert_eq!(t.total, 4);
        assert_eq!(t.compile_rate(), 0.75);
        assert_eq!(t.functional_rate(), 0.5);
    }

    #[test]
    fn empty_tally_is_zero() {
        let t = Tally::default();
        assert_eq!(t.compile_rate(), 0.0);
        assert_eq!(t.functional_rate(), 0.0);
    }
}
