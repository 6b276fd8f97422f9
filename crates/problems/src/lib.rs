//! # vgen-problems
//!
//! The 17-problem Verilog benchmark set from the VGen paper (Table II):
//! prompts at three detail levels (L/M/H, §IV-B), reference solutions, and
//! self-checking testbenches that run on `vgen-sim`.
//!
//! ```
//! use vgen_problems::{problems, Difficulty, PromptLevel};
//!
//! let set = problems();
//! assert_eq!(set.len(), 17);
//! let counter = &set[5]; // Problem 6
//! assert_eq!(counter.difficulty, Difficulty::Intermediate);
//! let prompt = counter.prompt(PromptLevel::High);
//! assert!(prompt.contains("module counter"));
//! ```

#![warn(missing_docs)]

mod catalog;
pub mod engineered;
pub mod extended;
pub mod testbench;
pub mod types;

pub use engineered::engineered_prompt;
pub use testbench::{parsed_testbench, simulate_with_testbench};
pub use types::{Difficulty, Problem, PromptLevel, PASS_MARKER};

use std::sync::OnceLock;

/// Returns the full 17-problem set, in Table II order (index = id - 1).
pub fn problems() -> &'static [Problem] {
    static SET: OnceLock<Vec<Problem>> = OnceLock::new();
    SET.get_or_init(catalog::build_catalog)
}

/// Looks up a problem by its 1-based id (covers the extended set too).
pub fn problem(id: u8) -> Option<&'static Problem> {
    let idx = id.checked_sub(1)? as usize;
    if idx < 17 {
        problems().get(idx)
    } else {
        extended_problems().get(idx - 17)
    }
}

/// Returns the extended problem set (problems 18-25, not in the paper).
pub fn extended_problems() -> &'static [Problem] {
    static SET: OnceLock<Vec<Problem>> = OnceLock::new();
    SET.get_or_init(extended::build_extended)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seventeen_problems_in_order() {
        let set = problems();
        assert_eq!(set.len(), 17);
        for (i, p) in set.iter().enumerate() {
            assert_eq!(p.id as usize, i + 1);
        }
    }

    #[test]
    fn difficulty_split_matches_table_ii() {
        let tier = |d| problems().iter().filter(|p| p.difficulty == d).count();
        assert_eq!(tier(Difficulty::Basic), 4);
        assert_eq!(tier(Difficulty::Intermediate), 8);
        assert_eq!(tier(Difficulty::Advanced), 5);
    }

    #[test]
    fn lookup_by_id() {
        assert_eq!(problem(6).expect("p6").name, "A 1-to-12 counter");
        assert!(problem(0).is_none());
        assert_eq!(problem(18).expect("extended").name, "Full adder");
        assert!(problem(26).is_none());
    }

    #[test]
    fn prompts_strictly_grow_with_detail() {
        for p in problems() {
            let l = p.prompt(PromptLevel::Low).len();
            let m = p.prompt(PromptLevel::Medium).len();
            let h = p.prompt(PromptLevel::High).len();
            assert!(l < m && m < h, "problem {} prompts must grow L<M<H", p.id);
        }
    }

    #[test]
    fn every_prompt_opens_the_right_module() {
        for p in problems() {
            for level in PromptLevel::ALL {
                assert!(
                    p.prompt(level)
                        .contains(&format!("module {}", p.module_name)),
                    "problem {} prompt {level} must open `{}`",
                    p.id,
                    p.module_name
                );
            }
        }
    }

    #[test]
    fn testbenches_name_the_dut() {
        for p in problems() {
            assert!(
                p.testbench.contains(p.module_name),
                "problem {} testbench must instantiate `{}`",
                p.id,
                p.module_name
            );
            assert!(p.testbench.contains("ALL TESTS PASSED"));
        }
    }
}
