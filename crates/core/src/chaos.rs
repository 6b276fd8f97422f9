//! Seeded, deterministic fault injection for the checking pipeline.
//!
//! A [`ChaosSpec`] names *failpoint sites* (in the guard, the worker pool
//! and the journal's append) and, per site, a firing rate. Whether a given
//! site fires for a given piece of work is a pure function of
//! `(seed, site, content key)` — the key is canonical content (the
//! assembled candidate source, the journal line, the work item's position
//! in the deterministic generation order), **never** a process-local occurrence
//! counter or a clock. That choice is what makes chaos testing composable
//! with the sweep's determinism guarantees:
//!
//! * the same faults fire at `--jobs 1` and `--jobs 8`, whatever order the
//!   pool schedules work in;
//! * a killed-and-resumed sweep re-fires exactly the faults the dead
//!   process would have hit, so the final report is byte-identical to an
//!   uninterrupted run;
//! * injected timeouts are synthesized without reading any clock, so even
//!   a chaos run's report is reproducible — unlike real wall-clock
//!   timeouts, which are inherently nondeterministic (see `DESIGN.md`).
//!
//! Specs are written `site[:param]%denominator`, semicolon-separated:
//! `check.panic%17;check.timeout:1%5;journal.torn:20%31` fires an injected
//! checker panic for ~1/17 of completions, a synthetic soft timeout on
//! attempt 0 (healing on retry) for ~1/5, and tears a journal write down
//! to its first 20 bytes for ~1/31 of records.

use std::fmt;
use std::sync::Arc;

/// A failpoint site in the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosSite {
    /// Inside the guarded check, before the real check runs: `panic!` —
    /// exercises the [`crate::guard`] panic path. Keyed by assembled
    /// source.
    CheckPanic,
    /// In the guard, before the check runs anywhere: synthesize a
    /// [`CheckOutcome::Timeout`](crate::check::CheckOutcome::Timeout)
    /// (soft) without running anything or reading a clock. Keyed by
    /// assembled source; the rule's `param` is an *attempt ceiling* — the
    /// fault fires only on attempts `< param` (0 means every attempt), so
    /// `check.timeout:1%5` heals on first retry while `check.timeout%5`
    /// persists through all retries.
    CheckTimeout,
    /// Inside the guarded check: sleep `param` milliseconds before
    /// checking — a *real* stall that exercises the watchdog's hard-timeout
    /// detach path. Keyed by assembled source. (Wall-clock: only for tests
    /// that accept nondeterministic latency, never for byte-compare CI.)
    CheckDelayMs,
    /// In the sweep's worker-pool task wrapper, outside the guard —
    /// exercises the pool-plumbing fault path. Keyed by the item's
    /// deterministic position.
    TaskPanic,
    /// In the journal's append, on the merging thread: write only the
    /// first `param` bytes of the record line (no newline, fsync'd) and
    /// fail the journal, which writes nothing more and fails the sweep once
    /// every record is checked — a torn write followed by a crash,
    /// exercising journal recovery. Keyed by the record line.
    JournalTorn,
}

impl ChaosSite {
    /// Stable one-byte tag mixed into the firing hash.
    fn tag(self) -> u8 {
        match self {
            ChaosSite::CheckPanic => 1,
            ChaosSite::CheckTimeout => 2,
            ChaosSite::CheckDelayMs => 3,
            ChaosSite::TaskPanic => 4,
            ChaosSite::JournalTorn => 5,
        }
    }

    fn name(self) -> &'static str {
        match self {
            ChaosSite::CheckPanic => "check.panic",
            ChaosSite::CheckTimeout => "check.timeout",
            ChaosSite::CheckDelayMs => "check.delay",
            ChaosSite::TaskPanic => "task.panic",
            ChaosSite::JournalTorn => "journal.torn",
        }
    }

    fn from_name(s: &str) -> Option<ChaosSite> {
        match s {
            "check.panic" => Some(ChaosSite::CheckPanic),
            "check.timeout" => Some(ChaosSite::CheckTimeout),
            "check.delay" => Some(ChaosSite::CheckDelayMs),
            "task.panic" => Some(ChaosSite::TaskPanic),
            "journal.torn" => Some(ChaosSite::JournalTorn),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ChaosRule {
    site: ChaosSite,
    /// Site-specific parameter (delay ms, torn-prefix bytes, attempt
    /// ceiling); 0 when the site takes none.
    param: u64,
    /// The rule fires when `hash(seed, site, key) % denom == 0`.
    denom: u64,
}

/// A parsed, seeded chaos configuration. Empty (the [`Default`]) means no
/// injection anywhere; every lookup is then a slice-len check.
///
/// Cloning is cheap — the rule list is shared.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosSpec {
    seed: u64,
    rules: Arc<[ChaosRule]>,
}

impl ChaosSpec {
    /// Parses a `site[:param]%denom;...` spec under `seed`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending entry for
    /// unknown sites, missing/zero denominators, or malformed numbers.
    pub fn parse(spec: &str, seed: u64) -> Result<ChaosSpec, String> {
        let mut rules = Vec::new();
        for entry in spec.split(';').filter(|e| !e.trim().is_empty()) {
            let entry = entry.trim();
            let (head, denom) = entry
                .split_once('%')
                .ok_or_else(|| format!("chaos entry `{entry}` is missing `%denominator`"))?;
            let denom: u64 = denom
                .parse()
                .map_err(|_| format!("chaos entry `{entry}`: bad denominator `{denom}`"))?;
            if denom == 0 {
                return Err(format!("chaos entry `{entry}`: denominator must be >= 1"));
            }
            let (name, param) = match head.split_once(':') {
                Some((n, p)) => (
                    n,
                    p.parse::<u64>()
                        .map_err(|_| format!("chaos entry `{entry}`: bad parameter `{p}`"))?,
                ),
                None => (head, 0),
            };
            let site = ChaosSite::from_name(name)
                .ok_or_else(|| format!("chaos entry `{entry}`: unknown site `{name}`"))?;
            if site == ChaosSite::CheckDelayMs && param == 0 {
                return Err(format!(
                    "chaos entry `{entry}`: check.delay needs `:milliseconds`"
                ));
            }
            rules.push(ChaosRule { site, param, denom });
        }
        Ok(ChaosSpec {
            seed,
            rules: rules.into(),
        })
    }

    /// Whether no rule is configured (the common, zero-cost case).
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// If a rule for `site` fires on `key`, returns that rule's parameter.
    ///
    /// Pure in `(self, site, key)`: no clocks, no counters, no globals —
    /// the property every chaos determinism test rests on.
    pub fn fires(&self, site: ChaosSite, key: &[u8]) -> Option<u64> {
        self.rules
            .iter()
            .filter(|r| r.site == site)
            .find(|r| self.hash(site, key).is_multiple_of(r.denom))
            .map(|r| r.param)
    }

    /// [`fires`](Self::fires) for [`ChaosSite::CheckTimeout`], applying the
    /// rule's attempt-ceiling parameter: a rule with `param == 0` fires on
    /// every attempt, otherwise only on attempts below `param`.
    pub fn fires_check_timeout(&self, key: &[u8], attempt: u32) -> bool {
        self.rules
            .iter()
            .filter(|r| r.site == ChaosSite::CheckTimeout)
            .any(|r| {
                (r.param == 0 || u64::from(attempt) < r.param)
                    && self
                        .hash(ChaosSite::CheckTimeout, key)
                        .is_multiple_of(r.denom)
            })
    }

    fn hash(&self, site: ChaosSite, key: &[u8]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |b: u8| {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        for b in self.seed.to_le_bytes() {
            mix(b);
        }
        mix(site.tag());
        for &b in key {
            mix(b);
        }
        h
    }
}

impl fmt::Display for ChaosSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for r in self.rules.iter() {
            if !first {
                f.write_str(";")?;
            }
            first = false;
            if r.param != 0 {
                write!(f, "{}:{}%{}", r.site.name(), r.param, r.denom)?;
            } else {
                write!(f, "{}%{}", r.site.name(), r.denom)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_never_fires() {
        let spec = ChaosSpec::default();
        assert!(spec.is_empty());
        assert_eq!(spec.fires(ChaosSite::CheckPanic, b"anything"), None);
        assert!(!spec.fires_check_timeout(b"anything", 0));
    }

    #[test]
    fn parse_roundtrips_through_display() {
        let spec =
            ChaosSpec::parse("check.panic%17;check.timeout:1%5;journal.torn:20%31", 7).unwrap();
        assert_eq!(
            spec.to_string(),
            "check.panic%17;check.timeout:1%5;journal.torn:20%31"
        );
        let again = ChaosSpec::parse(&spec.to_string(), 7).unwrap();
        assert_eq!(spec, again);
    }

    #[test]
    fn parse_rejects_malformed_entries() {
        for bad in [
            "check.panic",       // no denominator
            "check.panic%0",     // zero denominator
            "check.panic%x",     // bad denominator
            "no.such.site%3",    // unknown site
            "check.delay%3",     // delay without ms
            "check.delay:abc%3", // bad param
        ] {
            assert!(ChaosSpec::parse(bad, 0).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn denom_one_always_fires() {
        let spec = ChaosSpec::parse("check.panic%1", 3).unwrap();
        for key in [&b"a"[..], b"b", b"completely different"] {
            assert_eq!(spec.fires(ChaosSite::CheckPanic, key), Some(0));
        }
        // ...but only at its own site.
        assert_eq!(spec.fires(ChaosSite::TaskPanic, b"a"), None);
    }

    #[test]
    fn firing_is_content_keyed_and_seed_sensitive() {
        let spec = ChaosSpec::parse("check.panic%3", 42).unwrap();
        let keys: Vec<Vec<u8>> = (0..300u32)
            .map(|i| format!("key-{i}").into_bytes())
            .collect();
        let fired: Vec<bool> = keys
            .iter()
            .map(|k| spec.fires(ChaosSite::CheckPanic, k).is_some())
            .collect();
        // Same spec, same keys => identical decisions (pure function).
        let again: Vec<bool> = keys
            .iter()
            .map(|k| spec.fires(ChaosSite::CheckPanic, k).is_some())
            .collect();
        assert_eq!(fired, again);
        // Roughly 1/3 fire; certainly some and not all.
        let n = fired.iter().filter(|&&b| b).count();
        assert!(n > 40 && n < 260, "fired {n}/300");
        // A different seed flips some decisions.
        let other = ChaosSpec::parse("check.panic%3", 43).unwrap();
        assert!(keys
            .iter()
            .any(|k| other.fires(ChaosSite::CheckPanic, k).is_some()
                != spec.fires(ChaosSite::CheckPanic, k).is_some()));
    }

    #[test]
    fn attempt_ceiling_limits_timeout_injection() {
        // denom 1 => fires for every key; ceiling 1 => attempt 0 only.
        let heal = ChaosSpec::parse("check.timeout:1%1", 0).unwrap();
        assert!(heal.fires_check_timeout(b"k", 0));
        assert!(!heal.fires_check_timeout(b"k", 1));
        // ceiling 0 => persistent across attempts.
        let persist = ChaosSpec::parse("check.timeout%1", 0).unwrap();
        assert!(persist.fires_check_timeout(b"k", 0));
        assert!(persist.fires_check_timeout(b"k", 7));
    }
}
