//! Property tests for the snapshot algebra: `delta` must recover exactly
//! what happened between two snapshots of one session, no more and no
//! less. The snapshot document must parse, whatever the snapshot holds.

use std::collections::BTreeMap;

use proptest::prelude::*;
use vgen_obs::hist::Histogram;
use vgen_obs::json::Json;
use vgen_obs::{summary, LaneBusy, Snapshot};

/// Counter names are `&'static str` throughout the crate, so random
/// counters draw from a fixed pool.
const NAMES: &[&str] = &["alpha", "beta", "gamma", "delta", "epsilon", "zeta"];

fn hist_of(samples: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    h
}

fn counters_of(picks: &[(usize, u64)]) -> BTreeMap<&'static str, u64> {
    let mut m = BTreeMap::new();
    for &(i, n) in picks {
        *m.entry(NAMES[i % NAMES.len()]).or_insert(0) += n;
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Counters grow monotonically within a session, so the delta of a
    /// later snapshot against an earlier one recovers exactly the
    /// increments — and never reports a zero or phantom counter.
    #[test]
    fn delta_recovers_counter_increments(
        base in proptest::collection::vec((0usize..6, 0u64..100), 0..12),
        inc in proptest::collection::vec((0usize..6, 0u64..100), 0..12),
    ) {
        let earlier = Snapshot {
            epoch: 1,
            counters: counters_of(&base),
            ..Snapshot::default()
        };
        let mut later = earlier.clone();
        later.epoch = 2;
        let increments = counters_of(&inc);
        for (&name, &n) in &increments {
            *later.counters.entry(name).or_insert(0) += n;
        }
        let d = later.delta(&earlier);
        for (&name, &n) in &d.counters {
            prop_assert!(n > 0, "zero-valued counter {name} survived the delta");
            prop_assert_eq!(Some(&n), increments.get(name));
        }
        for (&name, &n) in &increments {
            if n > 0 {
                prop_assert_eq!(Some(&n), d.counters.get(name));
            }
        }
    }

    /// Histogram diff/merge are bucket-wise inverses: the diff of
    /// `hist(A ∪ B)` against `hist(A)` holds exactly `B`, and merging it
    /// back onto `hist(A)` reproduces `hist(A ∪ B)` bucket for bucket.
    #[test]
    fn histogram_diff_and_merge_are_bucketwise_inverses(
        a in proptest::collection::vec(0u64..1_000_000, 0..24),
        b in proptest::collection::vec(0u64..1_000_000, 0..24),
    ) {
        let ha = hist_of(&a);
        let mut hall = ha.clone();
        for &v in &b {
            hall.record(v);
        }
        let d = hall.diff(&ha);
        prop_assert_eq!(d.count, b.len() as u64);
        prop_assert_eq!(d.sum, b.iter().sum::<u64>());
        let mut rebuilt = ha.clone();
        rebuilt.merge(&d);
        prop_assert_eq!(rebuilt.count, hall.count);
        prop_assert_eq!(rebuilt.sum, hall.sum);
        prop_assert_eq!(rebuilt.nonzero_buckets(), hall.nonzero_buckets());
    }

    /// Round trip: a delta added to its base gives the later snapshot's
    /// aggregates back (counters, histogram count and sum, dropped
    /// events), and its window runs from the base's `at_ns` to the later
    /// snapshot's.
    #[test]
    fn a_delta_added_to_its_base_restores_the_later_snapshot(
        base in proptest::collection::vec((0usize..6, 0u64..100), 0..10),
        inc in proptest::collection::vec((0usize..6, 1u64..100), 0..10),
        hist_a in proptest::collection::vec(0u64..100_000, 0..12),
        hist_b in proptest::collection::vec(0u64..100_000, 0..12),
        drop_a in 0u64..5,
        drop_b in 0u64..5,
    ) {
        let earlier = Snapshot {
            epoch: 1,
            at_ns: 1_000,
            counters: counters_of(&base),
            hists: BTreeMap::from([("stage", hist_of(&hist_a))]),
            dropped_events: drop_a,
            ..Snapshot::default()
        };
        let mut later = earlier.clone();
        later.epoch = 2;
        later.at_ns = 2_000;
        for &(i, n) in &inc {
            *later.counters.entry(NAMES[i % NAMES.len()]).or_insert(0) += n;
        }
        for &v in &hist_b {
            later.hists.get_mut("stage").unwrap().record(v);
        }
        later.dropped_events += drop_b;

        let d = later.delta(&earlier);
        let count = |m: &BTreeMap<&'static str, u64>, name| m.get(name).copied().unwrap_or(0);
        for (&name, &n) in &later.counters {
            prop_assert_eq!(count(&earlier.counters, name) + count(&d.counters, name), n);
        }
        prop_assert!(d.counters.keys().all(|name| later.counters.contains_key(name)));
        let (dcount, dsum) = d.hists.get("stage").map_or((0, 0), |h| (h.count, h.sum));
        prop_assert_eq!(earlier.hists["stage"].count + dcount, later.hists["stage"].count);
        prop_assert_eq!(earlier.hists["stage"].sum + dsum, later.hists["stage"].sum);
        prop_assert_eq!(earlier.dropped_events + d.dropped_events, later.dropped_events);
        prop_assert_eq!(d.start_ns, earlier.at_ns);
        prop_assert_eq!(d.at_ns, later.at_ns);
    }

    /// The daemon's `metrics_payload` and `Service` re-embed
    /// `snapshot_json` by parsing it, and fall back to `{}` silently if
    /// that fails. So the document must parse for every snapshot, with
    /// every counter intact.
    #[test]
    fn snapshot_json_parses_with_its_counters(
        counters in proptest::collection::vec((0usize..6, 0u64..(1 << 48)), 0..12),
        maxima in proptest::collection::vec((0usize..6, 0u64..(1 << 48)), 0..6),
        stages in proptest::collection::vec((0usize..6, 0u64..10_000_000_000), 0..24),
        lanes in proptest::collection::vec((0u32..8, 1u64..1_000_000, 0u64..1_000_000), 0..8),
        epoch in 0u64..1_000,
        start_ns in 0u64..1_000_000,
        wall_ns in 0u64..10_000_000_000,
        dropped in 0u64..100,
    ) {
        let mut hists: BTreeMap<&'static str, Histogram> = BTreeMap::new();
        for &(i, v) in &stages {
            hists.entry(NAMES[i]).or_default().record(v);
        }
        let mut lane_busy: BTreeMap<u32, LaneBusy> = BTreeMap::new();
        for &(lane, busy, check) in &lanes {
            let slot = lane_busy.entry(lane).or_default();
            slot.busy_ns += busy;
            slot.check_ns += check.min(busy);
        }
        let snap = Snapshot {
            epoch,
            start_ns,
            at_ns: start_ns + wall_ns,
            counters: counters_of(&counters),
            maxima: maxima.iter().map(|&(i, v)| (NAMES[i], v)).collect(),
            hists,
            lane_busy,
            dropped_events: dropped,
            ..Snapshot::default()
        };
        let doc = Json::parse(&summary::snapshot_json(&snap));
        prop_assert!(doc.is_ok(), "{:?}", doc);
        let doc = doc.expect("checked");
        let Some(Json::Obj(parsed)) = doc.get("counters") else {
            return Err(TestCaseError::Fail(format!("no counters object: {doc:?}")));
        };
        prop_assert_eq!(parsed.len(), snap.counters.len());
        for (name, n) in parsed {
            prop_assert_eq!(n.as_u64(), snap.counters.get(name.as_str()).copied(), "{}", name);
        }
        prop_assert_eq!(doc.get("epoch").and_then(Json::as_u64), Some(epoch));
    }
}
