//! Live, epoch-stamped aggregate snapshots.
//!
//! A [`Snapshot`] is the *aggregate* state of a recording session at one
//! instant: counters, maxima, per-stage histograms and per-lane busy time
//! — everything except the span event buffer, so taking one is cheap and
//! independent of session length. Snapshots are produced by
//! [`crate::snapshot()`] (live, mid-session) or [`Snapshot::from_report`]
//! (end of run), and both the `<journal>.metrics.json` sidecar and the
//! daemon's `metrics`/`subscribe` endpoints render from this one type.
//!
//! Because every aggregate grows monotonically within a session,
//! [`Snapshot::delta`] of two snapshots taken an interval apart yields the
//! activity *in that interval* — rates (checks/s, sim steps/s) fall out by
//! dividing by [`Snapshot::wall_ns`].

use std::collections::BTreeMap;

use crate::hist::Histogram;
use crate::{LaneBusy, ObsReport};

/// Aggregate state of a recording session at one instant.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Monotone per-session snapshot id (1 for the first snapshot after
    /// [`crate::enable`]); 0 only for synthetic snapshots.
    pub epoch: u64,
    /// Monotonic-clock nanoseconds when the session started.
    pub start_ns: u64,
    /// Monotonic-clock nanoseconds when the snapshot was taken.
    pub at_ns: u64,
    /// Counter totals by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// High-water marks by name.
    pub maxima: BTreeMap<&'static str, u64>,
    /// Span-duration histograms by stage name (nanoseconds).
    pub hists: BTreeMap<&'static str, Histogram>,
    /// Busy-time totals by lane id.
    pub lane_busy: BTreeMap<u32, LaneBusy>,
    /// Lane names, indexed by lane id.
    pub lanes: Vec<String>,
    /// Trace span events dropped so far (aggregates are never dropped).
    pub dropped_events: u64,
}

impl Snapshot {
    /// Builds the end-of-run snapshot from a collected [`ObsReport`], so
    /// the final metrics sidecar renders through the same path as the
    /// live endpoint.
    pub fn from_report(report: &ObsReport) -> Snapshot {
        Snapshot {
            epoch: crate::epoch(),
            start_ns: report.session_start_ns,
            at_ns: report.session_end_ns,
            counters: report.counters.clone(),
            maxima: report.maxima.clone(),
            hists: report.hists.clone(),
            lane_busy: report.lane_busy.clone(),
            lanes: report.lanes.clone(),
            dropped_events: report.dropped_events,
        }
    }

    /// Wall time this snapshot covers, in nanoseconds.
    pub fn wall_ns(&self) -> u64 {
        self.at_ns.saturating_sub(self.start_ns)
    }

    /// Activity between `earlier` and `self` (two snapshots of the same
    /// session, `earlier` first): counters, histograms, busy time and the
    /// dropped-count subtract (saturating); maxima keep the newer value
    /// (a high-water mark has no meaningful difference); lane names come
    /// from the newer snapshot. The delta's time window is
    /// `[earlier.at_ns, self.at_ns]`, so [`Snapshot::wall_ns`] on the
    /// result is the interval length — divide counter deltas by it for
    /// rates.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let mut counters = BTreeMap::new();
        for (&name, &n) in &self.counters {
            let d = n.saturating_sub(earlier.counters.get(name).copied().unwrap_or(0));
            if d > 0 {
                counters.insert(name, d);
            }
        }
        let mut hists = BTreeMap::new();
        for (&name, h) in &self.hists {
            let d = match earlier.hists.get(name) {
                Some(e) => h.diff(e),
                None => h.clone(),
            };
            if !d.is_empty() {
                hists.insert(name, d);
            }
        }
        let mut lane_busy = BTreeMap::new();
        for (&lane, &busy) in &self.lane_busy {
            let e = earlier.lane_busy.get(&lane).copied().unwrap_or_default();
            let d = LaneBusy {
                busy_ns: busy.busy_ns.saturating_sub(e.busy_ns),
                check_ns: busy.check_ns.saturating_sub(e.check_ns),
            };
            if d.busy_ns > 0 {
                lane_busy.insert(lane, d);
            }
        }
        Snapshot {
            epoch: self.epoch,
            start_ns: earlier.at_ns,
            at_ns: self.at_ns,
            counters,
            maxima: self.maxima.clone(),
            hists,
            lane_busy,
            lanes: self.lanes.clone(),
            dropped_events: self.dropped_events.saturating_sub(earlier.dropped_events),
        }
    }

    /// Lanes that carried work, with the busy time used for utilization:
    /// `check` time when any lane ran checks (nested stage spans run
    /// inside a check and would double-count), all-span time otherwise.
    pub fn busy_lanes(&self) -> Vec<(u32, u64)> {
        let has_check = self.lane_busy.values().any(|b| b.check_ns > 0);
        self.lane_busy
            .iter()
            .filter_map(|(&lane, b)| {
                let ns = if has_check { b.check_ns } else { b.busy_ns };
                (ns > 0).then_some((lane, ns))
            })
            .collect()
    }

    /// Fraction of (busy lanes × window wall time) actually spent in
    /// spans — 1.0 means every lane that did any work was busy the whole
    /// window.
    pub fn utilization(&self) -> f64 {
        let busy = self.busy_lanes();
        if busy.is_empty() {
            return 0.0;
        }
        let wall = self.wall_ns().max(1);
        let total: u64 = busy.iter().map(|&(_, ns)| ns).sum();
        (total as f64 / (busy.len() as u64 * wall) as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(epoch: u64, counts: &[(&'static str, u64)]) -> Snapshot {
        Snapshot {
            epoch,
            counters: counts.iter().copied().collect(),
            ..Snapshot::default()
        }
    }

    #[test]
    fn delta_subtracts_counters_and_drops_zeros() {
        let a = snap(1, &[("x", 3), ("y", 5)]);
        let b = snap(2, &[("x", 3), ("y", 9), ("z", 1)]);
        let d = b.delta(&a);
        assert_eq!(d.epoch, 2);
        assert!(!d.counters.contains_key("x"), "unchanged counter omitted");
        assert_eq!(d.counters["y"], 4);
        assert_eq!(d.counters["z"], 1);
    }

    #[test]
    fn delta_window_is_the_interval() {
        let mut a = snap(1, &[]);
        a.start_ns = 100;
        a.at_ns = 200;
        let mut b = snap(2, &[]);
        b.start_ns = 100;
        b.at_ns = 450;
        assert_eq!(b.delta(&a).wall_ns(), 250);
    }

    #[test]
    fn utilization_prefers_check_time() {
        let mut s = snap(1, &[]);
        s.start_ns = 0;
        s.at_ns = 10_000;
        s.lane_busy.insert(
            1,
            LaneBusy {
                busy_ns: 6_000,
                check_ns: 5_000,
            },
        );
        s.lane_busy.insert(
            2,
            LaneBusy {
                busy_ns: 10_000,
                check_ns: 10_000,
            },
        );
        // Lane 0 did non-check work only: excluded once checks exist.
        s.lane_busy.insert(
            0,
            LaneBusy {
                busy_ns: 1_000,
                check_ns: 0,
            },
        );
        assert!((s.utilization() - 0.75).abs() < 1e-9, "{}", s.utilization());
    }
}
