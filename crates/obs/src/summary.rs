//! Metrics rendering: per-stage wall-time histograms, counter table and
//! pool utilization, rendered as an aligned text block (for stderr) and
//! as machine-readable JSON.
//!
//! Both renderers take a [`Snapshot`] — the end-of-run sidecar
//! (`<journal>.metrics.json`) goes through [`Snapshot::from_report`] and
//! the daemon's live `metrics`/`subscribe` endpoints hand in snapshots
//! directly, so there is exactly one assembly path for both.

use crate::json::escape;
use crate::{ObsReport, Snapshot};

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// Fraction of (busy lanes × session wall time) spent in spans.
/// Convenience wrapper over [`Snapshot::utilization`] for collected
/// reports.
pub fn utilization(report: &ObsReport) -> f64 {
    Snapshot::from_report(report).utilization()
}

/// Renders the aligned text summary (the `--metrics` stderr block).
pub fn render_metrics(report: &ObsReport) -> String {
    render_snapshot(&Snapshot::from_report(report))
}

/// Renders the machine-readable metrics JSON document.
pub fn metrics_json(report: &ObsReport) -> String {
    snapshot_json(&Snapshot::from_report(report))
}

/// Renders a snapshot as the aligned text metrics block.
pub fn render_snapshot(snap: &Snapshot) -> String {
    let mut out = String::from("== vgen-obs metrics ==\n");
    out.push_str(&format!(
        "session wall time: {} ms\n",
        fmt_ms(snap.wall_ns())
    ));
    if !snap.hists.is_empty() {
        out.push_str(&format!(
            "{:<18} {:>8} {:>10} {:>9} {:>9} {:>9} {:>9}\n",
            "stage (ms)", "count", "total", "mean", "p50", "p90", "p99"
        ));
        for (name, hist) in &snap.hists {
            out.push_str(&format!(
                "{:<18} {:>8} {:>10} {:>9} {:>9} {:>9} {:>9}\n",
                name,
                hist.count,
                fmt_ms(hist.sum),
                fmt_ms(hist.mean()),
                fmt_ms(hist.quantile(0.5)),
                fmt_ms(hist.quantile(0.9)),
                fmt_ms(hist.quantile(0.99)),
            ));
        }
    }
    if !snap.counters.is_empty() {
        out.push_str("counters:\n");
        for (name, n) in &snap.counters {
            out.push_str(&format!("  {name:<24} {n}\n"));
        }
    }
    if !snap.maxima.is_empty() {
        out.push_str("maxima:\n");
        for (name, v) in &snap.maxima {
            out.push_str(&format!("  {name:<24} {v}\n"));
        }
    }
    let busy = snap.busy_lanes();
    if !busy.is_empty() {
        out.push_str(&format!(
            "pool utilization:  {:.1}% across {} busy lane(s)\n",
            snap.utilization() * 100.0,
            busy.len()
        ));
    }
    if snap.dropped_events > 0 {
        out.push_str(&format!(
            "dropped trace events: {} (histograms/counters unaffected)\n",
            snap.dropped_events
        ));
    }
    out
}

/// Renders a snapshot as the machine-readable metrics JSON document.
pub fn snapshot_json(snap: &Snapshot) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"epoch\": {},\n", snap.epoch));
    out.push_str(&format!("  \"wall_ns\": {},\n", snap.wall_ns()));
    out.push_str(&format!(
        "  \"dropped_trace_events\": {},\n",
        snap.dropped_events
    ));
    out.push_str(&format!("  \"utilization\": {:.4},\n", snap.utilization()));
    out.push_str("  \"stages\": {\n");
    for (i, (name, hist)) in snap.hists.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {{\"count\": {}, \"total_ns\": {}, \"mean_ns\": {}, \
             \"min_ns\": {}, \"max_ns\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}}}{}\n",
            escape(name),
            hist.count,
            hist.sum,
            hist.mean(),
            if hist.is_empty() { 0 } else { hist.min },
            hist.max,
            hist.quantile(0.5),
            hist.quantile(0.9),
            hist.quantile(0.99),
            if i + 1 < snap.hists.len() { "," } else { "" }
        ));
    }
    out.push_str("  },\n  \"counters\": {\n");
    for (i, (name, n)) in snap.counters.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {n}{}\n",
            escape(name),
            if i + 1 < snap.counters.len() { "," } else { "" }
        ));
    }
    out.push_str("  },\n  \"maxima\": {\n");
    for (i, (name, v)) in snap.maxima.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {v}{}\n",
            escape(name),
            if i + 1 < snap.maxima.len() { "," } else { "" }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;
    use crate::json::Json;
    use crate::{LaneBusy, SpanEvent};
    use std::collections::BTreeMap;

    fn report_with_checks() -> ObsReport {
        let mut hists = BTreeMap::new();
        let mut h = Histogram::new();
        for v in [1_000u64, 2_000, 4_000] {
            h.record(v);
        }
        hists.insert("check", h);
        ObsReport {
            events: vec![
                SpanEvent {
                    name: "check",
                    lane: 1,
                    start_ns: 0,
                    dur_ns: 5_000,
                },
                SpanEvent {
                    name: "parse",
                    lane: 1,
                    start_ns: 100,
                    dur_ns: 1_000,
                },
                SpanEvent {
                    name: "check",
                    lane: 2,
                    start_ns: 0,
                    dur_ns: 10_000,
                },
            ],
            dropped_events: 2,
            counters: BTreeMap::from([("dedup.hit", 7u64)]),
            maxima: BTreeMap::from([("sim.queue_depth", 9u64)]),
            hists,
            lane_busy: BTreeMap::from([
                (
                    1,
                    LaneBusy {
                        busy_ns: 6_000,
                        check_ns: 5_000,
                    },
                ),
                (
                    2,
                    LaneBusy {
                        busy_ns: 10_000,
                        check_ns: 10_000,
                    },
                ),
            ]),
            lanes: vec!["main".into(), "vgen-pool-0".into(), "vgen-pool-1".into()],
            session_start_ns: 0,
            session_end_ns: 10_000,
        }
    }

    #[test]
    fn utilization_counts_check_time_per_busy_lane() {
        let r = report_with_checks();
        // Two busy lanes over a 10µs wall: (5000 + 10000) / (2 × 10000).
        assert!((utilization(&r) - 0.75).abs() < 1e-9, "{}", utilization(&r));
    }

    #[test]
    fn utilization_of_empty_report_is_zero() {
        assert_eq!(utilization(&ObsReport::default()), 0.0);
    }

    #[test]
    fn text_summary_mentions_stages_counters_and_drops() {
        let s = render_metrics(&report_with_checks());
        assert!(s.contains("check"), "{s}");
        assert!(s.contains("dedup.hit"), "{s}");
        assert!(s.contains("sim.queue_depth"), "{s}");
        assert!(s.contains("pool utilization"), "{s}");
        assert!(s.contains("dropped trace events: 2"), "{s}");
        assert!(s.contains("p99"), "{s}");
    }

    #[test]
    fn metrics_json_is_well_formed() {
        let json = metrics_json(&report_with_checks());
        assert!(Json::parse(&json).is_ok(), "{json}");
        assert!(json.contains("\"p50_ns\""));
        assert!(json.contains("\"epoch\""));
        assert!(json.contains("\"dedup.hit\": 7"));
        let empty = metrics_json(&ObsReport::default());
        assert!(Json::parse(&empty).is_ok(), "{empty}");
    }

    #[test]
    fn sidecar_and_live_paths_render_identically() {
        // The one-code-path guarantee: a report routed through
        // Snapshot::from_report must render byte-identically to the
        // snapshot-direct renderers.
        let r = report_with_checks();
        let snap = Snapshot::from_report(&r);
        assert_eq!(metrics_json(&r), snapshot_json(&snap));
        assert_eq!(render_metrics(&r), render_snapshot(&snap));
    }
}
