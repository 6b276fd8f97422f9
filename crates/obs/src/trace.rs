//! Chrome `trace_event`-format export.
//!
//! [`chrome_trace_json`] renders an [`ObsReport`] as the JSON Object
//! Format understood by Perfetto (ui.perfetto.dev), `chrome://tracing`
//! and Speedscope: one `"X"` (complete) event per span, `ts`/`dur` in
//! fractional microseconds relative to the session start, plus `"M"`
//! metadata events naming each lane after the worker thread it belongs
//! to. Everything runs in one logical process (`pid` 1).

use crate::json::escape;
use crate::ObsReport;

/// Renders the report as a complete Chrome trace JSON document.
pub fn chrome_trace_json(report: &ObsReport) -> String {
    let mut out = String::with_capacity(128 + report.events.len() * 96);
    out.push_str("{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n");
    let mut first = true;
    let mut push = |line: String, out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&line);
    };
    push(
        "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 1, \
         \"args\": {\"name\": \"vgen\"}}"
            .to_string(),
        &mut out,
    );
    for (lane, name) in report.lanes.iter().enumerate() {
        push(
            format!(
                "{{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": {lane}, \
                 \"args\": {{\"name\": \"{}\"}}}}",
                escape(name)
            ),
            &mut out,
        );
    }
    for ev in &report.events {
        let ts = ev.start_ns.saturating_sub(report.session_start_ns) as f64 / 1000.0;
        let dur = ev.dur_ns as f64 / 1000.0;
        push(
            format!(
                "{{\"ph\": \"X\", \"name\": \"{}\", \"cat\": \"vgen\", \
                 \"ts\": {ts:.3}, \"dur\": {dur:.3}, \"pid\": 1, \"tid\": {}}}",
                escape(ev.name),
                ev.lane
            ),
            &mut out,
        );
    }
    out.push_str("\n]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;
    use crate::json::Json;
    use crate::SpanEvent;
    use std::collections::BTreeMap;

    fn sample_report() -> ObsReport {
        let mut hists = BTreeMap::new();
        let mut h = Histogram::new();
        h.record(1_500);
        hists.insert("parse", h);
        ObsReport {
            events: vec![
                SpanEvent {
                    name: "parse",
                    lane: 0,
                    start_ns: 1_000,
                    dur_ns: 1_500,
                },
                SpanEvent {
                    name: "simulate",
                    lane: 1,
                    start_ns: 2_000,
                    dur_ns: 900,
                },
            ],
            dropped_events: 0,
            counters: BTreeMap::from([("dedup.hit", 3u64)]),
            maxima: BTreeMap::from([("sim.queue_depth", 5u64)]),
            hists,
            lane_busy: BTreeMap::new(),
            lanes: vec!["main".to_string(), "vgen-pool-0".to_string()],
            session_start_ns: 500,
            session_end_ns: 10_500,
        }
    }

    #[test]
    fn trace_json_is_well_formed() {
        let json = chrome_trace_json(&sample_report());
        assert!(Json::parse(&json).is_ok(), "{json}");
    }

    #[test]
    fn trace_json_carries_spans_and_lane_names() {
        let json = chrome_trace_json(&sample_report());
        assert!(json.contains("\"name\": \"parse\""));
        assert!(json.contains("\"name\": \"simulate\""));
        assert!(json.contains("\"name\": \"vgen-pool-0\""));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"ph\": \"M\""));
        // ts is relative to session start: 1000 - 500 = 500ns = 0.5us.
        assert!(json.contains("\"ts\": 0.500"), "{json}");
        assert!(json.contains("\"dur\": 1.500"), "{json}");
    }

    #[test]
    fn empty_report_is_still_valid_json() {
        let json = chrome_trace_json(&ObsReport::default());
        assert!(Json::parse(&json).is_ok(), "{json}");
        assert!(json.contains("traceEvents"));
    }

    #[test]
    fn hostile_lane_names_are_escaped() {
        let report = ObsReport {
            lanes: vec!["evil\"lane\\name\n".to_string()],
            ..ObsReport::default()
        };
        let json = chrome_trace_json(&report);
        assert!(Json::parse(&json).is_ok(), "{json}");
    }
}
