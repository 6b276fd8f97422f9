//! The process-wide parsed-testbench memo, seen through the checker.
//!
//! Both tests record an obs session, which is process-global, so they take
//! turns; each uses a problem no other test in this file checks, so the
//! memo state it starts from is known.

use std::sync::{Barrier, Mutex};

use vgen::core::check::{check_completion, CheckOutcome};
use vgen::problems::{problem, PromptLevel};
use vgen::sim::SimConfig;

static OBS: Mutex<()> = Mutex::new(());

#[test]
fn racing_checks_parse_the_testbench_once() {
    let _serial = OBS.lock().unwrap_or_else(|e| e.into_inner());
    let p = problem(6).expect("counter");
    let start = Barrier::new(8);
    vgen::obs::enable();
    std::thread::scope(|s| {
        for _ in 0..8 {
            s.spawn(|| {
                start.wait();
                let r =
                    check_completion(p, PromptLevel::Low, p.reference_body, SimConfig::default());
                assert_eq!(r.outcome, CheckOutcome::Pass);
            });
        }
    });
    let report = vgen::obs::collect();
    assert_eq!(report.counters.get("check.tb_parse"), Some(&1));
}

#[test]
fn a_check_records_one_parse() {
    let _serial = OBS.lock().unwrap_or_else(|e| e.into_inner());
    let p = problem(2).expect("and gate");
    vgen::problems::parsed_testbench(p.testbench);
    vgen::obs::enable();
    let r = check_completion(
        p,
        PromptLevel::Low,
        "assign y = a & b;\nendmodule",
        SimConfig::default(),
    );
    let report = vgen::obs::collect();
    assert_eq!(r.outcome, CheckOutcome::Pass);
    let parses = report.events.iter().filter(|e| e.name == "parse").count();
    assert_eq!(parses, 1, "the candidate's parse only");
    assert_eq!(report.counters.get("check.tb_parse"), None);
}
