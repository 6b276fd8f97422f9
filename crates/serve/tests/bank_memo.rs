//! The mutant-bank memo, seen from the daemon: a second `eval` at the same
//! seed reuses every bank the first one built, as its metrics delta shows,
//! at any `jobs`. The daemon builds banks lazily on the request's thread
//! (a one-shot eval prebuilds them on its `jobs` threads instead).

use std::path::Path;

use vgen_serve::{request_over_unix, serve_unix, DaemonOptions, Json};

/// Sends `request` and returns the counters of its `metrics` event.
fn eval_counters(socket: &Path, request: &str) -> Json {
    let mut events = Vec::new();
    let outcome = request_over_unix(socket, request, &mut events).expect("request");
    assert!(outcome.ok, "eval must complete: {}", outcome.terminal);
    String::from_utf8(events)
        .expect("utf-8 events")
        .lines()
        .filter_map(|line| Json::parse(line).ok())
        .find(|e| e.get("event").and_then(Json::as_str) == Some("metrics"))
        .and_then(|e| e.get("metrics")?.get("counters").cloned())
        .expect("a metrics event with counters")
}

fn counter(counters: &Json, name: &str) -> u64 {
    counters.get(name).and_then(Json::as_u64).unwrap_or(0)
}

#[test]
fn second_eval_at_one_seed_reuses_every_bank() {
    let dir = std::env::temp_dir().join(format!("vgen-bank-memo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tempdir");
    let socket = dir.join("daemon.sock");
    let daemon = {
        let socket = socket.clone();
        std::thread::spawn(move || {
            serve_unix(&socket, &DaemonOptions::default()).expect("daemon exits cleanly")
        })
    };

    // All 17 paper problems, one cell each; the two rows of a seed are
    // different models, and the model is not a bank input.
    let eval = |id: u32, model: &str, seed: u64, jobs: usize| {
        format!(
            concat!(
                r#"{{"id": {}, "cmd": "eval", "journal": "{}", "model": "{}", "#,
                r#""levels": "L", "temperatures": [0.1], "ns": [1], "seed": {}, "#,
                r#""jobs": {}, "metrics": true}}"#
            ),
            id,
            dir.join(format!("eval-{id}.log")).display(),
            model,
            seed,
            jobs
        )
    };
    // One render per distinct (op, site, parity) key the 17 banks draw
    // before their functional pools fill: 109 at seed 4242 and 112 at seed
    // 4545, as a `"jobs": 1` eval at each seed counts them.
    for (seed, jobs, renders, first_id) in [(4242, 1, 109, 1), (4545, 4, 112, 3)] {
        let first = eval_counters(&socket, &eval(first_id, "CodeGen-16B", seed, jobs));
        // At `"jobs": 4` too, each bank is built once, none skipped.
        assert_eq!(counter(&first, "lm.bank_build"), 17, "jobs {jobs}");
        assert_eq!(counter(&first, "lm.bank_hit"), 0, "jobs {jobs}");
        assert_eq!(counter(&first, "lm.mutant_render"), renders, "jobs {jobs}");
        let second = eval_counters(&socket, &eval(first_id + 1, "CodeGen-2B", seed, jobs));
        assert_eq!(counter(&second, "lm.bank_build"), 0, "jobs {jobs}");
        assert_eq!(counter(&second, "lm.bank_hit"), 17, "jobs {jobs}");
        assert_eq!(counter(&second, "lm.mutant_render"), 0, "jobs {jobs}");
    }

    let mut events = Vec::new();
    request_over_unix(&socket, r#"{"id": 5, "cmd": "shutdown"}"#, &mut events).expect("shutdown");
    daemon.join().expect("daemon thread");
    let _ = std::fs::remove_dir_all(&dir);
}
