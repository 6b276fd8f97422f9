//! A `vgen-obs` lane outlives its thread, so the unix daemon records every
//! connection onto one lane: the lane table, which every live snapshot
//! copies, does not grow with the connections a daemon has served.

use vgen_serve::{request_over_unix, serve_unix, DaemonOptions};

#[test]
fn connections_that_run_checks_share_one_lane() {
    let dir = std::env::temp_dir().join(format!("vgen-daemon-lanes-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tempdir");
    let socket = dir.join("daemon.sock");
    let daemon = {
        let socket = socket.clone();
        std::thread::spawn(move || serve_unix(&socket, &DaemonOptions::default()))
    };
    let mut events = Vec::new();
    for id in 1..=20 {
        let check = format!(
            r#"{{"id":{id},"cmd":"check","problem":2,"source":"assign y = a & b;\nendmodule"}}"#
        );
        let outcome = request_over_unix(&socket, &check, &mut events).expect("check");
        assert!(outcome.ok, "{}", outcome.terminal);
    }
    let lanes = vgen_obs::snapshot().lanes;
    let shutdown = request_over_unix(&socket, r#"{"id": 99, "cmd": "shutdown"}"#, &mut events)
        .expect("shutdown");
    assert!(shutdown.ok, "{}", shutdown.terminal);
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon exits cleanly");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        lanes.iter().all(|name| !name.starts_with("vgen-conn")),
        "{lanes:?}"
    );
    assert!(lanes.len() < 20, "one lane per connection: {lanes:?}");
}
