//! The daemon's accept loop blocks in `accept`; a `shutdown` request must
//! still end `serve_unix` promptly.

use std::sync::mpsc;
use std::time::Duration;

use vgen_serve::{request_over_unix, serve_unix, DaemonOptions};

#[test]
fn shutdown_wakes_the_blocking_accept_loop() {
    let dir = std::env::temp_dir().join(format!("vgen-daemon-wake-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create tempdir");
    let socket = dir.join("daemon.sock");
    let (done_tx, done_rx) = mpsc::channel();
    {
        let socket = socket.clone();
        std::thread::spawn(move || {
            let _ = done_tx.send(serve_unix(&socket, &DaemonOptions::default()).is_ok());
        });
    }
    let mut events = Vec::new();
    let ping =
        request_over_unix(&socket, r#"{"id": 1, "cmd": "ping"}"#, &mut events).expect("ping");
    assert!(ping.ok, "{}", ping.terminal);
    let shutdown = request_over_unix(&socket, r#"{"id": 2, "cmd": "shutdown"}"#, &mut events)
        .expect("shutdown");
    assert!(shutdown.ok, "{}", shutdown.terminal);
    assert_eq!(
        done_rx.recv_timeout(Duration::from_secs(10)),
        Ok(true),
        "serve_unix must return after shutdown"
    );
    assert!(!socket.exists(), "the socket file is removed at exit");
    let _ = std::fs::remove_dir_all(&dir);
}
