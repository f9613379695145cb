//! A JSONL line cannot crash the daemon: a flow whose transfer time
//! overflows the picosecond clock and an `arrival_ms` beyond the wire
//! format's horizon each get one typed ack, through both ingestion
//! loops, and the next ordinary line is still admitted and completes.

use ocs_daemon::{run_pipelined, run_to_completion, Daemon, DaemonConfig, PipelineConfig};
use ocs_model::{Bandwidth, Dur, Fabric};
use std::io::{Cursor, Write};

/// What follows every hostile line: admitted, and it must complete.
const ORDINARY: &str = r#"{"id": 3, "arrival_ms": 10, "flows": [[0, 1, 1000000]]}"#;

fn daemon() -> Daemon {
    Daemon::new(&DaemonConfig {
        fabric: Fabric::new(4, Bandwidth::GBPS, Dur::from_micros(1_000)),
        ..DaemonConfig::default()
    })
}

/// Feed `line` then [`ORDINARY`] through the sequential and the
/// pipelined loop; check each loop's two acks and its drained daemon.
fn assert_refused_then_ordinary_completes(line: &str, typed_ack: &str) {
    let input = format!("{line}\n{ORDINARY}\n");
    let mut sequential = (daemon(), Vec::new());
    run_to_completion(
        &mut sequential.0,
        Cursor::new(input.clone()),
        Some(&mut sequential.1 as &mut dyn Write),
    )
    .unwrap();
    let mut pipelined = (daemon(), Vec::new());
    run_pipelined(
        &mut pipelined.0,
        Cursor::new(input),
        Some(&mut pipelined.1),
        &PipelineConfig::default(),
    )
    .unwrap();
    for (name, (daemon, acks)) in [("sequential", sequential), ("pipelined", pipelined)] {
        let acks = String::from_utf8(acks).unwrap();
        let acks: Vec<&str> = acks.lines().collect();
        assert_eq!(acks.len(), 2, "{name}: {acks:?}");
        assert_eq!(acks[0], typed_ack, "{name}");
        assert_eq!(acks[1], r#"{"line": 2, "id": 3, "ok": true}"#, "{name}");
        let telemetry = daemon.telemetry();
        assert!(daemon.is_idle(), "{name}");
        assert_eq!((telemetry.admitted, telemetry.completed), (1, 1), "{name}");
    }
}

#[test]
fn a_flow_longer_than_the_clock_is_refused_as_demand_cap() {
    assert_refused_then_ordinary_completes(
        r#"{"id": 1, "arrival_ms": 5, "flows": [[0, 1, 3000000000000000]]}"#,
        r#"{"line": 1, "id": 1, "ok": false, "reject": "demand_cap"}"#,
    );
}

#[test]
fn an_arrival_that_overflows_the_clock_is_a_parse_error() {
    assert_refused_then_ordinary_completes(
        r#"{"id": 2, "arrival_ms": 18446744073709, "flows": [[0, 1, 1000000]]}"#,
        r#"{"line": 1, "ok": false, "error": "\"arrival_ms\" must be at most 4294967296 (at byte 0)"}"#,
    );
}

#[test]
fn an_arrival_that_wraps_the_clock_is_a_parse_error() {
    assert_refused_then_ordinary_completes(
        r#"{"id": 2, "arrival_ms": 18446744073710, "flows": [[0, 1, 1000000]]}"#,
        r#"{"line": 1, "ok": false, "error": "\"arrival_ms\" must be at most 4294967296 (at byte 0)"}"#,
    );
}
