//! Outcome fingerprints of the paper's own trace replay.
//!
//! The benchmark's `fb_replay` and `fb_guard` workloads replay
//! [`paper_workload`] on the paper's fabric under Sunflow, the second
//! under the sparse starvation guard (`T` = 60 s, `τ` = 100 ms). The
//! small fixtures of `crates/sim/tests` pin the replay's decisions; these
//! two pin the exact runs the benchmark times, so a speed change to the
//! replay cannot move a single outcome of them unnoticed. The values were
//! captured before the replay learned to plan only as far as the next
//! arrival.

use sunflow::model::{Dur, Fabric, ScheduleOutcome};
use sunflow::scheduler::{GuardConfig, ShortestFirst};
use sunflow::sim::{run_trace, OnlineConfig, SchedulingBackend, SunflowBackend};
use sunflow::workload::paper_workload;

/// FNV-1a over every observable field of the outcomes, then `extra`.
fn fingerprint(outcomes: &[ScheduleOutcome], extra: u64) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for o in outcomes {
        eat(o.coflow);
        eat(o.start.as_ps());
        eat(o.finish.as_ps());
        eat(o.circuit_setups);
        for f in &o.flow_finish {
            eat(f.as_ps());
        }
    }
    eat(extra);
    h
}

/// The paper workload replayed by `run_trace` under `config`: the
/// outcomes' fingerprint and the guard windows that elapsed.
fn replay(config: &OnlineConfig) -> (u64, u64) {
    let coflows = paper_workload();
    let mut backend =
        SunflowBackend::new(&Fabric::paper_default(), config, Box::new(ShortestFirst));
    let outcomes = run_trace(&coflows, &mut backend);
    assert_eq!(outcomes.len(), coflows.len());
    let windows = backend.status().guard_windows;
    (fingerprint(&outcomes, windows), windows)
}

fn sparse_guard() -> OnlineConfig {
    OnlineConfig::default().guard(GuardConfig::new(Dur::from_secs(60), Dur::from_millis(100)))
}

#[test]
fn fb_replay_outcomes_match_golden() {
    assert_eq!(replay(&OnlineConfig::default()).0, GOLDEN_FB_REPLAY);
}

#[test]
fn fb_guard_outcomes_match_golden() {
    let (print, windows) = replay(&sparse_guard());
    assert_eq!(windows, 58);
    assert_eq!(print, GOLDEN_FB_GUARD);
}

#[test]
#[ignore = "golden capture helper, not a check"]
fn capture() {
    println!(
        "GOLDEN_FB_REPLAY: {:#018x}",
        replay(&OnlineConfig::default()).0
    );
    let (print, windows) = replay(&sparse_guard());
    println!("GOLDEN_FB_GUARD: {print:#018x} ({windows} windows)");
}

const GOLDEN_FB_REPLAY: u64 = 0x9c56f3c306729481;
const GOLDEN_FB_GUARD: u64 = 0xa38876c389457fd3;
