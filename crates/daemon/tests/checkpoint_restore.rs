//! Checkpoint/resume of the whole service: interrupting a [`Daemon`] at
//! an arbitrary instant with `checkpoint`, rebuilding it with `restore`
//! and continuing must be invisible — the same status JSON, the same
//! Prometheus text and the same completions as a daemon that ran the
//! same commands without stopping — on every selector, under every
//! priority policy, every in-flight-circuit policy, the starvation
//! guard and seeded faults.

use ocs_daemon::{
    run_pipelined, Daemon, DaemonConfig, FaultConfig, OnFull, PipelineConfig, PolicyKind,
};
use ocs_model::time::PS_PER_MS;
use ocs_model::{Bandwidth, Coflow, Dur, Fabric, Time};
use ocs_sim::{ActiveCircuitPolicy, BackendKind};
use proptest::prelude::*;
use std::io::Cursor;
use sunflow_core::{GuardConfig, StarvationGuard};

const PORTS: usize = 4;

const ACTIVE: [ActiveCircuitPolicy; 3] = [
    ActiveCircuitPolicy::Keep,
    ActiveCircuitPolicy::Yield,
    ActiveCircuitPolicy::Preempt,
];

fn fabric() -> Fabric {
    Fabric::new(PORTS, Bandwidth::GBPS, Dur::from_millis(10))
}

fn guard() -> GuardConfig {
    GuardConfig::new(Dur::from_millis(200), Dur::from_millis(40))
}

/// Every selector in `BackendKind::ALL`, then `portgroups:2`.
fn selectors() -> Vec<BackendKind> {
    let groups: BackendKind = "portgroups:2".parse().expect("valid selector");
    BackendKind::ALL.into_iter().chain([groups]).collect()
}

/// The selectors that schedule with the Sunflow stepper (and so honour
/// the guard and the in-flight-circuit policy).
fn sunflow_selectors() -> Vec<BackendKind> {
    let sunflow = |k: &BackendKind| k.name() == "Sunflow" || k.name() == "Hybrid";
    selectors().into_iter().filter(sunflow).collect()
}

fn is_port_groups(kind: BackendKind) -> bool {
    matches!(kind, BackendKind::PortGroups { .. })
}

/// Faults that fire often but retry no sooner than δ: a sub-δ backoff
/// does not terminate under Preempt.
fn faults(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        setup_failure_per_mille: 120,
        port_flap_per_mille: 80,
        delta_inflation_per_mille: 40,
        base_backoff: fabric().delta(),
        ..FaultConfig::default()
    }
}

fn config(
    backend: BackendKind,
    policy: PolicyKind,
    active: ActiveCircuitPolicy,
    guarded: bool,
    faults: FaultConfig,
) -> DaemonConfig {
    let mut cfg = DaemonConfig {
        fabric: fabric(),
        backend,
        policy,
        faults,
        ..DaemonConfig::default()
    };
    cfg.online = cfg.online.active_policy(active).guard(guarded.then(guard));
    cfg
}

/// `(arrival_ms, flows[(src, dst, megabytes)])` per Coflow.
type Spec = Vec<(u64, Vec<(usize, usize, u64)>)>;

fn arb_workload() -> impl Strategy<Value = Spec> {
    proptest::collection::vec(
        (
            0u64..400,
            proptest::collection::vec((0..PORTS, 0..PORTS, 1u64..12), 1..4),
        ),
        1..10,
    )
}

/// The Coflows of `spec`, in arrival order. With `group_local`, every
/// Coflow's flows are folded into one half of the fabric (alternating
/// by id), which is what `portgroups:2` accepts.
fn build(spec: &Spec, group_local: bool) -> Vec<Coflow> {
    let half = PORTS / 2;
    let mut coflows: Vec<Coflow> = spec
        .iter()
        .enumerate()
        .map(|(id, (arrival_ms, flows))| {
            let base = id % 2 * half;
            let mut b = Coflow::builder(id as u64).arrival(Time::from_millis(*arrival_ms));
            for &(src, dst, mb) in flows {
                let (src, dst) = match group_local {
                    true => (base + src % half, base + dst % half),
                    false => (src, dst),
                };
                b = b.flow(src, dst, mb * 1_000_000);
            }
            b.build()
        })
        .collect();
    coflows.sort_by_key(|c| (c.arrival(), c.id()));
    coflows
}

/// Every externally observable output: status JSON, Prometheus text and
/// `(coflow, start, finish, setups, first_service)` per completion, in
/// completion order. The admission-latency histogram is wall-clock and
/// lives outside the command log, so it is cut from both texts.
type Observed = (String, String, Vec<(u64, u64, u64, u64, Option<u64>)>);

fn observe(d: &Daemon) -> Observed {
    let json = d.status_json();
    let json = json[..json.find("\"admit_latency_ns\"").expect("last key")].to_string();
    let prom = d.prometheus();
    let prom = prom.lines().filter(|l| !l.contains("admit_latency"));
    let completions = d.completions().iter().map(|c| {
        let o = &c.outcome;
        let first = c.first_service.map(|t| t.as_ps());
        (
            o.coflow,
            o.start.as_ps(),
            o.finish.as_ps(),
            o.circuit_setups,
            first,
        )
    });
    (
        json,
        prom.collect::<Vec<_>>().join("\n"),
        completions.collect(),
    )
}

/// One step of a client session.
#[derive(Clone, Debug)]
enum Step {
    Submit(Coflow),
    AdvanceTo(Time),
    Compact,
    /// Checkpoint, drop the daemon and continue from the restored copy.
    Restart,
}

/// The session every test drives: arrivals up to `cut` submitted up
/// front (plus one duplicate and one Coflow off the fabric, which
/// admission rejects), `advance_to(cut)`, a restart, then every later
/// arrival submitted just in time and a final drain.
fn session(coflows: &[Coflow], cut: Time) -> Vec<Step> {
    let (early, late): (Vec<_>, Vec<_>) = coflows.iter().partition(|c| c.arrival() <= cut);
    let mut steps: Vec<Step> = early.iter().map(|&c| Step::Submit(c.clone())).collect();
    if let Some(&first) = early.first() {
        steps.push(Step::Submit(first.clone()));
    }
    let off_fabric = Coflow::builder(u64::MAX).flow(0, PORTS, 1_000).build();
    steps.push(Step::Submit(off_fabric));
    steps.push(Step::AdvanceTo(cut));
    steps.push(Step::Restart);
    for c in late {
        steps.push(Step::AdvanceTo(c.arrival()));
        steps.push(Step::Submit(c.clone()));
    }
    steps
}

/// Run `steps` on a fresh daemon, honouring restarts only when asked
/// to, and drain.
fn run(cfg: &DaemonConfig, steps: &[Step], restart: bool) -> Daemon {
    let mut d = Daemon::new(cfg);
    for step in steps {
        match step {
            Step::Submit(c) => {
                let _ = d.submit(c.clone());
            }
            Step::AdvanceTo(t) => {
                d.advance_to(*t);
            }
            Step::Compact => {
                d.compact();
            }
            Step::Restart if restart => {
                let ckpt = d.checkpoint();
                drop(d);
                d = Daemon::restore(&ckpt);
            }
            Step::Restart => {}
        }
    }
    d.drain();
    d
}

/// The interrupted and the uninterrupted session agree on everything.
fn assert_invisible(cfg: &DaemonConfig, steps: &[Step], label: &str) {
    let whole = run(cfg, steps, false);
    let resumed = run(cfg, steps, true);
    assert!(resumed.is_idle(), "{label}: restored daemon did not drain");
    let (want, got) = (observe(&whole), observe(&resumed));
    assert_eq!(want.0, got.0, "{label}: status JSON");
    assert_eq!(want.1, got.1, "{label}: Prometheus text");
    assert_eq!(want.2, got.2, "{label}: completions");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// checkpoint → restore → continue ≡ never interrupted, on every
    /// selector, priority policy, in-flight-circuit policy, with and
    /// without the guard, at an arbitrary instant (possibly before the
    /// first arrival, possibly past the last completion).
    #[test]
    fn checkpoint_restore_continue_is_invisible(
        spec in arb_workload(),
        cut_ms in 0u64..1_200,
        selector in 0usize..BackendKind::ALL.len() + 1,
        policy in 0usize..PolicyKind::ALL.len(),
        active in 0usize..ACTIVE.len(),
        guarded in any::<bool>(),
    ) {
        let kind = selectors()[selector];
        let coflows = build(&spec, is_port_groups(kind));
        let cfg = config(
            kind,
            PolicyKind::ALL[policy],
            ACTIVE[active],
            guarded,
            FaultConfig::default(),
        );
        assert_invisible(&cfg, &session(&coflows, Time::from_millis(cut_ms)), &format!("{cfg:?}"));
    }

    /// The same under seeded faults: the injector's streaks and backoff
    /// state are rebuilt by the replayed log, not captured.
    #[test]
    fn checkpoint_restore_is_invisible_under_faults(
        spec in arb_workload(),
        cut_ms in 0u64..1_200,
        selector in 0usize..BackendKind::ALL.len() + 1,
        active in 0usize..ACTIVE.len(),
        seed in any::<u64>(),
    ) {
        let kind = selectors()[selector];
        let coflows = build(&spec, is_port_groups(kind));
        let cfg = config(kind, PolicyKind::ShortestFirst, ACTIVE[active], false, faults(seed));
        assert_invisible(&cfg, &session(&coflows, Time::from_millis(cut_ms)), &format!("{cfg:?}"));
    }
}

/// A fixed workload that keeps every port busy for a few hundred ms.
fn busy_workload(group_local: bool) -> Vec<Coflow> {
    let spec: Spec = (0..12u64)
        .map(|i| {
            let s = (i % 4) as usize;
            let flows = vec![(s, (s + 1) % 4, 2 + i % 5), ((s + 2) % 4, s, 3)];
            (i * 35, flows)
        })
        .collect();
    build(&spec, group_local)
}

/// Seeded faults on every selector, at cuts before, during and after
/// the busy period, under every in-flight-circuit policy: the faulted
/// run resumes identically, and the faults did fire where a circuit
/// scheduler runs.
#[test]
fn faulted_daemons_resume_identically_on_every_selector() {
    for kind in selectors() {
        let coflows = busy_workload(is_port_groups(kind));
        for active in ACTIVE {
            for cut_ms in [0, 130, 395] {
                let cfg = config(kind, PolicyKind::ShortestFirst, active, false, faults(42));
                let steps = session(&coflows, Time::from_millis(cut_ms));
                assert_invisible(&cfg, &steps, &format!("{kind} {active:?}"));
                let d = run(&cfg, &steps, true);
                if !d.status_json().contains("\"switch_model\": \"packet\"") {
                    assert!(
                        d.fault_stats().retries > 0,
                        "{kind} {active:?}: no fault fired"
                    );
                }
            }
        }
    }
}

/// `Compact` commands inside the log replay like any other, and a
/// daemon that was itself restored checkpoints and restores again.
#[test]
fn compaction_and_chained_restores_resume_identically() {
    for kind in selectors() {
        for guarded in [false, true] {
            let coflows = busy_workload(is_port_groups(kind));
            let (first, rest) = coflows.split_at(5);
            let mut steps: Vec<Step> = first.iter().cloned().map(Step::Submit).collect();
            steps.extend([
                Step::AdvanceTo(Time::from_millis(90)),
                Step::Compact,
                Step::Restart,
                Step::AdvanceTo(Time::from_millis(140)),
            ]);
            for c in rest {
                steps.push(Step::AdvanceTo(c.arrival()));
                steps.push(Step::Submit(c.clone()));
                if c.id() == 8 {
                    steps.extend([Step::Compact, Step::Restart, Step::Compact]);
                }
            }
            steps.push(Step::Restart);
            let cfg = config(
                kind,
                PolicyKind::LongestFirst,
                ActiveCircuitPolicy::Yield,
                guarded,
                FaultConfig::default(),
            );
            assert_invisible(&cfg, &steps, &format!("{kind}"));
        }
    }
}

/// A daemon fed through the pipelined front end checkpoints like one
/// fed synchronously: whatever batches the reader thread formed are in
/// the log, so the restored daemon continues exactly as the original.
#[test]
fn pipelined_ingest_then_restore_continues_identically() {
    for kind in selectors() {
        let coflows = busy_workload(is_port_groups(kind));
        let (head, tail) = coflows.split_at(8);
        let jsonl = ocs_workload::to_jsonl(head);
        let cfg = config(
            kind,
            PolicyKind::ShortestFirst,
            ActiveCircuitPolicy::Yield,
            false,
            faults(7),
        );
        let mut original = Daemon::new(&cfg);
        let pipeline = PipelineConfig {
            channel_capacity: 2,
            on_full: OnFull::Wait,
            ..PipelineConfig::default()
        };
        let report = run_pipelined(
            &mut original,
            Cursor::new(jsonl),
            None::<&mut std::io::Sink>,
            &pipeline,
        )
        .expect("in-memory ingest");
        assert_eq!(report.accepted, 8, "{kind}");
        let mut restored = Daemon::restore(&original.checkpoint());
        for d in [&mut original, &mut restored] {
            let later = tail.iter().map(|c| {
                let mut b = Coflow::builder(c.id()).arrival(d.now() + Dur::from_millis(c.id()));
                for f in c.flows() {
                    b = b.flow(f.src, f.dst, f.bytes);
                }
                b.build()
            });
            for c in later.collect::<Vec<_>>() {
                d.advance_to(c.arrival());
                d.submit(c).expect("admitted");
            }
            d.drain();
        }
        assert_eq!(observe(&original), observe(&restored), "{kind}");
        assert_eq!(restored.telemetry().completed, 12, "{kind}");
    }
}

/// A cut inside a guard window under way after an idle gap, with one
/// arrival inside the window before the cut and one after it (an
/// arrival on the window's own circuit, while a larger Coflow is
/// active): the restored daemon serves both exactly as the original.
#[test]
fn a_cut_inside_a_guard_window_resumes_identically() {
    let window = StarvationGuard::new(PORTS, guard()).window(0);
    let at = |ms: u64| window.start + Dur::from_millis(ms);
    for kind in sunflow_selectors() {
        let group_local = is_port_groups(kind);
        let mut spec: Spec = vec![(0, vec![(0, 1, 1)])];
        let start_ms = window.start.as_ps() / PS_PER_MS;
        spec.push((start_ms + 2, vec![(2, 3, 30), (3, 2, 25)]));
        spec.push((start_ms + 5, vec![(1, 1, 1)]));
        spec.push((start_ms + 22, vec![(2, 2, 1), (0, 0, 2)]));
        let coflows = build(&spec, group_local);
        assert!(coflows.iter().all(|c| c.arrival() < window.end));
        for policy in PolicyKind::ALL {
            for active in ACTIVE {
                for cut in [window.start, at(12), at(22)] {
                    let cfg = config(kind, policy, active, true, FaultConfig::default());
                    let steps = session(&coflows, cut);
                    assert_invisible(&cfg, &steps, &format!("{kind} {policy:?} {active:?} {cut}"));
                }
            }
        }
    }
}
