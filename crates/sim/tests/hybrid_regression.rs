//! Hybrid-backend byte-identity and golden regression tests.
//!
//! A [`HybridBackend`] whose split policy routes nothing to the packet
//! fabric must be *byte-identical* to the pure [`SunflowBackend`] path
//! — the refactor that threaded the `SplitPolicy` seam through
//! admission must not perturb a single circuit event. The degenerate
//! route pinned here is [`NonSplitting`] with a zero threshold
//! (nothing is "small", every Coflow keeps the circuits), exercised at
//! both the default and a vanishingly slim packet bandwidth.
//!
//! Two more goldens pin the [`ThresholdSplit`] and the [`SolverSplit`]
//! hybrid replays on the 40-Coflow fixture of `replay_regression.rs`, so
//! split-routing, solver or merge changes that shift one timestamp are
//! caught too.
//!
//! [`SolverSplit`]: sunflow_core::SolverSplit

mod common;

use common::{arb_workload, fabric, fingerprint, in_input_order, policies, workload};
use ocs_model::{Coflow, Fabric, ScheduleOutcome, Time};
use ocs_sim::{
    simulate_circuit, FullService, HybridBackend, HybridConfig, OnlineConfig, ReplayStats,
    SchedulingBackend,
};
use proptest::prelude::*;
use sunflow_core::{
    NonSplitting, PriorityPolicy, ShortestFirst, SplitKind, SplitPolicy, ThresholdSplit,
};

/// Replay `coflows` through a [`HybridBackend`] under `split`,
/// returning outcomes in input order and the merged replay counters.
fn run_hybrid(
    coflows: &[Coflow],
    fabric: &Fabric,
    config: &HybridConfig,
    prio: &dyn PriorityPolicy,
    split: Box<dyn SplitPolicy + Send + '_>,
) -> (Vec<ScheduleOutcome>, ReplayStats) {
    let mut backend =
        HybridBackend::new(fabric, config, Box::new(prio), split).expect("valid config");
    for c in coflows {
        backend.submit(c.clone()).expect("fixture fits the fabric");
    }
    backend.advance_to(Time::MAX, &mut FullService);
    assert!(backend.status().idle, "replay must drain");
    let outcomes = backend
        .drain_completions()
        .into_iter()
        .map(|c| c.outcome)
        .collect();
    (
        in_input_order(coflows, outcomes),
        backend.status().stats.expect("hybrid keeps stats"),
    )
}

/// The classic threshold hybrid at the config's smallness threshold.
fn run_threshold(coflows: &[Coflow], config: &HybridConfig) -> (Vec<ScheduleOutcome>, ReplayStats) {
    run_hybrid(
        coflows,
        &fabric(),
        config,
        &ShortestFirst,
        Box::new(ThresholdSplit::new(config.small_flow_threshold)),
    )
}

/// The byte solver as `hybrid:solver` builds it (resolution 1024).
fn run_solver(coflows: &[Coflow]) -> (Vec<ScheduleOutcome>, ReplayStats) {
    let config = HybridConfig::default();
    let split = SplitKind::Solver.build(config.small_flow_threshold);
    run_hybrid(coflows, &fabric(), &config, &ShortestFirst, split)
}

/// The [`ThresholdSplit`] hybrid replay on the fixture, pinned: a
/// split-routing, carve or completion-merge change that shifts one
/// timestamp fails here. The counters double-check that the golden
/// genuinely exercises both fabrics.
#[test]
fn threshold_hybrid_fixture_matches_golden() {
    let (outcomes, stats) = run_threshold(&workload(), &HybridConfig::default());
    assert!(stats.subflows_split > 0, "fixture must split subflows");
    assert!(stats.bytes_to_packet > 0, "fixture must route bytes");
    assert!(stats.reservations_made > 0, "fixture must use the circuits");
    assert_eq!(fingerprint(&outcomes), GOLDEN_HYBRID_THRESHOLD);
}

/// The solver hybrid replay on the fixture, pinned: every bisection
/// branch and every carve the solver picks feeds the circuit and packet
/// planes, so a solver change that picks one different fraction shifts
/// timestamps here.
#[test]
fn solver_hybrid_fixture_matches_golden() {
    let (outcomes, stats) = run_solver(&workload());
    assert!(stats.subflows_split > 0, "the solver must carve subflows");
    assert!(stats.bytes_to_packet > 0, "the solver must route bytes");
    assert_eq!(fingerprint(&outcomes), GOLDEN_HYBRID_SOLVER);
}

/// A zero smallness threshold degenerates [`ThresholdSplit`] to pure
/// OCS: the hybrid replay must be byte-identical to
/// `simulate_circuit` on the same fixture.
#[test]
fn degenerate_threshold_matches_pure_circuit_on_fixture() {
    let coflows = workload();
    let f = fabric();
    let cfg = HybridConfig {
        small_flow_threshold: 0,
        ..HybridConfig::default()
    };
    let (outcomes, stats) = run_threshold(&coflows, &cfg);
    let pure = simulate_circuit(&coflows, &f, &cfg.online, &ShortestFirst);
    assert_eq!(stats.subflows_split, 0);
    assert_eq!(stats.bytes_to_packet, 0);
    assert_eq!(fingerprint(&outcomes), fingerprint(&pure.outcomes));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Degenerate-hybrid equivalence, property-tested: on random
    /// workloads, a [`HybridBackend`] with a zero [`NonSplitting`]
    /// threshold (nothing is "small", every Coflow keeps the
    /// circuits) replays byte-identical to `simulate_circuit` under
    /// every priority policy — both at the default packet bandwidth
    /// and over a vanishingly slim (0.1%) packet fabric, so the
    /// hybrid clock and merge machinery is provably transparent
    /// regardless of the idle fabric's rate.
    #[test]
    fn degenerate_hybrid_equivalence(coflows in arb_workload()) {
        let f = fabric();
        let cfg = HybridConfig::default();
        let tiny_frac = HybridConfig {
            packet_bandwidth_fraction: 1e-3,
            ..HybridConfig::default()
        };
        for (pname, prio) in policies(&coflows) {
            let pure = simulate_circuit(&coflows, &f, &OnlineConfig::default(), prio.as_ref());
            let golden = fingerprint(&pure.outcomes);
            let (zero, _) = run_hybrid(
                &coflows,
                &f,
                &cfg,
                prio.as_ref(),
                Box::new(NonSplitting::new(0)),
            );
            prop_assert_eq!(
                fingerprint(&zero),
                golden,
                "zero-threshold NonSplitting hybrid diverged from simulate_circuit under {}",
                pname
            );
            let (slim, _) = run_hybrid(
                &coflows,
                &f,
                &tiny_frac,
                prio.as_ref(),
                Box::new(NonSplitting::new(0)),
            );
            prop_assert_eq!(
                fingerprint(&slim),
                golden,
                "tiny-frac NonSplitting hybrid diverged from simulate_circuit under {}",
                pname
            );
        }
    }
}

/// Prints the hybrid fingerprint so it can be (re)captured:
/// `cargo test -p ocs-sim --test hybrid_regression capture -- --ignored --nocapture`.
#[test]
#[ignore = "golden capture helper, not a check"]
fn capture() {
    let (outcomes, _) = run_threshold(&workload(), &HybridConfig::default());
    println!("GOLDEN_HYBRID_THRESHOLD: {:#018x}", fingerprint(&outcomes));
    let (outcomes, _) = run_solver(&workload());
    println!("GOLDEN_HYBRID_SOLVER: {:#018x}", fingerprint(&outcomes));
}

// Golden fingerprint, captured from the `capture` test above on the
// 40-Coflow fixture under the default hybrid config (2 MB smallness
// threshold, 10% packet bandwidth).
const GOLDEN_HYBRID_THRESHOLD: u64 = 0xcf1337b4fc0c8b11;
// Same fixture and config under `SplitKind::Solver` (resolution 1024).
const GOLDEN_HYBRID_SOLVER: u64 = 0x9547bdce9eb97bab;
