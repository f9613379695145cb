//! End-to-end integration across the workspace: workload generation →
//! scheduling (circuit and packet) → outcome invariants.

use std::collections::HashMap;
use sunflow::baselines::CircuitScheduler;
use sunflow::model::lemma1_holds;
use sunflow::packet::{Aalo, Varys};
use sunflow::prelude::*;
use sunflow::scheduler::PriorityPolicy;
use sunflow::workload::{generate, perturb_sizes, SynthConfig};

fn small_workload() -> Vec<sunflow::model::Coflow> {
    let cfg = SynthConfig {
        coflows: 40,
        ports: 32,
        horizon_secs: 300.0,
        seed: 99,
    };
    perturb_sizes(&generate(&cfg), 0.05, 1)
}

fn fabric() -> Fabric {
    Fabric::new(32, Fabric::GBPS, Fabric::default_delta())
}

#[test]
fn every_intra_engine_respects_the_circuit_lower_bound() {
    let coflows = small_workload();
    let f = fabric();
    for engine in [
        IntraEngine::Sunflow(SunflowConfig::default()),
        IntraEngine::Baseline(CircuitScheduler::Solstice),
        IntraEngine::Baseline(CircuitScheduler::Tms),
    ] {
        for (c, o) in coflows.iter().zip(run_intra(&coflows, &f, engine)) {
            let cct = o.cct(Time::ZERO);
            assert!(
                cct >= circuit_lower_bound(c, &f),
                "{} beat T_cL on coflow {}",
                engine.name(),
                c.id()
            );
        }
    }
}

#[test]
fn sunflow_meets_lemma1_on_generated_traffic() {
    let coflows = small_workload();
    let f = fabric();
    let intra = IntraScheduler::new(&f, SunflowConfig::default());
    for c in &coflows {
        let s = intra.schedule(c);
        assert!(lemma1_holds(s.cct(), c, &f), "coflow {}", c.id());
        assert_eq!(s.circuit_setups(), c.num_flows() as u64);
    }
}

#[test]
fn packet_schedulers_respect_the_packet_lower_bound() {
    let coflows = small_workload();
    let f = fabric();
    for outcomes in [
        simulate_packet(&coflows, &f, &mut Varys),
        simulate_packet(&coflows, &f, &mut Aalo::default()),
    ] {
        for (c, o) in coflows.iter().zip(outcomes) {
            // CCT includes queueing, so it's at least T_pL (up to fluid
            // rounding of a few microseconds).
            let cct = o.cct(c.arrival()).as_secs_f64();
            let tpl = packet_lower_bound(c, &f).as_secs_f64();
            assert!(cct >= tpl - 1e-5, "coflow {}: {} < {}", c.id(), cct, tpl);
        }
    }
}

#[test]
fn online_circuit_replay_completes_all_coflows() {
    let coflows = small_workload();
    let f = fabric();
    let r = simulate_circuit(&coflows, &f, &OnlineConfig::default(), &ShortestFirst);
    assert_eq!(r.outcomes.len(), coflows.len());
    for (c, o) in coflows.iter().zip(&r.outcomes) {
        assert!(o.finish >= c.arrival());
        assert!(o.cct(c.arrival()) >= circuit_lower_bound(c, &f));
        // Every flow finished no later than the coflow.
        assert!(o.flow_finish.iter().all(|&t| t <= o.finish));
    }
}

/// The circuit network can never beat the packet network for the same
/// coflow in isolation — the packet fabric is the δ = 0 ideal.
#[test]
fn circuit_never_beats_packet_in_isolation() {
    let coflows = small_workload();
    let f = fabric();
    let intra = IntraScheduler::new(&f, SunflowConfig::default());
    for c in &coflows {
        let circuit_cct = intra.schedule(c).cct();
        let packet_out = simulate_packet(std::slice::from_ref(c), &f, &mut Varys);
        let packet_cct = packet_out[0].cct(c.arrival());
        // Tolerance: packet fluid sim rounds to picoseconds.
        assert!(
            circuit_cct.as_secs_f64() >= packet_cct.as_secs_f64() - 1e-5,
            "coflow {}: circuit {} < packet {}",
            c.id(),
            circuit_cct,
            packet_cct
        );
    }
}

/// Offline batch scheduling and the online replay agree when all coflows
/// are present from t = 0 (same priorities, no rescheduling churn).
#[test]
fn offline_and_online_agree_for_simultaneous_arrivals() {
    let f = fabric();
    let coflows: Vec<_> = small_workload()
        .into_iter()
        .take(8)
        .map(|c| {
            // Rebase all arrivals to zero.
            let mut b = sunflow::model::Coflow::builder(c.id());
            for fl in c.flows() {
                b = b.flow(fl.src, fl.dst, fl.bytes);
            }
            b.build()
        })
        .collect();
    // The offline batch: IntraCoflow for each Coflow in priority order
    // against one shared PRT.
    let intra = IntraScheduler::new(&f, SunflowConfig::default());
    let mut prt = Prt::new(f.ports());
    let mut order: Vec<&Coflow> = coflows.iter().collect();
    ShortestFirst.sort(&mut order, &f);
    let offline: HashMap<u64, Time> = order
        .into_iter()
        .map(|c| (c.id(), intra.schedule_on(&mut prt, c, Time::ZERO).finish()))
        .collect();
    // Keep-policy replay matches the offline batch exactly: rescheduling
    // at completions re-derives the same plan when nothing is displaced.
    let cfg = OnlineConfig::default().active_policy(ActiveCircuitPolicy::Keep);
    let online = simulate_circuit(&coflows, &f, &cfg, &ShortestFirst);
    for o in &online.outcomes {
        assert_eq!(offline[&o.coflow], o.finish, "coflow {}", o.coflow);
    }
}

/// §4.2: combining equal-priority Coflows into one gives each constituent
/// an equal chance but "may come at the cost of a larger average CCT".
#[test]
fn combining_equal_priority_coflows_costs_average_cct() {
    let f = fabric();
    let a = Coflow::builder(0).flow(0, 0, 40_000_000).build();
    let b = Coflow::builder(1).flow(0, 1, 40_000_000).build();
    let intra = IntraScheduler::new(&f, SunflowConfig::default());

    // Served individually (equal priority broken by id): the first
    // finishes early, the second later.
    let keep = OnlineConfig::default().active_policy(ActiveCircuitPolicy::Keep);
    let separate = simulate_circuit(&[a.clone(), b.clone()], &f, &keep, &ShortestFirst).outcomes;
    let cct = |i: usize| separate[i].cct(Time::ZERO).as_secs_f64();
    let avg_separate = (cct(0) + cct(1)) / 2.0;

    // Combined: both constituents complete only when the union does.
    let merged = Coflow::merge(9, &[a, b]);
    let merged_cct = intra.schedule(&merged).cct().as_secs_f64();

    assert!(merged_cct >= avg_separate, "{merged_cct} < {avg_separate}");
}
