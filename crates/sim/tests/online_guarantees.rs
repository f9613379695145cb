//! The paper's inter-Coflow guarantees, checked through the online
//! replay rather than an offline batch planner:
//!
//! * with every arrival at t = 0 and in-flight circuits kept, the
//!   stepper, the reference replay and one policy-ordered batch of
//!   Algorithm 1 on a single reservation list are the same schedule —
//!   the online replay *is* §4.2's InterCoflow when nothing arrives
//!   later (and only under `Keep`: `Yield` and `Preempt` cut circuits
//!   the batch never cuts);
//! * a higher-priority Coflow is never blocked by a lower one (Figure
//!   2), every flow receives exactly its demand, and the circuits the
//!   replay executed never share a port;
//! * Lemma 1 (`CCT ≤ 2·T_cL`) and Lemma 2 hold for a Coflow alone under
//!   every active-circuit policy;
//! * shifting every arrival by Δ shifts every finish by Δ — with a
//!   guard only when Δ is a multiple of `N·(T+τ)`, the period of the
//!   window timetable including its round-robin assignment.

mod common;

use common::ref_replay::{ref_schedule_demands, RefTable};
use common::{
    policies, random_workload, ref_replay, stepper_replay, xorshift, Replay, Submission::UpFront,
    ACTIVE_POLICIES,
};
use ocs_model::{
    circuit_lower_bound, lemma1_holds, lemma2_holds, served_per_flow, validate_port_constraints,
    Bandwidth, Coflow, Dur, Fabric, FlowRef, Reservation, ScheduleOutcome, Time,
};
use ocs_sim::{
    simulate_circuit, ActiveCircuitPolicy, FullService, OnlineConfig, SettleHook, SettleVerdict,
};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};
use sunflow_core::{
    Demand, GuardConfig, IntraScheduler, PriorityPolicy, ShortestFirst, SunflowConfig,
};

fn fabric(ports: usize) -> Fabric {
    Fabric::new(ports, Bandwidth::GBPS, Dur::from_millis(10))
}

fn mb(m: u64) -> u64 {
    m * 1_000_000
}

fn keep() -> OnlineConfig {
    OnlineConfig::default().active_policy(ActiveCircuitPolicy::Keep)
}

/// Records every circuit as it settles and lets it deliver in full: the
/// executed schedule.
#[derive(Default)]
struct Record(Vec<Reservation>);

impl SettleHook for Record {
    fn on_settle(&mut self, r: &Reservation, available: Dur, _now: Time) -> SettleVerdict {
        self.0.push(*r);
        SettleVerdict::full(available)
    }
}

/// Replay `coflows` under Keep and shortest-first: outcomes in input
/// order and every circuit executed.
fn replay_recorded(coflows: &[Coflow], f: &Fabric) -> (Vec<ScheduleOutcome>, Vec<Reservation>) {
    let mut record = Record::default();
    let (replay, _) = stepper_replay(coflows, f, &keep(), &ShortestFirst, &mut record, UpFront);
    (replay.outcomes, record.0)
}

/// Every flow of every Coflow was served exactly its processing time.
fn assert_demand_served(coflows: &[Coflow], executed: &[Reservation], f: &Fabric) {
    let served = served_per_flow(executed, f.delta());
    for c in coflows {
        for (idx, fl) in c.flows().iter().enumerate() {
            let key = FlowRef {
                coflow: c.id(),
                flow_idx: idx,
            };
            assert_eq!(served[&key], f.processing_time(fl.bytes), "{key:?}");
        }
    }
}

/// The higher-priority Coflow must finish as if it were alone on the
/// fabric; the lower-priority one works around it.
#[test]
fn priority_coflow_is_never_blocked() {
    let f = fabric(4);
    let hi = Coflow::builder(0).flow(0, 0, mb(1)).build(); // T_pL small
    let lo = Coflow::builder(1)
        .flow(0, 0, mb(100))
        .flow(0, 1, mb(100))
        .build();
    let (outcomes, executed) = replay_recorded(&[hi, lo], &f);
    // hi alone would take delta + 8 ms = 18 ms.
    assert_eq!(outcomes[0].cct(Time::ZERO), Dur::from_millis(18));
    // Port constraints hold across BOTH Coflows' circuits.
    validate_port_constraints(&executed).unwrap();
}

/// Figure 2 shape: C2's reservation on a port needed later by C1 must
/// be truncated, not block C1.
#[test]
fn figure2_truncation_behaviour() {
    let f = fabric(4);
    // C1: two flows from in.0; C2 shares out.1 via in.1.
    let c1 = Coflow::builder(0)
        .flow(0, 0, mb(1))
        .flow(0, 1, mb(1))
        .build();
    let c2 = Coflow::builder(1).flow(1, 1, mb(100)).build();
    let (outcomes, executed) = replay_recorded(&[c1, c2], &f);
    // C1 (higher priority, smaller T_pL) is optimal: 2 x (10+8) ms.
    assert_eq!(outcomes[0].cct(Time::ZERO), Dur::from_millis(36));
    // C2 is split around C1's use of out.1.
    assert!(executed.iter().filter(|r| r.flow.coflow == 1).count() >= 2);
    validate_port_constraints(&executed).unwrap();
}

#[test]
fn arrival_times_are_respected() {
    let f = fabric(4);
    let late = Coflow::builder(0)
        .arrival(Time::from_millis(500))
        .flow(0, 0, mb(1))
        .build();
    let (_, executed) = replay_recorded(&[late], &f);
    assert_eq!(executed[0].start, Time::from_millis(500));
}

/// Aggregate demand satisfaction across a batch: every flow of every
/// Coflow receives exactly its processing time.
#[test]
fn batch_satisfies_all_demand() {
    let f = fabric(4);
    let coflows = vec![
        Coflow::builder(0)
            .flow(0, 0, mb(3))
            .flow(1, 1, mb(2))
            .build(),
        Coflow::builder(1)
            .flow(0, 1, mb(5))
            .flow(1, 0, mb(7))
            .build(),
        Coflow::builder(2).flow(2, 2, mb(1)).build(),
    ];
    let (_, executed) = replay_recorded(&coflows, &f);
    assert_demand_served(&coflows, &executed, &f);
}

/// §4.2's InterCoflow as one batch: every Coflow planned from t = 0, in
/// priority order, with Algorithm 1 on a single reservation list.
fn batch(coflows: &[Coflow], f: &Fabric, policy: &dyn PriorityPolicy) -> Vec<ScheduleOutcome> {
    let mut table = RefTable::default();
    let mut order: Vec<&Coflow> = coflows.iter().collect();
    policy.sort(&mut order, f);
    let mut by_id: HashMap<u64, ScheduleOutcome> = HashMap::new();
    for c in order {
        let demands: Vec<Demand> = c
            .flows()
            .iter()
            .enumerate()
            .map(|(flow_idx, fl)| Demand {
                flow_idx,
                src: fl.src,
                dst: fl.dst,
                remaining: f.processing_time(fl.bytes),
            })
            .collect();
        let config = SunflowConfig::default();
        let made =
            ref_schedule_demands(&mut table, c.id(), &demands, Time::ZERO, f.delta(), config);
        let flow_finish: Vec<Time> = (0..c.num_flows())
            .map(|fi| {
                let ends = made.iter().filter(|r| r.flow.flow_idx == fi);
                ends.map(|r| r.end).max().expect("every flow is planned")
            })
            .collect();
        let outcome = ScheduleOutcome {
            coflow: c.id(),
            start: Time::ZERO,
            finish: flow_finish.iter().copied().max().expect("non-empty"),
            flow_finish,
            circuit_setups: made.len() as u64,
        };
        by_id.insert(c.id(), outcome);
    }
    coflows
        .iter()
        .map(|c| by_id.remove(&c.id()).unwrap())
        .collect()
}

/// The online/offline link: with every arrival at t = 0 and Keep, the
/// stepper ≡ the reference replay ≡ the policy-ordered batch — same
/// finishes, flow finishes and setups — under all five priority
/// policies. Rescheduling at a completion truncates and re-derives
/// exactly the plans the batch laid, since nothing in flight is cut.
#[test]
fn online_replay_under_keep_is_the_batch_when_all_arrive_at_zero() {
    for seed in 1..=20u64 {
        for ports in [4u64, 8] {
            // Arrivals spread over 1 ms: every one at t = 0.
            let coflows = random_workload(seed, 12, ports, 1);
            let f = fabric(ports as usize);
            for (name, policy) in policies(&coflows) {
                let label = format!("seed {seed}, {ports} ports, {name}");
                let (online, _) = stepper_replay(
                    &coflows,
                    &f,
                    &keep(),
                    policy.as_ref(),
                    &mut FullService,
                    UpFront,
                );
                let reference =
                    ref_replay(&coflows, &f, &keep(), policy.as_ref(), &mut FullService);
                common::assert_replays_agree(&online, &reference, &label);
                assert_eq!(
                    online.outcomes,
                    batch(&coflows, &f, policy.as_ref()),
                    "{label}"
                );
            }
        }
    }
}

/// Why the link needs Keep: Preempt cuts every circuit in flight at
/// every completion, and each remainder pays δ again, so some Coflow
/// always finishes later than in the batch, which cuts nothing.
#[test]
fn preempt_is_not_the_batch() {
    let coflows = random_workload(1, 12, 4, 1);
    let f = fabric(4);
    let preempt = OnlineConfig::default().active_policy(ActiveCircuitPolicy::Preempt);
    let r = simulate_circuit(&coflows, &f, &preempt, &ShortestFirst);
    let b = batch(&coflows, &f, &ShortestFirst);
    let setups = |o: &[ScheduleOutcome]| o.iter().map(|o| o.circuit_setups).sum::<u64>();
    assert!(setups(&r.outcomes) > setups(&b));
    assert!(r.outcomes.iter().zip(&b).any(|(o, b)| o.finish > b.finish));
}

/// A Coflow up to 8x8 ports, 1..=16 flows, 1 byte..64 MB each.
fn arb_coflow(id: u64) -> impl Strategy<Value = Coflow> {
    proptest::collection::btree_set((0usize..8, 0usize..8), 1..=16).prop_flat_map(move |pairs| {
        let pairs: Vec<(usize, usize)> = pairs.into_iter().collect();
        let len = pairs.len();
        (
            Just(pairs),
            proptest::collection::vec(1u64..64_000_000, len),
        )
            .prop_map(move |(pairs, sizes)| {
                let mut b = Coflow::builder(id);
                for (&(s, d), &z) in pairs.iter().zip(&sizes) {
                    b = b.flow(s, d, z);
                }
                b.build()
            })
    })
}

/// The δ × B grid of `lemma_properties.rs`.
const DELTAS: [Dur; 5] = [
    Dur::ZERO,
    Dur::from_micros(10),
    Dur::from_millis(1),
    Dur::from_millis(10),
    Dur::from_millis(100),
];
const GBPS: [u64; 3] = [1, 10, 100];

fn arb_fabric() -> impl Strategy<Value = Fabric> {
    (0..DELTAS.len(), 0..GBPS.len())
        .prop_map(|(d, b)| Fabric::new(8, Bandwidth::from_gbps(GBPS[b]), DELTAS[d]))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Inter-Coflow batches through the online replay under Keep: joint
    /// validity of the executed circuits, per-Coflow demand satisfaction,
    /// and the top-priority Coflow achieving its solo CCT.
    #[test]
    fn inter_batch_validity(
        a in arb_coflow(0),
        b in arb_coflow(1),
        c in arb_coflow(2),
        fabric in arb_fabric(),
    ) {
        let coflows = [a, b, c];
        let (outcomes, executed) = replay_recorded(&coflows, &fabric);
        prop_assert!(validate_port_constraints(&executed).is_ok());
        assert_demand_served(&coflows, &executed, &fabric);

        // The highest-priority Coflow is never blocked: it finishes
        // exactly as fast as it would alone.
        let mut order: Vec<&Coflow> = coflows.iter().collect();
        ShortestFirst.sort(&mut order, &fabric);
        let top = order[0].id() as usize;
        let solo = IntraScheduler::new(&fabric, SunflowConfig::default()).schedule(&coflows[top]);
        prop_assert_eq!(outcomes[top].cct(Time::ZERO), solo.cct());
    }
}

/// Coflow `seed` of the lemma grid: 1–16 distinct circuits on 8 ports,
/// 1 byte to 64 MB each.
fn lone_coflow(seed: u64) -> Coflow {
    let mut s = seed * 2 + 1;
    let n = 1 + (xorshift(&mut s) % 16) as usize;
    let mut pairs = BTreeSet::new();
    while pairs.len() < n {
        pairs.insert((
            (xorshift(&mut s) % 8) as usize,
            (xorshift(&mut s) % 8) as usize,
        ));
    }
    let mut b = Coflow::builder(0);
    for (src, dst) in pairs {
        b = b.flow(src, dst, 1 + xorshift(&mut s) % 64_000_000);
    }
    b.build()
}

/// Lemma 1 (`CCT ≤ 2·T_cL`), Lemma 2 and the trivial bound
/// `CCT ≥ T_cL` for a Coflow alone through the online replay, under
/// every active-circuit policy with the guard off, over the δ × B grid
/// of `lemma_properties.rs`: 5 δ × 3 B × 30 Coflows × 3 policies.
#[test]
fn lemmas_hold_for_a_coflow_alone_through_the_online_replay() {
    for delta in DELTAS {
        for gbps in GBPS {
            let f = Fabric::new(8, Bandwidth::from_gbps(gbps), delta);
            for seed in 0..30 {
                let c = lone_coflow(seed);
                let bound = circuit_lower_bound(&c, &f);
                for policy in ACTIVE_POLICIES {
                    let cfg = OnlineConfig::default().active_policy(policy);
                    let r = simulate_circuit(std::slice::from_ref(&c), &f, &cfg, &ShortestFirst);
                    let cct = r.outcomes[0].cct(Time::ZERO);
                    let label = format!("{c:?} at δ {delta}, {gbps} Gbps, {policy:?}");
                    assert!(lemma1_holds(cct, &c, &f), "{label}: {cct} > 2 x {bound}");
                    assert!(lemma2_holds(cct, &c, &f), "{label}: Lemma 2");
                    assert!(cct >= bound, "{label}: {cct} < T_cL {bound}");
                }
            }
        }
    }
}

/// `coflows` with every arrival `by` later.
fn shifted(coflows: &[Coflow], by: Dur) -> Vec<Coflow> {
    coflows
        .iter()
        .map(|c| {
            let mut b = Coflow::builder(c.id()).arrival(c.arrival() + by);
            for fl in c.flows() {
                b = b.flow(fl.src, fl.dst, fl.bytes);
            }
            b.build()
        })
        .collect()
}

/// Does `later` finish every Coflow and flow exactly `by` after `base`,
/// with the same setups?
fn is_shift(base: &Replay, later: &Replay, by: Dur) -> bool {
    base.outcomes.iter().zip(&later.outcomes).all(|(a, b)| {
        b.finish == a.finish + by
            && b.circuit_setups == a.circuit_setups
            && a.flow_finish
                .iter()
                .zip(&b.flow_finish)
                .all(|(&x, &y)| y == x + by)
    })
}

/// How many of the 24 time-shift cases (4 and 8 ports × 4 seeds × 3
/// in-flight policies) shift exactly by `by(ports)` under `guard`, on
/// the stepper and on the reference replay.
fn shifts_that_hold(guard: Option<GuardConfig>, by: impl Fn(u64) -> Dur) -> (usize, usize) {
    let (mut stepper, mut reference) = (0, 0);
    for ports in [4u64, 8] {
        for seed in [3, 0x5eed, 0xdead_beef, 0x1234_5678_9abc] {
            let coflows = random_workload(seed, 15, ports, 2_000);
            let later = shifted(&coflows, by(ports));
            let f = fabric(ports as usize);
            for policy in ACTIVE_POLICIES {
                let cfg = OnlineConfig::default().active_policy(policy).guard(guard);
                let run = |cs: &[Coflow]| {
                    stepper_replay(cs, &f, &cfg, &ShortestFirst, &mut FullService, UpFront).0
                };
                let refrun =
                    |cs: &[Coflow]| ref_replay(cs, &f, &cfg, &ShortestFirst, &mut FullService);
                stepper += usize::from(is_shift(&run(&coflows), &run(&later), by(ports)));
                reference += usize::from(is_shift(&refrun(&coflows), &refrun(&later), by(ports)));
            }
        }
    }
    (stepper, reference)
}

/// Unguarded, the replay has no clock of its own: every finish moves
/// with the arrivals.
#[test]
fn shifting_every_arrival_shifts_every_finish() {
    let by = |_| Dur::from_millis(1_237);
    assert_eq!(shifts_that_hold(None, by), (24, 24));
}

/// Guarded, window `m` runs assignment `A_(m mod N)`: the timetable
/// repeats every `N·(T+τ)`, not every `T+τ`. A shift by `N·(T+τ)`
/// moves every finish with it; a shift by one interval lines each
/// Coflow up with windows of different circuits.
#[test]
fn a_guarded_replay_shifts_only_by_whole_assignment_cycles() {
    let guard = GuardConfig::new(Dur::from_millis(200), Dur::from_millis(40));
    let interval = Dur::from_millis(240);
    assert_eq!(shifts_that_hold(Some(guard), |n| interval * n), (24, 24));
    assert_eq!(shifts_that_hold(Some(guard), |_| interval), (0, 0));
}
