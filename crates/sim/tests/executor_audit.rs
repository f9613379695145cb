//! Audit of what the assignment executor actually ran, read back from
//! its transmission segments rather than from the finish times it
//! reports:
//!
//! * no input or output port carries two transmitting segments at once;
//! * nothing transmits inside a changed circuit's `δ` — on each port, a
//!   segment on a new peer starts at least `δ` after the previous
//!   segment ended, and the first segment at least `δ` after the switch
//!   started with no circuit up;
//! * every flow is served exactly the processing time it demanded.
//!
//! Three sources of segments, each over Solstice / TMS / Edmond:
//!
//! * offline singletons ([`execute`], what `service_coflow_with` runs)
//!   under both switch models with early advance on and off;
//! * the same [`Switch`] stopped at arbitrary limits and re-planned on
//!   what is left (the aggregated replay's loop), under the same four
//!   execution configs;
//! * multi-Coflow traces through [`CircuitBackend`] (which runs each
//!   scheduler's own execution config), whose segments are read at the
//!   settle hook, flow by flow.
//!
//! `kcore:<K>` plans circuits rather than executing assignments, so its
//! audit reads the settle hook for what each circuit credited, clean and
//! with every third circuit shorted: every flow is credited exactly its
//! demand, no circuit credits more than its transmit time, completions
//! come out in finish order, and a drained backend's table retires
//! exactly the reservations it made.

use ocs_baselines::{
    compact, execute, CircuitScheduler, ExecConfig, Segment, Switch, SwitchModel, TimedAssignment,
};
use ocs_model::{
    Assignment, Bandwidth, Coflow, DemandMatrix, Dur, Fabric, FlowRef, Reservation, Time,
};
use ocs_sim::{
    run_backends_to_idle, BackendKind, CircuitBackend, OnlineConfig, SchedulingBackend, SettleHook,
    SettleVerdict,
};
use proptest::prelude::*;
use std::collections::HashMap;
use sunflow_core::ShortestFirst;

const PORTS: usize = 8;

fn fabric() -> Fabric {
    Fabric::new(PORTS, Bandwidth::GBPS, Dur::from_millis(10))
}

const SCHEDULERS: [CircuitScheduler; 3] = [
    CircuitScheduler::Solstice,
    CircuitScheduler::Tms,
    CircuitScheduler::Edmond {
        slot: Dur::from_millis(50),
    },
];

fn configs() -> impl Iterator<Item = ExecConfig> {
    [SwitchModel::NotAllStop, SwitchModel::AllStop]
        .into_iter()
        .flat_map(|switch| {
            [true, false].map(|early_advance| ExecConfig {
                switch,
                early_advance,
            })
        })
}

/// Check the port and `δ` rules on `segs`, executed on a switch that
/// had no circuit up at `start`.
fn audit_ports(segs: &[Segment], start: Time, delta: Dur) -> Result<(), String> {
    // (port, peer, tx_start, tx_end), once per side of the switch.
    let sides: [Vec<(usize, usize, Time, Time)>; 2] = [
        segs.iter()
            .map(|s| (s.src, s.dst, s.tx_start, s.tx_end))
            .collect(),
        segs.iter()
            .map(|s| (s.dst, s.src, s.tx_start, s.tx_end))
            .collect(),
    ];
    for (side, mut v) in ["in", "out"].into_iter().zip(sides) {
        v.sort_by_key(|&(port, _, tx_start, _)| (port, tx_start));
        for (k, &(port, peer, tx_start, tx_end)) in v.iter().enumerate() {
            if tx_end <= tx_start {
                return Err(format!("empty segment on {side}-port {port}"));
            }
            match k.checked_sub(1).map(|p| v[p]).filter(|p| p.0 == port) {
                None if tx_start < start + delta => {
                    return Err(format!(
                        "{side}-port {port} transmits at {tx_start} inside its first setup"
                    ));
                }
                Some((_, prev_peer, _, prev_end)) if tx_start < prev_end => {
                    return Err(format!(
                        "{side}-port {port} carries {prev_peer} and {peer} at once at {tx_start}"
                    ));
                }
                Some((_, prev_peer, _, prev_end))
                    if prev_peer != peer && tx_start < prev_end + delta =>
                {
                    return Err(format!(
                        "{side}-port {port} transmits to {peer} at {tx_start}, inside δ of \
                         the circuit to {prev_peer} ending at {prev_end}"
                    ));
                }
                _ => {}
            }
        }
    }
    Ok(())
}

/// Processing time served per circuit.
fn served(segs: &[Segment]) -> HashMap<(usize, usize), Dur> {
    let mut out: HashMap<(usize, usize), Dur> = HashMap::new();
    for s in segs {
        *out.entry((s.src, s.dst)).or_default() += s.tx_end.since(s.tx_start);
    }
    out
}

fn demanded(d: &DemandMatrix) -> HashMap<(usize, usize), Dur> {
    d.nonzero().map(|(i, j, p)| ((i, j), p)).collect()
}

/// Flows of up to 20 distinct circuits, one in five up to 200 MB and
/// the rest up to 8 MB.
fn arb_flows() -> impl Strategy<Value = Vec<(usize, usize, u64)>> {
    (
        proptest::collection::btree_set((0..PORTS, 0..PORTS), 1..=20),
        proptest::collection::vec((0u8..5, 1u64..200_000_000, 1u64..8_000_000), 20),
    )
        .prop_map(|(pairs, sizes)| {
            pairs
                .into_iter()
                .zip(sizes)
                .map(|((s, d), (tail, big, small))| (s, d, if tail == 0 { big } else { small }))
                .collect()
        })
}

fn coflow(id: u64, arrival: Time, flows: &[(usize, usize, u64)]) -> Coflow {
    let mut b = Coflow::builder(id).arrival(arrival);
    for &(s, d, z) in flows {
        b = b.flow(s, d, z);
    }
    b.build()
}

/// Records every settled chunk and serves it in full.
#[derive(Default)]
struct Recorder(Vec<Reservation>);

impl SettleHook for Recorder {
    fn on_settle(&mut self, resv: &Reservation, available: Dur, _now: Time) -> SettleVerdict {
        self.0.push(*resv);
        SettleVerdict::full(available)
    }
}

/// Logs every settled circuit with the service it credited. With
/// `short`, every third circuit delivers half its offer and backs off
/// 7 ms; the rest deliver in full.
#[derive(Default)]
struct CreditLog {
    short: bool,
    settled: u64,
    log: Vec<(Reservation, Dur)>,
}

impl SettleHook for CreditLog {
    fn on_settle(&mut self, resv: &Reservation, available: Dur, _now: Time) -> SettleVerdict {
        self.settled += 1;
        let verdict = if self.short && self.settled.is_multiple_of(3) {
            SettleVerdict::shorted(available / 2, Dur::from_millis(7))
        } else {
            SettleVerdict::full(available)
        };
        self.log.push((*resv, verdict.served.min(available)));
        verdict
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The offline service path, in the compact space it executes in.
    #[test]
    fn offline_singletons_pass_the_audit(flows in arb_flows()) {
        let f = fabric();
        let c = compact(flows.iter().map(|&(s, d, z)| (s, d, f.processing_time(z))));
        for sched in SCHEDULERS {
            let plan = sched.schedule(&c.demand);
            for cfg in configs() {
                let r = execute(&plan, &c.demand, f.delta(), cfg, Time::ZERO);
                let label = format!("{} {cfg:?}", sched.name());
                prop_assert_eq!(audit_ports(&r.segments, Time::ZERO, f.delta()), Ok(()), "{}", label);
                prop_assert_eq!(served(&r.segments), demanded(&c.demand), "{}", label);
            }
        }
    }

    /// A switch stopped at arbitrary limits, re-planned each time on the
    /// demand left (padding circuits dropped, as the aggregated replay
    /// does), under every execution config.
    #[test]
    fn sliced_replans_pass_the_audit(
        flows in arb_flows(),
        slices in proptest::collection::vec(1u64..400, 1..8),
    ) {
        let f = fabric();
        let mut demand = DemandMatrix::zero(PORTS);
        for &(s, d, z) in &flows {
            demand.add(s, d, f.processing_time(z));
        }
        for sched in SCHEDULERS {
            for cfg in configs() {
                let label = format!("{} {cfg:?}", sched.name());
                let mut remaining = demand.clone();
                let mut switch = Switch::new(PORTS, f.delta(), cfg);
                let mut segs = Vec::new();
                let mut t = Time::ZERO;
                for round in 0.. {
                    prop_assert!(round < 10_000, "{}: no progress at {}", label, t);
                    if remaining.is_zero() {
                        break;
                    }
                    let c = compact(remaining.nonzero());
                    let plan: Vec<TimedAssignment> = sched
                        .schedule(&c.demand)
                        .into_iter()
                        .map(|ta| TimedAssignment {
                            assignment: Assignment::new(
                                ta.assignment
                                    .pairs()
                                    .iter()
                                    .filter_map(|&(i, j)| Some((*c.srcs.get(i)?, *c.dsts.get(j)?)))
                                    .collect(),
                            ),
                            duration: ta.duration,
                        })
                        .collect();
                    let limit = t + Dur::from_millis(slices[round % slices.len()]);
                    t = switch.run(&plan, &mut remaining, t, limit, &mut segs);
                }
                prop_assert_eq!(audit_ports(&segs, Time::ZERO, f.delta()), Ok(()), "{}", label);
                prop_assert_eq!(served(&segs), demanded(&demand), "{}", label);
            }
        }
    }

    /// Multi-Coflow traces through the aggregated replay: the chunks the
    /// settle hook sees, attributed flow by flow, and each Coflow's
    /// first service.
    #[test]
    fn circuit_backend_traces_pass_the_audit(
        trace in proptest::collection::vec((0u64..300, arb_flows()), 1..5),
    ) {
        let f = fabric();
        let mut coflows: Vec<Coflow> = trace
            .iter()
            .enumerate()
            .map(|(id, (at, flows))| coflow(id as u64, Time::from_millis(*at), flows))
            .collect();
        coflows.sort_by_key(|c| (c.arrival(), c.id()));
        for sched in SCHEDULERS {
            let mut backend = CircuitBackend::new(&f, sched);
            for c in &coflows {
                backend.submit(c.clone()).expect("valid trace");
            }
            let mut rec = Recorder::default();
            run_backends_to_idle(&mut backend, &mut rec);
            let segs: Vec<Segment> = rec
                .0
                .iter()
                .map(|r| Segment { src: r.src, dst: r.dst, tx_start: r.start, tx_end: r.end })
                .collect();
            prop_assert_eq!(audit_ports(&segs, Time::ZERO, f.delta()), Ok(()), "{}", sched.name());

            let mut per_flow: HashMap<FlowRef, Dur> = HashMap::new();
            for r in &rec.0 {
                *per_flow.entry(r.flow).or_default() += r.end.since(r.start);
            }
            for c in &coflows {
                for (flow_idx, fl) in c.flows().iter().enumerate() {
                    let got = per_flow.get(&FlowRef { coflow: c.id(), flow_idx }).copied();
                    prop_assert_eq!(
                        got.unwrap_or(Dur::ZERO),
                        f.processing_time(fl.bytes),
                        "{}: coflow {} flow {}", sched.name(), c.id(), flow_idx
                    );
                }
            }

            // First service is the earliest chunk, wherever the FIFO
            // attribution of its segment placed it.
            let mut first: HashMap<u64, Time> = HashMap::new();
            for r in &rec.0 {
                let t = first.entry(r.flow.coflow).or_insert(r.start);
                *t = (*t).min(r.start);
            }
            for c in backend.drain_completions() {
                let id = c.outcome.coflow;
                prop_assert_eq!(
                    c.first_service,
                    first.get(&id).copied(),
                    "{}: coflow {} first service", sched.name(), id
                );
            }
        }
    }

    /// Multi-Coflow traces through `kcore:<K>`, clean and shorted: the
    /// credits the settle hook saw, flow by flow and circuit by circuit.
    #[test]
    fn kcore_traces_pass_the_audit(
        trace in proptest::collection::vec((0u64..300, arb_flows()), 1..5),
        cores in 1u32..4,
    ) {
        let f = fabric();
        let coflows: Vec<Coflow> = trace
            .iter()
            .enumerate()
            .map(|(id, (at, flows))| coflow(id as u64, Time::from_millis(*at), flows))
            .collect();
        let kind = BackendKind::KCore { cores };
        for short in [false, true] {
            let label = format!("{} short={short}", kind.selector());
            let mut backend = kind.build(&f, &OnlineConfig::default(), Box::new(ShortestFirst));
            for c in &coflows {
                backend.submit(c.clone()).expect("valid trace");
            }
            let mut rec = CreditLog { short, ..CreditLog::default() };
            backend.advance_to(Time::MAX, &mut rec);
            prop_assert!(backend.status().idle, "{}: must drain", label);

            let mut per_flow: HashMap<FlowRef, Dur> = HashMap::new();
            for (r, credited) in &rec.log {
                let transmit = r.end.since(r.start).saturating_sub(f.delta());
                prop_assert!(*credited <= transmit, "{}: {:?} credits {}", label, r, credited);
                *per_flow.entry(r.flow).or_default() += *credited;
            }
            for c in &coflows {
                for (flow_idx, fl) in c.flows().iter().enumerate() {
                    let got = per_flow.get(&FlowRef { coflow: c.id(), flow_idx }).copied();
                    prop_assert_eq!(
                        got.unwrap_or(Dur::ZERO),
                        f.processing_time(fl.bytes),
                        "{}: coflow {} flow {}", label, c.id(), flow_idx
                    );
                }
            }

            let done = backend.drain_completions();
            prop_assert_eq!(done.len(), coflows.len(), "{}", label);
            for w in done.windows(2) {
                prop_assert!(
                    w[0].outcome.finish <= w[1].outcome.finish,
                    "{}: coflow {} completes at {} after coflow {} at {}",
                    label, w[1].outcome.coflow, w[1].outcome.finish,
                    w[0].outcome.coflow, w[0].outcome.finish
                );
            }

            let made = backend.status().stats.expect("kcore keeps stats").reservations_made;
            prop_assert_eq!(backend.compact_history() as u64, made, "{}: idle table", label);
        }
    }
}
