//! One invariant suite over every backend a `--backend` selector builds
//! (and the Sunflow stepper under each active-circuit policy), one test
//! per backend and property, so a broken backend names itself:
//!
//! * **completes** — served the way a live service drives it (submit
//!   just in time, advance in slices, drain every slice), each Coflow
//!   completes exactly once, no earlier than it arrived, with its finish
//!   the last of its flow finishes; completions drain in finish order
//!   and the idle backend's gauges read zero;
//! * **gauges** — after every slice of that run, and of one that submits
//!   each Coflow half a second ahead of its arrival, the status snapshot
//!   tracks the completions: the clock is at the slice's end, active
//!   plus queued Coflows are those submitted and not yet drained, the
//!   backend is idle exactly when there are none, and an idle backend
//!   holds no demand;
//! * **bounds** — no Coflow finishes faster than its most loaded port
//!   can move its bytes at the backend's aggregate port rate; a Coflow
//!   alone also pays a circuit setup before its first byte on a pure
//!   circuit fabric, and meets Lemma 1 (`CCT ≤ 2·T_cL`) wherever each
//!   switch core runs Sunflow's intra-Coflow schedule;
//! * **deterministic** — two fresh backends replay the same outcomes;
//! * **submission_order** — every backend admits in `(arrival, id)`
//!   order, so submitting the trace backwards changes nothing;
//! * **sliced** — slicing the clock replays the batch outcomes;
//! * **time_shift** — delaying every arrival by Δ delays every start,
//!   flow finish and Coflow finish by Δ;
//! * **scale** — doubling every flow and the link rate leaves every
//!   outcome unchanged.

mod common;

use common::{fabric, group_local, in_input_order, workload};
use ocs_model::{
    circuit_lower_bound, lemma1_holds, packet_lower_bound, Bandwidth, Coflow, Dur, Fabric,
    ScheduleOutcome, Time,
};
use ocs_sim::{
    run_trace, ActiveCircuitPolicy, BackendKind, BackendStatus, FullService, OnlineConfig,
    SchedulingBackend,
};
use sunflow_core::ShortestFirst;

/// What carries a backend's bytes, for the bounds it must respect.
#[derive(Clone, Copy)]
enum Plane {
    /// `cores` circuit switches of the fabric's rate, each paying `δ`
    /// before a circuit transmits.
    Circuit { cores: u64 },
    /// One packet switch at the fabric's rate.
    Packet,
    /// One circuit switch beside a packet network at `permille`
    /// thousandths of the rate.
    Hybrid { permille: u64 },
}

impl Plane {
    /// Aggregate rate of one port, in thousandths of the fabric's rate.
    fn port_permille(self) -> u64 {
        match self {
            Plane::Circuit { cores } => 1_000 * cores,
            Plane::Packet => 1_000,
            Plane::Hybrid { permille } => 1_000 + permille,
        }
    }
}

struct Row {
    selector: &'static str,
    online: OnlineConfig,
    plane: Plane,
    /// Every switch core schedules a lone Coflow with Sunflow's
    /// intra-Coflow algorithm, so Lemma 1 holds for it.
    lemma1: bool,
    /// `portgroups:<G>` refuses flows that cross a port group.
    group_local: bool,
    /// How far [`time_shift`] delays the trace.
    shift: Dur,
}

impl Row {
    fn new(selector: &'static str, plane: Plane) -> Row {
        Row {
            selector,
            online: OnlineConfig::default(),
            plane,
            lemma1: false,
            group_local: false,
            shift: Dur::from_micros(1_234_567),
        }
    }

    fn sunflow(selector: &'static str, cores: u64) -> Row {
        Row {
            lemma1: true,
            ..Row::new(selector, Plane::Circuit { cores })
        }
    }

    fn build(&self, f: &Fabric) -> Box<dyn SchedulingBackend> {
        let kind: BackendKind = self.selector.parse().expect("roster selectors are valid");
        kind.build(f, &self.online, Box::new(ShortestFirst))
    }

    fn workload(&self) -> Vec<Coflow> {
        if self.group_local {
            group_local(&workload())
        } else {
            workload()
        }
    }

    fn replay(&self, coflows: &[Coflow], f: &Fabric) -> Vec<ScheduleOutcome> {
        run_trace(coflows, self.build(f).as_mut())
    }
}

/// Drive `backend` the way a live service does: every `slice`, submit
/// the Coflows arriving within it (or within `ahead` after it), advance
/// to its end, drain. After each slice `after` sees the backend's
/// status, the slice's end and how many Coflows were submitted but not
/// yet drained. Returns the completions in the order they drained.
fn run_sliced(
    coflows: &[Coflow],
    backend: &mut dyn SchedulingBackend,
    slice: Dur,
    ahead: Dur,
    mut after: impl FnMut(BackendStatus, Time, usize),
) -> Vec<ScheduleOutcome> {
    let mut by_arrival: Vec<&Coflow> = coflows.iter().collect();
    by_arrival.sort_by_key(|c| (c.arrival(), c.id()));
    let mut fed = 0usize;
    let mut done = Vec::new();
    let mut deadline = Time::ZERO;
    while fed < by_arrival.len() || !backend.status().idle {
        deadline += slice;
        assert!(deadline < Time::from_millis(600_000), "replay must drain");
        while fed < by_arrival.len() && by_arrival[fed].arrival() <= deadline + ahead {
            backend
                .submit(by_arrival[fed].clone())
                .expect("a just-in-time arrival is never in the past");
            fed += 1;
        }
        backend.advance_to(deadline, &mut FullService);
        done.extend(backend.drain_completions().into_iter().map(|c| c.outcome));
        after(backend.status(), deadline, fed - done.len());
    }
    done
}

fn completes(row: &Row) {
    let f = fabric();
    let coflows = row.workload();
    let mut backend = row.build(&f);
    let done = run_sliced(
        &coflows,
        backend.as_mut(),
        Dur::from_millis(7),
        Dur::ZERO,
        |_, _, _| {},
    );
    let s = row.selector;
    assert!(
        done.windows(2).all(|w| w[0].finish <= w[1].finish),
        "{s}: completions drained out of finish order"
    );
    let done = in_input_order(&coflows, done);
    assert_eq!(done.len(), coflows.len(), "{s}: a Coflow completed twice");
    for (c, o) in coflows.iter().zip(&done) {
        assert_eq!(o.coflow, c.id(), "{s}: a Coflow never completed");
        assert!(o.start >= c.arrival(), "{s}: coflow {} ran early", c.id());
        assert_eq!(o.flow_finish.len(), c.num_flows(), "{s}: coflow {}", c.id());
        assert!(
            o.flow_finish.iter().all(|&t| t >= o.start),
            "{s}: coflow {} has a flow done before it started",
            c.id()
        );
        assert_eq!(
            o.flow_finish.iter().max(),
            Some(&o.finish),
            "{s}: coflow {} finish is not its last flow's",
            c.id()
        );
    }
    let status = backend.status();
    assert!(status.idle, "{s}");
    assert_eq!(status.active_coflows, 0, "{s}: active after drain");
    assert_eq!(status.queued_arrivals, 0, "{s}: queued after drain");
    assert_eq!(status.outstanding_demand, Dur::ZERO, "{s}: demand left");
    assert_eq!(status.deferred_flows, 0, "{s}: deferred after drain");
    assert!(
        backend.drain_completions().is_empty(),
        "{s}: late completion"
    );
}

fn gauges(row: &Row) {
    let f = fabric();
    let coflows = row.workload();
    let s = row.selector;
    let check = |st: BackendStatus, end: Time, in_flight: usize| {
        assert_eq!(st.now, end, "{s}: the clock is not at the slice's end");
        assert_eq!(
            st.active_coflows + st.queued_arrivals,
            in_flight,
            "{s}: at {end}, active plus queued is not submitted minus drained"
        );
        assert_eq!(
            st.idle,
            in_flight == 0,
            "{s}: at {end}, idle = {} with {in_flight} in flight",
            st.idle
        );
        if st.idle {
            assert_eq!(
                st.outstanding_demand,
                Dur::ZERO,
                "{s}: idle at {end} with demand"
            );
        }
    };
    for ahead in [Dur::ZERO, Dur::from_millis(500)] {
        let mut backend = row.build(&f);
        run_sliced(
            &coflows,
            backend.as_mut(),
            Dur::from_millis(7),
            ahead,
            check,
        );
    }
}

/// `cct` takes at least `floor` at `permille` thousandths of the rate
/// `floor` was computed at.
fn at_least(cct: Dur, floor: Dur, permille: u64) -> bool {
    cct.as_ps() as u128 * permille as u128 >= floor.as_ps() as u128 * 1_000
}

fn bounds(row: &Row) {
    let f = fabric();
    let coflows = row.workload();
    let permille = row.plane.port_permille();
    let s = row.selector;
    for (c, o) in coflows.iter().zip(row.replay(&coflows, &f)) {
        let cct = o.cct(c.arrival());
        let t_pl = packet_lower_bound(c, &f);
        assert!(
            at_least(cct, t_pl, permille),
            "{s}: coflow {} took {cct}, under its port load {t_pl}",
            c.id()
        );
    }
    for c in &coflows {
        let o = row.replay(std::slice::from_ref(c), &f).remove(0);
        let cct = o.cct(c.arrival());
        let ok = match row.plane {
            Plane::Circuit { cores: 1 } => cct >= circuit_lower_bound(c, &f),
            Plane::Circuit { .. } => {
                cct >= f.delta() && at_least(cct - f.delta(), packet_lower_bound(c, &f), permille)
            }
            Plane::Packet | Plane::Hybrid { .. } => {
                at_least(cct, packet_lower_bound(c, &f), permille)
            }
        };
        assert!(ok, "{s}: lone coflow {} took only {cct}", c.id());
        if row.lemma1 {
            assert!(
                lemma1_holds(cct, c, &f),
                "{s}: lone coflow {} took {cct} > 2·T_cL = 2·{}",
                c.id(),
                circuit_lower_bound(c, &f)
            );
        }
    }
}

fn deterministic(row: &Row) {
    let f = fabric();
    let coflows = row.workload();
    assert_eq!(
        row.replay(&coflows, &f),
        row.replay(&coflows, &f),
        "{}: two fresh replays differ",
        row.selector
    );
}

fn submission_order(row: &Row) {
    let f = fabric();
    let coflows = row.workload();
    let backwards: Vec<Coflow> = coflows.iter().rev().cloned().collect();
    let reversed = in_input_order(&coflows, row.replay(&backwards, &f));
    assert_eq!(
        reversed,
        row.replay(&coflows, &f),
        "{}: submission order moved an outcome",
        row.selector
    );
}

fn sliced(row: &Row) {
    let f = fabric();
    let coflows = row.workload();
    let batch = row.replay(&coflows, &f);
    for slice in [Dur::from_micros(1_300), Dur::from_millis(250)] {
        let got = run_sliced(
            &coflows,
            row.build(&f).as_mut(),
            slice,
            Dur::ZERO,
            |_, _, _| {},
        );
        assert_eq!(
            in_input_order(&coflows, got),
            batch,
            "{}: {slice} slices diverged from the batch",
            row.selector
        );
    }
}

fn time_shift(row: &Row) {
    let f = fabric();
    let coflows = row.workload();
    let shift = row.shift;
    let later: Vec<Coflow> = coflows
        .iter()
        .map(|c| {
            c.flows()
                .iter()
                .fold(
                    Coflow::builder(c.id()).arrival(c.arrival() + shift),
                    |b, fl| b.flow(fl.src, fl.dst, fl.bytes),
                )
                .build()
        })
        .collect();
    let want: Vec<ScheduleOutcome> = row
        .replay(&coflows, &f)
        .into_iter()
        .map(|o| ScheduleOutcome {
            start: o.start + shift,
            finish: o.finish + shift,
            flow_finish: o.flow_finish.iter().map(|&t| t + shift).collect(),
            ..o
        })
        .collect();
    assert_eq!(
        row.replay(&later, &f),
        want,
        "{}: shifting the arrivals moved a schedule",
        row.selector
    );
}

fn scale(row: &Row) {
    let f = fabric();
    let fast = Fabric::new(
        f.ports(),
        Bandwidth::from_bps(2 * f.bandwidth().as_bps()),
        f.delta(),
    );
    let coflows = row.workload();
    let doubled: Vec<Coflow> = coflows
        .iter()
        .map(|c| {
            c.flows()
                .iter()
                .fold(Coflow::builder(c.id()).arrival(c.arrival()), |b, fl| {
                    b.flow(fl.src, fl.dst, 2 * fl.bytes)
                })
                .build()
        })
        .collect();
    assert_eq!(
        row.replay(&doubled, &fast),
        row.replay(&coflows, &f),
        "{}: twice the bytes at twice the rate moved a schedule",
        row.selector
    );
}

/// One module per roster row, one test per invariant the row keeps.
macro_rules! roster {
    ($($name:ident => $row:expr, [$($check:ident),*];)*) => {$(
        mod $name {
            use super::*;

            fn row() -> Row {
                $row
            }

            $(
                #[test]
                fn $check() {
                    super::$check(&row());
                }
            )*
        }
    )*};
}

// What a row leaves out, it leaves out by design:
// * `sliced` on the aggregated circuit baselines — each `advance_to`
//   deadline is a planning boundary for them (a fresh plan on the
//   remaining aggregate);
// * `scale` where a policy compares bytes with a fixed size (Aalo's
//   queue thresholds, the hybrid splits' small-flow threshold);
// * Aalo shifts by a multiple of its 10 ms coordination epoch, which
//   sits on absolute multiples of the epoch.
roster! {
    sunflow_yield => Row::sunflow("sunflow", 1),
        [completes, gauges, bounds, deterministic, submission_order, sliced, time_shift, scale];
    sunflow_keep => Row {
        online: OnlineConfig::default().active_policy(ActiveCircuitPolicy::Keep),
        ..Row::sunflow("sunflow", 1)
    }, [completes, gauges, bounds, deterministic, submission_order, sliced, time_shift, scale];
    sunflow_preempt => Row {
        online: OnlineConfig::default().active_policy(ActiveCircuitPolicy::Preempt),
        ..Row::sunflow("sunflow", 1)
    }, [completes, gauges, bounds, deterministic, submission_order, sliced, time_shift, scale];
    sunflow_2_least_loaded => Row::sunflow("sunflow:2:least-loaded", 2),
        [completes, gauges, bounds, deterministic, submission_order, sliced, time_shift, scale];
    sunflow_4_rank_pack => Row::sunflow("sunflow:4:rank-pack", 4),
        [completes, gauges, bounds, deterministic, submission_order, sliced, time_shift, scale];
    portgroups_2 => Row {
        group_local: true,
        ..Row::sunflow("portgroups:2", 1)
    }, [completes, gauges, bounds, deterministic, submission_order, sliced, time_shift, scale];
    kcore_2 => Row::new("kcore:2", Plane::Circuit { cores: 2 }),
        [completes, gauges, bounds, deterministic, submission_order, sliced, time_shift, scale];
    hybrid_threshold => Row::new("hybrid:threshold", Plane::Hybrid { permille: 100 }),
        [completes, gauges, bounds, deterministic, submission_order, sliced, time_shift];
    hybrid_solver => Row::new("hybrid:solver", Plane::Hybrid { permille: 100 }),
        [completes, gauges, bounds, deterministic, submission_order, sliced, time_shift];
    hybrid_non_splitting => Row::new("hybrid:non-splitting", Plane::Hybrid { permille: 100 }),
        [completes, gauges, bounds, deterministic, submission_order, sliced, time_shift, scale];
    solstice => Row::new("solstice", Plane::Circuit { cores: 1 }),
        [completes, gauges, bounds, deterministic, submission_order, time_shift, scale];
    tms => Row::new("tms", Plane::Circuit { cores: 1 }),
        [completes, gauges, bounds, deterministic, submission_order, time_shift, scale];
    edmond => Row::new("edmond", Plane::Circuit { cores: 1 }),
        [completes, gauges, bounds, deterministic, submission_order, time_shift, scale];
    varys => Row::new("varys", Plane::Packet),
        [completes, gauges, bounds, deterministic, submission_order, sliced, time_shift, scale];
    aalo => Row {
        shift: Dur::from_millis(1_230),
        ..Row::new("aalo", Plane::Packet)
    }, [completes, gauges, bounds, deterministic, submission_order, sliced, time_shift];
    fair => Row::new("fair", Plane::Packet),
        [completes, gauges, bounds, deterministic, submission_order, sliced, time_shift, scale];
}
