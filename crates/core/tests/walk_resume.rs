//! A [`Walk`] paused at any instants and resumed must be the one-shot
//! Algorithm 1 walk, and walks that interleave must, with forcing, be
//! the sequential plans.
//!
//! The online replay plans each Coflow only up to the next queued
//! arrival and resumes it later (DESIGN §4, "Plan only as far as the
//! next arrival"). Two properties carry that:
//!
//! * one walk stopped at 1–5 random horizons and resumed reserves what
//!   [`schedule_demands_on`] reserves, in the same order, with the same
//!   counters, on a [`Prt`] and through a [`DeltaView`], guarded or not;
//! * Coflows walked in rank order to a horizon, each forcing the walks
//!   above it through [`Outranking`] before it probes, then resumed to
//!   the end, leave exactly the table planning each Coflow to completion
//!   in turn leaves. The fixed two- and three-Coflow cases are ones where
//!   a walk that did not force would reserve across a later
//!   higher-ranked circuit.

use ocs_model::{Dur, InPort, OutPort, Reservation, Time};
use proptest::prelude::*;
use sunflow_core::{
    schedule_demands_on, Alone, DeltaStorage, DeltaView, Demand, GuardConfig, Outranking,
    PlanTable, PortProbe, Prt, ResvKind, ScheduleScratch, StarvationGuard, SunflowConfig, Walk,
};

const DELTA: Dur = Dur::from_millis(1);

fn ms(v: u64) -> Time {
    Time::from_millis(v)
}

/// A table that also lists, in creation order, what was reserved on it.
struct Logged<'t, T> {
    table: &'t mut T,
    made: Vec<Reservation>,
}

impl<'t, T: PlanTable> Logged<'t, T> {
    fn new(table: &'t mut T) -> Self {
        Logged {
            table,
            made: Vec::new(),
        }
    }
}

impl<T: PlanTable> PlanTable for Logged<'_, T> {
    fn ports(&self) -> usize {
        self.table.ports()
    }
    fn in_probe(&self, i: InPort, t: Time) -> PortProbe {
        self.table.in_probe(i, t)
    }
    fn out_probe(&self, j: OutPort, t: Time) -> PortProbe {
        self.table.out_probe(j, t)
    }
    fn reserve(&mut self, src: InPort, dst: OutPort, start: Time, end: Time, kind: ResvKind) {
        self.table.reserve(src, dst, start, end, kind);
        let ResvKind::Flow(flow) = kind;
        self.made.push(Reservation {
            src,
            dst,
            start,
            end,
            flow,
        });
    }
}

/// Plan `demands` for `id` from `start` with one walk stopped at each of
/// `stops` (ascending) and then run to the end; what it made, in order,
/// and its counters.
fn walk_in_steps<T: PlanTable>(
    table: &mut T,
    id: u64,
    demands: &[Demand],
    start: Time,
    stops: &[Time],
) -> (Vec<Reservation>, sunflow_core::ScheduleCounters) {
    let mut walk = Walk::new();
    walk.restart(id, demands, start, DELTA, SunflowConfig::default());
    let mut logged = Logged::new(table);
    for &stop in stops {
        walk.advance(&mut logged, stop, &mut Alone);
        if let Some(f) = walk.frontier() {
            assert!(f >= stop, "paused short of its horizon");
            assert!(
                logged.made.iter().all(|r| r.start < f),
                "made past its frontier"
            );
        }
    }
    walk.advance(&mut logged, Time::MAX, &mut Alone);
    assert!(walk.is_finished());
    (logged.made, walk.counters())
}

/// The walks of several Coflows, by rank, as the [`Outranking`] each
/// plans against: before a walk of rank `caller` reads a port up to
/// `until`, every higher-ranked walk whose Coflow touches the port is
/// advanced to `until` — the stepper's rule, written over a plain list.
struct Ladder {
    walks: Vec<Walk>,
    ins: Vec<Vec<InPort>>,
    outs: Vec<Vec<OutPort>>,
    caller: usize,
}

impl Ladder {
    fn new(coflows: &[Vec<Demand>], start: Time) -> Ladder {
        let walks = coflows
            .iter()
            .enumerate()
            .map(|(id, demands)| {
                let mut w = Walk::new();
                w.restart(id as u64, demands, start, DELTA, SunflowConfig::default());
                w
            })
            .collect();
        Ladder {
            walks,
            ins: coflows
                .iter()
                .map(|d| d.iter().map(|d| d.src).collect())
                .collect(),
            outs: coflows
                .iter()
                .map(|d| d.iter().map(|d| d.dst).collect())
                .collect(),
            caller: 0,
        }
    }

    fn advance<T: PlanTable>(&mut self, table: &mut T, rank: usize, until: Time) {
        let mut walk = std::mem::take(&mut self.walks[rank]);
        let caller = std::mem::replace(&mut self.caller, rank);
        walk.advance(table, until, self);
        self.caller = caller;
        self.walks[rank] = walk;
    }

    /// Advance every walk above the caller whose Coflow touches input
    /// port `port` (`input`) or output port `port` to `until`.
    fn force<T: PlanTable>(
        &mut self,
        table: &mut T,
        input: bool,
        port: usize,
        until: Time,
    ) -> bool {
        let mut any = false;
        for h in 0..self.caller {
            let touches = if input {
                self.ins[h].contains(&port)
            } else {
                self.outs[h].contains(&port)
            };
            if touches && self.walks[h].frontier().is_some_and(|f| f < until) {
                self.advance(table, h, until);
                any = true;
            }
        }
        any
    }
}

impl<T: PlanTable> Outranking<T> for Ladder {
    fn reveal_in(&mut self, table: &mut T, src: InPort, until: Time) -> bool {
        self.force(table, true, src, until)
    }
    fn reveal_out(&mut self, table: &mut T, dst: OutPort, until: Time) -> bool {
        self.force(table, false, dst, until)
    }
}

/// Coflow `k` of `coflows` is id `k` and rank `k`. Walk them from
/// `start` in rank order to each horizon in `stops`, then to the end;
/// the table they leave.
fn interleaved(prt: &Prt, coflows: &[Vec<Demand>], start: Time, stops: &[Time]) -> Prt {
    let mut table = prt.clone();
    let mut ladder = Ladder::new(coflows, start);
    for &stop in stops.iter().chain(&[Time::MAX]) {
        for rank in 0..coflows.len() {
            ladder.advance(&mut table, rank, stop);
        }
    }
    assert!(ladder.walks.iter().all(Walk::is_finished));
    table
}

/// Each Coflow planned to completion in rank order.
fn sequential(prt: &Prt, coflows: &[Vec<Demand>], start: Time) -> Prt {
    let mut table = prt.clone();
    let mut scratch = ScheduleScratch::new();
    let cfg = SunflowConfig::default();
    for (id, demands) in coflows.iter().enumerate() {
        schedule_demands_on(
            &mut table,
            id as u64,
            demands,
            start,
            DELTA,
            cfg,
            &mut scratch,
        );
    }
    table
}

/// Walking to `stop` with nobody forcing anybody — what a walk that
/// skipped its reveals would leave — then to the end.
fn unforced(prt: &Prt, coflows: &[Vec<Demand>], start: Time, stop: Time) -> Prt {
    let mut table = prt.clone();
    let mut walks = Ladder::new(coflows, start).walks;
    for until in [stop, Time::MAX] {
        for w in &mut walks {
            w.advance(&mut table, until, &mut Alone);
        }
    }
    table
}

fn demand(flow_idx: usize, src: usize, dst: usize, rem_ms: u64) -> Demand {
    Demand {
        flow_idx,
        src,
        dst,
        remaining: Dur::from_millis(rem_ms),
    }
}

/// Two Coflows, horizon 5 ms. Coflow 0 holds out.1 from 11 ms, which its
/// walk decides only at 11 ms; Coflow 1 asks for out.1 at 0 ms for 31 ms.
/// Its chunk must stop at 11 ms, so it must force Coflow 0 past 31 ms
/// before it probes.
#[test]
fn two_coflows_force_the_higher_walk() {
    let coflows = vec![
        vec![demand(0, 0, 0, 10), demand(1, 0, 1, 10)],
        vec![demand(0, 1, 1, 30)],
    ];
    let prt = Prt::new(4);
    let want = sequential(&prt, &coflows, Time::ZERO);
    let got = interleaved(&prt, &coflows, Time::ZERO, &[ms(5)]);
    assert_eq!(got.snapshot(), want.snapshot());
    let clipped: Vec<_> = want.future_reservations_of(1, Time::ZERO).collect();
    assert_eq!((clipped[0].start, clipped[0].end), (ms(0), ms(11)));
    // Without forcing, the lower chunk runs across the higher circuit.
    let no_force = std::panic::catch_unwind(|| unforced(&prt, &coflows, Time::ZERO, ms(5)));
    assert!(no_force.is_err() || no_force.unwrap().snapshot() != want.snapshot());
}

/// Three Coflows, horizon 5 ms: Coflow 2 forces Coflow 1 on in.2; the
/// demand Coflow 1 then examines at 5 ms must itself force Coflow 0 on
/// out.1, whose circuit from 11 ms cuts its chunk.
#[test]
fn three_coflows_force_up_two_ranks() {
    let coflows = vec![
        vec![demand(0, 0, 0, 10), demand(1, 0, 1, 10)],
        vec![demand(0, 1, 1, 4), demand(1, 2, 1, 30)],
        vec![demand(0, 2, 3, 30)],
    ];
    let prt = Prt::new(4);
    let want = sequential(&prt, &coflows, Time::ZERO);
    let got = interleaved(&prt, &coflows, Time::ZERO, &[ms(5)]);
    assert_eq!(got.snapshot(), want.snapshot());
    let middle: Vec<_> = want.future_reservations_of(1, Time::ZERO).collect();
    assert!(
        middle
            .iter()
            .any(|r| (r.src, r.start, r.end) == (2, ms(5), ms(11))),
        "Coflow 1's chunk on in.2 stops at Coflow 0's circuit: {middle:?}"
    );
    let no_force = std::panic::catch_unwind(|| unforced(&prt, &coflows, Time::ZERO, ms(5)));
    assert!(no_force.is_err() || no_force.unwrap().snapshot() != want.snapshot());
}

/// One generated flow: `(src, dst, ms)`.
type GenFlow = (usize, usize, u64);

/// Ports, an optional guard `(guarded, period ms, τ pick)`, the
/// obstacle Coflows laid first `(start ms, flows)`, the Coflows walked,
/// the start instant and the horizons, in ms.
type GenCase = (
    usize,
    (bool, u64, u64),
    Vec<(u64, Vec<GenFlow>)>,
    Vec<Vec<GenFlow>>,
    u64,
    Vec<u64>,
);

fn gen_case() -> impl Strategy<Value = GenCase> {
    let flows = || proptest::collection::vec((0usize..8, 0usize..8, 1u64..40), 1..7);
    (
        2usize..=8,
        (any::<bool>(), 12u64..150, 0u64..1_000),
        proptest::collection::vec((0u64..60, flows()), 0..4),
        proptest::collection::vec(flows(), 1..5),
        0u64..80,
        proptest::collection::vec(1u64..200, 1..=5),
    )
}

/// The case's obstacle table, the walked Coflows' demands (ids after
/// the obstacles'), the start instant and the ascending horizons.
fn lay(case: &GenCase) -> (Prt, Vec<Vec<Demand>>, Time, Vec<Time>) {
    let (ports, (guarded, period_ms, tau_pick), obstacles, walked, start_ms, stops) = case;
    let ports = *ports;
    let guard = guarded.then(|| {
        let tau_ms = 2 + tau_pick % (period_ms - 1);
        let config = GuardConfig::new(Dur::from_millis(*period_ms), Dur::from_millis(tau_ms));
        StarvationGuard::new(ports, config)
    });
    let to_demands = |flows: &Vec<GenFlow>| -> Vec<Demand> {
        flows
            .iter()
            .enumerate()
            .map(|(k, &(s, d, m))| demand(k, s % ports, d % ports, m))
            .collect()
    };
    let mut prt = Prt::with_guard(ports, guard);
    let mut scratch = ScheduleScratch::new();
    for (k, (at, flows)) in obstacles.iter().enumerate() {
        let id = 100 + k as u64;
        let cfg = SunflowConfig::default();
        schedule_demands_on(
            &mut prt,
            id,
            &to_demands(flows),
            ms(*at),
            DELTA,
            cfg,
            &mut scratch,
        );
    }
    let start = ms(*start_ms);
    let mut stops: Vec<Time> = stops.iter().map(|&s| start + Dur::from_millis(s)).collect();
    stops.sort();
    (prt, walked.iter().map(to_demands).collect(), start, stops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Paused and resumed equals one-shot, on a `Prt`.
    #[test]
    fn paused_walk_equals_one_shot_on_a_table(case in gen_case()) {
        let (prt, walked, start, stops) = lay(&case);
        let demands = &walked[0];
        let mut one_shot = prt.clone();
        let cfg = SunflowConfig::default();
        let want = schedule_demands_on(
            &mut one_shot, 0, demands, start, DELTA, cfg, &mut ScheduleScratch::new(),
        );
        let mut stepped = prt.clone();
        let got = walk_in_steps(&mut stepped, 0, demands, start, &stops);
        prop_assert_eq!(got, want);
        prop_assert_eq!(stepped.snapshot(), one_shot.snapshot());
    }

    /// Paused and resumed equals one-shot through a delta view that hides
    /// an obstacle Coflow's future, and the two views close into the same
    /// plan.
    #[test]
    fn paused_walk_equals_one_shot_through_a_view(case in gen_case()) {
        let (prt, walked, start, stops) = lay(&case);
        let demands = &walked[0];
        let cfg = SunflowConfig::default();
        let open = || {
            let mut view = DeltaView::new(&prt, start, DeltaStorage::default());
            view.hide_future_of(100);
            view.seal();
            view
        };
        let mut whole = open();
        let want = schedule_demands_on(
            &mut whole, 0, demands, start, DELTA, cfg, &mut ScheduleScratch::new(),
        );
        let mut stepped = open();
        let got = walk_in_steps(&mut stepped, 0, demands, start, &stops);
        prop_assert_eq!(&got, &want);
        let (whole, stepped) = (whole.finish(), stepped.finish());
        prop_assert!(whole.fresh().eq(stepped.fresh()));
        prop_assert_eq!(whole.reused(), stepped.reused());
    }

    /// Several Coflows walked in rank order to each horizon, forcing,
    /// leave the sequential full plans.
    #[test]
    fn forced_walks_equal_sequential_plans(case in gen_case()) {
        let (prt, walked, start, stops) = lay(&case);
        let want = sequential(&prt, &walked, start);
        let got = interleaved(&prt, &walked, start, &stops);
        prop_assert_eq!(got.snapshot(), want.snapshot());
    }
}
