//! The serving contract of every fan-out backend: advancing in slices,
//! with Coflows submitted just before they arrive and completions
//! drained every slice, replays outcome-for-outcome what one batch
//! `run_trace` does.
//!
//! The goldens pin `advance_to(Time::MAX)`; a live service never calls
//! that. Slicing exercises what batch replay cannot: the float to a
//! finite deadline (circuit planes float, the packet plane must not —
//! extra `progress` steps perturb its fluid remainders, which shifts
//! `hybrid:solver` outcomes), admission against a clock that has moved,
//! and merge state that outlives a drain.
//!
//! The same table carries the degenerate rows: one core, one port group
//! and a hybrid that never splits all replay exactly as plain `sunflow`.

mod common;

use common::{fabric, group_local, in_input_order, workload};
use ocs_model::{Coflow, Dur, ScheduleOutcome, Time};
use ocs_sim::{
    run_trace, BackendKind, FullService, HybridBackend, HybridConfig, OnlineConfig,
    SchedulingBackend,
};
use sunflow_core::{NonSplitting, ShortestFirst};

type Build = Box<dyn Fn() -> Box<dyn SchedulingBackend>>;

/// The backend a `--backend` selector names, on the fixture fabric.
fn selector(s: &'static str) -> Build {
    Box::new(move || {
        let kind: BackendKind = s.parse().expect("table selectors are valid");
        kind.build(&fabric(), &OnlineConfig::default(), Box::new(ShortestFirst))
    })
}

/// A hybrid whose policy finds nothing small: every byte keeps the
/// circuits.
fn never_splitting_hybrid() -> Build {
    Box::new(|| {
        Box::new(
            HybridBackend::new(
                &fabric(),
                &HybridConfig::default(),
                Box::new(ShortestFirst),
                Box::new(NonSplitting::new(0)),
            )
            .expect("valid config"),
        )
    })
}

struct Row {
    name: &'static str,
    build: Build,
    coflows: Vec<Coflow>,
    /// The replay must also equal plain `sunflow` on the same Coflows.
    degenerate: bool,
}

fn table() -> Vec<Row> {
    let row = |name, build, degenerate| Row {
        name,
        build,
        coflows: workload(),
        degenerate,
    };
    let sel = |s| row(s, selector(s), false);
    let degenerate = |s| row(s, selector(s), true);
    vec![
        sel("sunflow:2:least-loaded"),
        sel("sunflow:4:rank-pack"),
        Row {
            coflows: group_local(&workload()),
            ..sel("portgroups:2")
        },
        sel("hybrid:threshold"),
        sel("hybrid:solver"),
        sel("hybrid:non-splitting"),
        sel("kcore:2"),
        degenerate("sunflow:1:hash"),
        degenerate("sunflow:1:round-robin"),
        degenerate("sunflow:1:least-loaded"),
        degenerate("sunflow:1:rank-pack"),
        degenerate("portgroups:1"),
        row("hybrid never splitting", never_splitting_hybrid(), true),
    ]
}

/// Drive `backend` the way a live service does: every `slice`, submit
/// the Coflows arriving within it, advance to its end, drain.
fn run_sliced(
    coflows: &[Coflow],
    backend: &mut dyn SchedulingBackend,
    slice: Dur,
) -> Vec<ScheduleOutcome> {
    let mut by_arrival: Vec<&Coflow> = coflows.iter().collect();
    by_arrival.sort_by_key(|c| (c.arrival(), c.id()));
    let mut fed = 0usize;
    let mut done = Vec::new();
    let mut deadline = Time::ZERO;
    while fed < by_arrival.len() || !backend.is_idle() {
        deadline += slice;
        assert!(deadline < Time::from_millis(600_000), "replay must drain");
        while fed < by_arrival.len() && by_arrival[fed].arrival() <= deadline {
            backend
                .submit(by_arrival[fed].clone())
                .expect("a just-in-time arrival is never in the past");
            fed += 1;
        }
        backend.advance_to(deadline, &mut FullService);
        done.extend(backend.drain_completions().into_iter().map(|c| c.outcome));
    }
    in_input_order(coflows, done)
}

#[test]
fn sliced_serving_replays_the_batch_outcomes() {
    let slices = [
        Dur::from_micros(1_300),
        Dur::from_millis(7),
        Dur::from_millis(250),
    ];
    for row in table() {
        let batch = run_trace(&row.coflows, (row.build)().as_mut());
        for slice in slices {
            let sliced = run_sliced(&row.coflows, (row.build)().as_mut(), slice);
            assert_eq!(sliced, batch, "{} diverged at {slice} slices", row.name);
        }
        if row.degenerate {
            let sunflow = run_trace(&row.coflows, selector("sunflow")().as_mut());
            assert_eq!(batch, sunflow, "{} is not plain sunflow", row.name);
        }
    }
}
