//! The canonical event loop over a [`SchedulingBackend`].
//!
//! Every batch entry point in this crate (`simulate_circuit`,
//! `simulate_circuit_aggregated`, [`simulate_packet`]) and the `ocs-bench`
//! evaluation run this loop: poll the backend for its next internal
//! event, advance it to that instant, repeat until it has no work.
//! Composition on one clock is the fan-out backends' own business
//! (`sunflow:<K>`, `portgroups:<G>`, `hybrid:<split>`): their compositor
//! advances each plane only at that plane's own event instants.

use crate::backend::{PacketBackend, SchedulingBackend};
use crate::stepper::{FullService, SettleHook, SubmitError};
use ocs_model::{Coflow, Fabric, ScheduleOutcome, Time};
use ocs_packet::RateScheduler;
use std::collections::HashMap;

/// Drive `backend` until it is idle, advancing it to each of its own
/// event instants in turn and consulting `hook` at each circuit
/// settlement. Returns the events processed.
///
/// # Panics
/// Panics if the backend repeatedly reports a due event but processes
/// nothing — a backend bug that would otherwise spin forever.
pub fn run_backends_to_idle(backend: &mut dyn SchedulingBackend, hook: &mut dyn SettleHook) -> u64 {
    let mut events = 0u64;
    let mut strikes = 0u32;
    let mut last_t: Option<Time> = None;
    while let Some(t) = backend.next_event_time() {
        let processed = backend.advance_to(t, hook);
        events += processed;
        if processed == 0 && last_t == Some(t) {
            strikes += 1;
            assert!(strikes < 8, "engine made no progress at {t}");
        } else {
            strikes = 0;
        }
        last_t = Some(t);
    }
    events
}

/// Run a complete trace through one backend: submit every Coflow, drive
/// the loop to idle, and return outcomes in input order.
///
/// This is the batch facade every `simulate_*` entry point reduces to.
///
/// # Panics
/// Panics if a Coflow exceeds the fabric, ids collide, or the backend
/// fails to complete every Coflow.
pub fn run_trace(coflows: &[Coflow], backend: &mut dyn SchedulingBackend) -> Vec<ScheduleOutcome> {
    for c in coflows {
        match backend.submit(c.clone()) {
            Ok(()) => {}
            Err(SubmitError::ExceedsFabric { id, .. }) => {
                panic!("coflow {id} exceeds fabric ports")
            }
            Err(e) => panic!("coflow ids must be unique: {e}"),
        }
    }
    run_backends_to_idle(backend, &mut FullService);
    let mut by_id: HashMap<u64, ScheduleOutcome> = backend
        .drain_completions()
        .into_iter()
        .map(|c| (c.outcome.coflow, c.outcome))
        .collect();
    coflows
        .iter()
        .map(|c| by_id.remove(&c.id()).expect("every coflow completes"))
        .collect()
}

/// Simulate `coflows` on the packet-switched `fabric` under `scheduler`.
/// Returns one outcome per Coflow, in input order.
///
/// ```
/// use ocs_sim::simulate_packet;
/// use ocs_packet::Varys;
/// use ocs_model::{Coflow, Dur, Fabric, Time};
///
/// let fabric = Fabric::new(2, Fabric::GBPS, Dur::ZERO);
/// let c = Coflow::builder(0).flow(0, 1, 1_000_000).build(); // 8 ms at 1 Gbps
/// let out = simulate_packet(&[c], &fabric, &mut Varys);
/// // (The fluid clock rounds flow completions up by one picosecond.)
/// let cct = out[0].cct(Time::ZERO).as_secs_f64();
/// assert!((cct - 0.008).abs() < 1e-9);
/// ```
///
/// # Panics
/// Panics if the simulation stalls (active demand but no progress) —
/// impossible for work-conserving schedulers and indicative of a
/// scheduler bug otherwise.
pub fn simulate_packet(
    coflows: &[Coflow],
    fabric: &Fabric,
    scheduler: &mut dyn RateScheduler,
) -> Vec<ScheduleOutcome> {
    let mut backend = PacketBackend::new(fabric, Box::new(scheduler));
    run_trace(coflows, &mut backend)
}
