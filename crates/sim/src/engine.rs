//! The canonical event loop over [`SchedulingBackend`]s.
//!
//! Every batch entry point in this crate (`simulate_circuit`,
//! `simulate_circuit_aggregated`, [`simulate_packet`]) and every online
//! driver (`ocs-bench` evaluation, the `ocs-daemon` service) runs this
//! loop: poll each backend for its next internal event, advance every
//! backend whose event is due at the global minimum, repeat until no
//! backend has work. Running several backends through one loop shares a
//! single virtual clock. The fan-out backends (`sunflow:<K>`,
//! `portgroups:<G>`, `hybrid:<split>`) apply the same rule to the planes
//! inside them, which is what makes the hybrid a genuine composition of
//! a circuit plane and a packet plane rather than two independent
//! simulations glued together afterwards.

use crate::backend::{PacketBackend, SchedulingBackend};
use crate::stepper::{FullService, SettleHook, SubmitError};
use ocs_model::{Coflow, Fabric, ScheduleOutcome, Time};
use ocs_packet::RateScheduler;
use std::collections::HashMap;

/// Drive `backends` on one shared clock until every one is idle,
/// consulting `hook` at each circuit settlement. Returns the total
/// events processed across all backends.
///
/// Each round advances exactly the backends whose next event is due at
/// the global minimum event time, to that time — so a backend observes
/// the same sequence of `advance_to` instants it would produce running
/// alone, and multi-backend composition cannot perturb any single
/// backend's replay.
///
/// # Panics
/// Panics if the backends repeatedly report a due event but process
/// nothing — a backend bug that would otherwise spin forever.
pub fn run_backends_to_idle(
    backends: &mut [&mut dyn SchedulingBackend],
    hook: &mut dyn SettleHook,
) -> u64 {
    let mut events = 0u64;
    let mut strikes = 0u32;
    let mut last_t: Option<Time> = None;
    while let Some(t) = backends.iter().filter_map(|b| b.next_event_time()).min() {
        let mut processed = 0u64;
        for b in backends.iter_mut() {
            if b.next_event_time().is_some_and(|e| e <= t) {
                processed += b.advance_to(t, hook);
            }
        }
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
    run_backends_to_idle(&mut [backend], &mut FullService);
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
