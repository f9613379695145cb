//! The future-arrival queue every backend holds a submitted Coflow in
//! until its arrival instant: the [`OnlineStepper`](crate::OnlineStepper),
//! the fan-out compositor, [`KCoreBackend`](crate::KCoreBackend),
//! [`CircuitBackend`](crate::CircuitBackend) and
//! [`PacketBackend`](crate::PacketBackend). A backend indexes a Coflow
//! into its own tables when it pops it at admission.

use crate::stepper::SubmitError;
use ocs_model::{Coflow, Fabric, Time};
use std::collections::{BTreeMap, HashSet};

/// Submitted Coflows whose arrival is still ahead of the owner's clock,
/// in `(arrival, id)` order — the admission order of batch submission —
/// plus every id ever accepted, for duplicate rejection.
#[derive(Default)]
pub(crate) struct ArrivalQueue {
    pending: BTreeMap<(Time, u64), Coflow>,
    ids: HashSet<u64>,
}

impl ArrivalQueue {
    /// Validate `coflow` against `fabric` and the owner's clock `now`
    /// and queue it. `admissible` is the owner's own check (a
    /// partitioned fabric's group-locality), run after the port-range
    /// check and before the id is recorded. A refused Coflow leaves no
    /// trace: its id may be resubmitted.
    pub(crate) fn submit(
        &mut self,
        coflow: Coflow,
        fabric: &Fabric,
        now: Time,
        admissible: impl FnOnce(&Coflow) -> Result<(), SubmitError>,
    ) -> Result<(), SubmitError> {
        if !fabric.fits(&coflow) {
            return Err(SubmitError::ExceedsFabric {
                id: coflow.id(),
                ports: fabric.ports(),
            });
        }
        admissible(&coflow)?;
        if !self.ids.insert(coflow.id()) {
            return Err(SubmitError::DuplicateId(coflow.id()));
        }
        if coflow.arrival() < now {
            self.ids.remove(&coflow.id());
            return Err(SubmitError::ArrivalInPast {
                arrival: coflow.arrival(),
                now,
            });
        }
        self.pending.insert((coflow.arrival(), coflow.id()), coflow);
        Ok(())
    }

    /// The earliest queued arrival instant.
    pub(crate) fn next_arrival(&self) -> Option<Time> {
        self.pending.keys().next().map(|&(a, _)| a)
    }

    /// Take the next Coflow in admission order if it arrives at or
    /// before `t`.
    pub(crate) fn pop_due(&mut self, t: Time) -> Option<Coflow> {
        if self.next_arrival()? > t {
            return None;
        }
        self.pending.pop_first().map(|(_, c)| c)
    }

    /// Queued Coflows, in admission order.
    pub(crate) fn coflows(&self) -> impl Iterator<Item = &Coflow> {
        self.pending.values()
    }

    /// Number of queued Coflows.
    pub(crate) fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}
