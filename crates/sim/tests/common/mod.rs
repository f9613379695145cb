//! Helpers shared by the replan-equivalence suites.

use ocs_model::{Coflow, Time};

/// The same workload `k` times slower and larger: arrivals and flow sizes
/// both scale, so it keeps its shape while spanning `k` times the time —
/// long enough for a sparse guard's windows to come round.
pub fn stretch(coflows: &[Coflow], k: u64) -> Vec<Coflow> {
    coflows
        .iter()
        .map(|c| {
            let arrival = Time::ZERO + c.arrival().since(Time::ZERO) * k;
            let mut b = Coflow::builder(c.id()).arrival(arrival);
            for f in c.flows() {
                b = b.flow(f.src, f.dst, f.bytes * k);
            }
            b.build()
        })
        .collect()
}
