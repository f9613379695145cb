//! Sequential intra-Coflow evaluation driver.
//!
//! §5.1 of the paper: "In intra-Coflow evaluation, a Coflow arrives only
//! after the previous one is finished, so that only one Coflow is
//! scheduled at any time and the Coflow arrival time in the original
//! trace is ignored." Each Coflow therefore sees an idle fabric, and its
//! CCT is independent of the others — we service each from time zero.

use ocs_baselines::CircuitScheduler;
use ocs_model::{Coflow, Fabric, ScheduleOutcome, Time};
use sunflow_core::{IntraScheduler, SunflowConfig};

/// Which intra-Coflow circuit scheduler to drive.
#[derive(Clone, Copy, Debug)]
pub enum IntraEngine {
    /// Sunflow with the given configuration.
    Sunflow(SunflowConfig),
    /// One of the assignment-based baselines.
    Baseline(CircuitScheduler),
}

impl IntraEngine {
    /// Canonical scheduler name for reports (the same string
    /// [`crate::backend::BackendKind::name`] reports for the
    /// corresponding online backend).
    pub fn name(&self) -> &'static str {
        match self {
            IntraEngine::Sunflow(_) => crate::backend::BackendKind::Sunflow.name(),
            IntraEngine::Baseline(b) => b.name(),
        }
    }

    /// Service one Coflow alone on the fabric.
    pub fn service(&self, coflow: &Coflow, fabric: &Fabric) -> ScheduleOutcome {
        match self {
            IntraEngine::Sunflow(cfg) => IntraScheduler::new(fabric, *cfg)
                .schedule(coflow)
                .to_outcome(),
            IntraEngine::Baseline(b) => b.service_coflow(coflow, fabric, Time::ZERO),
        }
    }
}

/// Service every Coflow of `coflows` in isolation and return the outcomes
/// in input order.
pub fn run_intra(coflows: &[Coflow], fabric: &Fabric, engine: IntraEngine) -> Vec<ScheduleOutcome> {
    coflows.iter().map(|c| engine.service(c, fabric)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocs_model::{circuit_lower_bound, Bandwidth, Dur};

    fn fabric() -> Fabric {
        Fabric::new(4, Bandwidth::GBPS, Dur::from_millis(10))
    }

    fn coflows() -> Vec<Coflow> {
        vec![
            Coflow::builder(0)
                .flow(0, 0, 2_000_000)
                .flow(1, 1, 3_000_000)
                .build(),
            Coflow::builder(1)
                .flow(0, 1, 1_000_000)
                .flow(0, 2, 1_000_000)
                .flow(3, 1, 4_000_000)
                .build(),
        ]
    }

    #[test]
    fn every_engine_services_every_coflow() {
        let f = fabric();
        let cs = coflows();
        for engine in [
            IntraEngine::Sunflow(SunflowConfig::default()),
            IntraEngine::Baseline(CircuitScheduler::Solstice),
            IntraEngine::Baseline(CircuitScheduler::Tms),
            IntraEngine::Baseline(CircuitScheduler::edmond_default()),
        ] {
            let out = run_intra(&cs, &f, engine);
            assert_eq!(out.len(), 2);
            for (c, o) in cs.iter().zip(&out) {
                assert!(
                    o.cct(Time::ZERO) >= circuit_lower_bound(c, &f),
                    "{} beat the lower bound",
                    engine.name()
                );
            }
        }
    }

    #[test]
    fn isolation_means_order_independence() {
        let f = fabric();
        let mut cs = coflows();
        let fwd = run_intra(&cs, &f, IntraEngine::Sunflow(SunflowConfig::default()));
        cs.reverse();
        let rev = run_intra(&cs, &f, IntraEngine::Sunflow(SunflowConfig::default()));
        assert_eq!(fwd[0].finish, rev[1].finish);
        assert_eq!(fwd[1].finish, rev[0].finish);
    }
}
