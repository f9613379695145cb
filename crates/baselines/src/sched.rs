//! A uniform front-end over the assignment-based circuit schedulers, so
//! the evaluation harness can service a Coflow with any of them and get a
//! comparable [`ScheduleOutcome`].

use crate::edmond::{edmond_schedule, DEFAULT_SLOT};
use crate::executor::{execute, ExecConfig, SwitchModel, TimedAssignment};
use crate::solstice::solstice_schedule;
use crate::tms::tms_schedule;
use ocs_model::{Coflow, DemandMatrix, Dur, Fabric, ScheduleOutcome, Time};
use std::collections::BTreeSet;

/// The circuit-scheduling baselines of §3.1.1 / §5.2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CircuitScheduler {
    /// Solstice: QuickStuff + BigSlice (CoNEXT'15).
    Solstice,
    /// TMS: stuffing + Birkhoff–von Neumann decomposition.
    Tms,
    /// Edmond: repeated max-weight matchings with a fixed slot.
    Edmond {
        /// The externally fixed slot duration.
        slot: Dur,
    },
}

impl CircuitScheduler {
    /// Edmond with the paper's "hundreds of milliseconds" default slot.
    pub fn edmond_default() -> CircuitScheduler {
        CircuitScheduler::Edmond { slot: DEFAULT_SLOT }
    }

    /// Human-readable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            CircuitScheduler::Solstice => "Solstice",
            CircuitScheduler::Tms => "TMS",
            CircuitScheduler::Edmond { .. } => "Edmond",
        }
    }

    /// Compute the assignment sequence for a demand matrix.
    pub fn schedule(&self, demand: &DemandMatrix) -> Vec<TimedAssignment> {
        match self {
            CircuitScheduler::Solstice => solstice_schedule(demand),
            CircuitScheduler::Tms => tms_schedule(demand),
            CircuitScheduler::Edmond { slot } => edmond_schedule(demand, *slot),
        }
    }

    /// How this scheduler's output is executed. Solstice and TMS advance
    /// when circuits go idle (the Figure 1b behaviour); Edmond's slot
    /// length is fixed externally, so its slots hold their full duration.
    /// All run on the accurate not-all-stop switch.
    pub fn exec_config(&self) -> ExecConfig {
        ExecConfig {
            switch: SwitchModel::NotAllStop,
            early_advance: !matches!(self, CircuitScheduler::Edmond { .. }),
        }
    }

    /// Service one Coflow alone on the fabric (the intra-Coflow
    /// evaluation setting) and report the outcome.
    pub fn service_coflow(&self, coflow: &Coflow, fabric: &Fabric, start: Time) -> ScheduleOutcome {
        self.service_coflow_with(coflow, fabric, start, self.exec_config())
    }

    /// Like [`CircuitScheduler::service_coflow`] with an explicit
    /// execution config (used by the all-stop ablation).
    ///
    /// The demand matrix is first [`compact`]ed to the Coflow's active
    /// ports, and the plan executes in compact space — padding circuits
    /// included.
    pub fn service_coflow_with(
        &self,
        coflow: &Coflow,
        fabric: &Fabric,
        start: Time,
        cfg: ExecConfig,
    ) -> ScheduleOutcome {
        assert!(fabric.fits(coflow), "coflow exceeds fabric ports");
        let c = compact(
            coflow
                .flows()
                .iter()
                .map(|f| (f.src, f.dst, fabric.processing_time(f.bytes))),
        );
        let schedule = self.schedule(&c.demand);
        let r = execute(&schedule, &c.demand, fabric.delta(), cfg, start);

        let flow_finish: Vec<Time> = coflow
            .flows()
            .iter()
            .map(|f| r.entry_finish[&(index(&c.srcs, f.src), index(&c.dsts, f.dst))])
            .collect();
        ScheduleOutcome {
            coflow: coflow.id(),
            start,
            finish: r.finish,
            flow_finish,
            circuit_setups: r.circuit_setups,
        }
    }
}

/// Demand compacted to its active ports: row `r` of `demand` is real
/// input port `srcs[r]`, column `c` is real output port `dsts[c]`. The
/// matrix is square, `max(|srcs|, |dsts|)` wide, so the shorter side has
/// padding rows or columns that map to no real port.
///
/// Stuffing and decomposition then only ever configure circuits among
/// ports the demand touches, which is what the paper's Figure 1b
/// depicts for Solstice; without compaction, QuickStuff on a 150-port
/// fabric would flood the ~146 idle ports with dummy demand.
///
/// The two callers differ in one thing, the padding circuits. The
/// offline service path ([`CircuitScheduler::service_coflow_with`])
/// executes the plan in compact space, so padding circuits are set up
/// and counted — Figure 5's switching count includes dummy circuits.
/// The aggregated replay (`ocs_sim::CircuitBackend`) translates the
/// plan back to real ports and drops them, as they map to no port.
#[derive(Clone, Debug)]
pub struct Compacted {
    /// Real input port of each row, ascending.
    pub srcs: Vec<usize>,
    /// Real output port of each column, ascending.
    pub dsts: Vec<usize>,
    /// The compacted square demand matrix.
    pub demand: DemandMatrix,
}

/// Compact the demand entries `(src, dst, p)` to their active ports;
/// entries on the same circuit add up.
///
/// # Panics
/// Panics if `entries` is empty.
pub fn compact(entries: impl Iterator<Item = (usize, usize, Dur)>) -> Compacted {
    let entries: Vec<(usize, usize, Dur)> = entries.collect();
    let srcs: BTreeSet<usize> = entries.iter().map(|e| e.0).collect();
    let dsts: BTreeSet<usize> = entries.iter().map(|e| e.1).collect();
    let mut c = Compacted {
        demand: DemandMatrix::zero(srcs.len().max(dsts.len())),
        srcs: srcs.into_iter().collect(),
        dsts: dsts.into_iter().collect(),
    };
    for (i, j, p) in entries {
        c.demand.add(index(&c.srcs, i), index(&c.dsts, j), p);
    }
    c
}

/// The compact index of real port `p` in `ports` (`srcs` or `dsts`).
fn index(ports: &[usize], p: usize) -> usize {
    ports.binary_search(&p).expect("port carries demand")
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocs_model::{circuit_lower_bound, Bandwidth};

    fn fabric() -> Fabric {
        Fabric::new(4, Bandwidth::GBPS, Dur::from_millis(10))
    }

    fn shuffle(scale: u64) -> Coflow {
        let mut b = Coflow::builder(0);
        for i in 0..3 {
            for j in 0..3 {
                b = b.flow(i, j, scale * (1 + ((i * 3 + j) as u64 % 4)));
            }
        }
        b.build()
    }

    #[test]
    fn all_schedulers_service_the_coflow() {
        let f = fabric();
        let c = shuffle(1_000_000);
        for s in [
            CircuitScheduler::Solstice,
            CircuitScheduler::Tms,
            CircuitScheduler::edmond_default(),
        ] {
            let o = s.service_coflow(&c, &f, Time::ZERO);
            assert_eq!(o.flow_finish.len(), c.num_flows(), "{}", s.name());
            assert!(o.finish > Time::ZERO);
            // No scheduler beats the theoretical lower bound.
            assert!(
                o.cct(Time::ZERO) >= circuit_lower_bound(&c, &f),
                "{} beat T_cL",
                s.name()
            );
        }
    }

    /// The paper's §5.2 ordering on a many-to-many Coflow: Solstice
    /// faster than TMS, TMS faster than (or comparable to) Edmond.
    #[test]
    fn solstice_beats_tms_beats_edmond_on_shuffles() {
        let f = fabric();
        let c = shuffle(2_000_000);
        let cct = |s: CircuitScheduler| s.service_coflow(&c, &f, Time::ZERO).cct(Time::ZERO);
        let sol = cct(CircuitScheduler::Solstice);
        let tms = cct(CircuitScheduler::Tms);
        let edm = cct(CircuitScheduler::edmond_default());
        assert!(sol <= tms, "solstice {sol} vs tms {tms}");
        assert!(tms <= edm, "tms {tms} vs edmond {edm}");
    }

    #[test]
    fn switching_counts_exceed_the_minimum_for_preemptive_schedulers() {
        let f = fabric();
        let c = shuffle(3_000_000);
        let o = CircuitScheduler::Solstice.service_coflow(&c, &f, Time::ZERO);
        // Stuffed perfect matchings configure extra circuits.
        assert!(o.circuit_setups >= c.num_flows() as u64);
    }
}
