//! Shared machinery for the intra-Coflow experiments (Figures 3–7).
//!
//! Runs the sequential intra-Coflow replay for one engine and attaches
//! everything the figures need: lower bounds, category, per-flow
//! averages, and switching counts.

use ocs_model::{
    avg_processing_time, circuit_lower_bound, is_long, packet_lower_bound, Category, Coflow, Dur,
    Fabric, Time,
};
use ocs_sim::IntraEngine;

/// One Coflow's intra-evaluation record.
#[derive(Clone, Debug)]
pub struct IntraRow {
    /// Index into the workload.
    pub idx: usize,
    /// Completion time when serviced alone from time zero.
    pub cct: Dur,
    /// Circuit-switched lower bound `T_cL`.
    pub tcl: Dur,
    /// Packet-switched lower bound `T_pL`.
    pub tpl: Dur,
    /// Circuit establishments paid.
    pub setups: u64,
    /// `|C|`.
    pub num_flows: usize,
    /// Table-4 category.
    pub category: Category,
    /// Average per-flow processing time `p_avg`.
    pub pavg: Dur,
    /// The §5.3.2 long-Coflow predicate.
    pub long: bool,
}

impl IntraRow {
    /// `CCT / T_cL`.
    pub fn ratio_tcl(&self) -> f64 {
        self.cct.ratio(self.tcl)
    }

    /// `CCT / T_pL`.
    pub fn ratio_tpl(&self) -> f64 {
        self.cct.ratio(self.tpl)
    }

    /// Switching count over the minimum (`|C|`).
    pub fn norm_switching(&self) -> f64 {
        self.setups as f64 / self.num_flows as f64
    }
}

/// Evaluate every Coflow in isolation under `engine` on `fabric`.
pub fn eval_intra(coflows: &[Coflow], fabric: &Fabric, engine: IntraEngine) -> Vec<IntraRow> {
    eval_intra_measured(coflows, fabric, engine).0
}

/// [`eval_intra`] plus the scheduler-compute duration — the summed time
/// of the `engine.service` calls alone, bounds and row bookkeeping
/// excluded — for [`crate::sweep::Sweep::add_measured`] (the `compute_s`
/// field of the `BENCH_<id>.json` records).
pub fn eval_intra_measured(
    coflows: &[Coflow],
    fabric: &Fabric,
    engine: IntraEngine,
) -> (Vec<IntraRow>, std::time::Duration) {
    let mut compute = std::time::Duration::ZERO;
    let rows = coflows
        .iter()
        .enumerate()
        .map(|(idx, c)| {
            let t0 = std::time::Instant::now();
            let o = engine.service(c, fabric);
            compute += t0.elapsed();
            IntraRow {
                idx,
                cct: o.cct(Time::ZERO),
                tcl: circuit_lower_bound(c, fabric),
                tpl: packet_lower_bound(c, fabric),
                setups: o.circuit_setups,
                num_flows: c.num_flows(),
                category: c.category(),
                pavg: avg_processing_time(c, fabric),
                long: is_long(c, fabric),
            }
        })
        .collect();
    (rows, compute)
}

/// Mean of a derived quantity over rows.
pub fn mean_of(rows: &[IntraRow], f: impl Fn(&IntraRow) -> f64) -> f64 {
    ocs_metrics::mean(&rows.iter().map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

/// 95th percentile of a derived quantity over rows.
pub fn p95_of(rows: &[IntraRow], f: impl Fn(&IntraRow) -> f64) -> f64 {
    ocs_metrics::percentile(&rows.iter().map(f).collect::<Vec<_>>(), 95.0).unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocs_model::Bandwidth;
    use sunflow_core::SunflowConfig;

    #[test]
    fn rows_carry_consistent_bounds() {
        let f = Fabric::new(8, Bandwidth::GBPS, Dur::from_millis(10));
        let cs = vec![
            Coflow::builder(0)
                .flow(0, 0, 5_000_000)
                .flow(1, 1, 1_000_000)
                .build(),
            Coflow::builder(1).flow(0, 1, 12_000_000).build(),
        ];
        let rows = eval_intra(&cs, &f, IntraEngine::Sunflow(SunflowConfig::default()));
        for r in &rows {
            assert!(r.tcl >= r.tpl);
            assert!(r.ratio_tcl() >= 1.0 && r.ratio_tcl() < 2.0);
            assert_eq!(r.norm_switching(), 1.0);
        }
        assert!(mean_of(&rows, IntraRow::ratio_tcl) >= 1.0);
        assert!(p95_of(&rows, IntraRow::ratio_tcl) >= 1.0);
    }
}

#[cfg(test)]
mod probe {

    use crate::workloads::{fabric_gbps, workload};
    use ocs_baselines::CircuitScheduler;
    use ocs_model::{Category, DemandMatrix, Time};

    #[test]
    #[ignore]
    fn probe_solstice() {
        let fabric = fabric_gbps(1);
        for c in workload()
            .iter()
            .filter(|c| c.category() == Category::ManyToMany)
            .take(8)
        {
            // compact like service_coflow does
            let o = CircuitScheduler::Solstice.service_coflow(c, &fabric, Time::ZERO);
            let tcl = ocs_model::circuit_lower_bound(c, &fabric);
            let tpl = ocs_model::packet_lower_bound(c, &fabric);
            let demand = DemandMatrix::from_coflow(c, &fabric);
            let slices = CircuitScheduler::Solstice.schedule(&demand).len();
            println!("|C|={} senders={} recv={} T_pL={:.2}s T_cL={:.2}s CCT={:.2}s ratio={:.2} setups={} slices(full-matrix)={}",
                c.num_flows(), c.num_senders(), c.num_receivers(),
                tpl.as_secs_f64(), tcl.as_secs_f64(),
                o.cct(Time::ZERO).as_secs_f64(), o.cct(Time::ZERO).ratio(tcl),
                o.circuit_setups, slices);
        }
    }
}
