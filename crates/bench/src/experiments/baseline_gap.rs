//! §5.2 — the gap among the circuit-scheduling baselines.
//!
//! Paper: "on average, Solstice services a Coflow more than 2x faster
//! than TMS and more than 6x faster than Edmond", which is why Figures
//! 3–5 only compare Sunflow against Solstice.
//!
//! Edmond's fixed 100 ms slots make it pathologically slow on Coflows
//! with very large demand (thousands of slots, each a Hungarian solve),
//! so this experiment measures per-Coflow CCT ratios on the Coflows with
//! `T_pL <= 10 s` — the vast majority of the trace, and the regime where
//! the slot-size mismatch is most visible anyway. The exclusion is noted
//! in the output.

use crate::intra_eval::{eval_intra, IntraRow};
use crate::workloads::{fabric_gbps, workload};
use ocs_baselines::CircuitScheduler;
use ocs_metrics::{mean, Report, SweepTiming};
use ocs_model::{packet_lower_bound, Coflow, Dur};
use ocs_sim::IntraEngine;

/// Run the three baseline evaluations in parallel and produce the report
/// plus its timing.
pub fn run_measured() -> (Report, SweepTiming) {
    let fabric = fabric_gbps(1);
    let subset: Vec<Coflow> = workload()
        .iter()
        .filter(|c| packet_lower_bound(c, &fabric) <= Dur::from_secs(10))
        .cloned()
        .collect();

    let mut sweep = crate::sweep::<Vec<IntraRow>>();
    for (name, sched) in [
        ("solstice", CircuitScheduler::Solstice),
        ("tms", CircuitScheduler::Tms),
        ("edmond", CircuitScheduler::edmond_default()),
    ] {
        let (subset, fabric) = (&subset, &fabric);
        sweep.add(name, move || {
            eval_intra(subset, fabric, IntraEngine::Baseline(sched))
        });
    }
    let (values, timing) = sweep.run();
    let (sol, tms, edm) = (&values[0], &values[1], &values[2]);

    let ratio = |xs: &[IntraRow]| -> Vec<f64> {
        xs.iter()
            .zip(sol)
            .map(|(x, s)| x.cct.ratio(s.cct))
            .collect()
    };
    let tms_ratio = mean(&ratio(tms)).unwrap_or(f64::NAN);
    let edm_ratio = mean(&ratio(edm)).unwrap_or(f64::NAN);

    let mut report = Report::new("§5.2 — baseline gap: TMS and Edmond vs Solstice (B=1G)");
    report.note(format!(
        "evaluated on the {} of {} Coflows with T_pL <= 10 s",
        subset.len(),
        workload().len()
    ));
    report.claim(
        "avg CCT ratio TMS/Solstice (paper: >2)",
        2.0,
        tms_ratio,
        1.20,
    );
    report.claim(
        "avg CCT ratio Edmond/Solstice (paper: >6)",
        6.0,
        edm_ratio,
        1.20,
    );
    report.claim(
        "ordering Solstice < TMS < Edmond",
        1.0,
        if tms_ratio > 1.0 && edm_ratio > tms_ratio {
            1.0
        } else {
            0.0
        },
        0.001,
    );
    (report, timing)
}

/// Run the experiment and produce the report.
pub fn run() -> Report {
    run_measured().0
}
