//! Figure 7 — Sunflow CCT against the packet-switched lower bound
//! `T_pL` (B = 1 Gbps, δ = 10 ms), long vs short Coflows.
//!
//! Paper: long Coflows (average subflow ≥ 5 MB; 25.2 % of Coflows,
//! 98.8 % of bytes) achieve `CCT/T_pL` of 1.09 avg / 1.25 p95; overall
//! 1.86 avg / 2.31 p95; everything under the 4.5 theoretical cap; rank
//! correlation between `p_avg` and `CCT/T_pL` is −0.96.

use crate::intra_eval::{eval_intra_measured, mean_of, p95_of, IntraRow};
use crate::workloads::{fabric_gbps, workload};
use ocs_metrics::{spearman, Report, SweepTiming};
use ocs_sim::IntraEngine;
use sunflow_core::SunflowConfig;

/// Run the (single-configuration) evaluation under the sweep engine and
/// produce the report plus its timing.
pub fn run_measured() -> (Report, SweepTiming) {
    let mut sweep = crate::sweep::<Vec<IntraRow>>();
    sweep.add_measured("sunflow B=1G", move || {
        eval_intra_measured(
            workload(),
            &fabric_gbps(1),
            IntraEngine::Sunflow(SunflowConfig::default()),
        )
    });
    let (values, timing) = sweep.run();
    let rows = &values[0];
    let long: Vec<IntraRow> = rows.iter().filter(|r| r.long).cloned().collect();

    let mut report = Report::new("Figure 7 — Sunflow CCT / T_pL, long vs all Coflows (B=1G)");

    let long_frac = long.len() as f64 / rows.len() as f64;
    report.claim("long Coflow fraction", 0.252, long_frac, 0.30);

    report.claim(
        "long avg CCT/T_pL",
        1.09,
        mean_of(&long, IntraRow::ratio_tpl),
        0.20,
    );
    report.claim(
        "long p95 CCT/T_pL",
        1.25,
        p95_of(&long, IntraRow::ratio_tpl),
        0.30,
    );
    report.claim(
        "overall avg CCT/T_pL",
        1.86,
        mean_of(rows, IntraRow::ratio_tpl),
        0.35,
    );
    report.claim(
        "overall p95 CCT/T_pL",
        2.31,
        p95_of(rows, IntraRow::ratio_tpl),
        0.35,
    );

    let max_ratio = rows.iter().map(IntraRow::ratio_tpl).fold(0.0, f64::max);
    report.note(format!(
        "max CCT/T_pL = {max_ratio:.3} (theoretical cap 4.5 with the 1 MB floor): {}",
        if max_ratio <= 4.5 {
            "holds"
        } else {
            "VIOLATED"
        }
    ));
    report.claim(
        "all CCT/T_pL within 4.5",
        1.0,
        if max_ratio <= 4.5 { 1.0 } else { 0.0 },
        0.001,
    );

    // Rank correlation between p_avg and CCT/T_pL (paper: -0.96).
    let pavg: Vec<f64> = rows.iter().map(|r| r.pavg.as_secs_f64()).collect();
    let ratio: Vec<f64> = rows.iter().map(IntraRow::ratio_tpl).collect();
    let rho = spearman(&pavg, &ratio).unwrap_or(f64::NAN);
    report.claim("rank corr(p_avg, CCT/T_pL)", -0.96, rho, 0.10);

    report.note(
        "Shape check: as p_avg grows, circuit duty cycle grows and CCT/T_pL -> 1 — \
         Sunflow approaches packet switching for the Coflows that carry the bytes.",
    );
    (report, timing)
}

/// Run the experiment and produce the report.
pub fn run() -> Report {
    run_measured().0
}
