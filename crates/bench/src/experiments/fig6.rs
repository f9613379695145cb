//! Figure 6 — sensitivity of intra-Coflow scheduling to the circuit
//! reconfiguration delay δ (B = 1 Gbps).
//!
//! Each Coflow's CCT is normalized by its own CCT at the δ = 10 ms
//! baseline. Paper (avg / p95): 100 ms → 5.71 / 13.12; 10 ms →
//! 1.00 / 1.00; 1 ms → 0.65 / 0.99; 100 µs → 0.61 / 0.99;
//! 10 µs → 0.61 / 0.99. Beyond δ = 1 ms the marginal benefit of faster
//! switching is very small.

use crate::intra_eval::{eval_intra_measured, IntraRow};
use crate::workloads::{fabric_gbps, workload, DELTA_SWEEP};
use ocs_metrics::{mean, percentile, Report, SweepTiming};
use ocs_sim::IntraEngine;
use sunflow_core::SunflowConfig;

/// Paper values: (delta label, avg, p95) of CCT w.r.t. the 10 ms baseline.
const PAPER: [(&str, f64, f64); 5] = [
    ("100ms", 5.71, 13.12),
    ("10ms", 1.00, 1.00),
    ("1ms", 0.65, 0.99),
    ("100us", 0.61, 0.99),
    ("10us", 0.61, 0.99),
];

/// Run the δ sweep in parallel and produce the report plus its timing.
pub fn run_measured() -> (Report, SweepTiming) {
    let coflows = workload();
    let engine = IntraEngine::Sunflow(SunflowConfig::default());

    let mut sweep = crate::sweep::<Vec<IntraRow>>();
    sweep.add_measured("baseline delta=10ms", move || {
        eval_intra_measured(coflows, &fabric_gbps(1), engine)
    });
    for (label, delta) in DELTA_SWEEP {
        sweep.add_measured(format!("delta={label}"), move || {
            eval_intra_measured(coflows, &fabric_gbps(1).with_delta(delta), engine)
        });
    }
    let (values, mut timing) = sweep.run();
    crate::tag_backend(&mut timing, ocs_sim::BackendKind::Sunflow.name());
    let base = &values[0];

    let mut report = Report::new("Figure 6 — intra-Coflow sensitivity to delta (Sunflow, B=1G)");
    for (i, ((label, _), (plabel, p_avg, p_p95))) in DELTA_SWEEP.into_iter().zip(PAPER).enumerate()
    {
        debug_assert_eq!(label, plabel);
        let rows = &values[i + 1];
        let normalized: Vec<f64> = rows
            .iter()
            .zip(base)
            .map(|(r, b)| r.cct.ratio(b.cct))
            .collect();
        let avg = mean(&normalized).unwrap_or(f64::NAN);
        let p95 = percentile(&normalized, 95.0).unwrap_or(f64::NAN);
        report.claim(format!("delta={label} avg CCT vs 10ms"), p_avg, avg, 0.35);
        if label == "100ms" {
            // Documented deviation (see EXPERIMENTS.md, "Figure 6"): the
            // paper's p95 of 13.12 at delta=100ms is not reproduced by
            // the calibrated synthetic workload, whose tail lacks the
            // many-tiny-flow Coflows that pay ~delta per flow.
            report.claim_known_gap(format!("delta={label} p95 CCT vs 10ms"), p_p95, p95, 0.35);
        } else {
            report.claim(format!("delta={label} p95 CCT vs 10ms"), p_p95, p95, 0.35);
        }
    }
    report.note(
        "Shape check: large penalty at 100ms; modest gain at 1ms; negligible gain below 100us.",
    );
    (report, timing)
}

/// Run the experiment and produce the report.
pub fn run() -> Report {
    run_measured().0
}
