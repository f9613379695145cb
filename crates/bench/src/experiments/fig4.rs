//! Figure 4 — distribution of `CCT/T_cL` and `CCT/T_pL` for
//! many-to-many Coflows, Sunflow vs Solstice (B = 1 Gbps, δ = 10 ms).
//!
//! Paper: Sunflow `CCT/T_cL` is 1.10 avg / 1.46 p95 and always < 2;
//! Solstice is 2.81 avg / 7.70 p95. All Sunflow `CCT/T_pL` < 4.5
//! (the Lemma 2 bound with the trace's 1 MB flow floor).

use crate::intra_eval::{eval_intra_measured, mean_of, p95_of, IntraRow};
use crate::workloads::{fabric_gbps, workload};
use ocs_baselines::CircuitScheduler;
use ocs_metrics::{cdf_at, Report, SweepTiming};
use ocs_model::Category;
use ocs_sim::IntraEngine;
use sunflow_core::SunflowConfig;

/// Run both engine evaluations in parallel and produce the report plus
/// its timing.
pub fn run_measured() -> (Report, SweepTiming) {
    let m2m = |rows: Vec<IntraRow>| -> Vec<IntraRow> {
        rows.into_iter()
            .filter(|r| r.category == Category::ManyToMany)
            .collect()
    };
    let mut sweep = crate::sweep::<Vec<IntraRow>>();
    sweep.add_measured("sunflow", move || {
        let (rows, compute) = eval_intra_measured(
            workload(),
            &fabric_gbps(1),
            IntraEngine::Sunflow(SunflowConfig::default()),
        );
        (m2m(rows), compute)
    });
    sweep.add_measured("solstice", move || {
        let (rows, compute) = eval_intra_measured(
            workload(),
            &fabric_gbps(1),
            IntraEngine::Baseline(CircuitScheduler::Solstice),
        );
        (m2m(rows), compute)
    });
    let (values, timing) = sweep.run();
    let sun = &values[0];
    let sol = &values[1];

    let mut report = Report::new("Figure 4 — M2M Coflows: CCT over lower bounds (B=1G)");
    report.claim(
        "Sunflow avg CCT/T_cL (M2M)",
        1.10,
        mean_of(sun, IntraRow::ratio_tcl),
        0.20,
    );
    report.claim(
        "Sunflow p95 CCT/T_cL (M2M)",
        1.46,
        p95_of(sun, IntraRow::ratio_tcl),
        0.30,
    );
    report.claim(
        "Solstice avg CCT/T_cL (M2M)",
        2.81,
        mean_of(sol, IntraRow::ratio_tcl),
        0.60,
    );
    report.claim(
        "Solstice p95 CCT/T_cL (M2M)",
        7.70,
        p95_of(sol, IntraRow::ratio_tcl),
        0.80,
    );

    // Hard bounds.
    let sun_tcl: Vec<f64> = sun.iter().map(IntraRow::ratio_tcl).collect();
    let sun_tpl: Vec<f64> = sun.iter().map(IntraRow::ratio_tpl).collect();
    report.claim(
        "fraction of Sunflow CCT/T_cL < 2",
        1.0,
        cdf_at(&sun_tcl, 2.0 - 1e-12),
        0.001,
    );
    report.claim(
        "fraction of Sunflow CCT/T_pL < 4.5",
        1.0,
        cdf_at(&sun_tpl, 4.5),
        0.001,
    );

    // CDF series for the figure.
    for (name, xs) in [
        ("Sunflow CCT/T_cL", &sun_tcl),
        ("Sunflow CCT/T_pL", &sun_tpl),
        (
            "Solstice CCT/T_cL",
            &sol.iter().map(IntraRow::ratio_tcl).collect::<Vec<_>>(),
        ),
        (
            "Solstice CCT/T_pL",
            &sol.iter().map(IntraRow::ratio_tpl).collect::<Vec<_>>(),
        ),
    ] {
        let pts: Vec<String> = [1.0, 1.25, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0]
            .iter()
            .map(|&x| format!("F({x})={:.2}", cdf_at(xs, x)))
            .collect();
        report.note(format!("CDF {name}: {}", pts.join(" ")));
    }
    (report, timing)
}

/// Run the experiment and produce the report.
pub fn run() -> Report {
    run_measured().0
}
