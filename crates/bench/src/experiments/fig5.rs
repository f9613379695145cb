//! Figure 5 — circuit-switching counts for many-to-many Coflows,
//! normalized by the minimum necessary (= `|C|`).
//!
//! Paper: Sunflow's switching count is always exactly the minimum
//! (normalized 1.0); Solstice schedules many switchings per subflow —
//! its normalized count correlates with `|C|` (linear correlation
//! coefficient 0.84) and reaches beyond 10.

use crate::intra_eval::{eval_intra_measured, mean_of, IntraRow};
use crate::workloads::{fabric_gbps, workload};
use ocs_baselines::CircuitScheduler;
use ocs_metrics::{cdf_at, pearson, Report, SweepTiming};
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
    let (values, mut timing) = sweep.run();
    let kinds = [
        ocs_sim::BackendKind::Sunflow,
        ocs_sim::BackendKind::Solstice,
    ];
    for (t, kind) in timing.runs.iter_mut().zip(kinds) {
        t.backend = Some(kind.name().to_string());
    }
    let sun = &values[0];
    let sol = &values[1];

    let mut report = Report::new("Figure 5 — switching count over minimum (M2M, B=1G)");

    let sun_norm: Vec<f64> = sun.iter().map(IntraRow::norm_switching).collect();
    let sol_norm: Vec<f64> = sol.iter().map(IntraRow::norm_switching).collect();

    report.claim(
        "fraction of Sunflow coflows at exactly the minimum",
        1.0,
        cdf_at(&sun_norm, 1.0),
        0.001,
    );
    report.claim(
        "Sunflow avg normalized switching",
        1.0,
        mean_of(sun, IntraRow::norm_switching),
        0.001,
    );

    let sol_mean = mean_of(sol, IntraRow::norm_switching);
    report.note(format!(
        "Solstice avg normalized switching: {sol_mean:.2} (paper: 'numerous switchings per subflow')"
    ));
    report.claim(
        "Solstice normalized switching exceeds Sunflow's",
        1.0,
        if sol_mean > 1.2 { 1.0 } else { 0.0 },
        0.001,
    );

    // Correlation between Solstice's normalized count and |C|.
    let sizes: Vec<f64> = sol.iter().map(|r| r.num_flows as f64).collect();
    let corr = pearson(&sol_norm, &sizes).unwrap_or(f64::NAN);
    report.claim("corr(Solstice norm switching, |C|)", 0.84, corr, 0.45);

    for (name, xs) in [
        (ocs_sim::BackendKind::Sunflow.name(), &sun_norm),
        (ocs_sim::BackendKind::Solstice.name(), &sol_norm),
    ] {
        let pts: Vec<String> = [1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0, 12.0]
            .iter()
            .map(|&x| format!("F({x})={:.2}", cdf_at(xs, x)))
            .collect();
        report.note(format!(
            "CDF {name} normalized switching: {}",
            pts.join(" ")
        ));
    }
    (report, timing)
}

/// Run the experiment and produce the report.
pub fn run() -> Report {
    run_measured().0
}
