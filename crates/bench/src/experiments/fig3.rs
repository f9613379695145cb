//! Figure 3 — intra-Coflow CCT against the circuit lower bound `T_cL`,
//! Sunflow vs Solstice, at B ∈ {1, 10, 100} Gbps (δ = 10 ms).
//!
//! Paper's headline numbers (avg / p95 of `CCT / T_cL`):
//!
//! | B | Sunflow | Solstice |
//! |---|---------|----------|
//! | 1 Gbps | 1.03 / 1.18 | 1.48 / 4.74 |
//! | 10 Gbps | 1.03 / 1.24 | 2.30 / 10.06 |
//! | 100 Gbps | 1.04 / 1.27 | 3.17 / 13.83 |
//!
//! Sunflow's ratio is always below 2 (Lemma 1), while Solstice degrades
//! as `B` grows because processing times shrink relative to `δ`.

use crate::intra_eval::{eval_intra_measured, mean_of, p95_of, IntraRow};
use crate::workloads::{fabric_gbps, workload};
use ocs_baselines::CircuitScheduler;
use ocs_metrics::{Report, SweepTiming};
use ocs_sim::IntraEngine;
use sunflow_core::SunflowConfig;

/// Paper values: (gbps, sunflow avg, sunflow p95, solstice avg, solstice p95).
const PAPER: [(u64, f64, f64, f64, f64); 3] = [
    (1, 1.03, 1.18, 1.48, 4.74),
    (10, 1.03, 1.24, 2.30, 10.06),
    (100, 1.04, 1.27, 3.17, 13.83),
];

/// Run the B × engine sweep in parallel and produce the report plus its
/// timing.
pub fn run_measured() -> (Report, SweepTiming) {
    let coflows = workload();

    let mut sweep = crate::sweep::<Vec<IntraRow>>();
    for (gbps, ..) in PAPER {
        for (name, engine) in [
            ("sunflow", IntraEngine::Sunflow(SunflowConfig::default())),
            (
                "solstice",
                IntraEngine::Baseline(CircuitScheduler::Solstice),
            ),
        ] {
            sweep.add_measured(format!("B={gbps}G/{name}"), move || {
                eval_intra_measured(coflows, &fabric_gbps(gbps), engine)
            });
        }
    }
    let (values, timing) = sweep.run();

    let mut report = Report::new("Figure 3 — intra-Coflow CCT / T_cL, Sunflow vs Solstice");
    for (i, (gbps, p_sun_avg, p_sun_p95, p_sol_avg, p_sol_p95)) in PAPER.into_iter().enumerate() {
        let sun = &values[2 * i];
        let sol = &values[2 * i + 1];

        let sun_avg = mean_of(sun, IntraRow::ratio_tcl);
        let sun_p95 = p95_of(sun, IntraRow::ratio_tcl);
        let sol_avg = mean_of(sol, IntraRow::ratio_tcl);
        let sol_p95 = p95_of(sol, IntraRow::ratio_tcl);

        report.claim(
            format!("B={gbps}G Sunflow avg CCT/T_cL"),
            p_sun_avg,
            sun_avg,
            0.15,
        );
        report.claim(
            format!("B={gbps}G Sunflow p95 CCT/T_cL"),
            p_sun_p95,
            sun_p95,
            0.30,
        );
        report.claim(
            format!("B={gbps}G Solstice avg CCT/T_cL"),
            p_sol_avg,
            sol_avg,
            0.60,
        );
        report.claim(
            format!("B={gbps}G Solstice p95 CCT/T_cL"),
            p_sol_p95,
            sol_p95,
            0.80,
        );

        // The structural claims that must hold exactly.
        let sun_max = sun.iter().map(IntraRow::ratio_tcl).fold(0.0, f64::max);
        report.note(format!(
            "B={gbps}G: max Sunflow CCT/T_cL = {sun_max:.3} (Lemma 1 bound: < 2): {}",
            if sun_max < 2.0 { "holds" } else { "VIOLATED" }
        ));
        report.note(format!(
            "B={gbps}G: Solstice degrades vs Sunflow: avg ratio {:.2}x vs {:.2}x",
            sol_avg, sun_avg
        ));
    }
    report.note(
        "Shape check: Sunflow stays ~1.0x across B; Solstice worsens as B grows \
         (processing time shrinks relative to delta).",
    );
    (report, timing)
}

/// Run the experiment and produce the report.
pub fn run() -> Report {
    run_measured().0
}
