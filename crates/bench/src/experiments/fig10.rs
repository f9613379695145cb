//! Figure 10 — sensitivity of inter-Coflow scheduling to δ
//! (B = 1 Gbps, original load, Sunflow with shortest-Coflow-first).
//!
//! Per-Coflow CCT normalized to the δ = 10 ms baseline. Paper
//! (avg / p95): 100 ms → 4.91 / 7.22; 10 ms → 1.00 / 1.00; 1 ms →
//! 0.65 / 0.98; 100 µs → 0.61 / 0.98; 10 µs → 0.61 / 0.98. As for the
//! intra case, optimizing switching hardware below δ ≈ 1 ms buys little.

use crate::inter_eval::{eval_inter_with_stats, replay_counters, InterEngine, InterRow};
use crate::workloads::{fabric_gbps, workload, DELTA_SWEEP};
use ocs_metrics::{mean, percentile, Report, SweepTiming};
use ocs_sim::ReplayStats;

/// Paper values: (delta label, avg, p95) normalized to the 10 ms baseline.
const PAPER: [(&str, f64, f64); 5] = [
    ("100ms", 4.91, 7.22),
    ("10ms", 1.00, 1.00),
    ("1ms", 0.65, 0.98),
    ("100us", 0.61, 0.98),
    ("10us", 0.61, 0.98),
];

/// Run the δ sweep in parallel and produce the report plus its timing.
pub fn run_measured() -> (Report, SweepTiming) {
    let coflows = workload();

    let mut sweep = crate::sweep::<(Vec<InterRow>, Option<ReplayStats>)>();
    sweep.add_measured("baseline delta=10ms", move || {
        eval_inter_with_stats(coflows, &fabric_gbps(1), InterEngine::Sunflow)
    });
    for (label, delta) in DELTA_SWEEP {
        sweep.add_measured(format!("delta={label}"), move || {
            eval_inter_with_stats(
                coflows,
                &fabric_gbps(1).with_delta(delta),
                InterEngine::Sunflow,
            )
        });
    }
    let (values, mut timing) = sweep.run();
    crate::tag_backend(&mut timing, InterEngine::Sunflow.name());
    for (t, (_, stats)) in timing.runs.iter_mut().zip(&values) {
        if let Some(stats) = stats {
            t.counters = replay_counters(stats);
        }
    }
    let base = &values[0].0;

    let mut report = Report::new("Figure 10 — inter-Coflow sensitivity to delta (Sunflow, B=1G)");
    for (i, ((label, _), (plabel, p_avg, p_p95))) in DELTA_SWEEP.into_iter().zip(PAPER).enumerate()
    {
        debug_assert_eq!(label, plabel);
        let rows = &values[i + 1].0;
        let normalized: Vec<f64> = rows
            .iter()
            .zip(base)
            .map(|(r, b)| r.cct.as_secs_f64() / b.cct.as_secs_f64())
            .collect();
        let avg = mean(&normalized).unwrap_or(f64::NAN);
        let p95 = percentile(&normalized, 95.0).unwrap_or(f64::NAN);
        report.claim(format!("delta={label} avg CCT vs 10ms"), p_avg, avg, 0.45);
        report.claim(format!("delta={label} p95 CCT vs 10ms"), p_p95, p95, 0.45);
    }
    report.note("Shape check: mirrors Figure 6 — heavy penalty at 100ms, plateau below 1ms.");
    (report, timing)
}

/// Run the experiment and produce the report.
pub fn run() -> Report {
    run_measured().0
}
