//! Figure 9 — per-Coflow CCT difference between Sunflow and
//! Varys / Aalo under the original (≈12 % idleness) 1 Gbps load.
//!
//! Paper's reading: Coflows with small `T_pL` finish somewhat slower
//! under Sunflow (they pay the circuit reconfiguration delay), while
//! Coflows with large `T_pL` often finish *faster* than under Varys
//! (which strands bandwidth when subflows finish early) and Aalo (whose
//! equal split delays long subflows). Per-coflow ratio averages: short
//! 2.16x / 1.96x of Varys / Aalo; long 1.07x / 0.90x; overall 1.87x /
//! 1.69x.

use crate::inter_eval::{eval_inter_measured, InterEngine, InterRow};
use crate::workloads::{fabric_gbps, workload};
use ocs_metrics::{mean, Report, SweepTiming};

fn ratios(sun: &[InterRow], other: &[InterRow], long: Option<bool>) -> Vec<f64> {
    sun.iter()
        .zip(other)
        .filter(|(s, _)| long.is_none_or(|l| s.long == l))
        .map(|(s, o)| s.cct.as_secs_f64() / o.cct.as_secs_f64())
        .collect()
}

/// Run the three engine evaluations in parallel and produce the report
/// plus its timing.
pub fn run_measured() -> (Report, SweepTiming) {
    let coflows = workload();
    let mut sweep = crate::sweep::<Vec<InterRow>>();
    for engine in [InterEngine::Sunflow, InterEngine::Varys, InterEngine::Aalo] {
        sweep.add_measured(engine.name(), move || {
            eval_inter_measured(coflows, &fabric_gbps(1), engine)
        });
    }
    let (values, mut timing) = sweep.run();
    for (t, engine) in timing.runs.iter_mut().zip(InterEngine::ALL) {
        t.backend = Some(engine.name().to_string());
    }
    let sun = &values[0];
    let varys = &values[1];
    let aalo = &values[2];

    let mut report = Report::new("Figure 9 — per-Coflow CCT: Sunflow vs Varys/Aalo (B=1G)");

    let avg = |xs: Vec<f64>| mean(&xs).unwrap_or(f64::NAN);
    report.claim(
        "avg CCT ratio vs Varys (all)",
        1.87,
        avg(ratios(sun, varys, None)),
        0.50,
    );
    report.claim(
        "avg CCT ratio vs Aalo (all)",
        1.69,
        avg(ratios(sun, aalo, None)),
        0.50,
    );
    report.claim(
        "avg CCT ratio vs Varys (short)",
        2.16,
        avg(ratios(sun, varys, Some(false))),
        0.55,
    );
    report.claim(
        "avg CCT ratio vs Aalo (short)",
        1.96,
        avg(ratios(sun, aalo, Some(false))),
        0.55,
    );
    report.claim(
        "avg CCT ratio vs Varys (long)",
        1.07,
        avg(ratios(sun, varys, Some(true))),
        0.35,
    );
    report.claim(
        "avg CCT ratio vs Aalo (long)",
        0.90,
        avg(ratios(sun, aalo, Some(true))),
        0.40,
    );

    // Delta-CCT sign structure across the T_pL axis.
    for (name, other) in [
        (ocs_sim::BackendKind::Varys.name(), varys),
        (ocs_sim::BackendKind::Aalo.name(), aalo),
    ] {
        let mut buckets: Vec<(f64, usize, usize)> = Vec::new(); // (edge, faster, slower)
        for (s, o) in sun.iter().zip(other.iter()) {
            let tpl = s.tpl.as_secs_f64();
            let edge = if tpl < 0.1 {
                0.1
            } else if tpl < 1.0 {
                1.0
            } else if tpl < 10.0 {
                10.0
            } else {
                f64::INFINITY
            };
            let slot = buckets.iter_mut().find(|b| b.0 == edge);
            let slot = match slot {
                Some(b) => b,
                None => {
                    buckets.push((edge, 0, 0));
                    buckets.last_mut().expect("just pushed")
                }
            };
            if s.cct < o.cct {
                slot.1 += 1;
            } else {
                slot.2 += 1;
            }
        }
        buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN"));
        for (edge, faster, slower) in buckets {
            report.note(format!(
                "vs {name}: T_pL < {edge:>4}s: Sunflow faster for {faster}, slower for {slower}"
            ));
        }
    }
    report.note(
        "Shape check: Sunflow loses on small coflows (delta penalty), wins increasingly \
         often as T_pL grows.",
    );
    (report, timing)
}

/// Run the experiment and produce the report.
pub fn run() -> Report {
    run_measured().0
}
