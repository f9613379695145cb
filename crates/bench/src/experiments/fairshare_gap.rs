//! Extension experiment — the value of Coflow awareness.
//!
//! The Coflow literature's founding claim (Varys §1, restated in the
//! Sunflow paper's introduction) is that per-flow fairness — what a
//! cluster gets from TCP with no Coflow scheduler — is far from optimal
//! at the application level. This experiment replays the trace under
//! Coflow-agnostic max-min fair sharing and compares against Varys, Aalo
//! and Sunflow: all three Coflow-aware schedulers must beat it on
//! average CCT, circuit-switching delta notwithstanding.

use crate::inter_eval::{avg_cct_secs, eval_inter, InterEngine};
use crate::workloads::{fabric_gbps, workload};
use ocs_metrics::{Report, SweepTiming};
use ocs_packet::FairSharing;
use ocs_sim::{simulate_packet, BackendKind};

/// Run fair sharing and every Coflow-aware engine in parallel; produce
/// the report plus its timing.
pub fn run_measured() -> (Report, SweepTiming) {
    let coflows = workload();

    let mut sweep = crate::sweep::<f64>();
    sweep.add(BackendKind::FairSharing.name(), move || {
        let fabric = fabric_gbps(1);
        let outcomes = simulate_packet(coflows, &fabric, &mut FairSharing);
        ocs_metrics::mean(
            &coflows
                .iter()
                .zip(outcomes)
                .map(|(c, o)| o.cct(c.arrival()).as_secs_f64())
                .collect::<Vec<_>>(),
        )
        .unwrap_or(f64::NAN)
    });
    for engine in InterEngine::ALL {
        sweep.add(engine.name(), move || {
            avg_cct_secs(&eval_inter(coflows, &fabric_gbps(1), engine))
        });
    }
    let (values, mut timing) = sweep.run();
    timing.runs[0].backend = Some(BackendKind::FairSharing.name().to_string());
    for (t, engine) in timing.runs.iter_mut().skip(1).zip(InterEngine::ALL) {
        t.backend = Some(engine.name().to_string());
    }
    let fair = values[0];

    let mut report = Report::new("Extension — Coflow-agnostic fair sharing vs Coflow schedulers");
    report.note(format!(
        "avg CCT, per-flow max-min fair sharing: {fair:.3}s"
    ));
    for (i, engine) in InterEngine::ALL.into_iter().enumerate() {
        let avg = values[i + 1];
        report.note(format!(
            "avg CCT, {}: {avg:.3}s  (fair-share / {} = {:.2}x)",
            engine.name(),
            engine.name(),
            fair / avg
        ));
        report.claim(
            format!("{} beats coflow-agnostic fair sharing", engine.name()),
            1.0,
            if avg < fair { 1.0 } else { 0.0 },
            0.001,
        );
    }
    report.note(
        "The founding claim of the Coflow literature, checked in this simulator: \
         even a circuit switch with reconfiguration delays beats a packet switch \
         that ignores Coflow structure.",
    );
    (report, timing)
}

/// Run the experiment and produce the report.
pub fn run() -> Report {
    run_measured().0
}
