//! Shared machinery for the inter-Coflow experiments (Figures 8–10):
//! run the full trace replay under Sunflow (circuit switched) and under
//! Varys / Aalo (packet switched), and collect per-Coflow CCTs.
//!
//! Every engine is constructed through [`BackendKind`] and replayed by
//! the one unified event loop ([`ocs_sim::run_trace`]) — there is no
//! per-family branching here.

use ocs_model::{packet_lower_bound, Coflow, Dur, Fabric};
use ocs_sim::{run_trace, BackendKind, OnlineConfig, ReplayStats};
use std::time::{Duration, Instant};
use sunflow_core::ShortestFirst;

/// Which end-to-end scheduler to replay the trace under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InterEngine {
    /// Sunflow on the optical circuit switch (δ > 0), shortest-first.
    Sunflow,
    /// Varys on the packet switch (δ = 0).
    Varys,
    /// Aalo on the packet switch (δ = 0).
    Aalo,
}

impl InterEngine {
    /// All three engines of the §5.4 comparison.
    pub const ALL: [InterEngine; 3] = [InterEngine::Sunflow, InterEngine::Varys, InterEngine::Aalo];

    /// The unified-engine backend this evaluation engine runs on.
    pub fn backend(&self) -> BackendKind {
        match self {
            InterEngine::Sunflow => BackendKind::Sunflow,
            InterEngine::Varys => BackendKind::Varys,
            InterEngine::Aalo => BackendKind::Aalo,
        }
    }

    /// Canonical scheduler name for reports (routed through
    /// [`BackendKind::name`], the single naming source).
    pub fn name(&self) -> &'static str {
        self.backend().name()
    }
}

/// Per-Coflow result of one replay.
#[derive(Clone, Debug)]
pub struct InterRow {
    /// Index into the workload.
    pub idx: usize,
    /// Completion time from arrival.
    pub cct: Dur,
    /// Packet-switched lower bound of the Coflow.
    pub tpl: Dur,
    /// §5.3.2 long-Coflow predicate.
    pub long: bool,
}

/// Replay `coflows` under `engine`; returns rows in workload order.
pub fn eval_inter(coflows: &[Coflow], fabric: &Fabric, engine: InterEngine) -> Vec<InterRow> {
    eval_inter_measured(coflows, fabric, engine).0
}

/// [`eval_inter`] plus the scheduler-compute duration of the replay, for
/// [`crate::sweep::Sweep::add_measured`] (the `compute_s` field of the
/// `BENCH_<id>.json` records). For Sunflow this is the replay engine's
/// own rescheduling time from [`ocs_sim::ReplayStats`]; for the
/// packet-switched baselines it is the rate scheduler's `allocate`
/// time — workload generation and row bookkeeping excluded either way.
pub fn eval_inter_measured(
    coflows: &[Coflow],
    fabric: &Fabric,
    engine: InterEngine,
) -> (Vec<InterRow>, Duration) {
    let ((rows, _), compute) = eval_inter_with_stats(coflows, fabric, engine);
    (rows, compute)
}

/// [`eval_inter_measured`] plus the replay's [`ReplayStats`] (every
/// backend family keeps them now — the packet backends report their
/// fluid-event and re-rating counters, the hybrid both fabrics merged).
/// The stats feed the `counters` object of the `BENCH_<id>.json` run
/// records via [`replay_counters`].
pub fn eval_inter_with_stats(
    coflows: &[Coflow],
    fabric: &Fabric,
    engine: InterEngine,
) -> ((Vec<InterRow>, Option<ReplayStats>), Duration) {
    let mut backend =
        engine
            .backend()
            .build(fabric, &OnlineConfig::default(), Box::new(ShortestFirst));
    let t0 = Instant::now();
    let outcomes = run_trace(coflows, backend.as_mut());
    let wall = t0.elapsed();
    let stats = backend.status().stats;
    // Scheduler-compute: backends with work counters report their own
    // rescheduling time; the rest are timed whole.
    let compute = match &stats {
        Some(s) => Duration::from_micros(s.reschedule_micros),
        None => wall,
    };
    let rows = coflows
        .iter()
        .zip(outcomes)
        .enumerate()
        .map(|(idx, (c, o))| InterRow {
            idx,
            cct: o.cct(c.arrival()),
            tpl: packet_lower_bound(c, fabric),
            long: ocs_model::is_long(c, fabric),
        })
        .collect();
    ((rows, stats), compute)
}

/// Flatten a replay's work counters into the named-counter list of a
/// `BENCH_<id>.json` run record.
pub fn replay_counters(stats: &ReplayStats) -> Vec<(String, u64)> {
    vec![
        ("events".into(), stats.events),
        ("releases_visited".into(), stats.releases_visited),
        ("demands_scanned".into(), stats.demands_scanned),
        ("coflows_rescheduled".into(), stats.coflows_rescheduled),
        ("coflows_skipped".into(), stats.coflows_skipped),
        ("reservations_made".into(), stats.reservations_made),
        (
            "reservations_truncated".into(),
            stats.reservations_truncated,
        ),
        ("reservations_reused".into(), stats.reservations_reused),
        ("delta_applied".into(), stats.delta_applied),
        ("replan_segments".into(), stats.replan_segments),
        ("reservations_retired".into(), stats.reservations_retired),
        ("cuts".into(), stats.cuts),
        ("yield_rounds".into(), stats.yield_rounds),
        ("subflows_split".into(), stats.subflows_split),
        ("bytes_to_packet".into(), stats.bytes_to_packet),
        ("split_evals".into(), stats.split_evals),
        ("split_plans".into(), stats.split_plans),
    ]
}

/// Average CCT in seconds over rows.
pub fn avg_cct_secs(rows: &[InterRow]) -> f64 {
    ocs_metrics::mean(&rows.iter().map(|r| r.cct.as_secs_f64()).collect::<Vec<_>>())
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocs_model::{Bandwidth, Time};

    #[test]
    fn engines_agree_on_a_trivial_workload() {
        let f = Fabric::new(4, Bandwidth::GBPS, Dur::from_millis(10));
        let cs = vec![
            Coflow::builder(0).flow(0, 0, 10_000_000).build(),
            Coflow::builder(1)
                .arrival(Time::from_secs_f64(10.0))
                .flow(1, 1, 10_000_000)
                .build(),
        ];
        for e in InterEngine::ALL {
            let rows = eval_inter(&cs, &f, e);
            assert_eq!(rows.len(), 2, "{}", e.name());
            // Non-contending coflows: everything close to T_pL (plus delta
            // for the circuit switch).
            for r in &rows {
                assert!(r.cct >= r.tpl);
                assert!(r.cct <= r.tpl + Dur::from_millis(25), "{}", e.name());
            }
        }
        let s = eval_inter(&cs, &f, InterEngine::Sunflow);
        assert!(avg_cct_secs(&s) > 0.08);
    }
}
