//! K-core sweep — CCT vs number of OCS cores on the FB trace
//! (B = 1 Gbps per core, δ = 10 ms, shortest-Coflow-first).
//!
//! A `K`-core fabric stacks `K` parallel circuit planes over the same
//! hosts (one transceiver per core per host), so aggregate capacity
//! grows with `K` while each plane keeps the single-switch
//! reconfiguration economics. This experiment replays the full trace
//! for K ∈ {1, 2, 4, 8} under each placement policy (static hash,
//! least-loaded, rank-packing) and under the O(K)-approximation
//! `kcore` backend, and records:
//!
//! * average CCT per (K, placement) — the CCT-vs-K curve;
//! * per-core reservation and admitted-demand counters, plus a
//!   utilization-skew figure (max/mean admitted demand, per-mille), in
//!   each run's `counters` object of `BENCH_kcore.json`.
//!
//! Two claims gate the record: `K = 1` through the sharded path must
//! reproduce the single-switch average CCT exactly (the byte-identity
//! degeneracy, also pinned by `kcore_regression.rs`), and `K = 4` must
//! strictly beat `K = 1` for at least one placement policy.

use crate::inter_eval::replay_counters;
use crate::workloads::{fabric_gbps, workload};
use ocs_metrics::{mean, Report, SweepTiming};
use ocs_model::{Coflow, Fabric};
use ocs_sim::{run_trace, BackendKind, OnlineConfig};
use std::time::{Duration, Instant};
use sunflow_core::{CoreAssignKind, ShortestFirst};

/// Core counts swept.
pub const CORES: [u32; 4] = [1, 2, 4, 8];

/// Placement policies swept (the round-robin policy is covered by the
/// regression tests; the three here span the static → load-aware →
/// demand-aware spectrum).
pub const ASSIGNS: [CoreAssignKind; 3] = [
    CoreAssignKind::StaticHash,
    CoreAssignKind::LeastLoaded,
    CoreAssignKind::RankPack,
];

/// One replay's distilled result.
struct KRun {
    /// Average CCT in seconds.
    avg: f64,
    /// Named counters for the `BENCH_kcore.json` run record.
    counters: Vec<(String, u64)>,
    /// Canonical scheduler name behind the run.
    backend: &'static str,
}

/// Replay `coflows` under `kind` and distill average CCT plus work and
/// per-core counters. Scheduler-compute is the backend's own
/// rescheduling time where it keeps stats, the whole replay otherwise.
fn eval_kind(coflows: &[Coflow], fabric: &Fabric, kind: BackendKind) -> (KRun, Duration) {
    let mut backend = kind.build(fabric, &OnlineConfig::default(), Box::new(ShortestFirst));
    let t0 = Instant::now();
    let outcomes = run_trace(coflows, backend.as_mut());
    let wall = t0.elapsed();
    let stats = backend.status().stats;
    let compute = match &stats {
        Some(s) => Duration::from_micros(s.reschedule_micros),
        None => wall,
    };
    let ccts: Vec<f64> = coflows
        .iter()
        .zip(&outcomes)
        .map(|(c, o)| o.cct(c.arrival()).as_secs_f64())
        .collect();
    let avg = mean(&ccts).unwrap_or(f64::NAN);
    let mut counters = vec![("avg_cct_us".to_string(), (avg * 1e6).round() as u64)];
    if let Some(s) = &stats {
        counters.extend(replay_counters(s));
    }
    let k = backend.cores();
    if k > 1 {
        let mut admitted = Vec::with_capacity(k);
        for core in 0..k {
            let s = backend
                .core_status(core)
                .expect("multi-core backends report per-core status");
            counters.push((format!("core{core}_reservations"), s.reservations_made));
            counters.push((
                format!("core{core}_admitted_ms"),
                (s.demand_admitted.as_secs_f64() * 1e3).round() as u64,
            ));
            admitted.push(s.demand_admitted.as_secs_f64());
        }
        let avg_admitted = admitted.iter().sum::<f64>() / k as f64;
        let max_admitted = admitted.iter().cloned().fold(0.0f64, f64::max);
        let skew = if avg_admitted > 0.0 {
            max_admitted / avg_admitted
        } else {
            1.0
        };
        counters.push(("core_skew_permille".into(), (skew * 1e3).round() as u64));
    }
    (
        KRun {
            avg,
            counters,
            backend: kind.name(),
        },
        compute,
    )
}

/// The backends swept: the single-switch baseline, every
/// (K, placement) pair of the sharded Sunflow path, and the
/// O(K)-approximation backend per K.
fn kinds() -> Vec<BackendKind> {
    let mut v = vec![BackendKind::Sunflow];
    for cores in CORES {
        for assign in ASSIGNS {
            v.push(BackendKind::MultiSunflow { cores, assign });
        }
    }
    for cores in CORES {
        v.push(BackendKind::KCore { cores });
    }
    v
}

/// Run the K sweep in parallel and produce the report plus its timing.
pub fn run_measured() -> (Report, SweepTiming) {
    let coflows = workload();
    let kinds = kinds();

    let mut sweep = crate::sweep::<KRun>();
    for kind in &kinds {
        let kind = *kind;
        let label = match kind {
            BackendKind::Sunflow => "single-switch".to_string(),
            _ => kind.selector(),
        };
        sweep.add_measured(label, move || eval_kind(coflows, &fabric_gbps(1), kind));
    }
    let result = sweep.run();
    let mut timing = crate::timing_of(&result);
    for (t, run) in timing.runs.iter_mut().zip(&result.runs) {
        t.backend = Some(run.value.backend.to_string());
        t.counters = run.value.counters.clone();
    }

    let avg_of = |label: &str| -> f64 {
        result
            .runs
            .iter()
            .find(|r| r.label == label)
            .map(|r| r.value.avg)
            .unwrap_or(f64::NAN)
    };
    let single = avg_of("single-switch");
    let best_for = |cores: u32| -> (f64, CoreAssignKind) {
        ASSIGNS
            .into_iter()
            .map(|a| {
                (
                    avg_of(&BackendKind::MultiSunflow { cores, assign: a }.selector()),
                    a,
                )
            })
            .fold((f64::INFINITY, ASSIGNS[0]), |acc, x| {
                if x.0 < acc.0 {
                    x
                } else {
                    acc
                }
            })
    };

    let mut report = Report::new("K-core fabric — CCT vs K on the FB trace (B=1G/core, d=10ms)");
    let k1 = avg_of(
        &BackendKind::MultiSunflow {
            cores: 1,
            assign: CoreAssignKind::LeastLoaded,
        }
        .selector(),
    );
    report.claim(
        "K=1 sharded path / single-switch avg CCT",
        1.0,
        k1 / single,
        1e-9,
    );
    let (k4_best, k4_assign) = best_for(4);
    report.claim(
        "K=4 beats K=1 for some placement (indicator)",
        1.0,
        if k4_best < k1 { 1.0 } else { 0.0 },
        0.0,
    );
    for cores in CORES {
        let (best, assign) = best_for(cores);
        let kc = avg_of(&BackendKind::KCore { cores }.selector());
        report.note(format!(
            "K={cores}: best sharded avg CCT {best:.3}s ({assign}), speedup x{:.2} over K=1; kcore backend {kc:.3}s",
            k1 / best
        ));
    }
    report.note(format!(
        "K=4 winner: {k4_assign} at {k4_best:.3}s vs {k1:.3}s for K=1 \
         (per-core reservation counts and utilization skew are in each run's counters)."
    ));
    (report, timing)
}

/// Run the experiment and produce the report.
pub fn run() -> Report {
    run_measured().0
}
