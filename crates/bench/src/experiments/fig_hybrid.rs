//! Hybrid split-policy sweep — the §6 fabric against both pure fabrics
//! on the FB trace (B = 1 Gbps, δ = 10 ms, 10% packet bandwidth,
//! shortest-Coflow-first).
//!
//! The hybrid fabric pairs the Sunflow-scheduled OCS with a slim
//! fair-shared packet network; what varies is the *demand-routing
//! policy* behind the [`SplitPolicy`](sunflow_core::SplitPolicy) seam.
//! This experiment replays the full trace under each split policy
//! (`non-splitting`, `threshold`, `solver`) and under both pure
//! fabrics (`sunflow`, `varys`), and records average CCT plus the
//! split counters (`subflows_split`, `bytes_to_packet`, `split_evals`,
//! `split_plans`) in each run's `counters` object of `BENCH_hybrid.json`.
//!
//! Three claims gate the split-policy sweep: the solver split must beat
//! pure Sunflow *and* pure Varys on average CCT (it sees both fabrics
//! and routes each Coflow's bytes against the live PRT, so it should
//! never do worse than committing everything to one side), and the
//! threshold split must actually route traffic to the packet fabric
//! (the split counters are live, not vestigial).
//!
//! Two more mark out when a hybrid pays at all. At the default 10 ms
//! MEMS delay under heavy load the pure OCS holds its own — within 5%
//! of the best hybrid, the paper's thesis that Sunflow makes the pure
//! circuit fabric viable. With a slow (δ = 100 ms) switch small flows
//! drown in reconfigurations and the classic threshold offload wins:
//! one extra `sunflow` / `hybrid:threshold` pair at δ = 100 ms shows
//! the regime hybrids were built for.

use crate::inter_eval::replay_counters;
use crate::workloads::{fabric_gbps, workload};
use ocs_metrics::{mean, Report, SweepTiming};
use ocs_model::{Coflow, Dur, Fabric};
use ocs_sim::{run_trace, BackendKind, OnlineConfig};
use std::time::{Duration, Instant};
use sunflow_core::{ShortestFirst, SplitKind};

/// Packet-network bandwidth, in thousandths of the link rate, for every
/// hybrid run (the §6 "small-bandwidth" deployment: 10%).
pub const PACKET_BW_PERMILLE: u32 = 100;

/// One replay's distilled result.
struct HRun {
    /// Average CCT in seconds.
    avg: f64,
    /// Named counters for the `BENCH_hybrid.json` run record.
    counters: Vec<(String, u64)>,
    /// Canonical scheduler name behind the run.
    backend: &'static str,
}

/// Replay `coflows` under `kind` and distill average CCT plus work and
/// split counters. Scheduler-compute is the backend's own rescheduling
/// (or re-rating) time where it keeps stats, the whole replay otherwise.
fn eval_kind(coflows: &[Coflow], fabric: &Fabric, kind: BackendKind) -> (HRun, Duration) {
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
    (
        HRun {
            avg,
            counters,
            backend: kind.name(),
        },
        compute,
    )
}

/// The hybrid under `split` at 10% packet bandwidth.
fn hybrid(split: SplitKind) -> BackendKind {
    BackendKind::Hybrid {
        split,
        packet_bw_permille: PACKET_BW_PERMILLE,
    }
}

/// The backends swept: both pure fabrics, then the hybrid under every
/// split policy.
fn kinds() -> Vec<BackendKind> {
    let mut v = vec![BackendKind::Sunflow, BackendKind::Varys];
    v.extend(SplitKind::ALL.map(hybrid));
    v
}

/// Label suffix of the slow-switch (δ = 100 ms) pair.
const SLOW: &str = "@delta=100ms";

/// Run the split-policy sweep in parallel and produce the report plus
/// its timing.
pub fn run_measured() -> (Report, SweepTiming) {
    let coflows = workload();
    let kinds = kinds();
    let threshold = hybrid(SplitKind::Threshold);

    let mut sweep = crate::sweep::<HRun>();
    for kind in &kinds {
        let kind = *kind;
        sweep.add_measured(kind.selector(), move || {
            eval_kind(coflows, &fabric_gbps(1), kind)
        });
    }
    for kind in [BackendKind::Sunflow, threshold] {
        sweep.add_measured(format!("{}{SLOW}", kind.selector()), move || {
            let slow = fabric_gbps(1).with_delta(Dur::from_millis(100));
            eval_kind(coflows, &slow, kind)
        });
    }
    let (values, mut timing) = sweep.run();
    for (t, run) in timing.runs.iter_mut().zip(&values) {
        t.backend = Some(run.backend.to_string());
        t.counters = run.counters.clone();
    }

    let run_of = |label: &str| -> &HRun {
        let i = timing
            .runs
            .iter()
            .position(|t| t.label == label)
            .expect("every swept label has a run");
        &values[i]
    };
    let sunflow = run_of("sunflow").avg;
    let varys = run_of("varys").avg;
    let solver = run_of(&hybrid(SplitKind::Solver).selector()).avg;

    let mut report = Report::new(
        "Hybrid fabric — split policies vs pure Sunflow and Varys on the FB trace (10% packet bw)",
    );
    report.claim(
        "hybrid:solver beats pure sunflow on avg CCT (indicator)",
        1.0,
        if solver < sunflow { 1.0 } else { 0.0 },
        0.0,
    );
    report.claim(
        "hybrid:solver beats pure varys on avg CCT (indicator)",
        1.0,
        if solver < varys { 1.0 } else { 0.0 },
        0.0,
    );
    let threshold_run = run_of(&threshold.selector());
    let counter_of = |run: &HRun, name: &str| -> u64 {
        run.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };
    report.claim(
        "hybrid:threshold routes subflows to the packet fabric (indicator)",
        1.0,
        if counter_of(threshold_run, "subflows_split") > 0
            && counter_of(threshold_run, "bytes_to_packet") > 0
        {
            1.0
        } else {
            0.0
        },
        0.0,
    );
    let best_hybrid = SplitKind::ALL
        .iter()
        .map(|&split| run_of(&hybrid(split).selector()).avg)
        .fold(f64::INFINITY, f64::min);
    report.claim(
        "at delta=10ms, pure sunflow within 5% of the best hybrid (indicator)",
        1.0,
        if sunflow <= best_hybrid * 1.05 {
            1.0
        } else {
            0.0
        },
        0.0,
    );
    let sunflow_slow = run_of(&format!("sunflow{SLOW}")).avg;
    let threshold_slow = run_of(&format!("{}{SLOW}", threshold.selector())).avg;
    report.claim(
        "at delta=100ms, hybrid:threshold beats pure sunflow on avg CCT (indicator)",
        1.0,
        if threshold_slow < sunflow_slow {
            1.0
        } else {
            0.0
        },
        0.0,
    );
    report.note(format!(
        "pure fabrics: sunflow {sunflow:.3}s, varys {varys:.3}s avg CCT"
    ));
    report.note(format!(
        "delta=100ms: sunflow {sunflow_slow:.3}s, hybrid:threshold {threshold_slow:.3}s avg CCT \
         ({:.2}x) — small flows dodge the reconfiguration delay on the packet network",
        threshold_slow / sunflow_slow
    ));
    for split in SplitKind::ALL {
        let run = run_of(&hybrid(split).selector());
        report.note(format!(
            "hybrid:{split}: avg CCT {:.3}s ({:.2}x of sunflow, {:.2}x of varys) — \
             {} subflows / {} MB to packets, {} split evals",
            run.avg,
            run.avg / sunflow,
            run.avg / varys,
            counter_of(run, "subflows_split"),
            counter_of(run, "bytes_to_packet") / (1 << 20),
            counter_of(run, "split_evals"),
        ));
    }
    report.note(
        "The solver split probes the live PRT per candidate carve and keeps the \
         fraction minimizing max(circuit, packet) finish — small Coflows dodge \
         the reconfiguration delta, heavy ones keep the full-rate circuits.",
    );
    (report, timing)
}

/// Run the experiment and produce the report.
pub fn run() -> Report {
    run_measured().0
}
