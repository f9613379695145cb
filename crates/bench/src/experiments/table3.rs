//! Table 3 — scheduler time complexity, verified empirically.
//!
//! Paper: Edmond O(N³), TMS O(N⁴·⁵), Solstice O(N³log²N),
//! Sunflow O(|C|²). The qualitative point is that the baselines' running
//! time depends on the *port count* `N`, while Sunflow's depends only on
//! the number of subflows `|C|` — so they can be slow even for a tiny
//! Coflow on a big switch, while Sunflow is not.
//!
//! Three measurements:
//! 1. dense `N x N` shuffles, growing `N`: every scheduler slows down;
//!    the log-log growth exponents are reported;
//! 2. a fixed 64-subflow Coflow embedded in growing fabrics: Sunflow's
//!    compute time stays flat (it never looks at idle ports);
//! 3. §6's latency claim — "less than 1 sec for Coflows with up to 3,000
//!    subflows": Sunflow on a dense 55 × 55 shuffle (3 025 subflows) on
//!    a 150-port, 1 Gbps, δ = 10 ms fabric.

use crate::sweep::Sweep;
use ocs_baselines::CircuitScheduler;
use ocs_metrics::{Report, SweepTiming};
use ocs_model::{Bandwidth, Coflow, DemandMatrix, Dur, Fabric};
use std::time::{Duration, Instant};
use sunflow_core::{IntraScheduler, Prt, SunflowConfig};

/// A deterministic dense shuffle Coflow of `n x n` flows with varied
/// sizes (1–16 MB).
pub fn dense_shuffle(n: usize) -> Coflow {
    let mut b = Coflow::builder(0);
    for i in 0..n {
        for j in 0..n {
            b = b.flow(i, j, (1 + ((i * 31 + j * 17) % 16)) as u64 * 1_000_000);
        }
    }
    b.build()
}

/// A sparse Coflow with `flows` random-ish flows within `n` ports.
pub fn sparse_coflow(n: usize, flows: usize) -> Coflow {
    let mut b = Coflow::builder(0);
    let mut state = 0x1234_5678_u64;
    let mut made = 0;
    while made < flows {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let i = (state >> 33) as usize % n;
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % n;
        let before = b.clone().try_build().map_or(0, |c| c.num_flows());
        b = b.flow(i, j, 2_000_000);
        if b.clone().try_build().map_or(0, |c| c.num_flows()) > before {
            made += 1;
        }
    }
    b.build()
}

/// Median-of-3 wall time of `f` in seconds.
fn time_it(mut f: impl FnMut()) -> f64 {
    let mut samples = [0.0f64; 3];
    for s in samples.iter_mut() {
        let t0 = Instant::now();
        f();
        *s = t0.elapsed().as_secs_f64();
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    samples[1]
}

fn schedule_time(sched: CircuitScheduler, coflow: &Coflow, fabric: &Fabric) -> f64 {
    let demand = DemandMatrix::from_coflow(coflow, fabric);
    time_it(|| {
        std::hint::black_box(sched.schedule(std::hint::black_box(&demand)));
    })
}

fn sunflow_time(coflow: &Coflow, fabric: &Fabric) -> f64 {
    let intra = IntraScheduler::new(fabric, SunflowConfig::default());
    time_it(|| {
        let mut prt = Prt::new(fabric.ports());
        std::hint::black_box(intra.schedule_on(
            &mut prt,
            std::hint::black_box(coflow),
            ocs_model::Time::ZERO,
        ));
    })
}

/// Run the experiment and produce the report plus per-measurement
/// timings.
///
/// Timing-measurement jobs interfere when co-scheduled, so this sweep
/// deliberately runs on one thread; each job reports
/// its median scheduler time as the sweep's `compute` column.
pub fn run_measured() -> (Report, SweepTiming) {
    let mut report = Report::new("Table 3 — empirical scheduler compute-time scaling");

    // 1. Dense shuffles. Labels come from the unified engine's canonical
    // scheduler names (BackendKind::name).
    let sizes = [8usize, 16, 32, 48];
    let schedulers: [(&str, Option<CircuitScheduler>); 4] = [
        (ocs_sim::BackendKind::Sunflow.name(), None),
        (
            ocs_sim::BackendKind::Solstice.name(),
            Some(CircuitScheduler::Solstice),
        ),
        (
            ocs_sim::BackendKind::Tms.name(),
            Some(CircuitScheduler::Tms),
        ),
        // edmond_default() is not const; resolved below.
        (ocs_sim::BackendKind::Edmond.name(), None),
    ];
    let mut sweep = Sweep::new(1);
    for &n in &sizes {
        for (name, sched) in schedulers {
            let sched = if name == ocs_sim::BackendKind::Edmond.name() {
                Some(CircuitScheduler::edmond_default())
            } else {
                sched
            };
            sweep.add_measured(format!("dense {name} N={n}"), move || {
                let coflow = dense_shuffle(n);
                let fabric = Fabric::new(n, Bandwidth::GBPS, Dur::from_millis(10));
                let t = match sched {
                    Some(s) => schedule_time(s, &coflow, &fabric),
                    None => sunflow_time(&coflow, &fabric),
                };
                (t, Duration::from_secs_f64(t))
            });
        }
    }
    // 2. Fixed |C| = 64 on growing fabrics: Sunflow must stay flat.
    let ports = [64usize, 256, 1024];
    for &n in &ports {
        sweep.add_measured(format!("fixed Sunflow N={n}"), move || {
            let coflow = sparse_coflow(n, 64);
            let fabric = Fabric::new(n, Bandwidth::GBPS, Dur::from_millis(10));
            let t = sunflow_time(&coflow, &fabric);
            (t, Duration::from_secs_f64(t))
        });
    }
    // 3. §6: 3 025 subflows must schedule in under a second.
    sweep.add_measured("§6 Sunflow |C|=3025 N=150", || {
        let coflow = dense_shuffle(55);
        let fabric = Fabric::new(150, Bandwidth::GBPS, Dur::from_millis(10));
        let t = sunflow_time(&coflow, &fabric);
        (t, Duration::from_secs_f64(t))
    });
    let (values, mut timing) = sweep.run();

    let names = [
        ocs_sim::BackendKind::Sunflow.name(),
        ocs_sim::BackendKind::Solstice.name(),
        ocs_sim::BackendKind::Tms.name(),
        ocs_sim::BackendKind::Edmond.name(),
    ];
    // Dense runs cycle through the scheduler set per fabric size; the
    // trailing fixed-|C| and §6 runs are all Sunflow.
    for (i, t) in timing.runs.iter_mut().enumerate() {
        let name = if i < sizes.len() * names.len() {
            names[i % names.len()]
        } else {
            names[0]
        };
        t.backend = Some(name.to_string());
    }
    let times: Vec<(String, Vec<f64>)> = names
        .iter()
        .enumerate()
        .map(|(k, name)| {
            let ts = (0..sizes.len())
                .map(|si| values[si * names.len() + k])
                .collect();
            (name.to_string(), ts)
        })
        .collect();
    for (name, ts) in &times {
        let series: Vec<String> = sizes
            .iter()
            .zip(ts)
            .map(|(n, t)| format!("N={n}: {:.2}ms", t * 1e3))
            .collect();
        // Log-log slope between the first and last point.
        let slope = (ts[ts.len() - 1] / ts[0]).ln()
            / (sizes[sizes.len() - 1] as f64 / sizes[0] as f64).ln();
        report.note(format!(
            "dense {name}: {} (growth ~N^{slope:.1})",
            series.join("  ")
        ));
    }

    let fixed_base = sizes.len() * names.len();
    let sun_fixed: Vec<f64> = (0..ports.len()).map(|pi| values[fixed_base + pi]).collect();
    report.note(format!(
        "fixed |C|=64: Sunflow {} — complexity tracks |C|, not N",
        ports
            .iter()
            .zip(&sun_fixed)
            .map(|(n, t)| format!("N={n}: {:.3}ms", t * 1e3))
            .collect::<Vec<_>>()
            .join("  ")
    ));
    // Sunflow time on N=1024 should not blow up relative to N=64
    // (allowing generous noise + PRT allocation costs).
    let growth = sun_fixed[2] / sun_fixed[0].max(1e-9);
    report.claim(
        "Sunflow slowdown, N 64->1024 at fixed |C|",
        1.0,
        growth,
        9.0,
    );

    // Ordering claim: on the densest instance, Sunflow (O(|C|^2) = O(N^4)
    // with small constants) must still be far from the slowest; TMS must
    // be slower than Solstice.
    let last = sizes.len() - 1;
    report.claim(
        "TMS slower than Solstice on dense N=48",
        1.0,
        if times[2].1[last] > times[1].1[last] {
            1.0
        } else {
            0.0
        },
        0.001,
    );

    let latency = values[fixed_base + ports.len()];
    report.note(format!(
        "§6 latency: Sunflow schedules a dense 55x55 shuffle (3025 subflows) \
         on 150 ports in {:.1}ms (paper: < 1 s)",
        latency * 1e3
    ));
    report.claim(
        "§6: Sunflow schedules 3025 subflows in < 1 s",
        1.0,
        if latency < 1.0 { 1.0 } else { 0.0 },
        0.001,
    );
    (report, timing)
}

/// Run the experiment and produce the report.
pub fn run() -> Report {
    run_measured().0
}
