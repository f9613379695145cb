//! Daemon soak — the online service against the offline replay.
//!
//! Drives `ocs-daemond`'s service core with a Poisson arrival stream
//! from `ocs-workload`, fed just-in-time in 100 ms slices the way a live
//! feed would deliver it, and checks the two properties the service
//! must keep:
//!
//! 1. **Fault-free transparency** — with fault injection off, every
//!    per-Coflow outcome (start, finish, circuit setups) is byte-
//!    identical to the offline [`ocs_sim::simulate_circuit`] replay of
//!    the same trace: the daemon is the same scheduler, only resumable.
//! 2. **Faulted completeness** — under seeded circuit-setup failures,
//!    port flaps and inflated δ, every admitted Coflow still completes
//!    (no hangs, no lost demand), retries and backoff are actually
//!    exercised, and faults only ever delay (mean CCT ≥ fault-free).

use ocs_daemon::{Daemon, DaemonConfig, FaultConfig};
use ocs_metrics::{Report, SweepTiming};
use ocs_model::{Bandwidth, Coflow, Dur, Fabric, ScheduleOutcome, Time};
use ocs_sim::simulate_circuit;
use ocs_workload::{generate, SynthConfig};

/// One soak pass's observables.
#[derive(Clone, Debug)]
pub struct SoakRun {
    /// Per-Coflow outcomes, sorted by Coflow id.
    pub outcomes: Vec<ScheduleOutcome>,
    /// Coflows admitted / completed.
    pub admitted: u64,
    /// Coflows completed.
    pub completed: u64,
    /// Fault retries scheduled.
    pub retries: u64,
    /// Total retry backoff imposed.
    pub backoff: Dur,
    /// Faults fired (all kinds).
    pub faults: u64,
    /// Scheduler compute time (rescheduling wall-clock).
    pub compute: std::time::Duration,
}

/// Scale of one soak: fabric size and trace length.
#[derive(Clone, Copy, Debug)]
pub struct SoakScale {
    /// Fabric ports.
    pub ports: usize,
    /// Poisson Coflow count.
    pub coflows: usize,
    /// Arrival horizon in seconds.
    pub horizon_secs: f64,
}

impl SoakScale {
    /// The full soak the `daemon_soak` bench target runs.
    pub const FULL: SoakScale = SoakScale {
        ports: 32,
        coflows: 200,
        horizon_secs: 120.0,
    };

    /// A debug-build-friendly soak for unit tests.
    pub const SMOKE: SoakScale = SoakScale {
        ports: 8,
        coflows: 30,
        horizon_secs: 20.0,
    };
}

fn soak_fabric(scale: SoakScale) -> Fabric {
    Fabric::new(scale.ports, Bandwidth::GBPS, Dur::from_millis(1))
}

fn soak_workload(scale: SoakScale) -> Vec<Coflow> {
    generate(&SynthConfig {
        ports: scale.ports,
        coflows: scale.coflows,
        horizon_secs: scale.horizon_secs,
        seed: 0xdae_0001,
    })
}

fn faults() -> FaultConfig {
    FaultConfig {
        seed: 0xdae_0002,
        setup_failure_per_mille: 60,
        port_flap_per_mille: 40,
        delta_inflation_per_mille: 25,
        ..FaultConfig::default()
    }
}

/// Run the daemon over `coflows`, submitting each arrival just in time
/// while the virtual clock advances in 100 ms slices, then drain.
pub fn run_daemon(coflows: &[Coflow], config: &DaemonConfig) -> SoakRun {
    let mut daemon = Daemon::new(config);
    let mut pending: Vec<&Coflow> = coflows.iter().collect();
    pending.sort_by_key(|c| (c.arrival(), c.id()));
    let mut next = 0;
    let mut t = Time::ZERO;
    while next < pending.len() {
        while next < pending.len() && pending[next].arrival() <= t {
            daemon
                .submit(pending[next].clone())
                .expect("soak arrivals are well-formed and under the caps");
            next += 1;
        }
        daemon.advance_to(t);
        t += Dur::from_millis(100);
    }
    daemon.drain();

    let mut outcomes: Vec<ScheduleOutcome> = daemon
        .completions()
        .iter()
        .map(|c| c.outcome.clone())
        .collect();
    outcomes.sort_by_key(|o| o.coflow);
    let f = daemon.fault_stats();
    SoakRun {
        outcomes,
        admitted: daemon.telemetry().admitted,
        completed: daemon.telemetry().completed,
        retries: f.retries,
        backoff: f.backoff_total,
        faults: f.setup_failures + f.port_flaps + f.delta_inflations,
        compute: std::time::Duration::from_micros(daemon.stats().reschedule_micros),
    }
}

fn mean_cct_secs(outcomes: &[ScheduleOutcome]) -> f64 {
    let total: f64 = outcomes
        .iter()
        .map(|o| o.finish.since(o.start).as_secs_f64())
        .sum();
    total / outcomes.len() as f64
}

/// Run the soak (offline reference, fault-free daemon, faulted daemon —
/// one parallel sweep) and report the service claims.
pub fn run_measured() -> (Report, SweepTiming) {
    run_measured_at(SoakScale::FULL)
}

/// [`run_measured`] at an explicit scale.
pub fn run_measured_at(scale: SoakScale) -> (Report, SweepTiming) {
    let coflows = soak_workload(scale);
    let fabric = soak_fabric(scale);
    let clean_cfg = DaemonConfig {
        fabric,
        ..DaemonConfig::default()
    };
    let faulted_cfg = DaemonConfig {
        fabric,
        faults: faults(),
        ..DaemonConfig::default()
    };

    let mut sweep = crate::sweep::<SoakRun>();
    {
        let coflows = &coflows;
        let online = clean_cfg.online;
        let policy = clean_cfg.policy;
        sweep.add_measured("offline reference".to_string(), move || {
            let result = simulate_circuit(coflows, &fabric, &online, policy.build().as_ref());
            let mut outcomes = result.outcomes;
            outcomes.sort_by_key(|o| o.coflow);
            let n = outcomes.len() as u64;
            let run = SoakRun {
                outcomes,
                admitted: n,
                completed: n,
                retries: 0,
                backoff: Dur::ZERO,
                faults: 0,
                compute: std::time::Duration::from_micros(result.stats.reschedule_micros),
            };
            let compute = run.compute;
            (run, compute)
        });
        let cfg = clean_cfg.clone();
        sweep.add_measured("daemon fault-free".to_string(), move || {
            let run = run_daemon(coflows, &cfg);
            let compute = run.compute;
            (run, compute)
        });
        let cfg = faulted_cfg.clone();
        sweep.add_measured("daemon faulted".to_string(), move || {
            let run = run_daemon(coflows, &cfg);
            let compute = run.compute;
            (run, compute)
        });
    }
    let (values, timing) = sweep.run();
    let offline = &values[0];
    let clean = &values[1];
    let faulted = &values[2];

    let mut report = Report::new("Daemon soak — online service vs offline replay");
    report.claim(
        "fault-free daemon outcomes byte-identical to offline replay (1=yes)",
        1.0,
        (clean.outcomes == offline.outcomes) as u64 as f64,
        0.0,
    );
    report.claim(
        "fault-free mean CCT ratio, daemon / offline",
        1.0,
        mean_cct_secs(&clean.outcomes) / mean_cct_secs(&offline.outcomes),
        0.0,
    );
    report.claim(
        "faulted run completes every admitted Coflow (completed/admitted)",
        1.0,
        faulted.completed as f64 / faulted.admitted as f64,
        0.0,
    );
    report.claim(
        "faulted run exercises the retry path (1 = retries and backoff seen)",
        1.0,
        (faulted.retries > 0 && faulted.backoff > Dur::ZERO) as u64 as f64,
        0.0,
    );
    report.claim(
        "faults only delay: faulted mean CCT >= fault-free (1=yes)",
        1.0,
        (mean_cct_secs(&faulted.outcomes) >= mean_cct_secs(&clean.outcomes)) as u64 as f64,
        0.0,
    );
    report.note(format!(
        "workload: {} Poisson Coflows over {} s on {} ports; faulted pass saw \
         {} faults, {} retries, {:.3} s total backoff",
        coflows.len(),
        scale.horizon_secs,
        scale.ports,
        faulted.faults,
        faulted.retries,
        faulted.backoff.as_secs_f64(),
    ));
    (report, timing)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn soak_claims_hold_at_smoke_scale() {
        // The bench target runs SoakScale::FULL; debug-build tests keep
        // to a trace small enough to replay three times in seconds.
        let (report, _) = run_measured_at(SoakScale::SMOKE);
        assert!(report.all_hold(), "\n{}", report.render());
    }
}
