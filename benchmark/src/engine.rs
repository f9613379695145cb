//! The non-daemon repetitions: the benchmark's own copy of the canonical
//! event loop (so each `advance_to` can be timed) and the intra-Coflow
//! sweep, plus the outcome fingerprint and output checks both share
//! with the daemon workloads.

use crate::seams::{Probe, TimedAssign, TimedHook, TimedPolicy, TimedSplit};
use crate::workloads::Inputs;
use ocs_bench::workloads::DELTA_SWEEP;
use ocs_daemon::FaultStats;
use ocs_model::{
    circuit_lower_bound, lemma1_holds, Bandwidth, Coflow, Dur, Fabric, KCoreFabric,
    ScheduleOutcome, Time,
};
use ocs_sim::{
    BackendKind, Completion, CoreStatus, FullService, HybridBackend, HybridConfig,
    MultiSunflowBackend, OnlineConfig, ReplayStats, SchedulingBackend, SettleHook, SunflowBackend,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;
use sunflow_core::{CoflowSchedule, GuardConfig, IntraScheduler, ShortestFirst, SunflowConfig};

/// Wall-clock nanoseconds of one repetition, by the call it was spent in.
#[derive(Clone, Copy, Debug, Default)]
pub struct Phases {
    /// Constructing the backend or daemon.
    pub build_ns: u64,
    /// `submit` / `submit_spec`.
    pub submit_ns: u64,
    /// `next_event_time` polling (engine workloads).
    pub poll_ns: u64,
    /// `advance_to`, or `IntraScheduler::schedule` for `intra_alone`.
    pub advance_ns: u64,
    /// The final drain: `drain_completions` / `Daemon::drain`.
    pub drain_ns: u64,
    /// `parse_line` (daemon stream, traced pass only).
    pub parse_ns: u64,
    /// Rendering and writing acks (daemon stream, traced pass only).
    pub ack_ns: u64,
}

/// What one repetition produced.
#[derive(Clone, Debug, Default)]
pub struct RepOut {
    /// Build → submit → run to idle → drain, checks excluded.
    pub wall_ns: u64,
    /// One entry per scheduling step, in order.
    pub steps_ns: Vec<u64>,
    /// One outcome per submitted Coflow (per call for `intra_alone`),
    /// in input order; a Coflow that never completed is missing.
    pub outcomes: Vec<ScheduleOutcome>,
    /// Coflows (and lines) submitted.
    pub attempted: u64,
    /// Rejected + parse errors + lost acks + completed more than once.
    pub failed: u64,
    /// Where the wall went.
    pub phases: Phases,
    /// Scheduling events the backend reported processing.
    pub events: u64,
    /// The backend's work counters at the end.
    pub stats: ReplayStats,
    /// The packet plane's own counters (traced `fb_hybrid` only).
    pub packet: ReplayStats,
    /// Starvation-guard windows elapsed.
    pub guard_windows: u64,
    /// Per-core telemetry (multi-core backends).
    pub cores: Vec<CoreStatus>,
    /// Fault-injection counters (daemon workloads).
    pub faults: FaultStats,
    /// Submissions the daemon's admission control refused.
    pub rejected: u64,
    /// Reservations the schedules held (`intra_alone`).
    pub reservations: u64,
    /// The δ = 10 ms, 1 Gbps schedules (`intra_alone`, traced pass), for
    /// the PRT micro-section.
    pub schedules: Vec<CoflowSchedule>,
}

/// Time `f` into `acc`, as a span when tracing.
pub fn phase<R>(
    probe: Option<&Arc<Probe>>,
    name: &'static str,
    req: u64,
    acc: &mut u64,
    f: impl FnOnce() -> R,
) -> R {
    let (r, ns) = match probe {
        Some(p) => p.span(name, req, f),
        None => {
            let t = Instant::now();
            let r = f();
            (r, t.elapsed().as_nanos() as u64)
        }
    };
    *acc += ns;
    r
}

/// FNV-1a over every observable field of the outcomes (the fingerprint
/// of `crates/sim/tests/replay_regression.rs`).
pub fn fingerprint(outcomes: &[ScheduleOutcome]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for o in outcomes {
        eat(o.coflow);
        eat(o.start.as_ps());
        eat(o.finish.as_ps());
        eat(o.circuit_setups);
        for f in &o.flow_finish {
            eat(f.as_ps());
        }
    }
    h
}

/// Put `completions` in the input order of `coflows`; returns the
/// outcomes and how many completions were duplicates or strangers.
pub fn in_input_order(
    coflows: &[Coflow],
    completions: impl IntoIterator<Item = ScheduleOutcome>,
) -> (Vec<ScheduleOutcome>, u64) {
    let mut by_id: HashMap<u64, ScheduleOutcome> = HashMap::with_capacity(coflows.len());
    let mut extra = 0u64;
    for o in completions {
        if by_id.insert(o.coflow, o).is_some() {
            extra += 1;
        }
    }
    let ordered: Vec<ScheduleOutcome> = coflows
        .iter()
        .filter_map(|c| by_id.remove(&c.id()))
        .collect();
    (ordered, extra + by_id.len() as u64)
}

/// The checks every workload's outcomes must pass; returns one line per
/// violation. `circuit_bound` adds `CCT >= T_cL`, which holds on a
/// single circuit switch only.
pub fn check_outcomes(
    coflows: &[Coflow],
    outcomes: &[ScheduleOutcome],
    fabric: &Fabric,
    circuit_bound: bool,
) -> Vec<String> {
    let mut bad = Vec::new();
    if outcomes.len() != coflows.len() {
        bad.push(format!(
            "{} of {} Coflows completed",
            outcomes.len(),
            coflows.len()
        ));
    }
    let by_id: HashMap<u64, &Coflow> = coflows.iter().map(|c| (c.id(), c)).collect();
    for o in outcomes {
        let c = by_id[&o.coflow];
        if o.flow_finish.len() != c.num_flows() {
            bad.push(format!("coflow {}: flow_finish length", o.coflow));
        }
        if Some(o.finish) != o.flow_finish.iter().copied().max() || o.finish < c.arrival() {
            bad.push(format!(
                "coflow {}: finish is not max(flow_finish)",
                o.coflow
            ));
        } else if circuit_bound && o.finish.since(c.arrival()) < circuit_lower_bound(c, fabric) {
            bad.push(format!(
                "coflow {}: CCT beats the circuit lower bound",
                o.coflow
            ));
        }
    }
    bad
}

/// Replanner threads of every measured repetition: one.
///
/// The product's default (`0`, all cores) spawns scoped threads per
/// replan round. On the 2-core reference host that is slower than
/// planning sequentially on the soak workloads (7 000 to 23 000 such
/// rounds each) and bimodal besides: the same `soak_batch` run completes
/// 7 400 or 11 000 Coflows/s depending on how fast the host wakes the
/// second vCPU, against 13 500 sequentially. Like the pipelined front
/// end it cannot repeat within a tenth, so it is measured in the traced
/// pass (`sim.stepper.parallel_*`), not gated. Outcomes do not depend on
/// the thread count.
pub const REPLAN_THREADS: usize = 1;

/// The online configuration every workload runs under: the default,
/// with `threads` replanner threads.
pub fn online(guard: bool, threads: usize) -> OnlineConfig {
    let config = OnlineConfig::default().replan_threads(threads);
    if guard {
        config.guard(GuardConfig::new(Dur::from_secs(60), Dur::from_millis(100)))
    } else {
        config
    }
}

/// A built backend. The traced hybrid is kept by its concrete type so
/// its packet plane's counters can be read at the end.
enum Built {
    Any(Box<dyn SchedulingBackend>),
    Hybrid(Box<HybridBackend<'static>>),
}

impl Built {
    fn backend(&mut self) -> &mut dyn SchedulingBackend {
        match self {
            Built::Any(b) => b.as_mut(),
            Built::Hybrid(h) => h.as_mut(),
        }
    }
}

/// Build the backend `selector` names. Untraced, through
/// `BackendKind::build`; traced, through the concrete constructor with
/// the seam wrappers installed (the caller checks both replay alike).
fn build(
    selector: &str,
    online: OnlineConfig,
    fabric: &Fabric,
    probe: Option<&Arc<Probe>>,
) -> Built {
    let kind: BackendKind = selector.parse().expect("workload selectors are valid");
    let Some(probe) = probe else {
        return Built::Any(kind.build(fabric, &online, Box::new(ShortestFirst)));
    };
    let policy = Box::new(TimedPolicy::new(Box::new(ShortestFirst), Arc::clone(probe)));
    match kind {
        BackendKind::Sunflow => Built::Any(Box::new(SunflowBackend::new(fabric, &online, policy))),
        BackendKind::Hybrid {
            split,
            packet_bw_permille,
        } => {
            let config = HybridConfig {
                online,
                packet_bandwidth_fraction: packet_bw_permille as f64 / 1000.0,
                ..HybridConfig::default()
            };
            let split =
                TimedSplit::new(split.build(config.small_flow_threshold), Arc::clone(probe));
            Built::Hybrid(Box::new(
                HybridBackend::new(fabric, &config, policy, Box::new(split))
                    .expect("a permille selector keeps the fraction in (0, 1]"),
            ))
        }
        BackendKind::MultiSunflow { cores, assign } => {
            let assign = TimedAssign::new(assign.build(), Arc::clone(probe));
            Built::Any(Box::new(MultiSunflowBackend::new(
                &KCoreFabric::new(*fabric, cores as usize),
                &online,
                policy,
                Box::new(assign),
            )))
        }
        other => panic!("no traced constructor for {}", other.selector()),
    }
}

/// One engine repetition: build the backend, submit every Coflow, run
/// the canonical loop to idle, drain.
///
/// The loop is `ocs_sim::run_backends_to_idle` for one backend, call
/// for call (two `next_event_time` polls per round, then `advance_to`),
/// so a repetition costs what `ocs_sim::run_trace` costs.
pub fn engine_rep(
    selector: &str,
    online: OnlineConfig,
    inp: &Inputs,
    probe: Option<&Arc<Probe>>,
) -> RepOut {
    let mut out = RepOut::default();
    let mut ph = Phases::default();
    let start = Instant::now();
    let mut built = phase(probe, "sim.engine.build", 0, &mut ph.build_ns, || {
        build(selector, online, &inp.fabric, probe)
    });
    let backend = built.backend();
    for c in &inp.coflows {
        out.attempted += 1;
        let ok = phase(
            probe,
            "sim.engine.submit",
            c.id(),
            &mut ph.submit_ns,
            || backend.submit(c.clone()).is_ok(),
        );
        out.failed += u64::from(!ok);
    }

    let mut plain = FullService;
    let mut timed;
    let hook: &mut dyn SettleHook = match probe {
        Some(p) => {
            timed = TimedHook::new(FullService, Arc::clone(p));
            &mut timed
        }
        None => &mut plain,
    };
    let mut strikes = 0u32;
    let mut last_t: Option<Time> = None;
    loop {
        let step = out.steps_ns.len() as u64;
        let due = phase(probe, "sim.engine.poll", step, &mut ph.poll_ns, || {
            let t = backend.next_event_time()?;
            backend
                .next_event_time()
                .is_some_and(|e| e <= t)
                .then_some(t)
        });
        let Some(t) = due else { break };
        let before = ph.advance_ns;
        let processed = phase(
            probe,
            "sim.engine.advance",
            step,
            &mut ph.advance_ns,
            || backend.advance_to(t, hook),
        );
        out.steps_ns.push(ph.advance_ns - before);
        out.events += processed;
        if processed == 0 && last_t == Some(t) {
            strikes += 1;
            assert!(strikes < 8, "engine made no progress at {t}");
        } else {
            strikes = 0;
        }
        last_t = Some(t);
    }
    let done: Vec<Completion> = phase(probe, "sim.engine.drain", 0, &mut ph.drain_ns, || {
        backend.drain_completions()
    });
    out.wall_ns = start.elapsed().as_nanos() as u64;

    let (outcomes, extra) = in_input_order(&inp.coflows, done.into_iter().map(|c| c.outcome));
    out.outcomes = outcomes;
    out.failed += extra;
    out.phases = ph;
    out.stats = backend.stats().unwrap_or_default();
    out.guard_windows = backend.guard_windows();
    out.cores = (0..backend.cores())
        .filter_map(|k| backend.core_status(k))
        .collect();
    if let Built::Hybrid(h) = &built {
        out.packet = h.packet_stats();
    }
    out
}

/// The fabrics of the `intra_alone` sweep: `DELTA_SWEEP` × {1, 10} Gbps
/// on the workload's port count.
pub fn intra_fabrics(ports: usize) -> Vec<Fabric> {
    DELTA_SWEEP
        .iter()
        .flat_map(|&(_, delta)| {
            [1, 10].map(|gbps| Fabric::new(ports, Bandwidth::from_gbps(gbps), delta))
        })
        .collect()
}

/// One `intra_alone` repetition: every Coflow scheduled alone from time
/// zero on an empty PRT, on every fabric of the sweep. A step is one
/// `IntraScheduler::schedule` call.
pub fn intra_rep(inp: &Inputs, probe: Option<&Arc<Probe>>) -> RepOut {
    let mut out = RepOut::default();
    let mut ph = Phases::default();
    let start = Instant::now();
    for fabric in intra_fabrics(inp.fabric.ports()) {
        let keep = probe.is_some() && fabric == inp.fabric;
        let scheduler = IntraScheduler::new(&fabric, SunflowConfig::default());
        for c in &inp.coflows {
            let before = ph.advance_ns;
            let schedule = phase(
                probe,
                "core.intra.schedule",
                c.id(),
                &mut ph.advance_ns,
                || scheduler.schedule(c),
            );
            out.steps_ns.push(ph.advance_ns - before);
            out.reservations += schedule.reservations().len() as u64;
            out.outcomes.push(schedule.to_outcome());
            if keep {
                out.schedules.push(schedule);
            }
        }
    }
    out.wall_ns = start.elapsed().as_nanos() as u64;
    out.attempted = out.outcomes.len() as u64;
    out.events = out.attempted;
    out.phases = ph;
    out
}

/// The checks of `intra_alone`: per call, the generic outcome checks
/// and Lemma 1 (`CCT <= 2 T_cL`). Also returns the largest
/// `CCT / T_cL` seen.
pub fn check_intra(inp: &Inputs, out: &RepOut) -> (Vec<String>, f64) {
    let fabrics = intra_fabrics(inp.fabric.ports());
    let n = inp.coflows.len();
    let mut bad = Vec::new();
    if out.outcomes.len() != n * fabrics.len() {
        bad.push(format!(
            "{} of {} calls returned",
            out.outcomes.len(),
            n * fabrics.len()
        ));
    }
    // Alone on an idle fabric the Coflow starts at time zero.
    let alone: Vec<Coflow> = inp
        .coflows
        .iter()
        .map(|c| {
            let mut b = Coflow::builder(c.id());
            for f in c.flows() {
                b = b.flow(f.src, f.dst, f.bytes);
            }
            b.build()
        })
        .collect();
    let mut worst = 0.0f64;
    for (fabric, chunk) in fabrics.iter().zip(out.outcomes.chunks(n)) {
        bad.extend(check_outcomes(&alone, chunk, fabric, true));
        for (c, o) in alone.iter().zip(chunk) {
            let cct = o.cct(Time::ZERO);
            if !lemma1_holds(cct, c, fabric) {
                bad.push(format!("coflow {}: Lemma 1 violated", c.id()));
            }
            worst = worst.max(cct.ratio(circuit_lower_bound(c, fabric)));
        }
    }
    (bad, worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{find, prepare};
    use ocs_sim::run_trace;

    /// The first `n` Coflows of the paper's trace at `seed`.
    fn small_trace(n: usize, seed: u64) -> Inputs {
        let mut inp = prepare(find("fb_replay").unwrap(), seed);
        inp.coflows.truncate(n);
        inp
    }

    /// The copied loop replays exactly what `ocs_sim::run_trace` does,
    /// and every seam wrapper is outcome-neutral: with and without
    /// wrappers, on all three backends, one fingerprint.
    #[test]
    fn wrappers_are_outcome_neutral() {
        let inp = small_trace(40, 0);
        for selector in ["sunflow", "hybrid:solver:0.1", "sunflow:4:least-loaded"] {
            let kind: BackendKind = selector.parse().unwrap();
            let plain = online(false, REPLAN_THREADS);
            let mut reference = kind.build(&inp.fabric, &plain, Box::new(ShortestFirst));
            let golden = fingerprint(&run_trace(&inp.coflows, reference.as_mut()));

            let bare = engine_rep(selector, plain, &inp, None);
            assert_eq!(fingerprint(&bare.outcomes), golden, "{selector} bare");
            assert_eq!(bare.failed, 0);

            let probe = Arc::new(Probe::default());
            let wrapped = engine_rep(selector, plain, &inp, Some(&probe));
            assert_eq!(fingerprint(&wrapped.outcomes), golden, "{selector} wrapped");
            assert_eq!(
                wrapped.stats.reservations_made,
                bare.stats.reservations_made
            );
            assert!(probe.inter.calls() > 0, "{selector}: policy seam unused");
            assert!(probe.settle.calls() > 0, "{selector}: settle seam unused");
            assert_eq!(probe.split.calls() > 0, selector.starts_with("hybrid"));
            assert_eq!(probe.assign.calls() > 0, selector.starts_with("sunflow:4"));
        }
    }

    #[test]
    fn guard_run_counts_windows_and_passes_checks() {
        let inp = small_trace(40, 0);
        let out = engine_rep("sunflow", online(true, REPLAN_THREADS), &inp, None);
        assert!(out.guard_windows > 0);
        assert!(check_outcomes(&inp.coflows, &out.outcomes, &inp.fabric, true).is_empty());
    }

    #[test]
    fn checks_catch_a_missing_and_a_bent_outcome() {
        let inp = small_trace(5, 0);
        let mut out = engine_rep("sunflow", online(false, REPLAN_THREADS), &inp, None);
        out.outcomes[0].finish += Dur::from_millis(1);
        out.outcomes.pop();
        let bad = check_outcomes(&inp.coflows, &out.outcomes, &inp.fabric, true);
        assert_eq!(bad.len(), 2, "{bad:?}");
    }

    #[test]
    fn intra_sweep_holds_lemma_one() {
        let inp = small_trace(12, 0);
        let out = intra_rep(&inp, None);
        assert_eq!(out.outcomes.len(), 12 * 10);
        assert_eq!(out.steps_ns.len(), 120);
        let (bad, worst) = check_intra(&inp, &out);
        assert!(bad.is_empty(), "{bad:?}");
        assert!((1.0..=2.0).contains(&worst), "{worst}");
    }
}
