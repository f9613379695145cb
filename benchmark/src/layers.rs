//! The per-layer metrics of the traced pass: their names, and how each
//! is read off a traced repetition, the seam counters, the backend's
//! own work counters and three small micro-sections.
//!
//! Every workload prints every name, so a result always has the same
//! shape; a metric that does not apply to a workload reads 0.

use crate::daemon::{fault_config, sliced_rep, Pipelined, ServiceSurface};
use crate::engine::{phase, RepOut, REPLAN_THREADS};
use crate::report::Better::{self, Higher, Lower};
use crate::seams::Probe;
use crate::stats::percentile_ns;
use crate::workloads::{Inputs, Kind, SetupTimes, Spec};
use ocs_daemon::FaultConfig;
use ocs_model::{Bandwidth, Dur, Fabric, Time};
use ocs_workload::{generate, SynthConfig};
use std::collections::BTreeMap;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use sunflow_core::{CoflowSchedule, Prt, ResvKind};

/// `(name, unit, better)` of every per-layer metric, in print order.
/// `BENCHMARK.json` lists the same names (a test compares them).
pub const PER_LAYER: [(&str, &str, Better); 97] = [
    ("workload.generate_s", "s", Lower),
    ("workload.to_jsonl_s", "s", Lower),
    ("workload.trace.parse_mb_per_s", "MB/s", Higher),
    ("daemon.jsonl.parse_ns_per_line", "ns", Lower),
    ("daemon.jsonl.allocs_per_line", "count", Lower),
    ("daemon.server.ack_ns_per_line", "ns", Lower),
    ("daemon.service.submit_ns_per_coflow", "ns", Lower),
    ("daemon.service.advance_s", "s", Lower),
    ("daemon.service.drain_s", "s", Lower),
    ("daemon.service.rejected", "count", Lower),
    ("daemon.service.status_json_us", "us", Lower),
    ("daemon.service.prometheus_us", "us", Lower),
    ("daemon.service.checkpoint_ms", "ms", Lower),
    ("daemon.service.restore_ms", "ms", Lower),
    ("daemon.ingest.pipelined_wall_s", "s", Lower),
    ("daemon.ingest.overlap_ratio", "ratio", Higher),
    ("daemon.ingest.batches", "count", Lower),
    ("daemon.ingest.max_batch", "count", Higher),
    ("daemon.ingest.backpressure_waits", "count", Lower),
    ("daemon.ingest.lost_acks", "count", Lower),
    ("daemon.ingest.outcomes_differing", "count", Lower),
    ("daemon.ingest.admit_p50_ns", "ns", Lower),
    ("daemon.ingest.admit_p99_ns", "ns", Lower),
    ("daemon.faults.fired", "count", Lower),
    ("daemon.faults.retries", "count", Lower),
    ("daemon.faults.retries_per_coflow", "ratio", Lower),
    ("daemon.faults.backoff_s", "s", Lower),
    ("daemon.faults.slowdown", "ratio", Lower),
    ("daemon.faults.heavy_tail_wall_s", "s", Lower),
    ("daemon.faults.heavy_tail_slowdown", "ratio", Lower),
    ("sim.engine.build_us", "us", Lower),
    ("sim.engine.submit_s", "s", Lower),
    ("sim.engine.poll_s", "s", Lower),
    ("sim.engine.advance_s", "s", Lower),
    ("sim.engine.drain_s", "s", Lower),
    ("sim.engine.advance_calls", "count", Lower),
    ("sim.engine.events", "count", Lower),
    ("sim.engine.step_p50_us", "us", Lower),
    ("sim.engine.step_p999_us", "us", Lower),
    ("sim.engine.step_max_us", "us", Lower),
    ("sim.engine.allocs_per_event", "count", Lower),
    ("sim.engine.alloc_bytes_per_event", "count", Lower),
    ("sim.stepper.reschedule_s", "s", Lower),
    ("sim.stepper.unattributed_s", "s", Lower),
    ("sim.stepper.coflows_rescheduled", "count", Lower),
    ("sim.stepper.coflows_skipped", "count", Higher),
    ("sim.stepper.skip_ratio", "ratio", Higher),
    ("sim.stepper.reservations_made", "count", Lower),
    ("sim.stepper.reservations_truncated", "count", Lower),
    ("sim.stepper.reservations_retired", "count", Lower),
    ("sim.stepper.replan_segments", "count", Higher),
    ("sim.stepper.parallel_replans", "count", Higher),
    ("sim.stepper.parallel_wall_ratio", "ratio", Lower),
    ("sim.stepper.cuts", "count", Lower),
    ("sim.stepper.yield_rounds", "count", Lower),
    ("sim.stepper.settle_calls", "count", Lower),
    ("sim.stepper.settle_s", "s", Lower),
    ("sim.hybrid.subflows_split", "count", Higher),
    ("sim.hybrid.bytes_to_packet", "count", Higher),
    ("sim.multicore.cores_used", "count", Higher),
    ("sim.multicore.core_reservation_skew", "ratio", Lower),
    ("core.intra.releases_visited", "count", Lower),
    ("core.intra.demands_scanned", "count", Lower),
    ("core.intra.schedule_us_p50", "us", Lower),
    ("core.intra.schedule_us_p99", "us", Lower),
    ("core.intra.ns_per_reservation", "ns", Lower),
    ("core.intra.lemma1_max_ratio", "ratio", Lower),
    ("core.prt.reservations", "count", Lower),
    ("core.prt.reserve_ns", "ns", Lower),
    ("core.prt.probe_ns", "ns", Lower),
    ("core.prt.truncate_ns_per_resv", "ns", Lower),
    ("core.prt.snapshot_restore_ms", "ms", Lower),
    ("core.delta.reservations_reused", "count", Higher),
    ("core.delta.delta_applied", "count", Lower),
    ("core.delta.reuse_ratio", "ratio", Higher),
    ("core.inter.policy_calls", "count", Lower),
    ("core.inter.policy_s", "s", Lower),
    ("core.split.calls", "count", Lower),
    ("core.split.evals", "count", Lower),
    ("core.split.split_s", "s", Lower),
    ("core.split.us_per_call_p99", "us", Lower),
    ("core.multicore.assign_calls", "count", Lower),
    ("core.multicore.assign_s", "s", Lower),
    ("core.starvation.guard_windows", "count", Lower),
    ("packet.events", "count", Lower),
    ("packet.allocate_s", "s", Lower),
    ("model.circuit_setups", "count", Lower),
    ("model.setups_per_flow", "ratio", Lower),
    ("trace.overhead_share", "ratio", Lower),
    ("trace.span_coverage", "ratio", Higher),
    ("trace.spans", "count", Lower),
    ("trace.allocs", "count", Lower),
    ("trace.alloc_bytes", "count", Lower),
    ("trace.self_s.engine", "s", Lower),
    ("trace.self_s.daemon", "s", Lower),
    ("trace.self_s.seams", "s", Lower),
    ("trace.self_s.bench", "s", Lower),
];

/// `a / b`, or 0 when `b` is 0 (a layer that did not run).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The per-layer metric values of one traced run, by name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Set metric `name`.
    ///
    /// # Panics
    /// Panics if `name` is not in [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, ..)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    /// Metric `name`, 0 if never set.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// The set-up pass, by part.
    pub fn set_setup(&mut self, s: &SetupTimes) {
        self.set("workload.generate_s", s.generate_s);
        self.set("workload.to_jsonl_s", s.to_jsonl_s);
        self.set(
            "workload.trace.parse_mb_per_s",
            ratio(s.trace_bytes as f64 / 1e6, s.trace_roundtrip_s),
        );
    }

    /// Everything read off the traced repetition itself.
    pub fn set_rep(&mut self, spec: &Spec, inp: &Inputs, out: &RepOut, probe: &Probe) {
        let ph = &out.phases;
        let st = &out.stats;
        let steps = &out.steps_ns;
        let daemon = matches!(spec.kind, Kind::SoakStream | Kind::FaultRetry);

        if daemon {
            self.set(
                "daemon.service.submit_ns_per_coflow",
                ratio(ph.submit_ns as f64, out.attempted as f64),
            );
            self.set("daemon.service.advance_s", secs(ph.advance_ns));
            self.set("daemon.service.drain_s", secs(ph.drain_ns));
            self.set("daemon.service.rejected", out.rejected as f64);
            self.set(
                "daemon.jsonl.parse_ns_per_line",
                ratio(ph.parse_ns as f64, out.attempted as f64),
            );
            self.set(
                "daemon.server.ack_ns_per_line",
                ratio(ph.ack_ns as f64, out.attempted as f64),
            );
        } else {
            self.set("sim.engine.build_us", ph.build_ns as f64 / 1e3);
            self.set("sim.engine.submit_s", secs(ph.submit_ns));
            self.set("sim.engine.poll_s", secs(ph.poll_ns));
            self.set("sim.engine.advance_s", secs(ph.advance_ns));
            self.set("sim.engine.drain_s", secs(ph.drain_ns));
        }
        self.set("sim.engine.advance_calls", steps.len() as f64);
        self.set("sim.engine.events", out.events as f64);
        self.set("sim.engine.step_p50_us", percentile_ns(steps, 0.5) / 1e3);
        self.set("sim.engine.step_p999_us", percentile_ns(steps, 0.999) / 1e3);
        self.set("sim.engine.step_max_us", percentile_ns(steps, 1.0) / 1e3);

        let resched_s = st.reschedule_micros as f64 / 1e6;
        self.set("sim.stepper.reschedule_s", resched_s);
        if spec.kind != Kind::IntraAlone {
            // What `advance_to` spent outside the stepper's own replan
            // timer and outside every wrapped seam.
            self.set(
                "sim.stepper.unattributed_s",
                secs(ph.advance_ns) - resched_s - secs(probe.seam_ns()),
            );
        }
        self.set(
            "sim.stepper.coflows_rescheduled",
            st.coflows_rescheduled as f64,
        );
        self.set("sim.stepper.coflows_skipped", st.coflows_skipped as f64);
        self.set(
            "sim.stepper.skip_ratio",
            ratio(
                st.coflows_skipped as f64,
                (st.coflows_skipped + st.coflows_rescheduled) as f64,
            ),
        );
        self.set("sim.stepper.reservations_made", st.reservations_made as f64);
        self.set(
            "sim.stepper.reservations_truncated",
            st.reservations_truncated as f64,
        );
        self.set(
            "sim.stepper.reservations_retired",
            st.reservations_retired as f64,
        );
        self.set("sim.stepper.replan_segments", st.replan_segments as f64);
        self.set("sim.stepper.cuts", st.cuts as f64);
        self.set("sim.stepper.yield_rounds", st.yield_rounds as f64);
        self.set("sim.stepper.settle_calls", probe.settle.calls() as f64);
        self.set("sim.stepper.settle_s", secs(probe.settle.ns()));
        self.set("sim.hybrid.subflows_split", st.subflows_split as f64);
        self.set("sim.hybrid.bytes_to_packet", st.bytes_to_packet as f64);
        // The packet plane's own counters, as the hybrid backend keeps them.
        self.set("packet.events", out.packet.events as f64);
        self.set(
            "packet.allocate_s",
            out.packet.reschedule_micros as f64 / 1e6,
        );

        let made: Vec<f64> = out
            .cores
            .iter()
            .map(|c| c.reservations_made as f64)
            .collect();
        self.set(
            "sim.multicore.cores_used",
            made.iter().filter(|&&m| m > 0.0).count() as f64,
        );
        self.set(
            "sim.multicore.core_reservation_skew",
            ratio(
                made.iter().copied().fold(0.0, f64::max),
                ratio(made.iter().sum(), made.len() as f64),
            ),
        );

        self.set("core.intra.releases_visited", st.releases_visited as f64);
        self.set("core.intra.demands_scanned", st.demands_scanned as f64);
        if spec.kind == Kind::IntraAlone {
            self.set(
                "core.intra.schedule_us_p50",
                percentile_ns(steps, 0.5) / 1e3,
            );
            self.set(
                "core.intra.schedule_us_p99",
                percentile_ns(steps, 0.99) / 1e3,
            );
            self.set(
                "core.intra.ns_per_reservation",
                ratio(ph.advance_ns as f64, out.reservations as f64),
            );
        } else {
            self.set(
                "core.intra.ns_per_reservation",
                ratio(
                    st.reschedule_micros as f64 * 1e3,
                    st.reservations_made as f64,
                ),
            );
        }
        self.set(
            "core.delta.reservations_reused",
            st.reservations_reused as f64,
        );
        self.set("core.delta.delta_applied", st.delta_applied as f64);
        self.set(
            "core.delta.reuse_ratio",
            ratio(
                st.reservations_reused as f64,
                (st.reservations_reused + st.reservations_made) as f64,
            ),
        );
        self.set("core.inter.policy_calls", probe.inter.calls() as f64);
        self.set("core.inter.policy_s", secs(probe.inter.ns()));
        self.set("core.split.calls", probe.split.calls() as f64);
        self.set("core.split.evals", probe.split_evals.load(Relaxed) as f64);
        self.set("core.split.split_s", secs(probe.split.ns()));
        let split_calls = probe
            .split_call_ns
            .lock()
            .expect("no thread panics while holding the sample list");
        if !split_calls.is_empty() {
            self.set(
                "core.split.us_per_call_p99",
                percentile_ns(&split_calls, 0.99) / 1e3,
            );
        }
        self.set("core.multicore.assign_calls", probe.assign.calls() as f64);
        self.set("core.multicore.assign_s", secs(probe.assign.ns()));
        self.set("core.starvation.guard_windows", out.guard_windows as f64);

        let setups: u64 = out.outcomes.iter().map(|o| o.circuit_setups).sum();
        self.set("model.circuit_setups", setups as f64);
        let served_flows: usize = out.outcomes.iter().map(|o| o.flow_finish.len()).sum();
        self.set(
            "model.setups_per_flow",
            ratio(setups as f64, served_flows as f64),
        );

        let f = &out.faults;
        let fired = f.setup_failures + f.port_flaps + f.delta_inflations;
        self.set("daemon.faults.fired", fired as f64);
        self.set("daemon.faults.retries", f.retries as f64);
        self.set(
            "daemon.faults.retries_per_coflow",
            ratio(f.retries as f64, inp.coflows.len() as f64),
        );
        self.set("daemon.faults.backoff_s", f.backoff_total.as_secs_f64());

        // Self time by the layer a span's name begins with.
        let tracer = probe.tracer();
        let (mut engine, mut daemon_s, mut seams, mut bench) = (0, 0, 0, 0);
        for (name, ns) in tracer.self_times_ns() {
            if name.starts_with("sim.engine") || name == "core.intra.schedule" {
                engine += ns;
            } else if name.starts_with("daemon.") {
                daemon_s += ns;
            } else if name.starts_with("bench.") {
                bench += ns;
            } else {
                seams += ns;
            }
        }
        self.set("trace.self_s.engine", secs(engine));
        self.set("trace.self_s.daemon", secs(daemon_s));
        self.set("trace.self_s.seams", secs(seams));
        self.set("trace.self_s.bench", secs(bench));
        self.set("trace.spans", tracer.spans().len() as f64);
    }

    /// The one-off status / checkpoint measurements.
    pub fn set_service(&mut self, s: &ServiceSurface) {
        self.set("daemon.service.status_json_us", s.status_json_us);
        self.set("daemon.service.prometheus_us", s.prometheus_us);
        self.set("daemon.service.checkpoint_ms", s.checkpoint_ms);
        self.set("daemon.service.restore_ms", s.restore_ms);
    }

    /// The pipelined front end against the sequential loop's median wall.
    pub fn set_pipelined(&mut self, p: &Pipelined, sequential_wall_s: f64) {
        self.set("daemon.ingest.pipelined_wall_s", p.wall_s);
        self.set(
            "daemon.ingest.overlap_ratio",
            ratio(sequential_wall_s, p.wall_s),
        );
        self.set("daemon.ingest.batches", p.batches as f64);
        self.set("daemon.ingest.max_batch", p.max_batch as f64);
        self.set(
            "daemon.ingest.backpressure_waits",
            p.backpressure_waits as f64,
        );
        self.set("daemon.ingest.lost_acks", p.lost_acks as f64);
        self.set("daemon.ingest.outcomes_differing", p.differing as f64);
        self.set("daemon.ingest.admit_p50_ns", p.admit_p50_ns);
        self.set("daemon.ingest.admit_p99_ns", p.admit_p99_ns);
    }

    /// `(name, unit, value)` of every metric, in [`PER_LAYER`] order.
    pub fn rows(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| (name, unit, self.get(name)))
    }
}

/// The PRT micro-section: each schedule `intra_alone` produced on the
/// paper's fabric, replayed into a fresh [`Prt`] — reserve every
/// circuit, probe both ports at every start, snapshot and restore, then
/// truncate the future at the midpoint.
pub fn prt_micro(
    schedules: &[CoflowSchedule],
    ports: usize,
    probe: &Arc<Probe>,
    layers: &mut Layers,
) {
    let (mut reserve_ns, mut probe_ns, mut truncate_ns, mut snap_ns) = (0, 0, 0, 0);
    let (mut resvs, mut truncated) = (0u64, 0u64);
    for (i, s) in schedules.iter().enumerate() {
        let rs = s.reservations();
        if rs.is_empty() {
            continue;
        }
        resvs += rs.len() as u64;
        let req = i as u64;
        let mut prt = Prt::new(ports);
        phase(
            Some(probe),
            "core.prt.reserve",
            req,
            &mut reserve_ns,
            || {
                for r in rs {
                    prt.reserve(r.src, r.dst, r.start, r.end, ResvKind::Flow(r.flow));
                }
            },
        );
        phase(Some(probe), "core.prt.probe", req, &mut probe_ns, || {
            for r in rs {
                std::hint::black_box((prt.in_probe(r.src, r.start), prt.out_probe(r.dst, r.start)));
            }
        });
        phase(
            Some(probe),
            "core.prt.snapshot_restore",
            req,
            &mut snap_ns,
            || {
                std::hint::black_box(Prt::from_snapshot(&prt.snapshot()));
            },
        );
        let mid = Time::from_ps(s.finish().as_ps() / 2);
        truncated += phase(
            Some(probe),
            "core.prt.truncate",
            req,
            &mut truncate_ns,
            || prt.truncate_future_count(mid, true),
        );
    }
    layers.set("core.prt.reservations", resvs as f64);
    layers.set(
        "core.prt.reserve_ns",
        ratio(reserve_ns as f64, resvs as f64),
    );
    layers.set(
        "core.prt.probe_ns",
        ratio(probe_ns as f64, 2.0 * resvs as f64),
    );
    layers.set(
        "core.prt.truncate_ns_per_resv",
        ratio(truncate_ns as f64, truncated as f64),
    );
    layers.set("core.prt.snapshot_restore_ms", snap_ns as f64 / 1e6);
}

/// The heavy-tailed faulted soak of the repository's `daemon_soak`
/// (80 Coflows of `synth::generate`, 32 ports, 48 s): the ROADMAP's
/// faulted-vs-fault-free anomaly. Its wall moves by a sixth from one
/// fault draw to the next, so it cannot be an end-to-end workload; the
/// traced pass of `fault_retry` runs it once, fixed seeds, both ways.
pub fn heavy_tail_faults(layers: &mut Layers) -> bool {
    let coflows = generate(&SynthConfig {
        ports: 32,
        coflows: 80,
        horizon_secs: 48.0,
        seed: 0xdae_0001,
    });
    let inp = Inputs {
        fabric: Fabric::new(32, Bandwidth::GBPS, Dur::from_millis(1)),
        coflows,
        jsonl: String::new(),
        setup: SetupTimes::default(),
    };
    let clean = sliced_rep(&inp, FaultConfig::default(), REPLAN_THREADS, None);
    let faulted = sliced_rep(&inp, fault_config(0), REPLAN_THREADS, None);
    layers.set("daemon.faults.heavy_tail_wall_s", secs(faulted.wall_ns));
    layers.set(
        "daemon.faults.heavy_tail_slowdown",
        ratio(faulted.wall_ns as f64, clean.wall_ns as f64),
    );
    faulted.outcomes.len() == inp.coflows.len() && faulted.faults.retries > 0
}
