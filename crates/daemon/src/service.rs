//! The daemon core: admission control, the scheduling backend, fault
//! injection and telemetry, behind one [`Daemon`] value.
//!
//! The daemon owns a [`SchedulingBackend`] — Sunflow by default, any
//! [`BackendKind`] on request — and advances it along a virtual clock:
//! callers [`Daemon::submit`] Coflows, [`Daemon::advance_to`] a deadline
//! (settling circuits, replanning, retrying faulted flows), and read
//! results through [`Daemon::completions`], [`Daemon::status_json`] and
//! [`Daemon::prometheus`]. Admission is bounded — a queue-depth cap and
//! an outstanding-transmit-demand cap — and every rejection carries a
//! [`RejectReason`] so clients can distinguish back-pressure from bad
//! input. [`Daemon::checkpoint`] / [`Daemon::restore`] capture the whole
//! service as its construction config plus the command log; replaying
//! the log against a fresh daemon reproduces the state exactly (every
//! backend and the fault injector are deterministic), so checkpoints
//! work for every scheduler without backend-internal snapshots.

use crate::faults::{FaultConfig, FaultInjector, FaultStats};
use crate::jsonl::{ArrivalSpec, MAX_ARRIVAL_MS};
use ocs_metrics::{Histogram, PromRenderer};
use ocs_model::{Coflow, Dur, Fabric, Time};
use ocs_sim::{BackendKind, Completion, OnlineConfig, ReplayStats, SchedulingBackend, SubmitError};
use std::fmt;
use std::str::FromStr;
use sunflow_core::{FirstComeFirstServed, LongestFirst, PriorityPolicy, ShortestFirst};

/// Which inter-Coflow priority policy the daemon schedules with.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PolicyKind {
    /// Shortest-remaining-bottleneck first (the paper's default).
    #[default]
    ShortestFirst,
    /// Longest-bottleneck first (worst-case foil).
    LongestFirst,
    /// Arrival order.
    FirstComeFirstServed,
}

impl PolicyKind {
    /// All kinds, for help text.
    pub const ALL: [PolicyKind; 3] = [
        PolicyKind::ShortestFirst,
        PolicyKind::LongestFirst,
        PolicyKind::FirstComeFirstServed,
    ];

    /// The canonical CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::ShortestFirst => "shortest",
            PolicyKind::LongestFirst => "longest",
            PolicyKind::FirstComeFirstServed => "fcfs",
        }
    }

    /// Instantiate the policy.
    pub fn build(self) -> Box<dyn PriorityPolicy> {
        match self {
            PolicyKind::ShortestFirst => Box::new(ShortestFirst),
            PolicyKind::LongestFirst => Box::new(LongestFirst),
            PolicyKind::FirstComeFirstServed => Box::new(FirstComeFirstServed),
        }
    }
}

impl FromStr for PolicyKind {
    type Err = String;
    fn from_str(s: &str) -> Result<PolicyKind, String> {
        match s.to_ascii_lowercase().as_str() {
            "shortest" | "shortest-first" | "sjf" => Ok(PolicyKind::ShortestFirst),
            "longest" | "longest-first" => Ok(PolicyKind::LongestFirst),
            "fcfs" | "first-come-first-served" | "fifo" => Ok(PolicyKind::FirstComeFirstServed),
            other => Err(format!(
                "unknown policy {other:?}; expected one of shortest, longest, fcfs"
            )),
        }
    }
}

/// Why the daemon refused a submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The admission queue (queued + in-service Coflows) is at its cap.
    QueueFull,
    /// Admitting would push outstanding transmit demand past its cap.
    DemandCap,
    /// A Coflow with this id was already submitted.
    DuplicateId,
    /// The arrival time is earlier than the daemon clock.
    ArrivalInPast,
    /// A flow references a port outside the fabric.
    ExceedsFabric,
    /// A flow crosses two port groups of a partitioned
    /// (`portgroups:<G>`) backend.
    CrossesPortGroups,
    /// The ingest pipeline's bounded admission channel was full — the
    /// arrival was refused *before* reaching admission control. Emitted
    /// by the pipelined front end (`crate::ingest`), never by
    /// [`Daemon::submit`] itself.
    Backpressure,
}

impl RejectReason {
    /// All reasons, in counter order.
    pub const ALL: [RejectReason; 7] = [
        RejectReason::QueueFull,
        RejectReason::DemandCap,
        RejectReason::DuplicateId,
        RejectReason::ArrivalInPast,
        RejectReason::ExceedsFabric,
        RejectReason::CrossesPortGroups,
        RejectReason::Backpressure,
    ];

    /// Stable snake_case label (used in JSON and Prometheus output).
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::DemandCap => "demand_cap",
            RejectReason::DuplicateId => "duplicate_id",
            RejectReason::ArrivalInPast => "arrival_in_past",
            RejectReason::ExceedsFabric => "exceeds_fabric",
            RejectReason::CrossesPortGroups => "crosses_port_groups",
            RejectReason::Backpressure => "backpressure",
        }
    }

    pub(crate) fn index(self) -> usize {
        RejectReason::ALL.iter().position(|r| *r == self).unwrap()
    }
}

impl fmt::Display for RejectReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Back-pressure limits for [`Daemon::submit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum Coflows queued or in service at once.
    pub max_queue_depth: usize,
    /// Maximum total unserved transmit demand (sum of per-flow
    /// processing times) across admitted Coflows. Defaults to the wire
    /// format's arrival horizon, [`MAX_ARRIVAL_MS`], which keeps every
    /// planned instant on the picosecond clock (see [`crate::jsonl`]).
    pub max_outstanding: Dur,
}

impl Default for AdmissionConfig {
    fn default() -> AdmissionConfig {
        AdmissionConfig {
            max_queue_depth: 4_096,
            max_outstanding: Dur::from_millis(MAX_ARRIVAL_MS),
        }
    }
}

/// Everything needed to build a [`Daemon`].
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// The optical fabric served.
    pub fabric: Fabric,
    /// Which scheduler runs the fabric (Sunflow, a circuit baseline, or
    /// a packet-switched fluid scheduler).
    pub backend: BackendKind,
    /// Engine settings: active-circuit policy, starvation guard (used by
    /// the Sunflow backend; the others ignore them).
    pub online: OnlineConfig,
    /// Inter-Coflow priority policy.
    pub policy: PolicyKind,
    /// Admission limits.
    pub admission: AdmissionConfig,
    /// Fault-injection settings (all-zero = fault-free).
    pub faults: FaultConfig,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            fabric: Fabric::paper_default(),
            backend: BackendKind::Sunflow,
            online: OnlineConfig::default(),
            policy: PolicyKind::default(),
            admission: AdmissionConfig::default(),
            faults: FaultConfig::default(),
        }
    }
}

/// Service counters and latency histograms (sample unit: picoseconds of
/// virtual time, except [`Telemetry::admit_latency`] which is wall-clock
/// nanoseconds).
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    /// Coflow completion time (finish − arrival) samples.
    pub cct: Histogram,
    /// Queue latency (first circuit transmit − arrival) samples.
    pub queue_latency: Histogram,
    /// Wall-clock nanoseconds from an arrival entering the ingest
    /// pipeline to its submission into the scheduling backend
    /// (admission-to-schedule latency). Recorded only by the pipelined
    /// front end; empty on the synchronous path.
    pub admit_latency: Histogram,
    /// Coflows admitted.
    pub admitted: u64,
    /// Coflows completed.
    pub completed: u64,
    /// Rejections, indexed like [`RejectReason::ALL`].
    pub rejected: [u64; 7],
    /// Total bytes across admitted Coflows.
    pub bytes_admitted: u64,
    /// Total transmit demand admitted (sum of per-flow processing times).
    pub demand_admitted: Dur,
    /// Circuit establishments across completed Coflows.
    pub circuit_setups: u64,
}

impl Telemetry {
    /// Rejections summed over every reason.
    pub fn rejected_total(&self) -> u64 {
        self.rejected.iter().sum()
    }
}

/// One externally-driven daemon command, as recorded in the command log
/// that [`DaemonCheckpoint`] replays on restore.
#[derive(Clone, Debug)]
enum Command {
    /// A submission attempt (admission may still reject it — rejections
    /// replay identically, keeping the telemetry counters exact).
    Submit(Coflow),
    /// Clock advance to a deadline.
    AdvanceTo(Time),
    /// Clock raised to an instant the backend has not run to yet
    /// ([`Daemon::ingest_ahead`]).
    Raise(Time),
    /// Graceful drain to idle.
    Drain,
    /// Schedule-history compaction.
    Compact,
}

/// A full service capture for checkpoint/resume; see
/// [`Daemon::checkpoint`]. Plain data: the construction config plus the
/// command log — restore rebuilds the daemon and replays the log.
#[derive(Clone, Debug)]
pub struct DaemonCheckpoint {
    config: DaemonConfig,
    log: Vec<Command>,
}

/// The online Coflow scheduling service.
pub struct Daemon {
    config: DaemonConfig,
    backend: Box<dyn SchedulingBackend>,
    injector: FaultInjector,
    telemetry: Telemetry,
    /// Every completion since construction, in completion order.
    completions: Vec<Completion>,
    /// Every externally-driven command since construction; the
    /// checkpoint's replay script.
    log: Vec<Command>,
    /// The latest instant the daemon was advanced to; the backend has
    /// run every event before it (see [`Daemon::advance_to`]).
    clock: Time,
}

impl Daemon {
    /// Build an idle daemon at `t = 0`.
    pub fn new(config: &DaemonConfig) -> Daemon {
        Daemon {
            backend: config
                .backend
                .build(&config.fabric, &config.online, config.policy.build()),
            injector: FaultInjector::new(config.faults, config.fabric.delta()),
            telemetry: Telemetry::default(),
            completions: Vec::new(),
            log: Vec::new(),
            clock: Time::ZERO,
            config: config.clone(),
        }
    }

    /// The daemon's virtual clock: the latest instant it was advanced
    /// to, or the backend's last event if that is later.
    pub fn now(&self) -> Time {
        self.clock.max(self.backend.status().now)
    }

    /// True when no admitted Coflow has unserved demand.
    pub fn is_idle(&self) -> bool {
        self.backend.status().idle
    }

    /// Which scheduling backend this daemon runs.
    pub fn backend(&self) -> BackendKind {
        self.config.backend
    }

    /// Service counters and histograms.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Fault-injection counters.
    pub fn fault_stats(&self) -> FaultStats {
        self.injector.stats()
    }

    /// Scheduler-side replay counters (all zero for backends without a
    /// rescheduling loop).
    pub fn stats(&self) -> ReplayStats {
        self.backend.status().stats.unwrap_or_default()
    }

    /// The split policy's metric label when this daemon runs the hybrid
    /// fabric; `None` for every single-fabric backend.
    pub fn split_label(&self) -> Option<&'static str> {
        match self.config.backend {
            BackendKind::Hybrid { split, .. } => Some(split.name()),
            _ => None,
        }
    }

    /// Every completion so far, in completion order.
    pub fn completions(&self) -> &[Completion] {
        &self.completions
    }

    /// The configured priority policy.
    pub fn policy(&self) -> PolicyKind {
        self.config.policy
    }

    /// Total transmit demand of `coflow` on this fabric, or `None` when
    /// it overflows the picosecond clock.
    fn coflow_demand(&self, coflow: &Coflow) -> Option<Dur> {
        let bandwidth = self.config.fabric.bandwidth();
        coflow.flows().iter().try_fold(Dur::ZERO, |sum, f| {
            let p = bandwidth.checked_transfer_time(f.bytes)?;
            sum.as_ps().checked_add(p.as_ps()).map(Dur::from_ps)
        })
    }

    fn reject(&mut self, reason: RejectReason) -> Result<(), RejectReason> {
        self.telemetry.rejected[reason.index()] += 1;
        Err(reason)
    }

    /// Admit `coflow` or reject it with a reason. Admission checks run
    /// before the backend sees the Coflow, so a rejected submission
    /// leaves the schedule untouched.
    pub fn submit(&mut self, coflow: Coflow) -> Result<(), RejectReason> {
        self.log.push(Command::Submit(coflow.clone()));
        self.do_submit(coflow)
    }

    /// The admission caps' verdict on `coflow` with `outstanding` demand
    /// unserved: its transmit demand, or the cap it would break.
    fn within_caps(&self, coflow: &Coflow, outstanding: Dur) -> Result<Dur, RejectReason> {
        let status = self.backend.status();
        if status.active_coflows + status.queued_arrivals >= self.config.admission.max_queue_depth {
            return Err(RejectReason::QueueFull);
        }
        let cap = self.config.admission.max_outstanding.as_ps();
        (self.coflow_demand(coflow))
            .filter(|d| (outstanding.as_ps().checked_add(d.as_ps())).is_some_and(|sum| sum <= cap))
            .ok_or(RejectReason::DemandCap)
    }

    fn do_submit(&mut self, coflow: Coflow) -> Result<(), RejectReason> {
        let status = self.backend.status();
        let demand = match self.within_caps(&coflow, status.outstanding_demand) {
            Ok(demand) => demand,
            Err(reason) => return self.reject(reason),
        };
        if (status.now..self.clock).contains(&coflow.arrival()) {
            // The picosecond the backend stopped short of the clock.
            return self.reject(RejectReason::ArrivalInPast);
        }
        let bytes = coflow.total_bytes();
        match self.backend.submit(coflow) {
            Ok(()) => {
                self.telemetry.admitted += 1;
                self.telemetry.bytes_admitted += bytes;
                self.telemetry.demand_admitted += demand;
                Ok(())
            }
            Err(SubmitError::DuplicateId(_)) => self.reject(RejectReason::DuplicateId),
            Err(SubmitError::ArrivalInPast { .. }) => self.reject(RejectReason::ArrivalInPast),
            Err(SubmitError::ExceedsFabric { .. }) => self.reject(RejectReason::ExceedsFabric),
            Err(SubmitError::CrossesPortGroups { .. }) => {
                self.reject(RejectReason::CrossesPortGroups)
            }
        }
    }

    /// Record `n` arrivals refused by the ingest pipeline's bounded
    /// admission channel. Ingest-layer telemetry only: the refused
    /// arrivals never reached [`Daemon::submit`], so they are not in the
    /// command log and a restored checkpoint will not replay them.
    pub fn note_backpressure(&mut self, n: u64) {
        self.telemetry.rejected[RejectReason::Backpressure.index()] += n;
    }

    /// Record one admission-to-schedule latency sample (wall-clock
    /// nanoseconds from ingest to backend submission). Ingest-layer
    /// telemetry only, outside the command log.
    pub fn record_admit_latency_ns(&mut self, ns: u64) {
        self.telemetry.admit_latency.record(ns);
    }

    /// Admit a wire-format arrival. A spec without `arrival_ms` arrives
    /// at the daemon's current clock.
    pub fn submit_spec(&mut self, spec: &ArrivalSpec) -> Result<(), RejectReason> {
        self.submit(spec.to_coflow(self.now()))
    }

    /// The admission step of the ingest loops: advance to the line's
    /// `arrival_ms` if it is later than the clock, then
    /// [`Daemon::submit_spec`]. Returns the events processed and the
    /// verdict.
    pub fn ingest(&mut self, spec: &ArrivalSpec) -> (u64, Result<(), RejectReason>) {
        let events = match spec.arrival_ms.map(Time::from_millis) {
            Some(t) if t > self.now() => self.advance_to(t),
            _ => 0,
        };
        (events, self.submit_spec(spec))
    }

    /// [`Daemon::ingest`] with the same verdict, but without running the
    /// backend where that verdict cannot depend on it: the line arrives
    /// at or after the clock, which only raises, and neither cap can bind
    /// however far the backend runs — the queue is below its depth cap
    /// now (it only shrinks until the next submission), and the demand
    /// ever admitted, this line's included, is within the demand cap.
    /// Otherwise the backend first runs to the clock. A caller admitting
    /// a batch of lines this way and then advancing to
    /// [`Daemon::now`] gets [`Daemon::ingest`]'s acks and outcomes, while
    /// the backend plans with the batch's later arrivals already queued.
    pub fn ingest_ahead(&mut self, spec: &ArrivalSpec) -> (u64, Result<(), RejectReason>) {
        let at = spec.arrival_ms.map_or(self.now(), Time::from_millis);
        if at > self.now() {
            self.log.push(Command::Raise(at));
            self.clock = at;
        }
        let coflow = spec.to_coflow(at);
        let timeless =
            at >= self.clock && (self.within_caps(&coflow, self.telemetry.demand_admitted)).is_ok();
        let events = if timeless {
            0
        } else {
            self.advance_to(self.clock)
        };
        (events, self.submit(coflow))
    }

    fn absorb_completions(&mut self) {
        for c in self.backend.drain_completions() {
            self.telemetry.completed += 1;
            self.telemetry.circuit_setups += c.outcome.circuit_setups;
            self.telemetry
                .cct
                .record(c.outcome.finish.since(c.outcome.start).as_ps());
            if let Some(first) = c.first_service {
                self.telemetry
                    .queue_latency
                    .record(first.since(c.outcome.start).as_ps());
            }
            self.completions.push(c);
        }
    }

    /// Advance the virtual clock to `deadline` (if it is later), settling
    /// circuits, replanning and retrying faulted flows along the way:
    /// every event *before* the clock runs, and the events at it wait for
    /// the next advance (or the drain). So Coflows submitted at the clock
    /// join that instant's completions in one event, as in the batch
    /// replay of the same arrivals. Returns the number of scheduling
    /// events processed.
    pub fn advance_to(&mut self, deadline: Time) -> u64 {
        self.log.push(Command::AdvanceTo(deadline));
        self.do_advance_to(deadline)
    }

    fn do_advance_to(&mut self, deadline: Time) -> u64 {
        self.clock = self.clock.max(deadline);
        let before = Time::from_ps(self.clock.as_ps().saturating_sub(1));
        if before <= self.backend.status().now {
            return 0;
        }
        let processed = self.backend.advance_to(before, &mut self.injector);
        self.absorb_completions();
        processed
    }

    /// Graceful drain: run until every admitted Coflow has completed.
    pub fn drain(&mut self) -> u64 {
        self.log.push(Command::Drain);
        self.do_drain()
    }

    fn do_drain(&mut self) -> u64 {
        let processed = self.backend.advance_to(Time::MAX, &mut self.injector);
        self.absorb_completions();
        debug_assert!(self.is_idle());
        processed
    }

    /// Forget schedule history before the current clock; returns freed
    /// reservation-record count. Call periodically on long runs.
    pub fn compact(&mut self) -> usize {
        self.log.push(Command::Compact);
        self.backend.compact_history()
    }

    /// Fraction of total port-time spent transmitting admitted demand,
    /// `served / (ports × elapsed)`. Zero before the clock first moves.
    pub fn utilization(&self) -> f64 {
        let status = self.backend.status();
        self.port_share(
            self.telemetry.demand_admitted,
            status.outstanding_demand,
            self.now(),
        )
    }

    /// Per-core status rows of a multi-core backend: empty for
    /// single-switch backends (`K = 1` and no core seam).
    fn core_rows(&self) -> Vec<(usize, ocs_sim::CoreStatus)> {
        if self.backend.cores() <= 1 {
            return Vec::new();
        }
        (0..self.backend.cores())
            .filter_map(|c| Some((c, self.backend.core_status(c)?)))
            .collect()
    }

    /// Served transmit time (`admitted - outstanding`) over the port-time
    /// up to `now` of the fabric or of one of its cores; zero before the
    /// clock first moves.
    fn port_share(&self, admitted: Dur, outstanding: Dur, now: Time) -> f64 {
        let elapsed = now.as_secs_f64();
        if elapsed <= 0.0 {
            return 0.0;
        }
        let served = admitted.saturating_sub(outstanding);
        served.as_secs_f64() / (self.config.fabric.ports() as f64 * elapsed)
    }

    /// Capture the full service state. The checkpoint is plain data —
    /// the construction config plus the command log: clone it, keep it,
    /// and [`Daemon::restore`] later — the resumed daemon continues
    /// exactly as this one would have. Works for every backend; nothing
    /// scheduler-internal is captured.
    pub fn checkpoint(&self) -> DaemonCheckpoint {
        DaemonCheckpoint {
            config: self.config.clone(),
            log: self.log.clone(),
        }
    }

    /// Rebuild a daemon from a [`DaemonCheckpoint`] by replaying its
    /// command log against a fresh service. Every backend and the fault
    /// injector are deterministic, so the replayed daemon's schedule,
    /// telemetry and fault streaks match the checkpointed one's exactly.
    pub fn restore(ckpt: &DaemonCheckpoint) -> Daemon {
        let mut d = Daemon::new(&ckpt.config);
        for cmd in &ckpt.log {
            match cmd {
                Command::Submit(c) => {
                    let _ = d.do_submit(c.clone());
                }
                Command::AdvanceTo(t) => {
                    d.do_advance_to(*t);
                }
                Command::Raise(t) => d.clock = d.clock.max(*t),
                Command::Drain => {
                    d.do_drain();
                }
                Command::Compact => {
                    d.backend.compact_history();
                }
            }
        }
        d.log = ckpt.log.clone();
        d
    }

    /// One-line JSON status dump (counters, gauges, latency summaries).
    pub fn status_json(&self) -> String {
        let t = &self.telemetry;
        let f = self.fault_stats();
        let status = self.backend.status();
        let s = status.stats.unwrap_or_default();
        let mut rejected = String::from("{");
        for (i, reason) in RejectReason::ALL.iter().enumerate() {
            if i > 0 {
                rejected.push_str(", ");
            }
            rejected.push_str(&format!("\"{}\": {}", reason.label(), t.rejected[i]));
        }
        rejected.push('}');
        // Multi-core backends report a per-core breakdown; single-switch
        // backends omit the key entirely.
        let mut cores = String::new();
        let rows = self.core_rows();
        if !rows.is_empty() {
            cores.push_str("\"cores\": [");
            for (i, (core, st)) in rows.iter().enumerate() {
                if i > 0 {
                    cores.push_str(", ");
                }
                cores.push_str(&format!(
                    concat!(
                        "{{\"core\": {}, \"active_coflows\": {}, ",
                        "\"outstanding_demand_secs\": {:.6}, ",
                        "\"utilization\": {:.6}, \"reservations_made\": {}}}"
                    ),
                    core,
                    st.active_coflows,
                    st.outstanding_demand.as_secs_f64(),
                    self.port_share(st.demand_admitted, st.outstanding_demand, self.now()),
                    st.reservations_made,
                ));
            }
            cores.push_str("], ");
        }
        // The hybrid backend reports its demand-routing counters;
        // single-fabric backends omit the key entirely.
        let mut split = String::new();
        if let Some(policy) = self.split_label() {
            split = format!(
                concat!(
                    "\"split\": {{\"policy\": \"{}\", \"evals\": {}, ",
                    "\"subflows_to_packet\": {}, \"bytes_to_packet\": {}}}, "
                ),
                policy, s.split_evals, s.subflows_split, s.bytes_to_packet,
            );
        }
        format!(
            concat!(
                "{{\"now_secs\": {:.6}, \"backend\": \"{}\", \"switch_model\": \"{}\", ",
                "\"policy\": \"{}\", \"idle\": {}, ",
                "\"active_coflows\": {}, \"queued_arrivals\": {}, \"deferred_flows\": {}, ",
                "\"admitted\": {}, \"completed\": {}, \"rejected\": {}, ",
                "\"bytes_admitted\": {}, \"outstanding_demand_secs\": {:.6}, ",
                "\"utilization\": {:.6}, \"circuit_setups\": {}, \"guard_windows\": {}, ",
                "\"resched_events\": {}, \"coflows_skipped\": {}, ",
                "\"reservations_reused\": {}, \"reservations_made\": {}, ",
                "\"yield_rounds\": {}, \"cuts\": {}, ",
                "\"faults\": {{\"setup_failures\": {}, \"port_flaps\": {}, ",
                "\"delta_inflations\": {}, \"retries\": {}, \"recoveries\": {}, ",
                "\"max_attempts\": {}, \"backoff_total_secs\": {:.6}, \"flows_in_backoff\": {}}}, ",
                "{}{}\"cct_ps\": {}, \"queue_latency_ps\": {}, \"admit_latency_ns\": {}}}"
            ),
            self.now().as_secs_f64(),
            self.config.backend.name(),
            self.config.backend.switch_model(),
            self.config.policy.name(),
            status.idle,
            status.active_coflows,
            status.queued_arrivals,
            status.deferred_flows,
            t.admitted,
            t.completed,
            rejected,
            t.bytes_admitted,
            status.outstanding_demand.as_secs_f64(),
            self.port_share(t.demand_admitted, status.outstanding_demand, self.now()),
            t.circuit_setups,
            status.guard_windows,
            s.events,
            s.coflows_skipped,
            s.reservations_reused,
            s.reservations_made,
            s.yield_rounds,
            s.cuts,
            f.setup_failures,
            f.port_flaps,
            f.delta_inflations,
            f.retries,
            f.recoveries,
            f.max_attempts,
            f.backoff_total.as_secs_f64(),
            self.injector.flows_in_backoff(),
            cores,
            split,
            t.cct.to_json(),
            t.queue_latency.to_json(),
            t.admit_latency.to_json(),
        )
    }

    /// Prometheus text exposition (format 0.0.4) of the same state.
    /// Every series carries a `backend` label with the canonical
    /// scheduler name, so dashboards can overlay daemons running
    /// different schedulers.
    pub fn prometheus(&self) -> String {
        const PS: f64 = 1e-12;
        let t = &self.telemetry;
        let f = self.fault_stats();
        let status = self.backend.status();
        let s = status.stats.unwrap_or_default();
        let b = self.config.backend.name();
        let by_backend = [("backend", b)];
        let mut p = PromRenderer::new();
        p.counter(
            "ocs_daemon_admitted_total",
            "Coflows admitted by the daemon",
            &by_backend,
            t.admitted,
        );
        p.counter(
            "ocs_daemon_completed_total",
            "Coflows fully served",
            &by_backend,
            t.completed,
        );
        for (i, reason) in RejectReason::ALL.iter().enumerate() {
            p.counter(
                "ocs_daemon_rejected_total",
                "Submissions refused, by reason",
                &[("backend", b), ("reason", reason.label())],
                t.rejected[i],
            );
        }
        p.gauge(
            "ocs_daemon_active_coflows",
            "Coflows currently in service",
            &by_backend,
            status.active_coflows as f64,
        );
        p.gauge(
            "ocs_daemon_queued_arrivals",
            "Admitted Coflows not yet arrived on the virtual clock",
            &by_backend,
            status.queued_arrivals as f64,
        );
        p.gauge(
            "ocs_daemon_deferred_flows",
            "Flows waiting out a fault-retry backoff",
            &by_backend,
            status.deferred_flows as f64,
        );
        p.gauge(
            "ocs_daemon_outstanding_demand_seconds",
            "Unserved transmit demand across admitted Coflows",
            &by_backend,
            status.outstanding_demand.as_secs_f64(),
        );
        p.gauge(
            "ocs_daemon_circuit_utilization",
            "Served transmit time over total port-time",
            &by_backend,
            self.port_share(t.demand_admitted, status.outstanding_demand, self.now()),
        );
        p.counter(
            "ocs_daemon_circuit_setups_total",
            "Circuit establishments across completed Coflows",
            &by_backend,
            t.circuit_setups,
        );
        p.counter(
            "ocs_daemon_guard_windows_total",
            "Starvation-guard shared windows elapsed",
            &by_backend,
            status.guard_windows,
        );
        p.counter(
            "ocs_daemon_resched_events_total",
            "Rescheduling events processed",
            &by_backend,
            s.events,
        );
        p.counter(
            "ocs_daemon_coflows_skipped_total",
            "Coflows whose plans affected-set rescheduling kept as they were",
            &by_backend,
            s.coflows_skipped,
        );
        p.counter(
            "ocs_daemon_reservations_reused_total",
            "Reservations a delta replan reproduced and kept in place",
            &by_backend,
            s.reservations_reused,
        );
        p.counter(
            "ocs_daemon_yield_rounds_total",
            "Planning rounds run under the Yield active-circuit policy",
            &by_backend,
            s.yield_rounds,
        );
        p.counter(
            "ocs_daemon_cuts_total",
            "In-flight circuits Yield cut for a higher-priority Coflow",
            &by_backend,
            s.cuts,
        );
        p.counter(
            "ocs_daemon_reservations_total",
            "Reservations created by the intra-Coflow scheduler",
            &by_backend,
            s.reservations_made,
        );
        // The hybrid backend labels its demand-routing counters with the
        // split policy; single-fabric backends emit no split series.
        if let Some(split) = self.split_label() {
            let by_split = [("backend", b), ("split", split)];
            p.counter(
                "ocs_daemon_split_evals_total",
                "Split candidates evaluated at hybrid admission",
                &by_split,
                s.split_evals,
            );
            p.counter(
                "ocs_daemon_split_subflows_total",
                "Subflows carved off to the packet fabric",
                &by_split,
                s.subflows_split,
            );
            p.counter(
                "ocs_daemon_split_bytes_to_packet_total",
                "Bytes routed to the packet fabric",
                &by_split,
                s.bytes_to_packet,
            );
        }
        // Multi-core backends additionally expose each core as a label
        // dimension; single-switch backends emit no core series.
        for (core, st) in self.core_rows() {
            let core_label = core.to_string();
            let by_core = [("backend", b), ("core", core_label.as_str())];
            p.gauge(
                "ocs_daemon_core_utilization",
                "Served transmit time over port-time, per switch core",
                &by_core,
                self.port_share(st.demand_admitted, st.outstanding_demand, self.now()),
            );
            p.gauge(
                "ocs_daemon_core_active_coflows",
                "Coflows with unfinished flows placed on this core",
                &by_core,
                st.active_coflows as f64,
            );
            p.gauge(
                "ocs_daemon_core_outstanding_demand_seconds",
                "Unserved transmit demand placed on this core",
                &by_core,
                st.outstanding_demand.as_secs_f64(),
            );
            p.counter(
                "ocs_daemon_core_reservations_total",
                "Circuit reservations planned on this core's PRT shard",
                &by_core,
                st.reservations_made,
            );
        }
        for (kind, v) in [
            ("setup_failure", f.setup_failures),
            ("port_flap", f.port_flaps),
            ("delta_inflation", f.delta_inflations),
        ] {
            p.counter(
                "ocs_daemon_faults_total",
                "Injected circuit faults, by kind",
                &[("backend", b), ("kind", kind)],
                v,
            );
        }
        p.counter(
            "ocs_daemon_fault_retries_total",
            "Retries scheduled after faults",
            &by_backend,
            f.retries,
        );
        p.counter(
            "ocs_daemon_fault_recoveries_total",
            "Flows that settled fault-free after at least one fault",
            &by_backend,
            f.recoveries,
        );
        p.gauge(
            "ocs_daemon_fault_backoff_seconds",
            "Total backoff imposed across retries",
            &by_backend,
            f.backoff_total.as_secs_f64(),
        );
        p.histogram(
            "ocs_daemon_cct_seconds",
            "Coflow completion time (finish minus arrival)",
            &by_backend,
            &t.cct,
            PS,
        );
        p.histogram(
            "ocs_daemon_queue_latency_seconds",
            "Arrival to first circuit transmit",
            &by_backend,
            &t.queue_latency,
            PS,
        );
        p.histogram(
            "ocs_daemon_admit_latency_seconds",
            "Wall-clock ingest to backend submission (pipelined front end)",
            &by_backend,
            &t.admit_latency,
            1e-9,
        );
        p.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocs_model::Bandwidth;
    use ocs_sim::simulate_circuit;

    fn small_fabric() -> Fabric {
        Fabric::new(4, Bandwidth::GBPS, Dur::from_micros(20))
    }

    fn workload(n: u64) -> Vec<Coflow> {
        (0..n)
            .map(|id| {
                Coflow::builder(id)
                    .arrival(Time::from_millis(id * 7))
                    .flow(
                        (id % 4) as usize,
                        ((id + 1) % 4) as usize,
                        500_000 + id * 40_000,
                    )
                    .flow(((id + 2) % 4) as usize, ((id + 3) % 4) as usize, 250_000)
                    .build()
            })
            .collect()
    }

    fn config() -> DaemonConfig {
        DaemonConfig {
            fabric: small_fabric(),
            ..DaemonConfig::default()
        }
    }

    #[test]
    fn fault_free_daemon_matches_offline_simulation() {
        let cfg = config();
        let coflows = workload(24);
        let offline = simulate_circuit(
            &coflows,
            &cfg.fabric,
            &cfg.online,
            cfg.policy.build().as_ref(),
        );

        let mut daemon = Daemon::new(&cfg);
        // Feed arrivals just in time, advancing in 5 ms slices.
        let mut pending: Vec<Coflow> = coflows.clone();
        pending.sort_by_key(|c| (c.arrival(), c.id()));
        let mut next = 0;
        let mut t = Time::ZERO;
        while next < pending.len() {
            while next < pending.len() && pending[next].arrival() <= t {
                daemon.submit(pending[next].clone()).unwrap();
                next += 1;
            }
            daemon.advance_to(t);
            t += Dur::from_millis(5);
        }
        daemon.drain();

        let mut got: Vec<_> = daemon
            .completions()
            .iter()
            .map(|c| c.outcome.clone())
            .collect();
        got.sort_by_key(|o| o.coflow);
        let mut want = offline.outcomes.clone();
        want.sort_by_key(|o| o.coflow);
        assert_eq!(got, want, "daemon CCTs must match offline simulate_circuit");
        assert_eq!(daemon.telemetry().completed, 24);
        assert_eq!(daemon.fault_stats(), FaultStats::default());
    }

    #[test]
    fn faulted_daemon_completes_all_admitted_coflows() {
        let mut cfg = config();
        cfg.faults = FaultConfig {
            seed: 42,
            setup_failure_per_mille: 150,
            port_flap_per_mille: 100,
            delta_inflation_per_mille: 50,
            ..FaultConfig::default()
        };
        let coflows = workload(24);
        let mut daemon = Daemon::new(&cfg);
        for c in &coflows {
            daemon.submit(c.clone()).unwrap();
        }
        daemon.drain();

        assert!(daemon.is_idle(), "graceful drain leaves no demand behind");
        assert_eq!(daemon.telemetry().completed, 24, "no lost Coflows");
        let f = daemon.fault_stats();
        assert!(f.retries > 0, "fault rates this high must trigger retries");
        assert!(f.backoff_total > Dur::ZERO, "retries impose backoff");
        assert!(
            f.setup_failures + f.port_flaps + f.delta_inflations > 0,
            "at least one concrete fault kind fired"
        );

        // Faults only delay: every per-Coflow finish is >= its fault-free
        // counterpart.
        let clean = simulate_circuit(
            &coflows,
            &cfg.fabric,
            &cfg.online,
            cfg.policy.build().as_ref(),
        );
        let mut faulted: Vec<_> = daemon.completions().to_vec();
        faulted.sort_by_key(|c| c.outcome.coflow);
        let mut total_delay = Dur::ZERO;
        for (f, c) in faulted.iter().zip(clean.outcomes.iter()) {
            assert_eq!(f.outcome.coflow, c.coflow);
            assert!(f.outcome.finish >= c.start, "sanity");
            total_delay += f.outcome.finish.saturating_since(c.finish);
        }
        assert!(total_delay > Dur::ZERO, "faults must cost some time");
    }

    /// A refused submission leaves the clock where it was: a line
    /// without `arrival_ms` after a refused far-future one arrives at the
    /// clock. And an advance runs every event before its instant, so
    /// the picosecond before it is already past.
    #[test]
    fn a_refused_submission_leaves_the_clock() {
        let mut daemon = Daemon::new(&config());
        let at = |id: u64, t: Time| Coflow::builder(id).arrival(t).flow(0, 1, 1_000).build();
        daemon.advance_to(Time::from_millis(10));
        assert_eq!(daemon.now(), Time::from_millis(10));
        daemon.submit(at(1, Time::from_millis(10))).unwrap();
        let far = at(1, Time::from_millis(500_000));
        assert_eq!(daemon.submit(far), Err(RejectReason::DuplicateId));
        let clockless = ArrivalSpec {
            id: 2,
            arrival_ms: None,
            flows: vec![(1, 0, 1_000)],
        };
        daemon.submit_spec(&clockless).unwrap();
        let just_before = Time::from_ps(Time::from_millis(10).as_ps() - 1);
        assert_eq!(
            daemon.submit(at(3, just_before)),
            Err(RejectReason::ArrivalInPast)
        );
        daemon.drain();
        let mut starts: Vec<_> = daemon
            .completions()
            .iter()
            .map(|c| (c.outcome.coflow, c.outcome.start))
            .collect();
        starts.sort();
        assert_eq!(
            starts,
            [(1, Time::from_millis(10)), (2, Time::from_millis(10))]
        );
    }

    #[test]
    fn admission_rejects_with_reasons() {
        let mut cfg = config();
        cfg.admission = AdmissionConfig {
            max_queue_depth: 2,
            max_outstanding: Dur::from_millis(100),
        };
        let mut daemon = Daemon::new(&cfg);
        let c = |id: u64, mb: u64| {
            Coflow::builder(id)
                .arrival(Time::ZERO)
                .flow(0, 1, mb * 1_000_000)
                .build()
        };
        // 1 MB at 1 Gbps is 8 ms of demand; 100 ms cap fits 12.
        daemon.submit(c(0, 1)).unwrap();
        assert_eq!(daemon.submit(c(0, 1)), Err(RejectReason::DuplicateId));
        assert_eq!(daemon.submit(c(1, 13)), Err(RejectReason::DemandCap));
        let oob = Coflow::builder(9).arrival(Time::ZERO).flow(0, 7, 1).build();
        assert_eq!(daemon.submit(oob), Err(RejectReason::ExceedsFabric));
        daemon.submit(c(2, 1)).unwrap();
        assert_eq!(daemon.submit(c(3, 1)), Err(RejectReason::QueueFull));
        daemon.advance_to(Time::from_millis(50));
        let late = Coflow::builder(10)
            .arrival(Time::from_millis(1))
            .flow(0, 1, 1)
            .build();
        assert_eq!(daemon.submit(late), Err(RejectReason::ArrivalInPast));

        let t = daemon.telemetry();
        assert_eq!(t.admitted, 2);
        assert_eq!(t.rejected_total(), 5);
        for reason in [
            RejectReason::DuplicateId,
            RejectReason::DemandCap,
            RejectReason::QueueFull,
            RejectReason::ArrivalInPast,
            RejectReason::ExceedsFabric,
        ] {
            assert_eq!(t.rejected[reason.index()], 1, "{reason}");
        }
        // Rejected Coflows leave no trace: the admitted pair still drains.
        daemon.drain();
        assert_eq!(daemon.telemetry().completed, 2);
    }

    #[test]
    fn checkpoint_restore_resumes_identically() {
        let mut cfg = config();
        cfg.faults = FaultConfig {
            seed: 7,
            setup_failure_per_mille: 200,
            ..FaultConfig::default()
        };
        let coflows = workload(12);

        let mut whole = Daemon::new(&cfg);
        for c in &coflows {
            whole.submit(c.clone()).unwrap();
        }
        whole.drain();

        let mut first = Daemon::new(&cfg);
        for c in &coflows {
            first.submit(c.clone()).unwrap();
        }
        first.advance_to(Time::from_millis(40));
        let ckpt = first.checkpoint();
        drop(first);
        let mut resumed = Daemon::restore(&ckpt);
        resumed.drain();

        let key = |d: &Daemon| {
            d.completions()
                .iter()
                .map(|c| (c.outcome.coflow, c.outcome.finish, c.outcome.circuit_setups))
                .collect::<Vec<_>>()
        };
        assert_eq!(key(&whole), key(&resumed));
        assert_eq!(whole.fault_stats(), resumed.fault_stats());
        assert_eq!(whole.telemetry().cct.sum(), resumed.telemetry().cct.sum());
    }

    /// A shortfall retry on `kcore:2` that fires while a later chunk of
    /// the same flow is still planned must not be dropped: that chunk
    /// can leave part of the shortfall unserved, and the drain used to
    /// stop with the Coflow still active.
    #[test]
    fn kcore_retry_racing_a_planned_chunk_still_drains() {
        let spec = [
            (347, vec![(3, 2, 7), (3, 1, 10), (3, 2, 5)]),
            (289, vec![(1, 0, 2), (0, 2, 2)]),
            (329, vec![(2, 3, 8)]),
            (12, vec![(3, 0, 7)]),
            (349, vec![(3, 3, 10), (1, 3, 4), (0, 3, 8)]),
            (253, vec![(3, 2, 3), (0, 1, 1)]),
        ];
        let fabric = Fabric::new(4, Bandwidth::GBPS, Dur::from_millis(10));
        let cfg = DaemonConfig {
            fabric,
            backend: BackendKind::KCore { cores: 2 },
            faults: FaultConfig {
                seed: 7_945_962_501_737_646_056,
                setup_failure_per_mille: 120,
                port_flap_per_mille: 80,
                delta_inflation_per_mille: 40,
                base_backoff: fabric.delta(),
                ..FaultConfig::default()
            },
            ..DaemonConfig::default()
        };
        let mut daemon = Daemon::new(&cfg);
        for (id, (arrival_ms, flows)) in spec.iter().enumerate() {
            let b = Coflow::builder(id as u64).arrival(Time::from_millis(*arrival_ms));
            let b = flows
                .iter()
                .fold(b, |b, &(src, dst, mb)| b.flow(src, dst, mb * 1_000_000));
            daemon.submit(b.build()).unwrap();
        }
        daemon.drain();
        assert!(daemon.is_idle());
        assert_eq!(daemon.telemetry().completed, 6);
        assert!(daemon.fault_stats().retries > 0);
    }

    #[test]
    fn status_and_prometheus_render() {
        let cfg = config();
        let mut daemon = Daemon::new(&cfg);
        for c in workload(6) {
            daemon.submit(c).unwrap();
        }
        daemon.drain();

        let json = daemon.status_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"backend\": \"Sunflow\""));
        assert!(json.contains("\"switch_model\": \"not-all-stop\""));
        assert!(json.contains("\"admitted\": 6"));
        assert!(json.contains("\"completed\": 6"));
        assert!(json.contains("\"cct_ps\""));
        assert!(json.contains("\"queue_full\": 0"));

        let prom = daemon.prometheus();
        assert!(prom.contains("# TYPE ocs_daemon_admitted_total counter"));
        assert!(prom.contains("ocs_daemon_admitted_total{backend=\"Sunflow\"} 6"));
        assert!(
            prom.contains("ocs_daemon_rejected_total{backend=\"Sunflow\",reason=\"queue_full\"} 0")
        );
        assert!(prom.contains("ocs_daemon_cct_seconds_bucket"));
        assert!(prom.contains("ocs_daemon_cct_seconds_count{backend=\"Sunflow\"} 6"));
        assert!(prom.contains("le=\"+Inf\""));
        assert!(daemon.utilization() > 0.0 && daemon.utilization() <= 1.0);
    }

    #[test]
    fn multicore_backend_reports_per_core_telemetry() {
        let mut cfg = config();
        // Round-robin placement: each two-flow Coflow puts one flow on
        // each core, so both cores deterministically plan circuits.
        cfg.backend = "sunflow:2:round-robin".parse().expect("selector parses");
        let mut daemon = Daemon::new(&cfg);
        for c in workload(8) {
            daemon.submit(c).unwrap();
        }
        daemon.drain();
        assert_eq!(daemon.telemetry().completed, 8);

        let json = daemon.status_json();
        assert!(json.contains("\"cores\": ["), "status gains a cores array");
        assert!(json.contains("\"core\": 0"));
        assert!(json.contains("\"core\": 1"));

        let prom = daemon.prometheus();
        for core in ["0", "1"] {
            assert!(
                prom.contains(&format!(
                    "ocs_daemon_core_utilization{{backend=\"Sunflow\",core=\"{core}\"}}"
                )),
                "core {core} utilization series"
            );
            assert!(
                prom.contains(&format!(
                    "ocs_daemon_core_reservations_total{{backend=\"Sunflow\",core=\"{core}\"}}"
                )),
                "core {core} reservation counter"
            );
        }
        for core in ["0", "1"] {
            let series = format!(
                "ocs_daemon_core_reservations_total{{backend=\"Sunflow\",core=\"{core}\"}} "
            );
            let line = prom
                .lines()
                .find(|l| l.starts_with(&series))
                .expect("series");
            let made: u64 = line[series.len()..].trim().parse().expect("counter value");
            assert!(made > 0, "core {core} did work");
        }

        // The single-switch daemon emits no core series at all.
        let mut single = Daemon::new(&config());
        for c in workload(4) {
            single.submit(c).unwrap();
        }
        single.drain();
        assert!(!single.status_json().contains("\"cores\""));
        assert!(!single.prometheus().contains("ocs_daemon_core_"));
    }

    #[test]
    fn hybrid_backend_reports_split_telemetry() {
        let mut cfg = config();
        cfg.backend = "hybrid:threshold".parse().expect("selector parses");
        let mut daemon = Daemon::new(&cfg);
        for c in workload(8) {
            daemon.submit(c).unwrap();
        }
        daemon.drain();
        assert_eq!(daemon.telemetry().completed, 8);
        assert_eq!(daemon.split_label(), Some("threshold"));

        // Every flow in the test workload is under the 2 MB threshold,
        // so all 16 subflows ride the packet fabric.
        let s = daemon.stats();
        assert_eq!(s.split_evals, 8);
        assert_eq!(s.subflows_split, 16);
        assert!(s.bytes_to_packet > 0);

        let json = daemon.status_json();
        assert!(
            json.contains("\"split\": {\"policy\": \"threshold\""),
            "{json}"
        );
        assert!(json.contains("\"subflows_to_packet\": 16"), "{json}");

        let prom = daemon.prometheus();
        assert!(
            prom.contains("ocs_daemon_split_evals_total{backend=\"Hybrid\",split=\"threshold\"} 8")
        );
        assert!(prom.contains(
            "ocs_daemon_split_subflows_total{backend=\"Hybrid\",split=\"threshold\"} 16"
        ));
        assert!(prom.contains(
            "ocs_daemon_split_bytes_to_packet_total{backend=\"Hybrid\",split=\"threshold\"}"
        ));

        // Single-fabric daemons emit no split series at all.
        let single = Daemon::new(&config());
        assert_eq!(single.split_label(), None);
        assert!(!single.status_json().contains("\"split\""));
        assert!(!single.prometheus().contains("ocs_daemon_split_"));
    }

    #[test]
    fn every_backend_drains_the_trace() {
        for kind in BackendKind::ALL {
            let mut cfg = config();
            cfg.backend = kind;
            let mut daemon = Daemon::new(&cfg);
            for c in workload(8) {
                daemon.submit(c).unwrap();
            }
            daemon.drain();
            assert!(daemon.is_idle(), "{kind} drains to idle");
            assert_eq!(daemon.telemetry().completed, 8, "{kind} completes all");
            let json = daemon.status_json();
            assert!(
                json.contains(&format!("\"backend\": \"{}\"", kind.name())),
                "{kind} status names its backend"
            );
            let prom = daemon.prometheus();
            assert!(
                prom.contains(&format!(
                    "ocs_daemon_completed_total{{backend=\"{}\"}} 8",
                    kind.name()
                )),
                "{kind} metrics carry the backend label"
            );
        }
    }

    #[test]
    fn checkpoint_restore_works_for_every_backend() {
        // The control daemon runs the same command sequence uninterrupted
        // (circuit baselines re-plan at every advance boundary, so only
        // identical sequences are comparable across all backends).
        for kind in BackendKind::ALL {
            let mut cfg = config();
            cfg.backend = kind;

            let mut whole = Daemon::new(&cfg);
            for c in workload(6) {
                whole.submit(c).unwrap();
            }
            whole.advance_to(Time::from_millis(20));
            whole.drain();

            let mut first = Daemon::new(&cfg);
            for c in workload(6) {
                first.submit(c).unwrap();
            }
            first.advance_to(Time::from_millis(20));
            let resumed = Daemon::restore(&first.checkpoint());
            assert_eq!(resumed.now(), first.now(), "{kind} clock resumes");
            let mut resumed = resumed;
            resumed.drain();

            let key = |d: &Daemon| {
                d.completions()
                    .iter()
                    .map(|c| (c.outcome.coflow, c.outcome.finish))
                    .collect::<Vec<_>>()
            };
            assert_eq!(key(&whole), key(&resumed), "{kind} resumes identically");
        }
    }
}
