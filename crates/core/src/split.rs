//! The demand-routing seam of the hybrid circuit/packet fabric: which
//! bytes of an arriving Coflow ride the Sunflow-scheduled circuit
//! switch, and which the slim packet network.
//!
//! [`SplitPolicy`] generalizes [`CoreAssign`](crate::CoreAssign) — where
//! a core-placement policy routes whole subflows between identical
//! circuit planes, a split policy carves *bytes* between two fabrics
//! with very different service models (circuits pay a reconfiguration
//! delta `δ` but run at full rate; packets start instantly at a fraction
//! of the rate, fair-shared and not Coflow-scheduled). Three policies:
//!
//! * [`NonSplitting`] — whole-Coflow routing, threshold- and
//!   load-aware: a small Coflow goes to the packet network only while
//!   the packet network's estimated finish actually beats the
//!   circuits'.
//! * [`ThresholdSplit`] — the classic per-flow hybrid (c-Through,
//!   Helios, Solstice): small flows → packets, big flows → circuits.
//! * [`SolverSplit`] — per-Coflow byte optimization: bisect on the
//!   packet fraction minimizing the max of the two fabrics' estimated
//!   finish times (the circuit finish is non-increasing and the packet
//!   finish non-decreasing in the fraction, so the max is V-shaped and
//!   the balance point is found in `O(log resolution)` evaluations).
//!   The circuit side's achievable finish is probed against the **live
//!   PRT** through a discarded [`DeltaView`] plan (the probe never
//!   mutates the table), tempered by a preemption-aware queue estimate
//!   so a long planned tail does not scare short Coflows off the
//!   circuits; the plan runs only when two cheap bounds on the probe
//!   cannot decide the bisection step. The packet side is inflated by a
//!   5/4 pessimism factor because the fair-shared fabric finishes
//!   concurrent carves later than a FIFO drain would.
//!
//! [`SplitKind`] is the selector enum behind the daemon's
//! `--backend hybrid:<split>[:<frac>]` grammar.

use crate::delta::{DeltaStorage, DeltaView};
use crate::intra::{schedule_demands_on, Demand, ScheduleScratch, SunflowConfig};
use crate::prt::Prt;
use ocs_model::{packet_lower_bound, Coflow, DemandSplit, Dur, Fabric, Time};

/// Everything a [`SplitPolicy`] may consult when routing one arriving
/// Coflow: the two fabrics, the live circuit reservation table (when
/// the caller has one), and the packet network's current backlog.
pub struct SplitContext<'a> {
    /// The decision instant (the Coflow's admission time).
    pub now: Time,
    /// The full-rate circuit fabric (bandwidth `B`, delay `δ`).
    pub circuit: &'a Fabric,
    /// The slim packet fabric (a fraction of `B`, `δ` irrelevant).
    pub packet: &'a Fabric,
    /// The circuit side's live port reservation table, for policies
    /// that probe achievable finish times. `None` when the circuit
    /// backend exposes no PRT; probing policies then fall back to the
    /// `δ`-plus-bottleneck estimate.
    pub prt: Option<&'a Prt>,
    /// Aggregate unserved processing time on the packet fabric — the
    /// congestion signal of the load-aware estimates.
    pub packet_outstanding: Dur,
    /// Per-port unserved processing time on the packet fabric (the
    /// larger of each port's transmit and receive queues), for
    /// estimates that resolve *where* the backlog sits. `None` falls
    /// back to spreading `packet_outstanding` evenly across ports.
    pub packet_backlog: Option<&'a [Dur]>,
    /// Probe for the circuit side's *priority queue*: given a new
    /// arrival's remaining bottleneck (its shortest-remaining-first
    /// key), returns the per-port unserved demand of the Coflows that
    /// would outrank it. Unlike the PRT — which only holds the planned
    /// head of the queue — this sees every admitted Coflow's full
    /// remaining demand. `None` falls back to recovering priorities
    /// from the PRT's own reservations.
    pub circuit_queue: Option<&'a dyn Fn(Dur) -> Vec<Dur>>,
    /// Planning configuration for circuit-side probes.
    pub config: SunflowConfig,
}

impl SplitContext<'_> {
    /// Cheap circuit-side finish estimate for routing `coflow` whole:
    /// one reconfiguration `δ` plus the bottleneck-port processing time
    /// at full rate (Eq. 4's shape, ignoring queueing).
    pub fn circuit_estimate(&self, coflow: &Coflow) -> Time {
        self.now + self.circuit.delta() + packet_lower_bound(coflow, self.circuit)
    }

    /// Packet-side finish estimate for routing `coflow` whole: the
    /// bottleneck-port finish on the slim fabric, queueing included.
    ///
    /// With a per-port backlog ([`packet_backlog`](Self::packet_backlog))
    /// the estimate is the max, over the Coflow's own ports, of that
    /// port's existing queue plus the Coflow's own processing time there
    /// — the bytes must drain *behind* whatever already sits on the
    /// ports they use. Without one it falls back to the bottleneck
    /// lower bound plus the average per-port share of the aggregate
    /// backlog.
    pub fn packet_estimate(&self, coflow: &Coflow) -> Time {
        let Some(backlog) = self.packet_backlog else {
            let congestion =
                Dur::from_ps(self.packet_outstanding.as_ps() / self.packet.ports() as u64);
            return self.now + packet_lower_bound(coflow, self.packet) + congestion;
        };
        let ports = self.packet.ports();
        let mut tx = vec![Dur::ZERO; ports];
        let mut rx = vec![Dur::ZERO; ports];
        for f in coflow.flows() {
            let p = self.packet.processing_time(f.bytes);
            tx[f.src] += p;
            rx[f.dst] += p;
        }
        let bottleneck = (0..ports)
            .map(|p| {
                let own = tx[p].max(rx[p]);
                if own == Dur::ZERO {
                    Dur::ZERO
                } else {
                    backlog.get(p).copied().unwrap_or(Dur::ZERO) + own
                }
            })
            .max()
            .unwrap_or(Dur::ZERO);
        self.now + bottleneck
    }
}

/// One routing decision plus how much work it took to reach it.
#[derive(Clone, Debug)]
pub struct SplitDecision {
    /// The per-flow byte carve.
    pub split: DemandSplit,
    /// Candidate splits the policy evaluated (≥ 1).
    pub evals: u64,
    /// Circuit plans the policy ran against the live PRT to reach the
    /// decision (≤ `evals`; zero for policies that never plan).
    pub plans: u64,
}

/// A pluggable demand-routing policy for hybrid fabrics: consulted once
/// per Coflow at admission time, like [`CoreAssign`](crate::CoreAssign)
/// — so load-aware policies see the live fabric state.
pub trait SplitPolicy {
    /// The policy's name, for reports and metric labels.
    fn name(&self) -> &'static str;

    /// Route one arriving Coflow across the two fabrics.
    fn split(&mut self, coflow: &Coflow, ctx: &SplitContext<'_>) -> SplitDecision;
}

// ---------------------------------------------------------------------
// NonSplitting
// ---------------------------------------------------------------------

/// Whole-Coflow routing: a Coflow rides exactly one fabric. Small
/// Coflows (total bytes under the threshold) go to the packet network
/// — but only while its backlog-aware finish estimate actually beats
/// the circuits' `δ`-plus-bottleneck estimate, so a congested (or
/// near-zero-bandwidth) packet network degenerates this policy to pure
/// Sunflow.
#[derive(Clone, Copy, Debug)]
pub struct NonSplitting {
    /// Coflows with fewer total bytes than this are packet candidates.
    pub threshold: u64,
}

impl NonSplitting {
    /// A whole-Coflow policy with the given smallness threshold.
    pub fn new(threshold: u64) -> NonSplitting {
        NonSplitting { threshold }
    }
}

impl SplitPolicy for NonSplitting {
    fn name(&self) -> &'static str {
        "non-splitting"
    }

    fn split(&mut self, coflow: &Coflow, ctx: &SplitContext<'_>) -> SplitDecision {
        let small = coflow.total_bytes() < self.threshold;
        let split = if small && ctx.packet_estimate(coflow) <= ctx.circuit_estimate(coflow) {
            DemandSplit::all_packet(coflow)
        } else {
            DemandSplit::all_circuit(coflow)
        };
        SplitDecision {
            split,
            evals: 1,
            plans: 0,
        }
    }
}

// ---------------------------------------------------------------------
// ThresholdSplit
// ---------------------------------------------------------------------

/// The classic per-flow hybrid split: flows strictly smaller than
/// `threshold` bytes ride the packet network, everything else the
/// circuits. With `threshold = 0` everything rides the circuits.
#[derive(Clone, Copy, Debug)]
pub struct ThresholdSplit {
    /// Flows strictly below this many bytes go to the packet network.
    pub threshold: u64,
}

impl ThresholdSplit {
    /// A split at `threshold` bytes.
    pub fn new(threshold: u64) -> ThresholdSplit {
        ThresholdSplit { threshold }
    }
}

impl SplitPolicy for ThresholdSplit {
    fn name(&self) -> &'static str {
        "threshold"
    }

    fn split(&mut self, coflow: &Coflow, _ctx: &SplitContext<'_>) -> SplitDecision {
        SplitDecision {
            split: DemandSplit::by_flow_threshold(coflow, self.threshold),
            evals: 1,
            plans: 0,
        }
    }
}

// ---------------------------------------------------------------------
// SolverSplit
// ---------------------------------------------------------------------

/// Per-Coflow byte optimization: find the packet fraction minimizing
/// `max(circuit finish, packet finish)` by bisection.
///
/// Moving bytes to the packet fabric can only shrink the circuit-side
/// finish and grow the packet-side one, so the max of the two is
/// V-shaped in the fraction and its minimum sits where the curves
/// cross. The solver evaluates both pure endpoints, then bisects on
/// the sign of `circuit − packet` down to a `1/resolution` byte
/// granularity — `2 + log2(resolution)` evaluations per Coflow, fine
/// enough to find the balance point even when the fabrics' rates differ
/// by an order of magnitude (at 10% packet bandwidth the useful carves
/// cluster below `f ≈ 1/11`, invisible to any coarse uniform ladder).
///
/// The circuit estimate is a *probe* of the live PRT, and an evaluation
/// plans it only when two cheap bounds cannot decide the bisection step
/// (see `bounded_probe`); the packet estimate is
/// the slim fabric's per-port backlog plus the carve's own processing
/// time (see [`SplitContext::packet_estimate`]).
pub struct SolverSplit {
    /// Byte-fraction denominator of the bisection (candidates are
    /// `num/resolution`); the search costs `2 + ⌈log2(resolution)⌉`
    /// estimate evaluations per Coflow.
    pub resolution: u64,
    scratch: ScheduleScratch,
    /// The probes' recycled view storage.
    view: DeltaStorage,
}

/// The best candidate so far: its finish, its packet numerator, its
/// carve.
type Best = Option<(Time, u64, DemandSplit)>;

impl SolverSplit {
    /// A solver policy bisecting packet fractions at `1/resolution`
    /// byte granularity.
    pub fn new(resolution: u64) -> SolverSplit {
        assert!(resolution >= 2, "need at least fractions 0, 1/2 and 1");
        SolverSplit {
            resolution,
            scratch: ScheduleScratch::default(),
            view: DeltaStorage::default(),
        }
    }

    /// Evaluate the carve `num/resolution`: fold its finish into `best`
    /// and return the `(circuit, packet)` finishes the bisection
    /// branches on. Ties prefer the smaller packet fraction — circuits
    /// are the scheduled fabric, packets the escape hatch.
    fn candidate(
        &mut self,
        coflow: &Coflow,
        num: u64,
        ctx: &SplitContext<'_>,
        best: &mut Best,
        plans: &mut u64,
    ) -> (Time, Time) {
        let split = DemandSplit::by_packet_fraction(coflow, num, self.resolution);
        let parts = split.carve(coflow);
        let packet = match &parts.packet {
            Some((part, _)) => Self::packet_finish(part, ctx),
            None => ctx.now,
        };
        let improves = |finish: Time| {
            best.as_ref()
                .is_none_or(|(b, bn, _)| finish < *b || (finish == *b && num < *bn))
        };
        let circuit = match &parts.circuit {
            Some((part, _)) => self.bounded_probe(part, ctx, packet, &improves, plans),
            None => ctx.now,
        };
        let finish = circuit.max(packet);
        if improves(finish) {
            *best = Some((finish, num, split));
        }
        (circuit, packet)
    }

    /// The packet side's finish for `part`.
    ///
    /// The packet fabric is fair-shared, not FIFO: a carve's bytes do
    /// not drain *behind* the backlog, they share rate with it, so
    /// concurrent carves all finish near the full-drain time — later
    /// than `queue + own`. And the estimate cannot see future arrivals
    /// at all. Inflate the packet side by 5/4 so only carves with real
    /// margin leave the circuits.
    fn packet_finish(part: &Coflow, ctx: &SplitContext<'_>) -> Time {
        let est = ctx.packet_estimate(part).since(ctx.now);
        ctx.now + Dur::from_ps((est.as_ps() / 4).saturating_mul(5))
    }

    /// Probe the finish time the circuit side can achieve for `part`
    /// given every reservation already in `prt` — or a stand-in that
    /// steers the bisection step exactly as the probe would.
    ///
    /// The probe is the smaller of two estimates:
    ///
    /// * **Plan-around**: `part`'s demands are planned against the live
    ///   PRT through a [`DeltaView`] and the plan is discarded —
    ///   Algorithm 1 runs for real, around every existing reservation.
    ///   Exact if nothing replans, but *pessimistic* under priority
    ///   scheduling: a congested PRT pushes the plan to the tail even
    ///   when the real stepper would reorder in `part`'s favor at the
    ///   next replan.
    /// * **Preemption-aware queue** (`hi`): only reservations owned by
    ///   Coflows that would outrank `part` (shorter remaining
    ///   bottleneck — the shortest-first key, recovered from each
    ///   Coflow's own reserved time) count as queueing; `part` then
    ///   pays `δ` plus that higher-priority load plus its own
    ///   bottleneck time.
    ///
    /// Without the second estimate the solver death-spirals under load:
    /// plan-around reports near-makespan finishes for *every* arrival,
    /// so everything flees to the slim packet fabric and drowns it.
    ///
    /// The plan is the expensive half, and it runs only when neither
    /// bound on the probe decides the step against `packet`:
    ///
    /// * the probe is at most `hi`, so `hi ≤ packet` fixes the step's
    ///   finish at `packet` and its branch at "circuits not slower";
    ///   `hi` stands in;
    /// * the probe is at least `lo = now + δ + T_pL(part)` — every plan
    ///   serves its bottleneck port's bytes in disjoint reservations,
    ///   each opening with a `δ`, from `now` on (quantization and guard
    ///   windows only lengthen it; `hi` contains the same bottleneck
    ///   sum) — so `lo > packet` fixes the branch at "circuits slower"
    ///   and the finish at the probe, which cannot displace the best
    ///   candidate when `lo` cannot (`improves(lo)` false); `lo`
    ///   stands in.
    ///
    /// Every branch and every `best` update therefore matches the
    /// always-plan probe's, with no assumption that the circuit finish
    /// is monotone in the fraction. `plans` counts the plans run.
    fn bounded_probe(
        &mut self,
        part: &Coflow,
        ctx: &SplitContext<'_>,
        packet: Time,
        improves: &dyn Fn(Time) -> bool,
        plans: &mut u64,
    ) -> Time {
        let lo = ctx.circuit_estimate(part);
        let Some(prt) = ctx.prt else {
            return lo;
        };
        let hi = Self::preemptive_estimate(part, prt, ctx);
        if hi <= packet {
            return hi;
        }
        if lo > packet && !improves(lo) {
            return lo;
        }
        *plans += 1;
        self.probe_plan(part, ctx, prt).min(hi)
    }

    /// The plan-around half of [`bounded_probe`](Self::bounded_probe).
    fn probe_plan(&mut self, part: &Coflow, ctx: &SplitContext<'_>, prt: &Prt) -> Time {
        let demands: Vec<Demand> = part
            .flows()
            .iter()
            .enumerate()
            .map(|(i, f)| Demand {
                flow_idx: i,
                src: f.src,
                dst: f.dst,
                remaining: ctx.circuit.processing_time(f.bytes),
            })
            .collect();
        let mut view = DeltaView::new(prt, ctx.now, std::mem::take(&mut self.view));
        view.seal();
        let (resvs, _) = schedule_demands_on(
            &mut view,
            part.id(),
            &demands,
            ctx.now,
            ctx.circuit.delta(),
            ctx.config,
            &mut self.scratch,
        );
        self.view = view.finish().into_storage();
        resvs.iter().map(|r| r.end).max().unwrap_or(ctx.now)
    }

    /// The preemption-aware half of [`bounded_probe`](Self::bounded_probe):
    /// `δ` plus, on `part`'s bottleneck port, the remaining reserved time
    /// of Coflows that outrank it plus `part`'s own processing time.
    ///
    /// A live Coflow's shortest-first key is recovered from the PRT
    /// itself — its remaining bottleneck-port reserved time *is* its
    /// remaining `T_pL` — so the estimate needs no channel to the
    /// circuit stepper's internal queue. Ties count as outranking
    /// (earlier arrivals win them).
    fn preemptive_estimate(part: &Coflow, prt: &Prt, ctx: &SplitContext<'_>) -> Time {
        let now = ctx.now;
        let ports = ctx.circuit.ports();
        let own_key = packet_lower_bound(part, ctx.circuit);
        let mut own_tx = vec![Dur::ZERO; ports];
        let mut own_rx = vec![Dur::ZERO; ports];
        for f in part.flows() {
            let p = ctx.circuit.processing_time(f.bytes);
            own_tx[f.src] += p;
            own_rx[f.dst] += p;
        }
        // The live queue probe sees every admitted Coflow's remaining
        // demand; the PRT fallback below only the planned head.
        if let Some(queue) = ctx.circuit_queue {
            let hp = queue(own_key);
            let bottleneck = (0..ports)
                .map(|p| {
                    let own = own_tx[p].max(own_rx[p]);
                    if own == Dur::ZERO {
                        Dur::ZERO
                    } else {
                        own + hp.get(p).copied().unwrap_or(Dur::ZERO)
                    }
                })
                .max()
                .unwrap_or(Dur::ZERO);
            return now + ctx.circuit.delta() + bottleneck;
        }
        let live: Vec<_> = prt.iter_reservations().filter(|r| r.end > now).collect();
        // Remaining reserved time per (coflow, port); the per-Coflow max
        // over ports is that Coflow's remaining bottleneck key.
        let mut per: std::collections::HashMap<(u64, usize), Dur> =
            std::collections::HashMap::new();
        for r in &live {
            let d = r.end.since(r.start.max(now));
            *per.entry((r.flow.coflow, r.src)).or_insert(Dur::ZERO) += d;
            *per.entry((r.flow.coflow, ports + r.dst))
                .or_insert(Dur::ZERO) += d;
        }
        let mut key: std::collections::HashMap<u64, Dur> = std::collections::HashMap::new();
        for (&(c, _), &d) in &per {
            let e = key.entry(c).or_insert(Dur::ZERO);
            *e = (*e).max(d);
        }
        let mut tx = vec![Dur::ZERO; ports];
        let mut rx = vec![Dur::ZERO; ports];
        for r in &live {
            if key.get(&r.flow.coflow).copied().unwrap_or(Dur::ZERO) <= own_key {
                let d = r.end.since(r.start.max(now));
                tx[r.src] += d;
                rx[r.dst] += d;
            }
        }
        let bottleneck = (0..ports)
            .map(|p| {
                let own = own_tx[p].max(own_rx[p]);
                if own == Dur::ZERO {
                    Dur::ZERO
                } else {
                    own + tx[p].max(rx[p])
                }
            })
            .max()
            .unwrap_or(Dur::ZERO);
        now + ctx.circuit.delta() + bottleneck
    }
}

impl SplitPolicy for SolverSplit {
    fn name(&self) -> &'static str {
        "solver"
    }

    fn split(&mut self, coflow: &Coflow, ctx: &SplitContext<'_>) -> SplitDecision {
        let den = self.resolution;
        let (mut evals, mut plans) = (0u64, 0u64);
        let mut best: Best = None;
        self.candidate(coflow, 0, ctx, &mut best, &mut plans);
        self.candidate(coflow, den, ctx, &mut best, &mut plans);
        evals += 2;
        // Bisect on the sign of circuit − packet: the circuit finish is
        // non-increasing and the packet finish non-decreasing in the
        // fraction, so their max bottoms out where they cross.
        let (mut lo, mut hi) = (0u64, den);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            let (circuit, packet) = self.candidate(coflow, mid, ctx, &mut best, &mut plans);
            evals += 1;
            if circuit > packet {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        SplitDecision {
            split: best.expect("at least one candidate").2,
            evals,
            plans,
        }
    }
}

// ---------------------------------------------------------------------
// SplitKind
// ---------------------------------------------------------------------

/// A `hybrid:<split>` selector that no [`SplitKind`] answers to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownSplitError {
    /// The rejected selector.
    pub input: String,
}

impl std::fmt::Display for UnknownSplitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown split policy '{}' (expected one of: non-splitting, threshold, solver)",
            self.input
        )
    }
}

impl std::error::Error for UnknownSplitError {}

/// Every selectable [`SplitPolicy`], by name — the `<split>` parameter
/// of the daemon's `--backend hybrid:<split>[:<frac>]` selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitKind {
    /// [`NonSplitting`] — whole-Coflow, threshold- and load-aware.
    NonSplitting,
    /// [`ThresholdSplit`] — small flows → packets (the classic hybrid).
    Threshold,
    /// [`SolverSplit`] — per-Coflow byte split minimizing the max of
    /// the two fabrics' estimated finish times.
    Solver,
}

impl SplitKind {
    /// Every split policy, in display order.
    pub const ALL: [SplitKind; 3] = [
        SplitKind::NonSplitting,
        SplitKind::Threshold,
        SplitKind::Solver,
    ];

    /// The policy's canonical selector name.
    pub fn name(&self) -> &'static str {
        match self {
            SplitKind::NonSplitting => "non-splitting",
            SplitKind::Threshold => "threshold",
            SplitKind::Solver => "solver",
        }
    }

    /// Construct the policy. `threshold` feeds the smallness cutoffs of
    /// [`NonSplitting`] and [`ThresholdSplit`]; the solver ignores it.
    pub fn build(&self, threshold: u64) -> Box<dyn SplitPolicy + Send> {
        match self {
            SplitKind::NonSplitting => Box::new(NonSplitting::new(threshold)),
            SplitKind::Threshold => Box::new(ThresholdSplit::new(threshold)),
            SplitKind::Solver => Box::new(SolverSplit::new(1024)),
        }
    }
}

impl std::str::FromStr for SplitKind {
    type Err = UnknownSplitError;

    fn from_str(s: &str) -> Result<SplitKind, UnknownSplitError> {
        match s.to_ascii_lowercase().as_str() {
            "non-splitting" | "nonsplitting" | "whole" => Ok(SplitKind::NonSplitting),
            "threshold" => Ok(SplitKind::Threshold),
            "solver" => Ok(SplitKind::Solver),
            _ => Err(UnknownSplitError {
                input: s.to_string(),
            }),
        }
    }
}

impl std::fmt::Display for SplitKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prt::ResvKind;
    use crate::starvation::{GuardConfig, StarvationGuard};
    use ocs_model::{Bandwidth, FlowRef};
    use proptest::prelude::*;

    fn fabrics() -> (Fabric, Fabric) {
        let circuit = Fabric::new(4, Bandwidth::GBPS, Dur::from_millis(10));
        let packet = Fabric::new(4, Bandwidth::from_bps(100_000_000), Dur::ZERO);
        (circuit, packet)
    }

    fn ctx<'a>(circuit: &'a Fabric, packet: &'a Fabric, prt: Option<&'a Prt>) -> SplitContext<'a> {
        SplitContext {
            now: Time::ZERO,
            circuit,
            packet,
            prt,
            packet_outstanding: Dur::ZERO,
            packet_backlog: None,
            circuit_queue: None,
            config: SunflowConfig::default(),
        }
    }

    fn mb(m: u64) -> u64 {
        m * (1 << 20)
    }

    #[test]
    fn non_splitting_routes_whole_coflows_by_estimates() {
        let (circuit, packet) = fabrics();
        let ctx = ctx(&circuit, &packet, None);
        let mut policy = NonSplitting::new(mb(2));
        // 1 MB: circuit δ (10 ms) + ~8.4 ms beats packet ~84 ms →
        // circuits even though it is "small".
        let small = Coflow::builder(0).flow(0, 1, mb(1)).build();
        assert!(policy.split(&small, &ctx).split.is_pure_circuit());
        // Same Coflow on a slow switch (δ = 1 s): packets win.
        let slow = Fabric::new(4, Bandwidth::GBPS, Dur::from_secs_f64(1.0));
        let slow_ctx = super::SplitContext {
            circuit: &slow,
            ..ctx
        };
        assert!(policy.split(&small, &slow_ctx).split.is_pure_packet());
        // Big Coflows never leave the circuits, whatever the estimates.
        let big = Coflow::builder(1).flow(0, 1, mb(50)).build();
        assert!(policy.split(&big, &slow_ctx).split.is_pure_circuit());
    }

    #[test]
    fn threshold_split_ports_the_classic_hybrid() {
        let (circuit, packet) = fabrics();
        let ctx = ctx(&circuit, &packet, None);
        let mut policy = ThresholdSplit::new(mb(2));
        let mixed = Coflow::builder(0)
            .flow(0, 0, mb(1))
            .flow(1, 1, mb(50))
            .build();
        let d = policy.split(&mixed, &ctx);
        assert_eq!(d.split.packet_subflows(), 1);
        assert_eq!(d.split.circuit_subflows(), 1);
        assert_eq!(d.split.bytes_to_packet(), mb(1));
        assert_eq!(SplitPolicy::name(&policy), "threshold");
    }

    #[test]
    fn solver_offloads_when_the_prt_is_congested() {
        let (circuit, packet) = fabrics();
        let mut solver = SolverSplit::new(4);
        // Idle PRT: the probe sees a free fabric; δ + 8 ms beats 84 ms
        // on packets, so everything stays on circuits.
        let small = Coflow::builder(0).flow(0, 1, mb(1)).build();
        let idle = Prt::new(4);
        let d = solver.split(&small, &ctx(&circuit, &packet, Some(&idle)));
        assert!(d.split.is_pure_circuit(), "{:?}", d.split);
        assert_eq!(d.evals, 4);
        // A 10 s blocker on ports (0, 1) owned by one long Coflow: the
        // small Coflow outranks it under shortest-first (the stepper
        // would reorder at the next replan), so it *stays* on circuits —
        // the preemption-aware estimate sees through the occupancy.
        let mut blocked = Prt::new(4);
        blocked.reserve(
            0,
            1,
            Time::ZERO,
            Time::from_secs_f64(10.0),
            crate::prt::ResvKind::Flow(ocs_model::FlowRef {
                coflow: 99,
                flow_idx: 0,
            }),
        );
        let d = solver.split(&small, &ctx(&circuit, &packet, Some(&blocked)));
        assert!(d.split.is_pure_circuit(), "{:?}", d.split);
        // 20 s of back-to-back occupancy owned by a hundred *short*
        // Coflows (200 ms remaining each — every one outranks a 100 MB
        // candidate): any circuit bytes wait behind all of them plus δ,
        // and the ~8.4 s packet-side finish wins outright.
        let mut congested = Prt::new(4);
        for i in 0..100u64 {
            let start = Time::from_secs_f64(i as f64 * 0.2);
            congested.reserve(
                0,
                1,
                start,
                start + Dur::from_millis(200),
                crate::prt::ResvKind::Flow(ocs_model::FlowRef {
                    coflow: 100 + i,
                    flow_idx: 0,
                }),
            );
        }
        let big = Coflow::builder(1).flow(0, 1, mb(100)).build();
        let d = solver.split(&big, &ctx(&circuit, &packet, Some(&congested)));
        assert!(d.split.is_pure_packet(), "{:?}", d.split);
    }

    /// The always-plan reference the bounded probe must reproduce: the
    /// same bisection with every candidate's circuit side planned.
    /// Checks on the way that every plan ends no earlier than `lo` and
    /// every probe lies in `[lo, hi]` — the two facts the skip rule
    /// rests on. Returns the chosen carve and the evaluations.
    fn exhaustive(
        solver: &mut SolverSplit,
        coflow: &Coflow,
        ctx: &SplitContext<'_>,
    ) -> (DemandSplit, u64) {
        let den = solver.resolution;
        let mut best: Best = None;
        let candidate = |solver: &mut SolverSplit, num: u64, best: &mut Best| {
            let split = DemandSplit::by_packet_fraction(coflow, num, den);
            let parts = split.carve(coflow);
            let circuit = match (&parts.circuit, ctx.prt) {
                (None, _) => ctx.now,
                (Some((part, _)), None) => ctx.circuit_estimate(part),
                (Some((part, _)), Some(prt)) => {
                    let planned = solver.probe_plan(part, ctx, prt);
                    let lo = ctx.circuit_estimate(part);
                    let hi = SolverSplit::preemptive_estimate(part, prt, ctx);
                    assert!(lo <= planned, "plan {planned} ends before lo {lo}");
                    assert!(lo <= hi, "hi {hi} below lo {lo}");
                    planned.min(hi)
                }
            };
            let packet = match &parts.packet {
                Some((part, _)) => SolverSplit::packet_finish(part, ctx),
                None => ctx.now,
            };
            let finish = circuit.max(packet);
            if best
                .as_ref()
                .is_none_or(|(b, bn, _)| finish < *b || (finish == *b && num < *bn))
            {
                *best = Some((finish, num, split));
            }
            (circuit, packet)
        };
        candidate(solver, 0, &mut best);
        candidate(solver, den, &mut best);
        let mut evals = 2;
        let (mut lo, mut hi) = (0u64, den);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            let (circuit, packet) = candidate(solver, mid, &mut best);
            evals += 1;
            if circuit > packet {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (best.expect("at least one candidate").2, evals)
    }

    const PORTS: usize = 6;

    /// `Some` draw of `s` three times in four, else `None`.
    fn maybe<S: Strategy>(s: S) -> impl Strategy<Value = Option<S::Value>> {
        (0u8..4, s).prop_map(|(k, v)| (k > 0).then_some(v))
    }

    /// A table of `PORTS` ports, guarded or not, holding reservations of
    /// random owners: each `(src, dst, gap, len, owner)` lands `gap` after
    /// both its ports free up (and outside every guard window).
    fn arb_prt() -> impl Strategy<Value = Prt> {
        let resv = (0..PORTS, 0..PORTS, 0u64..40, 1u64..120, 0u64..12);
        (
            maybe((100u64..400, 12u64..40)),
            proptest::collection::vec(resv, 0..40),
        )
            .prop_map(|(guard, resvs)| {
                let guard = guard.map(|(t, tau)| {
                    let cfg = GuardConfig::new(Dur::from_millis(t), Dur::from_millis(tau));
                    StarvationGuard::new(PORTS, cfg)
                });
                let mut prt = Prt::with_guard(PORTS, guard);
                let (mut busy_in, mut busy_out) = ([Time::ZERO; PORTS], [Time::ZERO; PORTS]);
                for (i, (src, dst, gap, len, owner)) in resvs.into_iter().enumerate() {
                    let mut start = busy_in[src].max(busy_out[dst]) + Dur::from_millis(gap);
                    let mut end = start + Dur::from_millis(len);
                    if let Some(g) = &guard {
                        let window = g.probe(start);
                        if !window.free {
                            start = window.next_release.expect("a window ends");
                        }
                        end = (start + Dur::from_millis(len)).min(g.probe(start).next_start);
                    }
                    if end <= start {
                        continue;
                    }
                    let flow = FlowRef {
                        coflow: 100 + owner,
                        flow_idx: i,
                    };
                    prt.reserve(src, dst, start, end, ResvKind::Flow(flow));
                    busy_in[src] = end;
                    busy_out[dst] = end;
                }
                prt
            })
    }

    /// A Coflow of up to eight flows on `PORTS` ports, 100 B to 400 MB
    /// each, log-uniform (from far under `δ` to hundreds of them).
    fn arb_coflow() -> impl Strategy<Value = Coflow> {
        let flow = (0..PORTS, 0..PORTS, 1u64..40, 2u32..8);
        proptest::collection::vec(flow, 1..8).prop_map(|flows| {
            flows
                .into_iter()
                .fold(Coflow::builder(7), |b, (s, d, m, e)| {
                    b.flow(s, d, m * 10u64.pow(e))
                })
                .build()
        })
    }

    /// A backlog of 0 µs to 20 s, log-uniform: idle, light and drowned
    /// packet fabrics alike.
    fn arb_micros() -> impl Strategy<Value = u64> {
        (0u64..20, 0u32..7).prop_map(|(m, e)| m * 10u64.pow(e))
    }

    /// Queued circuit-side Coflows as `(key, port, load)` in ms: those
    /// keyed at or below an arrival's own key outrank it.
    type Queue = Vec<(u64, usize, u64)>;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// The bounded probe is invisible: on random tables (guarded or
        /// not, or none), priority queues, packet backlogs and Coflows it
        /// picks the exhaustive reference's carve after as many
        /// evaluations, and plans at most once per evaluation.
        #[test]
        fn bounded_probe_matches_the_exhaustive_reference(
            coflow in arb_coflow(),
            prt in maybe(arb_prt()),
            (resolution, now_ms, delta_ms, quantum) in (
                (0usize..3).prop_map(|i| [4u64, 64, 1024][i]),
                0u64..300,
                (0usize..2).prop_map(|i| [1u64, 10][i]),
                maybe(1u64..5),
            ),
            queue in maybe(proptest::collection::vec((0u64..400, 0..PORTS, 0u64..300), 0..12)),
            (backlog, outstanding) in (
                maybe(proptest::collection::vec(arb_micros(), PORTS)),
                arb_micros(),
            ),
        ) {
            let circuit = Fabric::new(PORTS, Bandwidth::GBPS, Dur::from_millis(delta_ms));
            let packet = Fabric::new(PORTS, Bandwidth::from_bps(100_000_000), Dur::ZERO);
            let queue_probe = queue.map(|q: Queue| {
                move |key: Dur| {
                    let mut hp = vec![Dur::ZERO; PORTS];
                    for &(k, port, load) in &q {
                        if Dur::from_millis(k) <= key {
                            hp[port] += Dur::from_millis(load);
                        }
                    }
                    hp
                }
            });
            let backlog: Option<Vec<Dur>> =
                backlog.map(|b| b.into_iter().map(Dur::from_micros).collect());
            let ctx = SplitContext {
                now: Time::from_millis(now_ms),
                circuit: &circuit,
                packet: &packet,
                prt: prt.as_ref(),
                packet_outstanding: Dur::from_micros(outstanding),
                packet_backlog: backlog.as_deref(),
                circuit_queue: queue_probe.as_ref().map(|q| q as &dyn Fn(Dur) -> Vec<Dur>),
                config: SunflowConfig::default().quantum(quantum.map(Dur::from_millis)),
            };
            let bounded = SolverSplit::new(resolution).split(&coflow, &ctx);
            let (split, evals) = exhaustive(&mut SolverSplit::new(resolution), &coflow, &ctx);
            prop_assert_eq!(&bounded.split, &split);
            prop_assert_eq!(bounded.evals, evals);
            prop_assert!(bounded.plans <= bounded.evals);
            if prt.is_none() {
                prop_assert_eq!(bounded.plans, 0);
            }
        }
    }

    #[test]
    fn split_kind_parses_and_builds() {
        for kind in SplitKind::ALL {
            let parsed: SplitKind = kind.name().parse().expect("canonical name parses");
            assert_eq!(parsed, kind);
            let policy = kind.build(mb(2));
            assert_eq!(policy.name(), kind.name());
        }
        assert_eq!("whole".parse::<SplitKind>(), Ok(SplitKind::NonSplitting));
        let err = "bogus".parse::<SplitKind>().unwrap_err();
        assert!(err.to_string().contains("bogus"));
    }
}
