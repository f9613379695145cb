//! Inter-Coflow scheduling (§4.2): a framework for flexible preemption
//! policies across competing Coflows.
//!
//! Sunflow asks the operator for one thing only: a **priority ordering**
//! of Coflows. It then applies [`IntraCoflow`](crate::intra) to each
//! Coflow in that order against the shared PRT, so a more prioritized
//! Coflow is never blocked by a less prioritized one — lower-priority
//! reservations are truncated around higher-priority ones (Figure 2).
//!
//! The ordering is pluggable via [`PriorityPolicy`]; the paper's
//! evaluation uses [`ShortestFirst`] (order by `T_pL`), the policy that
//! makes Sunflow comparable to Varys and Aalo.

use crate::intra::{CoflowSchedule, IntraScheduler, SunflowConfig};
use crate::prt::Prt;
use ocs_model::{packet_lower_bound, Coflow, Fabric};
use std::cmp::Ordering;
use std::collections::HashMap;

/// A total priority order over Coflows. `compare` returning `Less` means
/// `a` is served *before* (with higher priority than) `b`.
pub trait PriorityPolicy {
    /// Compare two Coflows under this policy.
    fn compare(&self, a: &Coflow, b: &Coflow, fabric: &Fabric) -> Ordering;

    /// Sort Coflow references into service order. Ties are broken by
    /// arrival time and then id so every policy yields a deterministic
    /// total order.
    fn sort(&self, coflows: &mut Vec<&Coflow>, fabric: &Fabric) {
        coflows.sort_by(|a, b| {
            self.compare(a, b, fabric)
                .then_with(|| a.arrival().cmp(&b.arrival()))
                .then_with(|| a.id().cmp(&b.id()))
        });
    }

    /// Read by nothing: every replay advances on the calling thread
    /// under the one policy it was given. Kept only because the
    /// `benchmark/` crate implements it.
    fn clone_box(&self) -> Option<Box<dyn PriorityPolicy + Send + Sync>> {
        None
    }
}

/// Policies are stateless comparators, so a shared reference is itself a
/// policy. This lets callers holding a `&dyn PriorityPolicy` hand it to
/// APIs that want an owned `Box<dyn PriorityPolicy + '_>` (the
/// `SchedulingBackend` constructors in `ocs-sim`) without cloning.
impl<P: PriorityPolicy + ?Sized> PriorityPolicy for &P {
    fn compare(&self, a: &Coflow, b: &Coflow, fabric: &Fabric) -> Ordering {
        (**self).compare(a, b, fabric)
    }

    fn sort(&self, coflows: &mut Vec<&Coflow>, fabric: &Fabric) {
        (**self).sort(coflows, fabric)
    }
}

/// Shortest-Coflow-first: order by the packet-switched lower bound
/// `T_pL` (§4.2 — "the Coflows may be ordered by their T_pL"). This is
/// the policy used in the paper's comparison against Varys and Aalo.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShortestFirst;

impl PriorityPolicy for ShortestFirst {
    fn compare(&self, a: &Coflow, b: &Coflow, fabric: &Fabric) -> Ordering {
        packet_lower_bound(a, fabric).cmp(&packet_lower_bound(b, fabric))
    }
}

/// Longest-Coflow-first: the reverse of [`ShortestFirst`] over `T_pL`.
/// Not a policy the paper advocates — it exists as the adversarial end of
/// the policy spectrum for sensitivity studies (how much does Sunflow's
/// non-preemptive core lose under the *worst* reasonable ordering?) and
/// to exercise the pluggable-policy plumbing end to end.
#[derive(Clone, Copy, Debug, Default)]
pub struct LongestFirst;

impl PriorityPolicy for LongestFirst {
    fn compare(&self, a: &Coflow, b: &Coflow, fabric: &Fabric) -> Ordering {
        packet_lower_bound(b, fabric).cmp(&packet_lower_bound(a, fabric))
    }
}

/// First-come-first-served: order by arrival time.
#[derive(Clone, Copy, Debug, Default)]
pub struct FirstComeFirstServed;

impl PriorityPolicy for FirstComeFirstServed {
    fn compare(&self, a: &Coflow, b: &Coflow, _fabric: &Fabric) -> Ordering {
        a.arrival().cmp(&b.arrival())
    }
}

/// Class-based priorities (e.g. privileged vs. regular users, or
/// earlier-staged vs. later-staged job Coflows — the usage scenarios of
/// §4.2). A lower class number is served first; within a class, shortest
/// Coflow first. Coflows missing from the map fall into `default_class`.
#[derive(Clone, Debug)]
pub struct ClassThenShortest {
    classes: HashMap<u64, u32>,
    default_class: u32,
}

impl ClassThenShortest {
    /// Build from explicit per-Coflow classes; unlisted Coflows get
    /// `default_class`.
    pub fn new(classes: HashMap<u64, u32>, default_class: u32) -> ClassThenShortest {
        ClassThenShortest {
            classes,
            default_class,
        }
    }

    /// The class a Coflow belongs to.
    pub fn class_of(&self, coflow: &Coflow) -> u32 {
        *self
            .classes
            .get(&coflow.id())
            .unwrap_or(&self.default_class)
    }
}

impl PriorityPolicy for ClassThenShortest {
    fn compare(&self, a: &Coflow, b: &Coflow, fabric: &Fabric) -> Ordering {
        self.class_of(a)
            .cmp(&self.class_of(b))
            .then_with(|| ShortestFirst.compare(a, b, fabric))
    }
}

/// An explicit operator-supplied order: Coflows appear in the order their
/// ids appear in the list; unlisted Coflows go last (by id).
#[derive(Clone, Debug)]
pub struct ExplicitOrder {
    rank: HashMap<u64, usize>,
}

impl ExplicitOrder {
    /// Build from a list of Coflow ids, highest priority first.
    pub fn new(ids: impl IntoIterator<Item = u64>) -> ExplicitOrder {
        ExplicitOrder {
            rank: ids.into_iter().enumerate().map(|(r, id)| (id, r)).collect(),
        }
    }
}

impl PriorityPolicy for ExplicitOrder {
    fn compare(&self, a: &Coflow, b: &Coflow, _fabric: &Fabric) -> Ordering {
        let ra = self.rank.get(&a.id()).copied().unwrap_or(usize::MAX);
        let rb = self.rank.get(&b.id()).copied().unwrap_or(usize::MAX);
        ra.cmp(&rb)
    }
}

/// Offline inter-Coflow scheduler: Algorithm 1's `InterCoflow` procedure.
///
/// Given a batch of Coflows, it empties the PRT and applies the
/// intra-Coflow routine to each Coflow in priority order. Each Coflow is
/// scheduled no earlier than its arrival time. For the online
/// (event-driven) variant that reschedules on arrivals and completions,
/// see the `ocs-sim` crate.
#[derive(Clone, Copy, Debug)]
pub struct InterScheduler<'f> {
    fabric: &'f Fabric,
    config: SunflowConfig,
}

impl<'f> InterScheduler<'f> {
    /// Create a scheduler for `fabric`.
    pub fn new(fabric: &'f Fabric, config: SunflowConfig) -> InterScheduler<'f> {
        InterScheduler { fabric, config }
    }

    /// Schedule the batch under `policy`. Returns one schedule per Coflow,
    /// in the order the Coflows were given.
    pub fn schedule_batch(
        &self,
        coflows: &[Coflow],
        policy: &dyn PriorityPolicy,
    ) -> Vec<CoflowSchedule> {
        let mut prt = Prt::new(self.fabric.ports());
        self.schedule_batch_on(&mut prt, coflows, policy)
    }

    /// Like [`InterScheduler::schedule_batch`] but against an existing
    /// PRT (which may hold guard windows or prior commitments).
    pub fn schedule_batch_on(
        &self,
        prt: &mut Prt,
        coflows: &[Coflow],
        policy: &dyn PriorityPolicy,
    ) -> Vec<CoflowSchedule> {
        let intra = IntraScheduler::new(self.fabric, self.config);
        let mut order: Vec<&Coflow> = coflows.iter().collect();
        policy.sort(&mut order, self.fabric);

        let mut by_id: HashMap<u64, CoflowSchedule> = HashMap::with_capacity(coflows.len());
        for c in order {
            let s = intra.schedule_on(prt, c, c.arrival());
            by_id.insert(c.id(), s);
        }
        coflows
            .iter()
            .map(|c| by_id.remove(&c.id()).expect("scheduled every coflow"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocs_model::{validate_port_constraints, Bandwidth, Dur, Time};

    fn fabric() -> Fabric {
        Fabric::new(4, Bandwidth::GBPS, Dur::from_millis(10))
    }

    fn mb(m: u64) -> u64 {
        m * 1_000_000
    }

    #[test]
    fn shortest_first_orders_by_packet_bound() {
        let f = fabric();
        let small = Coflow::builder(1).flow(0, 0, mb(1)).build();
        let big = Coflow::builder(0).flow(0, 0, mb(100)).build();
        let mut order: Vec<&Coflow> = vec![&big, &small];
        ShortestFirst.sort(&mut order, &f);
        assert_eq!(order[0].id(), 1);
    }

    /// The higher-priority Coflow must finish as if it were alone on the
    /// fabric; the lower-priority one works around it.
    #[test]
    fn priority_coflow_is_never_blocked() {
        let f = fabric();
        let hi = Coflow::builder(0).flow(0, 0, mb(1)).build(); // T_pL small
        let lo = Coflow::builder(1)
            .flow(0, 0, mb(100))
            .flow(0, 1, mb(100))
            .build();
        let inter = InterScheduler::new(&f, SunflowConfig::default());
        let schedules = inter.schedule_batch(&[hi.clone(), lo.clone()], &ShortestFirst);

        // hi alone would take delta + 8 ms = 18 ms.
        assert_eq!(schedules[0].cct(), Dur::from_millis(18));
        // Port constraints hold across BOTH coflows' reservations.
        let mut all = schedules[0].reservations().to_vec();
        all.extend_from_slice(schedules[1].reservations());
        validate_port_constraints(&all).unwrap();
    }

    /// Figure 2 shape: C2's reservation on a port needed later by C1 must
    /// be truncated, not block C1.
    #[test]
    fn figure2_truncation_behaviour() {
        let f = fabric();
        // C1: two flows from in.0; C2 shares out.1 via in.1.
        let c1 = Coflow::builder(0)
            .flow(0, 0, mb(1))
            .flow(0, 1, mb(1))
            .build();
        let c2 = Coflow::builder(1).flow(1, 1, mb(100)).build();
        let inter = InterScheduler::new(&f, SunflowConfig::default());
        let schedules = inter.schedule_batch(&[c1.clone(), c2.clone()], &ShortestFirst);
        // C1 (higher priority, smaller T_pL) is optimal: 2 x (10+8) ms.
        assert_eq!(schedules[0].cct(), Dur::from_millis(36));
        // C2 is split around C1's use of out.1.
        assert!(schedules[1].reservations().len() >= 2);
        let mut all = schedules[0].reservations().to_vec();
        all.extend_from_slice(schedules[1].reservations());
        validate_port_constraints(&all).unwrap();
    }

    #[test]
    fn arrival_times_are_respected() {
        let f = fabric();
        let late = Coflow::builder(0)
            .arrival(Time::from_millis(500))
            .flow(0, 0, mb(1))
            .build();
        let inter = InterScheduler::new(&f, SunflowConfig::default());
        let s = inter.schedule_batch(&[late], &ShortestFirst);
        assert_eq!(s[0].reservations()[0].start, Time::from_millis(500));
    }

    #[test]
    fn class_policy_overrides_size() {
        let f = fabric();
        let big_privileged = Coflow::builder(0).flow(0, 0, mb(100)).build();
        let small_regular = Coflow::builder(1).flow(0, 0, mb(1)).build();
        let policy =
            ClassThenShortest::new([(0u64, 0u32)].into_iter().collect(), /*default*/ 1);
        let mut order: Vec<&Coflow> = vec![&small_regular, &big_privileged];
        policy.sort(&mut order, &f);
        assert_eq!(order[0].id(), 0, "privileged coflow first despite size");
    }

    #[test]
    fn explicit_order_is_followed() {
        let f = fabric();
        let a = Coflow::builder(10).flow(0, 0, mb(1)).build();
        let b = Coflow::builder(20).flow(0, 0, mb(1)).build();
        let policy = ExplicitOrder::new([20, 10]);
        let mut order: Vec<&Coflow> = vec![&a, &b];
        policy.sort(&mut order, &f);
        assert_eq!(order[0].id(), 20);
    }

    #[test]
    fn longest_first_reverses_shortest_first() {
        let f = fabric();
        let small = Coflow::builder(1).flow(0, 0, mb(1)).build();
        let big = Coflow::builder(0).flow(0, 0, mb(100)).build();
        let mut order: Vec<&Coflow> = vec![&small, &big];
        LongestFirst.sort(&mut order, &f);
        assert_eq!(order[0].id(), 0, "bigger T_pL first");
        // Equal T_pL falls back to (arrival, id) just like every policy.
        let twin = Coflow::builder(2).flow(1, 1, mb(1)).build();
        let mut tie: Vec<&Coflow> = vec![&twin, &small];
        LongestFirst.sort(&mut tie, &f);
        assert_eq!(tie[0].id(), 1);
    }

    #[test]
    fn fcfs_orders_by_arrival() {
        let f = fabric();
        let first = Coflow::builder(5)
            .arrival(Time::from_millis(1))
            .flow(0, 0, mb(50))
            .build();
        let second = Coflow::builder(6)
            .arrival(Time::from_millis(2))
            .flow(0, 0, mb(1))
            .build();
        let mut order: Vec<&Coflow> = vec![&second, &first];
        FirstComeFirstServed.sort(&mut order, &f);
        assert_eq!(order[0].id(), 5);
    }

    /// Aggregate demand satisfaction across a batch: every flow of every
    /// coflow receives exactly its processing time.
    #[test]
    fn batch_satisfies_all_demand() {
        let f = fabric();
        let coflows = vec![
            Coflow::builder(0)
                .flow(0, 0, mb(3))
                .flow(1, 1, mb(2))
                .build(),
            Coflow::builder(1)
                .flow(0, 1, mb(5))
                .flow(1, 0, mb(7))
                .build(),
            Coflow::builder(2).flow(2, 2, mb(1)).build(),
        ];
        let inter = InterScheduler::new(&f, SunflowConfig::default());
        let schedules = inter.schedule_batch(&coflows, &ShortestFirst);
        for (c, s) in coflows.iter().zip(&schedules) {
            let served = ocs_model::served_per_flow(s.reservations(), f.delta());
            for (idx, fl) in c.flows().iter().enumerate() {
                let key = ocs_model::FlowRef {
                    coflow: c.id(),
                    flow_idx: idx,
                };
                assert_eq!(served[&key], f.processing_time(fl.bytes));
            }
        }
    }
}
