//! Inter-Coflow scheduling (§4.2): a framework for flexible preemption
//! policies across competing Coflows.
//!
//! Sunflow asks the operator for one thing only: a **priority ordering**
//! of Coflows. It then applies [`IntraCoflow`](crate::intra) to each
//! Coflow in that order against the shared PRT, so a more prioritized
//! Coflow is never blocked by a less prioritized one — lower-priority
//! reservations are truncated around higher-priority ones (Figure 2).
//! That walk runs at every Coflow arrival and completion in the online
//! replay of the `ocs-sim` crate; this module holds the orderings.
//!
//! The ordering is pluggable via [`PriorityPolicy`]; the paper's
//! evaluation uses [`ShortestFirst`] (order by `T_pL`), the policy that
//! makes Sunflow comparable to Varys and Aalo.

use ocs_model::{packet_lower_bound, Coflow, Fabric};
use std::cmp::Ordering;
use std::collections::HashMap;

/// A Coflow's place in a [`PriorityPolicy`]'s order as a value: lower
/// keys are served first, and two Coflows compare under the policy as
/// their keys do.
pub type PriorityKey = (u64, u64);

/// A total priority order over Coflows. `compare` returning `Less` means
/// `a` is served *before* (with higher priority than) `b`.
pub trait PriorityPolicy {
    /// Compare two Coflows under this policy.
    fn compare(&self, a: &Coflow, b: &Coflow, fabric: &Fabric) -> Ordering;

    /// The Coflow's key, if the policy's order is one of keys: then
    /// `compare(a, b)` must equal `key(a).cmp(&key(b))` for all `a`,
    /// `b`. A caller that ranks many Coflows computes each key once
    /// instead of calling `compare` per comparison. `None` (the default)
    /// leaves the caller on `compare`.
    fn key(&self, _coflow: &Coflow, _fabric: &Fabric) -> Option<PriorityKey> {
        None
    }

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

    fn key(&self, coflow: &Coflow, fabric: &Fabric) -> Option<PriorityKey> {
        (**self).key(coflow, fabric)
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

    fn key(&self, coflow: &Coflow, fabric: &Fabric) -> Option<PriorityKey> {
        Some((packet_lower_bound(coflow, fabric).as_ps(), 0))
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

    fn key(&self, coflow: &Coflow, fabric: &Fabric) -> Option<PriorityKey> {
        Some((u64::MAX - packet_lower_bound(coflow, fabric).as_ps(), 0))
    }
}

/// First-come-first-served: order by arrival time.
#[derive(Clone, Copy, Debug, Default)]
pub struct FirstComeFirstServed;

impl PriorityPolicy for FirstComeFirstServed {
    fn compare(&self, a: &Coflow, b: &Coflow, _fabric: &Fabric) -> Ordering {
        a.arrival().cmp(&b.arrival())
    }

    fn key(&self, coflow: &Coflow, _fabric: &Fabric) -> Option<PriorityKey> {
        Some((coflow.arrival().as_ps(), 0))
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

    fn key(&self, coflow: &Coflow, fabric: &Fabric) -> Option<PriorityKey> {
        let tpl = packet_lower_bound(coflow, fabric).as_ps();
        Some((u64::from(self.class_of(coflow)), tpl))
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

impl ExplicitOrder {
    /// A Coflow's position in the list; `usize::MAX` when unlisted.
    fn rank_of(&self, coflow: &Coflow) -> usize {
        self.rank.get(&coflow.id()).copied().unwrap_or(usize::MAX)
    }
}

impl PriorityPolicy for ExplicitOrder {
    fn compare(&self, a: &Coflow, b: &Coflow, _fabric: &Fabric) -> Ordering {
        self.rank_of(a).cmp(&self.rank_of(b))
    }

    fn key(&self, coflow: &Coflow, _fabric: &Fabric) -> Option<PriorityKey> {
        Some((self.rank_of(coflow) as u64, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocs_model::{Bandwidth, Dur, Time};

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
}
