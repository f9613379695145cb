//! Coflows: collections of flows sharing a performance objective.
//!
//! A Coflow (Chowdhury & Stoica, HotNets'12) is defined by the endpoints
//! and byte size of each of its flows. The scheduling objective at the
//! intra-Coflow level is to minimize the Coflow Completion Time (CCT): the
//! time until the *last* flow finishes.

use crate::time::Time;
use std::fmt;

/// Identifier of a Coflow within a workload. Unique per trace.
pub type CoflowId = u64;

/// An input (sender-side) switch port, `in.i` in the paper.
pub type InPort = usize;

/// An output (receiver-side) switch port, `out.j` in the paper.
pub type OutPort = usize;

/// One flow of a Coflow: `d_ij` bytes from input port `src` to output port
/// `dst`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Flow {
    /// Source (input) port.
    pub src: InPort,
    /// Destination (output) port.
    pub dst: OutPort,
    /// Demand in bytes. Always positive: zero-byte entries are not flows.
    pub bytes: u64,
}

/// The sender-to-receiver structure of a Coflow, used by the paper's
/// Table 4 to classify the workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Category {
    /// One sender, one receiver, one flow (uni-cast).
    OneToOne,
    /// One sender, more than one receiver.
    OneToMany,
    /// More than one sender, one receiver (in-cast).
    ManyToOne,
    /// More than one sender and more than one receiver.
    ManyToMany,
}

impl Category {
    /// All categories in the order used by Table 4 of the paper.
    pub const ALL: [Category; 4] = [
        Category::OneToOne,
        Category::OneToMany,
        Category::ManyToOne,
        Category::ManyToMany,
    ];

    /// The abbreviation used in the paper (O2O, O2M, M2O, M2M).
    pub fn abbrev(self) -> &'static str {
        match self {
            Category::OneToOne => "O2O",
            Category::OneToMany => "O2M",
            Category::ManyToOne => "M2O",
            Category::ManyToMany => "M2M",
        }
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// A Coflow: a set of flows that arrive together and complete together.
///
/// Invariants (enforced by [`CoflowBuilder::build`]):
/// * every flow has positive size;
/// * no two flows share the same `(src, dst)` pair — parallel demand between
///   the same port pair is merged into one entry of the demand matrix, as in
///   the paper's formulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Coflow {
    id: CoflowId,
    arrival: Time,
    flows: Vec<Flow>,
}

impl Coflow {
    /// Start building a Coflow arriving at time zero.
    pub fn builder(id: CoflowId) -> CoflowBuilder {
        CoflowBuilder {
            id,
            arrival: Time::ZERO,
            flows: Vec::new(),
        }
    }

    /// The Coflow's identifier.
    pub fn id(&self) -> CoflowId {
        self.id
    }

    /// Arrival time `t_Arr`.
    pub fn arrival(&self) -> Time {
        self.arrival
    }

    /// The flows, in insertion order.
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// `|C|`: the number of subflows (non-zero demand-matrix entries).
    pub fn num_flows(&self) -> usize {
        self.flows.len()
    }

    /// Total demand in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.flows.iter().map(|f| f.bytes).sum()
    }

    /// Number of distinct senders.
    pub fn num_senders(&self) -> usize {
        let mut s: Vec<InPort> = self.flows.iter().map(|f| f.src).collect();
        s.sort_unstable();
        s.dedup();
        s.len()
    }

    /// Number of distinct receivers.
    pub fn num_receivers(&self) -> usize {
        let mut r: Vec<OutPort> = self.flows.iter().map(|f| f.dst).collect();
        r.sort_unstable();
        r.dedup();
        r.len()
    }

    /// Sender-to-receiver classification per Table 4 of the paper.
    pub fn category(&self) -> Category {
        match (self.num_senders() > 1, self.num_receivers() > 1) {
            (false, false) => Category::OneToOne,
            (false, true) => Category::OneToMany,
            (true, false) => Category::ManyToOne,
            (true, true) => Category::ManyToMany,
        }
    }

    /// The largest port index referenced plus one; the minimum fabric size
    /// able to carry this Coflow.
    pub fn min_ports(&self) -> usize {
        self.flows
            .iter()
            .map(|f| f.src.max(f.dst) + 1)
            .max()
            .unwrap_or(0)
    }

    /// Combine several Coflows into one (§4.2 of the paper: Coflows of
    /// equal priority "can be combined as one Coflow so that each
    /// constituent Coflow may have equal chance to be serviced"). The
    /// merged Coflow arrives when the earliest constituent does; demand
    /// between the same port pair accumulates.
    ///
    /// The paper notes the cost: "combining Coflows may come at the cost
    /// of a larger average CCT for the Coflows involved" — the merged
    /// unit completes only when all constituents have.
    ///
    /// # Panics
    /// Panics if `parts` is empty.
    pub fn merge(id: CoflowId, parts: &[Coflow]) -> Coflow {
        assert!(!parts.is_empty(), "cannot merge zero coflows");
        let arrival = parts.iter().map(Coflow::arrival).min().expect("non-empty");
        let mut b = Coflow::builder(id).arrival(arrival);
        for p in parts {
            for f in p.flows() {
                b = b.flow(f.src, f.dst, f.bytes);
            }
        }
        b.build()
    }

    /// A Coflow from flows already known to keep the builder's
    /// invariants — positive sizes, distinct `(src, dst)` pairs — so the
    /// builder's linear duplicate search is skipped; `None` when `flows`
    /// is empty. For carving parts out of an existing Coflow, whose
    /// pairs are distinct by construction.
    pub(crate) fn from_distinct_flows(
        id: CoflowId,
        arrival: Time,
        flows: Vec<Flow>,
    ) -> Option<Coflow> {
        debug_assert!(flows.iter().all(|f| f.bytes > 0), "flows are positive");
        debug_assert!(
            {
                let mut pairs: Vec<_> = flows.iter().map(|f| (f.src, f.dst)).collect();
                pairs.sort_unstable();
                pairs.windows(2).all(|w| w[0] != w[1])
            },
            "flow pairs are distinct"
        );
        (!flows.is_empty()).then_some(Coflow { id, arrival, flows })
    }

    /// Returns a copy with every flow's byte count scaled by `num/den`
    /// (rounded to the nearest byte, floored at 1 byte). Used by the
    /// idleness-scaling experiments of Figure 8.
    pub fn scaled_bytes(&self, num: u64, den: u64) -> Coflow {
        assert!(den > 0, "scale denominator must be positive");
        let flows = self
            .flows
            .iter()
            .map(|f| Flow {
                bytes: (((f.bytes as u128) * num as u128 + den as u128 / 2) / den as u128)
                    .max(1)
                    .min(u64::MAX as u128) as u64,
                ..*f
            })
            .collect();
        Coflow {
            id: self.id,
            arrival: self.arrival,
            flows,
        }
    }
}

/// Builder for [`Coflow`]; merges duplicate `(src, dst)` pairs and drops
/// zero-byte entries.
#[derive(Clone, Debug)]
pub struct CoflowBuilder {
    id: CoflowId,
    arrival: Time,
    flows: Vec<Flow>,
}

impl CoflowBuilder {
    /// Set the arrival time (defaults to zero).
    pub fn arrival(mut self, at: Time) -> CoflowBuilder {
        self.arrival = at;
        self
    }

    /// Add a flow of `bytes` bytes from input port `src` to output port
    /// `dst`. Zero-byte flows are ignored; duplicate pairs accumulate.
    pub fn flow(mut self, src: InPort, dst: OutPort, bytes: u64) -> CoflowBuilder {
        if bytes == 0 {
            return self;
        }
        if let Some(existing) = self.flows.iter_mut().find(|f| f.src == src && f.dst == dst) {
            existing.bytes = existing
                .bytes
                .checked_add(bytes)
                .expect("flow demand overflow");
        } else {
            self.flows.push(Flow { src, dst, bytes });
        }
        self
    }

    /// Finish building.
    ///
    /// # Panics
    /// Panics if the Coflow has no flows; an empty Coflow has no defined
    /// completion time.
    pub fn build(self) -> Coflow {
        assert!(
            !self.flows.is_empty(),
            "a Coflow must contain at least one flow"
        );
        Coflow {
            id: self.id,
            arrival: self.arrival,
            flows: self.flows,
        }
    }

    /// Like [`CoflowBuilder::build`] but returns `None` for an empty Coflow
    /// instead of panicking. Useful when filtering generated traffic.
    pub fn try_build(self) -> Option<Coflow> {
        if self.flows.is_empty() {
            None
        } else {
            Some(Coflow {
                id: self.id,
                arrival: self.arrival,
                flows: self.flows,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(pairs: &[(usize, usize, u64)]) -> Coflow {
        let mut b = Coflow::builder(1);
        for &(s, d, z) in pairs {
            b = b.flow(s, d, z);
        }
        b.build()
    }

    #[test]
    fn classification_matches_table4_definitions() {
        assert_eq!(mk(&[(0, 0, 1)]).category(), Category::OneToOne);
        assert_eq!(mk(&[(0, 0, 1), (0, 1, 1)]).category(), Category::OneToMany);
        assert_eq!(mk(&[(0, 0, 1), (1, 0, 1)]).category(), Category::ManyToOne);
        assert_eq!(mk(&[(0, 0, 1), (1, 1, 1)]).category(), Category::ManyToMany);
    }

    #[test]
    fn one_to_one_on_same_port_is_unicast() {
        // src and dst index spaces are disjoint: in.3 -> out.3 is one-to-one.
        let c = mk(&[(3, 3, 10)]);
        assert_eq!(c.category(), Category::OneToOne);
        assert_eq!(c.min_ports(), 4);
    }

    #[test]
    fn duplicate_pairs_are_merged() {
        let c = Coflow::builder(7)
            .flow(0, 1, 5)
            .flow(0, 1, 7)
            .flow(1, 1, 3)
            .build();
        assert_eq!(c.num_flows(), 2);
        assert_eq!(c.total_bytes(), 15);
        assert_eq!(c.flows()[0].bytes, 12);
    }

    #[test]
    fn zero_byte_flows_are_dropped() {
        let c = Coflow::builder(9).flow(0, 0, 0).flow(0, 1, 4).build();
        assert_eq!(c.num_flows(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one flow")]
    fn empty_coflow_panics() {
        let _ = Coflow::builder(0).build();
    }

    #[test]
    fn try_build_returns_none_when_empty() {
        assert!(Coflow::builder(0).flow(0, 0, 0).try_build().is_none());
    }

    #[test]
    fn scaled_bytes_rounds_and_floors() {
        let c = mk(&[(0, 0, 10), (0, 1, 1)]);
        let half = c.scaled_bytes(1, 2);
        assert_eq!(half.flows()[0].bytes, 5);
        // 1 byte halves to 0.5, rounds to 1 after flooring at one byte.
        assert_eq!(half.flows()[1].bytes, 1);
        let thrice = c.scaled_bytes(3, 1);
        assert_eq!(thrice.flows()[0].bytes, 30);
    }

    #[test]
    fn merge_unions_demand_and_takes_earliest_arrival() {
        let a = Coflow::builder(1)
            .arrival(Time::from_millis(10))
            .flow(0, 1, 5)
            .build();
        let b = Coflow::builder(2)
            .arrival(Time::from_millis(3))
            .flow(0, 1, 7)
            .flow(2, 3, 1)
            .build();
        let m = Coflow::merge(9, &[a, b]);
        assert_eq!(m.id(), 9);
        assert_eq!(m.arrival(), Time::from_millis(3));
        assert_eq!(m.num_flows(), 2); // (0,1) accumulated
        assert_eq!(m.total_bytes(), 13);
        assert_eq!(m.flows()[0].bytes, 12);
    }

    #[test]
    #[should_panic(expected = "zero coflows")]
    fn merging_nothing_panics() {
        let _ = Coflow::merge(0, &[]);
    }

    #[test]
    fn counts_and_sizes() {
        let c = mk(&[(0, 5, 2), (1, 5, 3), (1, 6, 4)]);
        assert_eq!(c.num_senders(), 2);
        assert_eq!(c.num_receivers(), 2);
        assert_eq!(c.total_bytes(), 9);
        assert_eq!(c.num_flows(), 3);
    }
}
