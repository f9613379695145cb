//! Demand splitting: carving one logical [`Coflow`] into a circuit part
//! and a packet part for hybrid circuit/packet fabrics (§6 of the
//! paper).
//!
//! A hybrid fabric pairs the Sunflow-scheduled optical circuit switch
//! with a slim packet-switched network. Each flow of a Coflow may ride
//! either fabric — or *both*, with its bytes carved between them. A
//! [`DemandSplit`] records that per-flow decision as a list of
//! [`Subflow`]s, and [`DemandSplit::carve`] materializes the two part
//! Coflows plus each part's back-map (part flow → original flow) needed
//! to reassemble per-flow finish times. The Coflow's completion is defined as the **max over
//! its parts** — all-or-nothing semantics survive the split.

use crate::coflow::{Coflow, Flow};

/// One flow's carve across the hybrid fabric: how many of its bytes
/// ride the circuit network and how many the packet network.
///
/// Invariant (enforced by the [`DemandSplit`] constructors):
/// `circuit_bytes + packet_bytes` equals the flow's byte size, so no
/// demand is lost or invented by splitting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Subflow {
    /// Index of the flow within its Coflow (`Coflow::flows()` order).
    pub flow_idx: usize,
    /// Bytes carried by the circuit network (full-rate fabric).
    pub circuit_bytes: u64,
    /// Bytes carried by the packet network (slim fabric).
    pub packet_bytes: u64,
}

/// One side of a carve: the part Coflow and, per flow of it, the index
/// of the original flow it carries bytes of.
pub type CarvedPart = (Coflow, Vec<u32>);

/// The two materialized part Coflows of a carve, each with its
/// back-map to the original Coflow.
///
/// A flow routed whole appears in exactly one back-map; a byte-split
/// flow in both, and its finish is the max of the two.
#[derive(Clone, Debug)]
pub struct SplitParts {
    /// The circuit-side part (`None` when every byte went to packets).
    pub circuit: Option<CarvedPart>,
    /// The packet-side part (`None` when every byte went to circuits).
    pub packet: Option<CarvedPart>,
}

/// A per-Coflow demand split: one [`Subflow`] per flow, byte-preserving.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DemandSplit {
    subflows: Vec<Subflow>,
}

impl DemandSplit {
    /// A split from explicit per-flow carves.
    ///
    /// # Panics
    /// Panics unless `subflows` has exactly one entry per flow of
    /// `coflow`, in flow order, with byte sums matching the flow sizes.
    pub fn new(coflow: &Coflow, subflows: Vec<Subflow>) -> DemandSplit {
        assert_eq!(
            subflows.len(),
            coflow.num_flows(),
            "one subflow per flow of coflow {}",
            coflow.id()
        );
        for (i, (s, f)) in subflows.iter().zip(coflow.flows()).enumerate() {
            assert_eq!(s.flow_idx, i, "subflows must be in flow order");
            assert_eq!(
                s.circuit_bytes + s.packet_bytes,
                f.bytes,
                "split of flow {i} must preserve its bytes"
            );
        }
        DemandSplit { subflows }
    }

    /// The degenerate split routing every byte to the circuit network.
    pub fn all_circuit(coflow: &Coflow) -> DemandSplit {
        DemandSplit {
            subflows: coflow
                .flows()
                .iter()
                .enumerate()
                .map(|(i, f)| Subflow {
                    flow_idx: i,
                    circuit_bytes: f.bytes,
                    packet_bytes: 0,
                })
                .collect(),
        }
    }

    /// The degenerate split routing every byte to the packet network.
    pub fn all_packet(coflow: &Coflow) -> DemandSplit {
        DemandSplit {
            subflows: coflow
                .flows()
                .iter()
                .enumerate()
                .map(|(i, f)| Subflow {
                    flow_idx: i,
                    circuit_bytes: 0,
                    packet_bytes: f.bytes,
                })
                .collect(),
        }
    }

    /// The classic hybrid policy: flows strictly smaller than
    /// `threshold` bytes go whole to the packet network, the rest whole
    /// to the circuits. No flow is byte-split.
    pub fn by_flow_threshold(coflow: &Coflow, threshold: u64) -> DemandSplit {
        DemandSplit {
            subflows: coflow
                .flows()
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    if f.bytes < threshold {
                        Subflow {
                            flow_idx: i,
                            circuit_bytes: 0,
                            packet_bytes: f.bytes,
                        }
                    } else {
                        Subflow {
                            flow_idx: i,
                            circuit_bytes: f.bytes,
                            packet_bytes: 0,
                        }
                    }
                })
                .collect(),
        }
    }

    /// Carve `num/den` of every flow's bytes to the packet network
    /// (floor division; the remainder stays on the circuits), so the
    /// whole Coflow is split by one rational fraction. `num = 0` is
    /// [`DemandSplit::all_circuit`]; `num = den` is
    /// [`DemandSplit::all_packet`].
    ///
    /// # Panics
    /// Panics when `den` is zero or `num > den`.
    pub fn by_packet_fraction(coflow: &Coflow, num: u64, den: u64) -> DemandSplit {
        assert!(den > 0 && num <= den, "fraction must be in [0, 1]");
        DemandSplit {
            subflows: coflow
                .flows()
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    let packet = f.bytes / den * num + f.bytes % den * num / den;
                    Subflow {
                        flow_idx: i,
                        circuit_bytes: f.bytes - packet,
                        packet_bytes: packet,
                    }
                })
                .collect(),
        }
    }

    /// The per-flow carves, in `Coflow::flows()` order.
    pub fn subflows(&self) -> &[Subflow] {
        &self.subflows
    }

    /// Total bytes routed to the circuit network.
    pub fn bytes_to_circuit(&self) -> u64 {
        self.subflows.iter().map(|s| s.circuit_bytes).sum()
    }

    /// Total bytes routed to the packet network.
    pub fn bytes_to_packet(&self) -> u64 {
        self.subflows.iter().map(|s| s.packet_bytes).sum()
    }

    /// Subflows carved off to the packet network (whole-flow routing
    /// and byte-level carving both count).
    pub fn packet_subflows(&self) -> usize {
        self.subflows.iter().filter(|s| s.packet_bytes > 0).count()
    }

    /// Subflows with bytes on the circuit network.
    pub fn circuit_subflows(&self) -> usize {
        self.subflows.iter().filter(|s| s.circuit_bytes > 0).count()
    }

    /// True when every byte rides the circuit network.
    pub fn is_pure_circuit(&self) -> bool {
        self.subflows.iter().all(|s| s.packet_bytes == 0)
    }

    /// True when every byte rides the packet network.
    pub fn is_pure_packet(&self) -> bool {
        self.subflows.iter().all(|s| s.circuit_bytes == 0)
    }

    /// Materialize the two part Coflows. Both parts keep the original
    /// id and arrival (they are the *same* logical Coflow on two
    /// fabrics, reassembled by id), and both preserve flow order.
    ///
    /// Each part holds a subset of `coflow`'s flows, whose `(src, dst)`
    /// pairs are distinct already, so the parts are built without the
    /// builder's duplicate search.
    pub fn carve(&self, coflow: &Coflow) -> SplitParts {
        let (mut circuit, mut packet) = (Vec::new(), Vec::new());
        let (mut circuit_back, mut packet_back) = (Vec::new(), Vec::new());
        for (s, f) in self.subflows.iter().zip(coflow.flows()) {
            let orig = u32::try_from(s.flow_idx).expect("flow count fits u32");
            if s.circuit_bytes > 0 {
                circuit.push(Flow {
                    bytes: s.circuit_bytes,
                    ..*f
                });
                circuit_back.push(orig);
            }
            if s.packet_bytes > 0 {
                packet.push(Flow {
                    bytes: s.packet_bytes,
                    ..*f
                });
                packet_back.push(orig);
            }
        }
        let part = |flows| Coflow::from_distinct_flows(coflow.id(), coflow.arrival(), flows);
        SplitParts {
            circuit: part(circuit).map(|c| (c, circuit_back)),
            packet: part(packet).map(|c| (c, packet_back)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coflow() -> Coflow {
        Coflow::builder(7)
            .flow(0, 1, 1_000)
            .flow(1, 2, 5_000_000)
            .flow(2, 0, 100)
            .build()
    }

    #[test]
    fn threshold_split_routes_whole_flows() {
        let c = coflow();
        let s = DemandSplit::by_flow_threshold(&c, 2_000);
        assert_eq!(s.bytes_to_packet(), 1_100);
        assert_eq!(s.bytes_to_circuit(), 5_000_000);
        assert_eq!(s.packet_subflows(), 2);
        assert_eq!(s.circuit_subflows(), 1);
        let parts = s.carve(&c);
        let (circuit, circuit_back) = parts.circuit.expect("big flow");
        let (packet, packet_back) = parts.packet.expect("small flows");
        assert_eq!(circuit.id(), 7);
        assert_eq!(packet.id(), 7);
        assert_eq!(circuit.num_flows(), 1);
        assert_eq!(packet.num_flows(), 2);
        assert_eq!(circuit_back, vec![1]);
        assert_eq!(packet_back, vec![0, 2]);
    }

    #[test]
    fn fraction_split_preserves_bytes() {
        let c = coflow();
        for num in 0..=8u64 {
            let s = DemandSplit::by_packet_fraction(&c, num, 8);
            assert_eq!(
                s.bytes_to_circuit() + s.bytes_to_packet(),
                c.total_bytes(),
                "num={num}"
            );
        }
        assert!(DemandSplit::by_packet_fraction(&c, 0, 8).is_pure_circuit());
        assert!(DemandSplit::by_packet_fraction(&c, 8, 8).is_pure_packet());
        // A mid fraction byte-splits every flow: both sides populated.
        let half = DemandSplit::by_packet_fraction(&c, 4, 8);
        let parts = half.carve(&c);
        assert_eq!(parts.circuit.expect("half").1, vec![0, 1, 2]);
        assert_eq!(parts.packet.expect("half").1, vec![0, 1, 2]);
    }

    proptest::proptest! {
        /// A carve is what building each part flow by flow yields: same
        /// flows in the same order, same back-maps.
        #[test]
        fn carve_matches_the_builder(
            flows in proptest::collection::vec((0usize..6, 0usize..6, 1u64..1 << 40), 1..40),
            num in 0u64..=64,
        ) {
            let c = flows
                .iter()
                .fold(Coflow::builder(3), |b, &(s, d, z)| b.flow(s, d, z))
                .build();
            let split = DemandSplit::by_packet_fraction(&c, num, 64);
            let parts = split.carve(&c);
            let by_builder = |side: fn(&Subflow) -> u64| {
                let mut b = Coflow::builder(c.id()).arrival(c.arrival());
                let mut back = Vec::new();
                for (s, f) in split.subflows().iter().zip(c.flows()) {
                    if side(s) > 0 {
                        b = b.flow(f.src, f.dst, side(s));
                        back.push(s.flow_idx as u32);
                    }
                }
                b.try_build().map(|p| (p, back))
            };
            proptest::prop_assert_eq!(parts.circuit, by_builder(|s| s.circuit_bytes));
            proptest::prop_assert_eq!(parts.packet, by_builder(|s| s.packet_bytes));
        }
    }

    #[test]
    fn pure_splits_have_one_empty_part() {
        let c = coflow();
        let all_c = DemandSplit::all_circuit(&c).carve(&c);
        assert!(all_c.packet.is_none());
        assert_eq!(all_c.circuit.expect("all").0.num_flows(), 3);
        let all_p = DemandSplit::all_packet(&c).carve(&c);
        assert!(all_p.circuit.is_none());
        assert_eq!(all_p.packet.expect("all").0.num_flows(), 3);
    }

    #[test]
    #[should_panic(expected = "preserve its bytes")]
    fn byte_losing_split_is_rejected() {
        let c = coflow();
        let _ = DemandSplit::new(
            &c,
            vec![
                Subflow {
                    flow_idx: 0,
                    circuit_bytes: 1,
                    packet_bytes: 1,
                },
                Subflow {
                    flow_idx: 1,
                    circuit_bytes: 5_000_000,
                    packet_bytes: 0,
                },
                Subflow {
                    flow_idx: 2,
                    circuit_bytes: 100,
                    packet_bytes: 0,
                },
            ],
        );
    }
}
