//! Every in-tree [`PriorityPolicy`] has a key, and ordering by it is
//! ordering by `compare`.
//!
//! The online stepper ranks each admitted Coflow by
//! [`PriorityPolicy::key`], computed once, and falls back to `compare`
//! per comparison only for a policy without one. For the five policies
//! this crate ships, the two orders must be the same order.

use ocs_model::{Bandwidth, Coflow, Dur, Fabric, Time};
use proptest::prelude::*;
use std::collections::HashMap;
use sunflow_core::{
    ClassThenShortest, ExplicitOrder, FirstComeFirstServed, LongestFirst, PriorityPolicy,
    ShortestFirst,
};

/// Coflows as `(arrival ms, flows (src, dst, MB))`.
type GenCoflows = Vec<(u64, Vec<(usize, usize, u64)>)>;

fn gen_coflows() -> impl Strategy<Value = GenCoflows> {
    proptest::collection::vec(
        (
            0u64..50,
            proptest::collection::vec((0usize..6, 0usize..6, 1u64..4), 1..5),
        ),
        1..12,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn key_order_is_compare_order(raw in gen_coflows()) {
        let fabric = Fabric::new(6, Bandwidth::GBPS, Dur::from_millis(1));
        // Sizes from a few megabytes, so equal bounds (ties) are common.
        let coflows: Vec<Coflow> = raw
            .iter()
            .enumerate()
            .map(|(id, (arrival, flows))| {
                let mut b = Coflow::builder(id as u64).arrival(Time::from_millis(*arrival));
                for &(src, dst, mb) in flows {
                    b = b.flow(src, dst, mb * 1_000_000);
                }
                b.build()
            })
            .collect();
        let classes: HashMap<u64, u32> =
            coflows.iter().map(|c| (c.id(), (c.id() % 3) as u32)).collect();
        // Half the Coflows listed, in reverse; the rest unlisted.
        let explicit = ExplicitOrder::new(coflows.iter().map(|c| c.id()).filter(|id| id % 2 == 0).rev());
        let policies: [(&str, &dyn PriorityPolicy); 5] = [
            ("ShortestFirst", &ShortestFirst),
            ("LongestFirst", &LongestFirst),
            ("FirstComeFirstServed", &FirstComeFirstServed),
            ("ClassThenShortest", &ClassThenShortest::new(classes, 1)),
            ("ExplicitOrder", &explicit),
        ];
        for (name, policy) in policies {
            for a in &coflows {
                let ka = policy.key(a, &fabric);
                prop_assert!(ka.is_some(), "{} has no key", name);
                for b in &coflows {
                    let kb = policy.key(b, &fabric);
                    prop_assert_eq!(
                        ka.cmp(&kb),
                        policy.compare(a, b, &fabric),
                        "{}: coflows {} and {}",
                        name,
                        a.id(),
                        b.id()
                    );
                }
            }
        }
    }
}
