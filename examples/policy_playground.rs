//! Inter-Coflow policy playground (§4.2's usage scenarios): the same
//! batch of Coflows scheduled under different priority policies —
//! shortest-first, FCFS, and a privileged/regular class split.
//!
//! ```sh
//! cargo run --example policy_playground
//! ```

use std::collections::HashMap;
use sunflow::metrics::Table;
use sunflow::prelude::*;
use sunflow::scheduler::{ClassThenShortest, FirstComeFirstServed, PriorityPolicy};
use sunflow::sim::{engine::run_trace, SunflowBackend};

fn main() {
    let fabric = Fabric::new(6, Fabric::GBPS, Fabric::default_delta());

    // Three tenants contending for the same ports:
    //  - coflow 0: a big production shuffle (privileged),
    //  - coflow 1: a small ad-hoc query,
    //  - coflow 2: a medium batch job.
    let coflows = vec![
        Coflow::builder(0)
            .flow(0, 0, 120_000_000)
            .flow(0, 1, 120_000_000)
            .flow(1, 0, 120_000_000)
            .flow(1, 1, 120_000_000)
            .build(),
        Coflow::builder(1).flow(0, 0, 2_000_000).build(),
        Coflow::builder(2)
            .flow(1, 1, 30_000_000)
            .flow(0, 1, 30_000_000)
            .build(),
    ];

    // All three arrive at t = 0 and no in-flight circuit is cut, so the
    // online replay is §4.2's InterCoflow: IntraCoflow for each Coflow in
    // priority order against the shared PRT.
    let config = OnlineConfig::default().active_policy(ActiveCircuitPolicy::Keep);
    let privileged = ClassThenShortest::new(HashMap::from([(0u64, 0u32)]), 1);

    let policies: Vec<(&str, &dyn PriorityPolicy)> = vec![
        ("shortest-first", &ShortestFirst),
        ("FCFS", &FirstComeFirstServed),
        ("privileged production", &privileged),
    ];

    let mut table = Table::new(["policy", "CCT coflow 0", "CCT coflow 1", "CCT coflow 2"]);
    for (name, policy) in policies {
        let mut backend = SunflowBackend::new(&fabric, &config, Box::new(policy));
        let outcomes = run_trace(&coflows, &mut backend);
        table.row([
            name.to_string(),
            format!("{}", outcomes[0].cct(Time::ZERO)),
            format!("{}", outcomes[1].cct(Time::ZERO)),
            format!("{}", outcomes[2].cct(Time::ZERO)),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Sunflow's inter-Coflow framework only needs a priority order: under\n\
         shortest-first the tiny query wins; under the class policy the\n\
         privileged production shuffle is never blocked by the others."
    );
}
