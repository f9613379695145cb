//! # Sunflow — efficient optical circuit scheduling for Coflows
//!
//! This crate is the facade of a full reproduction of *"Sunflow: Efficient
//! Optical Circuit Scheduling for Coflows"* (Huang, Sun, Ng — CoNEXT 2016).
//! It re-exports the workspace crates under stable module names so that a
//! downstream user only ever depends on `sunflow`:
//!
//! * [`model`] — the network and traffic model: an `N`-port non-blocking
//!   switch with link bandwidth `B` and circuit reconfiguration delay `δ`,
//!   Coflows, demand matrices and the CCT lower bounds `T_cL` / `T_pL`.
//! * [`scheduler`] — the Sunflow algorithm itself: the Port Reservation
//!   Table, intra-Coflow scheduling (Algorithm 1 of the paper), the
//!   inter-Coflow priority framework and the starvation guard.
//! * [`baselines`] — the circuit-switched baselines Solstice, TMS and
//!   Edmond together with assignment executors for the all-stop and
//!   not-all-stop switch models.
//! * [`packet`] — the packet-switched Coflow schedulers Varys and Aalo on a
//!   fluid-rate fabric.
//! * [`sim`] — the unified scheduling engine: every scheduler family
//!   behind one `SchedulingBackend` abstraction, the canonical event
//!   loop, and the batch simulation drivers built on it.
//! * [`workload`] — trace parsing and the calibrated synthetic Facebook-like
//!   workload generator.
//! * [`matching`] — bipartite matching algorithms used by the baselines.
//! * [`metrics`] — statistics and report rendering.
//!
//! For everyday use, [`prelude`] re-exports the handful of types almost
//! every program needs:
//!
//! ## Quickstart
//!
//! ```
//! use sunflow::prelude::*;
//!
//! // A 4-port fabric at 1 Gbps with a 10 ms reconfiguration delay, the
//! // defaults used throughout the paper's evaluation.
//! let fabric = Fabric::new(4, Fabric::GBPS, Fabric::default_delta());
//!
//! // A 2x2 many-to-many Coflow shuffling 100 MB per flow.
//! let coflow = Coflow::builder(0)
//!     .flow(0, 0, 100_000_000)
//!     .flow(0, 1, 100_000_000)
//!     .flow(1, 0, 100_000_000)
//!     .flow(1, 1, 100_000_000)
//!     .build();
//!
//! let schedule = IntraScheduler::new(&fabric, SunflowConfig::default()).schedule(&coflow);
//! // Lemma 1: Sunflow is always within a factor of two of the circuit
//! // lower bound.
//! let lower = circuit_lower_bound(&coflow, &fabric);
//! assert!(schedule.cct() <= lower * 2);
//! ```

pub use ocs_baselines as baselines;
pub use ocs_matching as matching;
pub use ocs_metrics as metrics;
pub use ocs_model as model;
pub use ocs_packet as packet;
pub use ocs_sim as sim;
pub use ocs_workload as workload;
pub use sunflow_core as scheduler;

pub mod prelude {
    //! One-stop import for the types nearly every Sunflow program uses.
    //!
    //! ```
    //! use sunflow::prelude::*;
    //!
    //! let fabric = Fabric::new(4, Fabric::GBPS, Fabric::default_delta());
    //! let coflow = Coflow::builder(0).flow(0, 1, 1_000_000).build();
    //! let cct = IntraScheduler::new(&fabric, SunflowConfig::default())
    //!     .schedule(&coflow)
    //!     .cct();
    //! assert!(cct <= circuit_lower_bound(&coflow, &fabric) * 2);
    //! ```

    // The traffic and network model.
    pub use ocs_model::{
        circuit_lower_bound, packet_lower_bound, Bandwidth, Coflow, Dur, Fabric, Time,
    };
    // The Sunflow scheduler and its configuration.
    pub use sunflow_core::{
        FlowOrder, GuardConfig, IntraScheduler, Prt, ShortestFirst, SunflowConfig,
    };
    // The unified engine and the simulation drivers.
    pub use ocs_sim::{
        run_intra, simulate_circuit, simulate_packet, ActiveCircuitPolicy, BackendKind,
        IntraEngine, OnlineConfig, ReplayResult, ReplayStats, SchedulingBackend,
    };
}
