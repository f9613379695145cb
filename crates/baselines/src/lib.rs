//! # ocs-baselines — assignment-based circuit scheduling baselines
//!
//! The prior-art circuit schedulers the Sunflow paper compares against
//! (§3.1.1, §5.2), re-implemented from their published descriptions:
//!
//! * [`solstice`] — QuickStuff + BigSlice (Liu et al., CoNEXT'15), the
//!   state of the art among preemptive circuit schedulers.
//! * [`tms`] — Birkhoff–von-Neumann-based Traffic Matrix Scheduling
//!   (Mordia / Helios lineage).
//! * [`edmond`] — repeated maximum-weight matchings with an externally
//!   fixed slot (c-Through / Helios lineage).
//! * [`executor`] — plays any assignment sequence on the switch under
//!   either the **all-stop** or the accurate **not-all-stop** model, and
//!   counts circuit establishments (the switching count of Figure 5).
//!   Its resumable [`Switch`] is the one executor: the offline service
//!   path and the aggregated replay in `ocs-sim` both run it, on demand
//!   shrunk to its active ports by [`compact`].
//!
//! All of them consume a single demand matrix: when multiple Coflows
//! compete they must be aggregated into one generic demand, losing the
//! Coflow structure — one of the two core limitations (with preemption
//! overhead) that motivate Sunflow.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod edmond;
pub mod executor;
pub mod sched;
pub mod solstice;
pub mod tms;

pub use edmond::{edmond_schedule, DEFAULT_SLOT};
pub use executor::{
    execute, ExecConfig, ExecResult, KeptPlan, Segment, Switch, SwitchModel, TimedAssignment,
};
pub use sched::{compact, CircuitScheduler, Compacted};
pub use solstice::solstice_schedule;
pub use tms::tms_schedule;
