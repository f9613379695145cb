//! # ocs-model — network and traffic model for optical circuit scheduling
//!
//! This crate is the shared vocabulary of the Sunflow reproduction: the
//! problem formulation of §2 of the paper, with nothing scheduler-specific.
//!
//! * [`time`] — exact integer picosecond clock ([`Time`], [`Dur`]) and
//!   link [`Bandwidth`]. Circuit-side arithmetic never touches floats, so
//!   the paper's Lemma 1 is testable as an exact invariant.
//! * [`coflow`] — [`Coflow`]s, their [`Flow`]s, and the Table-4 taxonomy
//!   ([`Category`]).
//! * [`fabric`] — the non-blocking `N`-port switch abstraction
//!   ([`Fabric`]) with bandwidth `B` and reconfiguration delay `δ`.
//! * [`demand`] — dense processing-time matrices ([`DemandMatrix`]) used
//!   by the assignment-based schedulers.
//! * [`bounds`] — the CCT lower bounds `T_pL` (Eq. 2) and `T_cL` (Eq. 4)
//!   plus the Lemma 1/2 bound checks.
//! * [`schedule`] — schedule artifacts ([`Reservation`], [`Assignment`],
//!   [`ScheduleOutcome`]) and the optical port-constraint validator.
//! * [`split`] — hybrid-fabric demand splitting ([`DemandSplit`],
//!   [`Subflow`]): carving one Coflow into a circuit part and a packet
//!   part with completion defined as the max over parts.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bounds;
pub mod coflow;
pub mod demand;
pub mod fabric;
pub mod schedule;
pub mod split;
pub mod time;

pub use bounds::{
    alpha, avg_processing_time, circuit_lower_bound, is_long, lemma1_holds, lemma2_holds,
    min_processing_time, packet_lower_bound,
};
pub use coflow::{Category, Coflow, CoflowBuilder, CoflowId, Flow, InPort, OutPort};
pub use demand::DemandMatrix;
pub use fabric::{Fabric, KCoreFabric};
pub use schedule::{
    served_per_flow, validate_port_constraints, Assignment, FlowRef, Reservation, ScheduleError,
    ScheduleOutcome,
};
pub use split::{CarvedPart, DemandSplit, SplitParts, Subflow};
pub use time::{Bandwidth, Dur, Time, MAX_ARRIVAL_MS};
