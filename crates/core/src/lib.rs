//! # sunflow-core — the Sunflow circuit scheduling algorithm
//!
//! Reproduction of the scheduling contribution of *"Sunflow: Efficient
//! Optical Circuit Scheduling for Coflows"* (Huang, Sun, Ng — CoNEXT'16).
//!
//! Sunflow schedules Coflows on an optical circuit switch under the
//! **not-all-stop** model and makes preemption decisions at two levels:
//!
//! * **Intra-Coflow** ([`intra`]): subflows of a Coflow never preempt each
//!   other. Each circuit is reserved in the Port Reservation Table
//!   ([`prt`]) for its full remaining demand (plus the reconfiguration
//!   delay `δ`), so offline every subflow costs exactly one circuit setup.
//!   The paper proves (Lemma 1) that the resulting CCT is within a factor
//!   of two of the circuit-switched optimum for any bandwidth, any `δ`,
//!   any Coflow and any ordering of scheduled circuits — an invariant this
//!   workspace checks with exact integer arithmetic in its property tests.
//! * **Inter-Coflow** ([`inter`]): a pluggable priority framework. Coflows
//!   are scheduled one at a time in policy order against the shared PRT;
//!   lower-priority reservations are truncated around higher-priority
//!   ones, never the other way around. [`starvation`] adds the paper's
//!   `(Φ, T, τ)` round-robin guard so that even the lowest-priority
//!   Coflow receives service within every `N(T+τ)` interval.
//! * **K-core placement** ([`multicore`]): the subflow→core placement
//!   policies ([`CoreAssign`]) of the multi-core OCS generalization. A
//!   `K`-core fabric plans on one [`Prt`] over `K·N` ports; `K = 1` is
//!   the degenerate single-switch case and replays byte-identically.
//! * **Hybrid demand splitting** ([`split`]): the [`SplitPolicy`] seam
//!   routing each arriving Coflow's bytes between the circuit fabric
//!   and a slim packet fabric (§6) — whole-Coflow, per-flow threshold,
//!   or a per-Coflow byte solver probing the live PRT via
//!   [`DeltaView`].
//!
//! The online, trace-driven variant (rescheduling on Coflow arrivals and
//! completions) lives in the `ocs-sim` crate; this crate is the pure
//! algorithm.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod delta;
pub mod inter;
pub mod intra;
pub mod multicore;
pub mod portset;
pub mod prt;
pub mod split;
pub mod starvation;

pub use delta::{DeltaPlan, DeltaStorage, DeltaView};
pub use inter::{
    ClassThenShortest, ExplicitOrder, FirstComeFirstServed, LongestFirst, PriorityKey,
    PriorityPolicy, ShortestFirst,
};
pub use intra::{
    schedule_demands_on, Alone, CoflowSchedule, Demand, FlowOrder, IntraScheduler, Outranking,
    PlanTable, ScheduleCounters, ScheduleScratch, SunflowConfig, Walk,
};
pub use multicore::{
    CoreAssign, CoreAssignKind, CoreLoad, LeastLoaded, RankPack, RoundRobin, StaticHash,
    UnknownAssignError,
};
pub use portset::PortSet;
pub use prt::{PortProbe, Prt, PrtSnapshot, RemovedResv, ResvKind};
pub use split::{
    NonSplitting, SolverSplit, SplitContext, SplitDecision, SplitKind, SplitPolicy, ThresholdSplit,
    UnknownSplitError,
};
pub use starvation::{GuardConfig, GuardError, GuardWindow, StarvationGuard};
