//! # ocs-sim — the unified scheduling engine and its simulation drivers
//!
//! * [`backend`] — the [`SchedulingBackend`] abstraction: Sunflow, the
//!   aggregated circuit baselines (Solstice/TMS/Edmond) and the
//!   packet-switched rate schedulers (Varys/Aalo/fair sharing) behind
//!   one resumable submit / poll / advance interface, selectable by name
//!   through [`BackendKind`].
//! * [`engine`] — the canonical event loop over one backend: every batch
//!   `simulate_*` entry point and the `ocs-bench` evaluation run it.
//! * [`intra_driver`] — the paper's intra-Coflow evaluation: each Coflow
//!   serviced alone on an idle fabric, under Sunflow or any of the
//!   assignment-based baselines.
//! * [`online`] — the inter-Coflow evaluation: detailed trace replay with
//!   arrival times, rescheduling on Coflow arrivals and completions,
//!   configurable in-flight-circuit policy and the optional §4.2
//!   starvation guard.
//! * [`stepper`] — Sunflow's replay as a resumable state machine, built
//!   with its priority policy: feed arrivals one at a time, advance to a
//!   deadline, drain completions, inject settlement faults. It is
//!   [`SunflowBackend`].
//! * `arrivals` (private) — the future-arrival queue every backend
//!   holds submitted Coflows in until their arrival instant, with the
//!   shared submit checks.
//! * `book` (private) — the flow ledger of every circuit backend: the
//!   stepper, [`KCoreBackend`] and [`CircuitBackend`] settle circuits,
//!   credit service and build completions through one `FlowBook`.
//! * `compositor` (private) — the one fan-out machine behind the three
//!   backends below: hold arrivals until their instant, route each
//!   Coflow (whole or carved) to independent planes, advance the planes
//!   in turn on one clock, merge part completions. Each backend is a type alias
//!   of it plus a small router.
//! * [`multicore`] — the K-core OCS generalization: Sunflow sharded
//!   across `K` parallel circuit planes ([`MultiSunflowBackend`]) and
//!   the O(K)-approximation multi-core list scheduler
//!   ([`KCoreBackend`]), both selectable through [`BackendKind`]
//!   (`sunflow:<K>[:<assign>]`, `kcore:<K>`).
//! * [`portgroup`] — Sunflow sharded across disjoint port groups
//!   ([`PortGroupBackend`], `portgroups:<G>`).
//! * [`hybrid`] — the §6 REACToR-style hybrid as a first-class backend
//!   ([`HybridBackend`]): a slim packet network beside the
//!   Sunflow-scheduled circuits on one clock, with a pluggable
//!   [`sunflow_core::SplitPolicy`] routing each arriving Coflow's bytes
//!   between them (`hybrid:<split>[:<frac>]` in [`BackendKind`]).
//! * [`aggregate`] — the §3.2 straw man, measured: Solstice/TMS/Edmond
//!   forced to schedule all outstanding Coflows as one aggregated demand
//!   matrix, with FIFO service attribution.
//! * [`sweep`] — the parallel experiment sweep engine: independent
//!   (trace, B, δ, policy) configurations fanned out over scoped worker
//!   threads with deterministic result ordering and per-run timings.
//!
//! The rate allocators themselves live in `ocs-packet` and the
//! assignment algorithms in `ocs-baselines`; every backend produces
//! [`ocs_model::ScheduleOutcome`]s so results compare directly.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aggregate;
mod arrivals;
pub mod backend;
mod book;
mod compositor;
pub mod engine;
pub mod hybrid;
pub mod intra_driver;
pub mod multicore;
pub mod online;
pub mod portgroup;
pub mod stepper;
pub mod sweep;

pub use aggregate::simulate_circuit_aggregated;
pub use backend::{
    BackendKind, BackendStatus, CircuitBackend, CoreStatus, PacketBackend, SchedulingBackend,
    SunflowBackend, UnknownBackendError,
};
pub use engine::{run_backends_to_idle, run_trace, simulate_packet};
pub use hybrid::{HybridBackend, HybridConfig, HybridConfigError};
pub use intra_driver::{run_intra, IntraEngine};
pub use multicore::{KCoreBackend, MultiSunflowBackend};
pub use online::{simulate_circuit, ActiveCircuitPolicy, OnlineConfig, ReplayResult, ReplayStats};
pub use portgroup::PortGroupBackend;
pub use stepper::{Completion, FullService, OnlineStepper, SettleHook, SettleVerdict, SubmitError};
pub use sweep::{Sweep, SweepBuilder, SweepResult, SweepRun};
