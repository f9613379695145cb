//! `ocs-daemon`: a real-time online Coflow scheduling service.
//!
//! Where `ocs-sim` replays a fixed workload to completion, this crate
//! runs the same schedulers as a *service*: Coflow arrivals stream in as
//! JSONL (stdin, file, or TCP), admission control applies back-pressure
//! with explicit reject reasons, a deterministic fault injector
//! exercises the retry/backoff path, and telemetry — CCT and
//! queue-latency histograms, utilization, fault counters — streams out
//! as a JSON status dump or backend-labeled Prometheus text. Any
//! [`ocs_sim::BackendKind`] can run the fabric — Sunflow (the default),
//! the circuit baselines, or the packet-switched fluid schedulers — all
//! behind the same admission, fault and telemetry surface. The whole
//! service state checkpoints and restores through [`DaemonCheckpoint`].
//!
//! Layers, bottom up:
//!
//! - [`jsonl`] — the wire format: one [`ArrivalSpec`] per line, parsed
//!   with a dependency-free recursive-descent JSON reader.
//! - [`faults`] — [`FaultInjector`], a seeded, hash-deterministic
//!   [`ocs_sim::SettleHook`] modelling circuit setup failures, port
//!   flaps and inflated reconfiguration delays, with exponential
//!   retry backoff.
//! - [`service`] — [`Daemon`]: admission control over any
//!   [`ocs_sim::SchedulingBackend`], telemetry, command-log
//!   checkpoint/restore, JSON and Prometheus rendering.
//! - [`ingest`] — [`run_pipelined`]: the high-throughput front end — a
//!   reader thread parsing JSONL into a bounded admission channel (typed
//!   backpressure when full), an admission loop driving the synchronous
//!   scheduling core with the sequential loop's step, and an ack writer
//!   restoring line order.
//! - [`server`] — [`run_to_completion`] / [`TcpServer`]: the synchronous
//!   reference ingestion loop with per-line acks and graceful drain, and
//!   the TCP front door feeding either loop.
//!
//! The `ocs-daemond` binary fronts all of it from the command line.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod ingest;
pub mod jsonl;
pub mod server;
pub mod service;

pub use faults::{FaultConfig, FaultInjector, FaultStats};
pub use ingest::{run_pipelined, OnFull, PipelineConfig, PipelineReport};
pub use jsonl::{parse_line, ArrivalSpec, ParseError};
pub use server::{run_to_completion, IngestMode, ServeReport, ShutdownHandle, TcpServer};
pub use service::{
    AdmissionConfig, Daemon, DaemonCheckpoint, DaemonConfig, PolicyKind, RejectReason, Telemetry,
};
