//! Timing and counting wrappers for the seams the code takes as boxes
//! from outside: [`PriorityPolicy`], [`SplitPolicy`], [`CoreAssign`] and
//! [`SettleHook`]. (The fifth seam, `RateScheduler`, cannot be reached:
//! `HybridBackend::new` builds its own `FairSharing` plane. Its time is
//! read from `HybridBackend::packet_stats` instead.)
//!
//! Every wrapper forwards each trait method to the policy it wraps, so a
//! wrapped run makes exactly the decisions of a bare one (the
//! `wrappers_are_outcome_neutral` test pins that on three backends).
//! The coarse seams (split, placement: one call per Coflow) also record
//! a span; the fine ones (priority comparisons, settlements) only
//! accumulate, because a span per call would cost more than the call.

use crate::span::Tracer;
use ocs_model::{Coflow, Dur, Fabric, Reservation, Time};
use ocs_sim::{SettleHook, SettleVerdict};
use std::cmp::Ordering;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;
use sunflow_core::{
    CoreAssign, CoreLoad, PriorityPolicy, SplitContext, SplitDecision, SplitPolicy,
};

/// Calls made through one seam and the wall-clock time they took.
#[derive(Debug, Default)]
pub struct SeamCounter {
    // Relaxed everywhere: statistics that publish no other data.
    calls: AtomicU64,
    ns: AtomicU64,
}

impl SeamCounter {
    fn add(&self, since: Instant) {
        self.add_ns(since.elapsed().as_nanos() as u64);
    }

    fn add_ns(&self, ns: u64) {
        self.calls.fetch_add(1, Relaxed);
        self.ns.fetch_add(ns, Relaxed);
    }

    /// Calls seen so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// Total nanoseconds spent inside the wrapped calls.
    pub fn ns(&self) -> u64 {
        self.ns.load(Relaxed)
    }
}

/// Everything one traced repetition records: the span tracer and one
/// counter per seam. Shared by the driver loop and every wrapper.
#[derive(Debug, Default)]
pub struct Probe {
    tracer: Mutex<Tracer>,
    /// `PriorityPolicy::compare` / `sort`.
    pub inter: SeamCounter,
    /// `SettleHook::on_settle`.
    pub settle: SeamCounter,
    /// `SplitPolicy::split`.
    pub split: SeamCounter,
    /// Candidate splits the policy reported evaluating.
    pub split_evals: AtomicU64,
    /// Duration of each `split` call, for its p99.
    pub split_call_ns: Mutex<Vec<u64>>,
    /// `CoreAssign::assign`.
    pub assign: SeamCounter,
}

impl Probe {
    /// The span tracer.
    pub fn tracer(&self) -> MutexGuard<'_, Tracer> {
        self.tracer
            .lock()
            .expect("no thread panics while holding the tracer")
    }

    /// Run `f` inside a span; returns its result and the span's
    /// duration. The tracer lock is not held while `f` runs, so `f` may
    /// open spans of its own.
    pub fn span<R>(&self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> (R, u64) {
        let id = self.tracer().enter(name, req);
        let r = f();
        let ns = self.tracer().exit(id);
        (r, ns)
    }

    /// Nanoseconds spent inside any seam so far.
    pub fn seam_ns(&self) -> u64 {
        [&self.inter, &self.settle, &self.split, &self.assign]
            .iter()
            .map(|c| c.ns())
            .sum()
    }
}

/// A [`PriorityPolicy`] that times every comparison.
pub struct TimedPolicy {
    inner: Box<dyn PriorityPolicy + Send + Sync>,
    probe: Arc<Probe>,
}

impl TimedPolicy {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn PriorityPolicy + Send + Sync>, probe: Arc<Probe>) -> TimedPolicy {
        TimedPolicy { inner, probe }
    }
}

impl PriorityPolicy for TimedPolicy {
    fn compare(&self, a: &Coflow, b: &Coflow, fabric: &Fabric) -> Ordering {
        let t = Instant::now();
        let r = self.inner.compare(a, b, fabric);
        self.probe.inter.add(t);
        r
    }

    fn sort(&self, coflows: &mut Vec<&Coflow>, fabric: &Fabric) {
        let t = Instant::now();
        self.inner.sort(coflows, fabric);
        self.probe.inter.add(t);
    }

    fn clone_box(&self) -> Option<Box<dyn PriorityPolicy + Send + Sync>> {
        let inner = self.inner.clone_box()?;
        Some(Box::new(TimedPolicy::new(inner, Arc::clone(&self.probe))))
    }
}

/// A [`SplitPolicy`] that times and spans every routing decision.
pub struct TimedSplit {
    inner: Box<dyn SplitPolicy + Send>,
    probe: Arc<Probe>,
}

impl TimedSplit {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn SplitPolicy + Send>, probe: Arc<Probe>) -> TimedSplit {
        TimedSplit { inner, probe }
    }
}

impl SplitPolicy for TimedSplit {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn split(&mut self, coflow: &Coflow, ctx: &SplitContext<'_>) -> SplitDecision {
        let (inner, probe) = (&mut self.inner, &self.probe);
        let (d, ns) = probe.span("core.split.split", coflow.id(), || inner.split(coflow, ctx));
        probe.split.add_ns(ns);
        probe.split_evals.fetch_add(d.evals, Relaxed);
        probe
            .split_call_ns
            .lock()
            .expect("no thread panics while holding the sample list")
            .push(ns);
        d
    }
}

/// A [`CoreAssign`] that times and spans every placement.
pub struct TimedAssign {
    inner: Box<dyn CoreAssign + Send>,
    probe: Arc<Probe>,
}

impl TimedAssign {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn CoreAssign + Send>, probe: Arc<Probe>) -> TimedAssign {
        TimedAssign { inner, probe }
    }
}

impl CoreAssign for TimedAssign {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn assign(&mut self, coflow: &Coflow, cores: usize, load: &CoreLoad) -> Vec<usize> {
        let (inner, probe) = (&mut self.inner, &self.probe);
        let (placed, ns) = probe.span("core.multicore.assign", coflow.id(), || {
            inner.assign(coflow, cores, load)
        });
        probe.assign.add_ns(ns);
        placed
    }
}

/// A [`SettleHook`] that times every settlement verdict.
pub struct TimedHook<H: SettleHook> {
    inner: H,
    probe: Arc<Probe>,
}

impl<H: SettleHook> TimedHook<H> {
    /// Wrap `inner`.
    pub fn new(inner: H, probe: Arc<Probe>) -> TimedHook<H> {
        TimedHook { inner, probe }
    }
}

impl<H: SettleHook> SettleHook for TimedHook<H> {
    fn on_settle(&mut self, resv: &Reservation, available: Dur, now: Time) -> SettleVerdict {
        let t = Instant::now();
        let v = self.inner.on_settle(resv, available, now);
        self.probe.settle.add(t);
        v
    }

    fn is_inert(&self) -> bool {
        self.inner.is_inert()
    }
}
