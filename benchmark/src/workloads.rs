//! The eight workloads and the inputs each is made from.
//!
//! A workload's inputs are a function of `--seed` alone. Seed 0 gives
//! the repository's own seeds, so the numbers line up with the committed
//! `BENCH_*.json` records. A non-zero seed is XOR-ed into the seed of
//! the *random element the paper's own method has*:
//!
//! the §5.1 ±5 % flow-size perturbation, over a fixed set of Coflows:
//!
//! * the Facebook-like trace is one fixed trace (as in the paper) and
//!   already perturbed at the repository's seed; another seed re-draws
//!   that perturbation. Re-generating the 526 heavy-tailed Coflows
//!   instead moves mean CCT threefold from seed to seed, which no
//!   regression bound survives;
//! * the soak stream is one fixed stream too (arrivals, ports, flow
//!   counts), unperturbed at seed 0 as the repository generates it;
//!   another seed perturbs its sizes. Re-generating it moves mean CCT by
//!   4 % and `soak_batch`'s throughput by 10 % between seeds.

use ocs_model::{Bandwidth, Coflow, Dur, Fabric};
use ocs_workload::{
    generate, generate_load, perturb_sizes, to_jsonl, trace, LoadgenConfig, SynthConfig,
};
use std::time::Instant;

/// How a workload's repetition is driven.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Every Coflow submitted up front to the backend named by
    /// `selector`, then run to idle by the benchmark's copy of the
    /// canonical event loop.
    Engine {
        /// A `BackendKind` selector.
        selector: &'static str,
        /// Run under the §4.2 starvation guard (60 s, 100 ms).
        guard: bool,
    },
    /// Every Coflow alone on an idle fabric, over the δ × B sweep.
    IntraAlone,
    /// The soak stream as JSONL through the daemon's sequential loop.
    SoakStream,
    /// The soak stream's head through a fault-injecting daemon in
    /// 5 ms slices.
    FaultRetry,
}

/// Where a workload's Coflows come from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Source {
    /// The paper's 526-Coflow trace on 150 ports at 1 Gbps, δ = 10 ms.
    Facebook,
    /// The first `n` Coflows of the loadgen stream on 64 ports at
    /// 10 Gbps, δ = 100 µs.
    Soak(u64),
}

/// One workload: its name, why it exists, and how it runs.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// The `--workload` name.
    pub name: &'static str,
    /// One line on what it isolates.
    pub why: &'static str,
    /// How a repetition is driven.
    pub kind: Kind,
    /// Measured repetitions when neither `--reps` nor `--seconds` is
    /// given.
    pub reps: usize,
    source: Source,
}

/// Coflows in the full soak stream.
pub const SOAK_COFLOWS: u64 = 100_000;
/// Coflows in the stream's head that `soak_batch` and `fault_retry` use.
pub const SOAK_HEAD: u64 = 30_000;

/// Every workload, in the order `run.sh` runs them.
pub const WORKLOADS: [Spec; 8] = [
    Spec {
        name: "fb_replay",
        why: "the paper's trace replay: 1053 events, each a huge replan; PRT, Algorithm 1 and the scoped delta replan do all the work, ingestion none",
        kind: Kind::Engine { selector: "sunflow", guard: false },
        reps: 11,
        source: Source::Facebook,
    },
    Spec {
        name: "fb_guard",
        why: "same trace under the starvation guard, which forces the full-replan path: a delta-replan gain must show no change here",
        kind: Kind::Engine { selector: "sunflow", guard: true },
        reps: 3,
        source: Source::Facebook,
    },
    Spec {
        name: "fb_hybrid",
        why: "same trace on hybrid:solver:0.1: split bisection, packet fluid allocation and the hybrid compositor dominate",
        kind: Kind::Engine { selector: "hybrid:solver:0.1", guard: false },
        reps: 5,
        source: Source::Facebook,
    },
    Spec {
        name: "fb_kcore",
        why: "same trace on sunflow:4:least-loaded: placement, per-core PRT shards and the multi-core compositor",
        kind: Kind::Engine { selector: "sunflow:4:least-loaded", guard: false },
        reps: 15,
        source: Source::Facebook,
    },
    Spec {
        name: "intra_alone",
        why: "every Coflow alone on an idle fabric over the delta x B sweep: Algorithm 1 and the PRT with no stepper, delta or priority walk",
        kind: Kind::IntraAlone,
        reps: 11,
        source: Source::Facebook,
    },
    Spec {
        name: "soak_stream",
        why: "100000 small Coflows as JSONL through the daemon's sequential loop, one closed-loop client: per-event fixed cost, parsing, admission, acks",
        kind: Kind::SoakStream,
        reps: 5,
        source: Source::Soak(SOAK_COFLOWS),
    },
    Spec {
        name: "soak_batch",
        why: "first 30000 Coflows of that stream submitted up front: same stepper with a deep future-arrival queue, superlinear where streaming is not",
        kind: Kind::Engine { selector: "sunflow", guard: false },
        reps: 5,
        source: Source::Soak(SOAK_HEAD),
    },
    Spec {
        name: "fault_retry",
        why: "first 30000 Coflows through a daemon injecting setup failures, port flaps and slow retuning: the retry, backoff and cut path",
        kind: Kind::FaultRetry,
        reps: 5,
        source: Source::Soak(SOAK_HEAD),
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How long each part of one set-up pass took.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// Generating (and perturbing) the Coflows.
    pub generate_s: f64,
    /// Rendering the JSONL stream (soak workloads).
    pub to_jsonl_s: f64,
    /// Writing the trace file format and parsing it back (Facebook
    /// workloads).
    pub trace_roundtrip_s: f64,
    /// Size of that trace text.
    pub trace_bytes: usize,
}

impl SetupTimes {
    /// The whole pass.
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.to_jsonl_s + self.trace_roundtrip_s
    }
}

/// A workload's inputs.
#[derive(Clone, Debug)]
pub struct Inputs {
    /// The Coflows, in arrival order.
    pub coflows: Vec<Coflow>,
    /// The fabric they run on.
    pub fabric: Fabric,
    /// The same Coflows in the daemon's wire format (soak workloads;
    /// empty otherwise).
    pub jsonl: String,
    /// How long this pass took, by part.
    pub setup: SetupTimes,
}

fn secs<R>(acc: &mut f64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *acc += t.elapsed().as_secs_f64();
    r
}

/// One set-up pass: make `spec`'s inputs from `seed`.
pub fn prepare(spec: &Spec, seed: u64) -> Inputs {
    let mut setup = SetupTimes::default();
    match spec.source {
        Source::Facebook => {
            let base = SynthConfig::default();
            let coflows = secs(&mut setup.generate_s, || {
                perturb_sizes(&generate(&base), 0.05, base.seed ^ 0xabcd ^ seed)
            });
            // Inputs reach a user as a trace file: render and parse one.
            // (The format stores per-reducer totals, so the parse is
            // timed and checked but the generated Coflows are what runs.)
            let parsed = secs(&mut setup.trace_roundtrip_s, || {
                let text = trace::write(base.ports, &coflows);
                setup.trace_bytes = text.len();
                trace::parse(&text).expect("a written trace parses")
            });
            assert_eq!(parsed.coflows.len(), coflows.len());
            Inputs {
                coflows,
                fabric: Fabric::paper_default(),
                jsonl: String::new(),
                setup,
            }
        }
        Source::Soak(n) => {
            let base = LoadgenConfig::default();
            let config = LoadgenConfig {
                coflows: n,
                // Not the default 0.05: with exactly 5 % heavy Coflows
                // the 95th-percentile CCT sits on the boundary between
                // the unicast and the heavy population and jumps by 20 %
                // from seed to seed.
                heavy_fraction: 0.10,
                ..base
            };
            let coflows = secs(&mut setup.generate_s, || {
                let stream = generate_load(&config);
                if seed == 0 {
                    stream
                } else {
                    perturb_sizes(&stream, 0.05, base.seed ^ 0xabcd ^ seed)
                }
            });
            let jsonl = match spec.kind {
                Kind::SoakStream => secs(&mut setup.to_jsonl_s, || to_jsonl(&coflows)),
                _ => String::new(),
            };
            Inputs {
                coflows,
                fabric: Fabric::new(
                    config.ports,
                    Bandwidth::from_gbps(10),
                    Dur::from_micros(100),
                ),
                jsonl,
                setup,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_is_the_repositorys_own_workload() {
        let fb = prepare(find("fb_replay").unwrap(), 0);
        assert_eq!(fb.coflows, ocs_workload::paper_workload());
        assert_ne!(prepare(find("fb_replay").unwrap(), 7).coflows, fb.coflows);
    }

    #[test]
    fn soak_head_is_a_prefix_of_the_stream() {
        for seed in [0, 3] {
            let head = prepare(find("soak_batch").unwrap(), seed);
            let full = prepare(find("soak_stream").unwrap(), seed);
            assert_eq!(head.coflows.len() as u64, SOAK_HEAD);
            assert_eq!(head.coflows[..], full.coflows[..SOAK_HEAD as usize]);
            assert_eq!(full.jsonl.lines().count() as u64, SOAK_COFLOWS);
        }
        let base = prepare(find("soak_batch").unwrap(), 0).coflows;
        let other = prepare(find("soak_batch").unwrap(), 3).coflows;
        assert_ne!(base, other);
        assert!(base
            .iter()
            .zip(&other)
            .all(|(a, b)| a.arrival() == b.arrival()));
    }

    #[test]
    fn names_are_unique_and_found() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name).unwrap().name, w.name);
            assert!(w.why.len() <= 200, "{}", w.name);
        }
        assert!(find("nope").is_none());
    }
}
