//! The contract the bench runners rely on: a parallel sweep over real
//! simulation configurations produces **byte-identical** results to a
//! one-thread sweep for the same seeds, in the same order.

use ocs_bench::sweep::Sweep;
use ocs_metrics::SweepTiming;
use ocs_model::{Bandwidth, Coflow, Dur, Fabric, Time};
use ocs_sim::{run_intra, simulate_circuit, ActiveCircuitPolicy, IntraEngine, OnlineConfig};
use rand::{Rng, SeedableRng};
use sunflow_core::{ShortestFirst, SunflowConfig};

fn fabric() -> Fabric {
    Fabric::new(8, Bandwidth::GBPS, Dur::from_millis(10))
}

/// A small random trace, a pure function of `seed`.
fn trace(seed: u64) -> Vec<Coflow> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..6)
        .map(|id| {
            let mut b = Coflow::builder(id).arrival(Time::from_millis(rng.gen_range(0u64..40)));
            for _ in 0..rng.gen_range(1usize..6) {
                let src = rng.gen_range(0usize..8);
                let dst = rng.gen_range(0usize..8);
                b = b.flow(src, dst, rng.gen_range(100_000u64..4_000_000));
            }
            b.build()
        })
        .collect()
}

/// Render everything an experiment would consume to a canonical string;
/// equality of these strings is the byte-identical guarantee.
fn canonical<T: std::fmt::Debug>((values, timing): (Vec<T>, SweepTiming)) -> String {
    timing
        .runs
        .iter()
        .zip(values)
        .map(|(r, value)| format!("{}={value:?}\n", r.label))
        .collect()
}

fn build_online_sweep<'a>(
    fabric: &'a Fabric,
    traces: &'a [Vec<Coflow>],
    threads: usize,
) -> Sweep<'a, String> {
    let mut sweep = Sweep::new(threads);
    for (i, coflows) in traces.iter().enumerate() {
        for policy in [
            ActiveCircuitPolicy::Keep,
            ActiveCircuitPolicy::Preempt,
            ActiveCircuitPolicy::Yield,
        ] {
            sweep.add(format!("trace{i}/{policy:?}"), move || {
                let config = OnlineConfig::default().active_policy(policy);
                let result = simulate_circuit(coflows, fabric, &config, &ShortestFirst);
                format!("{:?}", result.outcomes)
            });
        }
    }
    sweep
}

#[test]
fn parallel_online_sweep_is_byte_identical_to_sequential() {
    let fabric = fabric();
    let traces: Vec<Vec<Coflow>> = (0..4).map(|s| trace(s * 101 + 7)).collect();

    let par = build_online_sweep(&fabric, &traces, 4).run();
    let seq = build_online_sweep(&fabric, &traces, 1).run();

    assert_eq!((par.0.len(), par.1.threads), (12, 4));
    assert_eq!(canonical(par), canonical(seq));
}

#[test]
fn parallel_intra_sweep_is_byte_identical_to_sequential() {
    let fabric = fabric();
    let traces: Vec<Vec<Coflow>> = (0..6).map(|s| trace(s * 31 + 1)).collect();

    let build = |threads| {
        let mut sweep = Sweep::new(threads);
        for (i, coflows) in traces.iter().enumerate() {
            let fabric = &fabric;
            sweep.add(format!("trace{i}"), move || {
                let outcomes = run_intra(
                    coflows,
                    fabric,
                    IntraEngine::Sunflow(SunflowConfig::default()),
                );
                format!("{outcomes:?}")
            });
        }
        sweep
    };

    let par = build(3).run();
    assert_eq!(par.1.threads, 3);
    assert_eq!(canonical(par), canonical(build(1).run()));
}

#[test]
fn repeated_parallel_runs_agree() {
    // Thread interleavings vary run to run; results must not.
    let fabric = fabric();
    let traces: Vec<Vec<Coflow>> = (0..3).map(trace).collect();
    let first = canonical(build_online_sweep(&fabric, &traces, 4).run());
    for _ in 0..3 {
        assert_eq!(
            first,
            canonical(build_online_sweep(&fabric, &traces, 4).run())
        );
    }
}
