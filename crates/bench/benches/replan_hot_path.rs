//! Criterion micro-benchmark of the re-plan hot path itself: the online
//! replay with affected-set skipping (the default) against the same
//! trace replayed with `full_replan(true)`. There is one replan path;
//! the `full` rows are that path with skipping off — every active
//! Coflow seeded at every round, each plan re-derived through the delta
//! view and confirmed in place where it comes out the same. The ratio
//! between the two entries is what skipping saves; a regression toward
//! parity means the affected-set closure stopped paying for itself. The
//! `+guard` pair replays the same trace under the §4.2 starvation guard,
//! whose timetable every probe of the table carries: both arms plan
//! around the same windows.

use criterion::{criterion_group, criterion_main, Criterion};
use ocs_model::{Bandwidth, Coflow, Dur, Fabric, Time};
use ocs_sim::{simulate_circuit, OnlineConfig};
use sunflow_core::{GuardConfig, ShortestFirst};

fn fabric() -> Fabric {
    Fabric::new(16, Bandwidth::GBPS, Dur::from_millis(10))
}

/// xorshift64* — deterministic workload without depending on `rand`'s
/// distribution stability.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545F4914F6CDD1D)
}

/// A contended trace that keeps a deep active set: every event re-plans
/// against a table with a long planned future, so reservation reuse and
/// the fresh-port scan mask both get a real workout.
fn workload(n: u64) -> Vec<Coflow> {
    let mut s = 0x00DE_17A0_0000_0001u64 | n;
    (0..n)
        .map(|id| {
            let mut b = Coflow::builder(id).arrival(Time::from_millis(xorshift(&mut s) % 3_000));
            for _ in 0..(1 + xorshift(&mut s) % 5) as usize {
                b = b.flow(
                    (xorshift(&mut s) % 16) as usize,
                    (xorshift(&mut s) % 16) as usize,
                    (1 + xorshift(&mut s) % 20) * 1_000_000,
                );
            }
            b.build()
        })
        .collect()
}

fn replan_hot_path(c: &mut Criterion) {
    let coflows = workload(150);
    let f = fabric();
    let mut group = c.benchmark_group("replan_hot_path_150");
    let guarded =
        OnlineConfig::default().guard(GuardConfig::new(Dur::from_secs(1), Dur::from_millis(40)));
    for (name, cfg) in [
        ("delta", OnlineConfig::default()),
        ("full", OnlineConfig::default().full_replan(true)),
        ("delta+guard", guarded),
        ("full+guard", guarded.full_replan(true)),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                std::hint::black_box(simulate_circuit(
                    std::hint::black_box(&coflows),
                    &f,
                    &cfg,
                    &ShortestFirst,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, replan_hot_path);
criterion_main!(benches);
