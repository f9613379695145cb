//! The counting allocator against a known `Vec` push sequence. Its own
//! test binary with a single test, so no other test thread allocates
//! while the counters are read.

use ocs_benchmark::alloc::{self, Counting};

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn counts_a_known_vec_push_sequence() {
    let (a0, b0) = alloc::counts();
    let quiet: Vec<u64> = Vec::with_capacity(100);
    assert_eq!(alloc::counts(), (a0, b0), "counting is off by default");
    drop(quiet);

    alloc::enable(true);
    let (a1, b1) = alloc::counts();
    // `Vec<u64>` grows 0 -> 4 -> 8 -> 16: one allocation and two
    // reallocations for nine pushes.
    let mut v: Vec<u64> = Vec::new();
    for i in 0..9 {
        v.push(i);
    }
    let exact: Vec<u64> = Vec::with_capacity(1000);
    let (a2, b2) = alloc::counts();
    alloc::enable(false);
    assert_eq!(v.capacity(), 16);
    assert_eq!(a2 - a1, 4);
    assert_eq!(b2 - b1, (4 + 8 + 16 + 1000) * 8);
    drop(exact);
}
