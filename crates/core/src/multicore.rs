//! K-core placement: which core carries each subflow.
//!
//! The multi-core OCS papers named in the workspace's PAPERS.md model the
//! network as `K` parallel circuit planes ("cores") over the same `N`
//! hosts; every host owns one transceiver per core, so the cores are
//! fully independent switching fabrics. A `K`-core fabric is therefore
//! one [`Prt`](crate::Prt) over `K·N` ports (local port `p` of core `c`
//! is port `c·N + p`), and what is left to decide is placement:
//! [`CoreAssign`] — given a Coflow and the current per-core byte loads
//! ([`CoreLoad`]), return one core per flow. Implementations:
//! [`StaticHash`] (stateless FNV), [`RoundRobin`], [`LeastLoaded`] (by
//! outstanding reserved bytes) and [`RankPack`] (demand-aware: biggest
//! flows first, each to the core minimizing its bottleneck-port load).

use ocs_model::{Coflow, InPort, OutPort};

// ---------------------------------------------------------------------
// Core loads
// ---------------------------------------------------------------------

/// Outstanding per-core byte loads, the input of load-aware placement:
/// total bytes per core plus per-port send/receive bytes per core.
/// The owner adds a Coflow's flows when it places them and removes them
/// when the Coflow completes, so the gauge tracks *outstanding* demand.
#[derive(Clone, Debug)]
pub struct CoreLoad {
    total: Vec<u64>,
    in_bytes: Vec<Vec<u64>>,
    out_bytes: Vec<Vec<u64>>,
}

impl CoreLoad {
    /// Zero load over `cores` cores of `ports` ports each.
    pub fn new(cores: usize, ports: usize) -> CoreLoad {
        assert!(cores > 0, "load tracking needs at least one core");
        CoreLoad {
            total: vec![0; cores],
            in_bytes: vec![vec![0; ports]; cores],
            out_bytes: vec![vec![0; ports]; cores],
        }
    }

    /// Number of cores tracked.
    pub fn cores(&self) -> usize {
        self.total.len()
    }

    /// Account `bytes` of demand from `src` to `dst` on `core`.
    pub fn add(&mut self, core: usize, src: InPort, dst: OutPort, bytes: u64) {
        self.total[core] += bytes;
        self.in_bytes[core][src] += bytes;
        self.out_bytes[core][dst] += bytes;
    }

    /// Release `bytes` of demand from `src` to `dst` on `core`.
    pub fn remove(&mut self, core: usize, src: InPort, dst: OutPort, bytes: u64) {
        self.total[core] -= bytes;
        self.in_bytes[core][src] -= bytes;
        self.out_bytes[core][dst] -= bytes;
    }

    /// Outstanding bytes on `core`.
    pub fn total(&self, core: usize) -> u64 {
        self.total[core]
    }

    /// Outstanding `(send, receive)` bytes of `(src, dst)` on `core`.
    pub fn port_load(&self, core: usize, src: InPort, dst: OutPort) -> (u64, u64) {
        (self.in_bytes[core][src], self.out_bytes[core][dst])
    }
}

// ---------------------------------------------------------------------
// Placement policies
// ---------------------------------------------------------------------

/// A subflow→core placement policy: one core index per flow of
/// `coflow`, each strictly below `cores`.
///
/// Policies may consult the outstanding loads but never mutate them —
/// the caller accounts the placement it actually commits (and releases
/// it on completion), so a rejected or re-planned placement never
/// skews the gauge.
pub trait CoreAssign {
    /// Canonical policy name for labels and selectors.
    fn name(&self) -> &'static str;

    /// Place every flow of `coflow`: returns `coflow.num_flows()` core
    /// indices, each `< cores`.
    fn assign(&mut self, coflow: &Coflow, cores: usize, load: &CoreLoad) -> Vec<usize>;
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

fn fnv1a(seed: u64, words: &[u64]) -> u64 {
    let mut h = FNV_OFFSET ^ seed.wrapping_mul(FNV_PRIME);
    for &w in words {
        for byte in w.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// Stateless placement: FNV-1a over `(coflow id, src, dst)` modulo `K`.
/// Deterministic, history-free, and uniform in expectation — the
/// baseline every load-aware policy has to beat.
#[derive(Clone, Copy, Debug, Default)]
pub struct StaticHash;

impl CoreAssign for StaticHash {
    fn name(&self) -> &'static str {
        "hash"
    }

    fn assign(&mut self, coflow: &Coflow, cores: usize, _load: &CoreLoad) -> Vec<usize> {
        coflow
            .flows()
            .iter()
            .map(|f| (fnv1a(coflow.id(), &[f.src as u64, f.dst as u64]) % cores as u64) as usize)
            .collect()
    }
}

/// Flow-index round-robin within each Coflow: flow `i` to core
/// `i mod K`. Spreads every Coflow across all cores regardless of load.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundRobin;

impl CoreAssign for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn assign(&mut self, coflow: &Coflow, cores: usize, _load: &CoreLoad) -> Vec<usize> {
        (0..coflow.num_flows()).map(|i| i % cores).collect()
    }
}

/// Least-loaded-by-reserved-bytes: each flow (in Coflow order) goes to
/// the core with the least outstanding bytes, counting the bytes this
/// call has already placed; ties break to the lowest core index.
#[derive(Clone, Copy, Debug, Default)]
pub struct LeastLoaded;

impl CoreAssign for LeastLoaded {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn assign(&mut self, coflow: &Coflow, cores: usize, load: &CoreLoad) -> Vec<usize> {
        let mut totals: Vec<u64> = (0..cores).map(|c| load.total(c)).collect();
        coflow
            .flows()
            .iter()
            .map(|f| {
                let mut best = 0;
                for c in 1..cores {
                    if totals[c] < totals[best] {
                        best = c;
                    }
                }
                totals[best] += f.bytes;
                best
            })
            .collect()
    }
}

/// Demand-aware rank-packing: flows are considered biggest-first (the
/// classic longest-processing-time list-scheduling order), and each
/// goes to the core where its *bottleneck port* — the busier of its
/// send and receive port, after adding the flow — ends up least
/// loaded. Ties break to the lowest core index. This is the placement
/// rule of the O(K)-approximation analysis: balancing bottleneck-port
/// load across cores bounds the per-port completion time against the
/// K-core lower bound.
#[derive(Clone, Copy, Debug, Default)]
pub struct RankPack;

impl CoreAssign for RankPack {
    fn name(&self) -> &'static str {
        "rank-pack"
    }

    fn assign(&mut self, coflow: &Coflow, cores: usize, load: &CoreLoad) -> Vec<usize> {
        let flows = coflow.flows();
        let mut order: Vec<usize> = (0..flows.len()).collect();
        order.sort_by(|&a, &b| flows[b].bytes.cmp(&flows[a].bytes).then(a.cmp(&b)));
        // This call's own placements, accumulated on top of the global
        // gauge so sibling subflows sharing a port spread out.
        let mut extra_in: Vec<(usize, usize, u64)> = Vec::new();
        let mut extra_out: Vec<(usize, usize, u64)> = Vec::new();
        let added = |list: &[(usize, usize, u64)], core: usize, port: usize| -> u64 {
            list.iter()
                .filter(|&&(c, p, _)| c == core && p == port)
                .map(|&(_, _, b)| b)
                .sum()
        };
        let mut placement = vec![0usize; flows.len()];
        for &fi in &order {
            let f = &flows[fi];
            let mut best = 0usize;
            let mut best_cost = u64::MAX;
            for c in 0..cores {
                let (gi, go) = load.port_load(c, f.src, f.dst);
                let ci = gi + added(&extra_in, c, f.src) + f.bytes;
                let co = go + added(&extra_out, c, f.dst) + f.bytes;
                let cost = ci.max(co);
                if cost < best_cost {
                    best_cost = cost;
                    best = c;
                }
            }
            extra_in.push((best, f.src, f.bytes));
            extra_out.push((best, f.dst, f.bytes));
            placement[fi] = best;
        }
        placement
    }
}

/// Every named placement policy, selectable by name (the
/// `--backend sunflow:<K>:<assign>` selector and the bench sweeps).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoreAssignKind {
    /// [`StaticHash`].
    StaticHash,
    /// [`RoundRobin`].
    RoundRobin,
    /// [`LeastLoaded`].
    LeastLoaded,
    /// [`RankPack`].
    RankPack,
}

impl CoreAssignKind {
    /// Every selectable placement policy.
    pub const ALL: [CoreAssignKind; 4] = [
        CoreAssignKind::StaticHash,
        CoreAssignKind::RoundRobin,
        CoreAssignKind::LeastLoaded,
        CoreAssignKind::RankPack,
    ];

    /// The canonical selector name.
    pub fn name(&self) -> &'static str {
        match self {
            CoreAssignKind::StaticHash => "hash",
            CoreAssignKind::RoundRobin => "round-robin",
            CoreAssignKind::LeastLoaded => "least-loaded",
            CoreAssignKind::RankPack => "rank-pack",
        }
    }

    /// Construct the policy.
    pub fn build(&self) -> Box<dyn CoreAssign + Send> {
        match self {
            CoreAssignKind::StaticHash => Box::new(StaticHash),
            CoreAssignKind::RoundRobin => Box::new(RoundRobin),
            CoreAssignKind::LeastLoaded => Box::new(LeastLoaded),
            CoreAssignKind::RankPack => Box::new(RankPack),
        }
    }
}

/// A placement-policy selector no [`CoreAssignKind`] answers to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnknownAssignError {
    /// The rejected selector.
    pub input: String,
}

impl std::fmt::Display for UnknownAssignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown placement policy '{}' (expected one of: hash, round-robin, least-loaded, rank-pack)",
            self.input
        )
    }
}

impl std::error::Error for UnknownAssignError {}

impl std::str::FromStr for CoreAssignKind {
    type Err = UnknownAssignError;

    fn from_str(s: &str) -> Result<CoreAssignKind, UnknownAssignError> {
        match s.to_ascii_lowercase().as_str() {
            "hash" | "static-hash" => Ok(CoreAssignKind::StaticHash),
            "rr" | "round-robin" | "roundrobin" => Ok(CoreAssignKind::RoundRobin),
            "least-loaded" | "leastloaded" | "ll" => Ok(CoreAssignKind::LeastLoaded),
            "rank-pack" | "rankpack" | "rp" => Ok(CoreAssignKind::RankPack),
            _ => Err(UnknownAssignError {
                input: s.to_string(),
            }),
        }
    }
}

impl std::fmt::Display for CoreAssignKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ocs_model::Time;

    fn sample() -> Coflow {
        Coflow::builder(3)
            .arrival(Time::from_millis(5))
            .flow(0, 1, 100)
            .flow(1, 2, 900)
            .flow(2, 0, 400)
            .flow(3, 3, 900)
            .build()
    }

    #[test]
    fn every_policy_places_within_range_and_deterministically() {
        let c = sample();
        let load = CoreLoad::new(3, 4);
        for kind in CoreAssignKind::ALL {
            let mut p1 = kind.build();
            let mut p2 = kind.build();
            let a = p1.assign(&c, 3, &load);
            assert_eq!(a.len(), c.num_flows(), "{kind}");
            assert!(a.iter().all(|&core| core < 3), "{kind}");
            assert_eq!(a, p2.assign(&c, 3, &load), "{kind}");
            assert_eq!(kind.name().parse::<CoreAssignKind>(), Ok(kind));
        }
        assert!("warp".parse::<CoreAssignKind>().is_err());
    }

    #[test]
    fn least_loaded_balances_bytes() {
        let c = sample();
        let load = CoreLoad::new(2, 4);
        let a = LeastLoaded.assign(&c, 2, &load);
        // 100 → c0, 900 → c1, 400 → c0, 900 → c0 (500 < 900).
        assert_eq!(a, vec![0, 1, 0, 0]);

        let mut loaded = CoreLoad::new(2, 4);
        loaded.add(0, 0, 0, 10_000);
        let b = LeastLoaded.assign(&c, 2, &loaded);
        assert!(b.iter().all(|&core| core == 1), "core 0 is drowned");
    }

    #[test]
    fn rank_pack_spreads_a_shared_port() {
        // Four equal flows out of the same src port, two cores: the
        // bottleneck rule alternates them.
        let c = Coflow::builder(1)
            .flow(0, 1, 1_000)
            .flow(0, 2, 1_000)
            .flow(0, 3, 1_000)
            .flow(0, 4, 1_000)
            .build();
        let load = CoreLoad::new(2, 8);
        let a = RankPack.assign(&c, 2, &load);
        assert_eq!(a.iter().filter(|&&core| core == 0).count(), 2);
        assert_eq!(a.iter().filter(|&&core| core == 1).count(), 2);
    }

    #[test]
    fn core_load_add_remove_round_trips() {
        let mut load = CoreLoad::new(2, 4);
        load.add(1, 2, 3, 500);
        assert_eq!(load.total(1), 500);
        assert_eq!(load.port_load(1, 2, 3), (500, 500));
        assert_eq!(load.port_load(0, 2, 3), (0, 0));
        load.remove(1, 2, 3, 500);
        assert_eq!(load.total(1), 0);
        assert_eq!(load.port_load(1, 2, 3), (0, 0));
    }
}
