//! Dense demand matrices in processing-time units.
//!
//! The assignment-based circuit schedulers (Solstice, TMS, Edmond) operate
//! on a single `N x N` demand matrix `D`. Following Equation (1) of the
//! paper we translate byte demand to *processing time* once
//! (`p_ij = d_ij / B`) and run every scheduler on the same integer
//! picosecond matrix, so all algorithms see exactly the same input.

use crate::coflow::Coflow;
use crate::fabric::Fabric;
use crate::time::Dur;

/// A dense `n x n` matrix of processing times (picoseconds), indexed as
/// `(input port, output port)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DemandMatrix {
    n: usize,
    data: Vec<u64>,
}

impl DemandMatrix {
    /// An all-zero `n x n` matrix.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    pub fn zero(n: usize) -> DemandMatrix {
        assert!(n > 0, "demand matrix must have at least one port");
        DemandMatrix {
            n,
            data: vec![0; n * n],
        }
    }

    /// The processing-time matrix of a single Coflow on `fabric`
    /// (the intra-Coflow scheduling input).
    ///
    /// # Panics
    /// Panics if the Coflow references ports outside the fabric.
    pub fn from_coflow(coflow: &Coflow, fabric: &Fabric) -> DemandMatrix {
        DemandMatrix::from_coflows(std::slice::from_ref(coflow), fabric)
    }

    /// Aggregate several Coflows into one matrix. This is how the
    /// assignment-based baselines must consume multi-Coflow demand: they
    /// "aggregate the demand from multiple Coflows as one generic demand"
    /// (§3.2 of the paper), losing the Coflow structure.
    pub fn from_coflows(coflows: &[Coflow], fabric: &Fabric) -> DemandMatrix {
        let mut m = DemandMatrix::zero(fabric.ports());
        for c in coflows {
            assert!(
                fabric.fits(c),
                "coflow {} references ports beyond the {}-port fabric",
                c.id(),
                fabric.ports()
            );
            for f in c.flows() {
                m.add(f.src, f.dst, fabric.processing_time(f.bytes));
            }
        }
        m
    }

    /// Matrix dimension (the fabric port count `N`).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Processing time at `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> Dur {
        Dur::from_ps(self.data[self.idx(i, j)])
    }

    /// Overwrite the processing time at `(i, j)`.
    pub fn set(&mut self, i: usize, j: usize, p: Dur) {
        let k = self.idx(i, j);
        self.data[k] = p.as_ps();
    }

    /// Add processing time at `(i, j)`.
    pub fn add(&mut self, i: usize, j: usize, p: Dur) {
        let k = self.idx(i, j);
        self.data[k] = self.data[k]
            .checked_add(p.as_ps())
            .expect("demand matrix entry overflow");
    }

    /// Subtract up to `p` from `(i, j)`, saturating at zero. Returns the
    /// amount actually subtracted.
    pub fn drain(&mut self, i: usize, j: usize, p: Dur) -> Dur {
        let k = self.idx(i, j);
        let took = self.data[k].min(p.as_ps());
        self.data[k] -= took;
        Dur::from_ps(took)
    }

    /// Row sum: total processing time requested on input port `i`.
    pub fn row_sum(&self, i: usize) -> Dur {
        Dur::from_ps(self.data[i * self.n..(i + 1) * self.n].iter().sum())
    }

    /// Column sum: total processing time requested on output port `j`.
    pub fn col_sum(&self, j: usize) -> Dur {
        Dur::from_ps((0..self.n).map(|i| self.data[i * self.n + j]).sum())
    }

    /// Iterate over the non-zero entries as `(i, j, p_ij)`.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, usize, Dur)> + '_ {
        self.data.iter().enumerate().filter_map(move |(k, &v)| {
            if v > 0 {
                Some((k / self.n, k % self.n, Dur::from_ps(v)))
            } else {
                None
            }
        })
    }

    /// Number of non-zero entries, `|C|` for a single-Coflow matrix.
    pub fn num_nonzero(&self) -> usize {
        self.data.iter().filter(|&&v| v > 0).count()
    }

    /// True if every entry is zero (all demand drained).
    pub fn is_zero(&self) -> bool {
        self.data.iter().all(|&v| v == 0)
    }

    /// Total processing time over all entries.
    pub fn total(&self) -> Dur {
        Dur::from_ps(self.data.iter().sum())
    }

    fn idx(&self, i: usize, j: usize) -> usize {
        assert!(i < self.n && j < self.n, "port index out of range");
        i * self.n + j
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Bandwidth;

    fn fabric() -> Fabric {
        Fabric::new(3, Bandwidth::GBPS, Dur::from_millis(10))
    }

    #[test]
    fn from_coflow_translates_bytes_to_processing_time() {
        let c = Coflow::builder(0).flow(0, 1, 1_000_000).build();
        let m = DemandMatrix::from_coflow(&c, &fabric());
        assert_eq!(m.get(0, 1), Dur::from_millis(8));
        assert_eq!(m.get(0, 0), Dur::ZERO);
        assert_eq!(m.num_nonzero(), 1);
    }

    #[test]
    fn aggregation_merges_coflows() {
        let a = Coflow::builder(0).flow(0, 1, 1_000_000).build();
        let b = Coflow::builder(1)
            .flow(0, 1, 1_000_000)
            .flow(2, 2, 125_000)
            .build();
        let m = DemandMatrix::from_coflows(&[a, b], &fabric());
        assert_eq!(m.get(0, 1), Dur::from_millis(16));
        assert_eq!(m.get(2, 2), Dur::from_millis(1));
    }

    #[test]
    fn sums() {
        let mut m = DemandMatrix::zero(3);
        m.set(0, 0, Dur::from_millis(5));
        m.set(0, 1, Dur::from_millis(3));
        m.set(1, 1, Dur::from_millis(9));
        assert_eq!(m.row_sum(0), Dur::from_millis(8));
        assert_eq!(m.col_sum(1), Dur::from_millis(12));
        assert_eq!(m.total(), Dur::from_millis(17));
    }

    #[test]
    fn drain_saturates() {
        let mut m = DemandMatrix::zero(2);
        m.set(0, 0, Dur::from_millis(5));
        assert_eq!(m.drain(0, 0, Dur::from_millis(3)), Dur::from_millis(3));
        assert_eq!(m.drain(0, 0, Dur::from_millis(9)), Dur::from_millis(2));
        assert!(m.is_zero());
    }

    #[test]
    #[should_panic(expected = "beyond the")]
    fn oversized_coflow_rejected() {
        let c = Coflow::builder(0).flow(7, 0, 1).build();
        let _ = DemandMatrix::from_coflow(&c, &fabric());
    }
}
