//! Per-block diagnostics: what did the separation actually do?
//!
//! Operators are usually judged only by output size; when tuning (or
//! reproducing Figure 9 / 12), you also want the *decomposition*: how many
//! values landed in each part and the bit savings relative to plain
//! packing. [`analyze_series`] computes that for any solver over a
//! block-segmented series, aggregated into [`SeriesStats`].

use crate::cost::{Solution, SortedBlock};
use crate::solver::{Solver, SolverScratch};

/// Decomposition of one block under a solver.
struct BlockStats {
    /// Values in the block.
    n: usize,
    /// Lower outliers separated.
    nl: usize,
    /// Upper outliers separated.
    nu: usize,
    /// Plain bit-packing cost (Definition 1), in bits.
    plain_bits: u64,
    /// Chosen solution's cost, in bits.
    solution_bits: u64,
}

/// Solves one block and decomposes the chosen solution.
fn analyze_block(
    solver: &mut dyn Solver,
    values: &[i64],
    scratch: &mut SolverScratch,
) -> BlockStats {
    let solution = solver.solve_into(values, scratch);
    let block = SortedBlock::from_values(values);
    let (nl, nu) = match solution {
        Solution::Plain { .. } => (0, 0),
        Solution::Separated { sep, .. } => {
            let e = block.evaluate(sep);
            (e.nl, e.nu)
        }
    };
    BlockStats {
        n: values.len(),
        nl,
        nu,
        plain_bits: block.plain_cost_bits(),
        solution_bits: solution.cost_bits(),
    }
}

/// Aggregate decomposition over a block-segmented series.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SeriesStats {
    /// Total values.
    pub n: usize,
    /// Total lower outliers.
    pub nl: usize,
    /// Total upper outliers.
    pub nu: usize,
    /// Blocks where separation beat plain packing.
    pub separated_blocks: usize,
    /// Total blocks.
    pub blocks: usize,
    /// Sum of plain costs (bits).
    pub plain_bits: u64,
    /// Sum of solution costs (bits).
    pub solution_bits: u64,
}

impl SeriesStats {
    /// Fraction of values separated as lower outliers.
    pub fn lower_frac(&self) -> f64 {
        self.nl as f64 / self.n.max(1) as f64
    }

    /// Fraction of values separated as upper outliers.
    pub fn upper_frac(&self) -> f64 {
        self.nu as f64 / self.n.max(1) as f64
    }

    /// Payload-bit improvement factor vs. plain packing.
    pub fn improvement(&self) -> f64 {
        self.plain_bits as f64 / self.solution_bits.max(1) as f64
    }
}

/// Analyzes a series in blocks of `block_size` with any solver, including
/// one picked at runtime (e.g. `boscli stats` going through
/// [`SolverKind::build`](crate::SolverKind::build)). One scratch spans
/// all blocks.
pub fn analyze_series(solver: &mut dyn Solver, values: &[i64], block_size: usize) -> SeriesStats {
    assert!(block_size >= 1);
    let mut scratch = SolverScratch::new();
    let mut agg = SeriesStats::default();
    for chunk in values.chunks(block_size) {
        let s = analyze_block(solver, chunk, &mut scratch);
        agg.n += s.n;
        agg.nl += s.nl;
        agg.nu += s.nu;
        agg.blocks += 1;
        if s.solution_bits < s.plain_bits {
            agg.separated_blocks += 1;
        }
        agg.plain_bits += s.plain_bits;
        agg.solution_bits += s.solution_bits;
    }
    agg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{BitWidthSolver, MedianSolver};

    #[test]
    fn intro_block_stats() {
        let values = [3, 2, 4, 5, 3, 2, 0, 8];
        let s = analyze_series(&mut BitWidthSolver::new(), &values, values.len());
        assert_eq!((s.n, s.blocks, s.separated_blocks), (8, 1, 1));
        assert_eq!((s.nl, s.nu), (1, 1));
        assert_eq!(s.plain_bits, 32);
        assert_eq!(s.solution_bits, 24);
    }

    #[test]
    fn plain_block_stats() {
        let values: Vec<i64> = (0..64).collect();
        let s = analyze_series(&mut BitWidthSolver::new(), &values, values.len());
        assert_eq!((s.nl, s.nu), (0, 0));
        assert_eq!(s.separated_blocks, 0);
        assert_eq!(s.solution_bits, s.plain_bits);
    }

    #[test]
    fn empty_block_stats() {
        let s = analyze_series(&mut MedianSolver::new(), &[], 1024);
        assert_eq!((s.n, s.blocks), (0, 0));
        assert_eq!(s.lower_frac(), 0.0);
    }

    #[test]
    fn series_aggregation() {
        let mut values: Vec<i64> = (0..4096).map(|i| 100 + (i % 8)).collect();
        for i in (0..values.len()).step_by(100) {
            values[i] = 1 << 30;
        }
        let agg = analyze_series(&mut BitWidthSolver::new(), &values, 1024);
        assert_eq!(agg.blocks, 4);
        assert_eq!(agg.separated_blocks, 4);
        assert_eq!(agg.n, 4096);
        assert!(agg.nu >= 40, "nu = {}", agg.nu);
        assert!(agg.improvement() > 3.0, "{}", agg.improvement());
    }

    #[test]
    fn fractions_sum_below_one() {
        let values: Vec<i64> = (0..1000)
            .map(|i| if i % 9 == 0 { -5000 } else { i % 20 })
            .collect();
        let agg = analyze_series(&mut BitWidthSolver::new(), &values, 256);
        assert!(agg.lower_frac() + agg.upper_frac() < 1.0);
        assert!(agg.lower_frac() > 0.0);
    }
}
