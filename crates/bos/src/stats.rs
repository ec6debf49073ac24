//! Per-block diagnostics: what did the separation actually do?
//!
//! Operators are usually judged only by output size; when tuning (or
//! reproducing Figure 9 / 12), you also want the *decomposition*: how many
//! values landed in each part, the three widths, and the bit savings
//! relative to plain packing. [`analyze`] computes that for any solver,
//! and [`SeriesStats`] aggregates it over a block-segmented series.

use crate::cost::{Solution, SortedBlock};
use crate::solver::{Solver, SolverScratch};

/// Decomposition of one block under a solver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockStats {
    /// Values in the block.
    pub n: usize,
    /// Lower outliers separated.
    pub nl: usize,
    /// Upper outliers separated.
    pub nu: usize,
    /// Widths (α, β, γ); zero for empty parts or when not separated.
    pub widths: (u32, u32, u32),
    /// Plain bit-packing cost (Definition 1), in bits.
    pub plain_bits: u64,
    /// Chosen solution's cost, in bits.
    pub solution_bits: u64,
}

impl BlockStats {
    /// Fraction of values separated as lower outliers.
    pub fn lower_frac(&self) -> f64 {
        self.nl as f64 / self.n.max(1) as f64
    }

    /// Fraction of values separated as upper outliers.
    pub fn upper_frac(&self) -> f64 {
        self.nu as f64 / self.n.max(1) as f64
    }

    /// Bits saved versus plain packing (0 when packing plain).
    pub fn saved_bits(&self) -> u64 {
        self.plain_bits.saturating_sub(self.solution_bits)
    }
}

/// Analyzes one block with the given solver.
pub fn analyze<S: Solver + Clone>(solver: &S, values: &[i64]) -> BlockStats {
    analyze_into(&mut solver.clone(), values, &mut SolverScratch::new())
}

/// Scratch-reusing workhorse behind [`analyze`] / [`analyze_series`].
fn analyze_into<S: Solver + ?Sized>(
    solver: &mut S,
    values: &[i64],
    scratch: &mut SolverScratch,
) -> BlockStats {
    let solution = solver.solve_into(values, scratch);
    let block = SortedBlock::from_values(values);
    let plain_bits = if values.is_empty() {
        0
    } else {
        block.plain_cost_bits()
    };
    match solution {
        Solution::Plain { cost_bits } => BlockStats {
            n: values.len(),
            nl: 0,
            nu: 0,
            widths: (0, 0, 0),
            plain_bits,
            solution_bits: cost_bits,
        },
        Solution::Separated { sep, cost_bits } => {
            let e = block.evaluate(sep);
            BlockStats {
                n: values.len(),
                nl: e.nl,
                nu: e.nu,
                widths: (e.alpha, e.beta, e.gamma),
                plain_bits,
                solution_bits: cost_bits,
            }
        }
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

/// Analyzes a series in blocks of `block_size`.
pub fn analyze_series<S: Solver + Clone>(
    solver: &S,
    values: &[i64],
    block_size: usize,
) -> SeriesStats {
    analyze_series_dyn(&mut solver.clone(), values, block_size)
}

/// Object-safe variant of [`analyze_series`] for callers that pick the
/// solver at runtime (e.g. `boscli stats` going through
/// [`SolverKind::build`](crate::SolverKind::build)). One scratch spans
/// all blocks.
pub fn analyze_series_dyn(
    solver: &mut dyn Solver,
    values: &[i64],
    block_size: usize,
) -> SeriesStats {
    assert!(block_size >= 1);
    let mut scratch = SolverScratch::new();
    let mut agg = SeriesStats::default();
    for chunk in values.chunks(block_size) {
        let s = analyze_into(solver, chunk, &mut scratch);
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
        let s = analyze(&BitWidthSolver::new(), &[3, 2, 4, 5, 3, 2, 0, 8]);
        assert_eq!(s.n, 8);
        assert_eq!((s.nl, s.nu), (1, 1));
        assert_eq!(s.plain_bits, 32);
        assert_eq!(s.solution_bits, 24);
        assert_eq!(s.saved_bits(), 8);
        assert_eq!(s.widths.1, 2);
    }

    #[test]
    fn plain_block_stats() {
        let values: Vec<i64> = (0..64).collect();
        let s = analyze(&BitWidthSolver::new(), &values);
        assert_eq!((s.nl, s.nu), (0, 0));
        assert_eq!(s.saved_bits(), 0);
        assert_eq!(s.widths, (0, 0, 0));
    }

    #[test]
    fn empty_block_stats() {
        let s = analyze(&MedianSolver::new(), &[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.lower_frac(), 0.0);
    }

    #[test]
    fn series_aggregation() {
        let mut values: Vec<i64> = (0..4096).map(|i| 100 + (i % 8)).collect();
        for i in (0..values.len()).step_by(100) {
            values[i] = 1 << 30;
        }
        let agg = analyze_series(&BitWidthSolver::new(), &values, 1024);
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
        let agg = analyze_series(&BitWidthSolver::new(), &values, 256);
        assert!(agg.lower_frac() + agg.upper_frac() < 1.0);
        assert!(agg.lower_frac() > 0.0);
    }
}
