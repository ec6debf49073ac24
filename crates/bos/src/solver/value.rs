//! BOS-V — exact value separation (Algorithm 1).
//!
//! Proposition 1 shows some optimal `(xl, xu)` has both thresholds in the
//! block, so it suffices to enumerate the distinct sorted values as `xl` and
//! `xu`. With the cumulative counts of Definition 6 each candidate costs
//! O(1), giving O(m²) for `m` distinct values — the paper's quadratic
//! baseline, kept (a) as the ground truth that BOS-B is verified against
//! and (b) for the Figure 10/15 timing comparisons.

use super::{Solver, SolverConfig, SolverScratch};
use crate::cost::{Separation, Solution, SortedBlock};
use bitpack::width::{range_u64, width1};

/// Result of the O(m²) scan.
struct RangeBest {
    cost: u64,
    pair: Option<(usize, usize)>,
    candidates: u64,
    prunes: u64,
}

// Search-effort tallies: `candidates` counts (xl, xu) pairs costed via
// Formula 7, `prunes` counts pairs skipped without costing (only the
// all-plain pair for BOS-V — the quadratic baseline prunes nothing else,
// which is exactly what these counters are meant to make visible).
static CANDIDATES: obs::CounterHandle = obs::CounterHandle::new("solver.BOS-V.candidates");
static PRUNES: obs::CounterHandle = obs::CounterHandle::new("solver.BOS-V.prunes");
static BLOCKS: obs::CounterHandle = obs::CounterHandle::new("solver.BOS-V.blocks");

/// The O(m²) exact solver (BOS-V).
#[derive(Debug, Clone, Copy, Default)]
pub struct ValueSolver {
    /// Shared configuration (upper-only ablation).
    pub config: SolverConfig,
}

impl ValueSolver {
    /// Creates the solver with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an upper-outlier-only variant (Figure 12 ablation).
    pub fn upper_only() -> Self {
        Self {
            config: SolverConfig { upper_only: true },
        }
    }
}

impl Solver for ValueSolver {
    fn name(&self) -> &'static str {
        if self.config.upper_only {
            "BOS-V (upper only)"
        } else {
            "BOS-V"
        }
    }

    fn solve_into(&mut self, values: &[i64], scratch: &mut SolverScratch) -> Solution {
        scratch.block.rebuild(values, &mut scratch.buf);
        self.solve(&scratch.block)
    }
}

/// Scans the families `li ∈ [0, hi)` of the O(m²) enumeration and returns
/// the best pair, seeded with the plain cost so a fruitless scan reports
/// `pair: None`. The update uses strict `<`, so the first attainer of the
/// optimum in visit order wins ties.
fn search_range(block: &SortedBlock, hi: usize) -> RangeBest {
    let vals = block.distinct();
    let cum = block.cumulative();
    let n = block.n() as u64;
    let m = vals.len();
    let xmin = vals[0];
    let xmax = vals[m - 1];

    let mut best = RangeBest {
        cost: block.plain_cost_bits(),
        pair: None,
        candidates: 0,
        prunes: 0,
    };

    // li = 0 encodes xl = None; li = k ≥ 1 encodes xl = vals[k−1].
    // ui = m encodes xu = None; ui < m encodes xu = vals[ui].
    for li in 0..hi {
        let (nl, alpha) = if li == 0 {
            (0u64, 0u64)
        } else {
            (
                cum[li - 1] as u64,
                width1(range_u64(xmin, vals[li - 1])) as u64,
            )
        };
        let lower_term = nl * (alpha + 1);
        for ui in li..=m {
            if li == 0 && ui == m {
                best.prunes += 1;
                continue; // exactly the plain solution
            }
            best.candidates += 1;
            let (nu, gamma) = if ui == m {
                (0u64, 0u64)
            } else {
                // count of values < vals[ui] is cum[ui−1] (0 when ui = 0).
                let lt = if ui == 0 { 0 } else { cum[ui - 1] } as u64;
                (n - lt, width1(range_u64(vals[ui], xmax)) as u64)
            };
            let nc = n - nl - nu;
            let beta = if nc > 0 {
                width1(range_u64(vals[li], vals[ui - 1])) as u64
            } else {
                0
            };
            let cost = lower_term + nu * (gamma + 1) + nc * beta + n;
            if cost < best.cost {
                best.cost = cost;
                best.pair = Some((li, ui));
            }
        }
    }
    best
}

impl ValueSolver {
    /// Solves from a pre-built [`SortedBlock`] summary.
    ///
    /// The inner loop computes Formula 7 in O(1) per candidate pair from
    /// the cumulative counts — exactly the trick Algorithm 1 describes —
    /// so the whole search is O(m²) and not O(m² log m).
    pub fn solve(&self, block: &SortedBlock) -> Solution {
        let mut best = Solution::Plain {
            cost_bits: block.plain_cost_bits(),
        };
        if block.is_empty() {
            return best;
        }
        let vals = block.distinct();
        let m = vals.len();

        let li_end = if self.config.upper_only { 1 } else { m + 1 };
        let found = search_range(block, li_end);

        BLOCKS.inc();
        CANDIDATES.add(found.candidates);
        PRUNES.add(found.prunes);
        obs::trail::emit(obs::trail::Event::BlockSolved {
            solver: self.name(),
            separated: found.pair.is_some(),
            cost_bits: found.cost,
            candidates: found.candidates,
            prunes: found.prunes,
        });
        let best_cost = found.cost;
        if let Some((li, ui)) = found.pair {
            let sep = Separation {
                xl: if li == 0 { None } else { Some(vals[li - 1]) },
                xu: if ui == m { None } else { Some(vals[ui]) },
            };
            debug_assert_eq!(block.evaluate(sep).cost_bits, best_cost);
            best = Solution::Separated {
                sep,
                cost_bits: best_cost,
            };
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::solve_values;

    #[test]
    fn intro_example_finds_both_outliers() {
        // X = (3,2,4,5,3,2,0,8): the optimal separation stores 0 and 8
        // apart, costing 24 bits against 32 for plain packing.
        let solver = ValueSolver::new();
        let sol = solve_values(&solver, &[3, 2, 4, 5, 3, 2, 0, 8]);
        assert_eq!(sol.cost_bits(), 24);
        let sep = sol.separation().expect("separates");
        assert_eq!(sep.xl, Some(0));
        assert_eq!(sep.xu, Some(8));
    }

    #[test]
    fn uniform_block_stays_plain() {
        // No outliers to exploit: separation would only add the bitmap.
        let solver = ValueSolver::new();
        let values: Vec<i64> = (0..64).collect();
        let sol = solve_values(&solver, &values);
        assert!(matches!(sol, Solution::Plain { .. }));
        assert_eq!(sol.cost_bits(), 64 * 6);
    }

    #[test]
    fn constant_block_stays_plain() {
        let solver = ValueSolver::new();
        let sol = solve_values(&solver, &[42; 100]);
        assert!(matches!(sol, Solution::Plain { .. }));
        assert_eq!(sol.cost_bits(), 0);
    }

    #[test]
    fn empty_block() {
        let solver = ValueSolver::new();
        let sol = solve_values(&solver, &[]);
        assert_eq!(sol.cost_bits(), 0);
    }

    #[test]
    fn single_value() {
        let solver = ValueSolver::new();
        let sol = solve_values(&solver, &[123]);
        assert!(matches!(sol, Solution::Plain { .. }));
    }

    #[test]
    fn two_clusters_split_entirely() {
        // Two tight clusters far apart: best is lower cluster + upper
        // cluster with an empty center (or equivalent), beating one wide
        // packing.
        let mut values = vec![0i64, 1, 2, 3];
        values.extend([1_000_000, 1_000_001, 1_000_002, 1_000_003]);
        let solver = ValueSolver::new();
        let sol = solve_values(&solver, &values);
        let plain = SortedBlock::from_values(&values).plain_cost_bits();
        assert!(sol.cost_bits() < plain);
        // 8 values × (2 value bits + ~2 bitmap bits) ≈ 32 bits, far below
        // 8 × 20 = 160.
        assert!(sol.cost_bits() <= 40);
    }

    #[test]
    fn upper_only_never_separates_lower() {
        let values = [3i64, 2, 4, 5, 3, 2, 0, 8];
        let solver = ValueSolver::upper_only();
        let sol = solve_values(&solver, &values);
        if let Some(sep) = sol.separation() {
            assert_eq!(sep.xl, None);
        }
        // And it can never beat the unrestricted solver.
        let full = solve_values(&ValueSolver::new(), &values);
        assert!(sol.cost_bits() >= full.cost_bits());
    }

    #[test]
    fn lower_outliers_matter() {
        // Values with only a lower tail: upper-only must do strictly worse.
        let mut values = vec![1000i64; 50];
        for i in 0..50 {
            values.push(1000 + (i % 7));
        }
        values.push(0);
        values.push(1);
        let full = solve_values(&ValueSolver::new(), &values);
        let upper = solve_values(&ValueSolver::upper_only(), &values);
        assert!(full.cost_bits() < upper.cost_bits());
    }

    #[test]
    fn solution_cost_is_exactly_evaluation_cost() {
        let values = [5i64, -3, 8, 8, 120, -77, 5, 6, 7, 5];
        let block = SortedBlock::from_values(&values);
        let sol = ValueSolver::new().solve(&block);
        if let Solution::Separated { sep, cost_bits } = sol {
            assert_eq!(block.evaluate(sep).cost_bits, cost_bits);
        }
    }

    #[test]
    fn never_worse_than_plain() {
        let solver = ValueSolver::new();
        for values in [
            vec![1i64, 2, 3],
            vec![0, 0, 0, 1],
            vec![i64::MIN, i64::MAX],
            vec![-5, -5, -5, 1000],
        ] {
            let block = SortedBlock::from_values(&values);
            assert!(solver.solve(&block).cost_bits() <= block.plain_cost_bits());
        }
    }
}
