//! Brute-force reference solver: enumerate *every* integer threshold pair
//! in the block's value range, not just values from the block.
//!
//! Proposition 1 claims an optimal `(xl, xu)` always exists with both
//! thresholds in `X`, which is what lets BOS-V restrict its search. This
//! solver does not assume that: it tries every `xl ∈ [xmin−1, xmax]` and
//! every `xu ∈ (xl, xmax+1]`, so on small domains it certifies the
//! proposition empirically (see the `proposition1_holds` tests). It is a
//! test oracle — O(range²·log n) — and deliberately not exported through
//! [`SolverKind`](crate::SolverKind).

use super::{Solver, SolverConfig, SolverScratch};
use crate::cost::{Separation, Solution};

/// The exhaustive-domain oracle solver.
#[derive(Debug, Clone, Copy, Default)]
pub struct BruteForceSolver {
    /// Shared configuration (upper-only ablation).
    pub config: SolverConfig,
}

impl BruteForceSolver {
    /// Creates the oracle. Panics at solve time if the block's value range
    /// exceeds [`Self::MAX_RANGE`] (the quadratic sweep would not finish).
    pub fn new() -> Self {
        Self::default()
    }

    /// Largest `xmax − xmin` the oracle accepts.
    pub const MAX_RANGE: u64 = 4096;
}

impl Solver for BruteForceSolver {
    fn name(&self) -> &'static str {
        "BOS (brute force oracle)"
    }

    fn solve_into(&mut self, values: &[i64], scratch: &mut SolverScratch) -> Solution {
        scratch.block.rebuild(values, &mut scratch.buf);
        let block = &scratch.block;
        if block.is_empty() {
            return Solution::Plain { cost_bits: 0 };
        }
        let xmin = block.xmin();
        let xmax = block.xmax();
        let range = xmax.wrapping_sub(xmin) as u64;
        assert!(
            range <= Self::MAX_RANGE,
            "brute-force oracle limited to ranges ≤ {}",
            Self::MAX_RANGE
        );
        let mut best = Solution::Plain {
            cost_bits: block.plain_cost_bits(),
        };
        // xl = xmin − 1 encodes "no lower outliers" (no value ≤ it);
        // xu = xmax + 1 encodes "no upper outliers". i128 loop variables
        // keep the ±1 sentinels exact even at the i64 domain edges.
        let lo_start = xmin as i128 - 1;
        let lo_end = if self.config.upper_only {
            lo_start
        } else {
            xmax as i128
        };
        let mut xl = lo_start;
        while xl <= lo_end {
            let mut xu = xl + 1;
            while xu <= xmax as i128 + 1 {
                if xl < xmin as i128 && xu > xmax as i128 {
                    xu += 1;
                    continue; // plain packing, already the baseline
                }
                let sep = Separation {
                    xl: if xl < xmin as i128 {
                        None
                    } else {
                        Some(xl as i64)
                    },
                    xu: if xu > xmax as i128 {
                        None
                    } else {
                        Some(xu as i64)
                    },
                };
                let eval = block.evaluate(sep);
                if eval.cost_bits < best.cost_bits() {
                    best = Solution::Separated {
                        sep,
                        cost_bits: eval.cost_bits,
                    };
                }
                xu += 1;
            }
            xl += 1;
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{solve_values, BitWidthSolver, ValueSolver};

    /// The empirical heart of Proposition 1: searching every integer
    /// threshold finds nothing better than searching only values of X.
    #[test]
    fn proposition1_holds_on_crafted_blocks() {
        let cases: Vec<Vec<i64>> = vec![
            vec![3, 2, 4, 5, 3, 2, 0, 8],
            vec![7],
            vec![7, 7, 7, 7],
            vec![0, 1],
            vec![0, 0, 0, 1000],
            vec![10, 11, 500, 501, 502, 900],
            (0..50).map(|i| i * i % 300).collect(),
            vec![-100, -99, 5, 6, 7, 8, 9],
            vec![0, 1, 2, 3, 2000, 2001, 2002],
            (0..200).map(|i| i % 17).collect(),
        ];
        let oracle = BruteForceSolver::new();
        let v = ValueSolver::new();
        let b = BitWidthSolver::new();
        for case in cases {
            let opt = solve_values(&oracle, &case).cost_bits();
            assert_eq!(
                solve_values(&v, &case).cost_bits(),
                opt,
                "BOS-V on {case:?}"
            );
            assert_eq!(
                solve_values(&b, &case).cost_bits(),
                opt,
                "BOS-B on {case:?}"
            );
        }
    }

    #[test]
    fn proposition1_holds_exhaustively_on_tiny_domains() {
        // Every multiset of length ≤ 4 over {0, 1, 5, 13}: the oracle and
        // BOS-V must agree on all of them.
        let domain = [0i64, 1, 5, 13];
        let oracle = BruteForceSolver::new();
        let v = ValueSolver::new();
        let mut case = Vec::new();
        fn rec(
            domain: &[i64],
            case: &mut Vec<i64>,
            len: usize,
            oracle: &BruteForceSolver,
            v: &ValueSolver,
        ) {
            if case.len() == len {
                assert_eq!(
                    solve_values(v, case).cost_bits(),
                    solve_values(oracle, case).cost_bits(),
                    "mismatch on {case:?}"
                );
                return;
            }
            for &d in domain {
                case.push(d);
                rec(domain, case, len, oracle, v);
                case.pop();
            }
        }
        for len in 1..=4 {
            rec(&domain, &mut case, len, &oracle, &v);
        }
    }

    #[test]
    #[should_panic(expected = "brute-force oracle limited")]
    fn wide_ranges_are_rejected() {
        solve_values(&BruteForceSolver::new(), &[0, 1 << 40]);
    }
}
