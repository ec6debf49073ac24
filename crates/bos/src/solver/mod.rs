//! The three separation solvers of the paper.
//!
//! | Solver | Section | Time | Guarantee |
//! |--------|---------|------|-----------|
//! | [`ValueSolver`] (BOS-V) | §IV, Alg. 1 | O(m²) | optimal (Prop. 1) |
//! | [`BitWidthSolver`] (BOS-B) | §V, Alg. 2 | O(m log m) | optimal (Prop. 2–3) |
//! | [`MedianSolver`] (BOS-M) | §VI, Alg. 3 | O(n) | approximate (Prop. 4) |
//!
//! A fourth, test-only oracle ([`BruteForceSolver`]) sweeps *every*
//! integer threshold pair to certify Proposition 1 empirically, and
//! [`AdaptiveSolver`] escalates from BOS-M to BOS-B per block — a
//! production-style effort policy built from the paper's pieces.
//!
//! (`m` = number of distinct values ≤ `n`.) Every solver returns a
//! [`Solution`] that is *at most* the plain bit-packing cost: when no
//! separation beats Definition 1, `Solution::Plain` is returned, which the
//! block format encodes without a position bitmap.

mod adaptive;
mod bitwidth;
mod bruteforce;
mod median;
mod value;

pub use adaptive::AdaptiveSolver;
pub use bitwidth::BitWidthSolver;
pub use bruteforce::BruteForceSolver;
pub use median::MedianSolver;
pub use value::ValueSolver;

use crate::cost::{Solution, SortedBlock};

/// Shared solver configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverConfig {
    /// Only search for upper outliers, like the PFOR family (used by the
    /// Figure 12 ablation: "terminating the loop early without enumerating
    /// lower outliers").
    pub upper_only: bool,
}

/// Reusable solver working memory, persisted across adjacent blocks.
///
/// Rebuilding a [`SortedBlock`] per block costs two allocations plus the
/// sort; on a long stream those allocations dominate once the search itself
/// is pruned down. A scratch holds the summary and an untyped `i64` buffer
/// (quickselect workspace, sort staging) whose capacity survives from block
/// to block, so steady-state encode allocates nothing.
///
/// A scratch carries **no** information between blocks semantically: every
/// solver fully overwrites the parts it reads, so a dirty scratch and a
/// fresh one produce bit-identical `Solution`s (pinned by the
/// `dirty_scratch_never_leaks` test).
#[derive(Debug, Default)]
pub struct SolverScratch {
    /// Reusable sorted-distinct summary of the current block.
    pub(crate) block: SortedBlock,
    /// Reusable value buffer (sort staging / quickselect workspace).
    pub(crate) buf: Vec<i64>,
}

impl SolverScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A strategy for choosing the separation thresholds of one block.
///
/// The entry point takes raw values, not a pre-built
/// [`SortedBlock`]:
/// BOS-M's whole point is running in O(n) *without* sorting, so building the
/// summary is part of each solver's own budget (and of its measured time in
/// the Figure 10c / 15 experiments). What the [`SolverScratch`] amortizes is
/// the *allocations* behind that build, not the work itself.
///
/// The trait is exactly a label and the scratch-reusing entry point, so it
/// is object-safe and no impl can route around the scratch. One-shot
/// callers use the free function [`solve_values`].
pub trait Solver {
    /// Human-readable name used in experiment output ("BOS-V", …).
    fn name(&self) -> &'static str;

    /// Chooses a solution for the block, using (and dirtying) `scratch`.
    /// Must return `Solution::Plain` with zero cost for empty blocks, and
    /// must not let scratch contents from a previous block influence the
    /// result.
    fn solve_into(&mut self, values: &[i64], scratch: &mut SolverScratch) -> Solution;
}

/// One-shot solve with a throwaway scratch. Solves on a clone, so
/// `solver` itself is left untouched.
pub fn solve_values<S: Solver + Clone>(solver: &S, values: &[i64]) -> Solution {
    solver.clone().solve_into(values, &mut SolverScratch::new())
}

/// Picks the cheaper of the current best and a candidate separation.
/// Retained as the reference implementation the optimized solver inner
/// loops are tested against.
#[cfg(test)]
pub(crate) fn consider(block: &SortedBlock, sep: crate::cost::Separation, best: &mut Solution) {
    if !sep.is_valid() {
        return;
    }
    let eval = block.evaluate(sep);
    if eval.cost_bits < best.cost_bits() {
        *best = Solution::Separated {
            sep,
            cost_bits: eval.cost_bits,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Separation;

    #[test]
    fn consider_keeps_cheaper() {
        let block = SortedBlock::from_values(&[3, 2, 4, 5, 3, 2, 0, 8]);
        let mut best = Solution::Plain {
            cost_bits: block.plain_cost_bits(),
        };
        consider(
            &block,
            Separation {
                xl: Some(0),
                xu: Some(8),
            },
            &mut best,
        );
        assert_eq!(best.cost_bits(), 24);
        // A worse candidate does not replace it.
        consider(
            &block,
            Separation {
                xl: None,
                xu: Some(2),
            },
            &mut best,
        );
        assert_eq!(best.cost_bits(), 24);
    }

    #[test]
    fn consider_ignores_invalid() {
        let block = SortedBlock::from_values(&[1, 2, 3]);
        let mut best = Solution::Plain {
            cost_bits: block.plain_cost_bits(),
        };
        consider(
            &block,
            Separation {
                xl: Some(5),
                xu: Some(5),
            },
            &mut best,
        );
        assert!(matches!(best, Solution::Plain { .. }));
    }
}
