//! BOS-M — approximate median separation (Algorithm 3, Section VI).
//!
//! Motivated by the near-normal post-delta distributions of Figure 8, the
//! center is restricted to symmetric windows around the median:
//! `(xl, xu) = (median − 2^β, median + 2^β)` for each bit-width `β`.
//!
//! The algorithm is O(n): the median comes from quickselect (no sort), one
//! pass fills the bucket counts `h(±β)` of Definition 7 — extended here
//! with per-bucket min/max so each candidate's Formula-5 cost is *exact* —
//! and the β sweep touches only the W = 64 buckets. The approximation is in
//! the restricted candidate set, not in the cost arithmetic; Proposition 4
//! bounds the gap for normal data (checked by the `exp_prop4_approx`
//! experiment).

use super::{Solver, SolverConfig, SolverScratch};
use crate::cost::{Separation, Solution};
use bitpack::width::{range_u64, width, width1};

// Search-effort tallies: `candidates` counts β windows costed, `prunes`
// counts windows where neither absorbed bucket held values (the sweep
// skips straight through them with no new outliers to account).
static CANDIDATES: obs::CounterHandle = obs::CounterHandle::new("solver.BOS-M.candidates");
static PRUNES: obs::CounterHandle = obs::CounterHandle::new("solver.BOS-M.prunes");
static BLOCKS: obs::CounterHandle = obs::CounterHandle::new("solver.BOS-M.blocks");

/// Per-bucket statistics: count plus min/max of the bucket's values.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    count: usize,
    min: i64,
    max: i64,
}

impl Bucket {
    const EMPTY: Bucket = Bucket {
        count: 0,
        min: i64::MAX,
        max: i64::MIN,
    };

    #[inline]
    fn add(&mut self, v: i64) {
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }
}

/// The O(n) approximate solver (BOS-M).
#[derive(Debug, Clone, Copy, Default)]
pub struct MedianSolver {
    /// Shared configuration. `upper_only` restricts candidates to
    /// `(None, median + 2^β)`.
    pub config: SolverConfig,
}

impl MedianSolver {
    /// Creates the solver with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an upper-outlier-only variant.
    pub fn upper_only() -> Self {
        Self {
            config: SolverConfig { upper_only: true },
        }
    }
}

impl Solver for MedianSolver {
    fn name(&self) -> &'static str {
        if self.config.upper_only {
            "BOS-M (upper only)"
        } else {
            "BOS-M"
        }
    }

    fn solve_into(&mut self, values: &[i64], scratch: &mut SolverScratch) -> Solution {
        let (best, candidates, prunes) = search(self.config, values, &mut scratch.buf);
        if !values.is_empty() {
            BLOCKS.inc();
            CANDIDATES.add(candidates);
            PRUNES.add(prunes);
            obs::trail::emit(obs::trail::Event::BlockSolved {
                solver: self.name(),
                separated: best.separation().is_some(),
                cost_bits: best.cost_bits(),
                candidates,
                prunes,
            });
        }
        best
    }
}

/// The BOS-M search proper, counter-free: returns the solution plus the
/// `(candidates, prunes)` tallies, which [`MedianSolver::solve_into`]
/// records.
fn search(config: SolverConfig, values: &[i64], buf: &mut Vec<i64>) -> (Solution, u64, u64) {
    let n = values.len();
    if n == 0 {
        return (Solution::Plain { cost_bits: 0 }, 0, 0);
    }

    // Median via quickselect — O(n) expected, no full sort (line 1 of
    // Algorithm 3; std's select_nth_unstable is introselect). The scratch
    // buffer is fully overwritten, so a dirty one cannot leak state.
    buf.clear();
    buf.extend_from_slice(values);
    let mid = n / 2;
    let (_, &mut median, _) = buf.select_nth_unstable(mid);

    // Bucket counts h(±β) of Definition 7, with min/max (lines 2–10).
    // low[β] holds {x : median − 2^β < x ≤ median − 2^(β−1)}, i.e.
    // β = width(median − x); high[β] symmetrically.
    let mut low = [Bucket::EMPTY; 65];
    let mut high = [Bucket::EMPTY; 65];
    let mut h0 = 0usize;
    let mut xmin = i64::MAX;
    let mut xmax = i64::MIN;
    for &x in values {
        xmin = xmin.min(x);
        xmax = xmax.max(x);
        match x.cmp(&median) {
            std::cmp::Ordering::Less => {
                low[width(range_u64(x, median)) as usize].add(x);
            }
            std::cmp::Ordering::Greater => {
                high[width(range_u64(median, x)) as usize].add(x);
            }
            std::cmp::Ordering::Equal => h0 += 1,
        }
    }

    let plain = n as u64 * width(range_u64(xmin, xmax)) as u64;
    let mut best = Solution::Plain { cost_bits: plain };

    // Suffix aggregates over buckets: for candidate β the lower
    // outliers are buckets β+1..=64 (values ≤ median − 2^β) and
    // likewise above. Walking β from wide to narrow (line 12) keeps
    // them incremental.
    let max_beta = width1(range_u64(xmin, xmax));
    let mut nl = 0usize;
    let mut nu = 0usize;
    let mut max_xl = i64::MIN; // largest lower outlier so far
    let mut min_xu = i64::MAX; // smallest upper outlier so far

    let mut candidates = 0u64;
    let mut prunes = 0u64;
    for beta in (1..=max_beta.min(63)).rev() {
        candidates += 1;
        // Absorb bucket β+1 into the outlier sets. In upper-only mode
        // the lower side always stays in the center.
        let mut absorbed = false;
        if !config.upper_only {
            let lb = &low[beta as usize + 1];
            if lb.count > 0 {
                nl += lb.count;
                max_xl = max_xl.max(lb.max);
                absorbed = true;
            }
        }
        let hb = &high[beta as usize + 1];
        if hb.count > 0 {
            nu += hb.count;
            min_xu = min_xu.min(hb.min);
            absorbed = true;
        }
        if !absorbed {
            prunes += 1;
        }

        let nc = n - nl - nu;
        // Center bounds: innermost values of buckets 1..=β plus the
        // median itself (in upper-only mode, every lower bucket).
        let (mut cmin, mut cmax) = if h0 > 0 {
            (median, median)
        } else {
            (i64::MAX, i64::MIN)
        };
        let low_limit = if config.upper_only { 64 } else { beta as usize };
        for bucket in low.iter().take(low_limit + 1).skip(1) {
            if bucket.count > 0 {
                cmin = cmin.min(bucket.min);
                cmax = cmax.max(bucket.max);
            }
        }
        for bucket in high.iter().take(beta as usize + 1).skip(1) {
            if bucket.count > 0 {
                cmin = cmin.min(bucket.min);
                cmax = cmax.max(bucket.max);
            }
        }

        let alpha = if nl > 0 {
            width1(range_u64(xmin, max_xl))
        } else {
            0
        };
        let gamma = if nu > 0 {
            width1(range_u64(min_xu, xmax))
        } else {
            0
        };
        let bw = if nc > 0 {
            width1(range_u64(cmin, cmax))
        } else {
            0
        };
        let cost = nl as u64 * (alpha as u64 + 1)
            + nu as u64 * (gamma as u64 + 1)
            + nc as u64 * bw as u64
            + n as u64;

        if (nl > 0 || nu > 0) && cost < best.cost_bits() {
            let xl = if nl > 0 {
                Some((median as i128 - (1i128 << beta)).max(i64::MIN as i128) as i64)
            } else {
                None
            };
            let xu = if nu > 0 {
                Some((median as i128 + (1i128 << beta)).min(i64::MAX as i128) as i64)
            } else {
                None
            };
            best = Solution::Separated {
                sep: Separation { xl, xu },
                cost_bits: cost,
            };
        }
    }
    (best, candidates, prunes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::SortedBlock;
    use crate::solver::{solve_values, BitWidthSolver, ValueSolver};

    /// BOS-M's cost bookkeeping must agree with the exact evaluator for the
    /// separation it returns.
    fn assert_cost_consistent(values: &[i64]) {
        let sol = solve_values(&MedianSolver::new(), values);
        if let Solution::Separated { sep, cost_bits } = sol {
            let block = SortedBlock::from_values(values);
            assert_eq!(
                block.evaluate(sep).cost_bits,
                cost_bits,
                "inconsistent cost for {values:?} at {sep:?}"
            );
        }
    }

    #[test]
    fn cost_matches_exact_evaluator() {
        assert_cost_consistent(&[3, 2, 4, 5, 3, 2, 0, 8]);
        assert_cost_consistent(&[0, 0, 0, 1_000_000]);
        assert_cost_consistent(&[-1000, -999, 5, 6, 7, 8, 9, 5, 6, 7]);
        assert_cost_consistent(&(0..100).map(|i| i * i).collect::<Vec<_>>());
        assert_cost_consistent(&[i64::MIN, -1, 0, 1, i64::MAX]);
    }

    #[test]
    fn intro_example_beats_plain() {
        let sol = solve_values(&MedianSolver::new(), &[3, 2, 4, 5, 3, 2, 0, 8]);
        // Plain costs 32 bits; the symmetric window around the median must
        // at least find the 8 (and possibly the 0) as outliers.
        assert!(sol.cost_bits() <= 32);
    }

    #[test]
    fn never_better_than_optimal_never_worse_than_plain() {
        let cases: Vec<Vec<i64>> = vec![
            vec![3, 2, 4, 5, 3, 2, 0, 8],
            vec![7, 7, 7],
            vec![],
            vec![1],
            (0..200).collect(),
            vec![0, 1, 2, 3, 1 << 40, (1 << 40) + 1],
            vec![i64::MIN, 0, i64::MAX],
            (0..128)
                .map(|i| if i % 31 == 0 { 100_000 } else { i })
                .collect(),
        ];
        let opt = BitWidthSolver::new();
        for case in cases {
            let m = solve_values(&MedianSolver::new(), &case);
            let o = solve_values(&opt, &case);
            let n = case.len() as u64;
            let plain = if case.is_empty() {
                0
            } else {
                let block = SortedBlock::from_values(&case);
                block.plain_cost_bits()
            };
            let _ = n;
            assert!(
                m.cost_bits() >= o.cost_bits(),
                "approx beat optimal on {case:?}"
            );
            assert!(
                m.cost_bits() <= plain,
                "approx worse than plain on {case:?}"
            );
        }
    }

    #[test]
    fn normal_like_data_is_near_optimal() {
        // A symmetric bell-ish distribution with a few far outliers — the
        // regime Proposition 4 targets. BOS-M should land within 2× of the
        // optimum (the paper's bound for small σ is 2).
        let mut values = Vec::new();
        for i in 0..512i64 {
            // triangle-shaped density centred at 0
            let v = (i % 32) - 16;
            values.push(v);
        }
        values.push(100_000);
        values.push(-90_000);
        let m = solve_values(&MedianSolver::new(), &values).cost_bits();
        let o = solve_values(&BitWidthSolver::new(), &values).cost_bits();
        assert!(m <= 2 * o, "approx {m} vs optimal {o}");
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(solve_values(&MedianSolver::new(), &[]).cost_bits(), 0);
        assert!(matches!(
            solve_values(&MedianSolver::new(), &[9]),
            Solution::Plain { .. }
        ));
    }

    #[test]
    fn upper_only_has_no_lower_threshold() {
        let mut values: Vec<i64> = (0..100).map(|i| i % 13).collect();
        values.push(1_000_000);
        values.push(-1_000_000);
        let sol = solve_values(&MedianSolver::upper_only(), &values);
        if let Some(sep) = sol.separation() {
            assert_eq!(sep.xl, None);
        }
    }

    #[test]
    fn solver_names() {
        assert_eq!(MedianSolver::new().name(), "BOS-M");
        assert_eq!(MedianSolver::upper_only().name(), "BOS-M (upper only)");
        assert_eq!(ValueSolver::new().name(), "BOS-V");
        assert_eq!(BitWidthSolver::new().name(), "BOS-B");
    }
}
