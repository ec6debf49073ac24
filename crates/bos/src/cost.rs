//! The storage cost model of the paper (Definitions 1–6).
//!
//! A block of values is summarized by a [`SortedBlock`]: the sorted distinct
//! values with per-value counts and cumulative counts (Definition 6). Every
//! solver evaluates candidate separations against this summary in
//! `O(log m)` via [`SortedBlock::evaluate`], whose result is bit-exact with
//! what [`crate::format`] writes (payload + position bitmap).

#![deny(clippy::cast_possible_truncation)]

use bitpack::width::{range_u64, width, width1};

/// A candidate outlier separation `(xl, xu)`.
///
/// Semantics follow Definitions 2–4: `Xl = {x ≤ xl}`, `Xu = {x ≥ xu}`,
/// `Xc = {xl < x < xu}`. `None` means "no outliers on that side"
/// (conceptually `xl < xmin` / `xu > xmax`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Separation {
    /// Ceiling of the lower outliers (inclusive), or `None` for no lower
    /// outliers.
    pub xl: Option<i64>,
    /// Floor of the upper outliers (inclusive), or `None` for no upper
    /// outliers.
    pub xu: Option<i64>,
}

impl Separation {
    /// A separation with no outliers on either side.
    pub const NONE: Separation = Separation { xl: None, xu: None };

    /// True when the thresholds are consistent (`xl < xu` whenever both are
    /// present).
    pub fn is_valid(&self) -> bool {
        match (self.xl, self.xu) {
            (Some(l), Some(u)) => l < u,
            _ => true,
        }
    }
}

/// The outcome of evaluating a [`Separation`] on a block: part sizes,
/// boundaries and bit-widths (Definition 5 / Formula 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evaluation {
    /// Number of lower outliers `nl`.
    pub nl: usize,
    /// Number of upper outliers `nu`.
    pub nu: usize,
    /// Number of center values `n − nl − nu`.
    pub nc: usize,
    /// Width `α` of lower outliers (`width1(max Xl − xmin)`), 0 when empty.
    pub alpha: u32,
    /// Width `β` of center values (`width1(max Xc − min Xc)`), 0 when empty.
    pub beta: u32,
    /// Width `γ` of upper outliers (`width1(xmax − min Xu)`), 0 when empty.
    pub gamma: u32,
    /// Largest lower outlier (`max Xl`), when any.
    pub max_xl: Option<i64>,
    /// Smallest center value (`min Xc`), when any.
    pub min_xc: Option<i64>,
    /// Largest center value (`max Xc`), when any.
    pub max_xc: Option<i64>,
    /// Smallest upper outlier (`min Xu`), when any.
    pub min_xu: Option<i64>,
    /// Total storage bits: value payloads + position bitmap
    /// (`nl·(α+1) + nu·(γ+1) + nc·β + n`).
    pub cost_bits: u64,
}

/// A solver's answer for one block: either keep plain bit-packing or apply
/// the given separation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Solution {
    /// Plain frame-of-reference bit-packing (Definition 1) is cheapest.
    Plain {
        /// Its cost `n · width(xmax − xmin)` in bits.
        cost_bits: u64,
    },
    /// Separating outliers at the given thresholds is cheapest.
    Separated {
        /// The chosen thresholds.
        sep: Separation,
        /// Its exact cost in bits (Formula 7).
        cost_bits: u64,
    },
}

impl Solution {
    /// The cost in bits of this solution (payload + bitmap, headers
    /// excluded).
    pub fn cost_bits(&self) -> u64 {
        match *self {
            Solution::Plain { cost_bits } | Solution::Separated { cost_bits, .. } => cost_bits,
        }
    }

    /// The separation, if this solution separates outliers.
    pub fn separation(&self) -> Option<Separation> {
        match *self {
            Solution::Plain { .. } => None,
            Solution::Separated { sep, .. } => Some(sep),
        }
    }
}

/// Sorted distinct values of a block with cumulative counts (Definition 6).
///
/// The `Default` value is the empty block; [`SortedBlock::rebuild`] refills
/// it in place so solver scratch space can reuse the allocations across
/// adjacent blocks.
#[derive(Debug, Clone, Default)]
pub struct SortedBlock {
    /// Sorted distinct values.
    vals: Vec<i64>,
    /// `cum[i]` = number of block values `≤ vals[i]` (the `ci` of Def. 6).
    cum: Vec<usize>,
    /// Total number of values `n` (with duplicates).
    n: usize,
}

impl SortedBlock {
    /// Builds the summary in `O(n log n)` (sort + dedup + prefix sums).
    pub fn from_values(values: &[i64]) -> Self {
        let mut block = SortedBlock::default();
        block.rebuild(values, &mut Vec::new());
        block
    }

    /// Rebuilds the summary in place from `values`, reusing this block's
    /// internal allocations and the caller's sort buffer. Equivalent to
    /// `*self = SortedBlock::from_values(values)`, but after warm-up no
    /// allocation happens on blocks no larger than the previous ones —
    /// the amortization that [`crate::solver::SolverScratch`] rides on.
    pub fn rebuild(&mut self, values: &[i64], sort_buf: &mut Vec<i64>) {
        sort_buf.clear();
        sort_buf.extend_from_slice(values);
        sort_buf.sort_unstable();
        self.vals.clear();
        self.cum.clear();
        self.n = values.len();
        let mut running = 0usize;
        let mut i = 0;
        while i < sort_buf.len() {
            let v = sort_buf[i];
            let mut j = i;
            while j < sort_buf.len() && sort_buf[j] == v {
                j += 1;
            }
            running += j - i;
            self.vals.push(v);
            self.cum.push(running);
            i = j;
        }
    }

    /// Number of values in the block (with duplicates).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of distinct values `m`.
    pub fn num_distinct(&self) -> usize {
        self.vals.len()
    }

    /// True when the block has no values.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Sorted distinct values.
    pub fn distinct(&self) -> &[i64] {
        &self.vals
    }

    /// Cumulative count `ci` for each distinct value (Definition 6).
    pub fn cumulative(&self) -> &[usize] {
        &self.cum
    }

    /// Smallest value `xmin`. Panics on an empty block.
    pub fn xmin(&self) -> i64 {
        self.vals[0]
    }

    /// Largest value `xmax`. Panics on an empty block.
    #[expect(
        clippy::expect_used,
        reason = "encoder-side planning: solvers only summarize non-empty blocks"
    )]
    pub fn xmax(&self) -> i64 {
        *self.vals.last().expect("non-empty block")
    }

    /// `|{x : x ≤ v}|` — the `ci` of Definition 6 for arbitrary `v`.
    pub fn count_le(&self, v: i64) -> usize {
        match self.vals.partition_point(|&x| x <= v) {
            0 => 0,
            k => self.cum[k - 1],
        }
    }

    /// `|{x : x < v}|` — the `c'i` of Definition 6 for arbitrary `v`.
    pub fn count_lt(&self, v: i64) -> usize {
        match self.vals.partition_point(|&x| x < v) {
            0 => 0,
            k => self.cum[k - 1],
        }
    }

    /// Largest distinct value `≤ v`, if any.
    pub fn max_le(&self, v: i64) -> Option<i64> {
        match self.vals.partition_point(|&x| x <= v) {
            0 => None,
            k => Some(self.vals[k - 1]),
        }
    }

    /// Smallest distinct value `≥ v`, if any.
    pub fn min_ge(&self, v: i64) -> Option<i64> {
        self.vals
            .get(self.vals.partition_point(|&x| x < v))
            .copied()
    }

    /// Smallest distinct value `> v`, if any.
    pub fn min_gt(&self, v: i64) -> Option<i64> {
        self.vals
            .get(self.vals.partition_point(|&x| x <= v))
            .copied()
    }

    /// Largest distinct value `< v`, if any.
    pub fn max_lt(&self, v: i64) -> Option<i64> {
        match self.vals.partition_point(|&x| x < v) {
            0 => None,
            k => Some(self.vals[k - 1]),
        }
    }

    /// Cost of plain frame-of-reference bit-packing (Definition 1):
    /// `n · width(xmax − xmin)`.
    pub fn plain_cost_bits(&self) -> u64 {
        if self.n == 0 {
            return 0;
        }
        self.n as u64 * width(range_u64(self.xmin(), self.xmax())) as u64
    }

    /// Evaluates a separation exactly (Definition 5 via the cumulative
    /// counts of Formula 7). `O(log m)`.
    ///
    /// Panics if the block is empty or `sep` is invalid (`xl ≥ xu`).
    pub fn evaluate(&self, sep: Separation) -> Evaluation {
        assert!(!self.is_empty(), "cannot evaluate an empty block");
        assert!(sep.is_valid(), "invalid separation: xl >= xu");
        let n = self.n;
        let xmin = self.xmin();
        let xmax = self.xmax();

        // Lower outliers: values ≤ xl.
        let (nl, max_xl) = match sep.xl {
            Some(xl) => (self.count_le(xl), self.max_le(xl)),
            None => (0, None),
        };
        // Upper outliers: values ≥ xu.
        let (nu, min_xu) = match sep.xu {
            Some(xu) => (n - self.count_lt(xu), self.min_ge(xu)),
            None => (0, None),
        };
        debug_assert!(nl + nu <= n, "parts overlap: xl/xu mis-ordered");
        let nc = n - nl - nu;

        // Center bounds: smallest distinct > xl and largest distinct < xu.
        let (min_xc, max_xc) = if nc > 0 {
            let lo = match sep.xl {
                #[expect(clippy::expect_used, reason = "nc > 0: a center value lies above xl")]
                Some(xl) => self.min_gt(xl).expect("nc > 0"),
                None => xmin,
            };
            let hi = match sep.xu {
                #[expect(clippy::expect_used, reason = "nc > 0: a center value lies below xu")]
                Some(xu) => self.max_lt(xu).expect("nc > 0"),
                None => xmax,
            };
            (Some(lo), Some(hi))
        } else {
            (None, None)
        };

        let alpha = max_xl.map_or(0, |m| width1(range_u64(xmin, m)));
        let gamma = min_xu.map_or(0, |m| width1(range_u64(m, xmax)));
        let beta = match (min_xc, max_xc) {
            (Some(lo), Some(hi)) => width1(range_u64(lo, hi)),
            _ => 0,
        };

        // Definition 5 sanity: the three parts partition the block, widths
        // fit i64 ranges, and a part collapsed onto its anchor (max Xl =
        // xmin, min Xu = xmax, or a single-point center) still pays exactly
        // one bit per value — the special cases spelled out after Def. 5.
        debug_assert_eq!(nl + nc + nu, n, "parts must partition the block");
        debug_assert!(alpha <= 64 && beta <= 64 && gamma <= 64);
        debug_assert!(
            max_xl != Some(xmin) || alpha == 1,
            "max Xl = xmin must give α = 1"
        );
        debug_assert!(
            min_xu != Some(xmax) || gamma == 1,
            "min Xu = xmax must give γ = 1"
        );
        debug_assert!(
            nc == 0 || min_xc != max_xc || beta == 1,
            "a single-point center must give β = 1"
        );

        let cost_bits = nl as u64 * (alpha as u64 + 1)
            + nu as u64 * (gamma as u64 + 1)
            + nc as u64 * beta as u64
            + n as u64;

        Evaluation {
            nl,
            nu,
            nc,
            alpha,
            beta,
            gamma,
            max_xl,
            min_xc,
            max_xc,
            min_xu,
            cost_bits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running example of the paper's introduction.
    const INTRO: [i64; 8] = [3, 2, 4, 5, 3, 2, 0, 8];

    #[test]
    fn sorted_block_summary() {
        let b = SortedBlock::from_values(&INTRO);
        assert_eq!(b.n(), 8);
        assert_eq!(b.num_distinct(), 6);
        assert_eq!(b.distinct(), &[0, 2, 3, 4, 5, 8]);
        assert_eq!(b.cumulative(), &[1, 3, 5, 6, 7, 8]);
        assert_eq!(b.xmin(), 0);
        assert_eq!(b.xmax(), 8);
    }

    #[test]
    fn cumulative_count_queries() {
        let b = SortedBlock::from_values(&INTRO);
        assert_eq!(b.count_le(0), 1);
        assert_eq!(b.count_le(1), 1);
        assert_eq!(b.count_le(2), 3);
        assert_eq!(b.count_lt(2), 1);
        assert_eq!(b.count_le(8), 8);
        assert_eq!(b.count_le(-5), 0);
        assert_eq!(b.count_lt(100), 8);
        assert_eq!(b.max_le(1), Some(0));
        assert_eq!(b.max_le(-1), None);
        assert_eq!(b.min_ge(6), Some(8));
        assert_eq!(b.min_ge(9), None);
        assert_eq!(b.min_gt(0), Some(2));
        assert_eq!(b.max_lt(8), Some(5));
    }

    #[test]
    fn plain_cost_matches_definition_1() {
        let b = SortedBlock::from_values(&INTRO);
        // xmax − xmin = 8 → width 4 → 32 bits.
        assert_eq!(b.plain_cost_bits(), 32);
        let c = SortedBlock::from_values(&[7, 7, 7]);
        assert_eq!(c.plain_cost_bits(), 0); // constant block
    }

    #[test]
    fn evaluate_intro_separation() {
        // Separating 0 (lower) and 8 (upper): center (2..=5) has width 2.
        let b = SortedBlock::from_values(&INTRO);
        let e = b.evaluate(Separation {
            xl: Some(0),
            xu: Some(8),
        });
        assert_eq!(e.nl, 1);
        assert_eq!(e.nu, 1);
        assert_eq!(e.nc, 6);
        assert_eq!(e.max_xl, Some(0));
        assert_eq!(e.min_xu, Some(8));
        assert_eq!(e.min_xc, Some(2));
        assert_eq!(e.max_xc, Some(5));
        assert_eq!(e.alpha, 1); // max Xl = xmin → width1(0) = 1
        assert_eq!(e.beta, 2); // width1(5 − 2) = 2
        assert_eq!(e.gamma, 1); // min Xu = xmax → width1(0) = 1
                                // nl(α+1) + nu(γ+1) + nc·β + n = 2 + 2 + 12 + 8 = 24 < 32 (plain).
        assert_eq!(e.cost_bits, 24);
        assert!(e.cost_bits < b.plain_cost_bits());
    }

    #[test]
    fn special_cases_after_definition_5() {
        // max Xl = xmin → first term 2·nl; min Xu = xmax → second term 2·nu;
        // max Xc = min Xc → third term nc·1.
        let b = SortedBlock::from_values(&[0, 0, 5, 5, 5, 9, 9]);
        let e = b.evaluate(Separation {
            xl: Some(0),
            xu: Some(9),
        });
        assert_eq!((e.nl, e.nc, e.nu), (2, 3, 2));
        assert_eq!(e.alpha, 1);
        assert_eq!(e.beta, 1);
        assert_eq!(e.gamma, 1);
        assert_eq!(e.cost_bits, 2 * 2 + 2 * 2 + 3 + 7);
    }

    #[test]
    fn upper_only_and_lower_only() {
        let b = SortedBlock::from_values(&INTRO);
        let upper = b.evaluate(Separation {
            xl: None,
            xu: Some(8),
        });
        assert_eq!((upper.nl, upper.nc, upper.nu), (0, 7, 1));
        assert_eq!(upper.min_xc, Some(0));
        assert_eq!(upper.max_xc, Some(5));
        assert_eq!(upper.beta, 3);
        let lower = b.evaluate(Separation {
            xl: Some(0),
            xu: None,
        });
        assert_eq!((lower.nl, lower.nc, lower.nu), (1, 7, 0));
        assert_eq!(lower.beta, width1(6));
    }

    #[test]
    fn empty_center() {
        let b = SortedBlock::from_values(&[1, 1, 100, 100]);
        let e = b.evaluate(Separation {
            xl: Some(1),
            xu: Some(100),
        });
        assert_eq!((e.nl, e.nc, e.nu), (2, 0, 2));
        assert_eq!(e.beta, 0);
        assert_eq!(e.min_xc, None);
        assert_eq!(e.cost_bits, 2 * 2 + 2 * 2 + 4);
    }

    #[test]
    fn everything_lower() {
        let b = SortedBlock::from_values(&[1, 2, 3]);
        let e = b.evaluate(Separation {
            xl: Some(3),
            xu: None,
        });
        assert_eq!((e.nl, e.nc, e.nu), (3, 0, 0));
        assert_eq!(e.alpha, width1(2));
    }

    #[test]
    fn no_separation_evaluation() {
        let b = SortedBlock::from_values(&INTRO);
        let e = b.evaluate(Separation::NONE);
        assert_eq!((e.nl, e.nc, e.nu), (0, 8, 0));
        assert_eq!(e.beta, 4);
        // Pays the bitmap (n bits) on top of plain packing.
        assert_eq!(e.cost_bits, b.plain_cost_bits() + 8);
    }

    #[test]
    fn extreme_domain() {
        let b = SortedBlock::from_values(&[i64::MIN, 0, i64::MAX]);
        assert_eq!(b.plain_cost_bits(), 3 * 64);
        let e = b.evaluate(Separation {
            xl: Some(i64::MIN),
            xu: Some(i64::MAX),
        });
        assert_eq!((e.nl, e.nc, e.nu), (1, 1, 1));
        assert_eq!(e.alpha, 1);
        assert_eq!(e.beta, 1);
        assert_eq!(e.gamma, 1);
    }

    #[test]
    #[should_panic(expected = "invalid separation")]
    fn invalid_separation_panics() {
        let b = SortedBlock::from_values(&[1, 2, 3]);
        b.evaluate(Separation {
            xl: Some(2),
            xu: Some(2),
        });
    }

    #[test]
    fn solution_accessors() {
        let s = Solution::Plain { cost_bits: 10 };
        assert_eq!(s.cost_bits(), 10);
        assert_eq!(s.separation(), None);
        let sep = Separation {
            xl: Some(1),
            xu: Some(5),
        };
        let s = Solution::Separated { sep, cost_bits: 7 };
        assert_eq!(s.cost_bits(), 7);
        assert_eq!(s.separation(), Some(sep));
    }
}
