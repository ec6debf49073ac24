//! BOS-B — exact bit-width separation (Algorithm 2).
//!
//! Instead of pairing every `xl` with every `xu` (O(m²)), BOS-B pairs every
//! `xl` with only O(log W) candidate uppers derived from bit-widths:
//!
//! * Proposition 2 (case `β ≤ γ`): `xu = min Xc + 2^β` for every feasible
//!   center width `β`;
//! * Proposition 3 (case `β > γ`): `xu = xmax − 2^γ + 1` for every feasible
//!   upper width `γ`;
//! * plus `xu = min Xc` itself, covering partitions with an *empty* center
//!   (two separated clusters), which the width families cannot always
//!   express — see the discussion in DESIGN.md §5.
//!
//! Enumerating *all* widths for *both* families subsumes the `β ≤ γ` /
//! `β > γ` case split of Table II. Each candidate needs the partition
//! index of its `xu` among the distinct values (the "cumulative counts
//! fetched efficiently" of the paper's Algorithm 2 commentary). The
//! Prop. 3 indexes do not depend on `xl` and are found once per block.
//! A Prop. 2 `xu` only grows as `xl` moves up, so its index is a
//! successor query with monotone keys: one forward cursor per width `β`
//! answers it, and each cursor crosses the `m` distinct values at most
//! once per block. The search is O(W·m) with the width constant W = 64,
//! amortized O(1) per candidate.
//! Equality with BOS-V is asserted by tests and by the Figure 10
//! experiments ("BOS-V / B" share one row in the paper precisely because
//! their ratios are identical).

use super::{Solver, SolverConfig, SolverScratch};
use crate::cost::{Separation, Solution, SortedBlock};
use bitpack::width::{range_u64, width, width1};

// Search-effort tallies: `candidates` counts xu candidates actually
// costed (one binary search each), `prunes` counts candidates skipped
// without costing — same-partition duplicates jumped over, families cut
// by the seeded incumbent bound, and the classic early exits (an empty
// region above xl, a Prop. 3 width that reached down past xl). The
// candidates/prunes split is what proves the seeded cut rate in
// `exp_throughput`'s search-effort table.
static CANDIDATES: obs::CounterHandle = obs::CounterHandle::new("solver.BOS-B.candidates");
static PRUNES: obs::CounterHandle = obs::CounterHandle::new("solver.BOS-B.prunes");
static BLOCKS: obs::CounterHandle = obs::CounterHandle::new("solver.BOS-B.blocks");

/// The O(m log m) exact solver (BOS-B).
#[derive(Debug, Clone, Copy, Default)]
pub struct BitWidthSolver {
    /// Shared configuration (upper-only ablation).
    pub config: SolverConfig,
}

/// Current best candidate during the search, plus search-effort tallies
/// (flushed to the `solver.BOS-B.*` counters once per block).
struct Best {
    cost: u64,
    sep: Option<Separation>,
    candidates: u64,
    prunes: u64,
}

/// One precomputed Proposition 3 candidate class (`xu = xmax − 2^γ + 1`).
///
/// The Prop. 3 partition index `k` depends only on `xu` — never on the
/// lower threshold — so the binary searches, part counts, and partition
/// jumps of the whole family are hoisted out of the per-`xl` loop and
/// computed once per block ([`build_prop3_ladder`]). Each `search_uppers`
/// call then replays the ladder with O(1) arithmetic per class, applying
/// its own `xl`-dependent break conditions; the visit order, costs, and
/// prune tallies are exactly those of the per-`xl` γ loop it replaces.
#[derive(Clone, Copy, Default)]
struct Prop3Entry {
    /// Candidate upper threshold (i128: `xmax − 2^64 + 1` underflows i64).
    xu: i128,
    /// Partition index: first distinct index with `vals[k] ≥ xu`.
    k: usize,
    /// Values strictly below `xu` (`cum[k − 1]`).
    count_lt: u64,
    /// The width exponent γ (drives the seeded break bound).
    gamma: u32,
    /// The upper part's cost width `width1(range(vals[k], xmax))`.
    gamma_cost: u64,
    /// `vals[k − 1]` — the center maximum when the center is nonempty.
    center_max: i64,
    /// Same-partition γ values jumped over to reach the next class.
    gap: u64,
}

/// Precomputes the Proposition 3 candidate ladder for one block; returns
/// the class count. The sequence mirrors the per-`xl` γ loop it hoists:
/// start at γ = 1, jump to the next distinct-partition class, stop once
/// `xu` reaches `xmin` (every caller breaks at that entry because
/// `xu ≤ min Xc`) or γ passes the 64-bit width ladder.
fn build_prop3_ladder(vals: &[i64], cum: &[usize], ladder: &mut [Prop3Entry; 64]) -> usize {
    let m = vals.len();
    let xmin = vals[0];
    let xmax = vals[m - 1];
    let mut len = 0;
    let mut gamma = 1u32;
    while gamma <= 64 {
        let xu = xmax as i128 - (1i128 << gamma) + 1;
        // First distinct index with vals[k] ≥ xu. γ ≥ 1 keeps xu < xmax,
        // so k < m and the upper part is never empty.
        let k = vals.partition_point(|&x| (x as i128) < xu);
        let mut entry = Prop3Entry {
            xu,
            k,
            count_lt: if k > 0 { cum[k - 1] as u64 } else { 0 },
            gamma,
            gamma_cost: width1(range_u64(vals[k], xmax)) as u64,
            center_max: if k > 0 { vals[k - 1] } else { 0 },
            gap: 0,
        };
        if xu <= xmin as i128 {
            // Final class: every caller breaks here (its `gap` is dead).
            ladder[len] = entry;
            len += 1;
            break;
        }
        // Partition jump: the smallest γ whose xu drops to vals[k−1] or
        // below, i.e. the next distinct class. (k ≥ 1: xu > xmin.)
        let next = (gamma + 1).max(width(range_u64(vals[k - 1], xmax)));
        entry.gap = u64::from(next - gamma - 1);
        ladder[len] = entry;
        len += 1;
        gamma = next;
    }
    len
}

impl BitWidthSolver {
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

    /// Enumerates the bit-width upper candidates for one fixed `xl`,
    /// pruning against `cut` (the incumbent bound of `solve_seeded`).
    ///
    /// `cidx` is the index of the first distinct value above `xl`
    /// (0 when `xl = None`); `nl`/`lower_term` are the precomputed lower
    /// part size and its cost contribution.
    ///
    /// Pruning invariant (what keeps the returned `Solution` bit-identical
    /// to the unpruned reference): a candidate is skipped only when either
    /// (a) a lower bound on its cost reaches `cut`, so it cannot *strictly*
    /// beat the incumbent and cannot be the first attainer of the optimum,
    /// or (b) it costs exactly the same as an earlier candidate of the same
    /// family (same distinct-value partition index `k` ⇒ identical
    /// `(nl, nu, nc, α, β, γ)` ⇒ identical cost), which the strict `<`
    /// update would have ignored anyway.
    ///
    /// `cursors[β]` is the Prop. 2 partition index this block last found
    /// for width β (see [`BitWidthSolver::solve_seeded`]); each lookup
    /// only moves it forward.
    #[expect(
        clippy::too_many_arguments,
        reason = "one call per lower threshold: its own cursor, xl, nl and cost term beside the block's shared search state"
    )]
    fn search_uppers(
        block: &SortedBlock,
        ladder: &[Prop3Entry],
        cursors: &mut [usize; 65],
        cidx: usize,
        xl: Option<i64>,
        nl: u64,
        lower_term: u64,
        seed_plus1: u64,
        best: &mut Best,
    ) {
        let vals = block.distinct();
        let cum = block.cumulative();
        let m = vals.len();
        let n = block.n() as u64;
        if cidx >= m {
            best.prunes += 1;
            return; // xl swallows the whole block; nothing above it
        }
        let min_xc = vals[cidx];
        let xmax = vals[m - 1];

        // Evaluates the Prop. 2 candidate `xu = min Xc + 2^β` (as i128 so
        // +2^β cannot overflow); an xu above xmax means "no upper
        // outliers". Returns the partition index `k` plus the part sizes
        // the jump/break bounds need.
        let mut try_beta = |beta: u32, best: &mut Best| -> (usize, u64, u64) {
            best.candidates += 1;
            let xu = min_xc as i128 + (1i128 << beta);
            let (k, xu_opt) = if xu > xmax as i128 {
                (m, None)
            } else {
                let xu = xu as i64;
                // First distinct index with vals[k] ≥ xu, by a forward
                // scan from this β's cursor. For a fixed β, xu grows with
                // min Xc, i.e. with xl, so the index never moves back; it
                // is also ≥ cidx because vals[cidx − 1] = xl < xu. The scan
                // stops by xmax ≥ xu, and each cursor crosses the block
                // at most once.
                let cursor = &mut cursors[beta as usize];
                let mut k = (*cursor).max(cidx);
                while vals[k] < xu {
                    k += 1;
                }
                *cursor = k;
                (k, Some(xu))
            };
            let count_lt = if k > 0 { cum[k - 1] as u64 } else { 0 };
            let nu = n - count_lt;
            debug_assert!(count_lt >= nl, "lower part leaked past xu");
            let nc = count_lt - nl;
            let gamma = if k < m {
                width1(range_u64(vals[k], xmax)) as u64
            } else {
                0
            };
            let beta_cost = if nc > 0 {
                width1(range_u64(min_xc, vals[k - 1])) as u64
            } else {
                0
            };
            let cost = lower_term + nu * (gamma + 1) + nc * beta_cost + n;
            if cost < best.cost {
                best.cost = cost;
                best.sep = Some(Separation { xl, xu: xu_opt });
            }
            (k, nu, nc)
        };

        // Empty-center candidate: everything above xl is an upper outlier.
        // Its partition index is cidx by construction (xu = min Xc =
        // vals[cidx], and exactly the nl lower values sit below it), so
        // the part sizes need no binary search.
        best.candidates += 1;
        {
            let nu = n - nl;
            let gamma = width1(range_u64(min_xc, xmax)) as u64;
            let cost = lower_term + nu * (gamma + 1) + n;
            if cost < best.cost {
                best.cost = cost;
                best.sep = Some(Separation {
                    xl,
                    xu: Some(min_xc),
                });
            }
        }

        // Proposition 2 family: xu = min Xc + 2^β for every feasible
        // center width; the last class reaches "no upper outliers".
        // Consecutive β landing in the same distinct-value gap share the
        // partition index k, hence the exact cost — only the first of each
        // class is costed, the rest are jumped over (counted as prunes).
        let max_beta = width1(range_u64(min_xc, xmax));
        // Completeness (Prop. 2): the widest feasible β must swallow the
        // whole remainder, i.e. the family provably ends at the
        // no-upper-outlier candidate rather than stopping short.
        debug_assert!(
            min_xc as i128 + (1i128 << max_beta) > xmax as i128,
            "Prop. 2 candidate family stops before the no-outlier case"
        );
        let mut beta = 1u32;
        while beta <= max_beta {
            let (k, _nu, nc) = try_beta(beta, best);
            if k >= m {
                // Every wider β maps to the identical no-upper-outlier
                // candidate (xu = None): nothing new to cost.
                best.prunes += u64::from(max_beta - beta);
                break;
            }
            // Seeded cut: every remaining candidate keeps ≥ nc values in a
            // center of width ≥ β+1 plus the n bitmap bits, so its cost is
            // ≥ this bound — when that already reaches the incumbent cut,
            // no remaining candidate can strictly improve or be a first
            // attainer (equal cost ⇒ an earlier attainer already won).
            let cut = best.cost.min(seed_plus1);
            if lower_term + n + nc * (u64::from(beta) + 1) >= cut {
                best.prunes += u64::from(max_beta - beta);
                break;
            }
            // Prop. 2 partition jump: the smallest β whose xu clears
            // vals[k] (2^width(d) > d), i.e. the next *distinct* class.
            let next = (beta + 1).max(width(range_u64(min_xc, vals[k])));
            best.prunes += u64::from(next - beta - 1);
            beta = next;
        }

        // Proposition 3 family: xu = xmax − 2^γ + 1, widening the upper
        // part until it reaches down to xl (or past the center minimum,
        // where wider γ only repeats the empty-center candidate). The
        // partition of each class is xl-independent, so the binary
        // searches and jumps were hoisted into the precomputed `ladder`;
        // this loop replays it with this xl's break conditions, visiting
        // exactly the classes (and tallying exactly the prunes) the
        // original per-xl γ loop did.
        let xl_bound = xl.map_or(i64::MIN as i128 - 1, |l| l as i128);
        for e in ladder {
            if e.xu <= xl_bound {
                best.prunes += 1;
                break;
            }
            best.candidates += 1;
            // Prop. 3 candidates sit above the fixed lower threshold, so
            // the center count can never underflow.
            debug_assert!(e.k >= cidx, "candidate xu fell below xl");
            debug_assert!(e.count_lt >= nl, "lower part leaked past xu");
            let nu = n - e.count_lt;
            let nc = e.count_lt - nl;
            let beta = if nc > 0 {
                width1(range_u64(min_xc, e.center_max)) as u64
            } else {
                0
            };
            let cost = lower_term + nu * (e.gamma_cost + 1) + nc * beta + n;
            if cost < best.cost {
                best.cost = cost;
                best.sep = Some(Separation {
                    xl,
                    // Safe: xu > xl_bound ≥ i64::MIN − 1 when costed.
                    xu: Some(e.xu as i64),
                });
            }
            if e.xu <= min_xc as i128 {
                break;
            }
            // Seeded cut: remaining candidates push the upper part wider —
            // ≥ nu values at width ≥ γ+1 — so their cost is at least this.
            let cut = best.cost.min(seed_plus1);
            if lower_term + n + nu * (u64::from(e.gamma) + 2) >= cut {
                best.prunes += 1;
                break;
            }
            best.prunes += e.gap;
        }
    }
}

impl Solver for BitWidthSolver {
    fn name(&self) -> &'static str {
        if self.config.upper_only {
            "BOS-B (upper only)"
        } else {
            "BOS-B"
        }
    }

    fn solve_into(&mut self, values: &[i64], scratch: &mut SolverScratch) -> Solution {
        if values.is_empty() {
            return Solution::Plain { cost_bits: 0 };
        }
        // Seed the incumbent bound with the cost of BOS-M's best window:
        // it is the exact evaluation of one candidate in this search space,
        // so seed ≥ optimum always, and every candidate provably costlier
        // than the seed can be cut. The seed is *not* installed as the
        // incumbent (that could change which equal-cost separation wins);
        // it only tightens the cut. With the sorted summary already built,
        // [`median_seed_cost`] prices the whole BOS-M window family in
        // O(W log m) — cheaper than a second O(n) pass over raw values.
        scratch.block.rebuild(values, &mut scratch.buf);
        let seed = median_seed_cost(&scratch.block, self.config);
        self.solve_seeded(&scratch.block, seed)
    }
}

/// Prices BOS-M's symmetric window family `(median − 2^β, median + 2^β)`
/// on a pre-built sorted summary and returns the cheapest exact cost —
/// the seed bound for [`BitWidthSolver::solve_seeded`].
///
/// Same candidate space as [`super::median::search`] (Algorithm 3), but
/// O(W log m) on the summary instead of O(n) over the raw values: each
/// window is priced with two binary searches over the distinct values and
/// the cumulative counts. The only property `solve_seeded` needs from a
/// seed is that it is the *exact* cost of some achievable candidate, which
/// each window price is by construction; `u64::MAX` (no separating window)
/// degrades to the unseeded search.
fn median_seed_cost(block: &SortedBlock, config: SolverConfig) -> u64 {
    let vals = block.distinct();
    let cum = block.cumulative();
    let m = vals.len();
    let n = block.n();
    if m == 0 {
        return 0;
    }
    let xmin = vals[0];
    let xmax = vals[m - 1];
    // Median by rank (the lower median, matching `select_nth_unstable`
    // at n / 2): the first distinct value whose cumulative count covers
    // sorted position n / 2.
    let mid = n / 2;
    let median = vals[cum.partition_point(|&c| c <= mid)];

    let mut seed = u64::MAX;
    let max_beta = width1(range_u64(xmin, xmax)).min(63);
    for beta in 1..=max_beta {
        // Lower part: values ≤ median − 2^β (kept empty in upper-only
        // mode, mirroring BOS-M's restricted candidate set).
        let (nl, alpha, lo_idx) = if config.upper_only {
            (0u64, 0u64, 0usize)
        } else {
            let xl = median as i128 - (1i128 << beta);
            let idx = vals.partition_point(|&x| (x as i128) <= xl);
            if idx == 0 {
                (0, 0, 0)
            } else {
                (
                    cum[idx - 1] as u64,
                    width1(range_u64(xmin, vals[idx - 1])) as u64,
                    idx,
                )
            }
        };
        // Upper part: values ≥ median + 2^β.
        let xu = median as i128 + (1i128 << beta);
        let hi_idx = vals.partition_point(|&x| (x as i128) < xu);
        let below = if hi_idx == 0 {
            0
        } else {
            cum[hi_idx - 1] as u64
        };
        let nu = n as u64 - below;
        if nl == 0 && nu == 0 {
            break; // wider windows only repeat the plain candidate
        }
        let gamma = if hi_idx < m {
            width1(range_u64(vals[hi_idx], xmax)) as u64
        } else {
            0
        };
        let nc = n as u64 - nl - nu;
        let bw = if nc > 0 {
            width1(range_u64(vals[lo_idx], vals[hi_idx - 1])) as u64
        } else {
            0
        };
        let cost = nl * (alpha + 1) + nu * (gamma + 1) + nc * bw + n as u64;
        seed = seed.min(cost);
    }
    seed
}

impl BitWidthSolver {
    /// Solves from a pre-built [`SortedBlock`] summary (unseeded search).
    pub fn solve(&self, block: &SortedBlock) -> Solution {
        self.solve_seeded(block, u64::MAX)
    }

    /// Solves with a known-achievable cost bound, such as
    /// [`median_seed_cost`]'s (`u64::MAX` means unseeded). `seed_cost`
    /// must be the exact cost of some candidate in this search space (or
    /// an overestimate): the search cuts candidates whose cost lower
    /// bound exceeds `min(best, seed + 1)`, which provably never changes
    /// the returned `Solution` — only how many candidates get costed on
    /// the way.
    fn solve_seeded(&self, block: &SortedBlock, seed_cost: u64) -> Solution {
        if block.is_empty() {
            return Solution::Plain { cost_bits: 0 };
        }
        let seed_plus1 = seed_cost.saturating_add(1);
        let mut best = Best {
            cost: block.plain_cost_bits(),
            sep: None,
            candidates: 0,
            prunes: 0,
        };
        let vals = block.distinct();
        let cum = block.cumulative();
        let m = vals.len();
        let n = block.n() as u64;
        let xmin = vals[0];

        // Proposition 3 candidates partition the block independently of
        // xl: precompute the whole family once instead of re-searching it
        // under every lower threshold.
        let mut ladder = [Prop3Entry::default(); 64];
        let ladder_len = build_prop3_ladder(vals, cum, &mut ladder);
        let ladder = &ladder[..ladder_len];
        // Proposition 2 partition indexes, one forward cursor per width β:
        // the xl loop below only moves xl up, so no cursor ever moves back.
        let mut cursors = [0usize; 65];

        // xl = None, then every distinct value as xl. (xl = xmax leaves
        // nothing above it; search_uppers returns immediately, and the
        // all-lower partition it represents is dominated by the symmetric
        // all-upper one covered by the xl = None iteration.)
        Self::search_uppers(
            block,
            ladder,
            &mut cursors,
            0,
            None,
            0,
            0,
            seed_plus1,
            &mut best,
        );
        if !self.config.upper_only {
            for li in 0..m {
                let nl = cum[li] as u64;
                let alpha = width1(range_u64(xmin, vals[li])) as u64;
                // Family-level cut: every candidate with this (or any
                // later) xl pays the lower term, ≥ 1 payload bit for each
                // of the n − nl remaining values (β ≥ 1 when nc > 0,
                // γ + 1 ≥ 2 when nu > 0) and the n bitmap bits. The bound
                // is nondecreasing in li (nl and α both grow), so once it
                // reaches the cut the whole rest of the xl loop is dead.
                let cut = best.cost.min(seed_plus1);
                if nl * (alpha + 1) + (n - nl) + n >= cut {
                    best.prunes += (m - li) as u64;
                    break;
                }
                Self::search_uppers(
                    block,
                    ladder,
                    &mut cursors,
                    li + 1,
                    Some(vals[li]),
                    nl,
                    nl * (alpha + 1),
                    seed_plus1,
                    &mut best,
                );
            }
        }
        BLOCKS.inc();
        CANDIDATES.add(best.candidates);
        PRUNES.add(best.prunes);
        obs::trail::emit(obs::trail::Event::BlockSolved {
            solver: self.name(),
            separated: best.sep.is_some(),
            cost_bits: best.cost,
            candidates: best.candidates,
            prunes: best.prunes,
        });
        match best.sep {
            None => Solution::Plain {
                cost_bits: best.cost,
            },
            Some(sep) => {
                debug_assert_eq!(block.evaluate(sep).cost_bits, best.cost);
                Solution::Separated {
                    sep,
                    cost_bits: best.cost,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{solve_values, ValueSolver};

    #[test]
    fn intro_example_matches_bos_v() {
        let values = [3i64, 2, 4, 5, 3, 2, 0, 8];
        let sol = solve_values(&BitWidthSolver::new(), &values);
        assert_eq!(sol.cost_bits(), 24);
    }

    /// The central correctness claim: BOS-B returns the optimal cost
    /// (identical to BOS-V) on every block.
    #[test]
    fn matches_bos_v_on_crafted_blocks() {
        let cases: Vec<Vec<i64>> = vec![
            vec![3, 2, 4, 5, 3, 2, 0, 8],
            vec![],
            vec![7],
            vec![7, 7, 7, 7],
            vec![0, 1],
            vec![i64::MIN, i64::MAX],
            vec![i64::MIN, -1, 0, 1, i64::MAX],
            vec![0, 0, 0, 1_000_000],
            vec![-500, 1, 2, 3, 4, 5, 900],
            (0..100).collect(),
            (0..100).map(|i| i * i).collect(),
            vec![1, 1, 1, 1, 2, 2, 100, 100, 101, 10_000],
            // two clusters → empty center optimum
            vec![0, 1, 2, 3, 1 << 40, (1 << 40) + 1, (1 << 40) + 2],
            // lower tail only
            vec![-1000, -999, 5, 6, 7, 8, 9, 5, 6, 7],
            // three clusters
            vec![0, 1, 500_000, 500_001, 1_000_000_000, 1_000_000_001],
        ];
        let v = ValueSolver::new();
        let b = BitWidthSolver::new();
        for case in cases {
            let expected = solve_values(&v, &case).cost_bits();
            let got = solve_values(&b, &case).cost_bits();
            assert_eq!(got, expected, "mismatch on {case:?}");
        }
    }

    #[test]
    fn upper_only_matches_value_upper_only() {
        let cases: Vec<Vec<i64>> = vec![
            vec![3, 2, 4, 5, 3, 2, 0, 8],
            vec![0, 0, 0, 1_000_000],
            (0..60).map(|i| i * 3).collect(),
            vec![-50, 1, 2, 3, 1000, 1001],
        ];
        let v = ValueSolver::upper_only();
        let b = BitWidthSolver::upper_only();
        for case in cases {
            assert_eq!(
                solve_values(&b, &case).cost_bits(),
                solve_values(&v, &case).cost_bits(),
                "mismatch on {case:?}"
            );
        }
    }

    #[test]
    fn exhaustive_small_domain_equality() {
        // Every block of length ≤ 5 over the domain {0, 1, 6, 7, 40} —
        // exhaustively confirms BOS-B optimality where BOS-V is optimal
        // by Proposition 1.
        let domain = [0i64, 1, 6, 7, 40];
        let v = ValueSolver::new();
        let b = BitWidthSolver::new();
        let mut case = Vec::new();
        fn rec(
            domain: &[i64],
            case: &mut Vec<i64>,
            len: usize,
            v: &ValueSolver,
            b: &BitWidthSolver,
        ) {
            if case.len() == len {
                let expected = solve_values(v, case).cost_bits();
                let got = solve_values(b, case).cost_bits();
                assert_eq!(got, expected, "mismatch on {case:?}");
                return;
            }
            for &d in domain {
                case.push(d);
                rec(domain, case, len, v, b);
                case.pop();
            }
        }
        for len in 1..=5 {
            rec(&domain, &mut case, len, &v, &b);
        }
    }

    #[test]
    fn never_worse_than_plain() {
        let b = BitWidthSolver::new();
        for values in [vec![5i64; 10], (0..1000).collect(), vec![-1, 1]] {
            let block = SortedBlock::from_values(&values);
            assert!(b.solve(&block).cost_bits() <= block.plain_cost_bits());
        }
    }
}
