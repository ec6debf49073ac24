//! Frozen reference copies of the pre-overhaul BOS-V / BOS-B searches.
//!
//! These are verbatim snapshots (minus the obs counters) of the solver
//! search loops as they stood before the scratch-reusing, seeded-pruning
//! overhaul. The differential proptests in `solver_differential.rs` pin
//! the overhauled solvers to return *bit-identical* `Solution`s (same
//! variant, same thresholds, same cost) against them over adversarial
//! distributions.
//!
//! Nothing here is wired into any encode path; do not "optimize" this file.

use bitpack::width::{range_u64, width1};
use bos::cost::{Separation, Solution, SortedBlock};
use bos::SolverConfig;

/// Frozen BOS-V: the O(m²) exact search exactly as first shipped.
pub fn value_solve(config: SolverConfig, values: &[i64]) -> Solution {
    let block = SortedBlock::from_values(values);
    let mut best = Solution::Plain {
        cost_bits: block.plain_cost_bits(),
    };
    if block.is_empty() {
        return best;
    }
    let vals = block.distinct();
    let cum = block.cumulative();
    let n = block.n() as u64;
    let m = vals.len();
    let xmin = vals[0];
    let xmax = vals[m - 1];

    let mut best_cost = best.cost_bits();
    let mut best_pair: Option<(usize, usize)> = None;

    // li = 0 encodes xl = None; li = k ≥ 1 encodes xl = vals[k−1].
    // ui = m encodes xu = None; ui < m encodes xu = vals[ui].
    let lower_candidates = if config.upper_only { 0..=0 } else { 0..=m };
    for li in lower_candidates {
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
                continue; // exactly the plain solution
            }
            let (nu, gamma) = if ui == m {
                (0u64, 0u64)
            } else {
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
            if cost < best_cost {
                best_cost = cost;
                best_pair = Some((li, ui));
            }
        }
    }
    if let Some((li, ui)) = best_pair {
        let sep = Separation {
            xl: if li == 0 { None } else { Some(vals[li - 1]) },
            xu: if ui == m { None } else { Some(vals[ui]) },
        };
        best = Solution::Separated {
            sep,
            cost_bits: best_cost,
        };
    }
    best
}

/// Current best candidate during the frozen BOS-B search.
struct Best {
    cost: u64,
    sep: Option<Separation>,
}

/// Frozen BOS-B upper-candidate enumeration for one fixed `xl`.
fn search_uppers(
    block: &SortedBlock,
    cidx: usize,
    xl: Option<i64>,
    nl: u64,
    lower_term: u64,
    best: &mut Best,
) {
    let vals = block.distinct();
    let cum = block.cumulative();
    let m = vals.len();
    let n = block.n() as u64;
    if cidx >= m {
        return; // xl swallows the whole block; nothing above it
    }
    let min_xc = vals[cidx];
    let xmax = vals[m - 1];

    let try_xu = |xu: i128, best: &mut Best| {
        let (k, xu_opt) = if xu > xmax as i128 {
            (m, None)
        } else {
            let xu = xu as i64;
            (vals.partition_point(|&x| x < xu), Some(xu))
        };
        let count_lt = if k > 0 { cum[k - 1] as u64 } else { 0 };
        let nu = n - count_lt;
        let nc = count_lt - nl;
        let gamma = if k < m {
            width1(range_u64(vals[k], xmax)) as u64
        } else {
            0
        };
        let beta = if nc > 0 {
            width1(range_u64(min_xc, vals[k - 1])) as u64
        } else {
            0
        };
        let cost = lower_term + nu * (gamma + 1) + nc * beta + n;
        if cost < best.cost {
            best.cost = cost;
            best.sep = Some(Separation { xl, xu: xu_opt });
        }
    };

    // Empty-center candidate: everything above xl is an upper outlier.
    try_xu(min_xc as i128, best);

    // Proposition 2 family: xu = min Xc + 2^β for every feasible width.
    let max_beta = width1(range_u64(min_xc, xmax));
    for beta in 1..=max_beta {
        try_xu(min_xc as i128 + (1i128 << beta), best);
    }

    // Proposition 3 family: xu = xmax − 2^γ + 1 until it passes xl.
    let xl_bound = xl.map_or(i64::MIN as i128 - 1, |l| l as i128);
    for gamma in 1..=64u32 {
        let xu = xmax as i128 - (1i128 << gamma) + 1;
        if xu <= xl_bound {
            break;
        }
        try_xu(xu, best);
        if xu <= min_xc as i128 {
            break;
        }
    }
}

/// Frozen BOS-B: the O(m log m) exact search exactly as first shipped.
pub fn bitwidth_solve(config: SolverConfig, values: &[i64]) -> Solution {
    let block = SortedBlock::from_values(values);
    if block.is_empty() {
        return Solution::Plain { cost_bits: 0 };
    }
    let mut best = Best {
        cost: block.plain_cost_bits(),
        sep: None,
    };
    let vals = block.distinct();
    let cum = block.cumulative();
    let xmin = vals[0];

    search_uppers(&block, 0, None, 0, 0, &mut best);
    if !config.upper_only {
        for li in 0..vals.len() {
            let nl = cum[li] as u64;
            let alpha = width1(range_u64(xmin, vals[li])) as u64;
            search_uppers(
                &block,
                li + 1,
                Some(vals[li]),
                nl,
                nl * (alpha + 1),
                &mut best,
            );
        }
    }
    match best.sep {
        None => Solution::Plain {
            cost_bits: best.cost,
        },
        Some(sep) => Solution::Separated {
            sep,
            cost_bits: best.cost,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frozen_copies_agree_with_each_other() {
        let cases: Vec<Vec<i64>> = vec![
            vec![3, 2, 4, 5, 3, 2, 0, 8],
            vec![],
            vec![7, 7, 7, 7],
            vec![i64::MIN, -1, 0, 1, i64::MAX],
            vec![0, 1, 2, 3, 1 << 40, (1 << 40) + 1, (1 << 40) + 2],
            (0..100).map(|i| i * i).collect(),
        ];
        for case in cases {
            let v = value_solve(SolverConfig::default(), &case);
            let b = bitwidth_solve(SolverConfig::default(), &case);
            assert_eq!(v.cost_bits(), b.cost_bits(), "mismatch on {case:?}");
        }
    }
}
