//! Adaptive solver: O(n) effort by default, exact effort where it pays.
//!
//! Production encoders face a fleet-wide version of the paper's Figure 10b
//! trade-off: BOS-B buys ~15 % extra ratio over BOS-M at ~10× the CPU.
//! Most blocks don't need it — BOS-M is near-optimal on the near-normal
//! deltas of Figure 8 (Proposition 4) — but skewed blocks (TH-Climate
//! style) lose real bits. This solver runs BOS-M first and escalates to
//! BOS-B only when two tests agree the gap is worth CPU:
//!
//! 1. **Savings ratio** — BOS-M saved less than `1 − escalate_below` of
//!    the plain cost, so the block is either incompressible (exact search
//!    won't help) or mis-separated (it will).
//! 2. **Proposition 4 headroom** — with `ρ = median_approx_bound(σ̂)` the
//!    approximation guarantee bounds the exact optimum from below by
//!    `approx / ρ`, so BOS-B can recover at most `approx · (1 − 1/ρ)`
//!    bits. Escalation is skipped when that ceiling is under `2n` bits
//!    (roughly the price of one extra bitmap) — the bound says the gap
//!    cannot pay for the search.
//!
//! When it does escalate, BOS-M's cost seeds BOS-B's pruning cut
//! ([`BitWidthSolver::solve_seeded`]), so the exact pass is itself cheap.

use super::{median, BitWidthSolver, Solver, SolverConfig, SolverScratch};
use crate::cost::Solution;
use crate::theory;

// Ladder-policy tallies: how often the Prop. 4 gate actually sends a
// block to the exact solver.
static BLOCKS: obs::CounterHandle = obs::CounterHandle::new("solver.BOS-A.blocks");
static ESCALATIONS: obs::CounterHandle = obs::CounterHandle::new("solver.BOS-A.escalations");

/// BOS-M with BOS-B escalation.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveSolver {
    /// Escalate when BOS-M's cost is at least this fraction of the plain
    /// cost (default 0.8: escalate when BOS-M saved less than 20 %).
    /// 0.0 always passes the ratio test (pure BOS-B plus a wasted BOS-M
    /// pass, modulo the Prop. 4 gate); values ≥ 1.0 only escalate when
    /// BOS-M saved nothing at all.
    pub escalate_below: f64,
    /// Shared configuration, forwarded to both inner solvers.
    pub config: SolverConfig,
}

impl Default for AdaptiveSolver {
    fn default() -> Self {
        Self {
            escalate_below: 0.8,
            config: SolverConfig::default(),
        }
    }
}

impl AdaptiveSolver {
    /// Creates the solver with the default escalation threshold.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates the solver with a custom threshold, clamped into `[0, 1]`
    /// (see the field docs for the semantics of the extremes). A NaN
    /// threshold falls back to the default.
    pub fn with_threshold(escalate_below: f64) -> Self {
        let escalate_below = if escalate_below.is_nan() {
            Self::default().escalate_below
        } else {
            escalate_below.clamp(0.0, 1.0)
        };
        Self {
            escalate_below,
            ..Self::default()
        }
    }
}

impl Solver for AdaptiveSolver {
    fn name(&self) -> &'static str {
        "BOS-A"
    }

    fn solve_into(&mut self, values: &[i64], scratch: &mut SolverScratch) -> Solution {
        let (approx, _, _) = median::search(self.config, values, &mut scratch.buf);
        if values.is_empty() {
            return approx;
        }
        BLOCKS.inc();
        // Cheap plain cost: min/max scan only.
        let (min, max) = values
            .iter()
            .fold((i64::MAX, i64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let plain =
            values.len() as u64 * bitpack::width(bitpack::width::range_u64(min, max) as u64) as u64;
        if plain == 0 || (approx.cost_bits() as f64) < self.escalate_below * plain as f64 {
            // Ratio test passed: BOS-M saved enough, no exact pass.
            obs::trail::emit(obs::trail::Event::AdaptiveVerdict {
                escalated: false,
                prop4_skip: false,
                approx_bits: approx.cost_bits(),
                headroom_bits: 0,
            });
            return approx;
        }
        // Proposition 4: approx ≤ ρ · OPT, so the recoverable gap is at
        // most approx · (1 − 1/ρ). σ̂ comes from one streaming pass; if it
        // degenerates to zero (catastrophic f64 cancellation on extreme
        // magnitudes) the bound is unusable and we escalate to be safe.
        let n_f = values.len() as f64;
        let (sum, sumsq) = values.iter().fold((0.0f64, 0.0f64), |(s, q), &v| {
            let v = v as f64;
            (s + v, q + v * v)
        });
        let mean = sum / n_f;
        let sigma = (sumsq / n_f - mean * mean).max(0.0).sqrt();
        let mut headroom_bits = 0u64;
        if sigma > 0.0 {
            let rho = theory::median_approx_bound(sigma);
            let ceiling = approx.cost_bits() as f64 * (1.0 - 1.0 / rho);
            headroom_bits = ceiling.max(0.0) as u64;
            if ceiling < 2.0 * n_f {
                // Prop. 4: the recoverable gap cannot pay for the search.
                obs::trail::emit(obs::trail::Event::AdaptiveVerdict {
                    escalated: false,
                    prop4_skip: true,
                    approx_bits: approx.cost_bits(),
                    headroom_bits,
                });
                return approx;
            }
        }
        ESCALATIONS.inc();
        obs::trail::emit(obs::trail::Event::AdaptiveVerdict {
            escalated: true,
            prop4_skip: false,
            approx_bits: approx.cost_bits(),
            headroom_bits,
        });
        scratch.block.rebuild(values, &mut scratch.buf);
        let exact = BitWidthSolver {
            config: self.config,
        }
        .solve_seeded(&scratch.block, approx.cost_bits());
        if exact.cost_bits() < approx.cost_bits() {
            exact
        } else {
            approx
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{solve_values, BitWidthSolver, MedianSolver};

    #[test]
    fn sandwiched_between_exact_and_approx() {
        let cases: Vec<Vec<i64>> = vec![
            (0..512).map(|i| (i % 37) - 18).collect(),
            (0..512)
                .map(|i| if i % 50 == 0 { 1 << 30 } else { i % 8 })
                .collect(),
            // Skewed, BOS-M's hard case: cluster of low outliers.
            (0..512)
                .map(|i| {
                    if i % 9 == 0 {
                        -(1000 + i)
                    } else {
                        5000 + (i % 4)
                    }
                })
                .collect(),
            vec![],
            vec![7; 64],
        ];
        let a = AdaptiveSolver::new();
        let b = BitWidthSolver::new();
        let m = MedianSolver::new();
        for case in cases {
            let ca = solve_values(&a, &case).cost_bits();
            let cb = solve_values(&b, &case).cost_bits();
            let cm = solve_values(&m, &case).cost_bits();
            assert!(ca >= cb, "adaptive beat exact on {case:?}");
            assert!(ca <= cm, "adaptive worse than approx on {case:?}");
        }
    }

    #[test]
    fn threshold_extremes() {
        let values: Vec<i64> = (0..256)
            .map(|i| if i % 9 == 0 { -9999 } else { 800 + i % 3 })
            .collect();
        // 0.0: the ratio test always passes and the Prop. 4 headroom is
        // ample here → always escalate → exact.
        let always = solve_values(&AdaptiveSolver::with_threshold(0.0), &values);
        // 1.0: BOS-M saved something here, so no escalation → approx.
        let never = solve_values(&AdaptiveSolver::with_threshold(1.0), &values);
        let m = solve_values(&MedianSolver::new(), &values);
        let b = solve_values(&BitWidthSolver::new(), &values);
        assert_eq!(always.cost_bits(), b.cost_bits());
        assert_eq!(never.cost_bits(), m.cost_bits());
    }

    #[test]
    fn escalates_when_approx_saves_little() {
        // Uniform data: BOS-M finds nothing (cost == plain), which trips
        // the default 0.8 threshold; the escalated BOS-B then confirms
        // plain packing is optimal. The adaptive answer must equal BOS-B's.
        let values: Vec<i64> = (0..1024).map(|i| i % 512).collect();
        let a = solve_values(&AdaptiveSolver::new(), &values).cost_bits();
        let b = solve_values(&BitWidthSolver::new(), &values).cost_bits();
        assert_eq!(a, b);
    }

    #[test]
    fn threshold_is_clamped_not_asserted() {
        // Out-of-range and NaN inputs are tamed instead of panicking, so
        // a CLI flag can never take the encoder down.
        assert_eq!(AdaptiveSolver::with_threshold(-3.0).escalate_below, 0.0);
        assert_eq!(AdaptiveSolver::with_threshold(7.5).escalate_below, 1.0);
        assert_eq!(
            AdaptiveSolver::with_threshold(f64::NAN).escalate_below,
            AdaptiveSolver::default().escalate_below
        );
        assert_eq!(AdaptiveSolver::with_threshold(0.4).escalate_below, 0.4);
    }

    #[test]
    fn roundtrips_through_the_codec_format() {
        let values: Vec<i64> = (0..700)
            .map(|i| if i % 31 == 0 { 1 << 35 } else { i % 13 })
            .collect();
        let sol = solve_values(&AdaptiveSolver::new(), &values);
        let mut buf = Vec::new();
        crate::format::encode_block_with_solution(&values, &sol, &mut buf);
        let mut out = Vec::new();
        let mut pos = 0;
        crate::format::decode_block(&buf, &mut pos, &mut out).unwrap();
        assert_eq!(out, values);
    }
}
