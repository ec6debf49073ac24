//! Theoretical bounds from the paper (Proposition 4 and its appendix).
//!
//! While the exact solvers carry per-instance optimality proofs
//! (Propositions 1–3, verified empirically by the BOS-V ≡ BOS-B tests),
//! BOS-M's guarantee is distributional: for normal data the approximation
//! ratio `ρ = C_approx / C_opt` is bounded (with probability 0.997, i.e.
//! within ±3σ). This module provides the bound and related estimates used
//! by the `exp_prop4_approx` experiment.

/// Proposition 4's bound on BOS-M's approximation ratio for
/// `X ~ N(µ, σ²)`:
///
/// ```text
/// ρ ≤ 2                    if σ ≤ 5/3,
/// ρ ≤ ⌈log2(3σ − 1)⌉       otherwise.
/// ```
pub fn median_approx_bound(sigma: f64) -> f64 {
    assert!(sigma > 0.0, "σ must be positive");
    if sigma <= 5.0 / 3.0 {
        2.0
    } else {
        (3.0 * sigma - 1.0).log2().ceil()
    }
}

/// The ±3σ mass bound the proposition's probability comes from: a normal
/// sample lies within `µ ± 3σ` with probability ≈ 0.9973.
pub const THREE_SIGMA_MASS: f64 = 0.9973;

/// Expected plain bit-packing cost per value for `N(µ, σ²)` truncated to
/// ±3σ and rounded to integers: `⌈log2(6σ + 1)⌉` bits (the width of the
/// 6σ range), used as the denominator intuition in the appendix.
pub fn plain_bits_per_value(sigma: f64) -> u32 {
    assert!(sigma > 0.0);
    let range = 6.0 * sigma;
    (range + 1.0).log2().ceil().max(0.0) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{solve_values, BitWidthSolver, MedianSolver};

    #[test]
    fn bound_shape() {
        assert_eq!(median_approx_bound(0.1), 2.0);
        assert_eq!(median_approx_bound(5.0 / 3.0), 2.0);
        assert_eq!(median_approx_bound(2.0), 3.0); // ceil(log2(5)) = 3
        assert_eq!(median_approx_bound(1024.0), 12.0);
        assert!(median_approx_bound(1e6) < 25.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_sigma_rejected() {
        median_approx_bound(0.0);
    }

    #[test]
    fn plain_bits_grows_logarithmically() {
        assert!(plain_bits_per_value(1.0) <= 3);
        assert_eq!(plain_bits_per_value(10.0), 6); // 60-wide range → 6 bits
        assert!(plain_bits_per_value(1000.0) <= 13);
    }

    /// Deterministic end-to-end check of the bound on pseudo-normal data
    /// (the randomized sweep lives in `exp_prop4_approx`).
    #[test]
    fn bound_holds_on_pseudo_normal_blocks() {
        // A 12-uniform-sum approximation of N(0, σ²) with a deterministic
        // LCG, so the test needs no RNG dependency.
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut next_uniform = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for sigma in [1.0f64, 4.0, 32.0, 256.0] {
            let values: Vec<i64> = (0..2048)
                .map(|_| {
                    let z: f64 = (0..12).map(|_| next_uniform()).sum::<f64>() - 6.0;
                    (z * sigma).round() as i64
                })
                .collect();
            let opt = solve_values(&BitWidthSolver::new(), &values)
                .cost_bits()
                .max(1);
            let approx = solve_values(&MedianSolver::new(), &values).cost_bits();
            let rho = approx as f64 / opt as f64;
            assert!(
                rho <= median_approx_bound(sigma),
                "σ={sigma}: ρ={rho} exceeds bound {}",
                median_approx_bound(sigma)
            );
        }
    }
}
