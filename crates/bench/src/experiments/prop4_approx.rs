//! Proposition 4 — BOS-M's approximation ratio on normal data.
//!
//! For `X ~ N(µ, σ²)` the paper bounds `ρ = C_approx / C_opt` by 2 when
//! `σ ≤ 5/3` and by `⌈log2(3σ − 1)⌉` otherwise (with probability 0.997).
//! This experiment sweeps σ, measures ρ empirically and checks the bound.

use crate::harness::{Config, Table};
use bos::solver::solve_values;
use bos::{BitWidthSolver, MedianSolver};
use datasets::synth::Synth;

/// The paper's bound for a given σ (re-exported from the library).
pub fn bound(sigma: f64) -> f64 {
    bos::theory::median_approx_bound(sigma)
}

/// Empirical ρ over `trials` normal blocks of `n` values.
pub fn measure_rho(sigma: f64, n: usize, trials: usize, seed: u64) -> f64 {
    let mut worst: f64 = 1.0;
    let exact = BitWidthSolver::new();
    let approx = MedianSolver::new();
    for t in 0..trials {
        let mut s = Synth::new(seed.wrapping_add(t as u64));
        let values: Vec<i64> = (0..n)
            .map(|_| s.gaussian(0.0, sigma).round() as i64)
            .collect();
        let opt = solve_values(&exact, &values).cost_bits().max(1);
        let med = solve_values(&approx, &values).cost_bits();
        worst = worst.max(med as f64 / opt as f64);
    }
    worst
}

/// Runs the experiment.
pub fn run(cfg: &Config) {
    super::banner(
        "Proposition 4: BOS-M approximation ratio on N(0, σ²) data",
        cfg,
    );
    let mut table = Table::new(["σ", "worst ρ", "bound", "within bound"]);
    let mut all_ok = true;
    for sigma in [
        0.5,
        1.0,
        5.0 / 3.0,
        2.0,
        4.0,
        8.0,
        16.0,
        64.0,
        256.0,
        1024.0,
    ] {
        let rho = measure_rho(sigma, 1024, 20, 0xB05);
        let b = bound(sigma);
        let ok = rho <= b + 1e-9;
        all_ok &= ok;
        table.row([
            format!("{sigma:.2}"),
            format!("{rho:.3}"),
            format!("{b:.0}"),
            if ok {
                "yes".to_string()
            } else {
                "NO".to_string()
            },
        ]);
    }
    table.print();
    println!();
    assert!(all_ok, "approximation bound violated");
    println!("BOS-M stays within the Proposition 4 bound at every σ, and is in");
    println!("practice within a few percent of optimal on normal data.");
}
