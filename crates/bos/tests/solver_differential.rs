//! Differential pinning of the overhauled solvers against frozen
//! references.
//!
//! The PR8 search overhaul (seeded pruning, Proposition 2/3 family jumps,
//! scratch reuse) is only allowed to make the solvers *faster*: the
//! `reference` module keeps verbatim copies of the
//! pre-overhaul searches, and every test here demands the shipping solvers
//! return **bit-identical `Solution`s** — same variant, same thresholds,
//! same cost — over adversarial distributions. A cost-only comparison
//! would let a faster search silently pick a different (equally cheap)
//! separation and change the encoded bytes; these tests pin the bytes.

mod reference;

use bos::solver::solve_values;
use bos::{
    BitWidthSolver, MedianSolver, Solver, SolverConfig, SolverKind, SolverScratch, ValueSolver,
};
use proptest::prelude::*;

fn full() -> SolverConfig {
    SolverConfig::default()
}

fn upper_only() -> SolverConfig {
    SolverConfig { upper_only: true }
}

/// Distributions chosen to hit every pruning branch: tight centers, rare
/// huge tails on either side, ties everywhere.
fn adversarial_blocks() -> impl Strategy<Value = Vec<i64>> {
    prop_oneof![
        // Empty and all-equal blocks.
        Just(vec![]),
        (any::<i64>(), 0usize..64).prop_map(|(v, n)| vec![v; n]),
        // Tight center, occasional enormous outliers both sides.
        prop::collection::vec(
            prop_oneof![
                16 => 0i64..256,
                1 => i64::MIN..i64::MIN + 1000,
                1 => i64::MAX - 1000..i64::MAX,
                2 => -1_000_000i64..0,
                2 => 1_000_000i64..2_000_000,
            ],
            0..300,
        ),
        // Two clusters far apart (empty-center candidates matter).
        prop::collection::vec(
            prop_oneof![1 => 0i64..16, 1 => (1i64 << 40)..(1i64 << 40) + 16],
            0..200,
        ),
        // Single outlier in a constant block.
        (0i64..100, any::<i64>(), 1usize..128).prop_map(|(base, outlier, n)| {
            let mut v = vec![base; n];
            v[n / 2] = outlier;
            v
        }),
        // Mixed magnitudes across the full width ladder.
        prop::collection::vec((any::<i64>(), 0u32..64).prop_map(|(v, s)| v >> s), 0..200,),
        // Fully random.
        prop::collection::vec(any::<i64>(), 0..96),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// BOS-B (seeded + family-jumping) must return the exact `Solution`
    /// the frozen pre-overhaul search returned — including which
    /// separation attains the optimum, not just its cost.
    #[test]
    fn bosb_bit_identical_to_frozen_reference(values in adversarial_blocks()) {
        let expected = reference::bitwidth_solve(full(), &values);
        let got = solve_values(&BitWidthSolver::new(), &values);
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn bosb_upper_only_bit_identical_to_frozen_reference(values in adversarial_blocks()) {
        let expected = reference::bitwidth_solve(upper_only(), &values);
        let got = solve_values(&BitWidthSolver::upper_only(), &values);
        prop_assert_eq!(got, expected);
    }

    /// BOS-V (chunked / parallelizable enumeration) against the frozen
    /// sequential O(m²) loop.
    #[test]
    fn bosv_bit_identical_to_frozen_reference(values in adversarial_blocks()) {
        let expected = reference::value_solve(full(), &values);
        let got = solve_values(&ValueSolver::new(), &values);
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn bosv_upper_only_bit_identical_to_frozen_reference(values in adversarial_blocks()) {
        let expected = reference::value_solve(upper_only(), &values);
        let got = solve_values(&ValueSolver::upper_only(), &values);
        prop_assert_eq!(got, expected);
    }

    /// A scratch dirtied by one block must not influence the next: for
    /// every shipping solver, solving B after A with a shared scratch
    /// equals solving B with a fresh scratch.
    #[test]
    fn dirty_scratch_never_leaks(a in adversarial_blocks(), b in adversarial_blocks()) {
        for kind in SolverKind::ALL {
            let mut solver = kind.build();
            let mut shared = SolverScratch::new();
            let _ = solver.solve_into(&a, &mut shared);
            let dirty = solver.solve_into(&b, &mut shared);
            let fresh = kind.build().solve_into(&b, &mut SolverScratch::new());
            prop_assert_eq!(dirty, fresh, "solver {}", kind.label());
        }
    }

    /// The seeded pruning cut must never change BOS-M itself (the seed
    /// producer): its solutions still evaluate to their claimed cost and
    /// stay within the plain bound.
    #[test]
    fn bosm_scratch_path_matches_one_shot(values in adversarial_blocks()) {
        let mut solver = MedianSolver::new();
        let mut scratch = SolverScratch::new();
        let with_scratch = solver.solve_into(&values, &mut scratch);
        let one_shot = solve_values(&MedianSolver::new(), &values);
        prop_assert_eq!(with_scratch, one_shot);
    }
}

/// A block far larger than the proptest strategies draw, pinned against
/// the frozen reference: thousands of distinct values, so the O(m²) scan
/// runs its longest families.
#[test]
fn bosv_large_block_bit_identical_to_frozen_reference() {
    // > 2048 distinct values with tails on both sides and heavy ties.
    let mut values: Vec<i64> = (0..2600).map(|i| i * 3 % 7919).collect();
    values.extend((0..2600).map(|i| i * 3 % 7919)); // duplicate everything
    values.push(i64::MIN + 17);
    values.push(i64::MAX - 17);
    values.extend([-5_000_000, 5_000_000, 0, 0, 0]);
    let expected = reference::value_solve(full(), &values);
    let got = solve_values(&ValueSolver::new(), &values);
    assert_eq!(got, expected);
    assert!(got.cost_bits() <= expected.cost_bits());
}

/// A large block through BOS-B: exercises the seeded cut on a large
/// candidate ladder.
#[test]
fn bosb_large_block_bit_identical_to_frozen_reference() {
    let mut values: Vec<i64> = (0..2600).map(|i| (i * i) % 100_003).collect();
    values.push(-(1 << 50));
    values.push(1 << 50);
    let expected = reference::bitwidth_solve(full(), &values);
    let got = solve_values(&BitWidthSolver::new(), &values);
    assert_eq!(got, expected);
}

/// TS2DIFF's view of `series`: 1024-value blocks, each handed to the
/// operator as its 1023 order-1 differences (the head value is stored
/// apart), exactly as the store's flushes encode them.
fn ts2diff_blocks(series: &[i64]) -> impl Iterator<Item = Vec<i64>> + '_ {
    series
        .chunks(1024)
        .map(|block| block.windows(2).map(|w| w[1].wrapping_sub(w[0])).collect())
}

/// The shapes the store actually solves: the first 8 TS2DIFF blocks of
/// every dataset generator, 2 seeds each. Here the Prop. 2 cursors make
/// their longest forward runs (hundreds of distinct values per block),
/// which the synthetic strategies above rarely reach.
#[test]
fn bosb_bit_identical_on_store_shaped_blocks() {
    let mut solver = BitWidthSolver::new();
    let mut scratch = SolverScratch::new();
    for abbr in datasets::ABBREVIATIONS {
        for seed in [1, 7] {
            let series = datasets::generate_seeded(abbr, 8 * 1024, seed)
                .expect("registered abbreviation")
                .as_scaled_ints();
            for (i, block) in ts2diff_blocks(&series).enumerate() {
                let expected = reference::bitwidth_solve(full(), &block);
                let got = solver.solve_into(&block, &mut scratch);
                assert_eq!(got, expected, "{abbr} seed {seed} block {i}");
            }
        }
    }
}
