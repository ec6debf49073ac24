//! Property-based verification of the paper's central claims.
//!
//! * Proposition 1–3: BOS-B's bit-width search returns exactly the optimal
//!   cost found by BOS-V's exhaustive value search.
//! * The cost model (Definition 5 / Formula 7) equals the bits the encoder
//!   actually writes.
//! * Every solver produces streams that decode back to the input.
//! * BOS-M is sandwiched between the optimum and plain bit-packing.
//! * The byte-table block decoder returns the same result, position and
//!   output as the frozen bit-serial one (`reference/decode.rs`) on
//!   valid, truncated, bit-flipped and random bytes.
//! * The one-pass block encoder writes the same bytes as the frozen
//!   sort-based one (`reference/encode.rs`) for every solver's output and
//!   for arbitrary valid separations.

use bos::kpart::{decode_kpart, encode_kpart, solve_kpart};
use bos::solver::{solve_values, BruteForceSolver};
use bos::{
    decode, encode_block_with_solution, BitWidthSolver, BosCodec, MedianSolver, Separation,
    Solution, SolverKind, SortedBlock, ValueSolver,
};
use proptest::prelude::*;
use proptest::TestCaseResult;

// Only the codec half of `reference/`: the solver half is
// `solver_differential.rs`'s.
mod reference {
    pub mod decode;
    pub mod encode;
}

/// Encodes `values` under `solution` with the shipping encoder and with
/// the frozen sort-based one, and demands the same bytes after the same
/// prefix.
fn encoder_matches(values: &[i64], solution: &Solution) -> TestCaseResult {
    let prefix = vec![0xA5u8, 0x5A];
    let mut got = prefix.clone();
    encode_block_with_solution(values, solution, &mut got);
    let mut want = prefix;
    reference::encode::encode_block_with_solution(values, solution, &mut want);
    prop_assert_eq!(got, want, "solution {:?}", solution);
    Ok(())
}

/// A separation priced on `values`, as a solver would return it.
fn separated(values: &[i64], sep: Separation) -> Solution {
    let cost_bits = SortedBlock::from_values(values).evaluate(sep).cost_bits;
    Solution::Separated { sep, cost_bits }
}

/// A threshold near a block value: `None`, or the value at `idx` (mod
/// the length) moved by `delta`, clamped to the `i64` range.
fn threshold(values: &[i64], pick: Option<(usize, i64)>) -> Option<i64> {
    let (idx, delta) = pick?;
    let v = *values.get(idx % values.len())?;
    Some(v.saturating_add(delta))
}

/// Decodes `buf` with the shipping decoder and with the frozen bit-serial
/// one, each into an output that already holds two values, and demands
/// the same result and position, the same values on `Ok`, and an
/// untouched output on `Err`.
fn matches_reference(buf: &[u8]) -> TestCaseResult {
    let before = vec![-7i64, 7];
    let (mut pos, mut out) = (0, before.clone());
    let got = decode(buf, &mut pos, &mut out);
    let (mut ref_pos, mut ref_out) = (0, before.clone());
    let want = reference::decode::decode_block(buf, &mut ref_pos, &mut ref_out);
    prop_assert_eq!(&got, &want);
    prop_assert_eq!(pos, ref_pos);
    prop_assert_eq!(&out, &ref_out);
    if got.is_err() {
        prop_assert_eq!(&out, &before);
    }
    Ok(())
}

/// One block encoded with BOS-B.
fn encode_bosb(values: &[i64]) -> Vec<u8> {
    let mut buf = Vec::new();
    BosCodec::new(SolverKind::BitWidth).encode(values, &mut buf);
    buf
}

/// Value distributions that stress the solvers: tight centers with rare
/// huge outliers on both sides, plus fully random blocks.
fn outlier_blocks() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(
        prop_oneof![
            8 => 0i64..64,               // center mass
            1 => -1_000_000i64..0,       // lower tail
            1 => 1_000_000i64..2_000_000 // upper tail
        ],
        0..200,
    )
}

/// Blocks whose outlier share is drawn from 0–40% (lower and upper alike),
/// at lengths that are mostly not a multiple of 8, so the bitmap's last
/// byte is partial and its codes straddle bytes.
fn outlier_share_blocks() -> impl Strategy<Value = Vec<i64>> {
    let draws = prop::collection::vec(
        (0u32..100, any::<bool>(), 0i64..64, 0i64..1_000_000),
        1..300,
    );
    (0u32..=40, draws).prop_map(|(share, draws)| {
        draws
            .into_iter()
            .map(|(d, low, center, off)| match (d < share, low) {
                (false, _) => center,
                (true, true) => -1 - off,
                (true, false) => 1_000_000 + off,
            })
            .collect()
    })
}

/// Non-empty blocks for the encoder pin: the outlier-share blocks plus
/// the adversarial shapes. Runs of one value (duplicates only, the `i64`
/// extremes included), tight centers with tails at `i64::MIN`/`MAX`, two
/// far-apart clusters (empty centers) and fully random values.
fn encoder_blocks() -> impl Strategy<Value = Vec<i64>> {
    prop_oneof![
        3 => outlier_share_blocks(),
        1 => (
            prop_oneof![any::<i64>(), Just(i64::MIN), Just(i64::MAX)],
            1usize..64,
        )
            .prop_map(|(v, n)| vec![v; n]),
        1 => prop::collection::vec(
            prop_oneof![
                16 => 0i64..256,
                1 => Just(i64::MIN),
                1 => Just(i64::MAX),
                1 => i64::MIN..i64::MIN + 1000,
                1 => i64::MAX - 1000..i64::MAX,
            ],
            1..300,
        ),
        1 => prop::collection::vec(
            prop_oneof![1 => 0i64..16, 1 => (1i64 << 40)..(1i64 << 40) + 16],
            1..200,
        ),
        1 => prop::collection::vec(any::<i64>(), 1..96),
    ]
}

fn arbitrary_blocks() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(any::<i64>(), 0..64)
}

fn small_domain_blocks() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(
        prop::sample::select(vec![0i64, 1, 2, 7, 8, 100, -100, 1 << 30]),
        0..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn bosb_equals_bosv_outlier_blocks(values in outlier_blocks()) {
        let v = solve_values(&ValueSolver::new(), &values).cost_bits();
        let b = solve_values(&BitWidthSolver::new(), &values).cost_bits();
        prop_assert_eq!(b, v);
    }

    #[test]
    fn bosb_equals_bosv_arbitrary(values in arbitrary_blocks()) {
        let v = solve_values(&ValueSolver::new(), &values).cost_bits();
        let b = solve_values(&BitWidthSolver::new(), &values).cost_bits();
        prop_assert_eq!(b, v);
    }

    #[test]
    fn bosb_equals_bosv_small_domain(values in small_domain_blocks()) {
        let v = solve_values(&ValueSolver::new(), &values).cost_bits();
        let b = solve_values(&BitWidthSolver::new(), &values).cost_bits();
        prop_assert_eq!(b, v);
    }

    #[test]
    fn proposition1_certified_by_oracle(values in prop::collection::vec(0i64..2000, 1..60)) {
        // BOS-V searches only thresholds from X; the oracle searches every
        // integer threshold in the range. Proposition 1 says they agree.
        let oracle = solve_values(&BruteForceSolver::new(), &values).cost_bits();
        let v = solve_values(&ValueSolver::new(), &values).cost_bits();
        prop_assert_eq!(v, oracle);
    }

    #[test]
    fn upper_only_variants_agree(values in outlier_blocks()) {
        let v = solve_values(&ValueSolver::upper_only(), &values).cost_bits();
        let b = solve_values(&BitWidthSolver::upper_only(), &values).cost_bits();
        prop_assert_eq!(b, v);
    }

    #[test]
    fn median_between_optimal_and_plain(values in outlier_blocks()) {
        prop_assume!(!values.is_empty());
        let opt = solve_values(&BitWidthSolver::new(), &values).cost_bits();
        let med = solve_values(&MedianSolver::new(), &values).cost_bits();
        let plain = SortedBlock::from_values(&values).plain_cost_bits();
        prop_assert!(med >= opt);
        prop_assert!(med <= plain);
    }

    #[test]
    fn median_cost_is_exact_for_its_separation(values in outlier_blocks()) {
        prop_assume!(!values.is_empty());
        let sol = solve_values(&MedianSolver::new(), &values);
        if let Solution::Separated { sep, cost_bits } = sol {
            let block = SortedBlock::from_values(&values);
            prop_assert_eq!(block.evaluate(sep).cost_bits, cost_bits);
        }
    }

    #[test]
    fn roundtrip_all_kinds(values in outlier_blocks()) {
        for kind in SolverKind::ALL {
            let codec = BosCodec::new(kind);
            let mut buf = Vec::new();
            codec.encode(&values, &mut buf);
            let mut pos = 0;
            let mut out = Vec::new();
            prop_assert!(decode(&buf, &mut pos, &mut out).is_ok());
            prop_assert_eq!(&out, &values);
            prop_assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn roundtrip_arbitrary_i64(values in arbitrary_blocks()) {
        let codec = BosCodec::new(SolverKind::BitWidth);
        let mut buf = Vec::new();
        codec.encode(&values, &mut buf);
        let mut pos = 0;
        let mut out = Vec::new();
        prop_assert!(decode(&buf, &mut pos, &mut out).is_ok());
        prop_assert_eq!(out, values);
    }

    #[test]
    fn every_valid_separation_roundtrips(values in outlier_blocks(), li in 0usize..40, ui in 0usize..40) {
        prop_assume!(!values.is_empty());
        let block = SortedBlock::from_values(&values);
        let d = block.distinct();
        let xl = d.get(li % d.len()).copied();
        let xu = d.get(ui % d.len()).copied();
        let sep = bos::Separation { xl, xu };
        prop_assume!(sep.is_valid());
        let eval = block.evaluate(sep);
        let solution = Solution::Separated { sep, cost_bits: eval.cost_bits };
        let mut buf = Vec::new();
        encode_block_with_solution(&values, &solution, &mut buf);
        let mut pos = 0;
        let mut out = Vec::new();
        prop_assert!(decode(&buf, &mut pos, &mut out).is_ok());
        prop_assert_eq!(out, values);
    }

    /// The one-pass encoder writes the frozen encoder's bytes: for every
    /// solver's output on the block, and for a valid separation whose
    /// thresholds sit on, just below or just above block values (or are
    /// absent). Swapping an inverted pair keeps every draw valid, so
    /// empty centers (`xu` right above `xl`), all-lower and all-upper
    /// blocks all occur.
    #[test]
    fn encoder_matches_reference(
        values in encoder_blocks(),
        lo in prop_oneof![1 => Just(None), 4 => (any::<usize>(), -1i64..=1).prop_map(Some)],
        hi in prop_oneof![1 => Just(None), 4 => (any::<usize>(), -1i64..=1).prop_map(Some)],
    ) {
        for kind in SolverKind::ALL {
            encoder_matches(&values, &BosCodec::new(kind).solve(&values))?;
        }
        let (xl, xu) = match (threshold(&values, lo), threshold(&values, hi)) {
            (Some(a), Some(b)) if a > b => (Some(b), Some(a)),
            (Some(a), Some(b)) if a == b => (Some(a), None),
            pair => pair,
        };
        encoder_matches(&values, &separated(&values, Separation { xl, xu }))?;
    }

    #[test]
    fn truncated_streams_never_panic(values in outlier_share_blocks(), cut_ratio in 0.0f64..1.0) {
        let buf = encode_bosb(&values);
        let cut = ((buf.len() as f64) * cut_ratio) as usize;
        // Must not panic, and must fail (or, only at full length, succeed)
        // exactly as the bit-serial decoder does.
        matches_reference(&buf[..cut])?;
        matches_reference(&buf)?;
    }

    #[test]
    fn bit_flips_match_reference(
        values in outlier_share_blocks(),
        flips in prop::collection::vec((any::<usize>(), 0u8..8), 1..4),
    ) {
        let mut buf = encode_bosb(&values);
        prop_assume!(!buf.is_empty());
        // Flips past the header land in the bitmap and the sub-streams.
        for &(at, bit) in &flips {
            let len = buf.len();
            buf[at % len] ^= 1 << bit;
        }
        matches_reference(&buf)?;
    }

    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        matches_reference(&bytes)?;
        let mut pos2 = 0;
        let mut out2 = Vec::new();
        let _ = decode_kpart(&bytes, &mut pos2, &mut out2);
    }

    #[test]
    fn kpart_roundtrip(values in outlier_blocks(), k in 1usize..8) {
        let mut buf = Vec::new();
        encode_kpart(&values, k, &mut buf);
        let mut pos = 0;
        let mut out = Vec::new();
        prop_assert!(decode_kpart(&buf, &mut pos, &mut out).is_ok());
        prop_assert_eq!(out, values);
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn kpart_cost_monotone_in_k(values in outlier_blocks()) {
        prop_assume!(!values.is_empty());
        let block = SortedBlock::from_values(&values);
        let mut last = u64::MAX;
        for k in 1..=7 {
            let c = solve_kpart(&block, k).cost_bits;
            prop_assert!(c <= last, "k={} cost {} > {}", k, c, last);
            last = c;
        }
    }

    #[test]
    fn kpart3_never_worse_than_bos(values in outlier_blocks()) {
        prop_assume!(!values.is_empty());
        let block = SortedBlock::from_values(&values);
        let kp = solve_kpart(&block, 3).cost_bits;
        let bos = solve_values(&BitWidthSolver::new(), &values).cost_bits();
        prop_assert!(kp <= bos);
    }

    #[test]
    fn solver_cost_matches_evaluator(values in outlier_blocks()) {
        prop_assume!(!values.is_empty());
        let block = SortedBlock::from_values(&values);
        for sol in [
            solve_values(&ValueSolver::new(), &values),
            solve_values(&BitWidthSolver::new(), &values),
        ] {
            match sol {
                Solution::Plain { cost_bits } => {
                    prop_assert_eq!(cost_bits, block.plain_cost_bits())
                }
                Solution::Separated { sep, cost_bits } => {
                    prop_assert_eq!(block.evaluate(sep).cost_bits, cost_bits)
                }
            }
        }
    }
}

/// Every separation with thresholds in `{None} ∪ {v − 1, v, v + 1}` over
/// the distinct values `v` of small blocks, through both encoders: all
/// empty-center, all-lower, all-upper and one-part cases, with
/// duplicates and the `i64` extremes.
#[test]
fn encoder_matches_reference_on_every_near_value_separation() {
    let blocks: [&[i64]; 6] = [
        &[3, 2, 4, 5, 3, 2, 0, 8],
        &[7, 7, 7],
        &[i64::MIN, 0, i64::MAX, i64::MAX, i64::MIN],
        &[0, 1, 2, 3, 1 << 40, (1 << 40) + 1, 2, 2, 1 << 40],
        &[
            -5, -5, 1000, -5, 1000, 3, 3, 3, 3, -1_000_000, 9, 9, 9, 9, 9, 9, 9,
        ],
        &[i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX],
    ];
    for values in blocks {
        let mut thresholds = vec![None];
        for &v in SortedBlock::from_values(values).distinct() {
            for t in [v.checked_sub(1), Some(v), v.checked_add(1)] {
                if t.is_some() && !thresholds.contains(&t) {
                    thresholds.push(t);
                }
            }
        }
        for &xl in &thresholds {
            for &xu in &thresholds {
                let sep = Separation { xl, xu };
                if sep.is_valid() {
                    encoder_matches(values, &separated(values, sep))
                        .unwrap_or_else(|e| panic!("{values:?} {sep:?}: {e:?}"));
                }
            }
        }
    }
}

/// An invalid separation (`xl ≥ xu`) still panics in the encoder, as
/// `SortedBlock::evaluate` does.
#[test]
#[should_panic(expected = "invalid separation")]
fn encoder_rejects_an_invalid_separation() {
    let sep = Separation {
        xl: Some(5),
        xu: Some(5),
    };
    let solution = Solution::Separated { sep, cost_bits: 0 };
    encode_block_with_solution(&[1, 5, 9], &solution, &mut Vec::new());
}
