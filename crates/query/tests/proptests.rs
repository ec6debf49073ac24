//! Property tests: every scanner answer must equal the brute-force answer
//! on the decoded series, for arbitrary data, block sizes and predicates.

use bitpack::codec::encode_blocks_parallel;
use bos::{BosCodec, SolverKind};
use proptest::prelude::*;
use query::Scanner;

fn stream_of(values: &[i64], block: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_blocks_parallel(
        &BosCodec::new(SolverKind::BitWidth),
        values,
        block,
        2,
        &mut buf,
    )
    .unwrap();
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn count_equals_bruteforce(
        values in prop::collection::vec(-10_000i64..10_000, 0..3000),
        block in 1usize..600,
        lo in -12_000i64..12_000,
        span in 0i64..8_000,
    ) {
        let hi = lo.saturating_add(span);
        let stream = stream_of(&values, block);
        let scanner = Scanner::open(&stream).unwrap();
        let expected = values.iter().filter(|&&v| v >= lo && v <= hi).count();
        prop_assert_eq!(scanner.count_in_range(lo, hi).unwrap(), expected);
    }

    #[test]
    fn filter_equals_bruteforce(
        values in prop::collection::vec(-500i64..500, 0..2000),
        block in 1usize..300,
        lo in -600i64..600,
        span in 0i64..500,
    ) {
        let hi = lo.saturating_add(span);
        let stream = stream_of(&values, block);
        let scanner = Scanner::open(&stream).unwrap();
        let expected: Vec<i64> = values.iter().copied().filter(|&v| v >= lo && v <= hi).collect();
        let (got, _) = scanner.filter_range(lo, hi).unwrap();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn aggregates_equal_bruteforce(
        values in prop::collection::vec(any::<i32>(), 0..2000),
        block in 1usize..500,
    ) {
        let values: Vec<i64> = values.into_iter().map(|v| v as i64).collect();
        let stream = stream_of(&values, block);
        let scanner = Scanner::open(&stream).unwrap();
        prop_assert_eq!(scanner.min().unwrap(), values.iter().copied().min());
        prop_assert_eq!(scanner.max().unwrap().0, values.iter().copied().max());
        prop_assert_eq!(scanner.sum().unwrap(), values.iter().map(|&v| v as i128).sum::<i128>());
        prop_assert_eq!(scanner.materialize().unwrap(), values);
    }

    #[test]
    fn extreme_domain_aggregates(
        values in prop::collection::vec(any::<i64>(), 0..500),
        block in 1usize..200,
    ) {
        let stream = stream_of(&values, block);
        let scanner = Scanner::open(&stream).unwrap();
        prop_assert_eq!(scanner.min().unwrap(), values.iter().copied().min());
        prop_assert_eq!(scanner.max().unwrap().0, values.iter().copied().max());
    }

    #[test]
    fn garbage_streams_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        if let Ok(scanner) = Scanner::open(&bytes) {
            let _ = scanner.count_in_range(0, 100);
            let _ = scanner.min();
        }
    }
}
