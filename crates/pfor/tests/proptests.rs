//! Property-based roundtrips and cross-codec invariants for the PFOR family.

use bitpack::BlockCodec;
use pfor::{BpCodec, FastPforCodec, NewPforCodec, OptPforCodec, PforCodec, SimplePforCodec};
use proptest::prelude::*;

fn all_codecs() -> Vec<Box<dyn BlockCodec>> {
    vec![
        Box::new(BpCodec::new()),
        Box::new(PforCodec::new()),
        Box::new(NewPforCodec::new()),
        Box::new(OptPforCodec::new()),
        Box::new(FastPforCodec::new()),
        Box::new(SimplePforCodec::new()),
    ]
}

fn roundtrip(codec: &dyn BlockCodec, values: &[i64]) -> usize {
    let mut buf = Vec::new();
    codec.encode(values, &mut buf);
    let mut pos = 0;
    let mut out = Vec::new();
    codec
        .decode(&buf, &mut pos, &mut out)
        .unwrap_or_else(|e| panic!("{} decode failed: {e}", codec.name()));
    assert_eq!(out, values, "{}", codec.name());
    assert_eq!(pos, buf.len(), "{}", codec.name());
    buf.len()
}

fn outlier_blocks() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(
        prop_oneof![
            8 => 0i64..256,
            1 => (1i64 << 30)..(1i64 << 45),
            1 => -(1i64 << 40)..0
        ],
        0..400,
    )
}

/// The word-packed v2 payloads fill little-endian u64 words in 64-value
/// lanes; these counts sit exactly on the seams (empty, single value, one
/// below/at/above a lane, and a many-lane block).
const LANE_BOUNDARY_COUNTS: [usize; 6] = [0, 1, 63, 64, 65, 8192];

fn lane_boundary_blocks() -> impl Strategy<Value = Vec<i64>> {
    (
        prop::sample::select(LANE_BOUNDARY_COUNTS.to_vec()),
        prop::collection::vec(
            prop_oneof![
                8 => -1_000i64..1_000,
                1 => any::<i64>()
            ],
            8192..=8192,
        ),
    )
        .prop_map(|(n, mut values)| {
            values.truncate(n);
            values
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn roundtrip_outlier_blocks(values in outlier_blocks()) {
        for codec in all_codecs() {
            roundtrip(codec.as_ref(), &values);
        }
    }

    #[test]
    fn roundtrip_arbitrary_i64(values in prop::collection::vec(any::<i64>(), 0..150)) {
        for codec in all_codecs() {
            roundtrip(codec.as_ref(), &values);
        }
    }

    #[test]
    fn roundtrip_tight_blocks(values in prop::collection::vec(-8i64..8, 0..300)) {
        for codec in all_codecs() {
            roundtrip(codec.as_ref(), &values);
        }
    }

    #[test]
    fn roundtrip_lane_boundary_counts(values in lane_boundary_blocks()) {
        for codec in all_codecs() {
            roundtrip(codec.as_ref(), &values);
        }
    }

    #[test]
    fn optpfor_never_larger_than_newpfor(values in outlier_blocks()) {
        let opt = roundtrip(&OptPforCodec::new(), &values);
        let new = roundtrip(&NewPforCodec::new(), &values);
        prop_assert!(opt <= new, "opt {} > new {}", opt, new);
    }

    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..300)) {
        for codec in all_codecs() {
            let mut pos = 0;
            let mut out = Vec::new();
            let _ = codec.decode(&bytes, &mut pos, &mut out);
        }
    }

    #[test]
    fn blocks_concatenate(a in outlier_blocks(), b in outlier_blocks()) {
        for codec in all_codecs() {
            let mut buf = Vec::new();
            codec.encode(&a, &mut buf);
            codec.encode(&b, &mut buf);
            let mut pos = 0;
            let mut out = Vec::new();
            prop_assert!(codec.decode(&buf, &mut pos, &mut out).is_ok());
            prop_assert!(codec.decode(&buf, &mut pos, &mut out).is_ok());
            let mut expected = a.clone();
            expected.extend_from_slice(&b);
            prop_assert_eq!(&out, &expected);
            prop_assert_eq!(pos, buf.len());
        }
    }
}
