//! Adversarial property tests for the typed-error decode paths.
//!
//! Complements `failure_injection.rs` (deterministic corruption sweeps)
//! with randomized attacks: arbitrary garbage, truncations strictly inside
//! the consumed region, and random single-bit flips. The contract under
//! test is the `DecodeError` conversion: a malformed buffer must surface
//! as `Err(DecodeError)` — never a panic, never an out-of-bounds access.
//! Clippy's panic and indexing denies in the decode crates keep the
//! sources honest statically; these tests check the same promise
//! dynamically.

use bos_repro::bitpack::zigzag::{read_varint, write_varint};
use bos_repro::bitpack::BlockCodec;
use bos_repro::bitpack::{simple8b, DecodeError};
use bos_repro::bos::format::decode_block;
use bos_repro::bos::kpart::decode_kpart;
use bos_repro::bos::{BosCodec, SolverKind};
use bos_repro::gpcomp::{ByteCodec, Lz4Like, LzmaLite};
use bos_repro::tsfile::{EncodingChoice, TsFileReader, TsFileWriter};
use bos_repro::{floatcodec, pfor};
use proptest::prelude::*;

/// The three codecs that carry the word-packed layout's version byte
/// ([`pfor::FORMAT_V2`]) right after `varint n`.
fn migrated_codecs() -> Vec<Box<dyn BlockCodec>> {
    vec![
        Box::new(pfor::PforCodec::new()),
        Box::new(pfor::FastPforCodec::new()),
        Box::new(pfor::SimplePforCodec::new()),
    ]
}

/// Blocks with a tight center and rare large outliers — the shape that
/// makes BOS choose the separated mode, whose decode path has the most
/// header fields to corrupt.
fn outlier_blocks() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(
        prop_oneof![
            8 => 0i64..64,
            1 => -1_000_000i64..0,
            1 => 1_000_000i64..2_000_000
        ],
        1..200,
    )
}

/// Byte strings built mostly from varints: small ones (counts that pass
/// the caps), huge ones (lengths that overflow a cursor sum), and raw
/// bytes between them. The header fields of the byte, float and k-part
/// decoders are varints, so uniform garbage rarely reaches past them.
fn varint_heavy_bytes() -> impl Strategy<Value = Vec<u8>> {
    let varint = |v: u64| {
        let mut out = Vec::new();
        write_varint(&mut out, v);
        out
    };
    let field = prop_oneof![
        4 => (0u64..128).prop_map(varint),
        2 => prop::sample::select(vec![u64::MAX, u64::MAX - 1, 1 << 63, 1 << 32])
            .prop_map(varint),
        1 => any::<u64>().prop_map(varint),
        2 => any::<u8>().prop_map(|b| vec![b])
    ];
    prop::collection::vec(field, 0..24).prop_map(|fields| fields.concat())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // --- gpcomp, floatcodec and k-part decoders -------------------------

    #[test]
    fn varint_heavy_bytes_never_panic_byte_float_or_kpart_decoders(
        bytes in varint_heavy_bytes(),
    ) {
        let byte_codecs: [&dyn ByteCodec; 2] = [&Lz4Like, &LzmaLite];
        for codec in byte_codecs {
            let _ = codec.decompress(&bytes, &mut 0, &mut Vec::new());
        }
        for codec in floatcodec::all_codecs() {
            let _ = codec.decode(&bytes, &mut 0, &mut Vec::new());
        }
        let _ = decode_kpart(&bytes, &mut 0, &mut Vec::new());
    }

    // --- bos::format::decode_block -------------------------------------

    #[test]
    fn decode_block_survives_garbage(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let mut out = Vec::new();
        let mut pos = 0;
        // Garbage may happen to parse (e.g. varint n = 0); it must never
        // panic or index out of bounds.
        let _ = decode_block(&bytes, &mut pos, &mut out);
        prop_assert!(pos <= bytes.len());
    }

    #[test]
    fn decode_block_errors_on_truncation(values in outlier_blocks(), frac in 0.0f64..1.0) {
        let mut buf = Vec::new();
        BosCodec::new(SolverKind::BitWidth).encode(&values, &mut buf);
        let mut out = Vec::new();
        let mut pos = 0;
        decode_block(&buf, &mut pos, &mut out).expect("intact block");
        prop_assert_eq!(&out, &values);
        let consumed = pos;
        // Any strict prefix of the consumed bytes is missing data the
        // header promised, so decode must fail with a typed error.
        let cut = ((consumed as f64) * frac) as usize; // < consumed
        let mut out = Vec::new();
        let mut pos = 0;
        prop_assert!(decode_block(&buf[..cut], &mut pos, &mut out).is_err());
    }

    #[test]
    fn decode_block_survives_bit_flips(
        values in outlier_blocks(),
        at_frac in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let mut buf = Vec::new();
        BosCodec::new(SolverKind::BitWidth).encode(&values, &mut buf);
        let at = ((buf.len() as f64) * at_frac) as usize % buf.len();
        buf[at] ^= 1u8 << bit;
        let mut out = Vec::new();
        let mut pos = 0;
        // No checksums at this layer: success with wrong data is allowed,
        // panicking is not.
        let _ = decode_block(&buf, &mut pos, &mut out);
        prop_assert!(pos <= buf.len());
    }

    // --- the word-packed v2 PFOR family ---------------------------------

    #[test]
    fn pfor_v2_survives_garbage(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        for codec in migrated_codecs() {
            let mut out = Vec::new();
            let mut pos = 0;
            let _ = codec.decode(&bytes, &mut pos, &mut out);
            prop_assert!(pos <= bytes.len());
        }
    }

    #[test]
    fn pfor_v2_errors_on_truncation(values in outlier_blocks(), frac in 0.0f64..1.0) {
        for codec in migrated_codecs() {
            let mut buf = Vec::new();
            codec.encode(&values, &mut buf);
            let mut out = Vec::new();
            let mut pos = 0;
            codec.decode(&buf, &mut pos, &mut out).expect("intact block");
            prop_assert_eq!(&out, &values);
            let cut = ((pos as f64) * frac) as usize; // strict prefix
            let mut out = Vec::new();
            let mut pos = 0;
            prop_assert!(
                codec.decode(&buf[..cut], &mut pos, &mut out).is_err(),
                "{} accepted a truncated payload", codec.name()
            );
        }
    }

    #[test]
    fn pfor_v2_survives_bit_flips(
        values in outlier_blocks(),
        at_frac in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        for codec in migrated_codecs() {
            let mut buf = Vec::new();
            codec.encode(&values, &mut buf);
            let at = ((buf.len() as f64) * at_frac) as usize % buf.len();
            buf[at] ^= 1u8 << bit;
            let mut out = Vec::new();
            let mut pos = 0;
            // No checksums at this layer: success with wrong data is
            // allowed, panicking is not.
            let _ = codec.decode(&buf, &mut pos, &mut out);
            prop_assert!(pos <= buf.len());
        }
    }

    #[test]
    fn pfor_v1_payloads_rejected_with_typed_error(values in outlier_blocks()) {
        // Any version byte other than FORMAT_V2 (in particular the
        // zigzag-min byte of a pre-v2 bit-serial payload) must surface as
        // BadModeByte carrying that byte, never as garbage values.
        for codec in migrated_codecs() {
            let mut buf = Vec::new();
            codec.encode(&values, &mut buf);
            let mut at = 0;
            read_varint(&buf, &mut at).expect("intact count");
            for mode in (0..=u8::MAX).filter(|&m| m != pfor::FORMAT_V2) {
                buf[at] = mode;
                let mut out = Vec::new();
                let mut pos = 0;
                prop_assert_eq!(
                    codec.decode(&buf, &mut pos, &mut out),
                    Err(DecodeError::BadModeByte { mode }),
                    "{} must reject version byte {}", codec.name(), mode
                );
            }
        }
    }

    // --- bitpack::simple8b ---------------------------------------------

    #[test]
    fn simple8b_survives_garbage(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let mut out = Vec::new();
        let mut pos = 0;
        let _ = simple8b::decode(&bytes, &mut pos, &mut out);
        prop_assert!(pos <= bytes.len());
    }

    #[test]
    fn simple8b_errors_on_truncation(
        values in prop::collection::vec(0u64..(1 << 50), 1..300),
        frac in 0.0f64..1.0,
    ) {
        let mut buf = Vec::new();
        simple8b::encode(&values, &mut buf).expect("values fit 60 bits");
        let mut out = Vec::new();
        let mut pos = 0;
        simple8b::decode(&buf, &mut pos, &mut out).expect("intact stream");
        prop_assert_eq!(&out, &values);
        let cut = ((pos as f64) * frac) as usize; // strict prefix
        let mut out = Vec::new();
        let mut pos = 0;
        prop_assert!(simple8b::decode(&buf[..cut], &mut pos, &mut out).is_err());
    }

    // --- tsfile reader ---------------------------------------------------

    #[test]
    fn tsfile_open_survives_garbage(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        if let Ok(r) = TsFileReader::open(&bytes) {
            // A parseable footer in garbage is wildly unlikely but legal;
            // reading any advertised series must still not panic.
            for s in r.series().to_vec() {
                let _ = r.read_ints(&s.name);
            }
        }
    }

    #[test]
    fn tsfile_errors_on_truncation(values in outlier_blocks(), frac in 0.0f64..1.0) {
        let mut w = TsFileWriter::new();
        w.add_int_series("s", &values, EncodingChoice::TS2DIFF_BOS).expect("write");
        let bytes = w.finish();
        let cut = ((bytes.len() as f64) * frac) as usize; // strict prefix
        match TsFileReader::open(&bytes[..cut]) {
            Err(_) => {}
            Ok(r) => {
                // The footer happened to survive (cut inside trailing
                // padding cannot occur — finish() writes none — so any
                // successful open must fail at chunk read or CRC).
                prop_assert!(r.read_ints("s").is_err());
            }
        }
    }

    #[test]
    fn tsfile_survives_bit_flips(
        values in outlier_blocks(),
        at_frac in 0.0f64..1.0,
        bit in 0u32..8,
    ) {
        let mut w = TsFileWriter::new();
        w.add_int_series("s", &values, EncodingChoice::TS2DIFF_BOS).expect("write");
        let mut bytes = w.finish();
        let at = ((bytes.len() as f64) * at_frac) as usize % bytes.len();
        bytes[at] ^= 1u8 << bit;
        // Payload flips are caught by CRC (failure_injection.rs proves that
        // deterministically); flips in footer metadata may surface anywhere
        // from open() to decode. The contract here is only: typed Err or
        // correct data, never a panic.
        if let Ok(r) = TsFileReader::open(&bytes) {
            let _ = r.read_ints("s");
        }
    }
}
