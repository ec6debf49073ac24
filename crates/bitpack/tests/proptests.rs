//! Property-based tests for the bit-level substrate.

use bitpack::bitmap::{OutlierBitmap, Part};
use bitpack::bits::{BitReader, BitWriter};
use bitpack::kernels::{pack_words, packed_size, unpack_words};
use bitpack::simple8b;
use bitpack::unrolled::{
    pack_words_for, pack_words_unrolled, unpack_words_for, unpack_words_unrolled,
};
use bitpack::width::{range_u64, width, width1};
use bitpack::zigzag::{
    read_varint, read_varint_i64, write_varint, write_varint_i64, zigzag_decode, zigzag_encode,
};
use proptest::prelude::*;

proptest! {
    #[test]
    fn bit_stream_roundtrip(fields in prop::collection::vec((any::<u64>(), 0u32..=64), 0..200)) {
        let mut w = BitWriter::new();
        for &(v, wd) in &fields {
            w.write_bits(v, wd);
        }
        let expected_bits: usize = fields.iter().map(|&(_, wd)| wd as usize).sum();
        let (buf, bits) = w.finish();
        prop_assert_eq!(bits, expected_bits);
        let mut r = BitReader::new(&buf);
        for &(v, wd) in &fields {
            let masked = if wd == 0 { 0 } else if wd == 64 { v } else { v & ((1u64 << wd) - 1) };
            prop_assert_eq!(r.read_bits(wd), Ok(masked));
        }
    }

    #[test]
    fn kernels_roundtrip_any_width(values in prop::collection::vec(any::<u64>(), 0..300), w in 0u32..=64) {
        let mask = if w == 0 { 0 } else if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
        let values: Vec<u64> = values.iter().map(|&v| v & mask).collect();
        let mut buf = Vec::new();
        let written = pack_words(&values, w, &mut buf);
        prop_assert_eq!(Some(written), packed_size(values.len(), w));
        let mut out = Vec::new();
        let consumed = unpack_words(&buf, values.len(), w, &mut out);
        prop_assert_eq!(consumed, Ok(written));
        prop_assert_eq!(out, values);
    }

    #[test]
    fn unrolled_bit_identical_any_width(values in prop::collection::vec(any::<u64>(), 0..300), w in 0u32..=64) {
        let mask = if w == 0 { 0 } else if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
        let values: Vec<u64> = values.iter().map(|&v| v & mask).collect();
        let mut generic = Vec::new();
        pack_words(&values, w, &mut generic);
        let mut fast = Vec::new();
        let written = pack_words_unrolled(&values, w, &mut fast);
        prop_assert_eq!(&fast, &generic);
        prop_assert_eq!(Some(written), packed_size(values.len(), w));
        let mut out = Vec::new();
        let consumed = unpack_words_unrolled(&generic, values.len(), w, &mut out);
        prop_assert_eq!(consumed, Ok(written));
        prop_assert_eq!(out, values);
    }

    #[test]
    fn fused_for_equals_unpack_then_add(
        values in prop::collection::vec(any::<u64>(), 0..300),
        w in 0u32..=64,
        reference in any::<i64>(),
    ) {
        // pack_words_for must produce the exact bytes of mask-then-pack,
        // and unpack_words_for the exact values of unpack-then-wrapping-add.
        let mask = if w == 0 { 0 } else if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
        let deltas: Vec<u64> = values.iter().map(|&v| v & mask).collect();
        let originals: Vec<i64> = deltas.iter().map(|&d| reference.wrapping_add(d as i64)).collect();
        let mut fused = Vec::new();
        pack_words_for(&originals, reference, w, &mut fused);
        let mut two_pass = Vec::new();
        pack_words(&deltas, w, &mut two_pass);
        prop_assert_eq!(&fused, &two_pass);
        let mut raw = Vec::new();
        unpack_words(&fused, deltas.len(), w, &mut raw).unwrap();
        let expected: Vec<i64> = raw.iter().map(|&d| reference.wrapping_add(d as i64)).collect();
        let mut out = Vec::new();
        let consumed = unpack_words_for(&fused, deltas.len(), w, reference, &mut out);
        prop_assert_eq!(consumed, Ok(fused.len()));
        prop_assert_eq!(&out, &expected);
        prop_assert_eq!(&out, &originals);
    }

    #[test]
    fn kernels_match_bitwriter_semantics(values in prop::collection::vec(0u64..(1 << 17), 0..200)) {
        // Same values, two packers: decoded outputs must agree (the bit
        // layouts differ by design — LSB-word vs MSB-stream).
        let w = 17u32;
        let mut kbuf = Vec::new();
        pack_words(&values, w, &mut kbuf);
        let mut kout = Vec::new();
        unpack_words(&kbuf, values.len(), w, &mut kout).unwrap();
        let mut bw = BitWriter::new();
        for &v in &values {
            bw.write_bits(v, w);
        }
        let (bbuf, _) = bw.finish();
        let mut br = BitReader::new(&bbuf);
        let bout: Vec<u64> = (0..values.len()).map(|_| br.read_bits(w).unwrap()).collect();
        prop_assert_eq!(&kout, &values);
        prop_assert_eq!(&bout, &values);
    }

    #[test]
    fn zigzag_roundtrip(v in any::<i64>()) {
        prop_assert_eq!(zigzag_decode(zigzag_encode(v)), v);
    }

    #[test]
    fn zigzag_preserves_magnitude_order(a in any::<i32>(), b in any::<i32>()) {
        // |a| < |b| implies zigzag(a) < zigzag(b) + 1 slack for sign.
        let (a, b) = (a as i64, b as i64);
        if a.unsigned_abs() < b.unsigned_abs() {
            prop_assert!(zigzag_encode(a) < zigzag_encode(b) + 1);
        }
    }

    #[test]
    fn varint_roundtrip(values in prop::collection::vec(any::<u64>(), 0..100)) {
        let mut buf = Vec::new();
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            prop_assert_eq!(read_varint(&buf, &mut pos), Ok(v));
        }
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn signed_varint_roundtrip(values in prop::collection::vec(any::<i64>(), 0..100)) {
        let mut buf = Vec::new();
        for &v in &values {
            write_varint_i64(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            prop_assert_eq!(read_varint_i64(&buf, &mut pos), Ok(v));
        }
    }

    #[test]
    fn simple8b_roundtrip(values in prop::collection::vec(0u64..(1 << 60), 0..500)) {
        let mut buf = Vec::new();
        simple8b::encode(&values, &mut buf).unwrap();
        let mut pos = 0;
        let mut out = Vec::new();
        simple8b::decode(&buf, &mut pos, &mut out).unwrap();
        prop_assert_eq!(out, values);
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn simple8b_sparse_roundtrip(
        values in prop::collection::vec(prop_oneof![9 => Just(0u64), 1 => 0u64..(1 << 59)], 0..600)
    ) {
        let mut buf = Vec::new();
        simple8b::encode(&values, &mut buf).unwrap();
        let mut pos = 0;
        let mut out = Vec::new();
        simple8b::decode(&buf, &mut pos, &mut out).unwrap();
        prop_assert_eq!(out, values);
    }

    #[test]
    fn bitmap_roundtrip(codes in prop::collection::vec(0u8..3, 0..400)) {
        let parts: Vec<Part> = codes
            .iter()
            .map(|&c| match c {
                0 => Part::Center,
                1 => Part::Lower,
                _ => Part::Upper,
            })
            .collect();
        let nl = parts.iter().filter(|&&p| p == Part::Lower).count();
        let nu = parts.iter().filter(|&&p| p == Part::Upper).count();
        let mut w = BitWriter::new();
        let bits = OutlierBitmap::encode(&parts, &mut w);
        prop_assert_eq!(bits, OutlierBitmap::size_bits(parts.len(), nl, nu));
        let (buf, _) = w.finish();
        let mut r = BitReader::new(&buf);
        let mut out = Vec::new();
        prop_assert!(OutlierBitmap::decode(&mut r, parts.len(), &mut out).is_ok());
        prop_assert_eq!(out, parts);
    }

    #[test]
    fn width_monotone(a in any::<u64>(), b in any::<u64>()) {
        if a <= b {
            prop_assert!(width(a) <= width(b));
            prop_assert!(width1(a) <= width1(b));
        }
    }

    #[test]
    fn width_covers_value(v in any::<u64>()) {
        let w = width(v);
        if w < 64 {
            prop_assert!(v < (1u64 << w));
        }
        if v > 0 {
            prop_assert!(v >= (1u64 << (w - 1)));
        }
    }

    #[test]
    fn range_u64_matches_i128(lo in any::<i64>(), hi in any::<i64>()) {
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        prop_assert_eq!(range_u64(lo, hi) as u128, (hi as i128 - lo as i128) as u128);
    }
}

/// Deterministic exhaustive sweep: every width 0..=64 at every lane
/// boundary count, with max-width values, byte-identical to the generic
/// kernels (the proptests above sample; this leaves no width/count gap).
#[test]
fn unrolled_exhaustive_widths_and_boundary_counts() {
    for w in 0..=64u32 {
        let mask = if w == 0 {
            0
        } else if w == 64 {
            u64::MAX
        } else {
            (1u64 << w) - 1
        };
        for n in [0usize, 1, 63, 64, 65, 127, 128, 129] {
            // Include the maximum representable value at this width.
            let values: Vec<u64> = (0..n as u64)
                .map(|i| {
                    if i % 7 == 0 {
                        mask
                    } else {
                        i.wrapping_mul(0x9E3779B97F4A7C15) & mask
                    }
                })
                .collect();
            let mut generic = Vec::new();
            pack_words(&values, w, &mut generic);
            let mut fast = Vec::new();
            pack_words_unrolled(&values, w, &mut fast);
            assert_eq!(fast, generic, "pack mismatch at w = {w}, n = {n}");
            let mut out = Vec::new();
            unpack_words_unrolled(&generic, n, w, &mut out).expect("unpack");
            assert_eq!(out, values, "unpack mismatch at w = {w}, n = {n}");
        }
    }
}
