//! Property-based tests for the bit-level substrate.

use bitpack::bitmap::{BitmapWriter, OutlierBitmap, Part};
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
use bitpack::DecodeError;
use proptest::prelude::*;

/// Bit-serial parse of the first `n` position-bitmap codes of `region`, in
/// the shape of the decoder the byte table replaced; `None` when fewer than
/// `n` codes fit.
fn parse_serial(region: &[u8], n: usize) -> Option<Vec<Part>> {
    let mut r = BitReader::new(region);
    let mut parts = Vec::with_capacity(n);
    for _ in 0..n {
        let part = if r.read_bit().ok()? {
            if r.read_bit().ok()? {
                Part::Upper
            } else {
                Part::Lower
            }
        } else {
            Part::Center
        };
        parts.push(part);
    }
    Some(parts)
}

/// The bit-serial position-bitmap encoder that `BitmapWriter` replaced:
/// one `BitWriter` call per code bit. Returns the zero-padded bytes and
/// the number of code bits.
fn encode_serial(parts: &[Part]) -> (Vec<u8>, usize) {
    let mut w = BitWriter::new();
    for &p in parts {
        match p {
            Part::Center => w.write_bit(false),
            Part::Lower => {
                w.write_bit(true);
                w.write_bit(false);
            }
            Part::Upper => {
                w.write_bit(true);
                w.write_bit(true);
            }
        }
    }
    w.finish()
}

/// Appends the bitmap of `parts` to `out` through `BitmapWriter`;
/// returns the number of code bits.
fn encode_bytewise(parts: &[Part], out: &mut Vec<u8>) -> usize {
    let mut w = BitmapWriter::new(out);
    for &p in parts {
        w.push(p);
    }
    w.finish()
}

fn parts_of(codes: &[u8]) -> Vec<Part> {
    codes
        .iter()
        .map(|&c| match c {
            0 => Part::Center,
            1 => Part::Lower,
            _ => Part::Upper,
        })
        .collect()
}

/// Distinct values for each part (`-1 - k` lower, `k` center,
/// `2^40 + k` upper for the part's `k`-th value), laid out
/// lower | center | upper as `OutlierBitmap::gather` reads them, with
/// `nl`, `nc` and the block the bitmap should decode to.
fn numbered(parts: &[Part]) -> (Vec<i64>, usize, usize, Vec<i64>) {
    let value = |part: Part, k: i64| match part {
        Part::Lower => -1 - k,
        Part::Center => k,
        Part::Upper => (1 << 40) + k,
    };
    let (mut nl, mut nc, mut nu) = (0, 0, 0);
    let expected = parts
        .iter()
        .map(|&p| {
            let k = match p {
                Part::Lower => &mut nl,
                Part::Center => &mut nc,
                Part::Upper => &mut nu,
            };
            *k += 1;
            value(p, *k - 1)
        })
        .collect();
    let mut values: Vec<i64> = (0..nl).map(|k| value(Part::Lower, k)).collect();
    values.extend((0..nc).map(|k| value(Part::Center, k)));
    values.extend((0..nu).map(|k| value(Part::Upper, k)));
    (values, nl as usize, nc as usize, expected)
}

/// The two-pass bitmap decode the one-pass gather replaced: the count
/// pass, then, if it succeeds, every code's value in bitmap order. A
/// part's cursor starts where `OutlierBitmap::gather` documents (lower at
/// 0, center at `nl`, upper at `nl + nc`), moves one value per code of its
/// part, and reads 0 past the end of `values`.
fn count_then_gather(
    region: &[u8],
    n: usize,
    values: &[i64],
    nl: usize,
    nc: usize,
    out: &mut Vec<i64>,
) -> Result<(usize, usize), DecodeError> {
    let counts = OutlierBitmap::count(region, n)?;
    let parts = parse_serial(region, n).ok_or(DecodeError::Truncated)?;
    let mut next = [nl, 0, nl.saturating_add(nc)];
    for part in parts {
        let cursor = &mut next[part as usize];
        out.push(values.get(*cursor).copied().unwrap_or(0));
        *cursor = cursor.wrapping_add(1);
    }
    Ok(counts)
}

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

    /// The byte-wise writer emits exactly the bit-serial encoder's bytes,
    /// appending after whatever `out` already holds. Center-heavy and
    /// outlier-heavy sequences alike put `1x` codes across byte
    /// boundaries at every offset.
    #[test]
    fn bitmap_writer_matches_bit_serial(
        codes in prop_oneof![
            prop::collection::vec(0u8..3, 0..=300),
            prop::collection::vec(prop_oneof![6 => Just(0u8), 1 => 1u8..3], 0..=300),
        ],
        prefix in prop::collection::vec(any::<u8>(), 0..3),
    ) {
        let parts = parts_of(&codes);
        let (serial, serial_bits) = encode_serial(&parts);
        let mut out = prefix.clone();
        let bits = encode_bytewise(&parts, &mut out);
        prop_assert_eq!(bits, serial_bits);
        prop_assert_eq!(&out[..prefix.len()], &prefix[..]);
        prop_assert_eq!(&out[prefix.len()..], &serial[..]);
    }

    #[test]
    fn bitmap_roundtrip(
        codes in prop::collection::vec(0u8..3, 0..400),
        prefix in prop::collection::vec(any::<i64>(), 0..3),
    ) {
        let parts = parts_of(&codes);
        let (values, nl, nc, expected) = numbered(&parts);
        let nu = parts.len() - nl - nc;
        let mut buf = Vec::new();
        let bits = encode_bytewise(&parts, &mut buf);
        prop_assert_eq!(bits, OutlierBitmap::size_bits(parts.len(), nl, nu));
        prop_assert_eq!(buf.len(), bits.div_ceil(8));
        prop_assert_eq!(OutlierBitmap::count(&buf, parts.len()), Ok((nl, nu)));
        let mut out = prefix.clone();
        prop_assert_eq!(
            OutlierBitmap::gather(&buf, parts.len(), &values, nl, nc, &mut out),
            Ok((nl, nu))
        );
        prop_assert_eq!(&out[..prefix.len()], &prefix[..]);
        prop_assert_eq!(&out[prefix.len()..], &expected[..]);
    }

    #[test]
    fn bitmap_decode_is_total(
        region in prop::collection::vec(any::<u8>(), 0..64),
        n in 0usize..600,
        nl in prop_oneof![4 => 0usize..600, 1 => Just(usize::MAX)],
        nc in prop_oneof![4 => 0usize..600, 1 => Just(usize::MAX)],
        len in 0usize..700,
    ) {
        // Any region and n: the count pass agrees with a bit-serial parse.
        let serial = parse_serial(&region, n);
        let want = match &serial {
            Some(parts) => Ok((
                parts.iter().filter(|&&p| p == Part::Lower).count(),
                parts.iter().filter(|&&p| p == Part::Upper).count(),
            )),
            None => Err(DecodeError::Truncated),
        };
        prop_assert_eq!(OutlierBitmap::count(&region, n), want);
        // Part sizes and a value stream that disagree with the bitmap:
        // the gather returns the same counts, and appends exactly n values
        // on `Ok` and none on `Err`.
        let values: Vec<i64> = (0..len as i64).collect();
        let mut out = vec![-1];
        let got = OutlierBitmap::gather(&region, n, &values, nl, nc, &mut out);
        prop_assert_eq!(got, want);
        prop_assert_eq!(out.len(), if got.is_ok() { n + 1 } else { 1 });
        prop_assert_eq!(out[0], -1);
        // Consistent inputs on a random region: the gather matches the
        // bit-serial parse, code by code.
        if let Some(parts) = serial {
            let (values, nl, nc, expected) = numbered(&parts);
            let mut out = Vec::new();
            prop_assert_eq!(OutlierBitmap::gather(&region, n, &values, nl, nc, &mut out), want);
            prop_assert_eq!(out, expected);
        }
    }

    /// The one-pass gather returns what a count pass followed by a
    /// code-by-code gather gives: the same counts, the same values, the
    /// same `Truncated`, on encoded regions and random ones, with `n`
    /// above or below the codes the region holds, trailing bytes after
    /// them, and value streams shorter or longer than the codes claim.
    #[test]
    fn gather_equals_count_then_gather(
        codes in prop_oneof![
            prop::collection::vec(0u8..3, 0..=300),
            prop::collection::vec(prop_oneof![6 => Just(0u8), 1 => 1u8..3], 0..=300),
        ],
        random in prop_oneof![3 => Just(None), 1 => prop::collection::vec(any::<u8>(), 0..48).prop_map(Some)],
        trailing in prop::collection::vec(any::<u8>(), 0..3),
        n_shift in -4i64..=4,
        values_shift in -6i64..=6,
        prefix in prop::collection::vec(any::<i64>(), 0..3),
    ) {
        let parts = parts_of(&codes);
        let (mut values, nl, nc, _) = numbered(&parts);
        let mut region = random.unwrap_or_else(|| {
            let mut region = Vec::new();
            encode_bytewise(&parts, &mut region);
            region
        });
        region.extend_from_slice(&trailing);
        let n = (parts.len() as i64 + n_shift).max(0) as usize;
        values.resize((values.len() as i64 + values_shift).max(0) as usize, 1 << 50);

        let mut want_out = prefix.clone();
        let want = count_then_gather(&region, n, &values, nl, nc, &mut want_out);
        let mut out = prefix.clone();
        let got = OutlierBitmap::gather(&region, n, &values, nl, nc, &mut out);
        prop_assert_eq!(got, want);
        prop_assert_eq!(&out, &want_out);
        if got.is_err() {
            prop_assert_eq!(&out, &prefix);
        }
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
