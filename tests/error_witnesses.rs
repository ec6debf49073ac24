//! Every variant of the workspace's typed errors has a witness: a crafted
//! input that makes a shipping decoder, driver or salvage read return it.
//!
//! Each witness list is tallied through a `match` with no wildcard arm
//! (`decode_slot`, `encode_slot`, `skip_slot`). A new variant does not
//! compile until it has an arm there, and [`assert_every_slot`] fails
//! until that arm has a witness below. The three enums are exhaustive on
//! purpose: `#[non_exhaustive]` would forbid these matches outside the
//! defining crate.

use std::fmt::Debug;
use std::ops::Range;

use bitpack::bitmap::{BitmapWriter, Part};
use bitpack::codec::encode_blocks_parallel;
use bitpack::zigzag::{write_varint, write_varint_i64};
use bitpack::{BlockCodec, DecodeError, DecodeResult, EncodeError, MAX_BLOCK_VALUES};
use bos::kpart::decode_kpart;
use bos::{BosCodec, SolverKind};
use gpcomp::{InnerPacker, TransformCodec, TransformKind};
use pfor::BpCodec;
use tsfile::{EncodingChoice, SkipReason, TsFileReader, TsFileWriter};

/// Tally slot of each [`DecodeError`] variant.
fn decode_slot(e: &DecodeError) -> usize {
    match e {
        DecodeError::Truncated => 0,
        DecodeError::BadModeByte { .. } => 1,
        DecodeError::WidthOverflow { .. } => 2,
        DecodeError::VarintOverflow => 3,
        DecodeError::CountOverflow { .. } => 4,
        DecodeError::BitmapCountMismatch { .. } => 5,
        DecodeError::ValueOverflow => 6,
        DecodeError::LengthMismatch { .. } => 7,
        DecodeError::LengthOverrun { .. } => 8,
    }
}
const DECODE_SLOTS: usize = 9;

/// Tally slot of each [`EncodeError`] variant.
fn encode_slot(e: &EncodeError) -> usize {
    match e {
        EncodeError::WorkerPanicked { .. } => 0,
    }
}
const ENCODE_SLOTS: usize = 1;

/// Tally slot of each [`SkipReason`] variant.
fn skip_slot(r: &SkipReason) -> usize {
    match r {
        SkipReason::CrcMismatch => 0,
        SkipReason::Truncated => 1,
        SkipReason::BadHeader => 2,
    }
}
const SKIP_SLOTS: usize = 3;

/// Asserts every slot in `0..slots` is hit by at least one witness.
fn assert_every_slot<E: Debug>(what: &str, slots: usize, slot: fn(&E) -> usize, seen: &[E]) {
    let mut hits = vec![0usize; slots];
    for e in seen {
        let s = slot(e);
        let hit = hits
            .get_mut(s)
            .unwrap_or_else(|| panic!("{what}: {e:?} maps to slot {s}; grow the tally"));
        *hit += 1;
    }
    let missing: Vec<usize> = (0..slots).filter(|&s| hits[s] == 0).collect();
    assert!(
        missing.is_empty(),
        "{what}: slots {missing:?} have no witness (seen {seen:?})"
    );
}

/// Runs one shipping decode that must fail, and returns its error.
fn must_fail(what: &str, result: DecodeResult<()>) -> DecodeError {
    result.expect_err(what)
}

fn bos_decode(buf: &[u8]) -> DecodeResult<()> {
    let mut out = Vec::new();
    bos::decode(buf, &mut 0, &mut out)
}

/// Header of a separated BOS block (the Fig. 7 layout in `bos::format`)
/// with `n = 2`, no lower outlier, one center value and one upper
/// outlier, whose parts start at `xmin` and `xmin + xu_off`.
fn separated_header(xmin: i64, xu_off: u64) -> Vec<u8> {
    let mut buf = Vec::new();
    write_varint(&mut buf, 2); // n
    buf.push(1); // mode: separated
    write_varint(&mut buf, 0); // nl
    write_varint(&mut buf, 1); // nu
    write_varint_i64(&mut buf, xmin);
    write_varint(&mut buf, 0); // min Xc − xmin
    write_varint(&mut buf, xu_off); // min Xu − xmin
    buf.extend_from_slice(&[0, 0, 0]); // α β γ
    buf
}

#[test]
fn every_decode_error_has_a_witness() {
    let mut block = Vec::new();
    BosCodec::new(SolverKind::BitWidth).encode(&(0..64).collect::<Vec<i64>>(), &mut block);

    // A bitmap of two center codes under a header that claims one upper
    // outlier.
    let mut miscounted = separated_header(0, 5);
    let mut codes = BitmapWriter::new(&mut miscounted);
    codes.push(Part::Center);
    codes.push(Part::Center);
    codes.finish();

    // A transform frame of one value whose residual block holds two.
    let mut transform = Vec::new();
    write_varint(&mut transform, 1);
    BpCodec.encode(&[0], &mut transform);
    BpCodec.encode(&[0, 0], &mut transform);

    let mut claim = Vec::new();
    write_varint(&mut claim, (MAX_BLOCK_VALUES + 1) as u64);

    let seen = [
        must_fail("half a BOS block", bos_decode(&block[..block.len() / 2])),
        must_fail("unknown BOS mode byte", bos_decode(&[1, 99])),
        // BP: n = 1, xmin = 0, width 65.
        must_fail(
            "BP width over 64",
            BpCodec.decode(&[1, 0, 65], &mut 0, &mut Vec::new()),
        ),
        must_fail("eleven-byte varint", bos_decode(&[0xFF; 11])),
        // k-part block: n = 1 value in zero parts.
        must_fail(
            "k-part block of no parts",
            decode_kpart(&[1, 0], &mut 0, &mut Vec::new()),
        ),
        must_fail("bitmap disagrees with header", bos_decode(&miscounted)),
        must_fail(
            "upper base past i64::MAX",
            bos_decode(&separated_header(i64::MAX, 1)),
        ),
        must_fail(
            "residuals longer than the frame",
            TransformCodec::new(TransformKind::Dct, InnerPacker::Bp).decode(
                &transform,
                &mut 0,
                &mut Vec::new(),
            ),
        ),
        must_fail("block length over the cap", bos_decode(&claim)),
    ];
    assert_every_slot("DecodeError", DECODE_SLOTS, decode_slot, &seen);
}

/// Panics on any block that holds a negative value.
struct PanicsOnNegative;

impl BlockCodec for PanicsOnNegative {
    fn name(&self) -> &'static str {
        "TEST-PANICS-ON-NEGATIVE"
    }

    fn encode(&self, values: &[i64], out: &mut Vec<u8>) {
        assert!(values.iter().all(|&v| v >= 0), "negative value");
        BpCodec.encode(values, out);
    }

    fn decode(&self, buf: &[u8], pos: &mut usize, out: &mut Vec<i64>) -> DecodeResult<()> {
        BpCodec.decode(buf, pos, out)
    }
}

#[test]
fn every_encode_error_has_a_witness() {
    let mut values: Vec<i64> = (0..1024).collect();
    values[300] = -1;
    let mut out = vec![0xAB];
    let err = encode_blocks_parallel(&PanicsOnNegative, &values, 256, 2, &mut out)
        .expect_err("block 1 panics");
    assert_eq!(err, EncodeError::WorkerPanicked { block: 1 });
    assert_eq!(out, vec![0xAB], "output rolled back");
    assert_every_slot("EncodeError", ENCODE_SLOTS, encode_slot, &[err]);
}

/// Three series with outliers, and the byte ranges of the middle one's
/// chunk and payload.
fn three_series_file() -> (Vec<u8>, Range<usize>, Range<usize>) {
    let mut w = TsFileWriter::new();
    for s in 0..3i64 {
        let values: Vec<i64> = (0..2000)
            .map(|i| {
                if i % 97 == 0 {
                    1 << 33
                } else {
                    (i * 31 + s) % 256
                }
            })
            .collect();
        w.add_int_series(&format!("s{s}"), &values, EncodingChoice::TS2DIFF_BOS)
            .expect("add series");
    }
    let bytes = w.finish();
    let (chunk, payload) = TsFileReader::open(&bytes)
        .expect("open")
        .chunk_ranges("s1")
        .expect("s1 indexed");
    (bytes, chunk, payload)
}

/// The skip reasons of a salvage read of `series` from `bytes`.
fn salvage_reasons(bytes: &[u8], series: &str) -> Vec<SkipReason> {
    let (r, _) = TsFileReader::open_salvage(bytes);
    let out = r.read_ints_salvage(series).expect("series indexed");
    assert!(out.values.is_empty(), "{series} must not decode");
    out.skipped.iter().map(|s| s.reason).collect()
}

#[test]
fn every_skip_reason_has_a_witness() {
    let mut seen = Vec::new();

    // One flipped payload bit.
    let (mut bytes, _, payload) = three_series_file();
    bytes[payload.start + payload.len() / 2] ^= 0x10;
    seen.extend(salvage_reasons(&bytes, "s1"));

    // A cut inside the chunk's CRC: its header still parses from the
    // rebuilt index, its extent does not fit.
    let (mut bytes, chunk, _) = three_series_file();
    bytes.truncate(chunk.end - 2);
    seen.extend(salvage_reasons(&bytes, "s1"));

    // A corrupt chunk tag: the header no longer parses.
    let (mut bytes, chunk, _) = three_series_file();
    bytes[chunk.start] ^= 0xFF;
    seen.extend(salvage_reasons(&bytes, "s1"));

    assert_every_slot("SkipReason", SKIP_SLOTS, skip_slot, &seen);
}
