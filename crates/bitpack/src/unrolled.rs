//! Width-specialized unrolled pack/unpack kernels and fused
//! frame-of-reference variants.
//!
//! [`pack_words`](crate::kernels::pack_words) /
//! [`unpack_words`](crate::kernels::unpack_words) are generic over the bit
//! width `w`: one branchy loop handles every width, paying a straddle check
//! and a variable shift per value. The word-aligned codec literature
//! (FastPFOR and friends) replaces that loop with one *specialized* kernel
//! per width, where every shift amount and word index is a compile-time
//! constant and the straddle branches disappear entirely. This module is
//! that kernel layer (DESIGN.md §8):
//!
//! * `pack_w1..=pack_w64` / `unpack_w1..=unpack_w64` — macro-generated
//!   lane kernels. Each packs/unpacks one **lane of 64 values** into/from
//!   exactly `w` little-endian 64-bit words. The loop body is monomorphized
//!   over a const-generic width, so the 64-iteration loop fully unrolls and
//!   constant-folds (the "unrolled" of the module name).
//! * [`PACK_LANE`] / [`UNPACK_LANE`] — `[fn; 65]` dispatch tables indexed
//!   by width (entry 0 is the zero-width no-op kernel). The array type
//!   fixes the length, and `bit_identical_to_generic_every_width` runs
//!   every width through both tables against the generic kernel, so a
//!   missing or swapped entry fails it.
//! * [`pack_words_unrolled`] / [`unpack_words_unrolled`] — drop-in,
//!   **bit-identical** replacements for the generic kernels: full lanes go
//!   through the dispatch table, the `n % 64` tail values fall back to the
//!   generic kernel (a lane boundary is always a word boundary, so the two
//!   code paths compose into the exact `pack_words` layout).
//! * [`pack_words_for`] / [`unpack_words_for`] — fused frame-of-reference
//!   variants: subtract-then-pack and unpack-then-add in one pass, so hot
//!   paths (`pfor::BpCodec`, the NewPFD slot stream, the three BOS
//!   sub-streams) never materialize an intermediate delta vector.
//!
//! Layout contract: identical to `pack_words` — values LSB-first within
//! little-endian `u64` words, payload padded to whole words
//! (`packed_size(n, w)` bytes). A property test asserts byte-identical
//! output against the generic kernels for every width 0..=64.

#![deny(clippy::indexing_slicing)]

use crate::error::{DecodeError, DecodeResult};
use crate::kernels::{self, packed_size};

/// Values per lane: one lane of 64 values at width `w` occupies exactly
/// `w` 64-bit words, so lanes never straddle each other.
pub const LANE: usize = 64;

/// A lane pack kernel: reads `LANE` values, ORs them into the first `w`
/// words of `out` (which the caller must have zeroed). Fixed-size array
/// references keep every trip count and word index a compile-time
/// constant, so the monomorphized bodies compile to straight-line code
/// with no bounds checks.
pub type PackLaneFn = fn(values: &[u64; LANE], out: &mut [u64; LANE]);

/// A lane unpack kernel: reads the first `w` words, writes `LANE` values.
pub type UnpackLaneFn = fn(words: &[u64; LANE], out: &mut [u64; LANE]);

/// Expands `$body` once per lane index, with `$i` bound to the literal
/// index 0..=63. A plain `for i in 0..LANE` loop is at the mercy of
/// LLVM's full-unroll threshold — at most widths it stays a rolled loop
/// with runtime shifts, no faster than the generic kernel. Source-level
/// expansion guarantees straight-line code: every `i * w / 64` word index
/// and `i * w % 64` shift amount is a compile-time constant and the
/// straddle `if` folds away.
macro_rules! unroll_lane {
    ($i:ident, $body:expr) => {
        unroll_lane!(@expand $i, $body,
            0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
            16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31,
            32, 33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43, 44, 45, 46, 47,
            48, 49, 50, 51, 52, 53, 54, 55, 56, 57, 58, 59, 60, 61, 62, 63)
    };
    (@expand $i:ident, $body:expr, $($idx:literal),+) => {
        $( { let $i: usize = $idx; $body } )+
    };
}

/// Shared monomorphized body of the width-`W` pack kernels: `W` is a
/// compile-time constant and [`unroll_lane!`] expands the 64 steps as
/// straight-line statements, so every `word`/`shift` becomes a constant,
/// bounds checks on the fixed-size arrays vanish and the straddle `if`
/// is resolved statically.
#[inline(always)]
#[expect(
    clippy::indexing_slicing,
    reason = "i is a literal < LANE, and word (word + 1 on a straddle, which never \
              starts in the last word) is a constant < W <= 64 after expansion"
)]
fn pack_lane<const W: u32>(values: &[u64; LANE], out: &mut [u64; LANE]) {
    let w = W as usize;
    unroll_lane!(i, {
        let v = values[i];
        let bit = i * w;
        let word = bit / 64;
        let shift = bit % 64;
        out[word] |= v << shift;
        if shift + w > 64 {
            out[word + 1] |= v >> (64 - shift);
        }
    });
}

/// Shared monomorphized body of the width-`W` unpack kernels (see
/// [`pack_lane`] for why the steps are macro-expanded).
#[inline(always)]
#[expect(
    clippy::indexing_slicing,
    reason = "i is a literal < LANE, and word (word + 1 on a straddle, which never \
              starts in the last word) is a constant < W <= 64 after expansion"
)]
fn unpack_lane<const W: u32>(words: &[u64; LANE], out: &mut [u64; LANE]) {
    let w = W as usize;
    let mask = if W == 64 { u64::MAX } else { (1u64 << W) - 1 };
    unroll_lane!(i, {
        let bit = i * w;
        let word = bit / 64;
        let shift = bit % 64;
        let mut v = words[word] >> shift;
        if shift + w > 64 {
            v |= words[word + 1] << (64 - shift);
        }
        out[i] = v & mask;
    });
}

/// Packs one lane at width 0: nothing to store.
pub fn pack_w0(_values: &[u64; LANE], _out: &mut [u64; LANE]) {}

/// Unpacks one lane at width 0: all values are zero.
pub fn unpack_w0(_words: &[u64; LANE], out: &mut [u64; LANE]) {
    out.fill(0);
}

/// Generates the named width-specialized wrappers `pack_wN` / `unpack_wN`
/// around the const-generic lane bodies.
macro_rules! lane_kernels {
    ($(($w:literal, $pack:ident, $unpack:ident)),+ $(,)?) => {
        $(
            #[doc = concat!("Packs one 64-value lane at width ", stringify!($w), " into ", stringify!($w), " little-endian words (fully unrolled).")]
            pub fn $pack(values: &[u64; LANE], out: &mut [u64; LANE]) {
                pack_lane::<$w>(values, out);
            }
            #[doc = concat!("Unpacks one 64-value lane at width ", stringify!($w), " from ", stringify!($w), " little-endian words (fully unrolled).")]
            pub fn $unpack(words: &[u64; LANE], out: &mut [u64; LANE]) {
                unpack_lane::<$w>(words, out);
            }
        )+
    };
}

lane_kernels!(
    (1, pack_w1, unpack_w1),
    (2, pack_w2, unpack_w2),
    (3, pack_w3, unpack_w3),
    (4, pack_w4, unpack_w4),
    (5, pack_w5, unpack_w5),
    (6, pack_w6, unpack_w6),
    (7, pack_w7, unpack_w7),
    (8, pack_w8, unpack_w8),
    (9, pack_w9, unpack_w9),
    (10, pack_w10, unpack_w10),
    (11, pack_w11, unpack_w11),
    (12, pack_w12, unpack_w12),
    (13, pack_w13, unpack_w13),
    (14, pack_w14, unpack_w14),
    (15, pack_w15, unpack_w15),
    (16, pack_w16, unpack_w16),
    (17, pack_w17, unpack_w17),
    (18, pack_w18, unpack_w18),
    (19, pack_w19, unpack_w19),
    (20, pack_w20, unpack_w20),
    (21, pack_w21, unpack_w21),
    (22, pack_w22, unpack_w22),
    (23, pack_w23, unpack_w23),
    (24, pack_w24, unpack_w24),
    (25, pack_w25, unpack_w25),
    (26, pack_w26, unpack_w26),
    (27, pack_w27, unpack_w27),
    (28, pack_w28, unpack_w28),
    (29, pack_w29, unpack_w29),
    (30, pack_w30, unpack_w30),
    (31, pack_w31, unpack_w31),
    (32, pack_w32, unpack_w32),
    (33, pack_w33, unpack_w33),
    (34, pack_w34, unpack_w34),
    (35, pack_w35, unpack_w35),
    (36, pack_w36, unpack_w36),
    (37, pack_w37, unpack_w37),
    (38, pack_w38, unpack_w38),
    (39, pack_w39, unpack_w39),
    (40, pack_w40, unpack_w40),
    (41, pack_w41, unpack_w41),
    (42, pack_w42, unpack_w42),
    (43, pack_w43, unpack_w43),
    (44, pack_w44, unpack_w44),
    (45, pack_w45, unpack_w45),
    (46, pack_w46, unpack_w46),
    (47, pack_w47, unpack_w47),
    (48, pack_w48, unpack_w48),
    (49, pack_w49, unpack_w49),
    (50, pack_w50, unpack_w50),
    (51, pack_w51, unpack_w51),
    (52, pack_w52, unpack_w52),
    (53, pack_w53, unpack_w53),
    (54, pack_w54, unpack_w54),
    (55, pack_w55, unpack_w55),
    (56, pack_w56, unpack_w56),
    (57, pack_w57, unpack_w57),
    (58, pack_w58, unpack_w58),
    (59, pack_w59, unpack_w59),
    (60, pack_w60, unpack_w60),
    (61, pack_w61, unpack_w61),
    (62, pack_w62, unpack_w62),
    (63, pack_w63, unpack_w63),
    (64, pack_w64, unpack_w64),
);

/// Width-indexed dispatch table over the lane pack kernels: `PACK_LANE[w]`
/// packs one 64-value lane at width `w`. Covers every width 0..=64, in
/// width order; the tests pin every entry against the generic kernel.
pub const PACK_LANE: [PackLaneFn; 65] = [
    pack_w0, pack_w1, pack_w2, pack_w3, pack_w4, pack_w5, pack_w6, pack_w7, pack_w8, pack_w9,
    pack_w10, pack_w11, pack_w12, pack_w13, pack_w14, pack_w15, pack_w16, pack_w17, pack_w18,
    pack_w19, pack_w20, pack_w21, pack_w22, pack_w23, pack_w24, pack_w25, pack_w26, pack_w27,
    pack_w28, pack_w29, pack_w30, pack_w31, pack_w32, pack_w33, pack_w34, pack_w35, pack_w36,
    pack_w37, pack_w38, pack_w39, pack_w40, pack_w41, pack_w42, pack_w43, pack_w44, pack_w45,
    pack_w46, pack_w47, pack_w48, pack_w49, pack_w50, pack_w51, pack_w52, pack_w53, pack_w54,
    pack_w55, pack_w56, pack_w57, pack_w58, pack_w59, pack_w60, pack_w61, pack_w62, pack_w63,
    pack_w64,
];

/// Width-indexed dispatch table over the lane unpack kernels:
/// `UNPACK_LANE[w]` unpacks one 64-value lane at width `w`. Covers every
/// width 0..=64 (see [`PACK_LANE`]).
pub const UNPACK_LANE: [UnpackLaneFn; 65] = [
    unpack_w0, unpack_w1, unpack_w2, unpack_w3, unpack_w4, unpack_w5, unpack_w6, unpack_w7,
    unpack_w8, unpack_w9, unpack_w10, unpack_w11, unpack_w12, unpack_w13, unpack_w14, unpack_w15,
    unpack_w16, unpack_w17, unpack_w18, unpack_w19, unpack_w20, unpack_w21, unpack_w22, unpack_w23,
    unpack_w24, unpack_w25, unpack_w26, unpack_w27, unpack_w28, unpack_w29, unpack_w30, unpack_w31,
    unpack_w32, unpack_w33, unpack_w34, unpack_w35, unpack_w36, unpack_w37, unpack_w38, unpack_w39,
    unpack_w40, unpack_w41, unpack_w42, unpack_w43, unpack_w44, unpack_w45, unpack_w46, unpack_w47,
    unpack_w48, unpack_w49, unpack_w50, unpack_w51, unpack_w52, unpack_w53, unpack_w54, unpack_w55,
    unpack_w56, unpack_w57, unpack_w58, unpack_w59, unpack_w60, unpack_w61, unpack_w62, unpack_w63,
    unpack_w64,
];

/// Appends one packed lane's first `w` words to `out` as little-endian
/// bytes via a single stack staging buffer (one `extend_from_slice` per
/// lane instead of one per word).
#[inline]
#[expect(
    clippy::indexing_slicing,
    reason = "w <= 64, so w * 8 <= 512 = bytes.len()"
)]
fn spill_words(words: &[u64; LANE], w: usize, out: &mut Vec<u8>) {
    let mut bytes = [0u8; LANE * 8];
    for (chunk, &word) in bytes.as_chunks_mut::<8>().0.iter_mut().zip(words.iter()) {
        *chunk = word.to_le_bytes();
    }
    out.extend_from_slice(&bytes[..w * 8]);
}

/// Loads one lane's `w` little-endian words from its exact byte region.
#[inline]
fn load_lane_words(lane_bytes: &[u8], words: &mut [u64; LANE]) {
    for (slot, chunk) in words.iter_mut().zip(lane_bytes.as_chunks::<8>().0) {
        *slot = u64::from_le_bytes(*chunk);
    }
}

/// Packs `values` with fixed `w` bits each, bit-identical to
/// [`pack_words`](crate::kernels::pack_words), dispatching full 64-value
/// lanes through the unrolled kernel table. Values must fit in `w` bits.
/// Returns the number of bytes appended.
#[expect(
    clippy::indexing_slicing,
    reason = "the scratch fill: wn <= 64 = scratch.len()"
)]
pub fn pack_words_unrolled(values: &[u64], w: u32, out: &mut Vec<u8>) -> usize {
    assert!(w <= 64, "width {w} exceeds 64");
    let before = out.len();
    if w == 0 || values.is_empty() {
        return 0;
    }
    #[expect(
        clippy::indexing_slicing,
        reason = "w <= 64 asserted above, table has 65 entries"
    )]
    let kernel = PACK_LANE[w as usize];
    let wn = w as usize;
    let mut scratch = [0u64; LANE];
    let (lanes, rem) = values.as_chunks::<LANE>();
    for lane in lanes {
        scratch[..wn].fill(0);
        kernel(lane, &mut scratch);
        spill_words(&scratch, wn, out);
    }
    kernels::pack_words(rem, w, out);
    out.len() - before
}

/// Unpacks `n` values of width `w` from `buf`, bit-identical to
/// [`unpack_words`](crate::kernels::unpack_words), dispatching full lanes
/// through the unrolled kernel table. Returns the bytes consumed; fails
/// with [`DecodeError::Truncated`] on a short buffer.
pub fn unpack_words_unrolled(
    buf: &[u8],
    n: usize,
    w: u32,
    out: &mut Vec<u64>,
) -> DecodeResult<usize> {
    if w == 0 {
        out.extend(std::iter::repeat_n(0, n));
        return Ok(0);
    }
    if n == 0 {
        return Ok(0);
    }
    let Some(&kernel) = UNPACK_LANE.get(w as usize) else {
        return Err(DecodeError::WidthOverflow { width: w });
    };
    let bytes = packed_size(n, w).ok_or(DecodeError::CountOverflow { claimed: n as u64 })?;
    let payload = buf.get(..bytes).ok_or(DecodeError::Truncated)?;
    out.reserve(n);
    let wn = w as usize;
    let full = n / LANE;
    let start = out.len();
    // Unpack straight into the output vector: resize once, then each lane
    // kernel writes its 64 values in place (no per-lane scratch + memcpy).
    out.resize(start + full * LANE, 0);
    #[expect(
        clippy::indexing_slicing,
        reason = "start was out.len() before the resize above"
    )]
    let lanes_out = out[start..].as_chunks_mut::<LANE>().0;
    let mut words = [0u64; LANE];
    for (lane_bytes, vals) in payload.chunks_exact(wn * 8).zip(lanes_out) {
        load_lane_words(lane_bytes, &mut words);
        kernel(&words, vals);
    }
    let tail = n - full * LANE;
    if tail > 0 {
        let tail_bytes = full * wn * 8;
        let rest = payload.get(tail_bytes..).ok_or(DecodeError::Truncated)?;
        kernels::unpack_words(rest, tail, w, out)?;
    }
    Ok(bytes)
}

/// Fused frame-of-reference pack: packs `(v − reference) mod 2^w` for each
/// value in one pass — the FOR subtraction and the bit-packing never
/// materialize an intermediate delta vector. Deltas are **masked to `w`
/// bits** (callers like the NewPFD slot stream rely on storing only the
/// low bits); when every delta fits `w` bits this is exactly
/// `for_transform` + `pack_words`. Returns the bytes appended
/// (`packed_size(values.len(), w)`).
#[expect(
    clippy::indexing_slicing,
    reason = "the scratch fill: wn <= 64 = scratch.len()"
)]
pub fn pack_words_for(values: &[i64], reference: i64, w: u32, out: &mut Vec<u8>) -> usize {
    assert!(w <= 64, "width {w} exceeds 64");
    let before = out.len();
    if w == 0 || values.is_empty() {
        return 0;
    }
    #[expect(
        clippy::indexing_slicing,
        reason = "w <= 64 asserted above, table has 65 entries"
    )]
    let kernel = PACK_LANE[w as usize];
    let wn = w as usize;
    let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
    let mut deltas = [0u64; LANE];
    let mut scratch = [0u64; LANE];
    let (lanes, rem) = values.as_chunks::<LANE>();
    for lane in lanes {
        for (slot, &v) in deltas.iter_mut().zip(lane.iter()) {
            *slot = (v.wrapping_sub(reference) as u64) & mask;
        }
        scratch[..wn].fill(0);
        kernel(&deltas, &mut scratch);
        spill_words(&scratch, wn, out);
    }
    for (slot, &v) in deltas.iter_mut().zip(rem) {
        *slot = (v.wrapping_sub(reference) as u64) & mask;
    }
    kernels::pack_words(deltas.get(..rem.len()).unwrap_or(&[]), w, out);
    out.len() - before
}

/// Fused frame-of-reference unpack: appends `reference +w v` (wrapping) for
/// each unpacked value in one pass — the inverse of [`pack_words_for`] and
/// the fused form of `unpack_words` + restore. Returns the bytes consumed.
pub fn unpack_words_for(
    buf: &[u8],
    n: usize,
    w: u32,
    reference: i64,
    out: &mut Vec<i64>,
) -> DecodeResult<usize> {
    if w == 0 {
        out.extend(std::iter::repeat_n(reference, n));
        return Ok(0);
    }
    if n == 0 {
        return Ok(0);
    }
    let Some(&kernel) = UNPACK_LANE.get(w as usize) else {
        return Err(DecodeError::WidthOverflow { width: w });
    };
    let bytes = packed_size(n, w).ok_or(DecodeError::CountOverflow { claimed: n as u64 })?;
    let payload = buf.get(..bytes).ok_or(DecodeError::Truncated)?;
    out.reserve(n);
    let wn = w as usize;
    let full = n / LANE;
    let start = out.len();
    out.resize(start + full * LANE, 0);
    #[expect(
        clippy::indexing_slicing,
        reason = "start was out.len() before the resize above"
    )]
    let lanes_out = out[start..].as_chunks_mut::<LANE>().0;
    let mut words = [0u64; LANE];
    let mut vals = [0u64; LANE];
    for (lane_bytes, lane_out) in payload.chunks_exact(wn * 8).zip(lanes_out) {
        load_lane_words(lane_bytes, &mut words);
        kernel(&words, &mut vals);
        for (slot, &v) in lane_out.iter_mut().zip(vals.iter()) {
            *slot = reference.wrapping_add(v as i64);
        }
    }
    let tail = n - full * LANE;
    if tail > 0 {
        // The `n % 64` tail is a zero-padded partial lane: its words are a
        // prefix of a full lane's, so the lane kernel decodes it in place.
        let tail_bytes = full * wn * 8;
        let rest = payload.get(tail_bytes..).ok_or(DecodeError::Truncated)?;
        words = [0; LANE];
        load_lane_words(rest, &mut words);
        kernel(&words, &mut vals);
        out.extend(
            vals.iter()
                .take(tail)
                .map(|&v| reference.wrapping_add(v as i64)),
        );
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{pack_words, unpack_words};

    fn masked(w: u32, seed: u64, n: usize) -> Vec<u64> {
        let mask = if w == 0 {
            0
        } else if w == 64 {
            u64::MAX
        } else {
            (1u64 << w) - 1
        };
        (0..n as u64)
            .map(|i| (i ^ seed).wrapping_mul(0x9E3779B97F4A7C15) & mask)
            .collect()
    }

    #[test]
    fn bit_identical_to_generic_every_width() {
        for w in 0..=64u32 {
            for n in [0usize, 1, 63, 64, 65, 127, 128, 129, 200] {
                let values = masked(w, u64::from(w), n);
                let mut generic = Vec::new();
                pack_words(&values, w, &mut generic);
                let mut fast = Vec::new();
                let written = pack_words_unrolled(&values, w, &mut fast);
                assert_eq!(fast, generic, "w = {w}, n = {n}");
                assert_eq!(Some(written), packed_size(n, w));
                let mut out = Vec::new();
                let consumed = unpack_words_unrolled(&generic, n, w, &mut out).expect("unpack");
                assert_eq!(consumed, written);
                assert_eq!(out, values, "w = {w}, n = {n}");
                let mut fused = vec![1];
                let consumed = unpack_words_for(&generic, n, w, -5, &mut fused).expect("unpack");
                assert_eq!(consumed, written);
                let restored = values.iter().map(|&v| (v as i64).wrapping_sub(5));
                assert!(fused[1..].iter().copied().eq(restored), "w = {w}, n = {n}");
            }
        }
    }

    #[test]
    fn fused_for_matches_two_pass() {
        for w in [0u32, 1, 5, 13, 33, 63, 64] {
            for reference in [0i64, -17, 1 << 40, i64::MIN, i64::MAX] {
                let deltas = masked(w, 99, 150);
                let values: Vec<i64> = deltas
                    .iter()
                    .map(|&d| reference.wrapping_add(d as i64))
                    .collect();
                let mut fused = Vec::new();
                pack_words_for(&values, reference, w, &mut fused);
                let mut two_pass = Vec::new();
                pack_words(&deltas, w, &mut two_pass);
                assert_eq!(fused, two_pass, "w = {w}, ref = {reference}");
                let mut out = Vec::new();
                let consumed =
                    unpack_words_for(&fused, values.len(), w, reference, &mut out).expect("unpack");
                assert_eq!(consumed, fused.len());
                assert_eq!(out, values, "w = {w}, ref = {reference}");
            }
        }
    }

    #[test]
    fn fused_pack_masks_wide_values() {
        // The NewPFD slot stream stores only the low b bits of each delta.
        let values = [0i64, 5, 1 << 20, (1 << 20) | 3];
        let mut buf = Vec::new();
        pack_words_for(&values, 0, 4, &mut buf);
        let mut out = Vec::new();
        unpack_words(&buf, values.len(), 4, &mut out).expect("unpack");
        assert_eq!(out, vec![0, 5, 0, 3]);
    }

    #[test]
    fn truncated_lane_payload_fails() {
        let values = masked(13, 7, 130);
        let mut buf = Vec::new();
        pack_words_unrolled(&values, 13, &mut buf);
        let mut out = Vec::new();
        assert!(unpack_words_unrolled(&buf[..buf.len() - 1], 130, 13, &mut out).is_err());
        let mut out = Vec::new();
        assert!(unpack_words_for(&buf[..buf.len() - 1], 130, 13, 0, &mut out).is_err());
    }

    #[test]
    fn width_zero_and_empty() {
        let mut buf = Vec::new();
        assert_eq!(pack_words_unrolled(&[1, 2, 3], 0, &mut buf), 0);
        assert_eq!(pack_words_for(&[1, 2, 3], 1, 0, &mut buf), 0);
        assert!(buf.is_empty());
        let mut out = Vec::new();
        assert_eq!(unpack_words_unrolled(&[], 3, 0, &mut out), Ok(0));
        assert_eq!(out, vec![0, 0, 0]);
        let mut out = Vec::new();
        assert_eq!(unpack_words_for(&[], 3, 0, 42, &mut out), Ok(0));
        assert_eq!(out, vec![42, 42, 42]);
        let mut out = Vec::new();
        assert_eq!(unpack_words_unrolled(&[], 0, 17, &mut out), Ok(0));
        assert!(out.is_empty());
    }

    #[test]
    fn dispatch_tables_cover_all_widths() {
        // Every entry must roundtrip one lane at its width.
        for w in 0..=64u32 {
            let values_vec = masked(w, 3, LANE);
            let mut values = [0u64; LANE];
            values.copy_from_slice(&values_vec);
            let mut words = [0u64; LANE];
            PACK_LANE[w as usize](&values, &mut words);
            let mut out = [u64::MAX; LANE];
            UNPACK_LANE[w as usize](&words, &mut out);
            if w == 0 {
                assert_eq!(out, [0u64; LANE]);
            } else {
                assert_eq!(out, values, "w = {w}");
            }
        }
    }
}
