//! Word-at-a-time fixed-width packing kernels.
//!
//! [`BitWriter`](crate::bits::BitWriter) is flexible but writes through a
//! per-bit-position loop. The plain-BP operator spends nearly all of its
//! time packing long runs of *equal-width* values, for which a much faster
//! shape exists: accumulate into a 64-bit word and spill whole words
//! (the scalar version of the word-aligned kernels FastPFOR-style codecs
//! use). These kernels are drop-in equivalent to the generic path — a
//! property test asserts bit-identical output — and are used by
//! `pfor::BpCodec` and the other frame-of-reference hot loops.
//!
//! Layout note: to keep words independent, kernels emit values
//! **LSB-first within little-endian 64-bit words**, which differs from the
//! MSB-first `BitWriter` stream. Each kernel pair is self-consistent; the
//! equivalence test compares decoded values, not raw bytes.

#![deny(clippy::indexing_slicing)]
#![deny(clippy::cast_possible_truncation)]

use crate::error::{DecodeError, DecodeResult};
use crate::width::width;

/// Packs `values` with fixed `w` bits each into little-endian 64-bit
/// words, appended to `out`. Values must fit in `w` bits.
///
/// Returns the number of bytes appended (`ceil(len·w / 64) · 8`, i.e. the
/// payload is padded to whole words).
pub fn pack_words(values: &[u64], w: u32, out: &mut Vec<u8>) -> usize {
    debug_assert!(w <= 64);
    debug_assert!(values.iter().all(|&v| width(v) <= w));
    let before = out.len();
    if w == 0 || values.is_empty() {
        return 0;
    }
    let mut acc: u64 = 0;
    let mut filled: u32 = 0;
    for &v in values {
        if filled + w <= 64 {
            acc |= v << filled;
            filled += w;
            if filled == 64 {
                out.extend_from_slice(&acc.to_le_bytes());
                acc = 0;
                filled = 0;
            }
        } else {
            // Straddles a word boundary: low part now, high part next.
            acc |= v << filled;
            out.extend_from_slice(&acc.to_le_bytes());
            let low_bits = 64 - filled;
            acc = v >> low_bits;
            filled = w - low_bits;
        }
    }
    if filled > 0 {
        out.extend_from_slice(&acc.to_le_bytes());
    }
    out.len() - before
}

/// Exact byte size [`pack_words`] produces for `n` values of width `w`, or
/// `None` if `n · w` overflows `usize` (possible on 32-bit targets or with
/// an adversarial decoded count — decoders map this to
/// [`DecodeError::CountOverflow`]).
pub fn packed_size(n: usize, w: u32) -> Option<usize> {
    if w == 0 || n == 0 {
        Some(0)
    } else {
        n.checked_mul(w as usize)
            .map(|bits| bits.div_ceil(64))
            .and_then(|words| words.checked_mul(8))
    }
}

/// Unpacks `n` values of width `w` from `buf`, appending to `out`.
/// Returns the number of bytes consumed; fails with
/// [`DecodeError::Truncated`] if `buf` is too short.
pub fn unpack_words(buf: &[u8], n: usize, w: u32, out: &mut Vec<u64>) -> DecodeResult<usize> {
    debug_assert!(w <= 64);
    if w == 0 {
        out.extend(std::iter::repeat_n(0, n));
        return Ok(0);
    }
    if n == 0 {
        return Ok(0);
    }
    let bytes = packed_size(n, w).ok_or(DecodeError::CountOverflow { claimed: n as u64 })?;
    let payload = buf.get(..bytes).ok_or(DecodeError::Truncated)?;
    out.reserve(n);
    let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
    let mut word_idx = 0usize;
    let mut acc = read_word_exact(payload, 0);
    let mut avail: u32 = 64;
    for _ in 0..n {
        let v = if avail >= w {
            let v = acc & mask;
            acc = if w == 64 { 0 } else { acc >> w };
            avail -= w;
            v
        } else {
            // Straddle: combine the tail of this word with the next.
            let low = acc;
            word_idx += 1;
            acc = read_word_exact(payload, word_idx);
            let v = (low | (acc << avail)) & mask;
            let high_bits = w - avail;
            acc = if high_bits == 64 { 0 } else { acc >> high_bits };
            avail = 64 - high_bits;
            v
        };
        out.push(v);
        if avail == 0 {
            word_idx += 1;
            if word_idx * 8 < payload.len() {
                acc = read_word_exact(payload, word_idx);
            }
            avail = 64;
        }
    }
    Ok(bytes)
}

/// Reads word `idx` from a payload the caller has already validated to hold
/// it (via [`packed_size`]). A short read here would mean a decoder bug, so
/// rather than silently yielding 0 (which would mask it as wrong data) this
/// asserts in debug builds and lets the slice index panic surface in the
/// worst case.
#[inline]
#[expect(
    clippy::indexing_slicing,
    reason = "caller validated the payload length via packed_size"
)]
pub(crate) fn read_word_exact(payload: &[u8], idx: usize) -> u64 {
    let start = idx * 8;
    debug_assert!(
        start + 8 <= payload.len(),
        "read_word_exact past validated payload: word {idx} of {} bytes",
        payload.len()
    );
    let mut word = [0u8; 8];
    word.copy_from_slice(&payload[start..start + 8]);
    u64::from_le_bytes(word)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[u64], w: u32) {
        let mut buf = Vec::new();
        let written = pack_words(values, w, &mut buf);
        assert_eq!(Some(written), packed_size(values.len(), w));
        let mut out = Vec::new();
        let consumed = unpack_words(&buf, values.len(), w, &mut out).expect("unpack");
        assert_eq!(consumed, written);
        assert_eq!(out, values, "w = {w}");
    }

    #[test]
    fn roundtrip_every_width() {
        for w in 0..=64u32 {
            let mask = if w == 0 {
                0
            } else if w == 64 {
                u64::MAX
            } else {
                (1u64 << w) - 1
            };
            let values: Vec<u64> = (0..137u64)
                .map(|i| (i.wrapping_mul(0x9E3779B97F4A7C15)) & mask)
                .collect();
            roundtrip(&values, w);
        }
    }

    #[test]
    fn roundtrip_boundary_counts() {
        // Counts that land exactly on / just around word boundaries.
        for w in [1u32, 3, 7, 8, 13, 21, 32, 33, 63, 64] {
            for n in [0usize, 1, 2, 63, 64, 65, 128] {
                let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
                let values: Vec<u64> = (0..n as u64).map(|i| i & mask).collect();
                roundtrip(&values, w);
            }
        }
    }

    #[test]
    fn zero_width_is_free() {
        let mut buf = Vec::new();
        assert_eq!(pack_words(&[0, 0, 0], 0, &mut buf), 0);
        assert!(buf.is_empty());
        let mut out = Vec::new();
        assert_eq!(unpack_words(&[], 3, 0, &mut out), Ok(0));
        assert_eq!(out, vec![0, 0, 0]);
    }

    #[test]
    fn short_buffer_is_none() {
        let mut buf = Vec::new();
        pack_words(&[1, 2, 3], 33, &mut buf);
        let mut out = Vec::new();
        assert!(unpack_words(&buf[..buf.len() - 1], 3, 33, &mut out).is_err());
    }

    #[test]
    fn max_width_values() {
        roundtrip(&[u64::MAX, 0, u64::MAX, 1, u64::MAX - 1], 64);
    }

    #[test]
    fn packed_size_overflow_is_none() {
        assert_eq!(packed_size(usize::MAX, 64), None);
        assert_eq!(packed_size(usize::MAX / 2, 3), None);
        assert_eq!(packed_size(usize::MAX, 0), Some(0));
        assert_eq!(packed_size(64, 7), Some(56));
    }

    #[test]
    fn overflowing_count_is_typed_error() {
        let mut out = Vec::new();
        assert_eq!(
            unpack_words(&[], usize::MAX, 64, &mut out),
            Err(DecodeError::CountOverflow {
                claimed: usize::MAX as u64
            })
        );
    }
}
