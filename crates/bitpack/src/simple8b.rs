//! Simple8b word-aligned integer codec (Anh & Moffat family).
//!
//! Packs a sequence of unsigned integers into 64-bit words: a 4-bit selector
//! chooses how many values share the word and at what width. Used here to
//! store the exception streams of NewPFOR / OptPFOR / FastPFOR, standing in
//! for Simple16 of the original C++ implementations (see DESIGN.md §2).
//!
//! Values must be `< 2^60`; larger values are reported as
//! [`Simple8bError::ValueTooLarge`]. The PFOR callers guarantee this by
//! construction (exception high-bits are at most `64 − b` wide with `b ≥ 4`).

#![deny(clippy::indexing_slicing)]

use crate::error::{DecodeError, DecodeResult};
use crate::width::width;
use crate::zigzag::{read_len_bounded, write_varint};

/// `(values per word, bits per value)` for each 4-bit selector.
///
/// Selectors 0 and 1 are run encodings of zeros (240 and 120 zeros per
/// word); the rest trade count against width within a 60-bit payload.
pub const SELECTORS: [(usize, u32); 16] = [
    (240, 0),
    (120, 0),
    (60, 1),
    (30, 2),
    (20, 3),
    (15, 4),
    (12, 5),
    (10, 6),
    (8, 7),
    (7, 8),
    (6, 10),
    (5, 12),
    (4, 15),
    (3, 20),
    (2, 30),
    (1, 60),
];

/// Encode-side errors of the Simple8b codec. Decode failures use the
/// workspace-wide [`DecodeError`] instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Simple8bError {
    /// An input value does not fit in the 60-bit payload.
    ValueTooLarge(u64),
}

impl std::fmt::Display for Simple8bError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ValueTooLarge(v) => write!(f, "simple8b: value {v} exceeds 2^60 - 1"),
        }
    }
}

impl std::error::Error for Simple8bError {}

/// Encodes `values` as `varint n` + packed 64-bit little-endian words.
pub fn encode(values: &[u64], out: &mut Vec<u8>) -> Result<(), Simple8bError> {
    write_varint(out, values.len() as u64);
    let mut i = 0;
    while i < values.len() {
        let (word, taken) = pack_one_word(values.get(i..).unwrap_or(&[]))?;
        i += taken;
        out.extend_from_slice(&word.to_le_bytes());
    }
    Ok(())
}

/// Packs the leading values of `rest` into one word using the densest
/// selector that fits. The number of values consumed matches the decoder's
/// rule `min(selector count, remaining)` exactly.
fn pack_one_word(rest: &[u64]) -> Result<(u64, usize), Simple8bError> {
    debug_assert!(!rest.is_empty());
    for (sel, &(count, bits)) in SELECTORS.iter().enumerate() {
        let take = count.min(rest.len());
        let head = rest.get(..take).unwrap_or(rest);
        let fits = if bits == 0 {
            head.iter().all(|&v| v == 0)
        } else {
            head.iter().all(|&v| width(v) <= bits)
        };
        if fits {
            let mut word = (sel as u64) << 60;
            if bits > 0 {
                for (j, &v) in head.iter().enumerate() {
                    word |= v << (j as u32 * bits);
                }
            }
            return Ok((word, take));
        }
    }
    let max = rest.iter().copied().max().unwrap_or(0);
    Err(Simple8bError::ValueTooLarge(max))
}

/// Decodes a stream produced by [`encode`] from `buf[*pos..]`, advancing
/// `pos`.
pub fn decode(buf: &[u8], pos: &mut usize, out: &mut Vec<u64>) -> DecodeResult<()> {
    let n = read_len_bounded(buf, pos, crate::MAX_BLOCK_VALUES)?;
    out.reserve(n);
    let mut remaining = n;
    while remaining > 0 {
        let word = match buf.get(*pos..*pos + 8).map(<[u8; 8]>::try_from) {
            Some(Ok(b)) => u64::from_le_bytes(b),
            _ => return Err(DecodeError::Truncated),
        };
        *pos += 8;
        let sel = (word >> 60) as usize;
        let (count, bits) = SELECTORS
            .get(sel)
            .copied()
            .ok_or(DecodeError::BadModeByte { mode: sel as u8 })?;
        let take = count.min(remaining);
        if bits == 0 {
            out.extend(std::iter::repeat_n(0, take));
        } else {
            let mask = (1u64 << bits) - 1;
            for j in 0..take {
                out.push((word >> (j as u32 * bits)) & mask);
            }
        }
        remaining -= take;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[u64]) {
        let mut buf = Vec::new();
        encode(values, &mut buf).expect("encode");
        let mut pos = 0;
        let mut out = Vec::new();
        decode(&buf, &mut pos, &mut out).expect("decode");
        assert_eq!(out, values);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn roundtrip_basic() {
        roundtrip(&[]);
        roundtrip(&[0]);
        roundtrip(&[1, 2, 3, 4, 5]);
        roundtrip(&[(1 << 60) - 1]);
        roundtrip(&vec![0; 1000]);
        roundtrip(&(0..500).collect::<Vec<u64>>());
    }

    #[test]
    fn zero_runs_are_dense() {
        let mut buf = Vec::new();
        encode(&vec![0u64; 240], &mut buf).unwrap();
        // varint(240) = 2 bytes + one 8-byte word.
        assert_eq!(buf.len(), 2 + 8);
    }

    #[test]
    fn mixed_widths() {
        let values: Vec<u64> = (0..256)
            .map(|i| if i % 17 == 0 { 1 << 40 } else { i })
            .collect();
        roundtrip(&values);
    }

    #[test]
    fn value_too_large() {
        let mut buf = Vec::new();
        assert_eq!(
            encode(&[1u64 << 60], &mut buf),
            Err(Simple8bError::ValueTooLarge(1 << 60))
        );
    }

    #[test]
    fn truncated_is_corrupt() {
        let mut buf = Vec::new();
        encode(&[1, 2, 3], &mut buf).unwrap();
        let mut pos = 0;
        let mut out = Vec::new();
        assert_eq!(
            decode(&buf[..buf.len() - 1], &mut pos, &mut out),
            Err(DecodeError::Truncated)
        );
    }

    #[test]
    fn short_tails_of_every_length() {
        for n in 1..70 {
            let values: Vec<u64> = (0..n).map(|i| i * 3 + 1).collect();
            roundtrip(&values);
        }
    }

    #[test]
    fn max_width_values_throughout() {
        let values = vec![(1u64 << 60) - 1; 7];
        roundtrip(&values);
    }
}
