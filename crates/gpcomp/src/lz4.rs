//! LZ4-style byte compression (our own implementation of the LZ4 block
//! format; Collet 2013).
//!
//! Greedy LZ77 with a hash table over 4-byte prefixes and 16-bit offsets.
//! Sequence layout follows LZ4 blocks: a token byte holds
//! `literal_len(4b) | match_len−4 (4b)`, both extended with 255-run bytes,
//! then the literals, then a 2-byte little-endian offset. The final
//! sequence is literals-only.

#![deny(clippy::indexing_slicing)]

use crate::ByteCodec;
use bitpack::error::{DecodeError, DecodeResult};
use bitpack::zigzag::{read_varint, write_varint};

/// Minimum match length (as in LZ4).
const MIN_MATCH: usize = 4;
/// Hash table size (2^16 entries).
const HASH_BITS: u32 = 16;
/// Maximum offset expressible in the 2-byte field.
const MAX_OFFSET: usize = 65_535;

/// The LZ4-style codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lz4Like;

impl Lz4Like {
    /// Creates the codec.
    pub fn new() -> Self {
        Self
    }
}

#[inline]
fn hash4(data: &[u8]) -> usize {
    // Callers guarantee 4 bytes; a short slice hashes as zero.
    let v = match data.get(..4).map(<[u8; 4]>::try_from) {
        Some(Ok(b)) => u32::from_le_bytes(b),
        _ => 0,
    };
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Writes an LZ4 length field: `base` nibble already in the token, the
/// remainder as 255-run bytes.
fn write_len_ext(mut len: usize, out: &mut Vec<u8>) {
    while len >= 255 {
        out.push(255);
        len -= 255;
    }
    out.push(len as u8);
}

fn read_len_ext(buf: &[u8], pos: &mut usize) -> DecodeResult<usize> {
    let mut len = 0usize;
    loop {
        let b = *buf.get(*pos).ok_or(DecodeError::Truncated)?;
        *pos += 1;
        len += b as usize;
        if b != 255 {
            return Ok(len);
        }
    }
}

impl ByteCodec for Lz4Like {
    fn name(&self) -> &'static str {
        "LZ4"
    }

    fn compress(&self, data: &[u8], out: &mut Vec<u8>) {
        write_varint(out, data.len() as u64);
        if data.is_empty() {
            return;
        }
        let mut table = vec![usize::MAX; 1 << HASH_BITS];
        let mut i = 0usize;
        let mut literal_start = 0usize;
        // Leave room so the 4-byte hash read never overruns.
        let end = data.len().saturating_sub(MIN_MATCH);
        while i < end {
            let h = hash4(data.get(i..).unwrap_or(&[]));
            let cand = table.get(h).copied().unwrap_or(usize::MAX);
            if let Some(slot) = table.get_mut(h) {
                *slot = i;
            }
            let matched = cand != usize::MAX
                && i - cand <= MAX_OFFSET
                && matches!(
                    (data.get(cand..cand + MIN_MATCH), data.get(i..i + MIN_MATCH)),
                    (Some(a), Some(b)) if a == b
                );
            if !matched {
                i += 1;
                continue;
            }
            // Extend the match.
            let mut mlen = MIN_MATCH;
            while i + mlen < data.len() && data.get(cand + mlen) == data.get(i + mlen) {
                mlen += 1;
            }
            // Emit sequence: literals [literal_start..i), match (offset, mlen).
            let lit_len = i - literal_start;
            let tok_lit = lit_len.min(15);
            let tok_match = (mlen - MIN_MATCH).min(15);
            out.push(((tok_lit as u8) << 4) | tok_match as u8);
            if tok_lit == 15 {
                write_len_ext(lit_len - 15, out);
            }
            out.extend_from_slice(data.get(literal_start..i).unwrap_or(&[]));
            out.extend_from_slice(&((i - cand) as u16).to_le_bytes());
            if tok_match == 15 {
                write_len_ext(mlen - MIN_MATCH - 15, out);
            }
            // Index a few positions inside the match for future matches.
            let step = (mlen / 8).max(1);
            let mut j = i + 1;
            while j + MIN_MATCH <= data.len() && j < i + mlen {
                let h = hash4(data.get(j..).unwrap_or(&[]));
                if let Some(slot) = table.get_mut(h) {
                    *slot = j;
                }
                j += step;
            }
            i += mlen;
            literal_start = i;
        }
        // Final literals-only sequence (omitted when a match ended the
        // stream exactly — the decoder stops at the target length).
        let lit_len = data.len() - literal_start;
        if lit_len > 0 {
            let tok_lit = lit_len.min(15);
            out.push((tok_lit as u8) << 4);
            if tok_lit == 15 {
                write_len_ext(lit_len - 15, out);
            }
            out.extend_from_slice(data.get(literal_start..).unwrap_or(&[]));
        }
    }

    fn decompress(&self, buf: &[u8], pos: &mut usize, out: &mut Vec<u8>) -> DecodeResult<()> {
        let n = read_varint(buf, pos)? as usize;
        if n == 0 {
            return Ok(());
        }
        if n > bitpack::MAX_BLOCK_VALUES * 8 {
            return Err(DecodeError::CountOverflow { claimed: n as u64 });
        }
        let start = out.len();
        out.reserve(n);
        while out.len() - start < n {
            let token = *buf.get(*pos).ok_or(DecodeError::Truncated)?;
            *pos += 1;
            let mut lit_len = (token >> 4) as usize;
            if lit_len == 15 {
                lit_len += read_len_ext(buf, pos)?;
            }
            let lits = buf
                .get(*pos..*pos + lit_len)
                .ok_or(DecodeError::Truncated)?;
            *pos += lit_len;
            out.extend_from_slice(lits);
            if out.len() - start == n {
                break; // final sequence has no match part
            }
            if out.len() - start > n {
                return Err(DecodeError::LengthMismatch {
                    expected: n,
                    got: out.len() - start,
                });
            }
            let off_bytes = buf.get(*pos..*pos + 2).ok_or(DecodeError::Truncated)?;
            *pos += 2;
            let offset = match <[u8; 2]>::try_from(off_bytes) {
                Ok(b) => u16::from_le_bytes(b) as usize,
                Err(_) => return Err(DecodeError::Truncated),
            };
            let mut mlen = (token & 0x0F) as usize;
            if mlen == 15 {
                mlen += read_len_ext(buf, pos)?;
            }
            mlen += MIN_MATCH;
            if offset == 0 || offset > out.len() - start {
                // A match may not reach back before this frame's output.
                return Err(DecodeError::CountOverflow {
                    claimed: offset as u64,
                });
            }
            if out.len() - start + mlen > n {
                return Err(DecodeError::LengthMismatch {
                    expected: n,
                    got: out.len() - start + mlen,
                });
            }
            // Overlapping copy, byte by byte (RLE-style matches).
            let from = out.len() - offset;
            for k in 0..mlen {
                let b = out.get(from + k).copied().ok_or(DecodeError::Truncated)?;
                out.push(b);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{roundtrip_bytes, standard_byte_cases};

    #[test]
    fn roundtrip_standard() {
        let codec = Lz4Like::new();
        for case in standard_byte_cases() {
            roundtrip_bytes(&codec, &case);
        }
    }

    #[test]
    fn repetitive_data_compresses_hard() {
        let codec = Lz4Like::new();
        let data: Vec<u8> = b"abcdefgh".iter().cycle().take(100_000).copied().collect();
        let size = roundtrip_bytes(&codec, &data);
        assert!(size < 1000, "got {size}");
    }

    #[test]
    fn overlapping_matches_rle_style() {
        // Single repeated byte → offset-1 overlapping copies.
        let codec = Lz4Like::new();
        let data = vec![7u8; 50_000];
        let size = roundtrip_bytes(&codec, &data);
        assert!(size < 300, "got {size}");
    }

    #[test]
    fn incompressible_data_expands_gracefully() {
        let codec = Lz4Like::new();
        // Pseudo-random bytes (xorshift) have no 4-byte repeats to speak of.
        let mut x = 0x12345678u64;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        let size = roundtrip_bytes(&codec, &data);
        // Expansion bounded: token bytes every ≤ 15 literals plus header.
        assert!(size < data.len() + data.len() / 10 + 16);
    }

    #[test]
    fn long_range_matches_beyond_window_are_skipped() {
        // Two identical 1 KiB chunks 100 KiB apart: offset > 65535 must
        // not be emitted (correctness, not ratio).
        let mut data = vec![0u8; 102_400];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let chunk: Vec<u8> = (0..1024).map(|i| (i * 7 % 256) as u8).collect();
        data[..1024].copy_from_slice(&chunk);
        let tail = data.len() - 1024;
        data[tail..].copy_from_slice(&chunk);
        roundtrip_bytes(&Lz4Like::new(), &data);
    }

    #[test]
    fn truncation_fails_cleanly() {
        let codec = Lz4Like::new();
        let data: Vec<u8> = (0..5000).map(|i| (i % 37) as u8).collect();
        let mut buf = Vec::new();
        codec.compress(&data, &mut buf);
        for cut in (0..buf.len()).step_by(7) {
            let mut pos = 0;
            let mut out = Vec::new();
            assert!(codec.decompress(&buf[..cut], &mut pos, &mut out).is_err());
        }
    }
}
