//! LZMA-lite: LZ77 with an adaptive binary range coder — the stand-in for
//! 7-Zip in the Figure 13 experiment (DESIGN.md §2, substitution 2).
//!
//! The same algorithmic family as LZMA: dictionary matching plus range
//! coding with adaptive bit probabilities. The model is deliberately small
//! (order-1 literals, fixed-width length/distance trees) — enough to
//! reproduce 7-Zip's *position* in the trade-off space (strongest ratio,
//! slowest speed) without porting the full LZMA state machine.
//!
//! Range coder: LZMA's 32-bit carry-less coder (11-bit probabilities,
//! shift-5 adaptation).

use crate::ByteCodec;
use bitpack::error::{DecodeError, DecodeResult};
use bitpack::zigzag::{read_len_bounded, write_varint};

/// Probability precision (LZMA uses 11 bits).
const PROB_BITS: u32 = 11;
const PROB_ONE: u16 = 1 << PROB_BITS;
const PROB_INIT: u16 = PROB_ONE / 2;
/// Adaptation shift.
const MOVE_BITS: u32 = 5;
const TOP: u32 = 1 << 24;

/// Carry-less range encoder.
struct RangeEncoder {
    low: u64,
    range: u32,
    cache: u8,
    cache_size: u64,
    out: Vec<u8>,
}

impl RangeEncoder {
    fn new() -> Self {
        Self {
            low: 0,
            range: u32::MAX,
            cache: 0,
            cache_size: 1,
            out: Vec::new(),
        }
    }

    #[inline]
    fn shift_low(&mut self) {
        // Reference LZMA carry propagation: flush the cached byte (plus
        // carry) and any pending 0xFF run once the top byte is decided.
        if (self.low as u32) < 0xFF00_0000 || (self.low >> 32) != 0 {
            let carry = (self.low >> 32) as u8;
            loop {
                self.out.push(self.cache.wrapping_add(carry));
                self.cache = 0xFF;
                self.cache_size -= 1;
                if self.cache_size == 0 {
                    break;
                }
            }
            self.cache = ((self.low >> 24) & 0xFF) as u8;
        }
        self.cache_size += 1;
        self.low = (self.low & 0x00FF_FFFF) << 8;
    }

    #[inline]
    fn encode_bit(&mut self, prob: &mut u16, bit: bool) {
        let bound = (self.range >> PROB_BITS) * (*prob as u32);
        if !bit {
            self.range = bound;
            *prob += (PROB_ONE - *prob) >> MOVE_BITS;
        } else {
            self.low += bound as u64;
            self.range -= bound;
            *prob -= *prob >> MOVE_BITS;
        }
        while self.range < TOP {
            self.range <<= 8;
            self.shift_low();
        }
    }

    fn finish(mut self) -> Vec<u8> {
        for _ in 0..5 {
            self.shift_low();
        }
        self.out
    }
}

/// Matching range decoder.
struct RangeDecoder<'a> {
    code: u32,
    range: u32,
    buf: &'a [u8],
    pos: usize,
}

impl<'a> RangeDecoder<'a> {
    fn new(buf: &'a [u8]) -> DecodeResult<Self> {
        // The first output byte of the encoder is always the initial cache
        // (0); then 4 code bytes.
        let mut code = 0u32;
        for &b in buf.get(1..5).ok_or(DecodeError::Truncated)? {
            code = (code << 8) | b as u32;
        }
        Ok(Self {
            code,
            range: u32::MAX,
            buf,
            pos: 5,
        })
    }

    #[inline]
    fn decode_bit(&mut self, prob: &mut u16) -> DecodeResult<bool> {
        let bound = (self.range >> PROB_BITS) * (*prob as u32);
        let bit = if self.code < bound {
            self.range = bound;
            *prob += (PROB_ONE - *prob) >> MOVE_BITS;
            false
        } else {
            self.code -= bound;
            self.range -= bound;
            *prob -= *prob >> MOVE_BITS;
            true
        };
        while self.range < TOP {
            // The encoder's `finish` flushes every byte a renormalization
            // here asks for, so reading past the payload means the frame
            // is cut short or claims more output than it encodes.
            let b = *self.buf.get(self.pos).ok_or(DecodeError::Truncated)?;
            self.pos += 1;
            self.range <<= 8;
            self.code = (self.code << 8) | b as u32;
        }
        Ok(bit)
    }
}

/// A binary tree of adaptive probabilities coding fixed-width fields
/// MSB-first.
struct BitTree {
    probs: Vec<u16>,
    bits: u32,
}

impl BitTree {
    fn new(bits: u32) -> Self {
        Self {
            probs: vec![PROB_INIT; 1 << bits],
            bits,
        }
    }

    fn encode(&mut self, enc: &mut RangeEncoder, value: u32) {
        let mut node = 1usize;
        for i in (0..self.bits).rev() {
            let bit = (value >> i) & 1 == 1;
            enc.encode_bit(&mut self.probs[node], bit);
            node = (node << 1) | bit as usize;
        }
    }

    fn decode(&mut self, dec: &mut RangeDecoder<'_>) -> DecodeResult<u32> {
        let mut node = 1usize;
        for _ in 0..self.bits {
            let bit = dec.decode_bit(&mut self.probs[node])?;
            node = (node << 1) | bit as usize;
        }
        Ok((node - (1 << self.bits)) as u32)
    }
}

/// The shared literal/match model.
struct Model {
    is_match: u16,
    /// Order-1 literal coder: one 8-bit tree per previous byte.
    literals: Vec<BitTree>,
    len: BitTree,
    dist: BitTree,
}

impl Model {
    fn new() -> Self {
        Self {
            is_match: PROB_INIT,
            literals: (0..256).map(|_| BitTree::new(8)).collect(),
            len: BitTree::new(16),
            dist: BitTree::new(16),
        }
    }
}

/// Minimum profitable match length.
const MIN_MATCH: usize = 3;
const MAX_MATCH: usize = 65_535;
const MAX_DIST: usize = 65_535;
const HASH_BITS: u32 = 16;

#[inline]
fn hash3(data: &[u8]) -> usize {
    let v = (data[0] as u32) | ((data[1] as u32) << 8) | ((data[2] as u32) << 16);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// The LZMA-lite codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct LzmaLite;

impl LzmaLite {
    /// Creates the codec.
    pub fn new() -> Self {
        Self
    }
}

impl ByteCodec for LzmaLite {
    fn name(&self) -> &'static str {
        "7-Zip (LZMA-lite)"
    }

    fn compress(&self, data: &[u8], out: &mut Vec<u8>) {
        write_varint(out, data.len() as u64);
        if data.is_empty() {
            return;
        }
        let mut model = Model::new();
        let mut enc = RangeEncoder::new();
        let mut table = vec![usize::MAX; 1 << HASH_BITS];
        let mut i = 0usize;
        let mut prev_byte = 0u8;
        while i < data.len() {
            let mut mlen = 0usize;
            let mut mdist = 0usize;
            if i + MIN_MATCH <= data.len() {
                let h = hash3(&data[i..]);
                let cand = table[h];
                table[h] = i;
                if cand != usize::MAX
                    && i - cand <= MAX_DIST
                    && data[cand..cand + MIN_MATCH] == data[i..i + MIN_MATCH]
                {
                    let mut l = MIN_MATCH;
                    while i + l < data.len() && data[cand + l] == data[i + l] && l < MAX_MATCH {
                        l += 1;
                    }
                    mlen = l;
                    mdist = i - cand;
                }
            }
            if mlen >= MIN_MATCH {
                enc.encode_bit(&mut model.is_match, true);
                model.len.encode(&mut enc, mlen as u32);
                model.dist.encode(&mut enc, mdist as u32);
                // Index interior positions sparsely.
                // lint:allow(unchecked-arith-in-decode): encoder side; the match scan stops at data.len(), so i + mlen <= data.len()
                let next = i + mlen;
                let step = (mlen / 8).max(1);
                let mut j = i + 1;
                while j + MIN_MATCH <= data.len() && j < next {
                    table[hash3(&data[j..])] = j;
                    j += step;
                }
                i = next;
                prev_byte = data[i - 1];
            } else {
                enc.encode_bit(&mut model.is_match, false);
                model.literals[prev_byte as usize].encode(&mut enc, data[i] as u32);
                prev_byte = data[i];
                i += 1;
            }
        }
        let payload = enc.finish();
        write_varint(out, payload.len() as u64);
        out.extend_from_slice(&payload);
    }

    fn decompress(&self, buf: &[u8], pos: &mut usize, out: &mut Vec<u8>) -> DecodeResult<()> {
        let n = read_len_bounded(buf, pos, bitpack::MAX_BLOCK_VALUES * 8)?;
        if n == 0 {
            return Ok(());
        }
        let remaining = buf.len().saturating_sub(*pos);
        let plen = read_len_bounded(buf, pos, remaining)?;
        let end = pos.checked_add(plen).ok_or(DecodeError::Truncated)?;
        let payload = buf.get(*pos..end).ok_or(DecodeError::Truncated)?;
        *pos = end;
        let mut model = Model::new();
        let mut dec = RangeDecoder::new(payload)?;
        let start = out.len();
        // `n` is only a claim: reserve no more than the payload's own
        // length, and let a compressible stream grow `out` as it decodes.
        out.reserve(n.min(payload.len()));
        let mut prev_byte = 0u8;
        while out.len() - start < n {
            if dec.decode_bit(&mut model.is_match)? {
                let mlen = model.len.decode(&mut dec)? as usize;
                let mdist = model.dist.decode(&mut dec)? as usize;
                let produced = out.len() - start;
                if mlen < MIN_MATCH || mdist == 0 || mdist > produced {
                    return Err(DecodeError::CountOverflow {
                        claimed: mdist as u64,
                    });
                }
                if mlen > n - produced {
                    return Err(DecodeError::LengthMismatch {
                        expected: n,
                        got: produced.saturating_add(mlen),
                    });
                }
                let from = out.len() - mdist;
                for k in 0..mlen {
                    let b = out.get(from + k).copied().ok_or(DecodeError::Truncated)?;
                    out.push(b);
                }
                prev_byte = out.last().copied().unwrap_or(0);
            } else {
                let tree = model
                    .literals
                    .get_mut(prev_byte as usize)
                    .ok_or(DecodeError::Truncated)?;
                let b = tree.decode(&mut dec)? as u8;
                out.push(b);
                prev_byte = b;
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
        let codec = LzmaLite::new();
        for case in standard_byte_cases() {
            roundtrip_bytes(&codec, &case);
        }
    }

    #[test]
    fn beats_lz4_on_biased_bytes() {
        // Skewed byte distribution with mild repetition: entropy coding
        // should beat pure LZ77.
        let mut x = 99u64;
        let data: Vec<u8> = (0..60_000)
            .map(|_| {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                // Heavily biased: mostly a few symbols.
                match (x >> 60) & 0xF {
                    0..=9 => b'a',
                    10..=12 => b'b',
                    13..=14 => b'c',
                    _ => (x >> 32) as u8,
                }
            })
            .collect();
        let lzma = roundtrip_bytes(&LzmaLite::new(), &data);
        let lz4 = roundtrip_bytes(&crate::Lz4Like::new(), &data);
        assert!(lzma < lz4, "lzma {lzma} vs lz4 {lz4}");
    }

    #[test]
    fn payload_length_past_the_buffer_is_an_error() {
        // varint n = 1, then varint plen = u64::MAX: the payload claim
        // must be refused before any cursor arithmetic on it.
        let hostile = [
            0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01,
        ];
        let mut out = Vec::new();
        assert_eq!(
            LzmaLite::new().decompress(&hostile, &mut 0, &mut out),
            Err(DecodeError::LengthOverrun {
                claimed: u64::MAX,
                bound: 10,
            })
        );
        assert!(out.is_empty());
    }

    #[test]
    fn count_past_what_the_payload_holds_is_an_error() {
        // varint n = 2^27, varint plen = 5, five zero bytes: the range
        // decoder runs out of payload within the first literal, so the
        // frame fails there instead of yielding 128 MiB of zeros.
        let mut hostile = Vec::new();
        write_varint(&mut hostile, 1 << 27);
        write_varint(&mut hostile, 5);
        hostile.extend_from_slice(&[0; 5]);
        assert_eq!(hostile.len(), 10);
        let mut out = Vec::new();
        assert_eq!(
            LzmaLite::new().decompress(&hostile, &mut 0, &mut out),
            Err(DecodeError::Truncated)
        );
        assert!(out.capacity() < 64, "reserved {} bytes", out.capacity());
    }

    #[test]
    fn constant_data_is_tiny() {
        let size = roundtrip_bytes(&LzmaLite::new(), &vec![42u8; 100_000]);
        assert!(size < 600, "got {size}");
    }

    #[test]
    fn adaptive_probabilities_converge() {
        // Alternating pattern should approach ~0 bits per symbol pair.
        let data: Vec<u8> = (0..40_000)
            .map(|i| if i % 2 == 0 { 1 } else { 2 })
            .collect();
        let size = roundtrip_bytes(&LzmaLite::new(), &data);
        assert!(size < 800, "got {size}");
    }

    #[test]
    fn short_inputs() {
        for len in 0..20 {
            let data: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(17)).collect();
            roundtrip_bytes(&LzmaLite::new(), &data);
        }
    }
}
