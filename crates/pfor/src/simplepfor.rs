//! SimplePFOR (Lemire & Boytsov — Software: Practice & Experience 2015).
//!
//! FastPFOR's sibling: instead of classifying exception high bits into
//! per-width pages, SimplePFOR "compresses them together using Simple-8b"
//! (paper §II-C). Same sub-block structure and width selection as
//! FastPFOR, one shared Simple8b stream for all exception high bits.
//!
//! Format v2 layout (word-packed):
//! `varint n · u8 version(2) · zigzag min ·
//! per sub-block [u8 b · u8 n_exc · n_exc position bytes · word-packed
//! len×b slot stream] · simple8b(all high bits, in stream order)`.
//! Slot streams are byte-aligned and go through the fused
//! frame-of-reference lane kernels (`pack_words_for`, which masks each
//! delta to its low `b` bits); Simple8b was already word-aligned. Any
//! other version byte is rejected with [`DecodeError::BadModeByte`].

use crate::{for_restore, for_transform, FORMAT_V2};
use bitpack::codec::BlockCodec;
use bitpack::error::{DecodeError, DecodeResult};
use bitpack::simple8b;
use bitpack::unrolled::{pack_words_for, unpack_words_for};
use bitpack::width::width;
use bitpack::zigzag::{read_len_bounded, read_varint_i64, write_varint, write_varint_i64};

/// Values per sub-block, as in FastPFOR.
pub const SUB_BLOCK: usize = 128;

/// Simple8b payload limit: high bits wider than 60 cannot be stored, so
/// the chosen `b` must satisfy `maxbits − b ≤ 60`.
const MAX_HIGH_BITS: u32 = 60;

/// The SimplePFOR codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimplePforCodec;

impl SimplePforCodec {
    /// Creates the codec.
    pub fn new() -> Self {
        Self
    }

    /// Cost-minimizing slot width for one sub-block (same estimator as
    /// FastPFOR, restricted so the high bits fit Simple8b).
    fn choose_b(block: &[u64]) -> u32 {
        let maxbits = block.iter().map(|&v| width(v)).max().unwrap_or(0);
        let mut hist = [0usize; 66];
        for &v in block {
            hist[width(v) as usize] += 1;
        }
        let b_min = maxbits.saturating_sub(MAX_HIGH_BITS);
        let mut best_b = maxbits;
        let mut best_cost = block.len() as u64 * maxbits as u64;
        let mut exceeding = 0usize;
        for b in (0..maxbits).rev() {
            exceeding += hist[b as usize + 1];
            if b < b_min {
                break;
            }
            let cost =
                block.len() as u64 * b as u64 + exceeding as u64 * ((maxbits - b) as u64 + 8);
            if cost < best_cost {
                best_cost = cost;
                best_b = b;
            }
        }
        best_b
    }
}

impl BlockCodec for SimplePforCodec {
    fn name(&self) -> &'static str {
        "SIMPLEPFOR"
    }

    #[expect(
        clippy::expect_used,
        reason = "encode-side invariant: highs are (v >> b) < 2^60"
    )]
    fn encode(&self, values: &[i64], out: &mut Vec<u8>) {
        write_varint(out, values.len() as u64);
        if values.is_empty() {
            return;
        }
        out.push(FORMAT_V2);
        let (min, shifted) = for_transform(values);
        write_varint_i64(out, min);
        let mut highs = Vec::new();
        // `values` and `shifted` chunk in lockstep: widths and exception
        // high bits come from the shifted block, the slot stream from the
        // fused subtract-mask-pack kernel over the raw block.
        for (vblock, sblock) in values.chunks(SUB_BLOCK).zip(shifted.chunks(SUB_BLOCK)) {
            let b = Self::choose_b(sblock);
            out.push(b as u8);
            let exc_at = out.len();
            out.push(0);
            let mut n_exc = 0u8;
            for (i, &v) in sblock.iter().enumerate() {
                if width(v) > b {
                    out.push(i as u8);
                    n_exc += 1;
                    highs.push(v >> b);
                }
            }
            out[exc_at] = n_exc;
            pack_words_for(vblock, min, b, out);
        }
        simple8b::encode(&highs, out).expect("high bits bounded by 60");
    }

    fn decode(&self, buf: &[u8], pos: &mut usize, out: &mut Vec<i64>) -> DecodeResult<()> {
        let n = read_len_bounded(buf, pos, bitpack::MAX_BLOCK_VALUES)?;
        if n == 0 {
            return Ok(());
        }
        let ver = *buf.get(*pos).ok_or(DecodeError::Truncated)?;
        *pos += 1;
        if ver != FORMAT_V2 {
            return Err(DecodeError::BadModeByte { mode: ver });
        }
        let min = read_varint_i64(buf, pos)?;
        let start = out.len();
        out.reserve(n);
        let mut pending: Vec<(usize, u32)> = Vec::new(); // (global index, b)
        let mut remaining = n;
        let mut base = 0usize;
        while remaining > 0 {
            let len = remaining.min(SUB_BLOCK);
            let b = *buf.get(*pos).ok_or(DecodeError::Truncated)? as u32;
            let n_exc = *buf.get(*pos + 1).ok_or(DecodeError::Truncated)? as usize;
            *pos += 2;
            if b > 64 {
                return Err(DecodeError::WidthOverflow { width: b });
            }
            if n_exc > len {
                return Err(DecodeError::CountOverflow {
                    claimed: n_exc as u64,
                });
            }
            for _ in 0..n_exc {
                let p = *buf.get(*pos).ok_or(DecodeError::Truncated)? as usize;
                *pos += 1;
                if p >= len || b >= 64 {
                    return Err(DecodeError::CountOverflow { claimed: p as u64 });
                }
                pending.push((base + p, b));
            }
            let consumed = unpack_words_for(
                buf.get(*pos..).ok_or(DecodeError::Truncated)?,
                len,
                b,
                min,
                out,
            )?;
            *pos += consumed;
            base += len;
            remaining -= len;
        }
        let mut highs = Vec::new();
        simple8b::decode(buf, pos, &mut highs)?;
        if highs.len() != pending.len() {
            return Err(DecodeError::LengthMismatch {
                expected: pending.len(),
                got: highs.len(),
            });
        }
        for ((idx, b), h) in pending.into_iter().zip(highs) {
            let slot = out.get_mut(start + idx).ok_or(DecodeError::CountOverflow {
                claimed: idx as u64,
            })?;
            let low = slot.wrapping_sub(min) as u64;
            *slot = for_restore(min, low | (h << b));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{roundtrip, standard_cases};
    use crate::{BpCodec, FastPforCodec};

    #[test]
    fn roundtrip_standard() {
        let codec = SimplePforCodec::new();
        for case in standard_cases() {
            roundtrip(&codec, &case);
        }
    }

    #[test]
    fn beats_bp_on_outliers() {
        let values: Vec<i64> = (0..4096)
            .map(|i| if i % 60 == 0 { 1 << 41 } else { i % 11 })
            .collect();
        let sp = roundtrip(&SimplePforCodec::new(), &values);
        let bp = roundtrip(&BpCodec::new(), &values);
        assert!(sp * 3 < bp, "{sp} vs {bp}");
    }

    #[test]
    fn close_to_fastpfor() {
        // Same architecture, different exception storage: sizes should be
        // within ~30 % of each other on mixed data.
        let values: Vec<i64> = (0..4096)
            .map(|i| if i % 45 == 0 { (1 << 38) + i } else { i % 200 })
            .collect();
        let sp = roundtrip(&SimplePforCodec::new(), &values) as f64;
        let fp = roundtrip(&FastPforCodec::new(), &values) as f64;
        assert!(sp < fp * 1.3 && fp < sp * 1.3, "{sp} vs {fp}");
    }

    #[test]
    fn exceptions_across_multiple_blocks() {
        let mut values = Vec::new();
        for b in 0..5i64 {
            for i in 0..SUB_BLOCK as i64 {
                values.push(if i == b * 20 { 1 << (30 + b) } else { i % 9 });
            }
        }
        roundtrip(&SimplePforCodec::new(), &values);
    }

    #[test]
    fn truncation_fails_cleanly() {
        let codec = SimplePforCodec::new();
        let values: Vec<i64> = (0..300)
            .map(|i| if i % 29 == 0 { 1 << 33 } else { i % 7 })
            .collect();
        let mut buf = Vec::new();
        codec.encode(&values, &mut buf);
        for cut in 0..buf.len() {
            let mut pos = 0;
            let mut out = Vec::new();
            assert!(codec.decode(&buf[..cut], &mut pos, &mut out).is_err());
        }
    }

    #[test]
    fn extreme_domain() {
        roundtrip(&SimplePforCodec::new(), &[i64::MIN, i64::MAX, 0, -1, 1]);
    }
}
