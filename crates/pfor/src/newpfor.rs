//! NewPFOR / NewPFD (Yan, Ding, Suel — WWW 2009).
//!
//! Unlike classic PFOR, *every* value stores its low `b` bits in place, so
//! no compulsory exceptions exist: an exception only needs its overflow
//! high bits (`v >> b`) patched back in. Exception positions and high bits
//! are stored as two arrays compressed with a Simple-family codec
//! (Simple8b here, standing in for Simple16 — DESIGN.md §2).
//!
//! `b` is chosen by the heuristic the paper attributes to NewPFOR:
//! the smallest width that keeps exceptions at ≤ 10 % of the block.
//!
//! Layout: `varint n · zigzag min · w_full · b · word-packed n×b slot
//! stream (`packed_size(n, b)` bytes, see `bitpack::unrolled`) ·
//! simple8b positions · simple8b high bits`.

use crate::{for_restore, for_transform};
use bitpack::codec::BlockCodec;
use bitpack::error::{DecodeError, DecodeResult};
use bitpack::simple8b;
use bitpack::unrolled::{pack_words_for, unpack_words_for};
use bitpack::width::width;
use bitpack::zigzag::{read_len_bounded, read_varint_i64, write_varint, write_varint_i64};

/// Simple8b payload limit: high bits wider than this cannot be stored, so
/// candidate `b` must satisfy `w_full − b ≤ 60`.
const MAX_HIGH_BITS: u32 = 60;

/// Encodes the shared NewPFD layout with a given slot width. Used by both
/// NewPFOR (heuristic `b`) and OptPFOR (exact `b`).
#[expect(
    clippy::expect_used,
    reason = "encode-side invariants: positions are i < MAX_BLOCK_VALUES < 2^60, and \
              highs v >> b have <= MAX_HIGH_BITS bits"
)]
pub(crate) fn encode_pfd(values: &[i64], b: u32, out: &mut Vec<u8>) {
    debug_assert!(!values.is_empty());
    let min = values.iter().copied().min().unwrap_or(0);
    // One pass finds w_full and the exceptions; the slot stream itself is
    // produced by the fused subtract-mask-pack kernel, which keeps only the
    // low `b` bits of each delta — no shifted vector is materialized.
    let mut w_full = 0u32;
    let mut positions = Vec::new();
    let mut highs = Vec::new();
    for (i, &v) in values.iter().enumerate() {
        let d = v.wrapping_sub(min) as u64;
        let wd = width(d);
        w_full = w_full.max(wd);
        if wd > b {
            positions.push(i as u64);
            highs.push(d >> b);
        }
    }
    debug_assert!(b <= w_full || w_full == 0);
    debug_assert!(w_full.saturating_sub(b) <= MAX_HIGH_BITS);

    write_varint_i64(out, min);
    out.push(w_full as u8);
    out.push(b as u8);
    pack_words_for(values, min, b, out);
    simple8b::encode(&positions, out).expect("positions fit 60 bits");
    simple8b::encode(&highs, out).expect("high bits bounded by MAX_HIGH_BITS");
}

/// Decodes the shared NewPFD layout.
pub(crate) fn decode_pfd(
    buf: &[u8],
    pos: &mut usize,
    n: usize,
    out: &mut Vec<i64>,
) -> DecodeResult<()> {
    let min = read_varint_i64(buf, pos)?;
    let w_full = *buf.get(*pos).ok_or(DecodeError::Truncated)? as u32;
    let b = *buf.get(*pos + 1).ok_or(DecodeError::Truncated)? as u32;
    *pos += 2;
    if w_full > 64 || b > 64 {
        return Err(DecodeError::WidthOverflow {
            width: w_full.max(b),
        });
    }
    let start = out.len();
    let consumed = unpack_words_for(
        buf.get(*pos..).ok_or(DecodeError::Truncated)?,
        n,
        b,
        min,
        out,
    )?;
    *pos += consumed;
    let mut positions = Vec::new();
    simple8b::decode(buf, pos, &mut positions)?;
    let mut highs = Vec::new();
    simple8b::decode(buf, pos, &mut highs)?;
    if positions.len() != highs.len() {
        return Err(DecodeError::LengthMismatch {
            expected: positions.len(),
            got: highs.len(),
        });
    }
    for (&p, &h) in positions.iter().zip(&highs) {
        let i = p as usize;
        // b = 64 slots already hold full values; exceptions there can only
        // come from corrupt input.
        if i >= n || b >= 64 {
            return Err(DecodeError::CountOverflow { claimed: p });
        }
        let slot = out
            .get_mut(start + i)
            .ok_or(DecodeError::CountOverflow { claimed: p })?;
        let low = slot.wrapping_sub(min) as u64;
        *slot = for_restore(min, low | (h << b));
    }
    Ok(())
}

/// Number of values whose width exceeds each candidate `b`, via one
/// histogram pass. `exceeding[b]` is valid for `b ∈ 0..=64`.
pub(crate) fn exceeding_counts(shifted: &[u64]) -> [usize; 65] {
    let mut hist = [0usize; 66];
    for &v in shifted {
        hist[width(v) as usize] += 1;
    }
    let mut exceeding = [0usize; 65];
    let mut acc = 0usize;
    for b in (0..=64usize).rev() {
        acc += hist[b + 1];
        exceeding[b] = acc;
    }
    exceeding
}

/// The NewPFOR codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct NewPforCodec;

impl NewPforCodec {
    /// Creates the codec.
    pub fn new() -> Self {
        Self
    }

    /// Smallest `b` keeping exceptions ≤ 10 % of the block (the paper:
    /// "NewPFOR simply considers top 10 % of values as outliers").
    fn choose_b(shifted: &[u64], w_full: u32) -> u32 {
        let exceeding = exceeding_counts(shifted);
        let limit = shifted.len() / 10;
        let b_min = w_full.saturating_sub(MAX_HIGH_BITS);
        for b in b_min..=w_full {
            if exceeding[b as usize] <= limit {
                return b;
            }
        }
        w_full
    }
}

impl BlockCodec for NewPforCodec {
    fn name(&self) -> &'static str {
        "NEWPFOR"
    }

    fn encode(&self, values: &[i64], out: &mut Vec<u8>) {
        write_varint(out, values.len() as u64);
        if values.is_empty() {
            return;
        }
        let (_, shifted) = for_transform(values);
        let w_full = width(shifted.iter().copied().max().unwrap_or(0));
        let b = Self::choose_b(&shifted, w_full);
        encode_pfd(values, b, out);
    }

    fn decode(&self, buf: &[u8], pos: &mut usize, out: &mut Vec<i64>) -> DecodeResult<()> {
        let n = read_len_bounded(buf, pos, bitpack::MAX_BLOCK_VALUES)?;
        if n == 0 {
            return Ok(());
        }
        decode_pfd(buf, pos, n, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{roundtrip, standard_cases};

    #[test]
    fn roundtrip_standard() {
        let codec = NewPforCodec::new();
        for case in standard_cases() {
            roundtrip(&codec, &case);
        }
    }

    #[test]
    fn ten_percent_heuristic() {
        // 5 % of values are huge: b should shrink to the center width and
        // the block should be much smaller than plain BP.
        let values: Vec<i64> = (0..2000)
            .map(|i| if i % 20 == 0 { 1 << 42 } else { i % 32 })
            .collect();
        let (_, shifted) = for_transform(&values);
        let w_full = width(*shifted.iter().max().unwrap());
        let b = NewPforCodec::choose_b(&shifted, w_full);
        assert!(b <= 6, "b = {b}");
        let np = roundtrip(&NewPforCodec::new(), &values);
        let bp = roundtrip(&crate::BpCodec::new(), &values);
        assert!(np * 3 < bp, "{np} vs {bp}");
    }

    #[test]
    fn too_many_outliers_widen_b() {
        // 50 % wide values: the 10 % rule must pick a wide b.
        let values: Vec<i64> = (0..100)
            .map(|i| if i % 2 == 0 { 1 << 30 } else { 3 })
            .collect();
        let (_, shifted) = for_transform(&values);
        let w_full = width(*shifted.iter().max().unwrap());
        let b = NewPforCodec::choose_b(&shifted, w_full);
        assert_eq!(b, w_full);
        roundtrip(&NewPforCodec::new(), &values);
    }

    #[test]
    fn extreme_width_values() {
        // w_full = 64 forces b ≥ 4 so the high bits fit Simple8b.
        let values = vec![i64::MIN, i64::MAX, 0, 1, 2, 3, 4, 5];
        roundtrip(&NewPforCodec::new(), &values);
    }

    #[test]
    fn truncation_fails_cleanly() {
        let codec = NewPforCodec::new();
        let values: Vec<i64> = (0..300)
            .map(|i| if i % 30 == 0 { 1 << 40 } else { i })
            .collect();
        let mut buf = Vec::new();
        codec.encode(&values, &mut buf);
        for cut in 0..buf.len() {
            let mut pos = 0;
            let mut out = Vec::new();
            assert!(codec.decode(&buf[..cut], &mut pos, &mut out).is_err());
        }
    }
}
