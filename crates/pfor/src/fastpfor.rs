//! FastPFOR (Lemire & Boytsov — Software: Practice & Experience 2015).
//!
//! Works in sub-blocks of 128 values. Each sub-block picks a slot width
//! `b` by cost minimization; exception *high bits* (`v >> b`) are not kept
//! per block but appended to shared per-width buffers ("FastPFOR
//! classifies outliers according to the length of their high bits"), which
//! are packed once at the end of the stream. Exception positions are
//! single bytes (< 128).
//!
//! Format v2 layout (word-packed):
//! `varint n · u8 version(2) · zigzag min ·
//!  per sub-block [u8 b · u8 maxbits · u8 n_exc · n_exc position bytes ·
//!                 word-packed len×b slot stream] ·
//!  per width w ∈ 1..=64 with data [u8 w · varint count · word-packed
//!                 count×w page] ·
//!  u8 0 terminator`.
//! Every sub-stream is byte-aligned: slot streams go through the fused
//! frame-of-reference lane kernels (`pack_words_for`, which masks each
//! delta to its low `b` bits), exception pages through
//! `pack_words_unrolled`. Any other version byte is rejected with
//! [`DecodeError::BadModeByte`].

use crate::{for_restore, for_transform, FORMAT_V2};
use bitpack::codec::BlockCodec;
use bitpack::error::{DecodeError, DecodeResult};
use bitpack::unrolled::{
    pack_words_for, pack_words_unrolled, unpack_words_for, unpack_words_unrolled,
};
use bitpack::width::width;
use bitpack::zigzag::{read_len_bounded, read_varint_i64, write_varint, write_varint_i64};

/// Values per sub-block, as in the original.
pub const SUB_BLOCK: usize = 128;

/// The FastPFOR codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastPforCodec;

impl FastPforCodec {
    /// Creates the codec.
    pub fn new() -> Self {
        Self
    }

    /// Cost-minimizing slot width for one sub-block: slot bits + per
    /// exception (high bits + one position byte).
    fn choose_b(block: &[u64]) -> (u32, u32) {
        let maxbits = block.iter().map(|&v| width(v)).max().unwrap_or(0);
        let mut hist = [0usize; 66];
        for &v in block {
            hist[width(v) as usize] += 1;
        }
        let mut best_b = maxbits;
        let mut best_cost = block.len() as u64 * maxbits as u64;
        let mut exceeding = 0usize;
        for b in (0..maxbits).rev() {
            exceeding += hist[b as usize + 1];
            let cost =
                block.len() as u64 * b as u64 + exceeding as u64 * ((maxbits - b) as u64 + 8);
            if cost < best_cost {
                best_cost = cost;
                best_b = b;
            }
        }
        (best_b, maxbits)
    }
}

impl BlockCodec for FastPforCodec {
    fn name(&self) -> &'static str {
        "FASTPFOR"
    }

    fn encode(&self, values: &[i64], out: &mut Vec<u8>) {
        write_varint(out, values.len() as u64);
        if values.is_empty() {
            return;
        }
        out.push(FORMAT_V2);
        let (min, shifted) = for_transform(values);
        write_varint_i64(out, min);

        // Per-width exception buffers shared by all sub-blocks.
        let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); 65];

        // `values` and `shifted` chunk in lockstep: widths and exception
        // high bits come from the shifted block, the slot stream from the
        // fused subtract-mask-pack kernel over the raw block.
        for (vblock, sblock) in values.chunks(SUB_BLOCK).zip(shifted.chunks(SUB_BLOCK)) {
            let (b, maxbits) = Self::choose_b(sblock);
            out.push(b as u8);
            out.push(maxbits as u8);
            let exc_at = out.len();
            out.push(0); // n_exc patched below
            let mut n_exc = 0u8;
            for (i, &v) in sblock.iter().enumerate() {
                if width(v) > b {
                    out.push(i as u8);
                    n_exc += 1;
                    buckets[(maxbits - b) as usize].push(v >> b);
                }
            }
            out[exc_at] = n_exc;
            pack_words_for(vblock, min, b, out);
        }

        // Exception pages: one per populated width.
        for (w, bucket) in buckets.iter().enumerate().skip(1) {
            if bucket.is_empty() {
                continue;
            }
            out.push(w as u8);
            write_varint(out, bucket.len() as u64);
            pack_words_unrolled(bucket, w as u32, out);
        }
        out.push(0); // terminator
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

        // (global index, shift b, width of high bits) per exception, in
        // stream order.
        let mut pending: Vec<(usize, u32, u32)> = Vec::new();
        let mut remaining = n;
        let mut base = 0usize;
        while remaining > 0 {
            let len = remaining.min(SUB_BLOCK);
            let b = *buf.get(*pos).ok_or(DecodeError::Truncated)? as u32;
            let maxbits = *buf.get(*pos + 1).ok_or(DecodeError::Truncated)? as u32;
            let n_exc = *buf.get(*pos + 2).ok_or(DecodeError::Truncated)? as usize;
            *pos += 3;
            if b > 64 || maxbits > 64 {
                return Err(DecodeError::WidthOverflow {
                    width: b.max(maxbits),
                });
            }
            if maxbits < b || n_exc > len {
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
                pending.push((base + p, b, maxbits - b));
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

        // Exception pages into per-width queues.
        let mut queues: Vec<std::collections::VecDeque<u64>> =
            (0..65).map(|_| std::collections::VecDeque::new()).collect();
        loop {
            let w = *buf.get(*pos).ok_or(DecodeError::Truncated)? as usize;
            *pos += 1;
            if w == 0 {
                break;
            }
            if w > 64 {
                return Err(DecodeError::WidthOverflow { width: w as u32 });
            }
            let count = read_len_bounded(buf, pos, n)?;
            let mut page = Vec::with_capacity(count);
            let consumed = unpack_words_unrolled(
                buf.get(*pos..).ok_or(DecodeError::Truncated)?,
                count,
                w as u32,
                &mut page,
            )?;
            *pos += consumed;
            let queue = queues
                .get_mut(w)
                .ok_or(DecodeError::WidthOverflow { width: w as u32 })?;
            queue.extend(page);
        }

        // Patch in stream order: each exception pops from its width queue.
        for (idx, b, w) in pending {
            let h = queues
                .get_mut(w as usize)
                .and_then(|q| q.pop_front())
                .ok_or(DecodeError::Truncated)?;
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
    use crate::BpCodec;

    #[test]
    fn roundtrip_standard() {
        let codec = FastPforCodec::new();
        for case in standard_cases() {
            roundtrip(&codec, &case);
        }
    }

    #[test]
    fn beats_bp_on_outliers() {
        let values: Vec<i64> = (0..4096)
            .map(|i| if i % 50 == 0 { (1 << 44) + i } else { i % 12 })
            .collect();
        let fp = roundtrip(&FastPforCodec::new(), &values);
        let bp = roundtrip(&BpCodec::new(), &values);
        assert!(fp * 3 < bp, "{fp} vs {bp}");
    }

    #[test]
    fn mixed_width_blocks_share_buckets() {
        // Different sub-blocks produce exceptions of different high-bit
        // widths, exercising multiple pages.
        let mut values = Vec::new();
        for i in 0..SUB_BLOCK as i64 {
            values.push(if i == 3 { 1 << 20 } else { i % 4 });
        }
        for i in 0..SUB_BLOCK as i64 {
            values.push(if i == 60 { 1 << 50 } else { i % 4 });
        }
        for i in 0..40i64 {
            values.push(if i == 10 { 1 << 35 } else { i % 4 });
        }
        roundtrip(&FastPforCodec::new(), &values);
    }

    #[test]
    fn exceptions_in_partial_tail_block() {
        let mut values: Vec<i64> = (0..SUB_BLOCK as i64 + 5).map(|i| i % 3).collect();
        let n = values.len();
        values[n - 1] = 1 << 30;
        roundtrip(&FastPforCodec::new(), &values);
    }

    #[test]
    fn truncation_fails_cleanly() {
        let codec = FastPforCodec::new();
        let values: Vec<i64> = (0..400)
            .map(|i| if i % 37 == 0 { 1 << 41 } else { i % 9 })
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
