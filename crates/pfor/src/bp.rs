//! Plain frame-of-reference bit-packing — the "BP" operator.
//!
//! This is exactly the baseline of Definition 1: subtract the block
//! minimum, pack every value with `width(xmax − xmin)` bits. It is what
//! RLE/SPRINTZ/TS2DIFF use by default in the paper's experiments
//! ("RLE+BP" etc.).

use bitpack::codec::BlockCodec;
use bitpack::error::{DecodeError, DecodeResult};
use bitpack::kernels::packed_size;
use bitpack::unrolled::{pack_words_for, unpack_words_for};
use bitpack::width::width;
use bitpack::zigzag::{read_len_bounded, read_varint_i64, write_varint, write_varint_i64};

/// Plain bit-packing codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct BpCodec;

impl BpCodec {
    /// Creates the codec.
    pub fn new() -> Self {
        Self
    }
}

impl BlockCodec for BpCodec {
    fn name(&self) -> &'static str {
        "BP"
    }

    fn encode(&self, values: &[i64], out: &mut Vec<u8>) {
        write_varint(out, values.len() as u64);
        if values.is_empty() {
            return;
        }
        // Single min/max pass; the FOR subtraction is fused into the packing
        // kernel, so no shifted vector is ever materialized.
        let mut min = i64::MAX;
        let mut max = i64::MIN;
        for &v in values {
            min = min.min(v);
            max = max.max(v);
        }
        let w = width(max.wrapping_sub(min) as u64);
        write_varint_i64(out, min);
        out.push(w as u8);
        pack_words_for(values, min, w, out);
    }

    fn decode(&self, buf: &[u8], pos: &mut usize, out: &mut Vec<i64>) -> DecodeResult<()> {
        let n = read_len_bounded(buf, pos, bitpack::MAX_BLOCK_VALUES)?;
        if n == 0 {
            return Ok(());
        }
        let min = read_varint_i64(buf, pos)?;
        let w = *buf.get(*pos).ok_or(DecodeError::Truncated)? as u32;
        *pos += 1;
        if w > 64 {
            return Err(DecodeError::WidthOverflow { width: w });
        }
        let consumed = unpack_words_for(
            buf.get(*pos..).ok_or(DecodeError::Truncated)?,
            n,
            w,
            min,
            out,
        )?;
        *pos += consumed;
        debug_assert_eq!(Some(consumed), packed_size(n, w));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{roundtrip, standard_cases};

    #[test]
    fn roundtrip_standard() {
        let codec = BpCodec::new();
        for case in standard_cases() {
            roundtrip(&codec, &case);
        }
    }

    #[test]
    fn constant_block_is_header_only() {
        let codec = BpCodec::new();
        let size = roundtrip(&codec, &vec![123_456; 10_000]);
        // varint n + varint min + width byte, zero payload.
        assert!(size <= 8, "got {size}");
    }

    #[test]
    fn outlier_inflates_size() {
        let codec = BpCodec::new();
        let tight: Vec<i64> = (0..1024).map(|i| i % 8).collect();
        let mut loose = tight.clone();
        loose[7] = 1 << 40;
        let a = roundtrip(&codec, &tight);
        let b = roundtrip(&codec, &loose);
        // One outlier forces 41-bit slots instead of 3-bit ones.
        assert!(b > a * 10, "{b} vs {a}");
    }

    #[test]
    fn truncation_fails_cleanly() {
        let codec = BpCodec::new();
        let mut buf = Vec::new();
        codec.encode(&(0..100).collect::<Vec<i64>>(), &mut buf);
        for cut in 0..buf.len() {
            let mut pos = 0;
            let mut out = Vec::new();
            assert!(codec.decode(&buf[..cut], &mut pos, &mut out).is_err());
        }
    }
}
