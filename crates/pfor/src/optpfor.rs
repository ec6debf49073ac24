//! OptPFOR / OptPFD — NewPFD's layout with an exact width choice.
//!
//! The only difference from [`NewPforCodec`](crate::NewPforCodec) is how
//! `b` is picked: OptPFOR encodes the block for *every* feasible `b` and
//! keeps the smallest result. That makes it the slowest of the PFOR
//! baselines (clearly visible in the paper's Figure 10c) but the best of
//! them ratio-wise on most datasets (Figure 10a).

use crate::for_transform;
use crate::newpfor::{decode_pfd, encode_pfd, exceeding_counts};
use bitpack::codec::BlockCodec;
use bitpack::error::DecodeResult;
use bitpack::width::width;
use bitpack::zigzag::{read_len_bounded, write_varint};

/// Simple8b payload limit for exception high bits (see `newpfor`).
const MAX_HIGH_BITS: u32 = 60;

/// The OptPFD codec: per-block exhaustive width optimization.
#[derive(Debug, Clone, Copy, Default)]
pub struct OptPforCodec;

impl OptPforCodec {
    /// Creates the codec.
    pub fn new() -> Self {
        Self
    }
}

impl BlockCodec for OptPforCodec {
    fn name(&self) -> &'static str {
        "OPTPFOR"
    }

    fn encode(&self, values: &[i64], out: &mut Vec<u8>) {
        write_varint(out, values.len() as u64);
        if values.is_empty() {
            return;
        }
        let (_, shifted) = for_transform(values);
        let w_full = width(shifted.iter().copied().max().unwrap_or(0));
        let exceeding = exceeding_counts(&shifted);
        let b_min = w_full.saturating_sub(MAX_HIGH_BITS);

        let mut best: Option<Vec<u8>> = None;
        let mut scratch = Vec::new();
        for b in b_min..=w_full {
            // Cheap lower bound prunes hopeless candidates before the real
            // encode: slot bits plus one 64-bit Simple8b word per 240
            // exceptions is always exceeded by the actual size.
            if let Some(best_buf) = &best {
                let lower_bound_bytes = (values.len() * b as usize) / 8;
                if lower_bound_bytes > best_buf.len() {
                    continue;
                }
            }
            let _ = exceeding; // counts retained for documentation/debugging
            scratch.clear();
            encode_pfd(values, b, &mut scratch);
            if best.as_ref().is_none_or(|bb| scratch.len() < bb.len()) {
                best = Some(scratch.clone());
            }
        }
        out.extend_from_slice(&best.unwrap_or_default());
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
    use crate::{BpCodec, NewPforCodec};

    #[test]
    fn roundtrip_standard() {
        let codec = OptPforCodec::new();
        for case in standard_cases() {
            roundtrip(&codec, &case);
        }
    }

    #[test]
    fn never_larger_than_newpfor() {
        // OptPFOR explores every b, so it can only match or beat the 10 %
        // heuristic (identical layout).
        let cases: Vec<Vec<i64>> = vec![
            (0..2000)
                .map(|i| if i % 20 == 0 { 1 << 42 } else { i % 32 })
                .collect(),
            (0..512)
                .map(|i| if i % 3 == 0 { 1 << 20 } else { i % 8 })
                .collect(),
            (0..100).collect(),
            vec![5; 100],
        ];
        for values in cases {
            let opt = roundtrip(&OptPforCodec::new(), &values);
            let new = roundtrip(&NewPforCodec::new(), &values);
            assert!(opt <= new, "opt {opt} > new {new}");
        }
    }

    #[test]
    fn beats_bp_on_outliers() {
        let values: Vec<i64> = (0..4096)
            .map(|i| if i % 64 == 0 { 1 << 39 } else { i % 10 })
            .collect();
        let opt = roundtrip(&OptPforCodec::new(), &values);
        let bp = roundtrip(&BpCodec::new(), &values);
        assert!(opt * 3 < bp);
    }

    #[test]
    fn interoperable_with_newpfor_decoder() {
        // Same wire layout: NewPFOR's decoder must read OptPFOR blocks.
        let values: Vec<i64> = (0..700)
            .map(|i| if i % 9 == 0 { 1 << 33 } else { i })
            .collect();
        let mut buf = Vec::new();
        OptPforCodec::new().encode(&values, &mut buf);
        let mut pos = 0;
        let mut out = Vec::new();
        NewPforCodec::new()
            .decode(&buf, &mut pos, &mut out)
            .unwrap();
        assert_eq!(out, values);
    }
}
