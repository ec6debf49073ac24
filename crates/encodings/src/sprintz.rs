//! SPRINTZ-style encoding (Blalock, Madden, Guttag — IMWUT 2018).
//!
//! Per block: predict each value from its predecessor (delta prediction —
//! the paper's variant for univariate series), then hand the residual
//! stream to the inner operator. SPRINTZ's signature trick is kept: a
//! block whose residuals are all zero is *not* materialized — consecutive
//! all-zero blocks collapse into one run header, which is what makes
//! SPRINTZ excel on idle sensor periods.
//!
//! Layout: `varint n · blocks…`, each block being
//! `varint tag` where tag = 0: literal block follows (`zigzag first ·
//! operator block(residuals)`), tag = k > 0: k consecutive all-constant
//! blocks (values equal to the running predictor).

use bitpack::error::{DecodeError, DecodeResult};
use bitpack::zigzag::{read_varint, read_varint_i64, write_varint, write_varint_i64};
use bitpack::BlockCodec;

/// Delta-predictive encoding with zero-block skipping.
pub struct SprintzEncoding<P: BlockCodec> {
    packer: P,
    block_size: usize,
}

impl<P: BlockCodec> SprintzEncoding<P> {
    /// Default block size (values per block).
    pub const DEFAULT_BLOCK: usize = 1024;

    /// Creates the encoding with the default block size.
    pub fn new(packer: P) -> Self {
        Self::with_block_size(packer, Self::DEFAULT_BLOCK)
    }

    /// Creates the encoding with a custom block size (≥ 2).
    pub fn with_block_size(packer: P, block_size: usize) -> Self {
        assert!(block_size >= 2);
        Self { packer, block_size }
    }

    /// "SPRINTZ+\<operator\>" label.
    pub fn label(&self) -> String {
        format!("SPRINTZ+{}", self.packer.name())
    }

    /// Encodes the whole series.
    pub fn encode(&self, values: &[i64], out: &mut Vec<u8>) {
        write_varint(out, values.len() as u64);
        if values.is_empty() {
            return;
        }
        let blocks: Vec<&[i64]> = values.chunks(self.block_size).collect();
        let mut prev_last: Option<i64> = None;
        let mut residuals = Vec::with_capacity(self.block_size);
        let mut i = 0;
        while i < blocks.len() {
            // Zero-run detection: a block is "silent" when every value
            // equals the predictor carried in from the previous block.
            if let Some(p) = prev_last {
                let mut run = 0usize;
                while i + run < blocks.len() && blocks[i + run].iter().all(|&v| v == p) {
                    run += 1;
                }
                if run > 0 {
                    write_varint(out, run as u64);
                    i += run;
                    continue;
                }
            }
            let block = blocks[i];
            write_varint(out, 0);
            write_varint_i64(out, block[0]);
            residuals.clear();
            let mut prev = block[0];
            for &v in &block[1..] {
                residuals.push(v.wrapping_sub(prev));
                prev = v;
            }
            self.packer.encode(&residuals, out);
            prev_last = Some(prev);
            i += 1;
        }
    }

    /// Decodes a series produced by [`encode`](Self::encode).
    pub fn decode(&self, buf: &[u8], pos: &mut usize, out: &mut Vec<i64>) -> DecodeResult<()> {
        let n = read_varint(buf, pos)? as usize;
        if n > bitpack::MAX_BLOCK_VALUES {
            return Err(DecodeError::CountOverflow { claimed: n as u64 });
        }
        out.reserve(n);
        let mut produced = 0usize;
        let mut prev_last: Option<i64> = None;
        let mut residuals = Vec::new();
        while produced < n {
            let tag = read_varint(buf, pos)? as usize;
            if tag > 0 {
                // `tag` silent blocks: repeat the carried predictor.
                let p = prev_last.ok_or(DecodeError::Truncated)?;
                for _ in 0..tag {
                    let len = self.block_size.min(n - produced);
                    if len == 0 {
                        return Err(DecodeError::CountOverflow {
                            claimed: tag as u64,
                        });
                    }
                    out.extend(std::iter::repeat_n(p, len));
                    produced += len;
                }
            } else {
                let first = read_varint_i64(buf, pos)?;
                out.push(first);
                produced += 1;
                residuals.clear();
                self.packer.decode(buf, pos, &mut residuals)?;
                if produced + residuals.len() > n {
                    return Err(DecodeError::CountOverflow {
                        claimed: residuals.len() as u64,
                    });
                }
                let mut prev = first;
                for &d in &residuals {
                    prev = prev.wrapping_add(d);
                    out.push(prev);
                }
                produced += residuals.len();
                prev_last = Some(prev);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PackerKind;

    fn roundtrip_kind(values: &[i64], kind: PackerKind, block: usize) -> usize {
        let enc = SprintzEncoding::with_block_size(kind.build(), block);
        let mut buf = Vec::new();
        enc.encode(values, &mut buf);
        let mut pos = 0;
        let mut out = Vec::new();
        enc.decode(&buf, &mut pos, &mut out).expect("decode");
        assert_eq!(out, values, "{} block={block}", enc.label());
        assert_eq!(pos, buf.len());
        buf.len()
    }

    #[test]
    fn roundtrip_all_operators() {
        let values: Vec<i64> = (0..3000)
            .map(|i| 500 + (i % 11) - 5 + if i % 83 == 0 { -90_000 } else { 0 })
            .collect();
        for kind in PackerKind::ALL {
            roundtrip_kind(&values, kind, 1024);
        }
    }

    #[test]
    fn idle_periods_collapse() {
        // Sensor idles at a constant level for long stretches.
        let mut values: Vec<i64> = (0..512).map(|i| i * 3).collect();
        values.extend(vec![*values.last().unwrap(); 100_000]);
        values.extend((0..512).map(|i| 1536 + i));
        let size = roundtrip_kind(&values, PackerKind::Bp, 1024);
        // 100k idle values cost a couple of run headers.
        assert!(size < 1200, "got {size}");
    }

    #[test]
    fn edge_series() {
        for values in [
            vec![],
            vec![9],
            vec![9, 9],
            vec![i64::MIN, i64::MAX],
            vec![3; 4096],
        ] {
            roundtrip_kind(&values, PackerKind::Bp, 1024);
            roundtrip_kind(&values, PackerKind::BosM, 1024);
        }
    }

    #[test]
    fn silent_blocks_at_end_and_middle() {
        let mut values = Vec::new();
        values.extend(0..100i64); // active
        values.extend(vec![99i64; 300]); // silent across blocks
        values.extend(100..200i64); // active again
        values.extend(vec![199i64; 500]); // silent tail
        for block in [64, 100, 128] {
            roundtrip_kind(&values, PackerKind::BosB, block);
        }
    }

    #[test]
    fn partial_last_silent_block() {
        let mut values = vec![1i64; 10];
        values.extend(vec![1i64; 50]); // total 60 constant values, block 32
        roundtrip_kind(&values, PackerKind::Bp, 32);
    }

    #[test]
    fn first_block_constant_is_literal() {
        // No predictor exists before the first block: it must be literal.
        let values = vec![7i64; 2000];
        roundtrip_kind(&values, PackerKind::Bp, 1024);
    }
}
