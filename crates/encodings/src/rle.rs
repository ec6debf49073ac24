//! Hybrid run-length encoding (the RLE of the paper's experiments).
//!
//! Like IoTDB's RLE and Parquet's RLE/bit-packed hybrid, the series is
//! split into *runs* (a value repeated at least [`MIN_RUN`] times) and
//! *literal stretches* in between. Runs store `(length, value)` directly;
//! literal stretches are handed to the inner bit-packing operator — which
//! is exactly where "+BOS" plugs in.
//!
//! Layout: `varint n · varint n_segments · segments…`, each segment being
//! `varint (len << 1 | is_run)` followed by `zigzag value` for runs or an
//! operator block for literals.

#![deny(clippy::indexing_slicing)]

use bitpack::error::{DecodeError, DecodeResult};
use bitpack::zigzag::{read_varint, read_varint_i64, write_varint, write_varint_i64};
use bitpack::BlockCodec;

/// Minimum repetition count that becomes a run segment. Shorter
/// repetitions stay in literal stretches (a run header costs ~3–11 bytes).
pub const MIN_RUN: usize = 8;

/// Hybrid RLE over an inner operator.
pub struct RleEncoding<P: BlockCodec> {
    packer: P,
    max_literal: usize,
}

impl<P: BlockCodec> RleEncoding<P> {
    /// Default cap on literal stretch length (one operator block).
    pub const DEFAULT_BLOCK: usize = 1024;

    /// Creates the encoding with the default literal block size.
    pub fn new(packer: P) -> Self {
        Self::with_block_size(packer, Self::DEFAULT_BLOCK)
    }

    /// Creates the encoding with a custom literal block size (≥ MIN_RUN).
    pub fn with_block_size(packer: P, max_literal: usize) -> Self {
        assert!(max_literal >= MIN_RUN);
        Self {
            packer,
            max_literal,
        }
    }

    /// "RLE+\<operator\>" label.
    pub fn label(&self) -> String {
        format!("RLE+{}", self.packer.name())
    }

    /// Encodes the whole series.
    pub fn encode(&self, values: &[i64], out: &mut Vec<u8>) {
        write_varint(out, values.len() as u64);
        if values.is_empty() {
            return;
        }
        // Segment the series.
        let mut segments: Vec<(usize, usize, bool)> = Vec::new(); // (start, len, is_run)
        let mut i = 0;
        let mut literal_start = 0;
        while let Some(&v) = values.get(i) {
            let run_start = i;
            while values.get(i) == Some(&v) {
                i += 1;
            }
            let run_len = i - run_start;
            if run_len >= MIN_RUN {
                if run_start > literal_start {
                    push_literals(
                        &mut segments,
                        literal_start,
                        run_start - literal_start,
                        self.max_literal,
                    );
                }
                segments.push((run_start, run_len, true));
                literal_start = i;
            }
        }
        if values.len() > literal_start {
            push_literals(
                &mut segments,
                literal_start,
                values.len() - literal_start,
                self.max_literal,
            );
        }

        write_varint(out, segments.len() as u64);
        for &(start, len, is_run) in &segments {
            write_varint(out, ((len as u64) << 1) | is_run as u64);
            if is_run {
                write_varint_i64(out, values.get(start).copied().unwrap_or(0));
            } else {
                self.packer
                    .encode(values.get(start..start + len).unwrap_or(&[]), out);
            }
        }
    }

    /// Decodes a series produced by [`encode`](Self::encode).
    pub fn decode(&self, buf: &[u8], pos: &mut usize, out: &mut Vec<i64>) -> DecodeResult<()> {
        let n = read_varint(buf, pos)? as usize;
        if n > bitpack::MAX_BLOCK_VALUES {
            return Err(DecodeError::CountOverflow { claimed: n as u64 });
        }
        if n == 0 {
            return Ok(());
        }
        let n_segments = read_varint(buf, pos)? as usize;
        if n_segments > n {
            return Err(DecodeError::CountOverflow {
                claimed: n_segments as u64,
            });
        }
        out.reserve(n);
        let mut produced = 0usize;
        for _ in 0..n_segments {
            let head = read_varint(buf, pos)?;
            let len = (head >> 1) as usize;
            let is_run = head & 1 == 1;
            if produced + len > n {
                return Err(DecodeError::CountOverflow {
                    claimed: len as u64,
                });
            }
            if is_run {
                let v = read_varint_i64(buf, pos)?;
                out.extend(std::iter::repeat_n(v, len));
            } else {
                let before = out.len();
                self.packer.decode(buf, pos, out)?;
                if out.len() - before != len {
                    return Err(DecodeError::LengthMismatch {
                        expected: len,
                        got: out.len() - before,
                    });
                }
            }
            produced += len;
        }
        if produced != n {
            return Err(DecodeError::LengthMismatch {
                expected: n,
                got: produced,
            });
        }
        Ok(())
    }
}

/// Splits a literal stretch into operator-block-sized segments.
fn push_literals(
    segments: &mut Vec<(usize, usize, bool)>,
    start: usize,
    len: usize,
    max_literal: usize,
) {
    let mut offset = 0;
    while offset < len {
        let chunk = (len - offset).min(max_literal);
        segments.push((start + offset, chunk, false));
        offset += chunk;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PackerKind;

    fn roundtrip_kind(values: &[i64], kind: PackerKind) -> usize {
        let enc = RleEncoding::new(kind.build());
        let mut buf = Vec::new();
        enc.encode(values, &mut buf);
        let mut pos = 0;
        let mut out = Vec::new();
        enc.decode(&buf, &mut pos, &mut out).expect("decode");
        assert_eq!(out, values, "{}", enc.label());
        assert_eq!(pos, buf.len());
        buf.len()
    }

    #[test]
    fn roundtrip_all_operators() {
        let values: Vec<i64> = (0..3000)
            .map(|i| match (i / 100) % 3 {
                0 => 7,      // runs
                1 => i % 50, // literals
                _ => i % 50 + if i % 33 == 0 { 100_000 } else { 0 },
            })
            .collect();
        for kind in PackerKind::ALL {
            roundtrip_kind(&values, kind);
        }
    }

    #[test]
    fn pure_runs_are_tiny() {
        let mut values = vec![5i64; 4000];
        values.extend(vec![-3i64; 4000]);
        let size = roundtrip_kind(&values, PackerKind::Bp);
        assert!(size < 32, "got {size}");
    }

    #[test]
    fn edge_series() {
        for values in [
            vec![],
            vec![1],
            vec![1; 7], // below MIN_RUN
            vec![1; 8], // exactly MIN_RUN
            vec![i64::MIN; 100],
            (0..100).collect::<Vec<i64>>(), // no runs at all
        ] {
            roundtrip_kind(&values, PackerKind::Bp);
            roundtrip_kind(&values, PackerKind::BosB);
        }
    }

    #[test]
    fn run_literal_boundaries() {
        // run / literal / run / literal tail
        let mut values = vec![9i64; 20];
        values.extend(0..15);
        values.extend(vec![-4i64; 30]);
        values.extend(100..103);
        roundtrip_kind(&values, PackerKind::BosB);
    }

    #[test]
    fn literal_stretches_longer_than_block() {
        let values: Vec<i64> = (0..5000).map(|i| i % 997).collect();
        roundtrip_kind(&values, PackerKind::NewPfor);
    }

    #[test]
    fn outliers_in_literals_favor_bos() {
        let values: Vec<i64> = (0..8000)
            .map(|i| {
                if i % 40 < 12 {
                    3 // short repeats, below run threshold sometimes
                } else if i % 71 == 0 {
                    1 << 39
                } else if i % 73 == 0 {
                    -(1 << 39)
                } else {
                    i % 30
                }
            })
            .collect();
        let bp = roundtrip_kind(&values, PackerKind::Bp);
        let bos = roundtrip_kind(&values, PackerKind::BosB);
        assert!(bos * 2 < bp, "bos {bos} vs bp {bp}");
    }
}
