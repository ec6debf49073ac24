//! One-call outer × inner pipelines with the paper's method names.
//!
//! A [`Pipeline`] bundles an outer encoding (RLE / TS2DIFF / SPRINTZ) with
//! an inner operator ([`PackerKind`]) and optionally the float scaling of
//! `floatint` module, producing exactly the method grid of
//! Figure 10 ("RLE+BOS-B", "TS2DIFF+FASTPFOR", …).

#![deny(clippy::indexing_slicing)]

use crate::rle::RleEncoding;
use crate::sprintz::SprintzEncoding;
use crate::ts2diff::Ts2DiffEncoding;
use crate::{floatint, PackerKind};
use bitpack::error::{DecodeError, DecodeResult, EncodeError};

/// The outer transform of a pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OuterKind {
    /// Hybrid run-length encoding.
    Rle,
    /// Delta encoding.
    Ts2Diff,
    /// Delta prediction with zero-block skipping.
    Sprintz,
}

impl OuterKind {
    /// All outer encodings in the paper's table order.
    pub const ALL: [OuterKind; 3] = [OuterKind::Rle, OuterKind::Sprintz, OuterKind::Ts2Diff];

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            OuterKind::Rle => "RLE",
            OuterKind::Ts2Diff => "TS2DIFF",
            OuterKind::Sprintz => "SPRINTZ",
        }
    }
}

/// An outer encoding combined with an inner operator, at the outer
/// encoders' default block size.
pub struct Pipeline {
    outer: OuterKind,
    packer_kind: PackerKind,
}

impl Pipeline {
    /// Creates a pipeline.
    pub fn new(outer: OuterKind, packer: PackerKind) -> Self {
        Self {
            outer,
            packer_kind: packer,
        }
    }

    /// "OUTER+OPERATOR" label, e.g. "TS2DIFF+BOS-B".
    pub fn label(&self) -> String {
        format!("{}+{}", self.outer.label(), self.packer_kind.label())
    }

    /// Encodes an integer series.
    pub fn encode(&self, values: &[i64], out: &mut Vec<u8>) {
        let packer = self.packer_kind.build();
        match self.outer {
            OuterKind::Rle => RleEncoding::new(packer).encode(values, out),
            OuterKind::Ts2Diff => Ts2DiffEncoding::new(packer).encode(values, out),
            OuterKind::Sprintz => SprintzEncoding::new(packer).encode(values, out),
        }
    }

    /// Encodes an integer series, fanning TS2DIFF's independent blocks
    /// across up to `threads` worker threads through the shared driver
    /// [`bitpack::codec::encode_blocks_with`]; the output is
    /// byte-identical to [`encode`](Self::encode). An operator panic is
    /// contained there and surfaces as
    /// [`EncodeError::WorkerPanicked`](bitpack::EncodeError) with `out`
    /// exactly as on entry. RLE and SPRINTZ carry cross-block state and
    /// take the sequential path; `threads == 0` counts as one.
    pub fn encode_parallel(
        &self,
        values: &[i64],
        threads: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), EncodeError> {
        if self.outer != OuterKind::Ts2Diff {
            self.encode(values, out);
            return Ok(());
        }
        Ts2DiffEncoding::new(self.packer_kind.build()).encode_parallel(values, threads.max(1), out)
    }

    /// Decodes an integer series.
    pub fn decode(&self, buf: &[u8], pos: &mut usize, out: &mut Vec<i64>) -> DecodeResult<()> {
        let packer = self.packer_kind.build();
        match self.outer {
            OuterKind::Rle => RleEncoding::new(packer.as_ref()).decode(buf, pos, out),
            OuterKind::Ts2Diff => Ts2DiffEncoding::new(packer.as_ref()).decode(buf, pos, out),
            OuterKind::Sprintz => SprintzEncoding::new(packer.as_ref()).decode(buf, pos, out),
        }
    }

    /// Encodes a float series via `×10^p` scaling ([`floatint::scale`]).
    /// The precision byte is stored in the stream. Fails with a typed
    /// [`FloatEncodeError`](floatint::FloatEncodeError) when the series has
    /// no exact decimal scaling or the scaled values overflow `i64`.
    pub fn encode_f64(
        &self,
        values: &[f64],
        out: &mut Vec<u8>,
    ) -> Result<(), floatint::FloatEncodeError> {
        let (p, ints) = floatint::scale(values)?;
        out.push(p as u8);
        self.encode(&ints, out);
        Ok(())
    }

    /// Decodes a float series produced by [`encode_f64`](Self::encode_f64).
    pub fn decode_f64(&self, buf: &[u8], pos: &mut usize, out: &mut Vec<f64>) -> DecodeResult<()> {
        let p = *buf.get(*pos).ok_or(DecodeError::Truncated)? as u32;
        *pos += 1;
        if p > floatint::MAX_PRECISION {
            return Err(DecodeError::BadModeByte { mode: p as u8 });
        }
        let mut ints = Vec::new();
        self.decode(buf, pos, &mut ints)?;
        out.extend(floatint::ints_to_floats(&ints, p));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_grid_roundtrips() {
        let values: Vec<i64> = (0..2500)
            .map(|i| 10_000 + (i % 13) * 7 + if i % 59 == 0 { 80_000 } else { 0 })
            .collect();
        for outer in OuterKind::ALL {
            for packer in PackerKind::ALL {
                let p = Pipeline::new(outer, packer);
                let mut buf = Vec::new();
                p.encode(&values, &mut buf);
                let mut pos = 0;
                let mut out = Vec::new();
                p.decode(&buf, &mut pos, &mut out).expect("decode");
                assert_eq!(out, values, "{}", p.label());
                assert_eq!(pos, buf.len(), "{}", p.label());
            }
        }
    }

    #[test]
    fn parallel_encode_is_byte_identical() {
        let values: Vec<i64> = (0..10_000)
            .map(|i| i * 3 + (i % 11) + if i % 73 == 0 { 40_000 } else { 0 })
            .collect();
        for outer in OuterKind::ALL {
            for packer in PackerKind::ALL {
                let p = Pipeline::new(outer, packer);
                let mut seq = Vec::new();
                p.encode(&values, &mut seq);
                for threads in [1, 2, 3, 7] {
                    let mut par = Vec::new();
                    p.encode_parallel(&values, threads, &mut par)
                        .expect("encode");
                    assert_eq!(par, seq, "{} threads={threads}", p.label());
                }
            }
        }
        // Degenerate inputs: empty, single-value and single-block series.
        let p = Pipeline::new(OuterKind::Ts2Diff, PackerKind::BosB);
        for vals in [vec![], vec![7i64], (0..800).collect::<Vec<_>>()] {
            let mut seq = Vec::new();
            p.encode(&vals, &mut seq);
            let mut par = Vec::new();
            p.encode_parallel(&vals, 4, &mut par).expect("encode");
            assert_eq!(par, seq, "n={}", vals.len());
        }
    }

    #[test]
    fn float_pipeline_roundtrips() {
        // 2-decimal sensor readings.
        let values: Vec<f64> = (0..2000)
            .map(|i| ((i as f64 * 0.07).sin() * 500.0 * 100.0).round() / 100.0)
            .collect();
        let p = Pipeline::new(OuterKind::Ts2Diff, PackerKind::BosB);
        let mut buf = Vec::new();
        p.encode_f64(&values, &mut buf).expect("representable");
        let mut pos = 0;
        let mut out = Vec::new();
        p.decode_f64(&buf, &mut pos, &mut out).expect("decode");
        assert_eq!(out, values);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(
            Pipeline::new(OuterKind::Rle, PackerKind::BosV).label(),
            "RLE+BOS-V"
        );
        assert_eq!(
            Pipeline::new(OuterKind::Ts2Diff, PackerKind::FastPfor).label(),
            "TS2DIFF+FASTPFOR"
        );
        assert_eq!(
            Pipeline::new(OuterKind::Sprintz, PackerKind::Bp).label(),
            "SPRINTZ+BP"
        );
    }

    #[test]
    fn unrepresentable_floats_are_rejected() {
        let p = Pipeline::new(OuterKind::Ts2Diff, PackerKind::Bp);
        let mut buf = Vec::new();
        assert_eq!(
            p.encode_f64(&[std::f64::consts::E], &mut buf),
            Err(floatint::FloatEncodeError::NoExactScaling)
        );
        assert!(buf.is_empty(), "failed encode must not emit bytes");
    }
}
