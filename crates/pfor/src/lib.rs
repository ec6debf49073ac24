//! Patched frame-of-reference (PFOR) baselines.
//!
//! The paper compares BOS against the PFOR family, which also separates
//! (upper) outliers from bit-packed blocks:
//!
//! * [`pfor::PforCodec`] — the original PFOR (Zukowski et al., ICDE 2006):
//!   exceptions left uncompressed, positions chained through the packed
//!   slots, *compulsory* exceptions when the chain cannot reach.
//! * [`newpfor::NewPforCodec`] — NewPFD (Yan, Ding, Suel, WWW 2009): low
//!   `b` bits stored in place (no compulsory exceptions), exception high
//!   bits + positions compressed with a Simple-family codec, `b` chosen by
//!   the "top 10 % are outliers" heuristic.
//! * [`optpfor::OptPforCodec`] — OptPFD: same layout, `b` chosen per block
//!   by exhaustively minimizing the actual encoded size.
//! * [`fastpfor::FastPforCodec`] — FastPFOR (Lemire & Boytsov, 2015):
//!   exception high bits grouped into per-width pages.
//! * [`simplepfor::SimplePforCodec`] — SimplePFOR: FastPFOR's sibling with
//!   one shared Simple8b exception stream.
//! * [`bp::BpCodec`] — plain frame-of-reference bit-packing, the "BP"
//!   operator of the experiments.
//!
//! All codecs accept `i64` values: a frame-of-reference transform
//! (subtracting the block minimum) maps them to `u64` first, which also
//! handles negative deltas without zigzag. All streams are self-describing
//! and length-prefixed, and decoders fail (return
//! `Err(bitpack::DecodeError)`) instead of panicking on corrupt input.
//!
//! Every PFOR-family codec emits the word-packed format v2
//! ([`FORMAT_V2`]) driven by the `bitpack::unrolled` lane kernels.
//!
//! Every codec here implements the workspace-wide
//! [`bitpack::BlockCodec`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod bp;
pub mod fastpfor;
pub mod newpfor;
pub mod optpfor;
pub mod pfor;
pub mod simplepfor;

pub use bp::BpCodec;
pub use fastpfor::FastPforCodec;
pub use newpfor::NewPforCodec;
pub use optpfor::OptPforCodec;
pub use pfor::PforCodec;
pub use simplepfor::SimplePforCodec;

/// Format version byte written after `varint n` by the PFOR, FastPFOR
/// and SimplePFOR layouts. Decoders reject any other value with
/// [`DecodeError::BadModeByte`](bitpack::DecodeError::BadModeByte).
pub const FORMAT_V2: u8 = 2;

/// Frame-of-reference transform: `(min, values − min)`.
///
/// The subtraction is exact over the whole `i64` domain (wrapping cast to
/// `u64`). An empty slice has no minimum; it maps to `(0, [])` so callers
/// that already wrote their `varint 0` count need no separate guard.
pub(crate) fn for_transform(values: &[i64]) -> (i64, Vec<u64>) {
    let Some(min) = values.iter().copied().min() else {
        return (0, Vec::new());
    };
    let shifted = values.iter().map(|&v| v.wrapping_sub(min) as u64).collect();
    (min, shifted)
}

/// Inverse of [`for_transform`] for one value.
#[inline]
pub(crate) fn for_restore(min: i64, v: u64) -> i64 {
    min.wrapping_add(v as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_transform_empty_slice_is_explicit() {
        // Regression: this used to `.expect("non-empty")` and panic.
        assert_eq!(for_transform(&[]), (0, Vec::new()));
    }

    #[test]
    fn for_transform_roundtrips_via_restore() {
        let values = [i64::MIN, -5, 0, 7, i64::MAX];
        let (min, shifted) = for_transform(&values);
        let back: Vec<i64> = shifted.iter().map(|&v| for_restore(min, v)).collect();
        assert_eq!(back, values);
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use bitpack::BlockCodec;

    /// Encodes, decodes, checks equality, returns the encoded size.
    pub fn roundtrip<C: BlockCodec>(codec: &C, values: &[i64]) -> usize {
        let mut buf = Vec::new();
        codec.encode(values, &mut buf);
        let mut pos = 0;
        let mut out = Vec::new();
        codec
            .decode(&buf, &mut pos, &mut out)
            .unwrap_or_else(|e| panic!("{} failed to decode: {e}", codec.name()));
        assert_eq!(out, values, "{} roundtrip mismatch", codec.name());
        assert_eq!(pos, buf.len(), "{} trailing bytes", codec.name());
        buf.len()
    }

    /// A standard battery of adversarial blocks.
    pub fn standard_cases() -> Vec<Vec<i64>> {
        vec![
            vec![],
            vec![0],
            vec![42; 100],
            vec![3, 2, 4, 5, 3, 2, 0, 8],
            (0..1000).collect(),
            (0..1000).map(|i| i % 7).collect(),
            (0..500)
                .map(|i| if i % 31 == 0 { 1 << 45 } else { i % 13 })
                .collect(),
            vec![i64::MIN, 0, i64::MAX],
            vec![i64::MIN; 10],
            (0..300).map(|i| -i * 1_000_003).collect(),
            (0..129).collect(), // one past a 128 block boundary
            (0..128).collect(),
            (0..127).collect(),
        ]
    }
}
