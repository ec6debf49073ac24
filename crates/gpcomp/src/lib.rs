//! General-purpose comparators for the Figure 13 experiment.
//!
//! BOS is *complementary* to byte-stream and frequency-domain compressors
//! (§II-B of the paper): LZ4/7-Zip can run over BOS-encoded bytes
//! ("BOS+LZ4", "BOS+7-Zip"), and BOS can store the residuals of DCT/FFT
//! transform coding ("BOS+DCT", "BOS+FFT"). This crate provides all four
//! comparators, built from scratch:
//!
//! * [`lz4::Lz4Like`] — the LZ4 block format (hash-table LZ77).
//! * [`lzma_lite::LzmaLite`] — LZ77 + adaptive binary range coder, the
//!   stand-in for 7-Zip/LZMA (DESIGN.md §2, substitution 2).
//! * [`transform::TransformCodec`] — lossless DCT-II / radix-2 FFT coding
//!   with integer residual correction, parameterized by BP or BOS.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod lz4;
pub mod lzma_lite;
pub mod transform;

pub use lz4::Lz4Like;
pub use lzma_lite::LzmaLite;
pub use transform::{InnerPacker, TransformCodec, TransformKind};

/// A general-purpose byte-stream compressor.
pub trait ByteCodec {
    /// Method label ("LZ4", "7-Zip (LZMA-lite)").
    fn name(&self) -> &'static str;

    /// Appends one compressed frame to `out`.
    fn compress(&self, data: &[u8], out: &mut Vec<u8>);

    /// Decompresses one frame from `buf[*pos..]`, appending bytes to
    /// `out`. Returns `Err(`[`bitpack::DecodeError`]`)` on corrupt or
    /// truncated input; never panics.
    fn decompress(
        &self,
        buf: &[u8],
        pos: &mut usize,
        out: &mut Vec<u8>,
    ) -> bitpack::DecodeResult<()>;
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::ByteCodec;

    /// Roundtrips bytes; returns compressed size.
    pub fn roundtrip_bytes<C: ByteCodec>(codec: &C, data: &[u8]) -> usize {
        let mut buf = Vec::new();
        codec.compress(data, &mut buf);
        let mut pos = 0;
        let mut out = Vec::new();
        codec
            .decompress(&buf, &mut pos, &mut out)
            .unwrap_or_else(|e| panic!("{} decode failed: {e}", codec.name()));
        assert_eq!(out, data, "{} roundtrip mismatch", codec.name());
        assert_eq!(pos, buf.len(), "{} trailing bytes", codec.name());
        buf.len()
    }

    /// Adversarial byte blocks.
    pub fn standard_byte_cases() -> Vec<Vec<u8>> {
        let mut cases = vec![
            vec![],
            vec![0],
            vec![0xFF; 3],
            b"hello hello hello hello hello".to_vec(),
            (0..=255u8).collect(),
            (0..10_000).map(|i| (i % 256) as u8).collect(),
            vec![0u8; 70_000],
        ];
        // Structured "encoded block" bytes: headers + packed payloads.
        let mut structured = Vec::new();
        for i in 0..3000u32 {
            structured.extend_from_slice(&(i % 97).to_le_bytes());
        }
        cases.push(structured);
        cases
    }
}
