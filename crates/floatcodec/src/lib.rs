//! Lossless floating-point codecs used as baselines in Figure 10.
//!
//! * [`gorilla::GorillaCodec`] — XOR with the previous value, leading/
//!   trailing-zero windows (Pelkonen et al., VLDB 2015).
//! * [`chimp::ChimpCodec`] — Gorilla improved with a leading-zero level
//!   table and a trailing-zero case split (Liakos et al., VLDB 2022).
//! * [`elf::ElfCodec`] — erase sub-precision mantissa bits before XOR
//!   compression, restore by decimal re-rounding (Li et al., VLDB 2023).
//! * [`buff::BuffCodec`] — bounded fixed-point byte-sliced storage with
//!   frequency-based sparse outlier separation (Liu et al., VLDB 2021).
//! * [`chimp128::Chimp128Codec`] — Chimp's 128-value reference-window
//!   variant (extension; the Figure 10 grid uses plain Chimp).
//!
//! All codecs are bit-exact lossless on every finite and non-finite `f64`
//! (NaN payloads included — values travel as raw bit patterns where the
//! fast paths do not apply).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod buff;
pub mod chimp;
pub mod chimp128;
pub mod elf;
pub mod gorilla;

pub use buff::BuffCodec;
pub use chimp::ChimpCodec;
pub use chimp128::Chimp128Codec;
pub use elf::ElfCodec;
pub use gorilla::GorillaCodec;

/// A self-describing lossless `f64` block codec.
pub trait FloatCodec {
    /// Method label ("GORILLA", "CHIMP", "Elf", "BUFF").
    fn name(&self) -> &'static str;

    /// Appends one encoded block to `out`.
    fn encode(&self, values: &[f64], out: &mut Vec<u8>);

    /// Decodes one block from `buf[*pos..]`, appending values to `out`.
    /// Returns `Err(`[`bitpack::DecodeError`]`)` on corrupt/truncated input;
    /// never panics.
    fn decode(&self, buf: &[u8], pos: &mut usize, out: &mut Vec<f64>) -> bitpack::DecodeResult<()>;
}

/// All four float codecs for the experiment grid.
pub fn all_codecs() -> Vec<Box<dyn FloatCodec>> {
    vec![
        Box::new(GorillaCodec::new()),
        Box::new(ChimpCodec::new()),
        Box::new(ElfCodec::new()),
        Box::new(BuffCodec::new()),
    ]
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::FloatCodec;

    /// Bit-exact roundtrip; returns encoded size.
    pub fn roundtrip<C: FloatCodec>(codec: &C, values: &[f64]) -> usize {
        let mut buf = Vec::new();
        codec.encode(values, &mut buf);
        let mut pos = 0;
        let mut out = Vec::new();
        codec
            .decode(&buf, &mut pos, &mut out)
            .unwrap_or_else(|e| panic!("{} decode failed: {e}", codec.name()));
        assert_eq!(out.len(), values.len(), "{} length", codec.name());
        for (i, (&a, &b)) in values.iter().zip(&out).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{} value {i}: {a} vs {b}",
                codec.name()
            );
        }
        assert_eq!(pos, buf.len(), "{} trailing bytes", codec.name());
        buf.len()
    }

    /// Adversarial float blocks.
    pub fn standard_cases() -> Vec<Vec<f64>> {
        vec![
            vec![],
            vec![0.0],
            vec![-0.0],
            vec![1.5; 100],
            vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0],
            (0..500).map(|i| i as f64 * 0.25).collect(),
            (0..500).map(|i| (i as f64 * 0.7).sin() * 1e4).collect(),
            vec![f64::MIN_POSITIVE, f64::MAX, f64::EPSILON],
            (0..300)
                .map(|i| ((i * i) as f64).sqrt().round() / 8.0)
                .collect(),
            // Sensor-like: 2 decimals, slowly varying, rare spikes.
            (0..1000)
                .map(|i| {
                    let base = 500.0 + ((i / 7) % 13) as f64 * 0.25;
                    if i % 97 == 0 {
                        base + 90_000.0
                    } else {
                        base
                    }
                })
                .collect(),
        ]
    }
}
