//! Elf — erasing-based lossless float compression (Li et al., VLDB 2023).
//!
//! Most real-world floats carry only a few significant *decimal* digits,
//! yet their binary mantissas are dense. Elf erases the mantissa bits that
//! are below the value's decimal precision (setting them to zero), which
//! manufactures long trailing-zero runs for the XOR stage; the decoder
//! restores the original by re-rounding to the stored decimal precision.
//!
//! Per value: a flag bit — `1` means "erased": a 5-bit decimal precision
//! `α` follows and the value in the XOR stream is the erased double,
//! recovered by `round(w, α)`; `0` means the exact bits travel through the
//! XOR stream untouched (NaN/∞, sub-decimal values, or values where
//! erasure saves nothing). The XOR backend is the Gorilla window coder.

#![deny(clippy::indexing_slicing)]

use crate::gorilla::{xor_decode_one, xor_encode_one};
use crate::FloatCodec;
use bitpack::bits::{BitReader, BitWriter};
use bitpack::error::{DecodeError, DecodeResult};
use bitpack::zigzag::{read_varint, write_varint};

/// Largest decimal precision the 5-bit α field stores.
const MAX_ALPHA: u32 = 17;

/// Decimal rounding used on both ends — must be bit-deterministic.
#[inline]
fn round_dec(v: f64, alpha: u32) -> f64 {
    let scale = 10f64.powi(alpha as i32);
    (v * scale).round() / scale
}

/// Smallest decimal precision that reproduces `v` exactly, if any.
fn decimal_precision(v: f64) -> Option<u32> {
    if !v.is_finite() {
        return None;
    }
    (0..=MAX_ALPHA).find(|&a| round_dec(v, a).to_bits() == v.to_bits())
}

/// Erases as many trailing mantissa bits as possible while keeping
/// `round_dec(erased, alpha) == v`. Returns the erased bit pattern.
fn erase(v: f64, alpha: u32) -> u64 {
    let bits = v.to_bits();
    // Binary search the largest erase count in 0..=52.
    let mut best = bits;
    let (mut lo, mut hi) = (0u32, 52u32);
    while lo <= hi {
        let e = (lo + hi) / 2;
        let mask = !((1u64 << e) - 1);
        let cand = bits & mask;
        if round_dec(f64::from_bits(cand), alpha).to_bits() == bits {
            best = cand;
            lo = e + 1;
        } else {
            if e == 0 {
                break;
            }
            hi = e - 1;
        }
    }
    best
}

/// The Elf codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct ElfCodec;

impl ElfCodec {
    /// Creates the codec.
    pub fn new() -> Self {
        Self
    }
}

impl FloatCodec for ElfCodec {
    fn name(&self) -> &'static str {
        "Elf"
    }

    fn encode(&self, values: &[f64], out: &mut Vec<u8>) {
        write_varint(out, values.len() as u64);
        if values.is_empty() {
            return;
        }
        let mut bits = BitWriter::with_capacity_bits(values.len() * 16);
        let mut prev = 0u64; // XOR chain primed with 0, first value included
        let mut window = (64u32, 64u32);
        for &v in values {
            if let Some(alpha) = decimal_precision(v) {
                let erased = erase(v, alpha);
                // When nothing is erased, the exact path below is cheaper
                // (no α field).
                if erased != v.to_bits() {
                    bits.write_bit(true);
                    bits.write_bits(alpha as u64, 5);
                    xor_encode_one(erased, prev, &mut window, &mut bits);
                    prev = erased;
                    continue;
                }
            }
            bits.write_bit(false);
            let b = v.to_bits();
            xor_encode_one(b, prev, &mut window, &mut bits);
            prev = b;
        }
        out.extend_from_slice(&bits.into_bytes());
    }

    fn decode(&self, buf: &[u8], pos: &mut usize, out: &mut Vec<f64>) -> DecodeResult<()> {
        let n = read_varint(buf, pos)? as usize;
        if n == 0 {
            return Ok(());
        }
        if n > bitpack::MAX_BLOCK_VALUES {
            return Err(DecodeError::CountOverflow { claimed: n as u64 });
        }
        let payload = buf.get(*pos..).ok_or(DecodeError::Truncated)?;
        let mut reader = BitReader::new(payload);
        let mut prev = 0u64;
        let mut window = (64u32, 64u32);
        out.reserve(n);
        for _ in 0..n {
            let erased_flag = reader.read_bit()?;
            if erased_flag {
                let alpha = reader.read_bits(5)? as u32;
                if alpha > MAX_ALPHA {
                    // 5-bit α fields above 17 are never written by the encoder.
                    return Err(DecodeError::BadModeByte { mode: alpha as u8 });
                }
                prev = xor_decode_one(prev, &mut window, &mut reader)?;
                out.push(round_dec(f64::from_bits(prev), alpha));
            } else {
                prev = xor_decode_one(prev, &mut window, &mut reader)?;
                out.push(f64::from_bits(prev));
            }
        }
        *pos += reader.position_bits().div_ceil(8);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{roundtrip, standard_cases};

    #[test]
    fn roundtrip_standard() {
        let codec = ElfCodec::new();
        for case in standard_cases() {
            roundtrip(&codec, &case);
        }
    }

    #[test]
    fn decimal_precision_detection() {
        assert_eq!(decimal_precision(1.0), Some(0));
        assert_eq!(decimal_precision(1.5), Some(1));
        assert_eq!(decimal_precision(1.25), Some(2));
        assert_eq!(decimal_precision(f64::NAN), None);
        assert_eq!(decimal_precision(f64::INFINITY), None);
    }

    #[test]
    fn erase_preserves_recoverability() {
        for (v, alpha) in [(123.45, 2u32), (0.1, 1), (99999.9, 1), (3.125, 3)] {
            let erased = erase(v, alpha);
            assert_eq!(round_dec(f64::from_bits(erased), alpha), v);
            // Erasure never adds bits.
            assert!(erased.trailing_zeros() >= v.to_bits().trailing_zeros());
        }
    }

    #[test]
    fn low_precision_data_beats_gorilla() {
        // 1-decimal sensor values with noisy mantissas: Elf's target case.
        let values: Vec<f64> = (0..4096)
            .map(|i| ((i as f64 * 0.731).sin() * 5000.0).round() / 10.0)
            .collect();
        let elf = roundtrip(&ElfCodec::new(), &values);
        let gorilla = roundtrip(&crate::GorillaCodec::new(), &values);
        assert!(elf < gorilla, "elf {elf} vs gorilla {gorilla}");
    }

    #[test]
    fn full_mantissa_values_still_roundtrip() {
        let values: Vec<f64> = (1..200).map(|i| (i as f64).sqrt()).collect();
        roundtrip(&ElfCodec::new(), &values);
    }

    #[test]
    fn mixed_precision_stream() {
        let values = vec![
            1.5,
            std::f64::consts::PI,
            f64::NAN,
            1.5,
            2.25,
            f64::INFINITY,
            -7.0,
        ];
        roundtrip(&ElfCodec::new(), &values);
    }
}
