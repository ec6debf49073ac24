//! BUFF — decomposed bounded floats (Liu, Jiang, Paparrizos, Elmore —
//! VLDB 2021).
//!
//! BUFF stores bounded, fixed-precision floats as fixed-point integers and
//! handles out-of-range values with *sparse encoding*: a frequent range is
//! chosen by frequency (here: the width covering ≥ 99 % of the block) and
//! values beyond it are marked in a bitmap and stored at full width —
//! "BUFF only splits values into two parts, outliers and normal values
//! according to frequency, and does not optimize the outlier separation"
//! (the paper's §II, which is exactly the contrast to BOS).
//!
//! Layout, mode byte first:
//! * mode 0 — raw: 64-bit patterns (fallback when the block has no exact
//!   decimal scaling: NaN/∞ or full-mantissa values);
//! * mode 1 — fixed-point: `u8 precision · zigzag min · u8 w_normal ·
//!   u8 w_full · varint n_outliers · outlier bitmap (n bits) ·
//!   normals at w_normal bits · outliers at w_full bits`.

#![deny(clippy::indexing_slicing)]

use crate::FloatCodec;
use bitpack::bits::{BitReader, BitWriter};
use bitpack::error::{DecodeError, DecodeResult};
use bitpack::width::width;
use bitpack::zigzag::{read_varint, read_varint_i64, write_varint, write_varint_i64};

/// Largest decimal precision tried for the fixed-point path.
const MAX_PRECISION: u32 = 10;

/// The BUFF codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuffCodec;

impl BuffCodec {
    /// Creates the codec.
    pub fn new() -> Self {
        Self
    }

    /// Finds the block's decimal precision, if the whole block is exactly
    /// representable as `value × 10^p` integers.
    fn block_precision(values: &[f64]) -> Option<u32> {
        (0..=MAX_PRECISION).find(|&p| {
            let scale = 10f64.powi(p as i32);
            values.iter().all(|&v| {
                let s = (v * scale).round();
                // Bit equality through the integer domain: catches −0.0
                // (which plain float == would wave through lossily).
                s.is_finite()
                    && s.abs() < 9.0e18
                    && ((s as i64) as f64 / scale).to_bits() == v.to_bits()
            })
        })
    }
}

impl FloatCodec for BuffCodec {
    fn name(&self) -> &'static str {
        "BUFF"
    }

    fn encode(&self, values: &[f64], out: &mut Vec<u8>) {
        write_varint(out, values.len() as u64);
        if values.is_empty() {
            return;
        }
        let Some(p) = Self::block_precision(values) else {
            out.push(0); // raw mode
            for &v in values {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
            return;
        };
        out.push(1);
        out.push(p as u8);
        let scale = 10f64.powi(p as i32);
        let ints: Vec<i64> = values.iter().map(|&v| (v * scale).round() as i64).collect();
        let min = ints.iter().copied().min().unwrap_or(0);
        let shifted: Vec<u64> = ints.iter().map(|&v| v.wrapping_sub(min) as u64).collect();
        let w_full = width(shifted.iter().copied().max().unwrap_or(0));

        // Frequency-based bound: the narrowest width covering ≥ 99 %.
        let mut hist = [0usize; 65];
        for &v in &shifted {
            // `width` never exceeds 64 and `hist` has 65 slots.
            if let Some(slot) = hist.get_mut(width(v) as usize) {
                *slot += 1;
            }
        }
        let need = shifted.len() - shifted.len() / 100;
        let mut cum = 0usize;
        let mut w_normal = w_full;
        for (w, &c) in hist.iter().enumerate() {
            cum += c;
            if cum >= need {
                w_normal = w as u32;
                break;
            }
        }

        let outliers: Vec<bool> = shifted.iter().map(|&v| width(v) > w_normal).collect();
        let n_out = outliers.iter().filter(|&&o| o).count();
        write_varint_i64(out, min);
        out.push(w_normal as u8);
        out.push(w_full as u8);
        write_varint(out, n_out as u64);
        let mut bits = BitWriter::with_capacity_bits(
            values.len() * (w_normal as usize + 1) + n_out * w_full as usize,
        );
        for &o in &outliers {
            bits.write_bit(o);
        }
        for (&v, &o) in shifted.iter().zip(&outliers) {
            if !o {
                bits.write_bits(v, w_normal);
            }
        }
        for (&v, &o) in shifted.iter().zip(&outliers) {
            if o {
                bits.write_bits(v, w_full);
            }
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
        let mode = *buf.get(*pos).ok_or(DecodeError::Truncated)?;
        *pos += 1;
        match mode {
            0 => {
                out.reserve(n);
                for _ in 0..n {
                    let bytes = buf.get(*pos..*pos + 8).ok_or(DecodeError::Truncated)?;
                    *pos += 8;
                    let word = match <[u8; 8]>::try_from(bytes) {
                        Ok(b) => u64::from_le_bytes(b),
                        Err(_) => return Err(DecodeError::Truncated),
                    };
                    out.push(f64::from_bits(word));
                }
                Ok(())
            }
            1 => {
                let p = *buf.get(*pos).ok_or(DecodeError::Truncated)? as u32;
                *pos += 1;
                if p > MAX_PRECISION {
                    return Err(DecodeError::BadModeByte { mode: p as u8 });
                }
                let min = read_varint_i64(buf, pos)?;
                let w_normal = *buf.get(*pos).ok_or(DecodeError::Truncated)? as u32;
                let w_full = *buf.get(*pos + 1).ok_or(DecodeError::Truncated)? as u32;
                *pos += 2;
                if w_normal > 64 {
                    return Err(DecodeError::WidthOverflow { width: w_normal });
                }
                if w_full > 64 {
                    return Err(DecodeError::WidthOverflow { width: w_full });
                }
                let n_out = read_varint(buf, pos)? as usize;
                if n_out > n {
                    return Err(DecodeError::CountOverflow {
                        claimed: n_out as u64,
                    });
                }
                let total_bits = n + (n - n_out) * w_normal as usize + n_out * w_full as usize;
                let payload = buf
                    .get(*pos..*pos + total_bits.div_ceil(8))
                    .ok_or(DecodeError::Truncated)?;
                *pos += total_bits.div_ceil(8);
                let mut reader = BitReader::new(payload);
                let mut flags = Vec::with_capacity(n);
                for _ in 0..n {
                    flags.push(reader.read_bit()?);
                }
                let bitmap_out = flags.iter().filter(|&&f| f).count();
                if bitmap_out != n_out {
                    return Err(DecodeError::BitmapCountMismatch {
                        header_lower: 0,
                        header_upper: n_out,
                        bitmap_lower: 0,
                        bitmap_upper: bitmap_out,
                    });
                }
                let mut normals = Vec::with_capacity(n - n_out);
                for _ in 0..n - n_out {
                    normals.push(reader.read_bits(w_normal)?);
                }
                let mut outs = Vec::with_capacity(n_out);
                for _ in 0..n_out {
                    outs.push(reader.read_bits(w_full)?);
                }
                let scale = 10f64.powi(p as i32);
                let mut normals_it = normals.iter();
                let mut outs_it = outs.iter();
                out.reserve(n);
                for &f in &flags {
                    let shifted = if f { outs_it.next() } else { normals_it.next() };
                    let shifted = *shifted.ok_or(DecodeError::Truncated)?;
                    let int = min.wrapping_add(shifted as i64);
                    out.push(int as f64 / scale);
                }
                Ok(())
            }
            _ => Err(DecodeError::BadModeByte { mode }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{roundtrip, standard_cases};

    #[test]
    fn roundtrip_standard() {
        let codec = BuffCodec::new();
        for case in standard_cases() {
            roundtrip(&codec, &case);
        }
    }

    #[test]
    fn fixed_point_path_is_compact() {
        // 1-decimal values in a narrow band: ~11 bits/value, not 64.
        let values: Vec<f64> = (0..4096)
            .map(|i| 100.0 + ((i % 100) as f64) / 10.0)
            .collect();
        let size = roundtrip(&BuffCodec::new(), &values);
        assert!(size < 4096 * 3, "got {size}");
    }

    #[test]
    fn sparse_outliers_do_not_widen_normals() {
        // 0.5 % outliers: normal width must stay near the center width.
        let values: Vec<f64> = (0..4000)
            .map(|i| {
                if i % 211 == 0 {
                    900_000.5
                } else {
                    50.0 + (i % 32) as f64 * 0.5
                }
            })
            .collect();
        let with = roundtrip(&BuffCodec::new(), &values);
        let dense: Vec<f64> = values.iter().map(|&v| v.min(70.0)).collect();
        let without = roundtrip(&BuffCodec::new(), &dense);
        // Outliers cost their own storage but normals stay narrow: the
        // inflation must be far below the 20-bit widening full-width
        // packing would suffer.
        assert!(with < without * 3, "{with} vs {without}");
    }

    #[test]
    fn raw_fallback_for_unscalable_blocks() {
        let values = vec![std::f64::consts::PI, f64::NAN, 1.5];
        roundtrip(&BuffCodec::new(), &values);
    }

    #[test]
    fn negative_zero_and_specials() {
        roundtrip(&BuffCodec::new(), &[-0.0, 0.0, -1.5, 1.5]);
    }

    #[test]
    fn truncation_fails_cleanly() {
        let codec = BuffCodec::new();
        let values: Vec<f64> = (0..300).map(|i| i as f64 / 4.0).collect();
        let mut buf = Vec::new();
        codec.encode(&values, &mut buf);
        for cut in 0..buf.len() {
            let mut pos = 0;
            let mut out = Vec::new();
            assert!(codec.decode(&buf[..cut], &mut pos, &mut out).is_err());
        }
    }
}
