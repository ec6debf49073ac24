//! Chimp float compression (Liakos, Papakonstantinopoulou, Kotidis —
//! VLDB 2022).
//!
//! Chimp refines Gorilla with two observations: real data rarely has many
//! trailing zeros (so the costly trailing encoding is split by a `T > 6`
//! test), and leading-zero counts cluster (so they are rounded to a small
//! level table and stored in 3 bits instead of 5).
//!
//! Per value (xor with previous):
//! * `00` — xor = 0;
//! * `01` — T > 6: 3-bit leading level, 6-bit center length, center bits;
//! * `10` — same leading level as previous: `64 − lead` significant bits;
//! * `11` — new leading level: 3 bits level, then `64 − lead` bits.

#![deny(clippy::indexing_slicing)]

use crate::FloatCodec;
use bitpack::bits::{BitReader, BitWriter};
use bitpack::error::{DecodeError, DecodeResult};
use bitpack::zigzag::{read_varint, write_varint};

/// Leading-zero level table (values representable in 3 bits).
const LEVELS: [u32; 8] = [0, 8, 12, 16, 18, 20, 22, 24];

/// Rounds a leading-zero count down to its level index.
fn level_of(lead: u32) -> usize {
    // `LEVELS[0] == 0`, so some level always matches.
    LEVELS.iter().rposition(|&l| l <= lead).unwrap_or(0)
}

/// Width for a 3-bit level index. The field is 3 bits wide, so the index
/// is always in range; `unwrap_or` keeps the lookup panic-free anyway.
#[inline]
fn level_width(level: usize) -> u32 {
    LEVELS.get(level).copied().unwrap_or(0)
}

/// The Chimp codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChimpCodec;

impl ChimpCodec {
    /// Creates the codec.
    pub fn new() -> Self {
        Self
    }
}

impl FloatCodec for ChimpCodec {
    fn name(&self) -> &'static str {
        "CHIMP"
    }

    fn encode(&self, values: &[f64], out: &mut Vec<u8>) {
        write_varint(out, values.len() as u64);
        if values.is_empty() {
            return;
        }
        let mut bits = BitWriter::with_capacity_bits(values.len() * 20);
        let mut prev = values.first().map_or(0, |v| v.to_bits());
        bits.write_bits(prev, 64);
        let mut prev_level = 0usize;
        for &v in values.get(1..).unwrap_or(&[]) {
            let b = v.to_bits();
            let xor = b ^ prev;
            if xor == 0 {
                bits.write_bits(0b00, 2);
            } else {
                let lead = xor.leading_zeros();
                let level = level_of(lead);
                let lead_r = level_width(level);
                let trail = xor.trailing_zeros();
                if trail > 6 {
                    // '01': center bits only (both ends trimmed).
                    let center = 64 - lead_r - trail;
                    debug_assert!((1..=63).contains(&center));
                    bits.write_bits(0b01, 2);
                    bits.write_bits(level as u64, 3);
                    bits.write_bits(center as u64, 6);
                    bits.write_bits(xor >> trail, center);
                } else if level == prev_level {
                    bits.write_bits(0b10, 2);
                    bits.write_bits(xor, 64 - lead_r);
                } else {
                    bits.write_bits(0b11, 2);
                    bits.write_bits(level as u64, 3);
                    bits.write_bits(xor, 64 - lead_r);
                }
                prev_level = level;
            }
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
        let mut prev = reader.read_bits(64)?;
        out.reserve(n);
        out.push(f64::from_bits(prev));
        let mut prev_level = 0usize;
        for _ in 1..n {
            let tag = reader.read_bits(2)?;
            let xor = match tag {
                0b00 => 0,
                0b01 => {
                    let level = reader.read_bits(3)? as usize;
                    let center = reader.read_bits(6)? as u32;
                    let lead_r = level_width(level);
                    if center == 0 || lead_r + center > 64 {
                        return Err(DecodeError::WidthOverflow {
                            width: lead_r + center,
                        });
                    }
                    let trail = 64 - lead_r - center;
                    prev_level = level;
                    reader.read_bits(center)? << trail
                }
                0b10 => reader.read_bits(64 - level_width(prev_level))?,
                _ => {
                    let level = reader.read_bits(3)? as usize;
                    prev_level = level;
                    reader.read_bits(64 - level_width(level))?
                }
            };
            prev ^= xor;
            out.push(f64::from_bits(prev));
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
        let codec = ChimpCodec::new();
        for case in standard_cases() {
            roundtrip(&codec, &case);
        }
    }

    #[test]
    fn level_table_rounds_down() {
        assert_eq!(level_of(0), 0);
        assert_eq!(level_of(7), 0);
        assert_eq!(level_of(8), 1);
        assert_eq!(level_of(17), 3);
        assert_eq!(level_of(18), 4);
        assert_eq!(level_of(24), 7);
        assert_eq!(level_of(64), 7);
    }

    #[test]
    fn repeats_cost_two_bits() {
        let codec = ChimpCodec::new();
        let size = roundtrip(&codec, &vec![9.75; 4001]);
        // 8 bytes + 4000 × 2 bits ≈ 1008 bytes.
        assert!(size < 1020, "got {size}");
    }

    #[test]
    fn trailing_zero_case_roundtrips() {
        // Values whose XORs have > 6 trailing zeros (low mantissa constant).
        let values: Vec<f64> = (0..500)
            .map(|i| f64::from_bits(0x4000_0000_0000_0000 | ((i as u64) << 20)))
            .collect();
        roundtrip(&ChimpCodec::new(), &values);
    }

    #[test]
    fn all_four_tags_roundtrip() {
        // Mix repeats, small same-level changes, level changes and
        // trailing-heavy values in one stream.
        let mut values: Vec<f64> = vec![1.0, 1.0];
        values.push(1.0000000001);
        values.push(f64::from_bits(values[2].to_bits() ^ 0xFF00));
        values.push(values[3]);
        values.push(-values[3]);
        values.push(f64::from_bits(values[5].to_bits() ^ (0xABu64 << 40)));
        roundtrip(&ChimpCodec::new(), &values);
    }

    #[test]
    fn smooth_series_beats_gorilla_or_close() {
        // On the kind of data Chimp targets it should be competitive.
        let values: Vec<f64> = (0..4096)
            .map(|i| 900.0 + ((i as f64) * 0.001).sin())
            .collect();
        let chimp = roundtrip(&ChimpCodec::new(), &values);
        let gorilla = roundtrip(&crate::GorillaCodec::new(), &values);
        assert!(chimp as f64 <= gorilla as f64 * 1.3, "{chimp} vs {gorilla}");
    }
}
