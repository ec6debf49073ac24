//! Chimp128 — Chimp with a 128-value reference window (Liakos et al.,
//! VLDB 2022, the paper's flagship "Chimp_N" variant).
//!
//! Instead of XOR-ing only with the immediately previous value, each value
//! may reference *any of the last 128* values; a hash table over the low
//! mantissa bits finds, in O(1), a previous value likely to share trailing
//! bits. Periodic or multi-modal series (very common in IoT) compress far
//! better because each mode references its own last occurrence.
//!
//! Per value, 2 control bits:
//! * `00` — equal to an indexed previous value: 7-bit index follows;
//! * `01` — indexed reference with > 6 trailing XOR zeros: 7-bit index,
//!   3-bit leading level, 6-bit center length, center bits;
//! * `10` — XOR with the previous value, same leading level as last time:
//!   `64 − lead` bits;
//! * `11` — XOR with the previous value, new leading level: 3 bits level,
//!   `64 − lead` bits.
//!
//! This is the extension codec (not part of the paper's Figure 10 grid,
//! which uses plain Chimp); see `ChimpCodec` for the grid baseline.

#![deny(clippy::indexing_slicing)]

use crate::FloatCodec;
use bitpack::bits::{BitReader, BitWriter};
use bitpack::error::{DecodeError, DecodeResult};
use bitpack::zigzag::{read_varint, write_varint};

/// Window size (and the meaning of "128" in the name).
pub const WINDOW: usize = 128;
/// Bits of the low-mantissa hash key.
const KEY_BITS: u32 = 14;
/// Leading-zero level table shared with plain Chimp.
const LEVELS: [u32; 8] = [0, 8, 12, 16, 18, 20, 22, 24];

fn level_of(lead: u32) -> usize {
    // `LEVELS[0] == 0`, so some level always matches.
    LEVELS.iter().rposition(|&l| l <= lead).unwrap_or(0)
}

/// Width for a 3-bit level index (always in range: the field is 3 bits).
#[inline]
fn level_width(level: usize) -> u32 {
    LEVELS.get(level).copied().unwrap_or(0)
}

/// Panic-free ring-buffer read; `i` is reduced modulo [`WINDOW`].
#[inline]
fn ring_get(ring: &[u64; WINDOW], i: usize) -> u64 {
    ring.get(i % WINDOW).copied().unwrap_or(0)
}

/// Panic-free ring-buffer write; `i` is reduced modulo [`WINDOW`].
#[inline]
fn ring_set(ring: &mut [u64; WINDOW], i: usize, v: u64) {
    if let Some(slot) = ring.get_mut(i % WINDOW) {
        *slot = v;
    }
}

/// The Chimp128 codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct Chimp128Codec;

impl Chimp128Codec {
    /// Creates the codec.
    pub fn new() -> Self {
        Self
    }
}

impl FloatCodec for Chimp128Codec {
    fn name(&self) -> &'static str {
        "CHIMP128"
    }

    fn encode(&self, values: &[f64], out: &mut Vec<u8>) {
        write_varint(out, values.len() as u64);
        if values.is_empty() {
            return;
        }
        let mut bits = BitWriter::with_capacity_bits(values.len() * 20);
        let mut ring = [0u64; WINDOW];
        let mut table = vec![usize::MAX; 1 << KEY_BITS];
        // Exact-repeat table keyed on a full-width hash: finds the last
        // identical value even when the low-bit key collides (values with
        // all-zero low mantissas would otherwise shadow each other).
        let mut exact = vec![usize::MAX; 1 << KEY_BITS];
        let hash64 = |b: u64| -> usize {
            (b.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - KEY_BITS)) as usize
        };
        let mut prev_level = 0usize;

        let first = values.first().map_or(0, |v| v.to_bits());
        bits.write_bits(first, 64);
        ring_set(&mut ring, 0, first);
        if let Some(slot) = table.get_mut((first & ((1 << KEY_BITS) - 1)) as usize) {
            *slot = 0;
        }
        if let Some(slot) = exact.get_mut(hash64(first)) {
            *slot = 0;
        }

        for (i, &v) in values.iter().enumerate().skip(1) {
            let b = v.to_bits();
            let key = (b & ((1 << KEY_BITS) - 1)) as usize;
            let prev = ring_get(&ring, i - 1);

            let in_window =
                |cand: usize| cand != usize::MAX && cand < i && i - cand <= WINDOW.min(i);
            // Prefer an exact repeat; fall back to the low-bit candidate.
            let ecand = exact.get(hash64(b)).copied().unwrap_or(usize::MAX);
            let cand = if in_window(ecand) && ring_get(&ring, ecand) == b {
                ecand
            } else {
                table.get(key).copied().unwrap_or(usize::MAX)
            };
            let indexed = if in_window(cand) {
                Some((cand % WINDOW, ring_get(&ring, cand)))
            } else {
                None
            };

            let mut wrote = false;
            if let Some((slot, refv)) = indexed {
                let xor = b ^ refv;
                if xor == 0 {
                    bits.write_bits(0b00, 2);
                    bits.write_bits(slot as u64, 7);
                    wrote = true;
                } else if xor.trailing_zeros() > 6 {
                    let lead = xor.leading_zeros();
                    let level = level_of(lead);
                    let trail = xor.trailing_zeros();
                    let center = 64 - level_width(level) - trail;
                    bits.write_bits(0b01, 2);
                    bits.write_bits(slot as u64, 7);
                    bits.write_bits(level as u64, 3);
                    bits.write_bits(center as u64, 6);
                    bits.write_bits(xor >> trail, center);
                    prev_level = level;
                    wrote = true;
                }
            }
            if !wrote {
                let xor = b ^ prev;
                let lead = xor.leading_zeros().min(63);
                let level = level_of(lead);
                if level == prev_level {
                    bits.write_bits(0b10, 2);
                    bits.write_bits(xor, 64 - level_width(level));
                } else {
                    bits.write_bits(0b11, 2);
                    bits.write_bits(level as u64, 3);
                    bits.write_bits(xor, 64 - level_width(level));
                }
                prev_level = level;
            }
            ring_set(&mut ring, i, b);
            if let Some(slot) = table.get_mut(key) {
                *slot = i;
            }
            if let Some(slot) = exact.get_mut(hash64(b)) {
                *slot = i;
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
        let payload = buf.get(*pos..).ok_or(DecodeError::Truncated)?;
        let mut reader = BitReader::new(payload);
        let mut ring = [0u64; WINDOW];
        let mut prev_level = 0usize;
        out.reserve(n);

        let first = reader.read_bits(64)?;
        ring_set(&mut ring, 0, first);
        out.push(f64::from_bits(first));

        for i in 1..n {
            let prev = ring_get(&ring, i - 1);
            let tag = reader.read_bits(2)?;
            let b = match tag {
                0b00 => {
                    let slot = reader.read_bits(7)? as usize;
                    ring_get(&ring, slot)
                }
                0b01 => {
                    let slot = reader.read_bits(7)? as usize;
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
                    ring_get(&ring, slot) ^ (reader.read_bits(center)? << trail)
                }
                0b10 => prev ^ reader.read_bits(64 - level_width(prev_level))?,
                _ => {
                    let level = reader.read_bits(3)? as usize;
                    prev_level = level;
                    prev ^ reader.read_bits(64 - level_width(level))?
                }
            };
            ring_set(&mut ring, i, b);
            out.push(f64::from_bits(b));
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
        let codec = Chimp128Codec::new();
        for case in standard_cases() {
            roundtrip(&codec, &case);
        }
    }

    #[test]
    fn periodic_series_beats_plain_chimp() {
        // A signal alternating between a few exact levels: Chimp128's
        // indexed references make repeats nearly free, while plain Chimp
        // pays full XORs between modes.
        let levels = [18.25f64, 92.5, 140.75, 18.25, 7.0];
        let values: Vec<f64> = (0..8000).map(|i| levels[i % levels.len()]).collect();
        let c128 = roundtrip(&Chimp128Codec::new(), &values);
        let c = roundtrip(&crate::ChimpCodec::new(), &values);
        assert!(c128 * 2 < c, "chimp128 {c128} vs chimp {c}");
    }

    #[test]
    fn hash_collisions_stay_lossless() {
        // Force low-bit collisions: values sharing the low 14 bits but
        // differing above must never be confused.
        let values: Vec<f64> = (0..2000)
            .map(|i| f64::from_bits(0x3FF0_0000_0000_1234 | ((i as u64 % 7) << 40)))
            .collect();
        roundtrip(&Chimp128Codec::new(), &values);
    }

    #[test]
    fn window_wraparound() {
        // Repeats spaced just over the window: indexed refs must expire.
        let mut values = Vec::new();
        for i in 0..2000 {
            values.push(if i % (WINDOW + 3) == 0 {
                777.125
            } else {
                i as f64 * 0.5
            });
        }
        roundtrip(&Chimp128Codec::new(), &values);
    }

    #[test]
    fn on_random_data_not_catastrophic() {
        let values: Vec<f64> = (0..1000)
            .map(|i| {
                let x = (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
                f64::from_bits(0x3FF0_0000_0000_0000 | (x >> 12))
            })
            .collect();
        let size = roundtrip(&Chimp128Codec::new(), &values);
        assert!(size < values.len() * 10, "got {size}");
    }
}
