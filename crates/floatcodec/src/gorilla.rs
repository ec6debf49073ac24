//! Gorilla float compression (Pelkonen et al. — VLDB 2015, §4.1.2).
//!
//! The first value is stored raw; each subsequent value stores
//! `xor = bits(v) ^ bits(prev)`:
//!
//! * `0` — xor is zero (value repeats);
//! * `10` — the meaningful bits of xor fall inside the previous value's
//!   window: store just those `64 − prevLead − prevTrail` bits;
//! * `11` — new window: 5 bits leading-zero count (capped at 31), 6 bits
//!   meaningful-bit count (stored as count − 1), then the bits.

#![deny(clippy::indexing_slicing)]

use crate::FloatCodec;
use bitpack::bits::{BitReader, BitWriter};
use bitpack::error::{DecodeError, DecodeResult};
use bitpack::zigzag::{read_varint, write_varint};

/// The Gorilla XOR codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct GorillaCodec;

impl GorillaCodec {
    /// Creates the codec.
    pub fn new() -> Self {
        Self
    }
}

/// Shared by Gorilla and Elf's backend: append one XOR-coded value.
pub(crate) fn xor_encode_one(
    bits: u64,
    prev: u64,
    window: &mut (u32, u32), // (leading, trailing) of the current window
    out: &mut BitWriter,
) {
    let xor = bits ^ prev;
    if xor == 0 {
        out.write_bit(false);
        return;
    }
    out.write_bit(true);
    let lead = xor.leading_zeros().min(31);
    let trail = xor.trailing_zeros();
    let (wl, wt) = *window;
    let window_valid = wl + wt < 64; // (64, 64) marks "no window yet"
    if window_valid && lead >= wl && trail >= wt {
        // Fits the previous window.
        out.write_bit(false);
        let mlen = 64 - wl - wt;
        out.write_bits(xor >> wt, mlen);
    } else {
        out.write_bit(true);
        let mlen = 64 - lead - trail;
        debug_assert!(mlen >= 1);
        out.write_bits(lead as u64, 5);
        out.write_bits((mlen - 1) as u64, 6);
        out.write_bits(xor >> trail, mlen);
        *window = (lead, trail);
    }
}

/// Shared decoder counterpart of [`xor_encode_one`].
pub(crate) fn xor_decode_one(
    prev: u64,
    window: &mut (u32, u32),
    reader: &mut BitReader<'_>,
) -> DecodeResult<u64> {
    if !reader.read_bit()? {
        return Ok(prev);
    }
    let xor = if !reader.read_bit()? {
        let (wl, wt) = *window;
        if wl + wt >= 64 {
            // Control bit claims a window that never existed.
            return Err(DecodeError::WidthOverflow { width: wl + wt });
        }
        let mlen = 64 - wl - wt;
        reader.read_bits(mlen)? << wt
    } else {
        let lead = reader.read_bits(5)? as u32;
        let mlen = reader.read_bits(6)? as u32 + 1;
        if lead + mlen > 64 {
            return Err(DecodeError::WidthOverflow { width: lead + mlen });
        }
        let trail = 64 - lead - mlen;
        *window = (lead, trail);
        reader.read_bits(mlen)? << trail
    };
    Ok(prev ^ xor)
}

impl FloatCodec for GorillaCodec {
    fn name(&self) -> &'static str {
        "GORILLA"
    }

    fn encode(&self, values: &[f64], out: &mut Vec<u8>) {
        write_varint(out, values.len() as u64);
        if values.is_empty() {
            return;
        }
        let mut bits = BitWriter::with_capacity_bits(values.len() * 16);
        let mut prev = values.first().map_or(0, |v| v.to_bits());
        bits.write_bits(prev, 64);
        let mut window = (64u32, 64u32);
        for &v in values.get(1..).unwrap_or(&[]) {
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
        let mut prev = reader.read_bits(64)?;
        out.reserve(n);
        out.push(f64::from_bits(prev));
        let mut window = (64u32, 64u32);
        for _ in 1..n {
            prev = xor_decode_one(prev, &mut window, &mut reader)?;
            out.push(f64::from_bits(prev));
        }
        // Consume the used bytes (bit stream is byte-padded).
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
        let codec = GorillaCodec::new();
        for case in standard_cases() {
            roundtrip(&codec, &case);
        }
    }

    #[test]
    fn repeats_cost_one_bit() {
        let codec = GorillaCodec::new();
        let size = roundtrip(&codec, &vec![123.456; 8001]);
        // 8 bytes first value + 8000 single-bit repeats = 1000 bytes + eps.
        assert!(size < 1015, "got {size}");
    }

    #[test]
    fn slowly_varying_beats_raw() {
        let codec = GorillaCodec::new();
        let values: Vec<f64> = (0..4096).map(|i| 1000.0 + (i % 16) as f64).collect();
        let size = roundtrip(&codec, &values);
        assert!(size < 4096 * 8 / 2, "got {size}");
    }

    #[test]
    fn window_reuse_paths_hit() {
        // Alternating small perturbations keep reusing the window ('10'),
        // occasional big shifts force new windows ('11').
        let mut values = Vec::new();
        let mut v = 1.0f64;
        for i in 0..2000 {
            v += if i % 100 == 0 { 1e9 } else { 0.125 };
            values.push(v);
        }
        roundtrip(&GorillaCodec::new(), &values);
    }

    #[test]
    fn leading_zero_cap_is_safe() {
        // xor with > 31 leading zeros must still roundtrip (cap at 31).
        let a = f64::from_bits(0x0010_0000_0000_0001);
        let b = f64::from_bits(0x0010_0000_0000_0000);
        roundtrip(&GorillaCodec::new(), &[a, b, a, b]);
    }

    #[test]
    fn truncation_fails_cleanly() {
        let codec = GorillaCodec::new();
        let values: Vec<f64> = (0..100).map(|i| i as f64 * 1.1).collect();
        let mut buf = Vec::new();
        codec.encode(&values, &mut buf);
        for cut in 0..buf.len().saturating_sub(1) {
            let mut pos = 0;
            let mut out = Vec::new();
            assert!(
                codec.decode(&buf[..cut], &mut pos, &mut out).is_err(),
                "cut {cut}"
            );
        }
    }
}
