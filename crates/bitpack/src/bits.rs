//! MSB-first bit stream reader and writer.
//!
//! The BOS block format (Fig. 7 of the paper) mixes fields of many different
//! bit-widths: per-part payload widths `α`, `β`, `γ`, the variable-length
//! position bitmap, and packed values. Both ends therefore operate on a plain
//! bit stream rather than byte-aligned records.
//!
//! Bits are written most-significant-first within each byte, matching the
//! conventional on-disk layout of IoTDB's bit-packing and making hex dumps
//! human-readable.

#![deny(clippy::indexing_slicing)]

use crate::error::{DecodeError, DecodeResult};

/// Appends bits to a growable byte buffer, MSB-first.
///
/// ```
/// use bitpack::{BitWriter, BitReader};
/// let mut w = BitWriter::new();
/// w.write_bits(0b101, 3);
/// w.write_bits(0xFF, 8);
/// let (buf, bits) = w.finish();
/// assert_eq!(bits, 11);
/// let mut r = BitReader::new(&buf);
/// assert_eq!(r.read_bits(3), Ok(0b101));
/// assert_eq!(r.read_bits(8), Ok(0xFF));
/// ```
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Number of valid bits in `buf` (the last byte may be partial).
    len_bits: usize,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with capacity for `bits` bits.
    pub fn with_capacity_bits(bits: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bits.div_ceil(8)),
            len_bits: 0,
        }
    }

    /// Number of bits written so far.
    pub fn len_bits(&self) -> usize {
        self.len_bits
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len_bits == 0
    }

    /// Writes the low `width` bits of `value`, most significant first.
    ///
    /// `width` may be 0 (writes nothing) up to 64. Bits of `value` above
    /// `width` are ignored.
    #[inline]
    pub fn write_bits(&mut self, value: u64, width: u32) {
        debug_assert!(width <= 64);
        if width == 0 {
            return;
        }
        let value = if width == 64 {
            value
        } else {
            value & ((1u64 << width) - 1)
        };
        let mut remaining = width;
        while remaining > 0 {
            let bit_pos = self.len_bits & 7;
            if bit_pos == 0 {
                self.buf.push(0);
            }
            let avail = 8 - bit_pos as u32;
            let take = avail.min(remaining);
            // The `take` bits we emit are the most significant of the
            // `remaining` bits still pending.
            let chunk = (value >> (remaining - take)) & ((1u64 << take) - 1);
            if let Some(byte) = self.buf.last_mut() {
                *byte |= (chunk as u8) << (avail - take);
            }
            self.len_bits += take as usize;
            remaining -= take;
        }
    }

    /// Writes a single bit.
    #[inline]
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(bit as u64, 1);
    }

    /// Appends the full content of another writer, preserving bit alignment.
    pub fn append(&mut self, other: &BitWriter) {
        let mut remaining = other.len_bits;
        let mut bytes = other.buf.iter().copied();
        while remaining >= 8 {
            let byte = bytes.next().unwrap_or(0);
            self.write_bits(byte as u64, 8);
            remaining -= 8;
        }
        if remaining > 0 {
            let byte = bytes.next().unwrap_or(0);
            self.write_bits((byte >> (8 - remaining)) as u64, remaining as u32);
        }
    }

    /// Pads with zero bits to the next byte boundary.
    pub fn align_to_byte(&mut self) {
        let rem = self.len_bits & 7;
        if rem != 0 {
            self.write_bits(0, 8 - rem as u32);
        }
    }

    /// Consumes the writer, returning the byte buffer and the exact bit count.
    pub fn finish(self) -> (Vec<u8>, usize) {
        (self.buf, self.len_bits)
    }

    /// Consumes the writer, returning only the (zero-padded) byte buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Reads bits from a byte slice, MSB-first. Mirror of [`BitWriter`].
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    pos_bits: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `buf`, starting at bit 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos_bits: 0 }
    }

    /// Current bit position from the start of the buffer.
    pub fn position_bits(&self) -> usize {
        self.pos_bits
    }

    /// Number of bits remaining.
    pub fn remaining_bits(&self) -> usize {
        self.buf.len() * 8 - self.pos_bits
    }

    /// Reads `width` (0..=64) bits; fails with [`DecodeError::Truncated`]
    /// if the buffer is exhausted before `width` bits are available.
    #[inline]
    pub fn read_bits(&mut self, width: u32) -> DecodeResult<u64> {
        debug_assert!(width <= 64);
        if width == 0 {
            return Ok(0);
        }
        if self.remaining_bits() < width as usize {
            return Err(DecodeError::Truncated);
        }
        let mut out = 0u64;
        let mut remaining = width;
        while remaining > 0 {
            let byte = self
                .buf
                .get(self.pos_bits >> 3)
                .copied()
                .ok_or(DecodeError::Truncated)?;
            let bit_pos = (self.pos_bits & 7) as u32;
            let avail = 8 - bit_pos;
            let take = avail.min(remaining);
            let chunk = ((byte << bit_pos) >> (8 - take)) as u64;
            out = if take == 64 {
                chunk
            } else {
                (out << take) | chunk
            };
            self.pos_bits += take as usize;
            remaining -= take;
        }
        Ok(out)
    }

    /// Reads a single bit.
    #[inline]
    pub fn read_bit(&mut self) -> DecodeResult<bool> {
        self.read_bits(1).map(|b| b != 0)
    }

    /// Skips forward to the next byte boundary.
    pub fn align_to_byte(&mut self) {
        let rem = self.pos_bits & 7;
        if rem != 0 {
            self.pos_bits += 8 - rem;
        }
    }

    /// Skips `width` bits; fails with [`DecodeError::Truncated`] on
    /// underflow.
    pub fn skip_bits(&mut self, width: usize) -> DecodeResult<()> {
        if self.remaining_bits() < width {
            return Err(DecodeError::Truncated);
        }
        self.pos_bits += width;
        Ok(())
    }

    /// Returns the rest of the buffer starting from the current byte
    /// boundary (aligning first).
    pub fn remaining_bytes(&mut self) -> &'a [u8] {
        self.align_to_byte();
        self.buf.get(self.pos_bits >> 3..).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_simple() {
        let mut w = BitWriter::new();
        w.write_bits(0b1, 1);
        w.write_bits(0b0110, 4);
        w.write_bits(u64::MAX, 64);
        w.write_bits(0, 0);
        w.write_bits(12345, 17);
        let (buf, bits) = w.finish();
        assert_eq!(bits, 1 + 4 + 64 + 17);
        let mut r = BitReader::new(&buf);
        assert_eq!(r.read_bits(1), Ok(1));
        assert_eq!(r.read_bits(4), Ok(0b0110));
        assert_eq!(r.read_bits(64), Ok(u64::MAX));
        assert_eq!(r.read_bits(0), Ok(0));
        assert_eq!(r.read_bits(17), Ok(12345));
    }

    #[test]
    fn width_masks_high_bits() {
        let mut w = BitWriter::new();
        w.write_bits(0xFFFF_FFFF_FFFF_FFFF, 3);
        let (buf, _) = w.finish();
        let mut r = BitReader::new(&buf);
        assert_eq!(r.read_bits(3), Ok(0b111));
    }

    #[test]
    fn underflow_returns_none() {
        let mut r = BitReader::new(&[0xAB]);
        assert_eq!(r.read_bits(8), Ok(0xAB));
        assert_eq!(r.read_bits(1), Err(DecodeError::Truncated));
    }

    #[test]
    fn read_across_byte_boundaries() {
        let mut w = BitWriter::new();
        for i in 0..100u64 {
            w.write_bits(i, 7);
        }
        let (buf, _) = w.finish();
        let mut r = BitReader::new(&buf);
        for i in 0..100u64 {
            assert_eq!(r.read_bits(7), Ok(i));
        }
    }

    #[test]
    fn align_and_remaining_bytes() {
        let mut w = BitWriter::new();
        w.write_bits(0b101, 3);
        w.align_to_byte();
        w.write_bits(0xDE, 8);
        w.write_bits(0xAD, 8);
        let (buf, bits) = w.finish();
        assert_eq!(bits, 24);
        let mut r = BitReader::new(&buf);
        assert_eq!(r.read_bits(3), Ok(0b101));
        assert_eq!(r.remaining_bytes(), &[0xDE, 0xAD]);
    }

    #[test]
    fn append_preserves_bits() {
        let mut a = BitWriter::new();
        a.write_bits(0b11, 2);
        let mut b = BitWriter::new();
        b.write_bits(0x1234, 13);
        b.write_bits(1, 1);
        a.append(&b);
        let (buf, bits) = a.finish();
        assert_eq!(bits, 16);
        let mut r = BitReader::new(&buf);
        assert_eq!(r.read_bits(2), Ok(0b11));
        assert_eq!(r.read_bits(13), Ok(0x1234));
        assert_eq!(r.read_bits(1), Ok(1));
    }

    #[test]
    fn skip_bits_works() {
        let mut w = BitWriter::new();
        w.write_bits(0xFFFF, 16);
        w.write_bits(0b1010, 4);
        let (buf, _) = w.finish();
        let mut r = BitReader::new(&buf);
        r.skip_bits(16).unwrap();
        assert_eq!(r.read_bits(4), Ok(0b1010));
        assert!(r.skip_bits(5).is_err());
    }

    #[test]
    fn write_bit_and_read_bit() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.write_bit(b);
        }
        let (buf, bits) = w.finish();
        assert_eq!(bits, pattern.len());
        let mut r = BitReader::new(&buf);
        for &b in &pattern {
            assert_eq!(r.read_bit(), Ok(b));
        }
    }

    #[test]
    fn empty_writer() {
        let w = BitWriter::new();
        assert!(w.is_empty());
        let (buf, bits) = w.finish();
        assert!(buf.is_empty());
        assert_eq!(bits, 0);
    }
}
