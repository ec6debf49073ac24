//! Zigzag signed↔unsigned mapping and LEB128 varints.
//!
//! Delta streams produced by TS2DIFF/SPRINTZ are signed and centered near
//! zero; zigzag folds them into small unsigned integers that bit-packing can
//! exploit. Block headers (counts, minima) are stored as varints so small
//! blocks stay small.

#![deny(clippy::indexing_slicing)]

use crate::error::{DecodeError, DecodeResult};

/// Maps `i64` to `u64` such that small-magnitude values map to small
/// unsigned values: 0→0, −1→1, 1→2, −2→3, …
#[inline]
pub fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
#[inline]
pub fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends `v` as an LEB128 varint (1–10 bytes).
#[inline]
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint from `buf[*pos..]`, advancing `pos`.
///
/// Fails with [`DecodeError::Truncated`] if the buffer ends mid-varint and
/// [`DecodeError::VarintOverflow`] if the encoding runs past 64 bits.
#[inline]
pub fn read_varint(buf: &[u8], pos: &mut usize) -> DecodeResult<u64> {
    let mut out = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos).ok_or(DecodeError::Truncated)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(DecodeError::VarintOverflow);
        }
        out |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(out);
        }
        shift += 7;
        if shift > 63 {
            return Err(DecodeError::VarintOverflow);
        }
    }
}

/// Reads a varint-encoded *length* and checks it against the largest value
/// its context can possibly hold before anything is allocated from it.
///
/// Every length field a decoder reads from untrusted bytes (element counts,
/// name lengths, payload sizes, footer entry counts) must come through here
/// rather than `read_varint(..)? as usize`: a corrupt 8-byte varint would
/// otherwise size a multi-gigabyte `Vec` reservation from ten bytes of
/// garbage. The `xtask lint` rule `len-read-bounded` holds the decode
/// modules to this.
///
/// `bound` is inclusive. Fails with [`DecodeError::LengthOverrun`] when the
/// claim exceeds it (and propagates `Truncated`/`VarintOverflow` from the
/// underlying varint read).
#[inline]
pub fn read_len_bounded(buf: &[u8], pos: &mut usize, bound: usize) -> DecodeResult<usize> {
    let claimed = read_varint(buf, pos)?;
    if claimed > bound as u64 {
        return Err(DecodeError::LengthOverrun {
            claimed,
            bound: bound as u64,
        });
    }
    Ok(claimed as usize)
}

/// Appends a signed value as zigzag varint.
#[inline]
pub fn write_varint_i64(out: &mut Vec<u8>, v: i64) {
    write_varint(out, zigzag_encode(v));
}

/// Reads a zigzag varint as a signed value.
#[inline]
pub fn read_varint_i64(buf: &[u8], pos: &mut usize) -> DecodeResult<i64> {
    read_varint(buf, pos).map(zigzag_decode)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zigzag_known_values() {
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
        assert_eq!(zigzag_encode(-2), 3);
        assert_eq!(zigzag_encode(2), 4);
        assert_eq!(zigzag_encode(i64::MAX), u64::MAX - 1);
        assert_eq!(zigzag_encode(i64::MIN), u64::MAX);
    }

    #[test]
    fn zigzag_roundtrip_extremes() {
        for v in [0, 1, -1, i64::MAX, i64::MIN, 42, -42, 1 << 62, -(1 << 62)] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
    }

    #[test]
    fn varint_roundtrip() {
        let values = [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX,
            u64::MAX - 1,
        ];
        let mut buf = Vec::new();
        for &v in &values {
            write_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint(&buf, &mut pos), Ok(v));
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_sizes() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 127);
        assert_eq!(buf.len(), 1);
        buf.clear();
        write_varint(&mut buf, 128);
        assert_eq!(buf.len(), 2);
        buf.clear();
        write_varint(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10);
    }

    #[test]
    fn varint_truncation_is_none() {
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX);
        let mut pos = 0;
        assert_eq!(
            read_varint(&buf[..5], &mut pos),
            Err(DecodeError::Truncated)
        );
    }

    #[test]
    fn varint_overlong_rejected() {
        // 11 continuation bytes can never be a valid u64 varint.
        let buf = [0x80u8; 11];
        let mut pos = 0;
        assert_eq!(
            read_varint(&buf, &mut pos),
            Err(DecodeError::VarintOverflow)
        );
    }

    #[test]
    fn len_bounded_accepts_up_to_the_bound() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 100);
        let mut pos = 0;
        assert_eq!(read_len_bounded(&buf, &mut pos, 100), Ok(100));
        assert_eq!(pos, buf.len());
        let mut pos = 0;
        assert_eq!(read_len_bounded(&buf, &mut pos, usize::MAX), Ok(100));
    }

    #[test]
    fn len_bounded_rejects_overrun_before_allocation() {
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX - 3);
        let mut pos = 0;
        assert_eq!(
            read_len_bounded(&buf, &mut pos, 1 << 20),
            Err(DecodeError::LengthOverrun {
                claimed: u64::MAX - 3,
                bound: 1 << 20
            })
        );
        // Off-by-one: bound is inclusive.
        let mut buf = Vec::new();
        write_varint(&mut buf, 101);
        let mut pos = 0;
        assert_eq!(
            read_len_bounded(&buf, &mut pos, 100),
            Err(DecodeError::LengthOverrun {
                claimed: 101,
                bound: 100
            })
        );
    }

    #[test]
    fn len_bounded_propagates_varint_errors() {
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX);
        let mut pos = 0;
        assert_eq!(
            read_len_bounded(&buf[..4], &mut pos, 10),
            Err(DecodeError::Truncated)
        );
        let overlong = [0x80u8; 11];
        let mut pos = 0;
        assert_eq!(
            read_len_bounded(&overlong, &mut pos, 10),
            Err(DecodeError::VarintOverflow)
        );
    }

    #[test]
    fn signed_varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [0i64, -1, 1, i64::MIN, i64::MAX, -123456789];
        for &v in &values {
            write_varint_i64(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_varint_i64(&buf, &mut pos), Ok(v));
        }
    }
}
