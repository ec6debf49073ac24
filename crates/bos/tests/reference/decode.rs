//! Frozen reference copy of the bit-serial BOS block decoder.
//!
//! This is the separated-block decode path as it stood before the
//! table-driven position-bitmap decoder (`bitpack::bitmap`): the bitmap is
//! read one bit at a time into a `Vec<Part>`, counted, and the three
//! sub-streams are scattered back through iterators. The header readers
//! and `decode_block`'s dispatch are copied with it; plain mode calls the
//! public unpack kernel. The differential proptests in `proptests.rs` pin
//! the shipping decoder to return the same result, position and output on
//! valid, truncated, bit-flipped and random bytes.
//!
//! Nothing here is wired into any decode path; do not "optimize" this file.

use bitpack::bitmap::{OutlierBitmap, Part};
use bitpack::bits::BitReader;
use bitpack::error::{DecodeError, DecodeResult};
use bitpack::kernels::{packed_size, unpack_words};
use bitpack::unrolled::unpack_words_for;
use bitpack::zigzag::{read_len_bounded, read_varint, read_varint_i64};

/// Mode byte: plain frame-of-reference bit-packing.
const MODE_PLAIN: u8 = 0;
/// Mode byte: outlier separation.
const MODE_SEPARATED: u8 = 1;

/// The bit-serial `OutlierBitmap::decode`: reads `n` part codes. Fails
/// with `DecodeError::Truncated` on a short stream.
fn bitmap_decode(reader: &mut BitReader<'_>, n: usize, out: &mut Vec<Part>) -> DecodeResult<()> {
    out.reserve(n);
    for _ in 0..n {
        let part = if reader.read_bit()? {
            if reader.read_bit()? {
                Part::Upper
            } else {
                Part::Lower
            }
        } else {
            Part::Center
        };
        out.push(part);
    }
    Ok(())
}

/// Exact stored payload size of a separated block (bitmap region plus the
/// three word-packed sub-streams), or `None` on arithmetic overflow.
/// Shared by the encoder (as a self-check), [`peek_block`], and the
/// decoder's truncation pre-check.
fn separated_payload_bytes(
    n: usize,
    nl: usize,
    nu: usize,
    nc: usize,
    alpha: u32,
    beta: u32,
    gamma: u32,
) -> Option<usize> {
    let bitmap = OutlierBitmap::size_bits(n, nl, nu).div_ceil(8);
    let mut total = bitmap;
    for (count, w) in [(nl, alpha), (nc, beta), (nu, gamma)] {
        total = total.checked_add(packed_size(count, w)?)?;
    }
    Some(total)
}

/// Reads the `nl`/`nu` header varints and derives `nc`, rejecting counts
/// that do not sum to `n`.
fn read_part_counts(buf: &[u8], pos: &mut usize, n: usize) -> DecodeResult<(usize, usize, usize)> {
    let nl = read_len_bounded(buf, pos, n)?;
    let nu = read_len_bounded(buf, pos, n - nl)?;
    let nc = n - nl - nu;
    Ok((nl, nu, nc))
}

/// Reads a part base stored as an unsigned offset from `xmin`.
fn read_part_base(buf: &[u8], pos: &mut usize, xmin: i64) -> DecodeResult<i64> {
    xmin.checked_add_unsigned(read_varint(buf, pos)?)
        .ok_or(DecodeError::ValueOverflow)
}

/// Reads the three per-part width bytes `α β γ`, rejecting widths over 64.
fn read_part_widths(buf: &[u8], pos: &mut usize) -> DecodeResult<(u32, u32, u32)> {
    let alpha = *buf.get(*pos).ok_or(DecodeError::Truncated)? as u32;
    let beta = *buf.get(*pos + 1).ok_or(DecodeError::Truncated)? as u32;
    let gamma = *buf.get(*pos + 2).ok_or(DecodeError::Truncated)? as u32;
    *pos += 3;
    for w in [alpha, beta, gamma] {
        if w > 64 {
            return Err(DecodeError::WidthOverflow { width: w });
        }
    }
    Ok((alpha, beta, gamma))
}

/// Decodes one block from `buf[*pos..]`, appending the values to `out`.
/// Fails with a [`DecodeError`] on any structural corruption or truncation.
pub fn decode_block(buf: &[u8], pos: &mut usize, out: &mut Vec<i64>) -> DecodeResult<()> {
    let n = read_len_bounded(buf, pos, bitpack::MAX_BLOCK_VALUES)?;
    if n == 0 {
        return Ok(());
    }
    let mode = *buf.get(*pos).ok_or(DecodeError::Truncated)?;
    *pos += 1;
    match mode {
        MODE_PLAIN => decode_plain(buf, pos, n, out),
        MODE_SEPARATED => decode_separated(buf, pos, n, out),
        mode => Err(DecodeError::BadModeByte { mode }),
    }
}

fn decode_plain(buf: &[u8], pos: &mut usize, n: usize, out: &mut Vec<i64>) -> DecodeResult<()> {
    let xmin = read_varint_i64(buf, pos)?;
    let w = *buf.get(*pos).ok_or(DecodeError::Truncated)? as u32;
    *pos += 1;
    if w > 64 {
        return Err(DecodeError::WidthOverflow { width: w });
    }
    let consumed = unpack_words_for(
        buf.get(*pos..).ok_or(DecodeError::Truncated)?,
        n,
        w,
        xmin,
        out,
    )?;
    // lint:allow(unchecked-arith-in-decode): consumed <= buf.len() - *pos by the kernel's contract
    *pos += consumed;
    Ok(())
}

/// Decodes one word-packed sub-stream of `count` offsets at width `w` from
/// `buf[*pos..]`, restoring `base + offset` values.
///
/// When `base + (2^w − 1)` fits in `i64` no decoded value can overflow, so
/// the fused wrapping-add kernel is provably exact and we take it; a base
/// close enough to `i64::MAX` for overflow to be *possible* (only
/// reachable via corrupt or adversarial headers) falls back to a
/// per-value checked add that surfaces [`DecodeError::ValueOverflow`].
fn unpack_part(
    buf: &[u8],
    pos: &mut usize,
    count: usize,
    w: u32,
    base: i64,
) -> DecodeResult<Vec<i64>> {
    let mut vals = Vec::with_capacity(count);
    if count == 0 {
        return Ok(vals);
    }
    let payload = buf.get(*pos..).ok_or(DecodeError::Truncated)?;
    let max_off = if w == 0 {
        0
    } else if w == 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    };
    if base.checked_add_unsigned(max_off).is_some() {
        // lint:allow(unchecked-arith-in-decode): kernel returns at most payload.len() consumed bytes
        *pos += unpack_words_for(payload, count, w, base, &mut vals)?;
    } else {
        let mut raw = Vec::with_capacity(count);
        // lint:allow(unchecked-arith-in-decode): kernel returns at most payload.len() consumed bytes
        *pos += unpack_words(payload, count, w, &mut raw)?;
        for off in raw {
            vals.push(
                base.checked_add_unsigned(off)
                    .ok_or(DecodeError::ValueOverflow)?,
            );
        }
    }
    Ok(vals)
}

fn decode_separated(buf: &[u8], pos: &mut usize, n: usize, out: &mut Vec<i64>) -> DecodeResult<()> {
    let (nl, nu, nc) = read_part_counts(buf, pos, n)?;
    let xmin = read_varint_i64(buf, pos)?;
    let min_xc = if nc > 0 {
        read_part_base(buf, pos, xmin)?
    } else {
        xmin
    };
    let min_xu = if nu > 0 {
        read_part_base(buf, pos, xmin)?
    } else {
        xmin
    };
    let (alpha, beta, gamma) = read_part_widths(buf, pos)?;

    // Whole-payload truncation pre-check (also validates the size
    // arithmetic), then the byte-aligned bitmap region.
    let payload_bytes = separated_payload_bytes(n, nl, nu, nc, alpha, beta, gamma)
        .ok_or(DecodeError::CountOverflow { claimed: n as u64 })?;
    let payload_end = pos
        .checked_add(payload_bytes)
        .ok_or(DecodeError::Truncated)?;
    if buf.len() < payload_end {
        return Err(DecodeError::Truncated);
    }
    let bitmap_bytes = OutlierBitmap::size_bits(n, nl, nu).div_ceil(8);
    let bitmap_end = pos
        .checked_add(bitmap_bytes)
        .ok_or(DecodeError::Truncated)?;
    let bitmap_region = buf.get(*pos..bitmap_end).ok_or(DecodeError::Truncated)?;
    let mut reader = BitReader::new(bitmap_region);
    let mut parts = Vec::with_capacity(n);
    bitmap_decode(&mut reader, n, &mut parts)?;
    *pos = bitmap_end;
    // Validate the counts the bitmap claims against the header.
    let seen_l = parts.iter().filter(|&&p| p == Part::Lower).count();
    let seen_u = parts.iter().filter(|&&p| p == Part::Upper).count();
    if seen_l != nl || seen_u != nu {
        return Err(DecodeError::BitmapCountMismatch {
            header_lower: nl,
            header_upper: nu,
            bitmap_lower: seen_l,
            bitmap_upper: seen_u,
        });
    }

    // The three sub-streams decode as contiguous uniform-width runs
    // through the fused kernels, then scatter back to original order by
    // walking the bitmap.
    let lower = unpack_part(buf, pos, nl, alpha, xmin)?;
    let center = unpack_part(buf, pos, nc, beta, min_xc)?;
    let upper = unpack_part(buf, pos, nu, gamma, min_xu)?;
    let mut lower = lower.into_iter();
    let mut center = center.into_iter();
    let mut upper = upper.into_iter();
    out.reserve(n);
    for &p in &parts {
        let v = match p {
            Part::Lower => lower.next(),
            Part::Center => center.next(),
            Part::Upper => upper.next(),
        }
        // Unreachable: the bitmap counts were validated against the
        // header counts each stream was sized by.
        .ok_or(DecodeError::Truncated)?;
        out.push(v);
    }
    Ok(())
}
