//! The on-disk block layout of Section VII (Figure 7).
//!
//! A block is self-describing:
//!
//! ```text
//! varint n · mode byte
//! mode 0 (plain BP):  zigzag xmin · width byte ·
//!                     word-packed payload (`packed_size(n, w)` bytes)
//! mode 1 (separated): varint nl · varint nu
//!                     zigzag xmin
//!                     varint (min Xc − xmin)   [present iff nc > 0]
//!                     varint (min Xu − xmin)   [present iff nu > 0]
//!                     bytes α β γ
//!                     position bitmap (Fig. 2: 0 / 10 / 11, n+nl+nu bits,
//!                     padded to a whole byte)
//!                     word-packed lower sub-stream  (nl values @ α bits)
//!                     word-packed center sub-stream (nc values @ β bits)
//!                     word-packed upper sub-stream  (nu values @ γ bits)
//! ```
//!
//! Matching the paper: lower outliers store `ξ(l) = x − xmin` in `α` bits,
//! center values `ξ(c) = x − min Xc` in `β` bits, upper outliers
//! `ξ(u) = x − min Xu` in `γ` bits.
//!
//! A separated block encodes in one pass over its values that needs only
//! the thresholds `(xl, xu)`: each value is classified, counted into its
//! part's size, minimum and maximum, set aside for its part's sub-stream,
//! and given its bitmap code through [`bitpack::bitmap::BitmapWriter`],
//! which emits the bitmap a byte at a time. The header (part sizes,
//! bases and widths, all read off those minima and maxima) is written
//! after the pass, then the bitmap and the three sub-streams. No sorted
//! summary of the block is built: the solver already had one, and the
//! encoder does not need it.
//!
//! As in the paper, a separated block decodes in one scan of its bitmap.
//! The three sub-streams unpack back to back into a scratch vector that
//! each thread keeps from block to block. One pass of the byte table of
//! [`bitpack::bitmap`] then copies every value from there to its place in
//! the output, in bitmap order, and tallies the lower/upper counts, which
//! are checked against the header after the pass. Only when that fails,
//! or a sub-stream does not unpack, is the bitmap counted a second time,
//! so that a short or miscounted bitmap is reported before a bad
//! sub-stream, with the same error and position as a decoder that counts
//! first. On `Err` the output is as on entry.
//!
//! The three sub-streams are separate word-packed regions (each in the
//! exact `pack_words` layout, produced and consumed by the fused
//! frame-of-reference kernels in `bitpack::unrolled`) rather than one
//! value-interleaved bit stream: uniform-width runs are what the unrolled
//! kernels accelerate, and each region rounds up to whole 64-bit words.
//! The solver still decides plain-vs-separated on the *bit-exact* cost
//! model of Definition 5 (`Evaluation::cost_bits`); the stored form pays
//! at most ~7 bytes of padding per region on top of that, which
//! `separated_payload_bytes` accounts for exactly.

#![deny(clippy::indexing_slicing)]

use std::cell::Cell;

use crate::cost::{Separation, Solution};
use bitpack::bitmap::{BitmapWriter, OutlierBitmap, Part};
use bitpack::error::{DecodeError, DecodeResult};
use bitpack::kernels::{packed_size, unpack_words};
use bitpack::unrolled::{pack_words_for, unpack_words_for};
use bitpack::width::{range_u64, width, width1};
use bitpack::zigzag::{
    read_len_bounded, read_varint, read_varint_i64, write_varint, write_varint_i64,
};

/// Mode byte: plain frame-of-reference bit-packing.
const MODE_PLAIN: u8 = 0;
/// Mode byte: outlier separation.
const MODE_SEPARATED: u8 = 1;

// Separation shape metrics, recorded at encode time where the chosen
// evaluation is already in hand (no recomputation): the lower-outlier
// width α and the upper-outlier count nu, whose percentiles `exp_obs`
// reports. The trail's `BlockSeparated` event carries all six numbers.
static BLOCKS_PLAIN: obs::CounterHandle = obs::CounterHandle::new("bos.blocks_plain");
static BLOCKS_SEPARATED: obs::CounterHandle = obs::CounterHandle::new("bos.blocks_separated");
static WIDTH_ALPHA: obs::HistogramHandle = obs::HistogramHandle::new("bos.separated.alpha");
static PART_NU: obs::HistogramHandle = obs::HistogramHandle::new("bos.separated.nu");

/// Encodes one block with a pre-computed solution: the block encoder
/// behind [`BosCodec::encode`](crate::BosCodec::encode), also used by
/// tests and by callers that already ran the solver for cost statistics.
pub fn encode_block_with_solution(values: &[i64], solution: &Solution, out: &mut Vec<u8>) {
    write_varint(out, values.len() as u64);
    if values.is_empty() {
        return;
    }
    match solution.separation() {
        None => encode_plain(values, out),
        Some(sep) => encode_separated(values, sep, out),
    }
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

fn encode_plain(values: &[i64], out: &mut Vec<u8>) {
    out.push(MODE_PLAIN);
    let xmin = values.iter().copied().min().unwrap_or(0);
    let xmax = values.iter().copied().max().unwrap_or(0);
    let w = width(range_u64(xmin, xmax));
    BLOCKS_PLAIN.inc();
    obs::trail::emit(obs::trail::Event::BlockPlain {
        n: values.len() as u64,
        width: w as u8,
    });
    write_varint_i64(out, xmin);
    out.push(w as u8);
    pack_words_for(values, xmin, w, out);
}

/// Size and value range of one part of a separated block, gathered by
/// the encoder's classifying pass.
#[derive(Clone, Copy)]
struct PartStats {
    n: usize,
    min: i64,
    max: i64,
}

impl PartStats {
    const EMPTY: Self = Self {
        n: 0,
        min: i64::MAX,
        max: i64::MIN,
    };

    #[inline(always)]
    fn add(&mut self, x: i64) {
        self.n += 1;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// The part's width: `width1(max − min)`, or 0 when it is empty. This
    /// is α, β or γ of Definition 5, since the lower part holds `xmin` and
    /// the upper part `xmax`.
    fn width(&self) -> u32 {
        if self.n == 0 {
            0
        } else {
            width1(range_u64(self.min, self.max))
        }
    }
}

/// Encodes a separated block in one pass over `values`: each value is
/// classified by `(xl, xu)` alone, counted into its part's size and range,
/// given its bitmap code, and set aside for its part's sub-stream. The
/// header fields, part bases and widths equal what
/// [`SortedBlock::evaluate`](crate::cost::SortedBlock::evaluate) gives for
/// the same separation, so the bytes are those the cost model priced.
///
/// Panics if `sep` is invalid (`xl ≥ xu`).
fn encode_separated(values: &[i64], sep: Separation, out: &mut Vec<u8>) {
    assert!(sep.is_valid(), "invalid separation: xl >= xu");
    let n = values.len();
    let (mut lower, mut center, mut upper) = (PartStats::EMPTY, PartStats::EMPTY, PartStats::EMPTY);
    // Center values in order; lower outliers from the front of `outliers`
    // and upper ones from its back, so neither buffer needs the part sizes
    // up front.
    let mut centers = Vec::with_capacity(n);
    let mut outliers = vec![0i64; n];
    // The bitmap goes after the header, which needs the whole pass.
    let mut bitmap = Vec::with_capacity(n.div_ceil(4));
    {
        let mut codes = BitmapWriter::new(&mut bitmap);
        let mut slots = outliers.iter_mut();
        for &x in values {
            if sep.xl.is_some_and(|xl| x <= xl) {
                lower.add(x);
                codes.push(Part::Lower);
                if let Some(slot) = slots.next() {
                    *slot = x;
                }
            } else if sep.xu.is_some_and(|xu| x >= xu) {
                upper.add(x);
                codes.push(Part::Upper);
                if let Some(slot) = slots.next_back() {
                    *slot = x;
                }
            } else {
                center.add(x);
                codes.push(Part::Center);
                centers.push(x);
            }
        }
        codes.finish();
    }
    // Upper outliers went in back to front.
    let upper_start = n - upper.n;
    outliers
        .get_mut(upper_start..)
        .unwrap_or_default()
        .reverse();
    let lower_values = outliers.get(..lower.n).unwrap_or_default();
    let upper_values = outliers.get(upper_start..).unwrap_or_default();

    let (alpha, beta, gamma) = (lower.width(), center.width(), upper.width());
    BLOCKS_SEPARATED.inc();
    WIDTH_ALPHA.record(u64::from(alpha));
    PART_NU.record(upper.n as u64);
    obs::trail::emit(obs::trail::Event::BlockSeparated {
        alpha: alpha as u8,
        beta: beta as u8,
        gamma: gamma as u8,
        nl: lower.n as u64,
        nc: center.n as u64,
        nu: upper.n as u64,
    });
    out.push(MODE_SEPARATED);
    // An empty part's minimum is i64::MAX, so this is the block minimum.
    let xmin = lower.min.min(center.min).min(upper.min);
    write_varint(out, lower.n as u64);
    write_varint(out, upper.n as u64);
    write_varint_i64(out, xmin);
    if center.n > 0 {
        write_varint(out, range_u64(xmin, center.min));
    }
    if upper.n > 0 {
        write_varint(out, range_u64(xmin, upper.min));
    }
    out.push(alpha as u8);
    out.push(beta as u8);
    out.push(gamma as u8);

    let payload_start = out.len();
    // Bitmap first (Fig. 7: bit indicators precede the value payload),
    // padded to a whole byte so the sub-streams start byte-aligned.
    out.extend_from_slice(&bitmap);
    // Three word-packed sub-streams, each via the fused subtract-and-pack
    // kernel — no per-part delta vector is materialized.
    pack_words_for(lower_values, xmin, alpha, out);
    pack_words_for(&centers, center.min, beta, out);
    pack_words_for(upper_values, upper.min, gamma, out);
    debug_assert_eq!(
        Some(out.len() - payload_start),
        separated_payload_bytes(n, lower.n, upper.n, center.n, alpha, beta, gamma),
        "encoder payload must equal the shared layout-size helper"
    );
}

/// Header-only summary of one encoded block: enough for zone-map style
/// block skipping without touching the payload.
///
/// `min` is exact (both modes store the block minimum in the header);
/// `max_bound` is an inclusive upper bound derived from the part bases and
/// widths (`base + 2^width - 1`). The actual maximum may be smaller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSummary {
    /// Number of values in the block.
    pub n: usize,
    /// Exact minimum and inclusive maximum *bound*; `None` for an empty
    /// block.
    pub bounds: Option<(i64, i64)>,
    /// Whether the block uses outlier separation (vs. plain packing).
    pub separated: bool,
    /// Total encoded size in bytes (header + payload).
    pub encoded_len: usize,
}

#[inline]
fn bound_from(base: i64, w: u32) -> i64 {
    let hi = base as i128 + ((1i128 << w) - 1);
    hi.min(i64::MAX as i128) as i64
}

/// Reads one block's header from `buf[*pos..]`, advancing `pos` past the
/// *entire* block (payload included) without decoding any values.
/// Fails with a [`DecodeError`] on corruption or truncation.
pub fn peek_block(buf: &[u8], pos: &mut usize) -> DecodeResult<BlockSummary> {
    let start = *pos;
    let n = read_len_bounded(buf, pos, bitpack::MAX_BLOCK_VALUES)?;
    if n == 0 {
        return Ok(BlockSummary {
            n: 0,
            bounds: None,
            separated: false,
            encoded_len: *pos - start,
        });
    }
    let mode = *buf.get(*pos).ok_or(DecodeError::Truncated)?;
    *pos += 1;
    match mode {
        MODE_PLAIN => {
            let xmin = read_varint_i64(buf, pos)?;
            let w = *buf.get(*pos).ok_or(DecodeError::Truncated)? as u32;
            *pos += 1;
            if w > 64 {
                return Err(DecodeError::WidthOverflow { width: w });
            }
            let payload_bytes =
                packed_size(n, w).ok_or(DecodeError::CountOverflow { claimed: n as u64 })?;
            let end = pos
                .checked_add(payload_bytes)
                .ok_or(DecodeError::Truncated)?;
            if buf.len() < end {
                return Err(DecodeError::Truncated);
            }
            *pos = end;
            Ok(BlockSummary {
                n,
                bounds: Some((xmin, bound_from(xmin, w))),
                separated: false,
                encoded_len: *pos - start,
            })
        }
        MODE_SEPARATED => {
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
            // Highest non-empty part gives the max bound.
            let max_bound = if nu > 0 {
                bound_from(min_xu, gamma)
            } else if nc > 0 {
                bound_from(min_xc, beta)
            } else {
                bound_from(xmin, alpha)
            };
            let payload_bytes = separated_payload_bytes(n, nl, nu, nc, alpha, beta, gamma)
                .ok_or(DecodeError::CountOverflow { claimed: n as u64 })?;
            let end = pos
                .checked_add(payload_bytes)
                .ok_or(DecodeError::Truncated)?;
            if buf.len() < end {
                return Err(DecodeError::Truncated);
            }
            *pos = end;
            Ok(BlockSummary {
                n,
                bounds: Some((xmin, max_bound)),
                separated: true,
                encoded_len: *pos - start,
            })
        }
        mode => Err(DecodeError::BadModeByte { mode }),
    }
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
/// `buf[*pos..]`, appending the restored `base + offset` values to `out`.
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
    out: &mut Vec<i64>,
) -> DecodeResult<()> {
    if count == 0 {
        return Ok(());
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
        *pos += unpack_words_for(payload, count, w, base, out)?;
    } else {
        let mut raw = Vec::with_capacity(count);
        // lint:allow(unchecked-arith-in-decode): kernel returns at most payload.len() consumed bytes
        *pos += unpack_words(payload, count, w, &mut raw)?;
        for off in raw {
            out.push(
                base.checked_add_unsigned(off)
                    .ok_or(DecodeError::ValueOverflow)?,
            );
        }
    }
    Ok(())
}

thread_local! {
    /// The unpacked sub-streams of the separated block this thread is
    /// decoding, kept from block to block so that a decode allocates
    /// nothing per block.
    static UNPACKED: Cell<Vec<i64>> = const { Cell::new(Vec::new()) };
}

/// Largest scratch, in values, a thread keeps for its next block. A
/// header may claim up to [`bitpack::MAX_BLOCK_VALUES`]; a scratch that
/// grew past this for one such block is freed with it.
const KEPT_SCRATCH_VALUES: usize = 1 << 16;

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
    let bitmap_start = *pos;
    let bitmap_bytes = OutlierBitmap::size_bits(n, nl, nu).div_ceil(8);
    let bitmap_end = pos
        .checked_add(bitmap_bytes)
        .ok_or(DecodeError::Truncated)?;
    let bitmap_region = buf.get(*pos..bitmap_end).ok_or(DecodeError::Truncated)?;
    *pos = bitmap_end;

    // The three sub-streams decode through the fused kernels into this
    // thread's scratch, back to back in stream order (lower | center |
    // upper); the gather then copies each value to its place in `out` by
    // its bitmap code and counts the codes of each part.
    let mut unpacked = UNPACKED.try_with(Cell::take).unwrap_or_default();
    unpacked.clear();
    let start = out.len();
    let tallies = unpack_part(buf, pos, nl, alpha, xmin, &mut unpacked)
        .and_then(|()| unpack_part(buf, pos, nc, beta, min_xc, &mut unpacked))
        .and_then(|()| unpack_part(buf, pos, nu, gamma, min_xu, &mut unpacked))
        .and_then(|()| OutlierBitmap::gather(bitmap_region, n, &unpacked, nl, nc, out));
    if unpacked.capacity() <= KEPT_SCRATCH_VALUES {
        // Fails only while the thread is being torn down.
        let _ = UNPACKED.try_with(|cell| cell.set(unpacked));
    }
    if tallies == Ok((nl, nu)) {
        return Ok(());
    }

    // The error path. A short bitmap or one whose counts disagree with the
    // header is reported before a bad sub-stream, at the position where
    // a count pass ahead of the unpack would have stopped.
    out.truncate(start);
    let (seen_l, seen_u) = OutlierBitmap::count(bitmap_region, n).inspect_err(|_| {
        *pos = bitmap_start;
    })?;
    if seen_l != nl || seen_u != nu {
        *pos = bitmap_end;
        return Err(DecodeError::BitmapCountMismatch {
            header_lower: nl,
            header_upper: nu,
            bitmap_lower: seen_l,
            bitmap_upper: seen_u,
        });
    }
    // The bitmap is sound and the gather counts what `count` counts, so
    // `tallies` holds the sub-stream's error.
    tallies.map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::SortedBlock;
    use crate::solver::{solve_values, BitWidthSolver};
    use crate::{BosCodec, SolverKind};

    const INTRO: [i64; 8] = [3, 2, 4, 5, 3, 2, 0, 8];

    /// One block encoded by the shipping encoder, BOS-B.
    fn encode_bosb(values: &[i64], out: &mut Vec<u8>) {
        BosCodec::new(SolverKind::BitWidth).encode(values, out);
    }

    fn roundtrip_with(values: &[i64], kind: SolverKind) -> Vec<u8> {
        let mut buf = Vec::new();
        BosCodec::new(kind).encode(values, &mut buf);
        let mut pos = 0;
        let mut out = Vec::new();
        decode_block(&buf, &mut pos, &mut out).expect("decode");
        assert_eq!(out, values, "roundtrip mismatch for {}", kind.label());
        assert_eq!(pos, buf.len());
        buf
    }

    #[test]
    fn roundtrip_all_solvers() {
        let cases: Vec<Vec<i64>> = vec![
            INTRO.to_vec(),
            vec![],
            vec![42],
            vec![7; 50],
            (0..300).collect(),
            vec![i64::MIN, -1, 0, 1, i64::MAX],
            vec![0, 1, 2, 3, 1 << 40, (1 << 40) + 1],
            (0..256)
                .map(|i| if i % 37 == 0 { -(1 << 30) } else { i % 17 })
                .collect(),
        ];
        for case in &cases {
            roundtrip_with(case, SolverKind::Value);
            roundtrip_with(case, SolverKind::BitWidth);
            roundtrip_with(case, SolverKind::Median);
            roundtrip_with(case, SolverKind::ValueUpperOnly);
        }
    }

    #[test]
    fn separated_block_is_smaller_for_intro() {
        // The paper's intro example: the solver's *bit* cost model picks
        // separation (24 payload bits vs 32 for plain). The stored form
        // word-pads each region, so the byte saving only shows once blocks
        // amortize the padding — both facts are asserted here.
        let solution = solve_values(&BitWidthSolver::new(), &INTRO);
        let Solution::Separated { cost_bits, .. } = solution else {
            panic!("intro example must separate");
        };
        assert_eq!(cost_bits, 24);
        assert_eq!(SortedBlock::from_values(&INTRO).plain_cost_bits(), 32);
        roundtrip_with(&INTRO, SolverKind::BitWidth);

        // Same outlier shape at a realistic block size: separation must
        // win on disk despite word padding.
        let big: Vec<i64> = (0..4096)
            .map(|i| if i % 512 == 7 { 1 << 40 } else { i % 6 })
            .collect();
        let mut plain = Vec::new();
        let plain_cost = SortedBlock::from_values(&big).plain_cost_bits();
        encode_block_with_solution(
            &big,
            &Solution::Plain {
                cost_bits: plain_cost,
            },
            &mut plain,
        );
        let sep = roundtrip_with(&big, SolverKind::BitWidth);
        let mut pos = 0;
        let summary = peek_block(&sep, &mut pos).expect("peek");
        assert!(summary.separated, "solver must separate the outlier block");
        assert!(
            sep.len() * 5 < plain.len(),
            "{} vs {}",
            sep.len(),
            plain.len()
        );
    }

    #[test]
    fn forced_separation_roundtrip() {
        // Force an arbitrary valid separation, even a silly one.
        let values = [10i64, 20, 30, 40, 50];
        for sep in [
            Separation {
                xl: Some(10),
                xu: Some(50),
            },
            Separation {
                xl: Some(20),
                xu: None,
            },
            Separation {
                xl: None,
                xu: Some(30),
            },
            Separation {
                xl: Some(30),
                xu: Some(40),
            },
        ] {
            let block = SortedBlock::from_values(&values);
            let eval = block.evaluate(sep);
            let solution = Solution::Separated {
                sep,
                cost_bits: eval.cost_bits,
            };
            let mut buf = Vec::new();
            encode_block_with_solution(&values, &solution, &mut buf);
            let mut pos = 0;
            let mut out = Vec::new();
            decode_block(&buf, &mut pos, &mut out).expect("decode");
            assert_eq!(out, values, "sep {sep:?}");
        }
    }

    #[test]
    fn corrupt_inputs_do_not_panic() {
        let mut buf = Vec::new();
        encode_bosb(&INTRO, &mut buf);
        // Truncations at every length must fail cleanly or succeed (a
        // truncation can still contain a full valid block only at full
        // length).
        for cut in 0..buf.len() {
            let mut pos = 0;
            let mut out = Vec::new();
            assert!(
                decode_block(&buf[..cut], &mut pos, &mut out).is_err(),
                "cut at {cut} unexpectedly decoded"
            );
        }
        // Bad mode byte.
        let mut bad = buf.clone();
        bad[1] = 99;
        let mut pos = 0;
        let mut out = Vec::new();
        assert_eq!(
            decode_block(&bad, &mut pos, &mut out),
            Err(DecodeError::BadModeByte { mode: 99 })
        );
    }

    /// Hand-built separated header for `n = 2`: no lower outlier, one
    /// center value, one upper outlier (`nl = 0`, `nu = 1`).
    fn two_value_separated_header(xmin: i64, xu_off: u64, widths: [u8; 3]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_varint(&mut buf, 2); // n
        buf.push(MODE_SEPARATED);
        write_varint(&mut buf, 0); // nl
        write_varint(&mut buf, 1); // nu
        write_varint_i64(&mut buf, xmin);
        write_varint(&mut buf, 0); // min Xc − xmin
        write_varint(&mut buf, xu_off); // min Xu − xmin
        buf.extend_from_slice(&widths);
        buf
    }

    #[test]
    fn bases_near_i64_max_are_value_overflow() {
        // The upper base sits exactly on i64::MAX, so its 1-bit part takes
        // the checked fallback in `unpack_part`; the stored offset 1 must
        // surface as ValueOverflow, never wrap.
        let mut buf = two_value_separated_header(i64::MAX - 1, 1, [0, 0, 1]);
        let mut codes = BitmapWriter::new(&mut buf);
        codes.push(Part::Center);
        codes.push(Part::Upper);
        codes.finish();
        bitpack::kernels::pack_words(&[1], 1, &mut buf);
        let mut pos = 0;
        assert!(peek_block(&buf, &mut pos).is_ok(), "header is well formed");
        assert_eq!(pos, buf.len());
        let mut pos = 0;
        let mut out = Vec::new();
        assert_eq!(
            decode_block(&buf, &mut pos, &mut out),
            Err(DecodeError::ValueOverflow)
        );

        // A part base past i64::MAX fails in `read_part_base`, before any
        // payload is read, on both the decode and the peek path.
        let buf = two_value_separated_header(i64::MAX, 1, [0, 0, 0]);
        let mut pos = 0;
        assert_eq!(peek_block(&buf, &mut pos), Err(DecodeError::ValueOverflow));
        let mut pos = 0;
        let mut out = Vec::new();
        assert_eq!(
            decode_block(&buf, &mut pos, &mut out),
            Err(DecodeError::ValueOverflow)
        );
    }

    #[test]
    fn empty_block_is_one_byte() {
        let mut buf = Vec::new();
        BosCodec::new(SolverKind::Value).encode(&[], &mut buf);
        assert_eq!(buf, vec![0]);
        let mut pos = 0;
        let mut out = Vec::new();
        decode_block(&buf, &mut pos, &mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn peek_matches_decode() {
        let cases: Vec<Vec<i64>> = vec![
            INTRO.to_vec(),
            vec![],
            vec![42],
            vec![7; 50],
            (0..300).collect(),
            vec![i64::MIN, -1, 0, 1, i64::MAX],
            vec![0, 1, 2, 3, 1 << 40, (1 << 40) + 1],
        ];
        for case in &cases {
            for solver_plain in [false, true] {
                let mut buf = Vec::new();
                if solver_plain {
                    let plain = Solution::Plain {
                        cost_bits: if case.is_empty() {
                            0
                        } else {
                            SortedBlock::from_values(case).plain_cost_bits()
                        },
                    };
                    encode_block_with_solution(case, &plain, &mut buf);
                } else {
                    encode_bosb(case, &mut buf);
                }
                let mut ppos = 0;
                let summary = peek_block(&buf, &mut ppos).expect("peek");
                assert_eq!(ppos, buf.len(), "peek must advance past the block");
                assert_eq!(summary.encoded_len, buf.len());
                assert_eq!(summary.n, case.len());
                let mut dpos = 0;
                let mut out = Vec::new();
                decode_block(&buf, &mut dpos, &mut out).expect("decode");
                if let Some((lo, hi)) = summary.bounds {
                    let actual_min = *out.iter().min().expect("non-empty");
                    let actual_max = *out.iter().max().expect("non-empty");
                    assert_eq!(lo, actual_min, "min must be exact");
                    assert!(hi >= actual_max, "max bound must cover the max");
                } else {
                    assert!(out.is_empty());
                }
            }
        }
    }

    #[test]
    fn peek_rejects_truncation() {
        let mut buf = Vec::new();
        encode_bosb(&INTRO, &mut buf);
        for cut in 0..buf.len() {
            let mut pos = 0;
            assert!(peek_block(&buf[..cut], &mut pos).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn multiple_blocks_in_one_buffer() {
        let mut buf = Vec::new();
        encode_bosb(&INTRO, &mut buf);
        encode_bosb(&[9, 9, 9], &mut buf);
        encode_bosb(&[-5, 1000, -5], &mut buf);
        let mut pos = 0;
        let mut out = Vec::new();
        decode_block(&buf, &mut pos, &mut out).unwrap();
        decode_block(&buf, &mut pos, &mut out).unwrap();
        decode_block(&buf, &mut pos, &mut out).unwrap();
        assert_eq!(pos, buf.len());
        let mut expected = INTRO.to_vec();
        expected.extend([9, 9, 9, -5, 1000, -5]);
        assert_eq!(out, expected);
    }
}
