//! Frozen reference copy of the sort-based BOS block encoder.
//!
//! This is the block encode path as it stood before the one-pass encoder:
//! a separated block is re-summarized with `SortedBlock::from_values`,
//! priced with `evaluate`, classified into a `Vec<Part>` and three part
//! vectors, and its position bitmap is written one bit at a time through
//! `BitWriter` (the bit-serial `OutlierBitmap::encode`, copied here as
//! `bitmap_encode`). Verbatim apart from the dropped obs counters and trail
//! events. The differential proptests in `proptests.rs` pin the shipping
//! encoder to write the same bytes for solver outputs and for arbitrary
//! valid separations.
//!
//! Nothing here is wired into any encode path; do not "optimize" this file.

use bitpack::bitmap::{OutlierBitmap, Part};
use bitpack::bits::BitWriter;
use bitpack::kernels::packed_size;
use bitpack::unrolled::pack_words_for;
use bitpack::width::{range_u64, width};
use bitpack::zigzag::{write_varint, write_varint_i64};
use bos::{Evaluation, Solution, SortedBlock};

/// Mode byte: plain frame-of-reference bit-packing.
const MODE_PLAIN: u8 = 0;
/// Mode byte: outlier separation.
const MODE_SEPARATED: u8 = 1;

/// The bit-serial `OutlierBitmap::encode`: writes the codes for `parts`
/// into `out`. Returns the number of bits written (`n + nl + nu`).
fn bitmap_encode(parts: &[Part], out: &mut BitWriter) -> usize {
    let before = out.len_bits();
    for &p in parts {
        match p {
            Part::Center => out.write_bit(false),
            Part::Lower => {
                out.write_bit(true);
                out.write_bit(false);
            }
            Part::Upper => {
                out.write_bit(true);
                out.write_bit(true);
            }
        }
    }
    out.len_bits() - before
}

/// Encodes one block with a pre-computed solution (used by tests and by
/// callers that already ran the solver for cost statistics).
pub fn encode_block_with_solution(values: &[i64], solution: &Solution, out: &mut Vec<u8>) {
    write_varint(out, values.len() as u64);
    if values.is_empty() {
        return;
    }
    match solution.separation() {
        None => encode_plain(values, out),
        Some(sep) => {
            let block = SortedBlock::from_values(values);
            let eval = block.evaluate(sep);
            encode_separated(values, &block, &eval, out);
        }
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
    write_varint_i64(out, xmin);
    out.push(w as u8);
    pack_words_for(values, xmin, w, out);
}

fn encode_separated(values: &[i64], block: &SortedBlock, eval: &Evaluation, out: &mut Vec<u8>) {
    out.push(MODE_SEPARATED);
    let xmin = block.xmin();
    write_varint(out, eval.nl as u64);
    write_varint(out, eval.nu as u64);
    write_varint_i64(out, xmin);
    if let (true, Some(min_xc)) = (eval.nc > 0, eval.min_xc) {
        write_varint(out, range_u64(xmin, min_xc));
    }
    if let (true, Some(min_xu)) = (eval.nu > 0, eval.min_xu) {
        write_varint(out, range_u64(xmin, min_xu));
    }
    out.push(eval.alpha as u8);
    out.push(eval.beta as u8);
    out.push(eval.gamma as u8);

    // Classify once; boundaries come from the evaluation so the split is
    // identical to the one the cost was computed for.
    let lower_bound = eval.max_xl; // x ≤ max Xl  → lower
    let upper_bound = eval.min_xu; // x ≥ min Xu  → upper
    let min_xc = eval.min_xc.unwrap_or(xmin);
    let min_xu = eval.min_xu.unwrap_or(xmin);

    let mut parts = Vec::with_capacity(values.len());
    let mut lower = Vec::with_capacity(eval.nl);
    let mut center = Vec::with_capacity(eval.nc);
    let mut upper = Vec::with_capacity(eval.nu);
    for &x in values {
        let p = part_of(x, lower_bound, upper_bound);
        parts.push(p);
        match p {
            Part::Lower => lower.push(x),
            Part::Center => center.push(x),
            Part::Upper => upper.push(x),
        }
    }
    debug_assert_eq!(
        (lower.len(), center.len(), upper.len()),
        (eval.nl, eval.nc, eval.nu)
    );

    let payload_start = out.len();
    // Bitmap first (Fig. 7: bit indicators precede the value payload),
    // padded to a whole byte so the sub-streams start byte-aligned.
    let mut bits =
        BitWriter::with_capacity_bits(OutlierBitmap::size_bits(values.len(), eval.nl, eval.nu));
    bitmap_encode(&parts, &mut bits);
    out.extend_from_slice(&bits.into_bytes());
    // Three word-packed sub-streams, each via the fused subtract-and-pack
    // kernel — no per-part delta vector is materialized.
    pack_words_for(&lower, xmin, eval.alpha, out);
    pack_words_for(&center, min_xc, eval.beta, out);
    pack_words_for(&upper, min_xu, eval.gamma, out);
    debug_assert_eq!(
        Some(out.len() - payload_start),
        separated_payload_bytes(
            values.len(),
            eval.nl,
            eval.nu,
            eval.nc,
            eval.alpha,
            eval.beta,
            eval.gamma
        ),
        "encoder payload must equal the shared layout-size helper"
    );
}

#[inline]
fn part_of(x: i64, lower_bound: Option<i64>, upper_bound: Option<i64>) -> Part {
    if lower_bound.is_some_and(|b| x <= b) {
        Part::Lower
    } else if upper_bound.is_some_and(|b| x >= b) {
        Part::Upper
    } else {
        Part::Center
    }
}
