//! Classic PFOR (Zukowski, Héman, Nes, Boncz — ICDE 2006).
//!
//! Every value gets a `b`-bit slot. Values that fit are stored directly;
//! values that do not ("exceptions") keep their full-width representation
//! in a separate uncompressed array, while their slot stores the distance
//! to the *next* exception, forming a linked list through the block. When
//! two consecutive exceptions are further apart than the list can express
//! (`2^b` slots), a **compulsory exception** is inserted in between — the
//! flaw the paper highlights ("this solution may introduce a large number
//! of compulsory outliers").
//!
//! Format v2 layout (word-packed):
//! `varint n · u8 version(2) · zigzag min · w_full · b · varint n_exc ·
//! [varint first_exc] · word-packed n×b slot stream (`packed_size(n, b)`
//! bytes, `bitpack::unrolled`) · word-packed n_exc×w_full exception
//! stream`. Both sub-streams are byte-aligned and decoded with the
//! unrolled lane kernels; any other version byte is rejected with
//! [`DecodeError::BadModeByte`].

use crate::{for_restore, for_transform, FORMAT_V2};
use bitpack::codec::BlockCodec;
use bitpack::error::{DecodeError, DecodeResult};
use bitpack::unrolled::{pack_words_unrolled, unpack_words_for, unpack_words_unrolled};
use bitpack::width::width;
use bitpack::zigzag::{read_len_bounded, read_varint_i64, write_varint, write_varint_i64};

// Exception-rate metrics: the PFOR cost model targets ~10% exceptions
// per block; the histogram shows the realized per-block distribution.
static EXCEPTIONS: obs::CounterHandle = obs::CounterHandle::new("pfor.exceptions");
static BLOCK_EXCEPTIONS: obs::HistogramHandle = obs::HistogramHandle::new("pfor.block_exceptions");

/// The original patched frame-of-reference codec.
#[derive(Debug, Clone, Copy, Default)]
pub struct PforCodec;

impl PforCodec {
    /// Creates the codec.
    pub fn new() -> Self {
        Self
    }

    /// Picks the slot width by minimizing the estimated size over a width
    /// histogram (compulsory exceptions are ignored in the estimate, as in
    /// the original heuristic).
    fn choose_b(shifted: &[u64], w_full: u32) -> u32 {
        let mut hist = [0usize; 65];
        for &v in shifted {
            hist[width(v) as usize] += 1;
        }
        let n = shifted.len();
        let mut best_b = w_full;
        let mut best_cost = n as u64 * w_full as u64;
        // exceeding[b] = number of values with width > b.
        let mut exceeding = 0usize;
        for b in (0..w_full).rev() {
            exceeding += hist[b as usize + 1];
            if b == 0 && exceeding > 0 {
                continue; // zero-width slots cannot hold the offset chain
            }
            let cost = n as u64 * b as u64 + exceeding as u64 * w_full as u64;
            if cost < best_cost {
                best_cost = cost;
                best_b = b;
            }
        }
        best_b
    }

    /// Exception indices for slot width `b`, including compulsory ones.
    fn exception_positions(shifted: &[u64], b: u32) -> Vec<usize> {
        let max_gap = 1u128 << b;
        let mut exceptions = Vec::new();
        let mut last: Option<usize> = None;
        for (i, &v) in shifted.iter().enumerate() {
            if width(v) > b {
                // Chain compulsory exceptions until `i` is reachable.
                while let Some(l) = last {
                    if (i - l) as u128 <= max_gap {
                        break;
                    }
                    let c = l + max_gap as usize;
                    exceptions.push(c);
                    last = Some(c);
                }
                exceptions.push(i);
                last = Some(i);
            }
        }
        exceptions
    }
}

impl BlockCodec for PforCodec {
    fn name(&self) -> &'static str {
        "PFOR"
    }

    fn encode(&self, values: &[i64], out: &mut Vec<u8>) {
        write_varint(out, values.len() as u64);
        if values.is_empty() {
            return;
        }
        out.push(FORMAT_V2);
        let (min, shifted) = for_transform(values);
        let w_full = width(shifted.iter().copied().max().unwrap_or(0));
        let b = Self::choose_b(&shifted, w_full);
        let exceptions = Self::exception_positions(&shifted, b);
        EXCEPTIONS.add(exceptions.len() as u64);
        BLOCK_EXCEPTIONS.record(exceptions.len() as u64);

        write_varint_i64(out, min);
        out.push(w_full as u8);
        out.push(b as u8);
        write_varint(out, exceptions.len() as u64);
        if let Some(&first) = exceptions.first() {
            write_varint(out, first as u64);
        }

        // Slot stream: value, or offset-to-next-exception-minus-1 for
        // exceptions, word-packed at width b.
        let mut slots = Vec::with_capacity(shifted.len());
        let mut next_exc = exceptions.iter().copied().peekable();
        for (i, &v) in shifted.iter().enumerate() {
            if next_exc.peek() == Some(&i) {
                next_exc.next();
                let gap = match next_exc.peek() {
                    Some(&nx) => (nx - i - 1) as u64,
                    None => 0,
                };
                slots.push(gap);
            } else {
                slots.push(v);
            }
        }
        pack_words_unrolled(&slots, b, out);

        // Exception values at full width, in chain order.
        let excs: Vec<u64> = exceptions.iter().map(|&i| shifted[i]).collect();
        pack_words_unrolled(&excs, w_full, out);
    }

    fn decode(&self, buf: &[u8], pos: &mut usize, out: &mut Vec<i64>) -> DecodeResult<()> {
        let n = read_len_bounded(buf, pos, bitpack::MAX_BLOCK_VALUES)?;
        if n == 0 {
            return Ok(());
        }
        let ver = *buf.get(*pos).ok_or(DecodeError::Truncated)?;
        *pos += 1;
        if ver != FORMAT_V2 {
            return Err(DecodeError::BadModeByte { mode: ver });
        }
        let min = read_varint_i64(buf, pos)?;
        let w_full = *buf.get(*pos).ok_or(DecodeError::Truncated)? as u32;
        let b = *buf.get(*pos + 1).ok_or(DecodeError::Truncated)? as u32;
        *pos += 2;
        if w_full > 64 || b > 64 {
            return Err(DecodeError::WidthOverflow {
                width: w_full.max(b),
            });
        }
        let n_exc = read_len_bounded(buf, pos, n)?;
        let first_exc = if n_exc > 0 {
            // First chain index must land inside the block: bound n - 1.
            Some(read_len_bounded(buf, pos, n - 1)?)
        } else {
            None
        };

        // Slots restore straight to `min + slot`; exception slots hold a
        // chain gap instead of a value and are patched below.
        let start = out.len();
        let consumed = unpack_words_for(
            buf.get(*pos..).ok_or(DecodeError::Truncated)?,
            n,
            b,
            min,
            out,
        )?;
        *pos += consumed;

        let mut excs = Vec::with_capacity(n_exc);
        let consumed = unpack_words_unrolled(
            buf.get(*pos..).ok_or(DecodeError::Truncated)?,
            n_exc,
            w_full,
            &mut excs,
        )?;
        *pos += consumed;

        // Patch the exception chain.
        let mut cur = first_exc;
        for (patched, &value) in excs.iter().enumerate() {
            let i = cur.ok_or(DecodeError::LengthMismatch {
                expected: n_exc,
                got: patched,
            })?;
            let slot_ref = out
                .get_mut(start + i)
                .ok_or(DecodeError::CountOverflow { claimed: i as u64 })?;
            let gap = (slot_ref.wrapping_sub(min)) as u64;
            *slot_ref = for_restore(min, value);
            // i + 1 <= n, so only the gap addition can overflow; a
            // too-large gap (corrupt input) just ends the chain and the
            // next iteration reports LengthMismatch.
            cur = match (i + 1).checked_add(gap as usize) {
                Some(nxt) if nxt < n => Some(nxt),
                _ => None,
            };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{roundtrip, standard_cases};

    #[test]
    fn roundtrip_standard() {
        let codec = PforCodec::new();
        for case in standard_cases() {
            roundtrip(&codec, &case);
        }
    }

    #[test]
    fn exceptions_reduce_size() {
        // 1 % huge outliers: PFOR must beat plain BP clearly.
        let values: Vec<i64> = (0..4096)
            .map(|i| if i % 100 == 0 { 1 << 40 } else { i % 16 })
            .collect();
        let pfor = roundtrip(&PforCodec::new(), &values);
        let bp = roundtrip(&crate::BpCodec::new(), &values);
        assert!(pfor * 3 < bp, "pfor {pfor} vs bp {bp}");
    }

    #[test]
    fn compulsory_exceptions_chain_works() {
        // Two outliers separated by far more than 2^b slots with tiny b:
        // the encoder must insert compulsory links.
        let mut values = vec![0i64; 5000];
        values[1] = 1 << 50;
        values[4998] = 1 << 50;
        roundtrip(&PforCodec::new(), &values);
    }

    #[test]
    fn exception_at_first_and_last() {
        let mut values: Vec<i64> = (0..256).map(|i| i % 4).collect();
        values[0] = 1 << 30;
        values[255] = 1 << 30;
        roundtrip(&PforCodec::new(), &values);
    }

    #[test]
    fn all_values_are_exceptions() {
        // When every value is wide, choose_b should fall back to b = w_full
        // (no exceptions at all).
        let values: Vec<i64> = (0..64).map(|i| (1 << 40) + i).collect();
        roundtrip(&PforCodec::new(), &values);
    }

    #[test]
    fn chain_positions_match_exception_count() {
        let shifted: Vec<u64> = (0..100u64)
            .map(|i| if i % 10 == 0 { 1 << 20 } else { i % 10 })
            .collect();
        let exc = PforCodec::exception_positions(&shifted, 4);
        // Natural exceptions every 10 values, gap 10 ≤ 2^4 = 16: no
        // compulsory ones needed.
        assert_eq!(exc.len(), 10);
        let exc2 = PforCodec::exception_positions(&shifted, 2);
        // Gap 10 > 2^2 = 4: compulsory links appear.
        assert!(exc2.len() > 10);
    }

    #[test]
    fn truncation_fails_cleanly() {
        let codec = PforCodec::new();
        let values: Vec<i64> = (0..500)
            .map(|i| if i % 31 == 0 { 1 << 45 } else { i % 13 })
            .collect();
        let mut buf = Vec::new();
        codec.encode(&values, &mut buf);
        for cut in 0..buf.len() {
            let mut pos = 0;
            let mut out = Vec::new();
            assert!(codec.decode(&buf[..cut], &mut pos, &mut out).is_err());
        }
    }
}
