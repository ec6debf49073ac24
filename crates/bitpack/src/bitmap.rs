//! The outlier-position bitmap of Figure 2.
//!
//! Each index of the block gets a variable-length code telling the decoder
//! which sub-stream the value at that index lives in:
//!
//! * `0`  — center value
//! * `10` — lower outlier
//! * `11` — upper outlier
//!
//! The total cost is exactly `n + nl + nu` bits (every index pays one bit,
//! outliers pay one more), which is the `+ n` and `+ nl`, `+ nu` terms of
//! Definition 5.
//!
//! Codes are written MSB-first by [`BitmapWriter`], which keeps the bits
//! of the codes not yet flushed in a small register and appends each byte
//! as soon as its eight bits are complete, so an encoder writes the bitmap
//! in the same pass that classifies the values, with no part list and no
//! per-bit calls. The last byte is zero-padded.
//!
//! Codes are decoded a byte at a time through one
//! compile-time table of `2 × 256` entries, indexed by whether a `1` from
//! the previous byte still waits for its second bit and by the byte. An
//! entry lists the part of each code that completes in that byte (4 to 8
//! of them), each code's rank among the byte's codes of the same part, the
//! per-part counts, and whether the byte ends on a pending `1`. A block's
//! byte-aligned bitmap region is decoded in one pass:
//! [`OutlierBitmap::gather`] copies each value from the unpacked
//! sub-streams straight into its place in the output (one table lookup per
//! byte, one load and one store per value) and returns the per-part counts
//! of the codes it placed, which the caller checks against its header
//! after the pass. [`OutlierBitmap::count`] tallies the same counts
//! without writing anything; a block decoder runs it only on the error
//! path, to tell a short or miscounted bitmap from a bad sub-stream.

use crate::error::{DecodeError, DecodeResult};

/// Which of the three separated parts a value belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Part {
    /// Center value (`xl < x < xu`), code `0`.
    Center,
    /// Lower outlier (`x ≤ xl`), code `10`.
    Lower,
    /// Upper outlier (`x ≥ xu`), code `11`.
    Upper,
}

/// The codes that complete in one bitmap byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ByteCodes {
    /// Part of each code, in bitmap order. Slots past `len` hold `Center`.
    part: [Part; 8],
    /// Rank of each code among this byte's codes of the same part. Slots
    /// past `len` hold 0.
    rank: [u8; 8],
    /// Number of codes of each part, indexed by `Part as usize`.
    count: [u8; 3],
    /// Number of codes that complete in this byte.
    len: u8,
    /// Whether the byte ends on the first bit of a `10` / `11` code.
    pending: bool,
}

impl ByteCodes {
    /// Parses `byte` bit by bit, MSB first; `pending` says whether the
    /// previous byte ended on the first bit of an outlier code.
    const fn parse(mut pending: bool, byte: u8) -> Self {
        let mut codes = Self {
            part: [Part::Center; 8],
            rank: [0; 8],
            count: [0; 3],
            len: 0,
            pending: false,
        };
        let mut bit = 8;
        while bit > 0 {
            bit -= 1;
            let one = (byte >> bit) & 1 == 1;
            let part = if pending {
                pending = false;
                if one {
                    Part::Upper
                } else {
                    Part::Lower
                }
            } else if one {
                pending = true;
                continue;
            } else {
                Part::Center
            };
            let slot = codes.len as usize;
            codes.part[slot] = part;
            codes.rank[slot] = codes.count[part as usize];
            codes.count[part as usize] += 1;
            codes.len += 1;
        }
        codes.pending = pending;
        codes
    }

    /// The table entry for `byte`.
    #[inline(always)]
    fn of(pending: bool, byte: u8) -> &'static Self {
        &DECODE_TABLE[usize::from(pending)][usize::from(byte)]
    }

    /// Moves each part's read cursor past this byte's codes of that part.
    #[inline(always)]
    fn advance(&self, next: &mut [usize; 3]) {
        for (cursor, &count) in next.iter_mut().zip(&self.count) {
            *cursor = cursor.wrapping_add(usize::from(count));
        }
    }
}

/// [`ByteCodes`] of every byte, indexed by `[pending][byte]`.
static DECODE_TABLE: [[ByteCodes; 256]; 2] = {
    let mut table = [[ByteCodes::parse(false, 0); 256]; 2];
    let mut byte = 0;
    while byte < 256 {
        table[0][byte] = ByteCodes::parse(false, byte as u8);
        table[1][byte] = ByteCodes::parse(true, byte as u8);
        byte += 1;
    }
    table
};

/// The value for code `rank` of `part` in the current byte, or 0 when
/// `values` is shorter than the bitmap claims.
#[inline(always)]
fn pick(values: &[i64], next: &[usize; 3], part: Part, rank: u8) -> i64 {
    let idx = next[part as usize].wrapping_add(usize::from(rank));
    values.get(idx).copied().unwrap_or(0)
}

/// Writes position-bitmap codes to the end of a byte vector, a byte at a
/// time: [`push`](Self::push) one code per value in block order, then
/// [`finish`](Self::finish) to pad and flush the last byte.
#[derive(Debug)]
pub struct BitmapWriter<'a> {
    out: &'a mut Vec<u8>,
    /// `out.len()` when the writer was made.
    start: usize,
    /// The codes not yet flushed, in its low `pending` bits; the bits
    /// above them are stale and never written.
    acc: u32,
    /// Bits of `acc` not yet flushed: 0 to 7 between calls.
    pending: u32,
}

impl<'a> BitmapWriter<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        Self {
            start: out.len(),
            out,
            acc: 0,
            pending: 0,
        }
    }

    /// Appends the code of one value: `0`, `10` or `11`.
    #[inline(always)]
    pub fn push(&mut self, part: Part) {
        let (code, bits) = match part {
            Part::Center => (0b0, 1),
            Part::Lower => (0b10, 2),
            Part::Upper => (0b11, 2),
        };
        self.acc = (self.acc << bits) | code;
        self.pending += bits;
        if self.pending >= 8 {
            self.pending -= 8;
            self.out.push((self.acc >> self.pending) as u8);
        }
    }

    /// Flushes the last byte, zero-padded, and returns the number of code
    /// bits written (`n + nl + nu`).
    pub fn finish(self) -> usize {
        let bits = (self.out.len() - self.start) * 8 + self.pending as usize;
        if self.pending > 0 {
            self.out.push((self.acc << (8 - self.pending)) as u8);
        }
        bits
    }
}

/// Decoder and size rule for the position bitmap.
#[derive(Debug, Default, Clone)]
pub struct OutlierBitmap;

impl OutlierBitmap {
    /// Counts the lower and upper outliers among the first `n` codes of
    /// the byte-aligned bitmap `region`, returned as `(nl, nu)`. Codes
    /// past the `n`-th are ignored. Fails with
    /// [`DecodeError::Truncated`] if fewer than `n` codes fit in `region`.
    pub fn count(region: &[u8], n: usize) -> DecodeResult<(usize, usize)> {
        let (mut lower, mut upper) = (0usize, 0usize);
        let mut left = n;
        let mut pending = false;
        for &byte in region {
            if left == 0 {
                break;
            }
            let codes = ByteCodes::of(pending, byte);
            let len = usize::from(codes.len);
            if len <= left {
                lower += usize::from(codes.count[Part::Lower as usize]);
                upper += usize::from(codes.count[Part::Upper as usize]);
                left -= len;
            } else {
                // The n-th code completes inside this byte.
                for &part in codes.part.iter().take(left) {
                    lower += usize::from(part == Part::Lower);
                    upper += usize::from(part == Part::Upper);
                }
                left = 0;
            }
            pending = codes.pending;
        }
        if left == 0 {
            Ok((lower, upper))
        } else {
            Err(DecodeError::Truncated)
        }
    }

    /// Appends the `n` values of a block to `out` in bitmap order and
    /// returns the lower and upper outlier counts `(nl, nu)` of the first
    /// `n` codes of the byte-aligned bitmap `region`: the counts
    /// [`count`](Self::count) returns, from the same pass that places the
    /// values. `values` holds the block's unpacked sub-streams back to back,
    /// in their stream order: `nl` lower outliers, then `nc` center values,
    /// then the upper outliers; the `k`-th code of a part takes that part's
    /// `k`-th value. Codes past the `n`-th are ignored.
    ///
    /// On `Ok`, `out` has grown by exactly `n`, and the caller checks the
    /// counts against the part sizes it passed. Where they disagree, or
    /// `values` is shorter than the bitmap claims, the values written are
    /// unspecified (a missing value reads as 0), but the call does not
    /// panic. Fails with [`DecodeError::Truncated`], leaving `out` as on
    /// entry, if fewer than `n` codes fit in `region`.
    pub fn gather(
        region: &[u8],
        n: usize,
        values: &[i64],
        nl: usize,
        nc: usize,
        out: &mut Vec<i64>,
    ) -> DecodeResult<(usize, usize)> {
        let start = out.len();
        out.resize(start.saturating_add(n), 0);
        let dst = out.get_mut(start..).unwrap_or_default();
        // Index in `values` of each part's next value, by `Part as usize`.
        // Each cursor moves once per code of its part, so the lower and
        // upper ones end `nl` and `nu` past where they start.
        let upper_start = nl.saturating_add(nc);
        let mut next = [nl, 0, upper_start];
        let mut pending = false;
        let mut done = 0;
        let mut bytes = region.iter();
        // While 8 slots remain, each byte fills all 8; the slots past its
        // own codes are overwritten by the bytes after it.
        while let Some(slots) = dst
            .get_mut(done..)
            .and_then(|rest| rest.first_chunk_mut::<8>())
        {
            let Some(&byte) = bytes.next() else {
                break;
            };
            let codes = ByteCodes::of(pending, byte);
            for (slot, (&part, &rank)) in slots.iter_mut().zip(codes.part.iter().zip(&codes.rank)) {
                *slot = pick(values, &next, part, rank);
            }
            codes.advance(&mut next);
            done += usize::from(codes.len);
            pending = codes.pending;
        }
        // Fewer than 8 slots remain: fill exactly those, a code at a time,
        // so the cursors pass only the first `n` codes.
        for &byte in bytes {
            let rest = dst.get_mut(done..).unwrap_or_default();
            if rest.is_empty() {
                break;
            }
            let codes = ByteCodes::of(pending, byte);
            let take = rest.len().min(usize::from(codes.len));
            for (slot, &part) in rest.iter_mut().zip(&codes.part).take(take) {
                *slot = pick(values, &next, part, 0);
                let cursor = &mut next[part as usize];
                *cursor = cursor.wrapping_add(1);
            }
            done += take;
            pending = codes.pending;
        }
        if done < n {
            out.truncate(start);
            return Err(DecodeError::Truncated);
        }
        let [_, lower, upper] = next;
        Ok((lower, upper.wrapping_sub(upper_start)))
    }

    /// Exact encoded size in bits for `n` values of which `nl` are lower and
    /// `nu` upper outliers.
    pub fn size_bits(n: usize, nl: usize, nu: usize) -> usize {
        n + nl + nu
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::BitReader;

    /// The bitmap of `parts` and its length in bits.
    fn encode_bits(parts: &[Part]) -> (Vec<u8>, usize) {
        let mut region = Vec::new();
        let mut w = BitmapWriter::new(&mut region);
        for &p in parts {
            w.push(p);
        }
        let bits = w.finish();
        (region, bits)
    }

    fn encode(parts: &[Part]) -> Vec<u8> {
        encode_bits(parts).0
    }

    /// Distinct values per part (`-1 - k` lower, `k` center, `1000 + k`
    /// upper for the part's `k`-th value), laid out lower | center | upper as
    /// `gather` expects, plus the block they should decode to.
    fn numbered(parts: &[Part]) -> (Vec<i64>, usize, usize, Vec<i64>) {
        let mut seen = [0i64; 3];
        let expected: Vec<i64> = parts
            .iter()
            .map(|&p| {
                let k = seen[p as usize];
                seen[p as usize] += 1;
                match p {
                    Part::Lower => -1 - k,
                    Part::Center => k,
                    Part::Upper => 1000 + k,
                }
            })
            .collect();
        let [nc, nl, nu] = seen;
        let mut values: Vec<i64> = (0..nl).map(|k| -1 - k).collect();
        values.extend(0..nc);
        values.extend((0..nu).map(|k| 1000 + k));
        (values, nl as usize, nc as usize, expected)
    }

    /// Gather as a block decoder does, and count apart.
    fn decode(parts: &[Part]) {
        let region = encode(parts);
        let (values, nl, nc, expected) = numbered(parts);
        let nu = parts.len() - nl - nc;
        assert_eq!(OutlierBitmap::count(&region, parts.len()), Ok((nl, nu)));
        let mut out = vec![7, 8];
        assert_eq!(
            OutlierBitmap::gather(&region, parts.len(), &values, nl, nc, &mut out),
            Ok((nl, nu))
        );
        assert_eq!(out[..2], [7, 8], "gather must only append");
        assert_eq!(out[2..], expected[..], "parts {parts:?}");
    }

    #[test]
    fn table_matches_bit_serial_parse() {
        for pending in [false, true] {
            for byte in 0..=255u8 {
                let mut r = BitReader::new(std::slice::from_ref(&byte));
                let mut waiting = pending;
                let mut parts = Vec::new();
                while let Ok(bit) = r.read_bit() {
                    if waiting {
                        parts.push(if bit { Part::Upper } else { Part::Lower });
                        waiting = false;
                    } else if bit {
                        waiting = true;
                    } else {
                        parts.push(Part::Center);
                    }
                }
                let codes = ByteCodes::of(pending, byte);
                let len = usize::from(codes.len);
                assert_eq!(len, parts.len(), "pending {pending}, byte {byte:#010b}");
                assert!((4..=8).contains(&len));
                assert_eq!(codes.part[..len], parts[..]);
                assert!(codes.part[len..].iter().all(|&p| p == Part::Center));
                assert!(codes.rank[len..].iter().all(|&r| r == 0));
                let mut count = [0u8; 3];
                for (&p, &rank) in codes.part.iter().zip(&codes.rank).take(len) {
                    assert_eq!(rank, count[p as usize]);
                    count[p as usize] += 1;
                }
                assert_eq!(codes.count, count);
                assert_eq!(codes.pending, waiting);
            }
        }
    }

    #[test]
    fn paper_figure2_cost() {
        // A block of n values with nl lower and nu upper outliers costs
        // exactly n + nl + nu bits.
        let parts = [
            Part::Center,
            Part::Center,
            Part::Lower,
            Part::Upper,
            Part::Center,
            Part::Upper,
        ];
        let (region, bits) = encode_bits(&parts);
        assert_eq!(bits, OutlierBitmap::size_bits(6, 1, 2));
        assert_eq!(bits, 9);
        // 0 0 10 11 0 11, padded: 0010_1101 1000_0000.
        assert_eq!(region, [0b0010_1101, 0b1000_0000]);
        decode(&parts);
    }

    #[test]
    fn roundtrip_all_combinations() {
        let parts: Vec<Part> = (0..300)
            .map(|i| match i % 3 {
                0 => Part::Center,
                1 => Part::Lower,
                _ => Part::Upper,
            })
            .collect();
        // Every prefix length, so the tail path sees every n % 8.
        for n in 0..=parts.len() {
            decode(&parts[..n]);
        }
    }

    #[test]
    fn code_straddling_a_byte() {
        // Seven centers, then an upper outlier whose `1x` spans bytes 0
        // and 1, then a lower one straddling bytes 1 and 2.
        let mut parts = vec![Part::Center; 7];
        parts.push(Part::Upper);
        parts.extend([Part::Center; 6]);
        parts.push(Part::Lower);
        parts.extend([Part::Center; 10]);
        let region = encode(&parts);
        assert_eq!(region[0] & 1, 1, "byte 0 must end on a pending 1");
        assert_eq!(region[1] & 1, 1, "byte 1 must end on a pending 1");
        decode(&parts);
    }

    #[test]
    fn all_upper_block() {
        for n in [1, 4, 7, 8, 9, 64, 65] {
            decode(&vec![Part::Upper; n]);
            decode(&vec![Part::Lower; n]);
        }
    }

    #[test]
    fn all_center_is_one_bit_each() {
        let parts = vec![Part::Center; 64];
        let (region, bits) = encode_bits(&parts);
        assert_eq!(bits, 64);
        assert_eq!(region, [0; 8]);
        decode(&parts);
    }

    #[test]
    fn truncated_region_is_an_error() {
        // 4 uppers fill exactly 1 byte; a fifth code does not fit.
        let region = encode(&[Part::Upper; 4]);
        assert_eq!(
            OutlierBitmap::count(&region, 5),
            Err(DecodeError::Truncated)
        );
        // A region one byte short of its codes.
        let parts = [
            Part::Lower,
            Part::Center,
            Part::Upper,
            Part::Upper,
            Part::Center,
            Part::Center,
        ];
        let region = encode(&parts);
        assert_eq!(region.len(), 2);
        assert_eq!(OutlierBitmap::count(&region, 6), Ok((1, 2)));
        assert_eq!(
            OutlierBitmap::count(&region[..1], 6),
            Err(DecodeError::Truncated)
        );
        // A code cut after its first bit is truncated, not a center.
        assert_eq!(
            OutlierBitmap::count(&[0b0000_0001], 8),
            Err(DecodeError::Truncated)
        );
        assert_eq!(OutlierBitmap::count(&[0b0000_0001], 7), Ok((0, 0)));
        assert_eq!(OutlierBitmap::count(&[], 0), Ok((0, 0)));
        assert_eq!(OutlierBitmap::count(&[], 1), Err(DecodeError::Truncated));
        // The gather fails alike and leaves its output as it found it.
        let values = [0i64; 8];
        for (region, n) in [(&[0b0000_0001][..], 8), (&[][..], 1), (&region[..1], 6)] {
            let mut out = vec![7, 8];
            assert_eq!(
                OutlierBitmap::gather(region, n, &values, 1, 3, &mut out),
                Err(DecodeError::Truncated)
            );
            assert_eq!(out, [7, 8]);
        }
    }
}
