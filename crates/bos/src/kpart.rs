//! Generalization of BOS from 3 parts to k parts (Figure 14).
//!
//! The paper's §VIII-D2 varies the number of divided value parts from 1 to
//! 7 and observes that 3 parts (lower outliers / center / upper outliers)
//! captures nearly all of the benefit while more parts mostly add time.
//! This module implements that experiment's machinery: an optimal dynamic
//! program that splits the sorted value domain into `k` contiguous groups,
//! and a matching block format.
//!
//! Position-indicator scheme (reduces to Fig. 2 at k = 3): the group
//! containing the median is coded `0` (1 bit per value); every other group
//! is coded `1` followed by `⌈log2(k−1)⌉` index bits. With k = 3 that is
//! exactly `0` / `10` / `11`; with k = 1 no indicator is stored (plain BP).
//!
//! The DP is `best[p][j] = min_i best[p−1][i] + segcost(i..j)` over the `m`
//! distinct values — O(k·m²), which is why Figure 14's compression time
//! climbs steeply with the part count.

use crate::cost::SortedBlock;
use bitpack::bits::{BitReader, BitWriter};
use bitpack::error::{DecodeError, DecodeResult};
use bitpack::width::{range_u64, width, width1};
use bitpack::zigzag::{read_varint, read_varint_i64, write_varint, write_varint_i64};

/// One group of the k-part split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartSpec {
    /// Smallest value of the group (its frame-of-reference base).
    pub min: i64,
    /// Largest value of the group.
    pub max: i64,
    /// Number of block values in the group.
    pub count: usize,
    /// Payload width `width1(max − min)` (plain `width` when k = 1).
    pub width: u32,
}

/// An optimal k-part split of one block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KPartSolution {
    /// The groups in ascending value order (1 ≤ len ≤ k).
    pub parts: Vec<PartSpec>,
    /// Index of the group containing the median (coded `0`).
    pub median_part: usize,
    /// Total bits: indicators + payloads (headers excluded).
    pub cost_bits: u64,
}

/// Indicator bits per value for a group in a k-way split.
#[inline]
fn indicator_bits(k: usize, is_median_part: bool) -> u64 {
    if k <= 1 {
        0
    } else if is_median_part {
        1
    } else {
        1 + code_width(k) as u64
    }
}

/// Index bits after the leading `1` for non-median groups.
#[inline]
fn code_width(k: usize) -> u32 {
    debug_assert!(k >= 2);
    width(k as u64 - 2)
}

/// Finds the cost-optimal split of `block` into at most `k` contiguous
/// groups (fewer when the block has fewer distinct values).
///
/// Panics if `k == 0`.
pub fn solve_kpart(block: &SortedBlock, k: usize) -> KPartSolution {
    assert!(k >= 1, "k must be at least 1");
    let n = block.n();
    if n == 0 {
        return KPartSolution {
            parts: Vec::new(),
            median_part: 0,
            cost_bits: 0,
        };
    }
    let vals = block.distinct();
    let cum = block.cumulative();
    let m = vals.len();
    let k = k.min(m);
    let med_pos = n / 2; // 0-based rank of the median value

    // k = 1 is plain bit-packing (Definition 1): no indicator, plain width.
    if k == 1 {
        return KPartSolution {
            parts: vec![PartSpec {
                min: block.xmin(),
                max: block.xmax(),
                count: n,
                width: width(range_u64(block.xmin(), block.xmax())),
            }],
            median_part: 0,
            cost_bits: block.plain_cost_bits(),
        };
    }

    let count_range = |i: usize, j: usize| -> usize {
        // values of distinct[i..j]
        cum[j - 1] - if i > 0 { cum[i - 1] } else { 0 }
    };
    let contains_median = |i: usize, j: usize| -> bool {
        let before = if i > 0 { cum[i - 1] } else { 0 };
        before <= med_pos && med_pos < cum[j - 1]
    };

    // The indicator width depends on the *final* part count, so every
    // target count p = 2..=k gets its own exact-p DP; p = 1 is plain
    // packing. The cheapest over all p wins.
    const INF: u64 = u64::MAX / 2;
    let mut best_total = block.plain_cost_bits();
    let mut best_parts: Option<(usize, Vec<usize>)> = None; // (p, boundaries)
    for p in 2..=k {
        let seg_cost = |i: usize, j: usize| -> u64 {
            let cnt = count_range(i, j) as u64;
            let w = width1(range_u64(vals[i], vals[j - 1])) as u64;
            cnt * (w + indicator_bits(p, contains_median(i, j)))
        };
        let mut layer = vec![vec![INF; m + 1]; p + 1];
        let mut choice = vec![vec![0usize; m + 1]; p + 1];
        layer[0][0] = 0;
        for q in 1..=p {
            for j in q..=m {
                let mut local = INF;
                let mut arg = 0;
                let prev_row = &layer[q - 1];
                for (i, &reach) in prev_row.iter().enumerate().take(j).skip(q - 1) {
                    if reach >= INF {
                        continue;
                    }
                    let c = reach + seg_cost(i, j);
                    if c < local {
                        local = c;
                        arg = i;
                    }
                }
                layer[q][j] = local;
                choice[q][j] = arg;
            }
        }
        if layer[p][m] < best_total {
            best_total = layer[p][m];
            let mut bounds = vec![m];
            let mut j = m;
            for q in (1..=p).rev() {
                j = choice[q][j];
                bounds.push(j);
            }
            bounds.reverse();
            best_parts = Some((p, bounds));
        }
    }

    let Some((p, bounds)) = best_parts else {
        // Plain packing won over every multi-part split.
        return KPartSolution {
            parts: vec![PartSpec {
                min: block.xmin(),
                max: block.xmax(),
                count: n,
                width: width(range_u64(block.xmin(), block.xmax())),
            }],
            median_part: 0,
            cost_bits: block.plain_cost_bits(),
        };
    };

    let mut parts = Vec::with_capacity(p);
    let mut median_part = 0;
    for s in 0..p {
        let (i, j) = (bounds[s], bounds[s + 1]);
        if contains_median(i, j) {
            median_part = s;
        }
        parts.push(PartSpec {
            min: vals[i],
            max: vals[j - 1],
            count: count_range(i, j),
            width: width1(range_u64(vals[i], vals[j - 1])),
        });
    }
    KPartSolution {
        parts,
        median_part,
        cost_bits: best_total,
    }
}

/// Encodes one block with an optimal at-most-`k`-part split.
pub fn encode_kpart(values: &[i64], k: usize, out: &mut Vec<u8>) {
    write_varint(out, values.len() as u64);
    if values.is_empty() {
        return;
    }
    let block = SortedBlock::from_values(values);
    let sol = solve_kpart(&block, k);
    let p = sol.parts.len();
    out.push(p as u8);
    if p == 1 {
        let part = &sol.parts[0];
        write_varint_i64(out, part.min);
        out.push(part.width as u8);
        let mut bw = BitWriter::with_capacity_bits(values.len() * part.width as usize);
        for &v in values {
            bw.write_bits(range_u64(part.min, v), part.width);
        }
        out.extend_from_slice(&bw.into_bytes());
        return;
    }
    out.push(sol.median_part as u8);
    for part in &sol.parts {
        write_varint_i64(out, part.min);
        out.push(part.width as u8);
        write_varint(out, part.count as u64);
    }
    // Non-median groups get index codes in ascending value order, skipping
    // the median group.
    let cw = code_width(p);
    let mut codes = vec![0u64; p];
    let mut next = 0u64;
    for (idx, code) in codes.iter_mut().enumerate() {
        if idx != sol.median_part {
            *code = next;
            next += 1;
        }
    }
    let part_maxes: Vec<i64> = sol.parts.iter().map(|s| s.max).collect();
    let mut bits = BitWriter::with_capacity_bits(sol.cost_bits as usize);
    for &v in values {
        let pi = part_maxes.partition_point(|&mx| mx < v);
        let part = &sol.parts[pi];
        if pi == sol.median_part {
            bits.write_bit(false);
        } else {
            bits.write_bit(true);
            bits.write_bits(codes[pi], cw);
        }
        bits.write_bits(range_u64(part.min, v), part.width);
    }
    debug_assert_eq!(bits.len_bits() as u64, sol.cost_bits);
    out.extend_from_slice(&bits.into_bytes());
}

/// Decodes a block produced by [`encode_kpart`].
pub fn decode_kpart(buf: &[u8], pos: &mut usize, out: &mut Vec<i64>) -> DecodeResult<()> {
    let n = read_varint(buf, pos)? as usize;
    if n == 0 {
        return Ok(());
    }
    if n > bitpack::MAX_BLOCK_VALUES {
        return Err(DecodeError::CountOverflow { claimed: n as u64 });
    }
    let p = *buf.get(*pos).ok_or(DecodeError::Truncated)? as usize;
    *pos += 1;
    if p == 0 {
        return Err(DecodeError::CountOverflow { claimed: 0 });
    }
    if p == 1 {
        let min = read_varint_i64(buf, pos)?;
        let w = *buf.get(*pos).ok_or(DecodeError::Truncated)? as u32;
        *pos += 1;
        if w > 64 {
            return Err(DecodeError::WidthOverflow { width: w });
        }
        let bytes = (n * w as usize).div_ceil(8);
        let payload = buf.get(*pos..*pos + bytes).ok_or(DecodeError::Truncated)?;
        *pos += bytes;
        let mut reader = BitReader::new(payload);
        for _ in 0..n {
            out.push(
                min.checked_add_unsigned(reader.read_bits(w)?)
                    .ok_or(DecodeError::ValueOverflow)?,
            );
        }
        return Ok(());
    }
    let median_part = *buf.get(*pos).ok_or(DecodeError::Truncated)? as usize;
    *pos += 1;
    if median_part >= p {
        return Err(DecodeError::CountOverflow {
            claimed: median_part as u64,
        });
    }
    let mut mins = Vec::with_capacity(p);
    let mut widths = Vec::with_capacity(p);
    let mut counts = Vec::with_capacity(p);
    let mut total_bits = 0usize;
    for _ in 0..p {
        mins.push(read_varint_i64(buf, pos)?);
        let w = *buf.get(*pos).ok_or(DecodeError::Truncated)? as u32;
        *pos += 1;
        if w > 64 {
            return Err(DecodeError::WidthOverflow { width: w });
        }
        widths.push(w);
        counts.push(read_varint(buf, pos)? as usize);
    }
    let total: usize = counts.iter().sum();
    if total != n {
        return Err(DecodeError::LengthMismatch {
            expected: n,
            got: total,
        });
    }
    let cw = code_width(p);
    for (idx, (&c, &w)) in counts.iter().zip(&widths).enumerate() {
        let ind = if idx == median_part {
            1
        } else {
            1 + cw as usize
        };
        total_bits += c * (ind + w as usize);
    }
    let bytes = total_bits.div_ceil(8);
    let payload = buf.get(*pos..*pos + bytes).ok_or(DecodeError::Truncated)?;
    *pos += bytes;

    // Map index codes back to group ids.
    let mut code_to_part: Vec<usize> = (0..p).filter(|&idx| idx != median_part).collect();
    code_to_part.push(usize::MAX); // out-of-range codes fall through to the error arm

    let mut reader = BitReader::new(payload);
    out.reserve(n);
    for _ in 0..n {
        let pi = if reader.read_bit()? {
            let code = reader.read_bits(cw)? as usize;
            *code_to_part.get(code).filter(|&&x| x != usize::MAX).ok_or(
                DecodeError::CountOverflow {
                    claimed: code as u64,
                },
            )?
        } else {
            median_part
        };
        let (base, w) = match (mins.get(pi), widths.get(pi)) {
            (Some(&base), Some(&w)) => (base, w),
            _ => return Err(DecodeError::Truncated),
        };
        out.push(
            base.checked_add_unsigned(reader.read_bits(w)?)
                .ok_or(DecodeError::ValueOverflow)?,
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{solve_values, BitWidthSolver};

    const INTRO: [i64; 8] = [3, 2, 4, 5, 3, 2, 0, 8];

    fn roundtrip(values: &[i64], k: usize) -> usize {
        let mut buf = Vec::new();
        encode_kpart(values, k, &mut buf);
        let mut pos = 0;
        let mut out = Vec::new();
        decode_kpart(&buf, &mut pos, &mut out).expect("decode");
        assert_eq!(out, values, "k={k}");
        assert_eq!(pos, buf.len());
        buf.len()
    }

    #[test]
    fn roundtrip_k1_through_k7() {
        let values: Vec<i64> = (0..200)
            .map(|i| match i % 23 {
                0 => 1_000_000,
                1 => -999,
                _ => 400 + (i % 9),
            })
            .collect();
        for k in 1..=7 {
            roundtrip(&values, k);
        }
        for k in 1..=7 {
            roundtrip(&INTRO, k);
            roundtrip(&[5], k);
            roundtrip(&[], k);
            roundtrip(&[3, 3, 3], k);
        }
    }

    #[test]
    fn k1_equals_plain_cost() {
        let block = SortedBlock::from_values(&INTRO);
        let sol = solve_kpart(&block, 1);
        assert_eq!(sol.cost_bits, block.plain_cost_bits());
        assert_eq!(sol.parts.len(), 1);
    }

    #[test]
    fn k3_matches_bos_optimum_when_median_is_central() {
        // When the optimal BOS center contains the median, the 3-part DP
        // cost model coincides with BOS's 0/10/11 bitmap: center pays β+1
        // bits per value, outliers pay α+2 / γ+2.
        // For the intro series the optimum is a true 3-part split with the
        // median in the center (cost 24 bits), where both models agree.
        let block = SortedBlock::from_values(&INTRO);
        let kp = solve_kpart(&block, 3);
        let bos = solve_values(&BitWidthSolver::new(), &INTRO);
        assert_eq!(kp.cost_bits, 24);
        assert_eq!(bos.cost_bits(), 24);
    }

    #[test]
    fn k3_never_worse_than_bos() {
        // In general the k-part DP can only match or beat BOS, because a
        // two-way split costs 1 indicator bit per value here while BOS's
        // bitmap charges outliers 2 bits.
        let cases: Vec<Vec<i64>> = vec![
            vec![0, 1, 2, 3, 1 << 40, (1 << 40) + 1, (1 << 40) + 2],
            INTRO.to_vec(),
            (0..64).collect(),
            vec![5; 20],
            vec![0, 0, 0, 1_000_000],
            (0..100).map(|i| i * i).collect(),
            vec![-1000, -999, 5, 6, 7, 8, 9, 5, 6, 7],
        ];
        let b = BitWidthSolver::new();
        for case in cases {
            let block = SortedBlock::from_values(&case);
            let kp = solve_kpart(&block, 3);
            let bos = solve_values(&b, &case);
            assert!(kp.cost_bits <= bos.cost_bits(), "worse on {case:?}");
        }
    }

    #[test]
    fn monotone_improvement_with_more_parts() {
        // Allowing more parts can never increase the optimal cost.
        let values: Vec<i64> = (0..300)
            .map(|i| match i % 29 {
                0 => 10_000_000,
                1 => -10_000_000,
                2 => 5_000,
                _ => (i % 13) * 3,
            })
            .collect();
        let block = SortedBlock::from_values(&values);
        let mut last = u64::MAX;
        for k in 1..=7 {
            let c = solve_kpart(&block, k).cost_bits;
            assert!(c <= last, "k={k} cost {c} > previous {last}");
            last = c;
        }
    }

    #[test]
    fn cost_counts_match_encoding() {
        let values: Vec<i64> = (0..128)
            .map(|i| if i % 11 == 0 { i * 1000 } else { i % 6 })
            .collect();
        for k in 2..=6 {
            let block = SortedBlock::from_values(&values);
            let sol = solve_kpart(&block, k);
            let total: usize = sol.parts.iter().map(|p| p.count).sum();
            assert_eq!(total, values.len());
            // encode_kpart debug_asserts bits == cost internally.
            roundtrip(&values, k);
        }
    }

    #[test]
    fn corrupt_kpart_decode_is_none() {
        let mut buf = Vec::new();
        encode_kpart(&INTRO, 3, &mut buf);
        for cut in 0..buf.len() {
            let mut pos = 0;
            let mut out = Vec::new();
            assert!(decode_kpart(&buf[..cut], &mut pos, &mut out).is_err());
        }
    }

    #[test]
    fn more_distinct_than_k_not_required() {
        // k larger than the number of distinct values degrades gracefully.
        roundtrip(&[1, 2, 1, 2], 7);
    }
}
