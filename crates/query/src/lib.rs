//! Mini scan/aggregate engine over BOS-compressed block streams.
//!
//! Figure 11 of the paper argues BOS's storage saving translates into
//! query-time IO savings. This crate shows the *other* query-side benefit
//! of the Section-VII layout: the block header carries the exact minimum
//! and tight width information, so a scanner can build zone maps and
//! answer range predicates while **skipping whole blocks without decoding
//! them** ([`bos::format::peek_block`]).
//!
//! ```
//! use bitpack::codec::encode_blocks_parallel;
//! use bos::{BosCodec, SolverKind};
//! use query::Scanner;
//!
//! let values: Vec<i64> = (0..100_000).map(|i| i % 1000).collect();
//! let mut stream = Vec::new();
//! encode_blocks_parallel(&BosCodec::new(SolverKind::BitWidth), &values, 1024, 4, &mut stream)
//!     .unwrap();
//!
//! let scanner = Scanner::open(&stream).unwrap();
//! assert_eq!(scanner.count_in_range(100, 199).unwrap(), 10_000);
//! assert_eq!(scanner.min().unwrap(), Some(0)); // header-only, zero decode
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![deny(clippy::indexing_slicing)]

use bitpack::error::DecodeError;
use bitpack::zigzag::read_varint;
use bos::format::{decode_block, peek_block, BlockSummary};

/// Errors from the scanner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryError {
    /// The stream is structurally invalid (a zone-map-level check failed).
    Corrupt,
    /// A block failed to decode; carries the typed decoder error.
    Decode(DecodeError),
}

impl From<DecodeError> for QueryError {
    fn from(e: DecodeError) -> Self {
        QueryError::Decode(e)
    }
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Corrupt => write!(f, "corrupt block stream"),
            QueryError::Decode(e) => write!(f, "corrupt block stream: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Zone-map entry: a block's summary plus its byte offset.
#[derive(Debug, Clone, Copy)]
struct Zone {
    summary: BlockSummary,
    offset: usize,
}

/// Execution counters, exposed so tests and experiments can verify that
/// skipping actually skips.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Blocks whose payload was decoded.
    pub blocks_decoded: usize,
    /// Blocks answered from the header alone.
    pub blocks_skipped: usize,
}

/// A scanner over one multi-block BOS stream — `varint n_blocks` then
/// that many BOS blocks, as
/// [`encode_blocks_parallel`](bitpack::codec::encode_blocks_parallel)
/// writes it for a [`BosCodec`](bos::BosCodec).
pub struct Scanner<'a> {
    data: &'a [u8],
    zones: Vec<Zone>,
}

impl<'a> Scanner<'a> {
    /// Builds the zone map by peeking every block header (no payload
    /// decoding).
    pub fn open(stream: &'a [u8]) -> Result<Self, QueryError> {
        let mut pos = 0usize;
        let n_blocks = read_varint(stream, &mut pos)? as usize;
        if n_blocks > stream.len() + 1 {
            return Err(QueryError::Corrupt);
        }
        let mut zones = Vec::with_capacity(n_blocks);
        for _ in 0..n_blocks {
            let offset = pos;
            let summary = peek_block(stream, &mut pos)?;
            zones.push(Zone { summary, offset });
        }
        Ok(Self {
            data: stream,
            zones,
        })
    }

    /// Number of blocks in the stream.
    pub fn num_blocks(&self) -> usize {
        self.zones.len()
    }

    /// Total number of values (header-only).
    pub fn len(&self) -> usize {
        self.zones.iter().map(|z| z.summary.n).sum()
    }

    /// True when the stream holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn decode_zone(&self, zone: &Zone, out: &mut Vec<i64>) -> Result<(), QueryError> {
        let mut pos = zone.offset;
        decode_block(self.data, &mut pos, out)?;
        Ok(())
    }

    /// Exact global minimum — header-only, O(#blocks), zero decoding
    /// (the Section-VII layout stores each block's minimum verbatim).
    pub fn min(&self) -> Result<Option<i64>, QueryError> {
        Ok(self
            .zones
            .iter()
            .filter_map(|z| z.summary.bounds.map(|(lo, _)| lo))
            .min())
    }

    /// Exact global maximum: decodes only blocks whose max *bound* can
    /// still beat the best exact maximum seen so far.
    pub fn max(&self) -> Result<(Option<i64>, ScanStats), QueryError> {
        let mut order: Vec<&Zone> = self.zones.iter().filter(|z| z.summary.n > 0).collect();
        order.sort_by_key(|z| std::cmp::Reverse(z.summary.bounds.map(|(_, hi)| hi)));
        let mut stats = ScanStats::default();
        let mut best: Option<i64> = None;
        let mut scratch = Vec::new();
        for zone in order {
            // `order` holds only `n > 0` zones, whose bounds are present.
            let Some((_, hi)) = zone.summary.bounds else {
                stats.blocks_skipped += 1;
                continue;
            };
            if best.is_some_and(|b| hi <= b) {
                stats.blocks_skipped += 1;
                continue;
            }
            scratch.clear();
            self.decode_zone(zone, &mut scratch)?;
            stats.blocks_decoded += 1;
            let block_max = scratch.iter().copied().max().ok_or(QueryError::Decode(
                DecodeError::LengthMismatch {
                    expected: zone.summary.n,
                    got: 0,
                },
            ))?;
            best = Some(best.map_or(block_max, |b| b.max(block_max)));
        }
        Ok((best, stats))
    }

    /// Sum of all values (decodes everything; sums in i128 to avoid
    /// overflow).
    pub fn sum(&self) -> Result<i128, QueryError> {
        let mut total = 0i128;
        let mut scratch = Vec::new();
        for zone in &self.zones {
            scratch.clear();
            self.decode_zone(zone, &mut scratch)?;
            total += scratch.iter().map(|&v| v as i128).sum::<i128>();
        }
        Ok(total)
    }

    /// Counts values in `[lo, hi]` (inclusive), skipping blocks whose zone
    /// bounds prove the answer.
    pub fn count_in_range(&self, lo: i64, hi: i64) -> Result<usize, QueryError> {
        Ok(self.count_in_range_with_stats(lo, hi)?.0)
    }

    /// [`count_in_range`](Self::count_in_range) plus skip statistics.
    pub fn count_in_range_with_stats(
        &self,
        lo: i64,
        hi: i64,
    ) -> Result<(usize, ScanStats), QueryError> {
        let mut stats = ScanStats::default();
        let mut count = 0usize;
        let mut scratch = Vec::new();
        for zone in &self.zones {
            let Some((zmin, zmax_bound)) = zone.summary.bounds else {
                stats.blocks_skipped += 1;
                continue;
            };
            // Disjoint: zone entirely outside the predicate.
            // (zmin is exact; zmax_bound over-approximates, so only the
            // "entirely above" test may decode unnecessarily — never
            // incorrectly.)
            if zmin > hi || zmax_bound < lo {
                stats.blocks_skipped += 1;
                continue;
            }
            // Fully contained: bound inside [lo, hi] proves every value is.
            if zmin >= lo && zmax_bound <= hi {
                count = count.saturating_add(zone.summary.n);
                stats.blocks_skipped += 1;
                continue;
            }
            scratch.clear();
            self.decode_zone(zone, &mut scratch)?;
            stats.blocks_decoded += 1;
            count = count.saturating_add(scratch.iter().filter(|&&v| v >= lo && v <= hi).count());
        }
        Ok((count, stats))
    }

    /// Materializes the values in `[lo, hi]` (in stream order), with block
    /// skipping for disjoint zones.
    pub fn filter_range(&self, lo: i64, hi: i64) -> Result<(Vec<i64>, ScanStats), QueryError> {
        let mut stats = ScanStats::default();
        let mut result = Vec::new();
        let mut scratch = Vec::new();
        for zone in &self.zones {
            let Some((zmin, zmax_bound)) = zone.summary.bounds else {
                stats.blocks_skipped += 1;
                continue;
            };
            if zmin > hi || zmax_bound < lo {
                stats.blocks_skipped += 1;
                continue;
            }
            scratch.clear();
            self.decode_zone(zone, &mut scratch)?;
            stats.blocks_decoded += 1;
            result.extend(scratch.iter().copied().filter(|&v| v >= lo && v <= hi));
        }
        Ok((result, stats))
    }

    /// Decodes the full series (reference path, no skipping).
    pub fn materialize(&self) -> Result<Vec<i64>, QueryError> {
        let mut out = Vec::with_capacity(self.len());
        for zone in &self.zones {
            self.decode_zone(zone, &mut out)?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitpack::codec::encode_blocks_parallel;
    use bos::{BosCodec, SolverKind};

    fn stream_with(kind: SolverKind, values: &[i64], block: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        encode_blocks_parallel(&BosCodec::new(kind), values, block, 2, &mut buf).unwrap();
        buf
    }

    fn stream_of(values: &[i64], block: usize) -> Vec<u8> {
        stream_with(SolverKind::BitWidth, values, block)
    }

    /// Clustered values so different blocks cover different ranges.
    fn clustered() -> Vec<i64> {
        let mut v = Vec::new();
        for c in 0..10i64 {
            for i in 0..1000i64 {
                v.push(c * 10_000 + (i % 500));
            }
        }
        v
    }

    #[test]
    fn count_matches_reference() {
        let values = clustered();
        let stream = stream_of(&values, 1024);
        let scanner = Scanner::open(&stream).unwrap();
        for (lo, hi) in [
            (0, 400),
            (25_000, 45_000),
            (i64::MIN, i64::MAX),
            (7, 7),
            (99, 3),
        ] {
            let expected = values.iter().filter(|&&v| v >= lo && v <= hi).count();
            assert_eq!(
                scanner.count_in_range(lo, hi).unwrap(),
                expected,
                "[{lo}, {hi}]"
            );
        }
    }

    #[test]
    fn disjoint_predicates_skip_everything() {
        let values = clustered();
        let stream = stream_of(&values, 1000);
        let scanner = Scanner::open(&stream).unwrap();
        let (count, stats) = scanner
            .count_in_range_with_stats(1_000_000, 2_000_000)
            .unwrap();
        assert_eq!(count, 0);
        assert_eq!(stats.blocks_decoded, 0);
        assert_eq!(stats.blocks_skipped, scanner.num_blocks());
    }

    #[test]
    fn selective_predicates_skip_most_blocks() {
        let values = clustered();
        let stream = stream_of(&values, 1000); // block == cluster
        let scanner = Scanner::open(&stream).unwrap();
        let (count, stats) = scanner.count_in_range_with_stats(30_000, 30_499).unwrap();
        assert_eq!(count, 1000);
        assert!(
            stats.blocks_decoded <= 2,
            "decoded {} blocks",
            stats.blocks_decoded
        );
    }

    #[test]
    fn min_is_header_only_and_exact() {
        let mut values = clustered();
        values[5000] = -123_456;
        let stream = stream_of(&values, 1024);
        let scanner = Scanner::open(&stream).unwrap();
        assert_eq!(scanner.min().unwrap(), Some(-123_456));
    }

    #[test]
    fn max_decodes_few_blocks() {
        let values = clustered();
        let stream = stream_of(&values, 1000);
        let scanner = Scanner::open(&stream).unwrap();
        let (max, stats) = scanner.max().unwrap();
        assert_eq!(max, Some(*values.iter().max().unwrap()));
        assert!(
            stats.blocks_decoded <= 2,
            "decoded {}",
            stats.blocks_decoded
        );
    }

    #[test]
    fn sum_and_materialize() {
        let values = clustered();
        let stream = stream_of(&values, 777);
        let scanner = Scanner::open(&stream).unwrap();
        assert_eq!(
            scanner.sum().unwrap(),
            values.iter().map(|&v| v as i128).sum::<i128>()
        );
        assert_eq!(scanner.materialize().unwrap(), values);
        assert_eq!(scanner.len(), values.len());
    }

    #[test]
    fn filter_matches_reference() {
        let values = clustered();
        let stream = stream_of(&values, 512);
        let scanner = Scanner::open(&stream).unwrap();
        let (got, _) = scanner.filter_range(10_000, 20_400).unwrap();
        let expected: Vec<i64> = values
            .iter()
            .copied()
            .filter(|&v| (10_000..=20_400).contains(&v))
            .collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn empty_and_corrupt_streams() {
        let stream = stream_of(&[], 64);
        let scanner = Scanner::open(&stream).unwrap();
        assert!(scanner.is_empty());
        assert_eq!(scanner.min().unwrap(), None);
        assert_eq!(scanner.max().unwrap().0, None);
        assert_eq!(scanner.sum().unwrap(), 0);

        assert!(Scanner::open(&[0xFF, 0xFF]).is_err());
        let full = stream_of(&clustered(), 512);
        for cut in [1, full.len() / 3, full.len() - 1] {
            assert!(Scanner::open(&full[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn works_with_all_solver_kinds() {
        let values = clustered();
        for kind in [SolverKind::Median, SolverKind::Value, SolverKind::BitWidth] {
            let stream = stream_with(kind, &values, 1024);
            let scanner = Scanner::open(&stream).unwrap();
            assert_eq!(
                scanner.count_in_range(0, 10_000).unwrap(),
                values
                    .iter()
                    .filter(|&&v| (0..=10_000).contains(&v))
                    .count()
            );
        }
    }
}
