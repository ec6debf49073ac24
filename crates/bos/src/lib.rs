//! # BOS — Bit-packing with Outlier Separation
//!
//! Reproduction of the core contribution of *"BOS: Bit-packing with Outlier
//! Separation"* (Xiao, Guo, Song — ICDE 2025). Plain bit-packing pays one
//! fixed width for every value of a block, so a single extreme value
//! inflates the whole block. BOS splits a block into **lower outliers**,
//! **center values** and **upper outliers**, stores each part with its own
//! width, and marks positions with a `0`/`10`/`11` bitmap (Figure 2 of the
//! paper).
//!
//! ```
//! use bos::{BosCodec, SolverKind};
//!
//! // The paper's introductory series: 8 is an upper outlier, 0 a lower one.
//! let values = [3i64, 2, 4, 5, 3, 2, 0, 8];
//! let codec = BosCodec::new(SolverKind::BitWidth); // BOS-B, exact, O(n log n)
//! let mut buf = Vec::new();
//! codec.encode(&values, &mut buf);
//!
//! let mut decoded = Vec::new();
//! let mut pos = 0;
//! bos::decode(&buf, &mut pos, &mut decoded).unwrap();
//! assert_eq!(decoded, values);
//! ```
//!
//! ## Module map
//!
//! * [`cost`] — the storage cost model (Definitions 1–6, Formula 7).
//! * [`solver`] — BOS-V (Alg. 1), BOS-B (Alg. 2) and BOS-M (Alg. 3).
//! * [`mod@format`] — the self-describing block layout of Section VII (Fig. 7).
//! * [`kpart`] — the k-part generalization behind Figure 14.
//! * [`stats`] — per-block separation diagnostics (Figure 9's machinery).
//! * [`theory`] — the Proposition 4 approximation bound.
//! * [`positions`] — bitmap vs. index-list position-storage analysis.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod cost;
pub mod format;
pub mod kpart;
pub mod positions;
pub mod solver;
pub mod stats;
pub mod theory;

use bitpack::EncodeSession;
pub use cost::{Evaluation, Separation, Solution, SortedBlock};
pub use format::{decode_block as decode, encode_block_with_solution};
pub use solver::{BitWidthSolver, MedianSolver, Solver, SolverConfig, SolverScratch, ValueSolver};

/// Which separation solver a [`BosCodec`] uses.
///
/// This is the single solver-selection surface of the workspace: the CLI,
/// the block streams and the experiment harness all pick solvers through
/// it (mirroring how `PackerKind` selects packing operators), so a new
/// solver shows up everywhere by adding one variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolverKind {
    /// BOS-V: exact, O(n²) search over value pairs (Algorithm 1).
    Value,
    /// BOS-B: exact, O(n log n) search over bit-widths (Algorithm 2).
    BitWidth,
    /// BOS-M: approximate, O(n) median/bucket search (Algorithm 3).
    Median,
    /// BOS-V restricted to upper outliers (Figure 12 ablation).
    ValueUpperOnly,
    /// BOS-B restricted to upper outliers (Figure 12 ablation).
    BitWidthUpperOnly,
}

impl SolverKind {
    /// Every solver, in the paper's table order (ablations last).
    pub const ALL: [SolverKind; 5] = [
        SolverKind::Value,
        SolverKind::BitWidth,
        SolverKind::Median,
        SolverKind::ValueUpperOnly,
        SolverKind::BitWidthUpperOnly,
    ];

    /// Method label matching the paper's tables ("BOS-V", "BOS-B", …).
    pub fn label(self) -> &'static str {
        match self {
            SolverKind::Value => "BOS-V",
            SolverKind::BitWidth => "BOS-B",
            SolverKind::Median => "BOS-M",
            SolverKind::ValueUpperOnly => "BOS-V (upper only)",
            SolverKind::BitWidthUpperOnly => "BOS-B (upper only)",
        }
    }

    /// Instantiates the solver behind this kind.
    pub fn build(self) -> Box<dyn Solver> {
        match self {
            SolverKind::Value => Box::new(ValueSolver::new()),
            SolverKind::BitWidth => Box::new(BitWidthSolver::new()),
            SolverKind::Median => Box::new(MedianSolver::new()),
            SolverKind::ValueUpperOnly => Box::new(ValueSolver::upper_only()),
            SolverKind::BitWidthUpperOnly => Box::new(BitWidthSolver::upper_only()),
        }
    }
}

impl std::fmt::Display for SolverKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for SolverKind {
    type Err = String;

    /// Parses a paper label ("BOS-B") or a plain alias ("bitwidth", "b"),
    /// case-insensitively; ablations use a "-upper" suffix.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "bos-v" | "v" | "value" => Ok(SolverKind::Value),
            "bos-b" | "b" | "bitwidth" => Ok(SolverKind::BitWidth),
            "bos-m" | "m" | "median" => Ok(SolverKind::Median),
            "bos-v-upper" | "value-upper" | "bos-v (upper only)" => Ok(SolverKind::ValueUpperOnly),
            "bos-b-upper" | "bitwidth-upper" | "bos-b (upper only)" => {
                Ok(SolverKind::BitWidthUpperOnly)
            }
            other => Err(format!(
                "unknown solver '{other}' (expected one of: bos-v, bos-b, bos-m, \
                 bos-v-upper, bos-b-upper)"
            )),
        }
    }
}

/// A block codec: runs the chosen solver and writes the Section-VII layout.
///
/// Every variant decodes with the same [`decode`] function — the stream is
/// self-describing, so the solver choice only affects how good (and how
/// fast) compression is, never compatibility.
#[derive(Debug, Clone, Copy)]
pub struct BosCodec {
    kind: SolverKind,
}

impl BosCodec {
    /// Creates a codec using the given solver.
    pub fn new(kind: SolverKind) -> Self {
        Self { kind }
    }

    /// The solver this codec runs.
    pub fn kind(&self) -> SolverKind {
        self.kind
    }

    /// Name matching the paper's method labels ("BOS-V", "BOS-B", "BOS-M").
    ///
    /// Same as [`SolverKind::label`], which holds the actual label table.
    pub fn name(&self) -> &'static str {
        self.kind.label()
    }

    /// Runs the solver on `values` (without encoding). One-shot: builds a
    /// throwaway solver and scratch. Encode paths that run over many
    /// blocks should use a
    /// [`BlockCodec::encode_session`](bitpack::BlockCodec::encode_session)
    /// (or hold a solver plus [`SolverScratch`] themselves) so the working
    /// memory survives from block to block.
    pub fn solve(&self, values: &[i64]) -> Solution {
        self.kind
            .build()
            .solve_into(values, &mut SolverScratch::new())
    }

    /// Span names for the search/pack phases. Upper-only ablation
    /// variants report under their base family (BOS-V / BOS-B): the
    /// search they time is the same algorithm on a restricted candidate
    /// set, and keeping the span cardinality at three keeps the
    /// search-vs-pack split in `exp_throughput`'s tables readable.
    fn span_names(&self) -> (&'static str, &'static str) {
        match self.kind {
            SolverKind::Value | SolverKind::ValueUpperOnly => {
                ("solver_search.BOS-V", "pack_payload.BOS-V")
            }
            SolverKind::BitWidth | SolverKind::BitWidthUpperOnly => {
                ("solver_search.BOS-B", "pack_payload.BOS-B")
            }
            SolverKind::Median => ("solver_search.BOS-M", "pack_payload.BOS-M"),
        }
    }

    /// Encodes one block of values into `out`: a one-block
    /// [`BlockCodec::encode_session`](bitpack::BlockCodec::encode_session).
    pub fn encode(&self, values: &[i64], out: &mut Vec<u8>) {
        self.session().encode_block(values, out);
    }

    fn session(&self) -> BosSession {
        BosSession {
            codec: *self,
            solver: self.kind.build(),
            scratch: SolverScratch::new(),
        }
    }

    /// Decodes one block from `buf[*pos..]` into `out`. Identical to the
    /// free function [`decode`]; provided for symmetry.
    pub fn decode(
        &self,
        buf: &[u8],
        pos: &mut usize,
        out: &mut Vec<i64>,
    ) -> bitpack::DecodeResult<()> {
        format::decode_block(buf, pos, out)
    }
}

/// BOS as a workspace block codec: plugs into the outer encoders of
/// `encodings` and the shared parallel encode driver next to the PFOR
/// family, with the paper's method labels.
impl bitpack::BlockCodec for BosCodec {
    fn name(&self) -> &'static str {
        self.kind.label()
    }

    fn encode(&self, values: &[i64], out: &mut Vec<u8>) {
        BosCodec::encode(self, values, out)
    }

    fn decode(&self, buf: &[u8], pos: &mut usize, out: &mut Vec<i64>) -> bitpack::DecodeResult<()> {
        format::decode_block(buf, pos, out)
    }

    fn encode_session(&self) -> Box<dyn EncodeSession + '_> {
        Box::new(self.session())
    }
}

/// Scratch-reusing encode session for [`BosCodec`]: one solver and one
/// [`SolverScratch`] per worker thread, fed every block of that worker in
/// order, so steady-state encode reuses the same working memory from
/// block to block instead of re-allocating it per block.
struct BosSession {
    codec: BosCodec,
    solver: Box<dyn Solver>,
    scratch: SolverScratch,
}

impl EncodeSession for BosSession {
    fn encode_block(&mut self, values: &[i64], out: &mut Vec<u8>) {
        let (search_span, pack_span) = self.codec.span_names();
        let solution = {
            let _span = obs::span(search_span);
            self.solver.solve_into(values, &mut self.scratch)
        };
        let _span = obs::span(pack_span);
        format::encode_block_with_solution(values, &solution, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitpack::codec::{decode_blocks, encode_blocks_parallel};

    #[test]
    fn codec_roundtrip_every_kind() {
        let values: Vec<i64> = (0..500)
            .map(|i| match i % 43 {
                0 => 1_000_000 + i,
                1 => -1_000_000 - i,
                _ => 500 + (i % 21),
            })
            .collect();
        for kind in SolverKind::ALL {
            let codec = BosCodec::new(kind);
            let mut buf = Vec::new();
            codec.encode(&values, &mut buf);
            let mut pos = 0;
            let mut out = Vec::new();
            codec.decode(&buf, &mut pos, &mut out).expect("decode");
            assert_eq!(out, values, "{}", codec.name());
        }
        // Multi-block streams through the shared driver: every block size
        // round-trips, and a half-truncated stream is an error.
        let series: Vec<i64> = (0..5000)
            .map(|i| if i % 97 == 0 { 1 << 30 } else { i % 50 })
            .collect();
        let codec = BosCodec::new(SolverKind::BitWidth);
        for block_size in [1usize, 7, 256, 1024, 5000, 9999] {
            let mut buf = Vec::new();
            encode_blocks_parallel(&codec, &series, block_size, 2, &mut buf).expect("encode");
            let cut = &buf[..buf.len() / 2];
            assert_eq!(
                decode_blocks(&codec, &buf).as_ref(),
                Ok(&series),
                "{block_size}"
            );
            assert!(decode_blocks(&codec, cut).is_err(), "{block_size}");
        }
    }

    #[test]
    fn exact_kinds_agree_on_cost() {
        let values: Vec<i64> = (0..300).map(|i| (i * i * 31) % 10_007).collect();
        let v = BosCodec::new(SolverKind::Value).solve(&values);
        let b = BosCodec::new(SolverKind::BitWidth).solve(&values);
        assert_eq!(v.cost_bits(), b.cost_bits());
    }

    #[test]
    fn bos_b_compresses_better_than_plain_on_outliers() {
        // The headline behaviour: blocks with outliers shrink.
        let mut values: Vec<i64> = (0..1000).map(|i| 100 + (i % 16)).collect();
        values[17] = 1 << 40;
        values[400] = -(1 << 35);
        let codec = BosCodec::new(SolverKind::BitWidth);
        let mut bos_buf = Vec::new();
        codec.encode(&values, &mut bos_buf);
        let mut plain_buf = Vec::new();
        let plain = Solution::Plain {
            cost_bits: SortedBlock::from_values(&values).plain_cost_bits(),
        };
        encode_block_with_solution(&values, &plain, &mut plain_buf);
        assert!(
            bos_buf.len() * 4 < plain_buf.len(),
            "bos {} vs plain {}",
            bos_buf.len(),
            plain_buf.len()
        );
    }

    #[test]
    fn names() {
        assert_eq!(BosCodec::new(SolverKind::Value).name(), "BOS-V");
        assert_eq!(BosCodec::new(SolverKind::BitWidth).name(), "BOS-B");
        assert_eq!(BosCodec::new(SolverKind::Median).name(), "BOS-M");
    }

    #[test]
    fn kind_parse_display_roundtrip() {
        for kind in SolverKind::ALL {
            let label = kind.to_string();
            assert_eq!(label.parse::<SolverKind>(), Ok(kind), "{label}");
        }
        assert_eq!("bitwidth".parse::<SolverKind>(), Ok(SolverKind::BitWidth));
        assert!("pfor".parse::<SolverKind>().is_err());
        assert!("bos-a".parse::<SolverKind>().is_err());
    }
}
