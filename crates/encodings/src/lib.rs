//! Outer time-series encoders parameterized by an inner integer packer.
//!
//! The paper's experiments form a grid: an *outer* encoding (RLE, TS2DIFF,
//! SPRINTZ) that transforms the series, times an *inner* bit-packing
//! operator (BP, the PFOR family, or BOS) that stores the transformed
//! integers. "RLE+BOS-B" etc. in Figure 10 are exactly these combinations;
//! swapping the operator is the whole point of BOS being a drop-in
//! replacement for bit-packing.
//!
//! * [`IntPacker`] — the operator interface. This is the workspace-wide
//!   [`bitpack::BlockCodec`](bitpack::codec::BlockCodec) re-exported under
//!   its historical name here; every PFOR-family codec and
//!   [`bos::BosCodec`] implements it directly, so codecs plug into the
//!   outer encoders with no wrapper types.
//! * [`rle::RleEncoding`] — hybrid run-length / literal-block encoding.
//! * [`ts2diff::Ts2DiffEncoding`] — delta encoding (IoTDB TS2DIFF),
//!   first- or second-order ([`diff`] holds the order-k transform).
//! * [`sprintz::SprintzEncoding`] — delta prediction with zero-block
//!   run-length skipping (SPRINTZ).
//! * [`floatint`] — the `×10^p` float↔int scaling used to run integer
//!   encoders on float datasets.
//! * [`pipeline`] — one-call composition of outer × inner with names
//!   matching the paper's tables.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod diff;
pub mod floatint;
pub mod pipeline;
pub mod rle;
pub mod sprintz;
pub mod ts2diff;

pub use pipeline::{OuterKind, Pipeline};

use bos::{BosCodec, SolverKind};

/// The inner bit-packing operator interface: a self-describing block codec
/// over `i64` values.
///
/// Defined once in [`bitpack::codec`](bitpack::codec) (blanket impls for
/// `&C` and `Box<C>` included) and re-exported here under the name this
/// crate has always used; `pfor::Codec` is the same trait.
pub use bitpack::codec::BlockCodec as IntPacker;

/// All inner operators of the Figure 10 grid, for experiment drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PackerKind {
    /// Plain bit-packing (Definition 1).
    Bp,
    /// Classic PFOR.
    Pfor,
    /// NewPFOR / NewPFD.
    NewPfor,
    /// OptPFOR / OptPFD.
    OptPfor,
    /// FastPFOR.
    FastPfor,
    /// SimplePFOR.
    SimplePfor,
    /// BOS with exact value separation (Algorithm 1).
    BosV,
    /// BOS with exact bit-width separation (Algorithm 2).
    BosB,
    /// BOS with approximate median separation (Algorithm 3).
    BosM,
}

impl PackerKind {
    /// Every operator, in the paper's table order.
    pub const ALL: [PackerKind; 9] = [
        PackerKind::Bp,
        PackerKind::Pfor,
        PackerKind::NewPfor,
        PackerKind::OptPfor,
        PackerKind::FastPfor,
        PackerKind::SimplePfor,
        PackerKind::BosV,
        PackerKind::BosB,
        PackerKind::BosM,
    ];

    /// Instantiates the operator. Every operator is a plain `Copy`
    /// struct, so one instance can be shared by parallel encode workers.
    pub fn build(self) -> Box<dyn IntPacker + Send + Sync> {
        match self {
            PackerKind::Bp => Box::new(pfor::BpCodec::new()),
            PackerKind::Pfor => Box::new(pfor::PforCodec::new()),
            PackerKind::NewPfor => Box::new(pfor::NewPforCodec::new()),
            PackerKind::OptPfor => Box::new(pfor::OptPforCodec::new()),
            PackerKind::FastPfor => Box::new(pfor::FastPforCodec::new()),
            PackerKind::SimplePfor => Box::new(pfor::SimplePforCodec::new()),
            PackerKind::BosV => Box::new(BosCodec::new(SolverKind::Value)),
            PackerKind::BosB => Box::new(BosCodec::new(SolverKind::BitWidth)),
            PackerKind::BosM => Box::new(BosCodec::new(SolverKind::Median)),
        }
    }

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            PackerKind::Bp => "BP",
            PackerKind::Pfor => "PFOR",
            PackerKind::NewPfor => "NEWPFOR",
            PackerKind::OptPfor => "OPTPFOR",
            PackerKind::FastPfor => "FASTPFOR",
            PackerKind::SimplePfor => "SIMPLEPFOR",
            PackerKind::BosV => "BOS-V",
            PackerKind::BosB => "BOS-B",
            PackerKind::BosM => "BOS-M",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packer_registry_roundtrips() {
        let values: Vec<i64> = (0..500)
            .map(|i| if i % 41 == 0 { 1 << 35 } else { i % 19 })
            .collect();
        for kind in PackerKind::ALL {
            let packer = kind.build();
            let mut buf = Vec::new();
            packer.encode(&values, &mut buf);
            let mut pos = 0;
            let mut out = Vec::new();
            packer
                .decode(&buf, &mut pos, &mut out)
                .unwrap_or_else(|e| panic!("{} decode failed: {e}", packer.name()));
            assert_eq!(out, values, "{}", packer.name());
            assert_eq!(kind.label(), packer.name());
        }
        // Bench tables and artifact rows key on these labels.
        let labels: std::collections::BTreeSet<&str> =
            PackerKind::ALL.iter().map(|k| k.label()).collect();
        assert_eq!(labels.len(), PackerKind::ALL.len(), "duplicate label");
    }

    #[test]
    fn bos_packers_beat_bp_on_two_sided_outliers() {
        let values: Vec<i64> = (0..2048)
            .map(|i| match i % 64 {
                0 => 1 << 38,
                1 => -(1 << 38),
                _ => 1000 + (i % 10),
            })
            .collect();
        let size = |kind: PackerKind| {
            let mut buf = Vec::new();
            kind.build().encode(&values, &mut buf);
            buf.len()
        };
        let bp = size(PackerKind::Bp);
        let bos = size(PackerKind::BosB);
        let pf = size(PackerKind::Pfor);
        assert!(bos < pf, "bos {bos} pfor {pf}");
        assert!(bos * 3 < bp, "bos {bos} bp {bp}");
    }
}
