//! TS2DIFF — delta encoding (Apache IoTDB's `TS_2DIFF` family).
//!
//! Per block: apply order-k differencing (k = 1 by default; k = 2, the
//! "2" in `TS_2DIFF`, collapses linear trends such as timestamps), store
//! the k head values, and hand the difference stream to the inner
//! operator. The operator's own frame-of-reference (min subtraction)
//! takes the role of IoTDB's "subtract the minimum delta" step, so
//! negative differences need no zigzag here.
//!
//! Layout: `varint n · u8 order · blocks…`, each block being
//! `order × zigzag heads · operator block(differences)`. An empty series
//! is a single `varint 0`. The order is in the stream, so any
//! `Ts2DiffEncoding` decodes any other's output.
//!
//! Each block is encoded by a per-worker session (a difference scratch
//! plus the operator's own session). Blocks are independent, so the
//! store's parallel flush runs those sessions through the workspace's
//! multi-block driver, [`bitpack::codec::encode_blocks_with`], behind the
//! header written here.

use crate::diff::{diff_in_place, undiff_in_place};
use bitpack::codec::{encode_blocks_with, EncodeSession};
use bitpack::error::{DecodeError, DecodeResult, EncodeError};
use bitpack::zigzag::{read_varint, read_varint_i64, write_varint, write_varint_i64};
use bitpack::BlockCodec;

/// Highest differencing order the format accepts.
pub const MAX_ORDER: usize = 8;

/// Delta encoding over an inner operator.
pub struct Ts2DiffEncoding<P: BlockCodec> {
    packer: P,
    block_size: usize,
    order: usize,
}

impl<P: BlockCodec> Ts2DiffEncoding<P> {
    /// Default block size used by the experiments (values per block).
    pub const DEFAULT_BLOCK: usize = 1024;

    /// Creates the encoding with the default block size and first-order
    /// differencing.
    pub fn new(packer: P) -> Self {
        Self::with_options(packer, Self::DEFAULT_BLOCK, 1)
    }

    /// Creates the encoding with a custom block size (≥ 2).
    pub fn with_block_size(packer: P, block_size: usize) -> Self {
        Self::with_options(packer, block_size, 1)
    }

    /// Full constructor: block size ≥ 2, differencing order ≤ MAX_ORDER.
    pub fn with_options(packer: P, block_size: usize, order: usize) -> Self {
        assert!(block_size >= 2, "block size must be at least 2");
        assert!(order <= MAX_ORDER, "order must be at most {MAX_ORDER}");
        Self {
            packer,
            block_size,
            order,
        }
    }

    /// "TS2DIFF+\<operator\>" label.
    pub fn label(&self) -> String {
        format!("TS2DIFF+{}", self.packer.name())
    }

    /// Writes the stream header (an empty series has no order byte).
    fn write_header(&self, values: &[i64], out: &mut Vec<u8>) {
        write_varint(out, values.len() as u64);
        if !values.is_empty() {
            out.push(self.order as u8);
        }
    }

    /// A per-worker block encoder: one difference scratch plus the
    /// operator's own session.
    fn session(&self) -> Ts2DiffSession<'_> {
        Ts2DiffSession {
            order: self.order,
            diffs: Vec::with_capacity(self.block_size),
            inner: self.packer.encode_session(),
        }
    }

    /// Encodes the whole series.
    pub fn encode(&self, values: &[i64], out: &mut Vec<u8>) {
        self.write_header(values, out);
        let mut session = self.session();
        for block in values.chunks(self.block_size) {
            session.encode_block(block, out);
        }
    }

    /// [`encode`](Self::encode) with the blocks fanned out over up to
    /// `threads` workers by the shared driver
    /// [`encode_blocks_with`](bitpack::codec::encode_blocks_with): the
    /// bytes are identical, and an operator panic surfaces as
    /// [`EncodeError::WorkerPanicked`] with `out` exactly as on entry.
    pub(crate) fn encode_parallel(
        &self,
        values: &[i64],
        threads: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), EncodeError>
    where
        P: Sync,
    {
        let restore = out.len();
        self.write_header(values, out);
        let new_session = || -> Box<dyn EncodeSession + '_> { Box::new(self.session()) };
        encode_blocks_with(&new_session, values, self.block_size, threads, out)
            .inspect_err(|_| out.truncate(restore))
    }

    /// Decodes a series produced by [`encode`](Self::encode) (any order),
    /// appending it to `out`. Each block's heads and differences decode
    /// straight into `out` and are summed back there. On `Err`, `out` is
    /// as on entry.
    pub fn decode(&self, buf: &[u8], pos: &mut usize, out: &mut Vec<i64>) -> DecodeResult<()> {
        let n = read_varint(buf, pos)? as usize;
        if n > bitpack::MAX_BLOCK_VALUES {
            return Err(DecodeError::CountOverflow { claimed: n as u64 });
        }
        if n == 0 {
            return Ok(());
        }
        let order = *buf.get(*pos).ok_or(DecodeError::Truncated)? as usize;
        *pos += 1;
        if order > MAX_ORDER {
            return Err(DecodeError::BadModeByte { mode: order as u8 });
        }
        let restore = out.len();
        self.decode_blocks(buf, pos, n, order, out)
            .inspect_err(|_| out.truncate(restore))
    }

    /// Appends the `n` values of a stream's blocks to `out`, a block at a
    /// time. Leaves what it appended on `Err`.
    fn decode_blocks(
        &self,
        buf: &[u8],
        pos: &mut usize,
        n: usize,
        order: usize,
        out: &mut Vec<i64>,
    ) -> DecodeResult<()> {
        out.reserve(n);
        let mut produced = 0usize;
        while produced < n {
            let len = (n - produced).min(self.block_size);
            let block_start = out.len();
            for _ in 0..order.min(len) {
                out.push(read_varint_i64(buf, pos)?);
            }
            self.packer.decode(buf, pos, out)?;
            let block = out.get_mut(block_start..).unwrap_or_default();
            if block.len() != len {
                return Err(DecodeError::LengthMismatch {
                    expected: len,
                    got: block.len(),
                });
            }
            undiff_in_place(block, order);
            produced += len;
        }
        Ok(())
    }

    /// The delta (intermediate) series the paper histograms in Figure 8.
    pub fn deltas(values: &[i64]) -> Vec<i64> {
        values.windows(2).map(|w| w[1].wrapping_sub(w[0])).collect()
    }
}

/// One TS2DIFF block — `order × zigzag heads · operator block` — per
/// call. Blocks are independent, so any number of sessions can encode
/// disjoint block groups of one series.
struct Ts2DiffSession<'a> {
    order: usize,
    diffs: Vec<i64>,
    inner: Box<dyn EncodeSession + 'a>,
}

impl EncodeSession for Ts2DiffSession<'_> {
    fn encode_block(&mut self, block: &[i64], out: &mut Vec<u8>) {
        self.diffs.clear();
        self.diffs.extend_from_slice(block);
        diff_in_place(&mut self.diffs, self.order);
        let (heads, diffs) = self.diffs.split_at(self.order.min(block.len()));
        for &h in heads {
            write_varint_i64(out, h);
        }
        self.inner.encode_block(diffs, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PackerKind;

    fn roundtrip_kind(values: &[i64], kind: PackerKind, block: usize) -> usize {
        roundtrip_order(values, kind, block, 1)
    }

    fn roundtrip_order(values: &[i64], kind: PackerKind, block: usize, order: usize) -> usize {
        let enc = Ts2DiffEncoding::with_options(kind.build(), block, order);
        let mut buf = Vec::new();
        enc.encode(values, &mut buf);
        let mut pos = 0;
        let mut out = Vec::new();
        enc.decode(&buf, &mut pos, &mut out).expect("decode");
        assert_eq!(out, values, "{} block={block} order={order}", enc.label());
        assert_eq!(pos, buf.len());
        buf.len()
    }

    #[test]
    fn roundtrip_all_operators() {
        let values: Vec<i64> = (0..3000)
            .map(|i| 100_000 + i * 3 + (i % 7) - 3 + if i % 97 == 0 { 5000 } else { 0 })
            .collect();
        for kind in PackerKind::ALL {
            roundtrip_kind(&values, kind, 1024);
        }
    }

    #[test]
    fn roundtrip_odd_block_sizes() {
        let values: Vec<i64> = (0..515).map(|i| i * i % 1000).collect();
        for block in [2, 3, 64, 513, 515, 1000] {
            roundtrip_kind(&values, PackerKind::BosB, block);
        }
    }

    #[test]
    fn roundtrip_edge_series() {
        for values in [
            vec![],
            vec![5],
            vec![5, 5],
            vec![i64::MAX, i64::MIN, i64::MAX],
            vec![0; 5000],
        ] {
            roundtrip_kind(&values, PackerKind::Bp, 1024);
            roundtrip_kind(&values, PackerKind::BosB, 1024);
            roundtrip_order(&values, PackerKind::BosB, 1024, 2);
        }
    }

    #[test]
    fn linear_trend_compresses_brutally() {
        // A pure trend has constant deltas: near-zero payload.
        let values: Vec<i64> = (0..10_000).map(|i| 7 * i + 1_000_000).collect();
        let size = roundtrip_kind(&values, PackerKind::Bp, 1024);
        assert!(size < 200, "got {size}");
    }

    #[test]
    fn second_order_wins_on_drifting_slopes() {
        // A constant slope is already removed by the operator's
        // frame-of-reference; second order pays off when the slope itself
        // drifts (acceleration), because first-order deltas then span a
        // wide range within each block while second-order ones are tiny.
        let values: Vec<i64> = (0..20_000i64).map(|i| i * i / 2 + (i % 3) - 1).collect();
        let first = roundtrip_order(&values, PackerKind::Bp, 1024, 1);
        let second = roundtrip_order(&values, PackerKind::Bp, 1024, 2);
        assert!(second * 2 < first, "order2 {second} vs order1 {first}");
    }

    #[test]
    fn all_orders_roundtrip() {
        let values: Vec<i64> = (0..777).map(|i| (i * i) % 5000 - 2500).collect();
        for order in 0..=4 {
            roundtrip_order(&values, PackerKind::BosM, 256, order);
        }
    }

    #[test]
    fn delta_outliers_favor_bos() {
        // Smooth signal with occasional level shifts in BOTH directions:
        // the delta stream has two-sided outliers, BOS's target case.
        let mut values = Vec::new();
        let mut level = 0i64;
        for i in 0..8000i64 {
            if i % 500 == 250 {
                level += 60_000;
            }
            if i % 500 == 499 {
                level -= 60_000;
            }
            values.push(level + (i % 5));
        }
        let bp = roundtrip_kind(&values, PackerKind::Bp, 1024);
        let bos = roundtrip_kind(&values, PackerKind::BosB, 1024);
        assert!(bos * 2 < bp, "bos {bos} vs bp {bp}");
    }

    #[test]
    fn deltas_helper_matches_figure8_definition() {
        assert_eq!(
            Ts2DiffEncoding::<pfor::BpCodec>::deltas(&[5, 8, 6, 6]),
            vec![3, -2, 0]
        );
        assert!(Ts2DiffEncoding::<pfor::BpCodec>::deltas(&[42]).is_empty());
    }

    /// BP operator that panics when a difference above 5000 reaches it.
    struct PanicOnSpike;

    impl BlockCodec for PanicOnSpike {
        fn name(&self) -> &'static str {
            "TS2DIFF-PANIC-MOCK-TEST"
        }
        fn encode(&self, values: &[i64], out: &mut Vec<u8>) {
            assert!(values.iter().all(|&v| v <= 5000), "poison difference");
            pfor::BpCodec::new().encode(values, out)
        }
        fn decode(&self, buf: &[u8], pos: &mut usize, out: &mut Vec<i64>) -> DecodeResult<()> {
            pfor::BpCodec::new().decode(buf, pos, out)
        }
    }

    #[test]
    fn operator_panic_is_a_typed_error_with_rollback() {
        let mut values: Vec<i64> = (0..4000).collect();
        values[2500] += 7777; // a difference spike in block 2500 / 512 = 4
        let enc = Ts2DiffEncoding::with_block_size(PanicOnSpike, 512);
        for threads in [1, 2, 4] {
            let mut out = vec![0xAB, 0xCD];
            assert_eq!(
                enc.encode_parallel(&values, threads, &mut out),
                Err(EncodeError::WorkerPanicked { block: 4 }),
                "threads={threads}"
            );
            assert_eq!(out, [0xAB, 0xCD], "threads={threads}");
        }
        // Clean input still encodes, byte-identical to the sequential path.
        let clean: Vec<i64> = (0..4000).collect();
        let (mut seq, mut par) = (Vec::new(), Vec::new());
        enc.encode(&clean, &mut seq);
        enc.encode_parallel(&clean, 4, &mut par)
            .expect("clean input");
        assert_eq!(par, seq);
    }

    #[test]
    fn failed_decode_leaves_out_as_on_entry() {
        // Three blocks with outliers, so a cut or a flip can land in any
        // block after others have decoded.
        let values: Vec<i64> = (0..700)
            .map(|i| 1000 + (i % 11) * 3 + if i % 53 == 0 { 90_000 } else { 0 })
            .collect();
        let prefix = [-5i64, 5];
        for kind in PackerKind::ALL {
            let enc = Ts2DiffEncoding::with_block_size(kind.build(), 256);
            let mut buf = Vec::new();
            enc.encode(&values, &mut buf);
            let decode = |bytes: &[u8]| {
                let (mut pos, mut out) = (0, prefix.to_vec());
                (enc.decode(bytes, &mut pos, &mut out), out)
            };
            for cut in 0..buf.len() {
                let (result, out) = decode(&buf[..cut]);
                assert!(result.is_err(), "{} cut {cut}", enc.label());
                assert_eq!(out, prefix, "{} cut {cut}", enc.label());
            }
            let mut failed = 0;
            for bit in 0..buf.len() * 8 {
                let mut flipped = buf.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                match decode(&flipped) {
                    (Err(_), out) => {
                        failed += 1;
                        assert_eq!(out, prefix, "{} bit {bit}", enc.label());
                    }
                    (Ok(()), out) => assert_eq!(out[..2], prefix, "{} bit {bit}", enc.label()),
                }
            }
            assert!(failed > 0, "{}: no flip failed", enc.label());
        }
    }

    #[test]
    fn order_is_self_describing() {
        // A stream written at order 2 decodes through an order-1 handle.
        let values: Vec<i64> = (0..3000).map(|i| i * 13).collect();
        let writer = Ts2DiffEncoding::with_options(PackerKind::BosB.build(), 1024, 2);
        let mut buf = Vec::new();
        writer.encode(&values, &mut buf);
        let reader = Ts2DiffEncoding::new(PackerKind::BosB.build());
        let mut out = Vec::new();
        let mut pos = 0;
        reader.decode(&buf, &mut pos, &mut out).expect("decode");
        assert_eq!(out, values);
    }
}
