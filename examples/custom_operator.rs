//! Plugging a custom operator into the encoder grid.
//!
//! The paper frames BOS as a drop-in replacement for the bit-packing
//! *operator* inside existing encoders. This example shows the extension
//! point from the other side: implement `encodings::BlockCodec` (the
//! workspace-wide `bitpack::BlockCodec`, re-exported) for your own codec
//! and run it inside TS2DIFF, next to BOS and BP.
//!
//! The toy operator here is a varint coder — simple, byte-aligned, decent
//! on small deltas, terrible on wide ones — which makes the comparison
//! instructive.
//!
//! Run with: `cargo run --release --example custom_operator`

use bos_repro::bitpack::zigzag::{read_varint, write_varint, zigzag_decode, zigzag_encode};
use bos_repro::bitpack::BlockCodec;
use bos_repro::bos::{BosCodec, SolverKind};
use bos_repro::datasets::generate;
use bos_repro::encodings::ts2diff::Ts2DiffEncoding;

/// A zigzag-varint operator: one LEB128 varint per value.
struct VarintPacker;

impl BlockCodec for VarintPacker {
    fn name(&self) -> &'static str {
        "VARINT"
    }

    fn encode(&self, values: &[i64], out: &mut Vec<u8>) {
        write_varint(out, values.len() as u64);
        for &v in values {
            write_varint(out, zigzag_encode(v));
        }
    }

    fn decode(
        &self,
        buf: &[u8],
        pos: &mut usize,
        out: &mut Vec<i64>,
    ) -> bos_repro::bitpack::DecodeResult<()> {
        let n = read_varint(buf, pos)? as usize;
        if n > bos_repro::bitpack::MAX_BLOCK_VALUES {
            return Err(bos_repro::bitpack::DecodeError::CountOverflow { claimed: n as u64 });
        }
        out.reserve(n);
        for _ in 0..n {
            out.push(zigzag_decode(read_varint(buf, pos)?));
        }
        Ok(())
    }
}

fn measure<P: BlockCodec>(packer: P, values: &[i64]) -> (String, usize) {
    let enc = Ts2DiffEncoding::new(packer);
    let mut buf = Vec::new();
    enc.encode(values, &mut buf);
    let mut out = Vec::new();
    let mut pos = 0;
    enc.decode(&buf, &mut pos, &mut out).expect("lossless");
    assert_eq!(out, values);
    (enc.label(), buf.len())
}

fn main() {
    let values = generate("TT", 50_000).expect("dataset").as_scaled_ints();
    let raw = values.len() * 8;
    println!("TY-Transport, {} values, raw {} bytes\n", values.len(), raw);
    println!("{:<22} {:>10} {:>8}", "method", "bytes", "ratio");
    let rows = vec![
        measure(pfor::BpCodec::new(), &values),
        measure(VarintPacker, &values),
        measure(BosCodec::new(SolverKind::BitWidth), &values),
    ];
    for (label, bytes) in rows {
        println!(
            "{:<22} {:>10} {:>8.2}",
            label,
            bytes,
            raw as f64 / bytes as f64
        );
    }
    println!("\nAny `BlockCodec` slots into RLE/TS2DIFF/SPRINTZ unchanged —");
    println!("exactly how BOS replaced bit-packing in Apache IoTDB.");
}
