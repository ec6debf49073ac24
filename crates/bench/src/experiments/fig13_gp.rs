//! Figure 13 — combining BOS with general-purpose compression methods
//! (LZ4, 7-Zip, DCT, FFT), with and without BOS.
//!
//! * Byte-stream methods (LZ4, 7-Zip): "without BOS" compresses the raw
//!   8-byte little-endian values; "with BOS" compresses the bytes produced
//!   by TS2DIFF+BOS-B (the paper: byte-stream techniques "can be directly
//!   applied over the data encoded by bit-packing, i.e., complementary").
//! * Frequency methods (DCT, FFT): coefficients and residuals stored with
//!   plain BP ("without") or BOS-B ("with").

use crate::harness::{fmt_ns, fmt_ratio, time_stats, Config, Table};
use bos::BosCodec;
use bos::SolverKind;
use datasets::all_datasets;
use encodings::ts2diff::Ts2DiffEncoding;
use gpcomp::{ByteCodec, InnerPacker, Lz4Like, LzmaLite, TransformCodec, TransformKind};

/// One (method, with/without) measurement averaged over all datasets.
#[derive(Debug)]
pub struct GpResult {
    /// Method label ("LZ4", "7-Zip", "DCT", "FFT").
    pub method: &'static str,
    /// Average ratio without BOS.
    pub ratio_plain: f64,
    /// Average ratio with BOS.
    pub ratio_bos: f64,
    /// Average compression ns/point without BOS.
    pub ns_plain: f64,
    /// Average compression ns/point with BOS.
    pub ns_bos: f64,
}

fn raw_bytes(values: &[i64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn measure_byte_method(codec: &dyn ByteCodec, cfg: &Config) -> GpResult {
    let sets = all_datasets(cfg.n);
    let bos_enc = Ts2DiffEncoding::new(BosCodec::new(SolverKind::BitWidth));
    let (mut rp, mut rb, mut tp, mut tb) = (0.0, 0.0, 0.0, 0.0);
    for dataset in &sets {
        let ints = dataset.as_scaled_ints();
        let raw = raw_bytes(&ints);
        let n = ints.len() as f64;
        // Without BOS: codec directly over the raw bytes.
        let mut buf = Vec::new();
        let (_, ns) = time_stats(cfg.repeats, || {
            buf.clear();
            codec.compress(&raw, &mut buf);
        });
        rp += raw.len() as f64 / buf.len() as f64;
        tp += ns.mean / n;
        // With BOS: TS2DIFF+BOS-B first, then the codec over its bytes.
        let mut bos_buf = Vec::new();
        let mut buf2 = Vec::new();
        let (_, ns2) = time_stats(cfg.repeats, || {
            bos_buf.clear();
            bos_enc.encode(&ints, &mut bos_buf);
            buf2.clear();
            codec.compress(&bos_buf, &mut buf2);
        });
        // Verify the full chain decodes.
        let mut mid = Vec::new();
        let mut pos = 0;
        codec
            .decompress(&buf2, &mut pos, &mut mid)
            .expect("byte layer");
        let mut out = Vec::new();
        let mut pos2 = 0;
        bos_enc
            .decode(&mid, &mut pos2, &mut out)
            .expect("bos layer");
        assert_eq!(out, ints);
        rb += raw.len() as f64 / buf2.len() as f64;
        tb += ns2.mean / n;
    }
    let k = sets.len() as f64;
    GpResult {
        method: if codec.name().starts_with("7-Zip") {
            "7-Zip"
        } else {
            "LZ4"
        },
        ratio_plain: rp / k,
        ratio_bos: rb / k,
        ns_plain: tp / k,
        ns_bos: tb / k,
    }
}

fn measure_transform(kind: TransformKind, cfg: &Config) -> GpResult {
    let sets = all_datasets(cfg.n);
    let (mut rp, mut rb, mut tp, mut tb) = (0.0, 0.0, 0.0, 0.0);
    for dataset in &sets {
        let ints = dataset.as_scaled_ints();
        let raw = (ints.len() * 8) as f64;
        let n = ints.len() as f64;
        for (with_bos, r, t) in [(false, &mut rp, &mut tp), (true, &mut rb, &mut tb)] {
            let packer = if with_bos {
                InnerPacker::BosB
            } else {
                InnerPacker::Bp
            };
            let codec = TransformCodec::new(kind, packer);
            let mut buf = Vec::new();
            let (_, ns) = time_stats(cfg.repeats, || {
                buf.clear();
                codec.encode(&ints, &mut buf);
            });
            let mut out = Vec::new();
            let mut pos = 0;
            codec.decode(&buf, &mut pos, &mut out).expect("decode");
            assert_eq!(out, ints);
            *r += raw / buf.len() as f64;
            *t += ns.mean / n;
        }
    }
    let k = sets.len() as f64;
    GpResult {
        method: match kind {
            TransformKind::Dct => "DCT",
            TransformKind::Fft => "FFT",
        },
        ratio_plain: rp / k,
        ratio_bos: rb / k,
        ns_plain: tp / k,
        ns_bos: tb / k,
    }
}

/// Runs the experiment.
pub fn run(cfg: &Config) {
    super::banner(
        "Figure 13: combining BOS with general data compression methods",
        cfg,
    );
    let results = vec![
        measure_byte_method(&Lz4Like::new(), cfg),
        measure_byte_method(&LzmaLite::new(), cfg),
        measure_transform(TransformKind::Dct, cfg),
        measure_transform(TransformKind::Fft, cfg),
    ];
    let mut table = Table::new([
        "method",
        "ratio w/o BOS",
        "ratio with BOS",
        "ns/pt w/o",
        "ns/pt with",
    ]);
    for r in &results {
        table.row([
            r.method.to_string(),
            fmt_ratio(r.ratio_plain),
            fmt_ratio(r.ratio_bos),
            fmt_ns(r.ns_plain),
            fmt_ns(r.ns_bos),
        ]);
    }
    table.print();
    println!();
    for r in &results {
        assert!(
            r.ratio_bos > r.ratio_plain,
            "{}: BOS did not improve the ratio",
            r.method
        );
    }
    println!("All four methods improve when combined with BOS, at some extra");
    println!("compression-time overhead — matching the paper's Figure 13.");
}
