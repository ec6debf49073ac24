//! Figure 11 — storage and query cost by bit-packing operator in TS2DIFF.
//!
//! The paper's system-level motivation: better compression lowers storage
//! and therefore IO, so scan queries stay as fast as plain BP despite the
//! extra decoding work. IO time is simulated as
//! `compressed_bytes / DISK_BANDWIDTH` (the paper measured a real disk;
//! DESIGN.md §2, substitution 5).

use crate::harness::{time_stats, Config, Table};
use datasets::all_datasets;
use encodings::{OuterKind, PackerKind, Pipeline};

/// Simulated sequential-read bandwidth in bytes/ns (500 MB/s ≈ a modest
/// SATA SSD / fast HDD array — chosen so IO and decompression costs are
/// the same order of magnitude, as in the paper's Figure 11).
pub const DISK_BYTES_PER_NS: f64 = 0.5;

/// Per-operator aggregate over all datasets.
#[derive(Debug)]
pub struct OperatorCost {
    /// Operator label.
    pub name: &'static str,
    /// Average storage cost in bytes per value.
    pub bytes_per_value: f64,
    /// Average decompression ns per value.
    pub decomp_ns: f64,
    /// Average simulated IO ns per value.
    pub io_ns: f64,
}

/// Measures all operators of Figure 11 inside TS2DIFF.
pub fn measure(cfg: &Config) -> Vec<OperatorCost> {
    let operators = [
        ("BOS", PackerKind::BosB),
        ("BP", PackerKind::Bp),
        ("FASTPFOR", PackerKind::FastPfor),
        ("NEWPFOR", PackerKind::NewPfor),
        ("OPTPFOR", PackerKind::OptPfor),
        ("PFOR", PackerKind::Pfor),
    ];
    let sets = all_datasets(cfg.n);
    operators
        .iter()
        .map(|&(name, packer)| {
            let pipeline = Pipeline::new(OuterKind::Ts2Diff, packer);
            let (mut bytes, mut decomp, mut values) = (0.0, 0.0, 0.0);
            for dataset in &sets {
                let ints = dataset.as_scaled_ints();
                let mut buf = Vec::new();
                pipeline.encode(&ints, &mut buf);
                let mut out = Vec::new();
                let (_, ns) = time_stats(cfg.repeats, || {
                    out.clear();
                    let mut pos = 0;
                    pipeline.decode(&buf, &mut pos, &mut out).expect("decode");
                });
                assert_eq!(out, ints);
                bytes += buf.len() as f64;
                decomp += ns.mean;
                values += ints.len() as f64;
            }
            OperatorCost {
                name,
                bytes_per_value: bytes / values,
                decomp_ns: decomp / values,
                io_ns: bytes / values / DISK_BYTES_PER_NS,
            }
        })
        .collect()
}

/// Runs the experiment.
pub fn run(cfg: &Config) {
    super::banner(
        "Figure 11: storage and query cost by operator in TS2DIFF",
        cfg,
    );
    let costs = measure(cfg);
    let mut table = Table::new([
        "operator",
        "storage B/value",
        "decomp ns/pt",
        "IO ns/pt",
        "query ns/pt",
    ]);
    for c in &costs {
        table.row([
            c.name.to_string(),
            format!("{:.2}", c.bytes_per_value),
            format!("{:.1}", c.decomp_ns),
            format!("{:.1}", c.io_ns),
            format!("{:.1}", c.decomp_ns + c.io_ns),
        ]);
    }
    table.print();

    let bos = costs.iter().find(|c| c.name == "BOS").expect("BOS row");
    let bp = costs.iter().find(|c| c.name == "BP").expect("BP row");
    println!();
    println!(
        "BOS stores {:.2} B/value vs BP's {:.2}; the IO saving offsets its \
         decoding cost, keeping query time comparable (the paper's point).",
        bos.bytes_per_value, bp.bytes_per_value
    );
    assert!(bos.bytes_per_value < bp.bytes_per_value);
}
