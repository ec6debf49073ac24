//! Figure 15 — compression and decompression time by block size
//! (2^6 … 2^13) for BOS-V, BOS-B and BOS-M.

use crate::harness::{time_stats, Config, Table};
use bos::{BosCodec, SolverKind};
use datasets::all_datasets;

/// The block sizes of Figure 15.
pub const SIZES: [usize; 8] = [64, 128, 256, 512, 1024, 2048, 4096, 8192];

/// Average (compression, decompression) ns/block at a given block size.
pub fn measure(kind: SolverKind, block_size: usize, cfg: &Config) -> (f64, f64) {
    let codec = BosCodec::new(kind);
    let sets = all_datasets(cfg.n.min(20_000));
    let (mut comp, mut decomp, mut blocks) = (0.0, 0.0, 0usize);
    for dataset in &sets {
        let ints = dataset.as_scaled_ints();
        // Delta blocks — what BOS sees inside the encoders.
        let deltas: Vec<i64> = ints.windows(2).map(|w| w[1].wrapping_sub(w[0])).collect();
        // Sample a handful of blocks per dataset to keep BOS-V's O(n²)
        // sweep affordable at 8192-value blocks.
        for chunk in deltas.chunks(block_size).take(4) {
            if chunk.len() < block_size {
                continue;
            }
            let mut buf = Vec::new();
            let (_, cns) = time_stats(cfg.repeats, || {
                buf.clear();
                codec.encode(chunk, &mut buf);
            });
            let mut out = Vec::new();
            let (_, dns) = time_stats(cfg.repeats, || {
                out.clear();
                let mut pos = 0;
                codec.decode(&buf, &mut pos, &mut out).expect("decode");
            });
            assert_eq!(out, chunk);
            comp += cns.mean;
            decomp += dns.mean;
            blocks += 1;
        }
    }
    let blocks = blocks.max(1) as f64;
    (comp / blocks, decomp / blocks)
}

/// Runs the experiment. Each (block size, solver) cell is measured once,
/// and both tables print from that one pass.
pub fn run(cfg: &Config) {
    super::banner(
        "Figure 15: compression/decompression time by block size (ns/block)",
        cfg,
    );
    let kinds = [
        ("BOS-V", SolverKind::Value),
        ("BOS-B", SolverKind::BitWidth),
        ("BOS-M", SolverKind::Median),
    ];
    let cells: Vec<Vec<(f64, f64)>> = SIZES
        .iter()
        .map(|&size| {
            kinds
                .iter()
                .map(|&(_, kind)| measure(kind, size, cfg))
                .collect()
        })
        .collect();
    let print_table = |title: &str, pick: fn(&(f64, f64)) -> f64| {
        println!("{title}:");
        let mut headers = vec!["block".to_string()];
        headers.extend(kinds.iter().map(|(n, _)| n.to_string()));
        let mut table = Table::new(headers);
        for (size, row) in SIZES.iter().zip(&cells) {
            table.row(
                std::iter::once(size.to_string())
                    .chain(row.iter().map(|cell| format!("{:.0}", pick(cell)))),
            );
        }
        table.print();
        println!();
    };

    print_table("Compression (ns/block)", |&(c, _)| c);
    // At the largest block, the complexity ordering must show: BOS-V
    // (quadratic) slowest, BOS-M (linear) fastest. A tiny BOS_N yields no
    // full 8192-value block at all (measure() reports 0 ns/block); the
    // ordering check needs real data.
    let last: Vec<f64> = cells
        .last()
        .expect("rows")
        .iter()
        .map(|&(c, _)| c)
        .collect();
    if last.iter().all(|&v| v > 0.0) {
        assert!(last[0] > last[1], "BOS-V must be slower than BOS-B at 8192");
        assert!(last[1] > last[2], "BOS-B must be slower than BOS-M at 8192");
    } else {
        println!("(BOS_N too small for a full 8192-value block; ordering check skipped)");
    }
    print_table("Decompression (ns/block)", |&(_, d)| d);
    println!("BOS-V grows fastest with block size (O(n²)), BOS-B in between");
    println!("(O(n log n)), BOS-M linear — the paper's scalability finding.");
}
