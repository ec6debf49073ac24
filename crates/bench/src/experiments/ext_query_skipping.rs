//! Extension experiment: block skipping during range scans.
//!
//! Figure 11 measures query cost as decompression + IO. The Section-VII
//! block layout additionally enables *zone-map skipping*: each header
//! carries the block's exact minimum and tight width bounds, so selective
//! range predicates decode only a fraction of the blocks. This experiment
//! quantifies that fraction per dataset (not a paper figure — an extension
//! made possible by the reproduced format).

use crate::harness::{time_stats, Config, Table};
use bitpack::codec::encode_blocks_parallel;
use bos::{BosCodec, SolverKind};
use datasets::all_datasets;
use query::Scanner;

/// Block size for the scan streams.
pub const BLOCK: usize = 1024;

/// Runs the experiment.
pub fn run(cfg: &Config) {
    super::banner("Extension: zone-map block skipping during range scans", cfg);
    let mut table = Table::new([
        "dataset",
        "blocks",
        "decoded (10% sel.)",
        "skipped %",
        "scan µs",
        "full-scan µs",
    ]);
    for dataset in all_datasets(cfg.n) {
        let ints = dataset.as_scaled_ints();
        let mut stream = Vec::new();
        let codec = BosCodec::new(SolverKind::BitWidth);
        encode_blocks_parallel(&codec, &ints, BLOCK, 1, &mut stream).expect("encode");
        let scanner = Scanner::open(&stream).expect("valid stream");

        // A ~10 %-selective predicate: the lowest decile of the value range.
        let lo = ints.iter().copied().min().unwrap_or(0);
        let hi_all = ints.iter().copied().max().unwrap_or(0);
        let hi = lo + (hi_all.saturating_sub(lo)) / 10;

        let ((count, stats), scan_ns) = time_stats(cfg.repeats, || {
            scanner.count_in_range_with_stats(lo, hi).unwrap()
        });
        let (_, full_ns) = time_stats(cfg.repeats, || scanner.sum().unwrap());
        let expected = ints.iter().filter(|&&v| v >= lo && v <= hi).count();
        assert_eq!(count, expected, "{}", dataset.abbr);

        let total = scanner.num_blocks();
        table.row([
            dataset.name.to_string(),
            total.to_string(),
            stats.blocks_decoded.to_string(),
            format!(
                "{:.0}%",
                100.0 * (total - stats.blocks_decoded) as f64 / total.max(1) as f64
            ),
            format!("{:.0}", scan_ns.mean / 1000.0),
            format!("{:.0}", full_ns.mean / 1000.0),
        ]);
    }
    table.print();
    println!();
    println!("Selective predicates decode only the overlapping blocks; the");
    println!("header-resident minima come straight from the Fig. 7 layout.");
}
