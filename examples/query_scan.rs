//! Scanning compressed data with block skipping: the query-side payoff of
//! the Section-VII block layout (each header carries the block minimum and
//! part widths, so range predicates can skip whole blocks undecoded).
//!
//! Run with: `cargo run --release --example query_scan`

use bos_repro::bitpack::codec::encode_blocks_parallel;
use bos_repro::bos::{BosCodec, SolverKind};
use bos_repro::datasets::generate;
use bos_repro::query::Scanner;
use std::time::Instant;

fn main() {
    // A long sensor series with distinct operating regimes.
    let values = generate("CS", 200_000).expect("dataset").as_scaled_ints();
    let mut stream = Vec::new();
    encode_blocks_parallel(
        &BosCodec::new(SolverKind::BitWidth),
        &values,
        1024,
        4,
        &mut stream,
    )
    .expect("encode");
    println!(
        "series: {} values, compressed stream {} bytes ({:.2}x)",
        values.len(),
        stream.len(),
        (values.len() * 8) as f64 / stream.len() as f64
    );

    let scanner = Scanner::open(&stream).expect("valid stream");
    println!(
        "zone map: {} blocks (built from headers only)\n",
        scanner.num_blocks()
    );

    // Header-only aggregates.
    let t = Instant::now();
    let min = scanner.min().unwrap();
    println!(
        "MIN  = {:?}  ({:.1} µs, zero blocks decoded)",
        min.unwrap(),
        t.elapsed().as_micros()
    );

    let t = Instant::now();
    let (max, stats) = scanner.max().unwrap();
    println!(
        "MAX  = {:?}  ({:.1} µs, {} of {} blocks decoded)",
        max.unwrap(),
        t.elapsed().as_micros(),
        stats.blocks_decoded,
        scanner.num_blocks()
    );

    // Selective range predicates.
    for (lo, hi) in [(0, 500), (5_800, 6_000), (2_000, 2_200)] {
        let t = Instant::now();
        let (count, stats) = scanner.count_in_range_with_stats(lo, hi).unwrap();
        println!(
            "COUNT value IN [{lo}, {hi}]  = {count:>7}  ({:>6.1} µs, decoded {}/{} blocks)",
            t.elapsed().as_micros(),
            stats.blocks_decoded,
            scanner.num_blocks()
        );
    }

    // Reference full scan for comparison.
    let t = Instant::now();
    let sum = scanner.sum().unwrap();
    println!(
        "SUM (full scan)       = {sum}  ({:.1} µs, all blocks decoded)",
        t.elapsed().as_micros()
    );

    // Cross-check against the raw data.
    assert_eq!(min, values.iter().copied().min());
    assert_eq!(max, values.iter().copied().max());
    assert_eq!(sum, values.iter().map(|&v| v as i128).sum::<i128>());
    println!("\nall answers verified against the uncompressed series ✓");
}
