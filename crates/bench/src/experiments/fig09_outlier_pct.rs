//! Figure 9 — percentage of lower and upper outliers separated by BOS-V.
//!
//! For each dataset, the delta stream (the input BOS actually sees inside
//! TS2DIFF) is split into 1024-value blocks, each block is solved with the
//! exact value solver, and the separated outliers are aggregated.

use crate::harness::Config;
use bos::stats::{analyze_series, SeriesStats};
use bos::ValueSolver;
use datasets::all_datasets;
use encodings::ts2diff::Ts2DiffEncoding;

/// Block size matching the encoders' default.
pub const BLOCK: usize = 1024;

/// Measures the separated outlier fractions of a series under BOS-V,
/// on the delta stream BOS actually sees inside TS2DIFF.
pub fn measure(values: &[i64]) -> SeriesStats {
    let deltas = Ts2DiffEncoding::<pfor::BpCodec>::deltas(values);
    analyze_series(&mut ValueSolver::new(), &deltas, BLOCK)
}

/// Runs the experiment.
pub fn run(cfg: &Config) {
    super::banner(
        "Figure 9: percentage of lower and upper outliers separated by BOS-V",
        cfg,
    );
    let mut table = crate::harness::Table::new(["dataset", "lower %", "upper %", "total %"]);
    for dataset in all_datasets(cfg.n) {
        let pct = measure(&dataset.as_scaled_ints());
        table.row([
            dataset.name.to_string(),
            format!("{:.1}", pct.lower_frac() * 100.0),
            format!("{:.1}", pct.upper_frac() * 100.0),
            format!("{:.1}", (pct.lower_frac() + pct.upper_frac()) * 100.0),
        ]);
    }
    table.print();
    println!();
    println!("Outliers are present in every dataset on both sides — the premise");
    println!("of separating lower outliers in addition to PFOR's upper ones.");
}
