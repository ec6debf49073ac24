//! The Figure 10 method grid: every method × every dataset, measuring
//! compression ratio, compression time and decompression time. Shared by
//! the `exp_fig10a/b/c` binaries.

use crate::harness::{time_stats, Config};
use datasets::{all_datasets, Dataset};
use encodings::{OuterKind, PackerKind, Pipeline};
use floatcodec::FloatCodec;

/// Measurements of one method on one dataset.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    /// `uncompressedSize / compressedSize` (the paper's metric).
    pub ratio: f64,
    /// Compression nanoseconds per value.
    pub comp_ns: f64,
    /// Decompression nanoseconds per value.
    pub decomp_ns: f64,
}

/// One method's row across all datasets.
#[derive(Debug, Clone)]
pub struct MethodRow {
    /// Method label as used in the paper's tables.
    pub name: String,
    /// Group label ("Float", "RLE+", "SPRINTZ+", "TS2DIFF+").
    pub group: &'static str,
    /// One cell per dataset (Figure 10a column order).
    pub cells: Vec<Cell>,
}

impl MethodRow {
    /// Average ratio across datasets.
    pub fn avg_ratio(&self) -> f64 {
        self.cells.iter().map(|c| c.ratio).sum::<f64>() / self.cells.len() as f64
    }

    /// Average compression ns/point across datasets.
    pub fn avg_comp_ns(&self) -> f64 {
        self.cells.iter().map(|c| c.comp_ns).sum::<f64>() / self.cells.len() as f64
    }

    /// Average decompression ns/point across datasets.
    pub fn avg_decomp_ns(&self) -> f64 {
        self.cells.iter().map(|c| c.decomp_ns).sum::<f64>() / self.cells.len() as f64
    }
}

fn measure_float(codec: &dyn FloatCodec, dataset: &Dataset, repeats: usize) -> Cell {
    let values = dataset.as_floats();
    let mut buf = Vec::new();
    let (_, comp_ns) = time_stats(repeats, || {
        buf.clear();
        codec.encode(&values, &mut buf);
    });
    let mut out = Vec::new();
    let (_, decomp_ns) = time_stats(repeats, || {
        out.clear();
        let mut pos = 0;
        codec.decode(&buf, &mut pos, &mut out).expect("decode");
    });
    assert_eq!(out.len(), values.len());
    Cell {
        ratio: dataset.uncompressed_bytes() as f64 / buf.len() as f64,
        comp_ns: comp_ns.mean / values.len() as f64,
        decomp_ns: decomp_ns.mean / values.len() as f64,
    }
}

fn measure_pipeline(pipeline: &Pipeline, dataset: &Dataset, repeats: usize) -> Cell {
    let ints = dataset.as_scaled_ints();
    let mut buf = Vec::new();
    let (_, comp_ns) = time_stats(repeats, || {
        buf.clear();
        pipeline.encode(&ints, &mut buf);
    });
    let mut out = Vec::new();
    let (_, decomp_ns) = time_stats(repeats, || {
        out.clear();
        let mut pos = 0;
        pipeline.decode(&buf, &mut pos, &mut out).expect("decode");
    });
    assert_eq!(out, ints, "{} lossy on {}", pipeline.label(), dataset.abbr);
    Cell {
        ratio: dataset.uncompressed_bytes() as f64 / buf.len() as f64,
        comp_ns: comp_ns.mean / ints.len() as f64,
        decomp_ns: decomp_ns.mean / ints.len() as f64,
    }
}

/// Computes the full grid. Expensive (runs every method on every dataset);
/// each binary calls it once.
pub fn compute(cfg: &Config) -> (Vec<&'static str>, Vec<MethodRow>) {
    let sets = all_datasets(cfg.n);
    let abbrs: Vec<&'static str> = sets.iter().map(|d| d.abbr).collect();
    let mut rows = Vec::new();

    for codec in floatcodec::all_codecs() {
        rows.push(MethodRow {
            name: codec.name().to_string(),
            group: "Float",
            cells: sets
                .iter()
                .map(|d| measure_float(codec.as_ref(), d, cfg.repeats))
                .collect(),
        });
    }

    for outer in OuterKind::ALL {
        for packer in PackerKind::ALL {
            let pipeline = Pipeline::new(outer, packer);
            let group = match outer {
                OuterKind::Rle => "RLE+",
                OuterKind::Sprintz => "SPRINTZ+",
                OuterKind::Ts2Diff => "TS2DIFF+",
            };
            rows.push(MethodRow {
                name: pipeline.label(),
                group,
                cells: sets
                    .iter()
                    .map(|d| measure_pipeline(&pipeline, d, cfg.repeats))
                    .collect(),
            });
        }
    }
    (abbrs, rows)
}
