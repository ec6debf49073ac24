//! Shared utilities for the experiment binaries.

use std::time::Instant;

/// Experiment configuration, read from the environment:
///
/// * `BOS_N` — values per dataset (default 30 000; the paper's datasets
///   are larger, but ratio is size-independent once headers amortize).
/// * `BOS_REPEATS` — timing repetitions (default 3; the paper uses 500).
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Values per dataset.
    pub n: usize,
    /// Timing repetitions.
    pub repeats: usize,
}

impl Default for Config {
    fn default() -> Self {
        Self::from_env()
    }
}

impl Config {
    /// Reads the configuration from the environment.
    ///
    /// Unparsable values fall back to the default but print a warning to
    /// stderr — a silently ignored `BOS_N=30k` would otherwise run the
    /// whole experiment at the wrong size.
    pub fn from_env() -> Self {
        let (n, n_warn) = parse_env_usize("BOS_N", std::env::var("BOS_N").ok().as_deref(), 30_000);
        let (repeats, r_warn) = parse_env_usize(
            "BOS_REPEATS",
            std::env::var("BOS_REPEATS").ok().as_deref(),
            3,
        );
        for warn in [n_warn, r_warn].into_iter().flatten() {
            eprintln!("{warn}");
        }
        Self { n, repeats }
    }
}

/// Parses an environment override, returning the value plus an optional
/// warning line when `raw` is present but not a positive integer.
///
/// Split out from [`Config::from_env`] so the fallback/warning logic is
/// unit-testable without mutating process-global environment state.
fn parse_env_usize(name: &str, raw: Option<&str>, default: usize) -> (usize, Option<String>) {
    match raw {
        None => (default, None),
        Some(raw) => match raw.trim().parse::<usize>() {
            Ok(v) if v > 0 => (v, None),
            _ => (
                default,
                Some(format!(
                    "warning: ignoring {name}={raw:?} (not a positive integer), using default {default}"
                )),
            ),
        },
    }
}

/// Timing spread over a repeat set, all in nanoseconds.
///
/// `min` is the low-noise point estimate: min-of-N is the standard
/// estimator for short deterministic kernels (scheduler preemptions and
/// cache-cold runs only ever add time), so throughput numbers recorded in
/// `BENCH_PR*.json` artifacts stay reproducible across runs at the same
/// `BOS_REPEATS`. `mean` is what the paper-figure tables report; the
/// spread fields let a reader of the JSON artifact judge how noisy the
/// run was without re-running it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeStats {
    /// Fastest run.
    pub min: f64,
    /// Arithmetic mean over all runs.
    pub mean: f64,
    /// Slowest run.
    pub max: f64,
    /// Population standard deviation (0 for a single repeat).
    pub stddev: f64,
}

impl TimeStats {
    /// Computes the stats from raw per-run samples.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty());
        let n = samples.len() as f64;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        for &s in samples {
            min = min.min(s);
            max = max.max(s);
            sum += s;
        }
        let mean = sum / n;
        let var = samples
            .iter()
            .map(|&s| (s - mean) * (s - mean))
            .sum::<f64>()
            / n;
        Self {
            min,
            mean,
            max,
            stddev: var.sqrt(),
        }
    }
}

/// The one experiment timer: runs `f` once untimed as a warmup, then
/// `repeats` timed runs, returning the last result plus the full timing
/// spread in nanoseconds.
pub fn time_stats<T>(repeats: usize, mut f: impl FnMut() -> T) -> (T, TimeStats) {
    assert!(repeats >= 1);
    let _ = f(); // warmup: touch caches, resolve lazy init
    let mut samples = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats {
        let start = Instant::now();
        last = Some(f());
        samples.push(start.elapsed().as_nanos() as f64);
    }
    (
        last.expect("repeats >= 1"),
        TimeStats::from_samples(&samples),
    )
}

/// A simple fixed-width table printer for experiment output.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "column count mismatch");
        self.rows.push(row);
    }

    /// Prints the table with aligned columns (first column left-aligned,
    /// the rest right-aligned).
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            let mut line = String::new();
            for (i, (cell, w)) in cells.iter().zip(&widths).enumerate() {
                if i == 0 {
                    line.push_str(&format!("{cell:<w$}"));
                } else {
                    line.push_str(&format!("  {cell:>w$}"));
                }
            }
            line
        };
        println!("{}", fmt_row(&self.headers));
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        println!("{}", "-".repeat(total));
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }
    }
}

/// Formats a ratio to the paper's 2-decimal convention.
pub fn fmt_ratio(r: f64) -> String {
    format!("{r:.2}")
}

/// Formats nanoseconds-per-point to the paper's integer convention.
pub fn fmt_ns(ns: f64) -> String {
    format!("{ns:.0}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_prints_aligned() {
        let mut t = Table::new(["method", "EE", "MT"]);
        t.row(["GORILLA", "1.67", "2.23"]);
        t.row(["BOS-B", "3.03", "2.48"]);
        t.print(); // must not panic
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only one"]);
    }

    #[test]
    fn formats() {
        assert_eq!(fmt_ratio(3.144), "3.14");
        assert_eq!(fmt_ns(123.7), "124");
    }

    #[test]
    fn env_parse_accepts_valid_and_defaults_on_missing() {
        assert_eq!(parse_env_usize("BOS_N", Some("1234"), 30_000), (1234, None));
        assert_eq!(parse_env_usize("BOS_N", Some(" 42 "), 30_000), (42, None));
        assert_eq!(parse_env_usize("BOS_N", None, 30_000), (30_000, None));
    }

    #[test]
    fn env_parse_warns_on_garbage() {
        for bad in ["30k", "", "-5", "0", "3.5", "lots"] {
            let (v, warn) = parse_env_usize("BOS_REPEATS", Some(bad), 3);
            assert_eq!(v, 3, "bad value {bad:?} must fall back to the default");
            let warn = warn.expect("bad value must produce a warning");
            assert!(
                warn.contains("BOS_REPEATS"),
                "warning names the variable: {warn}"
            );
            assert!(
                warn.contains(bad),
                "warning quotes the bad value {bad:?}: {warn}"
            );
        }
    }

    #[test]
    fn time_stats_spread_is_consistent() {
        let mut calls = 0usize;
        let (v, stats) = time_stats(5, || {
            calls += 1;
            (0..1000).sum::<u64>()
        });
        assert_eq!(v, 499_500);
        assert_eq!(calls, 6, "warmup + 5 timed runs");
        assert!(stats.min > 0.0);
        assert!(stats.min <= stats.mean && stats.mean <= stats.max);
        assert!(stats.stddev >= 0.0 && stats.stddev.is_finite());
    }

    #[test]
    fn time_stats_from_known_samples() {
        let s = TimeStats::from_samples(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.stddev, 2.0);
        let single = TimeStats::from_samples(&[3.0]);
        assert_eq!(single.stddev, 0.0);
        assert_eq!(single.min, single.max);
    }
}
