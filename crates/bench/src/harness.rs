//! Shared utilities for the experiment binaries: configuration, the
//! timers, table printing, and the [`Report`] the gate experiments
//! print and record through.

use std::path::Path;
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
/// cache-cold runs only ever add time), so throughput numbers in the
/// bench artifacts stay reproducible across runs at the same
/// `BOS_REPEATS`. `mean` is what the paper-figure tables report; the
/// spread fields show how noisy the run was without re-running it.
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

/// One paired A/B timing, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbTimes {
    /// Fastest run with the switch on.
    pub on_ns: f64,
    /// Fastest run with the switch off.
    pub off_ns: f64,
    /// Median of the per-pair on/off time ratios (each off time floored
    /// at 1 ns): the statistic the overhead gates hold.
    pub ratio: f64,
}

/// The one A/B timer: times the same work in `pairs` adjacent (on, off)
/// pairs, alternating which state goes first, and leaves the switch on.
/// `set` flips the switch; `time` runs the work once in the given state
/// and returns its nanoseconds, so each caller picks its own repeat
/// count.
///
/// The paths under test run in microseconds to milliseconds, and a
/// shared host drifts on that scale. A slow patch hits both halves of a
/// pair and cancels in its ratio, alternation cancels any bias of going
/// first, and the median ignores the pairs a patch splits. Per-state
/// minima would instead turn one slow patch during the "on" runs into
/// measured overhead.
pub fn ab_paired(
    pairs: usize,
    mut set: impl FnMut(bool),
    mut time: impl FnMut(bool) -> f64,
) -> AbTimes {
    assert!(pairs >= 1, "an A/B needs at least one pair");
    let (mut on_ns, mut off_ns) = (f64::MAX, f64::MAX);
    let mut ratios = Vec::with_capacity(pairs);
    for pair in 0..pairs {
        let on_first = pair % 2 == 0;
        let mut ns = [0.0; 2]; // indexed by the switch state
        for on in [on_first, !on_first] {
            set(on);
            ns[usize::from(on)] = time(on);
        }
        let [off, on] = ns;
        on_ns = on_ns.min(on);
        off_ns = off_ns.min(off);
        ratios.push(on / off.max(1.0));
    }
    set(true);
    ratios.sort_by(f64::total_cmp);
    let mid = ratios.len() / 2;
    let ratio = if ratios.len() % 2 == 1 {
        ratios[mid]
    } else {
        (ratios[mid - 1] + ratios[mid]) / 2.0
    };
    AbTimes {
        on_ns,
        off_ns,
        ratio,
    }
}

/// A table of A/B results: one row per `(path, times)`.
pub fn ab_table(rows: &[(&str, AbTimes)]) -> Table {
    let mut table = Table::new(["path", "min on ns", "min off ns", "median on/off"]);
    for (path, t) in rows {
        table.row([
            (*path).to_string(),
            format!("{:.0}", t.on_ns),
            format!("{:.0}", t.off_ns),
            format!("{:.3}", t.ratio),
        ]);
    }
    table
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

/// Smallest `BOS_N` at which timing gates are enforced: below it a timed
/// run lasts about a microsecond and a ratio is mostly timer noise (the
/// default of 30 000 is well above it).
pub const GATE_MIN_N: usize = 10_000;

/// What a gate experiment reports: every table it prints, each under its
/// printed heading, plus a gates table. [`Report::finish`] writes them
/// as one `bos-bench/1` JSON file, `target/bench/<binary>.json`.
pub struct Report {
    binary: &'static str,
    cfg: Config,
    tables: Vec<(String, Table)>,
    gates: Table,
}

impl Report {
    /// Starts the report of the experiment binary `binary`.
    pub fn new(binary: &'static str, cfg: &Config) -> Self {
        Self {
            binary,
            cfg: *cfg,
            tables: Vec::new(),
            gates: Table::new(["gate", "measured", "bound", "enforced"]),
        }
    }

    /// Prints `table` under `heading` and keeps both for the artifact.
    pub fn table(&mut self, heading: impl Into<String>, table: Table) {
        let heading = heading.into();
        println!("{heading}:");
        table.print();
        println!();
        self.tables.push((heading, table));
    }

    /// Records a gate that every build enforces.
    pub fn gate(&mut self, name: &str, measured: impl ToString, bound: &str) {
        let row = [name, &measured.to_string(), bound, "yes"];
        self.gates.row(row.map(str::to_string));
    }

    /// Records a timing gate and returns whether to enforce it. The one
    /// gate rule: timing gates hold only in optimized builds (in debug
    /// the loops under test are not the shipped code) with `BOS_N` ≥
    /// [`GATE_MIN_N`].
    pub fn timing_gate(&mut self, name: &str, measured: f64, bound: &str) -> bool {
        let enforced = if cfg!(debug_assertions) {
            "no (debug build)".to_string()
        } else if self.cfg.n < GATE_MIN_N {
            format!("no (BOS_N < {GATE_MIN_N})")
        } else {
            "yes".to_string()
        };
        let row = [name, &format!("{measured:.3}"), bound, &enforced];
        self.gates.row(row.map(str::to_string));
        enforced == "yes"
    }

    /// Prints the gates, then writes the artifact unless `quick`: the one
    /// place a gate experiment decides whether to write.
    pub fn finish(self, quick: bool) {
        if !self.gates.rows.is_empty() {
            println!("Gates:");
            self.gates.print();
            println!();
        }
        if quick {
            println!("(--quick: no artifact written)");
            return;
        }
        let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/bench"));
        let path = dir.join(format!("{}.json", self.binary));
        #[expect(
            clippy::disallowed_methods,
            reason = "a git-ignored bench artifact; rerunning the experiment regenerates it"
        )]
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, self.to_json()))
            .expect("write the bench artifact");
        println!("Wrote target/bench/{}.json", self.binary);
    }

    /// Renders the `bos-bench/1` artifact.
    fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"schema\": \"bos-bench/1\",\n  \"binary\": ");
        obs::push_json_str(&mut s, self.binary);
        s.push_str(&format!(
            ",\n  \"config\": {{\"n\": {}, \"repeats\": {}}},\n  \"tables\": [",
            self.cfg.n, self.cfg.repeats
        ));
        for (i, (heading, table)) in self.tables.iter().enumerate() {
            s.push_str(if i == 0 { "\n    " } else { ",\n    " });
            s.push_str("{\"heading\": ");
            obs::push_json_str(&mut s, heading);
            s.push_str(", ");
            push_table(&mut s, table);
            s.push('}');
        }
        s.push_str("\n  ],\n  \"gates\": {");
        push_table(&mut s, &self.gates);
        s.push_str("}\n}\n");
        s
    }
}

/// Appends a table's `"columns"` and `"rows"`. A cell that parses as a
/// finite number becomes a JSON number, any other cell a string.
fn push_table(out: &mut String, table: &Table) {
    out.push_str("\"columns\": ");
    push_cells(out, &table.headers, false);
    out.push_str(", \"rows\": [");
    for (i, row) in table.rows.iter().enumerate() {
        out.push_str(if i == 0 { "\n      " } else { ",\n      " });
        push_cells(out, row, true);
    }
    out.push(']');
}

/// Appends `cells` as a JSON array, numbers as numbers when `numbers`.
fn push_cells(out: &mut String, cells: &[String], numbers: bool) {
    out.push('[');
    for (i, cell) in cells.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        match cell.parse::<f64>() {
            Ok(v) if numbers && v.is_finite() => out.push_str(&v.to_string()),
            _ => obs::push_json_str(out, cell),
        }
    }
    out.push(']');
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
    fn ab_paired_alternates_gates_on_the_pair_median_and_leaves_the_switch_on() {
        let log = std::cell::RefCell::new(Vec::new());
        // Pair ratios on/off: 6/5 = 1.2; then off runs first, 8/4 = 2.0;
        // then 3/10 = 0.3. The minima mix pairs: 3/4 would read 0.75.
        let mut times = [6.0, 5.0, 4.0, 8.0, 3.0, 10.0].into_iter();
        let t = ab_paired(
            3,
            |on| log.borrow_mut().push(("set", on)),
            |on| {
                log.borrow_mut().push(("time", on));
                times.next().expect("two timings per pair")
            },
        );
        assert_eq!(
            t,
            AbTimes {
                on_ns: 3.0,
                off_ns: 4.0,
                ratio: 1.2
            }
        );
        let order = [true, false, false, true, true, false];
        let mut expected: Vec<_> = order
            .iter()
            .flat_map(|&on| [("set", on), ("time", on)])
            .collect();
        expected.push(("set", true));
        assert_eq!(log.into_inner(), expected);
        // An even pair count takes the mean of the two middle ratios.
        let mut times = [2.0, 1.0, 1.0, 1.0].into_iter();
        let t = ab_paired(2, |_| {}, |_| times.next().expect("two pairs"));
        assert_eq!(t.ratio, 1.5);
    }

    #[test]
    fn artifact_types_cells_and_escapes_text() {
        let mut r = Report::new("exp_test", &Config { n: 5, repeats: 1 });
        let mut t = Table::new(["name", "value"]);
        t.row(["a \"q\" \\ b", "1.50"]);
        t.row(["x", "7"]);
        t.row(["y", "1.0%"]);
        t.row(["z", "inf"]);
        r.table("head \"1\" \\", t);
        r.table("empty", Table::new(["only"]));
        r.gate("panics", 0, "== 0");
        let j = r.to_json();
        assert!(j.contains("\"schema\": \"bos-bench/1\""), "{j}");
        assert!(j.contains("\"heading\": \"head \\\"1\\\" \\\\\""), "{j}");
        assert!(j.contains("[\"a \\\"q\\\" \\\\ b\", 1.5]"), "{j}");
        assert!(j.contains("[\"x\", 7]"), "{j}");
        assert!(j.contains("[\"y\", \"1.0%\"]"), "{j}");
        assert!(j.contains("[\"z\", \"inf\"]"), "{j}");
        assert!(
            j.contains("{\"heading\": \"empty\", \"columns\": [\"only\"], \"rows\": []}"),
            "{j}"
        );
        assert!(j.contains("[\"panics\", 0, \"== 0\", \"yes\"]"), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count(), "{j}");
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
