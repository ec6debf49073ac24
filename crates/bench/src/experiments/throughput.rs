//! Throughput: kernel, operator and solver speed, plus the cost of the
//! `obs` metrics layer.
//!
//! Four layers are measured:
//!
//! * **Kernels**: `pack_words`/`unpack_words` (generic scalar) vs the
//!   width-specialized unrolled kernels vs the fused frame-of-reference
//!   variants, for every width 1..=64 on `BOS_N` uniformly-masked values.
//! * **Operators**: every [`PackerKind`] (the PFOR family plus the three
//!   BOS solvers) encoding/decoding the paper's datasets in 1024-value
//!   blocks — the block size the paper's experiments use. Each row
//!   reports the fastest run and the decode spread (stddev/mean).
//! * **Metrics**: the `obs` instrumentation itself — per-solver
//!   candidate/prune tallies and the solver-search vs payload-packing
//!   wall-time split from the span registry, plus an obs-on/obs-off A/B
//!   overhead check. With metrics on, the kernel path must stay within
//!   `OBS_OVERHEAD_GATE`, and toggling the runtime kill-switch must not
//!   change a single output byte.
//! * **Solvers**: every [`SolverKind`] encoding the outlier dataset
//!   through a scratch-reusing [`bitpack::EncodeSession`], then BOS-B on
//!   the blocks the store actually encodes: TS2DIFF order-1 differences
//!   of the twelve dataset generators, two seeds each, in 1024-value
//!   blocks, with solve, pack and decode timed apart and the search
//!   effort per block read from the `obs` registry. This section also
//!   runs alone under `--quick` as part of the tier-1 recipe.
//!
//! A full run writes every printed table and the gates to
//! `target/bench/exp_throughput.json` (see [`Report`]); `--quick` writes
//! nothing. Timings use [`time_stats`] (warmup + min-of-`BOS_REPEATS`)
//! for reproducibility.

use crate::harness::{ab_paired, ab_table, time_stats, AbTimes, Config, Report, Table, TimeStats};
use bitpack::codec::encode_blocks_parallel;
use bitpack::kernels::{pack_words, unpack_words};
use bitpack::unrolled::{
    pack_words_for, pack_words_unrolled, unpack_words_for, unpack_words_unrolled,
};
use bitpack::BlockCodec;
use bos::{BitWidthSolver, BosCodec, Solver, SolverKind, SolverScratch};
use datasets::{all_datasets, generate_seeded, ABBREVIATIONS};
use encodings::PackerKind;

/// Block size used for the operator measurements (the paper's default).
const BLOCK: usize = 1024;

/// Reference used for the fused frame-of-reference kernel runs.
const FUSED_REF: i64 = -123_456_789;

/// The widths the acceptance gate covers: the unrolled unpack kernels must
/// beat the generic scalar kernel by [`GATE_SPEEDUP`]x in geomean over
/// these widths, and by [`GATE_WIDTH_FLOOR`]x on every single one.
const GATE_WIDTHS: std::ops::RangeInclusive<u32> = 1..=20;

/// Required *geomean* unpack speedup over [`GATE_WIDTHS`]. PR 2 gated the
/// per-width minimum at 2x, but on single-core hosts one width's ratio
/// swings +/-30% with binary layout alone, so the aggregate carries the
/// claim and a looser per-width floor catches real regressions.
const GATE_SPEEDUP: f64 = 2.0;

/// Required minimum per-width unpack speedup on [`GATE_WIDTHS`].
const GATE_WIDTH_FLOOR: f64 = 1.5;

/// Outlier share of the solver dataset: 1 value in 50 (2%).
const OUTLIER_DIVISOR: u64 = 50;

/// Maximum obs-on / obs-off time ratio allowed on the kernel unpack path
/// (the instrumentation never touches the kernels, so this documents that
/// the layer is free where it matters most; ≤ 5% leaves room for timer
/// noise). A timing gate, enforced by [`Report::timing_gate`]'s rule.
const OBS_OVERHEAD_GATE: f64 = 1.05;

/// Alternating-order (on, off) pairs per obs A/B; the gate holds the
/// median of the per-pair ratios.
const AB_PAIRS: usize = 15;

struct KernelRow {
    width: u32,
    pack_generic: f64,
    pack_unrolled: f64,
    pack_fused: f64,
    unpack_generic: f64,
    unpack_unrolled: f64,
    unpack_fused: f64,
}

impl KernelRow {
    fn unpack_speedup(&self) -> f64 {
        self.unpack_unrolled / self.unpack_generic
    }
}

struct OperatorRow {
    name: &'static str,
    dataset: &'static str,
    /// Encode throughput (values/s) from the fastest run.
    encode: f64,
    /// Decode throughput (values/s) from the fastest run.
    decode: f64,
    ratio: f64,
    /// Raw per-run decode timing spread (ns).
    decode_ns: TimeStats,
}

/// Search-effort and search-vs-pack split for one BOS solver, read back
/// from the `obs` registry after encoding one dataset.
struct SolverMetricsRow {
    name: &'static str,
    blocks: u64,
    candidates: u64,
    prunes: u64,
    search_ns: u64,
    pack_ns: u64,
}

impl SolverMetricsRow {
    /// Fraction of encode wall-time spent searching (vs packing).
    fn search_share(&self) -> f64 {
        let total = self.search_ns + self.pack_ns;
        if total == 0 {
            0.0
        } else {
            self.search_ns as f64 / total as f64
        }
    }
}

/// Obs-on vs obs-off A/B results.
struct Overhead {
    /// Kernel unpack — gated at `OBS_OVERHEAD_GATE`.
    kernel: AbTimes,
    /// BOS-M driver encode — reported, not gated (the driver path *is*
    /// instrumented, but solver cost dominates).
    driver: AbTimes,
    /// Whether the obs-off encode produced byte-identical output.
    byte_identical: bool,
}

/// Values per second from a count and elapsed nanoseconds.
fn vps(n: usize, ns: f64) -> f64 {
    n as f64 / (ns.max(1.0) / 1e9)
}

pub(crate) fn masked_values(n: usize, w: u32) -> Vec<u64> {
    let mask = if w == 0 {
        0
    } else if w == 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    };
    (0..n as u64)
        .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17) & mask)
        .collect()
}

fn kernel_rows(cfg: &Config) -> Vec<KernelRow> {
    let mut rows = Vec::new();
    for w in 1..=64u32 {
        let deltas = masked_values(cfg.n, w);
        let originals: Vec<i64> = deltas
            .iter()
            .map(|&d| FUSED_REF.wrapping_add(d as i64))
            .collect();

        let mut buf = Vec::new();
        let (_, pack_generic_ns) = time_stats(cfg.repeats, || {
            buf.clear();
            pack_words(&deltas, w, &mut buf);
        });
        let mut buf2 = Vec::new();
        let (_, pack_unrolled_ns) = time_stats(cfg.repeats, || {
            buf2.clear();
            pack_words_unrolled(&deltas, w, &mut buf2);
        });
        assert_eq!(buf, buf2, "unrolled pack must be bit-identical (w = {w})");
        let mut buf3 = Vec::new();
        let (_, pack_fused_ns) = time_stats(cfg.repeats, || {
            buf3.clear();
            pack_words_for(&originals, FUSED_REF, w, &mut buf3);
        });
        assert_eq!(buf, buf3, "fused pack must be bit-identical (w = {w})");

        let mut out = Vec::new();
        let (_, unpack_generic_ns) = time_stats(cfg.repeats, || {
            out.clear();
            unpack_words(&buf, cfg.n, w, &mut out).expect("unpack");
        });
        let mut out2 = Vec::new();
        let (_, unpack_unrolled_ns) = time_stats(cfg.repeats, || {
            out2.clear();
            unpack_words_unrolled(&buf, cfg.n, w, &mut out2).expect("unpack");
        });
        assert_eq!(out, out2, "unrolled unpack must match (w = {w})");
        let mut restored = Vec::new();
        let (_, unpack_fused_ns) = time_stats(cfg.repeats, || {
            restored.clear();
            unpack_words_for(&buf, cfg.n, w, FUSED_REF, &mut restored).expect("unpack");
        });
        assert_eq!(restored, originals, "fused unpack must restore (w = {w})");

        rows.push(KernelRow {
            width: w,
            pack_generic: vps(cfg.n, pack_generic_ns.min),
            pack_unrolled: vps(cfg.n, pack_unrolled_ns.min),
            pack_fused: vps(cfg.n, pack_fused_ns.min),
            unpack_generic: vps(cfg.n, unpack_generic_ns.min),
            unpack_unrolled: vps(cfg.n, unpack_unrolled_ns.min),
            unpack_fused: vps(cfg.n, unpack_fused_ns.min),
        });
    }
    rows
}

fn operator_rows(cfg: &Config) -> Vec<OperatorRow> {
    let sets = all_datasets(cfg.n);
    let mut rows = Vec::new();
    for kind in PackerKind::ALL {
        let packer = kind.build();
        for dataset in &sets {
            let ints = dataset.as_scaled_ints();
            let mut buf = Vec::new();
            let (_, encode_ns) = time_stats(cfg.repeats, || {
                buf.clear();
                for block in ints.chunks(BLOCK) {
                    packer.encode(block, &mut buf);
                }
            });
            let blocks = ints.len().div_ceil(BLOCK).max(1);
            let mut out = Vec::new();
            let (_, decode_ns) = time_stats(cfg.repeats, || {
                out.clear();
                let mut pos = 0;
                for _ in 0..blocks {
                    packer.decode(&buf, &mut pos, &mut out).expect("decode");
                }
            });
            assert_eq!(out, ints, "{} roundtrip on {}", packer.name(), dataset.abbr);
            rows.push(OperatorRow {
                name: packer.name(),
                dataset: dataset.abbr,
                encode: vps(ints.len(), encode_ns.min),
                decode: vps(ints.len(), decode_ns.min),
                ratio: dataset.uncompressed_bytes() as f64 / buf.len() as f64,
                decode_ns,
            });
        }
    }
    rows
}

/// The paper solvers (plus the PR 8 adaptive ladder) driven through the
/// shared parallel encode driver, with their `obs` metric label.
const SOLVER_KINDS: [(SolverKind, &str); 4] = [
    (SolverKind::Value, "BOS-V"),
    (SolverKind::BitWidth, "BOS-B"),
    (SolverKind::Median, "BOS-M"),
    (SolverKind::Adaptive, "BOS-A"),
];

/// Encodes every dataset once per BOS solver and reads the search-effort
/// tallies and the search/pack span split back from the `obs` registry.
///
/// Resets the registry per solver so the tallies are attributable; run
/// this *after* anything whose metrics should survive.
fn solver_metrics_rows(cfg: &Config) -> Vec<SolverMetricsRow> {
    let sets = all_datasets(cfg.n);
    let mut rows = Vec::new();
    for (kind, label) in SOLVER_KINDS {
        obs::reset();
        let codec = BosCodec::new(kind);
        for dataset in &sets {
            let ints = dataset.as_scaled_ints();
            let mut buf = Vec::new();
            // threads = 1 keeps the spans on this thread; the tallies are
            // identical either way (the solver sees the same blocks).
            encode_blocks_parallel(&codec, &ints, BLOCK, 1, &mut buf).expect("encode");
        }
        let snap = obs::snapshot();
        rows.push(SolverMetricsRow {
            name: label,
            blocks: snap.counter(&format!("solver.{label}.blocks")),
            candidates: snap.counter(&format!("solver.{label}.candidates")),
            prunes: snap.counter(&format!("solver.{label}.prunes")),
            search_ns: snap
                .span(&format!("solver_search.{label}"))
                .map_or(0, |s| s.total_ns),
            pack_ns: snap
                .span(&format!("pack_payload.{label}"))
                .map_or(0, |s| s.total_ns),
        });
    }
    rows
}

/// Encode throughput for one solver kind on the outlier dataset.
struct SolverEncodeRow {
    name: &'static str,
    /// Encode throughput (values/s) through a scratch-reusing session.
    encode: f64,
    bytes: usize,
}

/// Deterministic solver dataset: tight center (uniform `[0, 200)`)
/// with 2% outliers near ±2⁴⁰ — the distribution BOS targets, and the one
/// whose candidate ladders the PR 8 pruning cuts hardest. A fixed LCG
/// keeps the artifact reproducible run to run.
pub(crate) fn outlier_series(n: usize) -> Vec<i64> {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let r = state >> 33;
            if r.is_multiple_of(OUTLIER_DIVISOR) {
                let magnitude = (1i64 << 40) + (r % 1000) as i64;
                if r & 2 == 0 {
                    magnitude
                } else {
                    -magnitude
                }
            } else {
                (r % 200) as i64
            }
        })
        .collect()
}

/// Times every [`SolverKind`] encoding the outlier dataset through a
/// scratch-reusing [`bitpack::EncodeSession`] (the PR 8 encode path), and
/// verifies each stream decodes back to the input.
fn solver_encode_rows(cfg: &Config, series: &[i64]) -> Vec<SolverEncodeRow> {
    let mut rows = Vec::new();
    for kind in SolverKind::ALL {
        let codec = BosCodec::new(kind);
        let mut buf = Vec::new();
        let (_, ns) = time_stats(cfg.repeats, || {
            buf.clear();
            let mut session = codec.encode_session();
            for block in series.chunks(BLOCK) {
                session.encode_block(block, &mut buf);
            }
        });
        let mut pos = 0;
        let mut out = Vec::new();
        while pos < buf.len() {
            bos::decode(&buf, &mut pos, &mut out).expect("decode");
        }
        assert_eq!(
            out,
            series,
            "{} roundtrip on the outlier dataset",
            kind.label()
        );
        rows.push(SolverEncodeRow {
            name: kind.label(),
            encode: vps(series.len(), ns.min),
            bytes: buf.len(),
        });
    }
    rows
}

/// Generator seeds of the store-shaped rows: two series per dataset
/// shape, as in the store benchmark's 24 series.
const STORE_SEEDS: [u64; 2] = [1, 7];

/// BOS-B on the store's own block shape for one dataset generator (or all
/// of them): solve and pack timed apart, search effort per block.
struct StoreShapedRow {
    dataset: &'static str,
    blocks: usize,
    values: usize,
    /// Solve time (ns, fastest run) over every block.
    solve_ns: f64,
    /// Pack time (ns, fastest run) over every block, solutions in hand.
    pack_ns: f64,
    /// Decode time (ns, fastest run) of every block, back to back.
    decode_ns: f64,
    /// `solver.BOS-B.candidates` / `prunes` over one solve of every
    /// block.
    candidates: u64,
    prunes: u64,
    /// Encoded BOS block bytes.
    bytes: usize,
}

/// The operator blocks TS2DIFF hands BOS for `series`: 1024-value blocks,
/// each as its 1023 order-1 differences (the head is stored apart).
fn ts2diff_blocks(series: &[i64]) -> impl Iterator<Item = Vec<i64>> + '_ {
    series
        .chunks(BLOCK)
        .map(|block| block.windows(2).map(|w| w[1].wrapping_sub(w[0])).collect())
}

/// Times BOS-B's solve and pack on `blocks` through one solver and one
/// reused [`SolverScratch`] (what an encode session holds), then the
/// decode of every block, and checks that every block decodes back.
fn store_shaped_row(cfg: &Config, dataset: &'static str, blocks: &[Vec<i64>]) -> StoreShapedRow {
    let mut solver = BitWidthSolver::new();
    let mut scratch = SolverScratch::new();
    let effort = |snap: &obs::Snapshot| {
        (
            snap.counter("solver.BOS-B.candidates"),
            snap.counter("solver.BOS-B.prunes"),
        )
    };
    let before = effort(&obs::snapshot());
    let solutions: Vec<_> = blocks
        .iter()
        .map(|b| solver.solve_into(b, &mut scratch))
        .collect();
    let after = effort(&obs::snapshot());
    let (_, solve_ns) = time_stats(cfg.repeats, || {
        for b in blocks {
            std::hint::black_box(solver.solve_into(b, &mut scratch));
        }
    });
    let mut buf = Vec::new();
    let (_, pack_ns) = time_stats(cfg.repeats, || {
        buf.clear();
        for (b, solution) in blocks.iter().zip(&solutions) {
            bos::encode_block_with_solution(b, solution, &mut buf);
        }
    });
    let mut out = Vec::new();
    let (_, decode_ns) = time_stats(cfg.repeats, || {
        out.clear();
        let mut pos = 0;
        while pos < buf.len() {
            bos::decode(&buf, &mut pos, &mut out).expect("decode");
        }
    });
    assert_eq!(out, blocks.concat(), "BOS-B roundtrip on {dataset}");
    StoreShapedRow {
        dataset,
        blocks: blocks.len(),
        values: out.len(),
        solve_ns: solve_ns.min,
        pack_ns: pack_ns.min,
        decode_ns: decode_ns.min,
        candidates: after.0 - before.0,
        prunes: after.1 - before.1,
        bytes: buf.len(),
    }
}

/// One [`StoreShapedRow`] per dataset generator, each over `cfg.n` values
/// of every seed in [`STORE_SEEDS`], then their total.
fn store_shaped_rows(cfg: &Config) -> Vec<StoreShapedRow> {
    let mut rows: Vec<StoreShapedRow> = ABBREVIATIONS
        .iter()
        .map(|&abbr| {
            let blocks: Vec<Vec<i64>> = STORE_SEEDS
                .iter()
                .flat_map(|&seed| {
                    let series = generate_seeded(abbr, cfg.n, seed)
                        .expect("registered abbreviation")
                        .as_scaled_ints();
                    ts2diff_blocks(&series).collect::<Vec<_>>()
                })
                .collect();
            store_shaped_row(cfg, abbr, &blocks)
        })
        .collect();
    let total = StoreShapedRow {
        dataset: "all",
        blocks: rows.iter().map(|r| r.blocks).sum(),
        values: rows.iter().map(|r| r.values).sum(),
        solve_ns: rows.iter().map(|r| r.solve_ns).sum(),
        pack_ns: rows.iter().map(|r| r.pack_ns).sum(),
        decode_ns: rows.iter().map(|r| r.decode_ns).sum(),
        candidates: rows.iter().map(|r| r.candidates).sum(),
        prunes: rows.iter().map(|r| r.prunes).sum(),
        bytes: rows.iter().map(|r| r.bytes).sum(),
    };
    rows.push(total);
    rows
}

/// The solver section: per-solver encode throughput through
/// scratch-reusing sessions, then BOS-B on store-shaped blocks.
fn solver_section(cfg: &Config, report: &mut Report) {
    let series = outlier_series(cfg.n);
    let mut table = Table::new(["solver", "encode", "bytes"]);
    for r in &solver_encode_rows(cfg, &series) {
        table.row([r.name.to_string(), fmt_mvps(r.encode), r.bytes.to_string()]);
    }
    report.table(
        "Solver encode throughput (million values/s, scratch-reusing \
         sessions, 2% outlier dataset)",
        table,
    );

    let mut table = Table::new([
        "dataset",
        "blocks",
        "solve",
        "pack",
        "decode",
        "cand/block",
        "prunes/block",
        "bits/value",
    ]);
    for r in &store_shaped_rows(cfg) {
        let per_block = |count: u64| format!("{:.1}", count as f64 / r.blocks.max(1) as f64);
        table.row([
            r.dataset.to_string(),
            r.blocks.to_string(),
            fmt_mvps(vps(r.values, r.solve_ns)),
            fmt_mvps(vps(r.values, r.pack_ns)),
            fmt_mvps(vps(r.values, r.decode_ns)),
            per_block(r.candidates),
            per_block(r.prunes),
            format!("{:.3}", r.bytes as f64 * 8.0 / r.values.max(1) as f64),
        ]);
    }
    report.table(
        format!(
            "BOS-B on store-shaped blocks (million values/s): TS2DIFF order-1 \
             differences in {BLOCK}-value blocks, seeds {STORE_SEEDS:?}; \
             search effort from the obs registry"
        ),
        table,
    );
}

/// A/B comparison with the runtime kill-switch: kernel unpack and BOS-M
/// driver encode timed obs-on vs obs-off, plus the byte-identity check.
fn overhead_check(cfg: &Config) -> Overhead {
    // Kernel path: width-13 unpack, the same shape the speedup gate times.
    let deltas = masked_values(cfg.n, 13);
    let mut packed = Vec::new();
    pack_words_unrolled(&deltas, 13, &mut packed);
    let mut out = Vec::new();
    let kernel = ab_paired(AB_PAIRS, obs::set_enabled, |_| {
        let (_, ns) = time_stats(cfg.repeats, || {
            out.clear();
            unpack_words_unrolled(&packed, deltas.len(), 13, &mut out).expect("unpack");
        });
        ns.min
    });

    // Driver path: BOS-M through the instrumented parallel driver (single
    // thread, so only the metering itself differs between runs).
    let sets = all_datasets(cfg.n);
    let ints = sets.first().expect("datasets nonempty").as_scaled_ints();
    let codec = BosCodec::new(SolverKind::Median);
    let mut buf_on = Vec::new();
    let mut buf_off = Vec::new();
    let driver = ab_paired(AB_PAIRS, obs::set_enabled, |on| {
        let buf = if on { &mut buf_on } else { &mut buf_off };
        let (_, ns) = time_stats(cfg.repeats, || {
            buf.clear();
            encode_blocks_parallel(&codec, &ints, BLOCK, 1, buf).expect("encode");
        });
        ns.min
    });

    Overhead {
        kernel,
        driver,
        byte_identical: buf_on == buf_off,
    }
}

fn fmt_mvps(v: f64) -> String {
    format!("{:.1}", v / 1e6)
}

/// Runs only the solver section (the tier-1 `--quick` recipe):
/// per-solver encode throughput, skipping the kernel/operator sweeps and
/// writing no artifact.
pub fn run_quick(cfg: &Config) {
    super::banner(
        "Solver throughput (quick): scratch-reusing sessions (values/s)",
        cfg,
    );
    let mut report = Report::new("exp_throughput", cfg);
    solver_section(cfg, &mut report);
    report.finish(true);
}

/// Runs the experiment and writes `target/bench/exp_throughput.json`.
pub fn run(cfg: &Config) {
    super::banner(
        "Throughput: kernels, operators, obs metrics and solvers (values/s)",
        cfg,
    );
    let mut report = Report::new("exp_throughput", cfg);

    let kernels = kernel_rows(cfg);
    let mut table = Table::new([
        "width",
        "pack gen",
        "pack unr",
        "pack fused",
        "unpack gen",
        "unpack unr",
        "unpack fused",
        "unpack x",
    ]);
    for r in &kernels {
        table.row([
            r.width.to_string(),
            fmt_mvps(r.pack_generic),
            fmt_mvps(r.pack_unrolled),
            fmt_mvps(r.pack_fused),
            fmt_mvps(r.unpack_generic),
            fmt_mvps(r.unpack_unrolled),
            fmt_mvps(r.unpack_fused),
            format!("{:.2}", r.unpack_speedup()),
        ]);
    }
    report.table(
        "Kernel throughput (million values/s), generic vs unrolled vs fused",
        table,
    );

    let gate: Vec<&KernelRow> = kernels
        .iter()
        .filter(|r| GATE_WIDTHS.contains(&r.width))
        .collect();
    let min_speedup = gate
        .iter()
        .map(|r| r.unpack_speedup())
        .fold(f64::INFINITY, f64::min);
    let geomean_speedup =
        (gate.iter().map(|r| r.unpack_speedup().ln()).sum::<f64>() / gate.len() as f64).exp();
    let widths = format!("widths {}..={}", GATE_WIDTHS.start(), GATE_WIDTHS.end());
    let enforced = report.timing_gate(
        &format!("unpack speedup geomean, {widths}"),
        geomean_speedup,
        &format!(">= {GATE_SPEEDUP}"),
    );
    report.timing_gate(
        &format!("unpack speedup min, {widths}"),
        min_speedup,
        &format!(">= {GATE_WIDTH_FLOOR}"),
    );
    if enforced {
        assert!(
            geomean_speedup >= GATE_SPEEDUP,
            "unrolled unpack must average >= {GATE_SPEEDUP}x generic on widths 1..=20, got {geomean_speedup:.2}x"
        );
        assert!(
            min_speedup >= GATE_WIDTH_FLOOR,
            "every width in 1..=20 must unpack >= {GATE_WIDTH_FLOOR}x generic, got {min_speedup:.2}x"
        );
    }

    let operators = operator_rows(cfg);
    let mut table = Table::new([
        "operator", "dataset", "encode", "decode", "ratio", "spread %",
    ]);
    for r in &operators {
        let spread = if r.decode_ns.mean > 0.0 {
            r.decode_ns.stddev / r.decode_ns.mean
        } else {
            0.0
        };
        table.row([
            r.name.to_string(),
            r.dataset.to_string(),
            fmt_mvps(r.encode),
            fmt_mvps(r.decode),
            format!("{:.2}", r.ratio),
            format!("{:.1}", spread * 100.0),
        ]);
    }
    report.table(
        format!(
            "Operator throughput (million values/s, from fastest of {} runs), \
             1024-value blocks; spread = decode stddev/mean",
            cfg.repeats
        ),
        table,
    );

    // Overhead A/B first (it flips the kill-switch), then the solver
    // metrics pass, which resets the registry per solver — order matters.
    let overhead = overhead_check(cfg);
    let metrics = solver_metrics_rows(cfg);
    let mut table = Table::new([
        "solver",
        "blocks",
        "candidates",
        "prunes",
        "search ms",
        "pack ms",
        "search %",
    ]);
    for r in &metrics {
        table.row([
            r.name.to_string(),
            r.blocks.to_string(),
            r.candidates.to_string(),
            r.prunes.to_string(),
            format!("{:.2}", r.search_ns as f64 / 1e6),
            format!("{:.2}", r.pack_ns as f64 / 1e6),
            format!("{:.1}", r.search_share() * 100.0),
        ]);
    }
    report.table(
        "BOS solver search effort and search-vs-pack split (obs registry)",
        table,
    );
    report.table(
        format!("obs kill-switch A/B ({AB_PAIRS} alternating-order pairs)"),
        ab_table(&[
            ("kernel unpack (w = 13)", overhead.kernel),
            ("BOS-M driver encode", overhead.driver),
        ]),
    );
    report.gate(
        "byte-identical across the obs kill-switch",
        overhead.byte_identical,
        "true",
    );
    assert!(
        overhead.byte_identical,
        "toggling the obs kill-switch must not change encoded bytes"
    );
    if report.timing_gate(
        "obs-on/obs-off kernel unpack",
        overhead.kernel.ratio,
        &format!("<= {OBS_OVERHEAD_GATE}"),
    ) {
        assert!(
            overhead.kernel.ratio <= OBS_OVERHEAD_GATE,
            "obs-on kernel unpack must stay within {OBS_OVERHEAD_GATE}x of obs-off, \
             got {:.3}x",
            overhead.kernel.ratio
        );
    }

    solver_section(cfg, &mut report);
    report.finish(false);
}
