//! PR9 observability — the flight-recorder acceptance artifact.
//!
//! Three claims are measured and gated, then written to `BENCH_PR9.json`:
//!
//! * **Overhead**: with the trail recorder at default capacity and
//!   sampling, the kernel unpack path must stay within
//!   [`KERNEL_OVERHEAD_GATE`] of the recorder-off time (the recorder
//!   never touches the kernels, so this documents that the layer is free
//!   where it matters most), and the full BOS-A encode pipeline — which
//!   *does* emit per-block provenance events — must stay within
//!   [`PIPELINE_OVERHEAD_GATE`]. Both A/Bs alternate on/off rounds and
//!   keep per-state minima, the same discipline as the PR 4 gate.
//! * **Transparency**: toggling the recorder must not change a single
//!   output byte, and re-encoding a fixed input must produce the exact
//!   same per-label event counts (the trail is deterministic provenance,
//!   not a best-effort log).
//! * **Export sanity**: the drained trail renders to a non-empty Chrome
//!   `trace_event` array carrying the required `ph`/`ts`/`pid`/`tid`/
//!   `name` fields (the structural round-trip lives in
//!   `tests/trail_trace.rs`; this keeps the artifact honest about size).
//!
//! The artifact also records `p50/p90/p99` for the key shape histograms
//! (separated widths, partition sizes, worker wall-time) using the PR 9
//! bucket-interpolated percentiles, so later PRs can diff distribution
//! shifts, not just totals. The whole experiment is cheap enough that
//! `--quick` runs every measurement and gate; it is part of the tier-1
//! recipe and writes no artifact.

use crate::harness::{time_stats, Config};
use bitpack::codec::encode_blocks_parallel;
use bitpack::unrolled::{pack_words_unrolled, unpack_words_unrolled};
use bos::{BosCodec, SolverKind};
use std::path::PathBuf;

use super::throughput::{masked_values, outlier_series};

/// Block size for the pipeline runs (the paper's default).
const BLOCK: usize = 1024;

/// Maximum recorder-on / recorder-off time ratio on the kernel unpack
/// path (PR 9 acceptance bar; the recorder never runs there).
const KERNEL_OVERHEAD_GATE: f64 = 1.05;

/// Maximum recorder-on / recorder-off time ratio on the full BOS-A
/// encode pipeline, which emits one provenance event per block plus the
/// adaptive verdicts (PR 9 acceptance bar).
const PIPELINE_OVERHEAD_GATE: f64 = 1.10;

/// Smallest `BOS_N` at which the ratio gates are enforced — below this a
/// timed run is about a microsecond and the ratio is mostly timer noise.
const GATE_MIN_N: usize = 10_000;

/// Alternating on/off rounds per A/B (min of each state is kept).
const AB_ROUNDS: usize = 3;

/// Extra rounds/repeats floor for the kernel A/B: one unpack run is tens
/// of microseconds, so the on/off ratio needs more samples than the
/// millisecond-scale pipeline A/B before the minima converge.
const KERNEL_AB_ROUNDS: usize = 7;

/// Minimum timing repetitions per kernel round (see above).
const KERNEL_MIN_REPEATS: usize = 9;

/// Kernel width used for the unpack A/B (same shape as the PR 2 gate).
const KERNEL_WIDTH: u32 = 13;

/// Worker threads for the determinism pass — two, so the parallel
/// driver's dispatch/join provenance is part of the counted stream.
const DETERMINISM_THREADS: usize = 2;

/// One A/B measurement: recorder-on vs recorder-off minima.
struct AbTimes {
    on_ns: f64,
    off_ns: f64,
}

impl AbTimes {
    fn ratio(&self) -> f64 {
        self.on_ns / self.off_ns.max(1.0)
    }
}

/// Kernel unpack A/B: the recorder has no hook on this path, so the
/// ratio is pure measurement noise — which is exactly the claim.
fn kernel_ab(cfg: &Config) -> AbTimes {
    let deltas = masked_values(cfg.n, KERNEL_WIDTH);
    let mut packed = Vec::new();
    pack_words_unrolled(&deltas, KERNEL_WIDTH, &mut packed);
    let mut out = Vec::new();
    let repeats = cfg.repeats.max(KERNEL_MIN_REPEATS);
    let mut time_unpack = || {
        let (_, ns) = time_stats(repeats, || {
            out.clear();
            unpack_words_unrolled(&packed, deltas.len(), KERNEL_WIDTH, &mut out).expect("unpack");
        });
        ns.min
    };
    let mut on = f64::MAX;
    let mut off = f64::MAX;
    for _ in 0..KERNEL_AB_ROUNDS {
        obs::trail::set_recording(true);
        on = on.min(time_unpack());
        obs::trail::set_recording(false);
        off = off.min(time_unpack());
    }
    obs::trail::set_recording(true);
    obs::trail::drain();
    AbTimes {
        on_ns: on,
        off_ns: off,
    }
}

/// Full-pipeline A/B: BOS-A (the chattiest solver — it emits a verdict
/// per block on top of the block events) through the shared encode
/// driver, recorder on vs off, asserting byte-identical output.
fn pipeline_ab(cfg: &Config, series: &[i64]) -> (AbTimes, bool) {
    let codec = BosCodec::new(SolverKind::Adaptive);
    let mut buf_on = Vec::new();
    let mut buf_off = Vec::new();
    let mut on = f64::MAX;
    let mut off = f64::MAX;
    for _ in 0..AB_ROUNDS {
        obs::trail::set_recording(true);
        let (_, ns) = time_stats(cfg.repeats, || {
            buf_on.clear();
            encode_blocks_parallel(&codec, series, BLOCK, 1, &mut buf_on).expect("encode");
        });
        on = on.min(ns.min);
        obs::trail::set_recording(false);
        let (_, ns) = time_stats(cfg.repeats, || {
            buf_off.clear();
            encode_blocks_parallel(&codec, series, BLOCK, 1, &mut buf_off).expect("encode");
        });
        off = off.min(ns.min);
    }
    obs::trail::set_recording(true);
    obs::trail::drain();
    (
        AbTimes {
            on_ns: on,
            off_ns: off,
        },
        buf_on == buf_off,
    )
}

/// Per-label event totals from one drained trail.
type EventCounts = Vec<(&'static str, u64)>;

/// Encodes the fixed series twice, draining the trail after each pass,
/// and returns the two per-label count vectors plus the second trail's
/// chrome-trace export size (for the artifact).
fn determinism_check(series: &[i64]) -> (EventCounts, EventCounts, usize) {
    let codec = BosCodec::new(SolverKind::Adaptive);
    // The recorder ring may hold leftovers from the A/B warm-ups; a
    // drain isolates the counted stream to exactly one encode each.
    obs::trail::drain();
    let encode_once = || {
        let mut buf = Vec::new();
        encode_blocks_parallel(&codec, series, BLOCK, DETERMINISM_THREADS, &mut buf)
            .expect("encode");
        obs::trail::drain()
    };
    let first = encode_once();
    let second = encode_once();
    let chrome = obs::trail::to_chrome_trace(&second);
    assert!(
        !second.is_empty() && chrome.starts_with('['),
        "recorder-on encode must leave a non-empty chrome-exportable trail"
    );
    (first.counts(), second.counts(), chrome.len())
}

/// Key shape histograms reported with percentiles in the artifact.
const PERCENTILE_HISTOGRAMS: [&str; 4] = [
    "bos.separated.alpha",
    "bos.separated.nu",
    "driver.parallel.worker_blocks",
    "driver.parallel.worker_ns",
];

/// `(name, p50, p90, p99)` for every present [`PERCENTILE_HISTOGRAMS`].
fn percentile_rows(snap: &obs::Snapshot) -> Vec<(&'static str, f64, f64, f64)> {
    PERCENTILE_HISTOGRAMS
        .iter()
        .filter_map(|&name| {
            snap.histogram(name)
                .map(|h| (name, h.p50(), h.p90(), h.p99()))
        })
        .collect()
}

/// Determinism-section results bundled for [`render_json`].
struct EventsReport<'a> {
    counts: &'a [(&'static str, u64)],
    deterministic: bool,
    chrome_bytes: usize,
}

fn render_json(
    cfg: &Config,
    kernel: &AbTimes,
    pipeline: &AbTimes,
    byte_identical: bool,
    events: &EventsReport<'_>,
    percentiles: &[(&'static str, f64, f64, f64)],
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(
        "  \"bench\": \"PR9 flight recorder: trail overhead, determinism, \
         chrome-trace export\",\n",
    );
    s.push_str(&format!(
        "  \"config\": {{ \"n\": {}, \"repeats\": {}, \"block\": {}, \
         \"sampling\": {}, \"ab_rounds\": {} }},\n",
        cfg.n,
        cfg.repeats,
        BLOCK,
        obs::trail::sampling(),
        AB_ROUNDS
    ));
    s.push_str(&format!(
        "  \"kernel\": {{ \"gate\": {KERNEL_OVERHEAD_GATE}, \"on_ns\": {:.0}, \
         \"off_ns\": {:.0}, \"ratio\": {:.3} }},\n",
        kernel.on_ns,
        kernel.off_ns,
        kernel.ratio()
    ));
    s.push_str(&format!(
        "  \"pipeline\": {{ \"gate\": {PIPELINE_OVERHEAD_GATE}, \"on_ns\": {:.0}, \
         \"off_ns\": {:.0}, \"ratio\": {:.3}, \"byte_identical\": {byte_identical} }},\n",
        pipeline.on_ns,
        pipeline.off_ns,
        pipeline.ratio()
    ));
    let total: u64 = events.counts.iter().map(|&(_, n)| n).sum();
    s.push_str(&format!(
        "  \"events\": {{ \"deterministic\": {}, \"total\": {total}, \
         \"chrome_trace_bytes\": {}, \"counts\": {{\n",
        events.deterministic, events.chrome_bytes
    ));
    for (i, (label, n)) in events.counts.iter().enumerate() {
        s.push_str(&format!(
            "    \"{label}\": {n}{}\n",
            if i + 1 < events.counts.len() { "," } else { "" }
        ));
    }
    s.push_str("  } },\n");
    s.push_str("  \"histogram_percentiles\": [\n");
    for (i, (name, p50, p90, p99)) in percentiles.iter().enumerate() {
        s.push_str(&format!(
            "    {{ \"name\": \"{name}\", \"p50\": {p50:.1}, \"p90\": {p90:.1}, \
             \"p99\": {p99:.1} }}{}\n",
            if i + 1 < percentiles.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n");
    s.push_str("}\n");
    s
}

/// Workspace-root path for the artifact.
fn output_path() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join("BENCH_PR9.json")
}

/// Runs the PR 9 recorder acceptance suite and writes `BENCH_PR9.json`.
/// Cheap enough that `quick` (tier-1) runs every measurement and gate;
/// it only skips writing the artifact.
pub fn run(cfg: &Config, quick: bool) {
    super::banner("PR9 flight recorder: overhead, determinism, export", cfg);
    if !obs::enabled() {
        println!("obs feature off: recorder inert, nothing to measure");
        return;
    }

    let kernel = kernel_ab(cfg);
    println!(
        "kernel unpack (w = {KERNEL_WIDTH}): recorder on/off {:.3}x \
         (gate: <= {KERNEL_OVERHEAD_GATE}x)",
        kernel.ratio()
    );

    let series = outlier_series(cfg.n);
    let (pipeline, byte_identical) = pipeline_ab(cfg, &series);
    println!(
        "BOS-A encode pipeline: recorder on/off {:.3}x (gate: <= \
         {PIPELINE_OVERHEAD_GATE}x), byte-identical across toggle: {byte_identical}",
        pipeline.ratio()
    );
    assert!(
        byte_identical,
        "toggling the trail recorder must not change encoded bytes"
    );

    let (first, second, chrome_bytes) = determinism_check(&series);
    let deterministic = first == second;
    let total: u64 = second.iter().map(|&(_, n)| n).sum();
    println!(
        "determinism: {} labels, {total} events per encode, counts stable \
         across re-encode: {deterministic}",
        second.len()
    );
    for (label, n) in &second {
        println!("  {label:<24} {n}");
    }
    assert!(
        deterministic,
        "re-encoding a fixed input must produce identical event counts: \
         {first:?} vs {second:?}"
    );
    println!("chrome-trace export: {chrome_bytes} bytes");

    let snap = obs::snapshot();
    let percentiles = percentile_rows(&snap);
    for (name, p50, p90, p99) in &percentiles {
        println!("  {name:<30} p50 {p50:.1}  p90 {p90:.1}  p99 {p99:.1}");
    }
    println!();

    // Same enforcement rule as every other timing gate in the suite: the
    // ratios only mean anything on optimized builds with enough work per
    // timed run to rise above timer noise.
    if cfg!(debug_assertions) {
        println!("(debug build: overhead gates reported but not enforced)");
    } else if cfg.n < GATE_MIN_N {
        println!("(BOS_N < {GATE_MIN_N}: overhead gates reported but not enforced)");
    } else {
        assert!(
            kernel.ratio() <= KERNEL_OVERHEAD_GATE,
            "recorder-on kernel unpack must stay within {KERNEL_OVERHEAD_GATE}x \
             of recorder-off, got {:.3}x",
            kernel.ratio()
        );
        assert!(
            pipeline.ratio() <= PIPELINE_OVERHEAD_GATE,
            "recorder-on BOS-A pipeline must stay within {PIPELINE_OVERHEAD_GATE}x \
             of recorder-off, got {:.3}x",
            pipeline.ratio()
        );
    }

    if quick {
        println!("(--quick: BENCH_PR9.json not written)");
        return;
    }
    let json = render_json(
        cfg,
        &kernel,
        &pipeline,
        byte_identical,
        &EventsReport {
            counts: &second,
            deterministic,
            chrome_bytes,
        },
        &percentiles,
    );
    let path = output_path();
    std::fs::write(&path, &json).expect("write BENCH_PR9.json");
    println!("Wrote {}", path.display());
}
