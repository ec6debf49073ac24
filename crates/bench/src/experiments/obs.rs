//! Observability: the flight-recorder gates.
//!
//! Three claims are measured and gated:
//!
//! * **Overhead**: with the trail recorder on, the kernel unpack path
//!   must stay within `KERNEL_OVERHEAD_GATE` of the recorder-off time
//!   (the recorder never touches the kernels, so this documents that the
//!   layer is free where it matters most), and the full BOS-A encode
//!   pipeline — which *does* emit per-block provenance events — must stay
//!   within `PIPELINE_OVERHEAD_GATE`. Both A/Bs run through [`ab_paired`].
//! * **Transparency**: toggling the recorder must not change a single
//!   output byte, and re-encoding a fixed input must produce the exact
//!   same per-label event counts (the trail is deterministic provenance,
//!   not a best-effort log).
//! * **Export sanity**: the drained trail renders to a non-empty Chrome
//!   `trace_event` array carrying the required `ph`/`ts`/`pid`/`tid`/
//!   `name` fields (the structural round-trip lives in
//!   `tests/trail_trace.rs`; this only checks a real encode exports).
//!
//! The run also reports `p50/p90/p99` for the key shape histograms
//! (separated widths, partition sizes, worker wall-time), so distribution
//! shifts show, not just totals. A full run writes its tables and gates
//! to `target/bench/exp_obs.json`. The whole experiment is cheap enough
//! that `--quick` runs every measurement and gate; it is part of the
//! tier-1 recipe and writes nothing.

use crate::harness::{ab_paired, ab_table, time_stats, AbTimes, Config, Report, Table};
use bitpack::codec::encode_blocks_parallel;
use bitpack::unrolled::{pack_words_unrolled, unpack_words_unrolled};
use bos::{BosCodec, SolverKind};

use super::throughput::{masked_values, outlier_series};

/// Block size for the pipeline runs (the paper's default).
const BLOCK: usize = 1024;

/// Maximum recorder-on / recorder-off time ratio on the kernel unpack
/// path (the recorder never runs there).
const KERNEL_OVERHEAD_GATE: f64 = 1.05;

/// Maximum recorder-on / recorder-off time ratio on the full BOS-A
/// encode pipeline, which emits one provenance event per block plus the
/// adaptive verdicts.
const PIPELINE_OVERHEAD_GATE: f64 = 1.10;

/// Alternating-order (on, off) pairs per A/B; the gates hold the median
/// of the per-pair ratios.
const AB_PAIRS: usize = 15;

/// Minimum timing repetitions per kernel sample: one unpack run is tens
/// of microseconds, so each sample keeps the fastest of more runs than
/// the millisecond-scale pipeline samples do.
const KERNEL_MIN_REPEATS: usize = 9;

/// Kernel width used for the unpack A/B (same shape as the speedup gate
/// in `exp_throughput`).
const KERNEL_WIDTH: u32 = 13;

/// Worker threads for the determinism pass — two, so the parallel
/// driver's dispatch/join provenance is part of the counted stream.
const DETERMINISM_THREADS: usize = 2;

/// Kernel unpack A/B: the recorder has no hook on this path, so the
/// ratio is pure measurement noise — which is exactly the claim.
fn kernel_ab(cfg: &Config) -> AbTimes {
    let deltas = masked_values(cfg.n, KERNEL_WIDTH);
    let mut packed = Vec::new();
    pack_words_unrolled(&deltas, KERNEL_WIDTH, &mut packed);
    let mut out = Vec::new();
    let repeats = cfg.repeats.max(KERNEL_MIN_REPEATS);
    let times = ab_paired(AB_PAIRS, obs::trail::set_recording, |_| {
        let (_, ns) = time_stats(repeats, || {
            out.clear();
            unpack_words_unrolled(&packed, deltas.len(), KERNEL_WIDTH, &mut out).expect("unpack");
        });
        ns.min
    });
    obs::trail::drain();
    times
}

/// Full-pipeline A/B: BOS-A (the chattiest solver — it emits a verdict
/// per block on top of the block events) through the shared encode
/// driver, recorder on vs off, asserting byte-identical output.
fn pipeline_ab(cfg: &Config, series: &[i64]) -> (AbTimes, bool) {
    let codec = BosCodec::new(SolverKind::Adaptive);
    let mut buf_on = Vec::new();
    let mut buf_off = Vec::new();
    let times = ab_paired(AB_PAIRS, obs::trail::set_recording, |on| {
        let buf = if on { &mut buf_on } else { &mut buf_off };
        let (_, ns) = time_stats(cfg.repeats, || {
            buf.clear();
            encode_blocks_parallel(&codec, series, BLOCK, 1, buf).expect("encode");
        });
        ns.min
    });
    obs::trail::drain();
    (times, buf_on == buf_off)
}

/// Per-label event totals from one drained trail.
type EventCounts = Vec<(&'static str, u64)>;

/// Encodes the fixed series twice, draining the trail after each pass,
/// and returns the two per-label count vectors plus the second trail's
/// chrome-trace export size.
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

/// Key shape histograms reported with percentiles.
const PERCENTILE_HISTOGRAMS: [&str; 4] = [
    "bos.separated.alpha",
    "bos.separated.nu",
    "driver.parallel.worker_blocks",
    "driver.parallel.worker_ns",
];

/// Runs the recorder gates and, unless `quick`, writes
/// `target/bench/exp_obs.json`. Cheap enough that `quick` (tier-1) runs
/// every measurement and gate.
pub fn run(cfg: &Config, quick: bool) {
    super::banner("Flight recorder: overhead, determinism, export", cfg);
    let mut report = Report::new("exp_obs", cfg);

    let kernel = kernel_ab(cfg);
    let series = outlier_series(cfg.n);
    let (pipeline, byte_identical) = pipeline_ab(cfg, &series);
    report.table(
        format!("Recorder on/off A/B ({AB_PAIRS} alternating-order pairs)"),
        ab_table(&[
            (&format!("kernel unpack (w = {KERNEL_WIDTH})"), kernel),
            ("BOS-A encode pipeline", pipeline),
        ]),
    );
    report.gate(
        "byte-identical across the recorder switch",
        byte_identical,
        "true",
    );
    assert!(
        byte_identical,
        "toggling the trail recorder must not change encoded bytes"
    );

    let (first, second, chrome_bytes) = determinism_check(&series);
    let deterministic = first == second;
    let mut table = Table::new(["event", "count"]);
    for (label, n) in &second {
        table.row([(*label).to_string(), n.to_string()]);
    }
    report.table("Trail events per BOS-A encode", table);
    report.gate(
        "event counts stable across re-encode",
        deterministic,
        "true",
    );
    assert!(
        deterministic,
        "re-encoding a fixed input must produce identical event counts: \
         {first:?} vs {second:?}"
    );
    println!("chrome-trace export: {chrome_bytes} bytes");
    println!();

    let snap = obs::snapshot();
    let mut table = Table::new(["histogram", "p50", "p90", "p99"]);
    for name in PERCENTILE_HISTOGRAMS {
        if let Some(h) = snap.histogram(name) {
            table.row([
                name.to_string(),
                format!("{:.1}", h.p50()),
                format!("{:.1}", h.p90()),
                format!("{:.1}", h.p99()),
            ]);
        }
    }
    report.table("Shape histogram percentiles", table);

    let enforced = report.timing_gate(
        "recorder-on/off kernel unpack",
        kernel.ratio,
        &format!("<= {KERNEL_OVERHEAD_GATE}"),
    );
    report.timing_gate(
        "recorder-on/off BOS-A pipeline",
        pipeline.ratio,
        &format!("<= {PIPELINE_OVERHEAD_GATE}"),
    );
    if enforced {
        assert!(
            kernel.ratio <= KERNEL_OVERHEAD_GATE,
            "recorder-on kernel unpack must stay within {KERNEL_OVERHEAD_GATE}x \
             of recorder-off, got {:.3}x",
            kernel.ratio
        );
        assert!(
            pipeline.ratio <= PIPELINE_OVERHEAD_GATE,
            "recorder-on BOS-A pipeline must stay within {PIPELINE_OVERHEAD_GATE}x \
             of recorder-off, got {:.3}x",
            pipeline.ratio
        );
    }
    report.finish(quick);
}
