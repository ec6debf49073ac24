//! Fault injection: the robustness gates.
//!
//! Sweeps seeded [`faultsim`] corruption plans over TsFile-lite containers
//! built with every [`PackerKind`] operator, on two datasets with distinct
//! value shapes, and measures how the storage stack degrades:
//!
//! * **Zero panics**: every trial runs under `catch_unwind`; a single
//!   panicking decoder fails the run.
//! * **Chunk-corrupt gate**: corruption confined to one chunk's payload
//!   must leave every other chunk recoverable bit-exact, with the damaged
//!   chunk reported in [`SalvageOutcome::skipped`](tsfile::SalvageOutcome).
//! * **Footer-destroy gate**: destroying the footer of a fully-written
//!   file must lose zero chunks — the salvage scan rebuilds the index.
//! * **Chunk-drop / truncation gates**: chunks whose bytes survive intact
//!   (before the hole, or fully before the cut) must salvage bit-exact.
//! * Whole-file bit rot and byte garbage carry no recovery gate (anything
//!   can be hit, including the magic); their detection/recovery rates are
//!   recorded as data.
//!
//! Salvage-path `obs` counters are scoped per dataset: the deltas of the
//! global `tsfile.salvage.*` counters over each dataset's sweep are
//! mirrored into `tsfile.salvage.dataset.<abbr>.*` and reported alongside
//! the per-class rates.
//!
//! Full mode (the default) runs `SEEDS_FULL` seeds per fault class —
//! ≥ 200 distinct fault plans per codec — and writes its tables and
//! gates to `target/bench/exp_faults.json`. `--quick` runs
//! `SEEDS_QUICK` seeds and writes nothing, sized for the tier-1 gate.

use crate::harness::{Config, Report, Table};
use datasets::{generate, Dataset};
use encodings::{OuterKind, PackerKind};
use faultsim::{drop_exact, Fault, FaultPlan};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use tsfile::{EncodingChoice, TsFileReader, TsFileWriter};

/// Series per fixture file (distinct chunks, so partial recovery is
/// observable).
const SERIES: usize = 3;

/// Seeds per (dataset, codec, fault class) in full mode. With
/// [`classes`]`().len()` classes and two datasets this yields
/// `7 × 16 × 2 = 224` fault plans per codec — above the 200-plan floor
/// the acceptance gate asks for.
const SEEDS_FULL: u64 = 16;

/// Seeds per (dataset, codec, fault class) under `--quick` (tier-1).
const SEEDS_QUICK: u64 = 2;

/// The two sweep datasets: city-scale traffic counts (smooth, small
/// deltas) and multi-sensor readings (spiky, outlier-heavy).
const DATASETS: [&str; 2] = ["MT", "CS"];

/// One corruption scenario; see the module docs for the gate each carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultClass {
    /// Whole-file multi-bit rot (no recovery gate).
    BitFlip,
    /// Whole-file scattered byte garbage (no recovery gate).
    ByteGarbage,
    /// One bit flipped inside a single chunk's payload.
    ChunkCorrupt,
    /// One whole chunk spliced out of the file.
    ChunkDrop,
    /// Tail cut at a random point.
    Truncate,
    /// Tail cut, then garbage from a half-completed write appended.
    TornTail,
    /// Footer and trailer overwritten with garbage.
    FooterDestroy,
}

impl FaultClass {
    fn name(self) -> &'static str {
        match self {
            FaultClass::BitFlip => "bit-flip",
            FaultClass::ByteGarbage => "byte-garbage",
            FaultClass::ChunkCorrupt => "chunk-corrupt",
            FaultClass::ChunkDrop => "chunk-drop",
            FaultClass::Truncate => "truncate",
            FaultClass::TornTail => "torn-tail",
            FaultClass::FooterDestroy => "footer-destroy",
        }
    }
}

/// Every fault class, in sweep (and report) order.
fn classes() -> [FaultClass; 7] {
    [
        FaultClass::BitFlip,
        FaultClass::ByteGarbage,
        FaultClass::ChunkCorrupt,
        FaultClass::ChunkDrop,
        FaultClass::Truncate,
        FaultClass::TornTail,
        FaultClass::FooterDestroy,
    ]
}

/// An intact file plus everything a trial needs to corrupt it precisely
/// and judge the outcome.
struct Fixture {
    bytes: Vec<u8>,
    /// Expected values per series (`s0`..`s2`).
    expected: Vec<Vec<i64>>,
    /// Whole-chunk byte range per series (header through payload CRC).
    chunks: Vec<Range<usize>>,
    /// Payload-only byte range per series (what the CRC covers).
    payloads: Vec<Range<usize>>,
    /// Byte offset where the footer starts (from the intact trailer).
    footer_start: usize,
}

fn series_name(s: usize) -> String {
    format!("s{s}")
}

fn build_fixture(ds: &Dataset, packer: PackerKind, per: usize) -> Fixture {
    let ints = ds.as_scaled_ints();
    let encoding = EncodingChoice {
        outer: OuterKind::Ts2Diff,
        packer,
    };
    let mut w = TsFileWriter::new();
    let expected: Vec<Vec<i64>> = (0..SERIES)
        .map(|s| {
            let start = (s * per).min(ints.len());
            let end = ((s + 1) * per).min(ints.len());
            ints[start..end].to_vec()
        })
        .collect();
    for (s, values) in expected.iter().enumerate() {
        assert!(
            !values.is_empty(),
            "dataset too small for {SERIES}x{per} fixture"
        );
        w.add_int_series(&series_name(s), values, encoding)
            .expect("write series");
    }
    let bytes = w.finish();
    let (chunks, payloads) = {
        let r = TsFileReader::open(&bytes).expect("intact fixture");
        let mut chunks = Vec::with_capacity(SERIES);
        let mut payloads = Vec::with_capacity(SERIES);
        for s in 0..SERIES {
            let (chunk, payload) = r.chunk_ranges(&series_name(s)).expect("chunk ranges");
            chunks.push(chunk);
            payloads.push(payload);
        }
        (chunks, payloads)
    };
    let tail = bytes.len() - 8;
    let off: [u8; 8] = bytes[tail - 8..tail].try_into().expect("trailer");
    Fixture {
        bytes,
        expected,
        chunks,
        payloads,
        footer_start: u64::from_le_bytes(off) as usize,
    }
}

/// What one corrupted-file trial observed.
#[derive(Default)]
struct Trial {
    /// Strict `open` still succeeded.
    strict_open_ok: bool,
    /// Salvage rebuilt the footer index by scanning.
    footer_rebuilt: bool,
    /// Series whose salvage read returned the expected values bit-exact.
    recovered_exact: usize,
    /// Per-series skip reports (detected, attributed damage).
    skipped: usize,
    /// Series whose salvage read returned wrong values with no skip
    /// report — silent corruption that slipped past the CRCs.
    mismatched: usize,
    /// Series absent from the salvaged index entirely.
    missing: usize,
    /// Gate violated by this trial, if any (checked by the sweep).
    gate_violation: Option<String>,
}

/// Applies `class` at `seed` to a copy of the fixture, reads it back both
/// strictly and through salvage, and checks the class's gate.
fn run_trial(fx: &Fixture, class: FaultClass, seed: u64) -> Trial {
    let mut data = fx.bytes.clone();
    // Where the tail cut landed (truncating classes) — chunks fully before
    // it must survive salvage.
    let mut cut = None;
    match class {
        FaultClass::BitFlip => {
            FaultPlan::single(Fault::FlipBits { count: 4 }).apply(&mut data, seed);
        }
        FaultClass::ByteGarbage => {
            FaultPlan::single(Fault::GarbageBytes { count: 8 }).apply(&mut data, seed);
        }
        FaultClass::ChunkCorrupt => {
            // A single bit flip inside the payload: a CRC-32 detects every
            // 1-bit error, so the gate below can demand detection.
            let t = (seed as usize) % SERIES;
            FaultPlan::single(Fault::FlipBits { count: 1 }).apply_in(
                &mut data,
                fx.payloads[t].clone(),
                seed,
            );
        }
        FaultClass::ChunkDrop => {
            let t = (seed as usize) % SERIES;
            drop_exact(&mut data, fx.chunks[t].clone());
        }
        FaultClass::Truncate => {
            let rec = FaultPlan::single(Fault::Truncate).apply(&mut data, seed);
            cut = Some(rec[0].touched.start);
        }
        FaultClass::TornTail => {
            let rec = FaultPlan::single(Fault::TornTail { max_tail: 64 }).apply(&mut data, seed);
            cut = Some(rec[0].touched.start);
        }
        FaultClass::FooterDestroy => {
            // Garbage the footer region, then re-garbage the trailing 24
            // bytes so the trailer (CRC + offset + magic) cannot survive a
            // lucky identical draw.
            let end = data.len();
            FaultPlan::new()
                .with(Fault::GarbageRange {
                    max_len: end - fx.footer_start,
                })
                .with(Fault::DestroyTail { count: 24 })
                .apply_in(&mut data, fx.footer_start..end, seed);
        }
    }

    let mut t = Trial::default();
    // Strict path: may fail, must not panic; results unused beyond the
    // open-survival stat.
    if let Ok(r) = TsFileReader::open(&data) {
        t.strict_open_ok = true;
        for s in 0..SERIES {
            let _ = r.read_ints(&series_name(s));
        }
    }

    let (r, report) = TsFileReader::open_salvage(&data);
    t.footer_rebuilt = report.footer_rebuilt;
    for (s, expected) in fx.expected.iter().enumerate() {
        match r.read_ints_salvage(&series_name(s)) {
            Err(_) => t.missing += 1,
            Ok(out) => {
                if !out.skipped.is_empty() {
                    t.skipped += out.skipped.len();
                } else if &out.values == expected {
                    t.recovered_exact += 1;
                } else {
                    t.mismatched += 1;
                }
            }
        }
    }

    t.gate_violation = check_gate(fx, class, cut, &t);
    t
}

/// The per-class acceptance gate; `None` means the trial passed.
fn check_gate(fx: &Fixture, class: FaultClass, cut: Option<usize>, t: &Trial) -> Option<String> {
    match class {
        // Whole-file rot can hit anything (magic, headers, counts): only
        // the no-panic property is guaranteed, and that is enforced by the
        // sweep's catch_unwind.
        FaultClass::BitFlip | FaultClass::ByteGarbage => None,
        FaultClass::ChunkCorrupt => {
            if t.recovered_exact != SERIES - 1 || t.skipped != 1 || t.mismatched != 0 {
                Some(format!(
                    "chunk-corrupt must recover {} series and skip 1, got \
                     exact={} skipped={} mismatched={} missing={}",
                    SERIES - 1,
                    t.recovered_exact,
                    t.skipped,
                    t.mismatched,
                    t.missing
                ))
            } else {
                None
            }
        }
        FaultClass::ChunkDrop => {
            if t.recovered_exact != SERIES - 1 || t.mismatched != 0 {
                Some(format!(
                    "chunk-drop must recover the {} untouched series, got \
                     exact={} mismatched={}",
                    SERIES - 1,
                    t.recovered_exact,
                    t.mismatched
                ))
            } else {
                None
            }
        }
        FaultClass::Truncate | FaultClass::TornTail => {
            let cut = cut.expect("truncating classes record the cut");
            let kept = fx.chunks.iter().filter(|c| c.end <= cut).count();
            if t.recovered_exact < kept || t.mismatched != 0 {
                Some(format!(
                    "{} chunks end before the cut at {cut} and must salvage \
                     bit-exact, got exact={} mismatched={}",
                    kept, t.recovered_exact, t.mismatched
                ))
            } else {
                None
            }
        }
        FaultClass::FooterDestroy => {
            if !t.footer_rebuilt
                || t.recovered_exact != SERIES
                || t.mismatched != 0
                || t.missing != 0
            {
                Some(format!(
                    "footer-destroy must rebuild the index and lose nothing, \
                     got rebuilt={} exact={} mismatched={} missing={}",
                    t.footer_rebuilt, t.recovered_exact, t.mismatched, t.missing
                ))
            } else {
                None
            }
        }
    }
}

/// Tallies over many trials (one fault class or one codec).
#[derive(Default, Clone, Copy)]
struct Agg {
    trials: usize,
    panics: usize,
    strict_open_ok: usize,
    recovered_exact: usize,
    skipped: usize,
    mismatched: usize,
}

impl Agg {
    fn absorb(&mut self, t: &Trial) {
        self.trials += 1;
        self.strict_open_ok += usize::from(t.strict_open_ok);
        self.recovered_exact += t.recovered_exact;
        self.skipped += t.skipped;
        self.mismatched += t.mismatched;
    }

    /// Series recovered bit-exact per trial (0..=[`SERIES`]).
    fn recovery_rate(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.recovered_exact as f64 / (self.trials * SERIES) as f64
        }
    }
}

/// Per-dataset sweep results plus the scoped salvage-counter deltas.
struct DatasetResult {
    abbr: &'static str,
    per_class: Vec<(&'static str, Agg)>,
    per_codec: Vec<(&'static str, Agg)>,
    /// Delta of each [`SALVAGE_COUNTERS`] entry over this dataset's sweep.
    salvage_counters: Vec<u64>,
}

/// Global salvage counters whose per-dataset deltas get mirrored into
/// `tsfile.salvage.dataset.<abbr>.<suffix>`.
const SALVAGE_COUNTERS: [(&str, &str); 3] = [
    ("tsfile.salvage.chunks_recovered", "chunks_recovered"),
    ("tsfile.salvage.chunks_skipped", "chunks_skipped"),
    ("tsfile.salvage.footer_rebuilt", "footer_rebuilt"),
];

fn sweep_dataset(abbr: &'static str, cfg: &Config, seeds: u64) -> DatasetResult {
    let per = (cfg.n / (SERIES * 5)).max(256);
    let ds = generate(abbr, SERIES * per).expect("known dataset");
    let before = obs::snapshot();

    let mut per_class: Vec<(&'static str, Agg)> = classes()
        .iter()
        .map(|c| (c.name(), Agg::default()))
        .collect();
    let mut per_codec: Vec<(&'static str, Agg)> = Vec::new();
    for kind in PackerKind::ALL {
        let fx = build_fixture(&ds, kind, per);
        let mut codec_agg = Agg::default();
        for (ci, class) in classes().into_iter().enumerate() {
            for seed in 0..seeds {
                // Decorrelate seeds across classes/codecs while keeping
                // every trial replayable from this expression.
                let seed = seed ^ (ci as u64) << 24 ^ (kind as u64) << 32;
                let outcome = catch_unwind(AssertUnwindSafe(|| run_trial(&fx, class, seed)));
                let entry = &mut per_class[ci].1;
                match outcome {
                    Err(_) => {
                        entry.trials += 1;
                        entry.panics += 1;
                        codec_agg.trials += 1;
                        codec_agg.panics += 1;
                    }
                    Ok(t) => {
                        assert!(
                            t.gate_violation.is_none(),
                            "[{abbr}/{}/{}/seed={seed}] {}",
                            kind.label(),
                            class.name(),
                            t.gate_violation.as_deref().unwrap_or_default()
                        );
                        entry.absorb(&t);
                        codec_agg.absorb(&t);
                    }
                }
            }
        }
        per_codec.push((kind.label(), codec_agg));
    }

    let after = obs::snapshot();
    let mut salvage_counters = Vec::new();
    for (global, suffix) in SALVAGE_COUNTERS {
        let delta = after.counter(global).saturating_sub(before.counter(global));
        obs::counter(&format!("tsfile.salvage.dataset.{abbr}.{suffix}")).add(delta);
        salvage_counters.push(delta);
    }
    DatasetResult {
        abbr,
        per_class,
        per_codec,
        salvage_counters,
    }
}

/// Runs the sweep; `quick` shrinks the seed count and writes nothing
/// (the tier-1 configuration).
pub fn run(cfg: &Config, quick: bool) {
    super::banner(
        "Fault injection: salvage survival/recovery across the stack",
        cfg,
    );
    let mut report = Report::new("exp_faults", cfg);
    let seeds = if quick { SEEDS_QUICK } else { SEEDS_FULL };
    let plans_per_codec = seeds as usize * classes().len() * DATASETS.len();
    println!(
        "{} fault classes x {seeds} seeds x {} datasets = {plans_per_codec} fault plans \
         per codec ({} codecs){}",
        classes().len(),
        DATASETS.len(),
        PackerKind::ALL.len(),
        if quick { " [--quick]" } else { "" }
    );
    println!();

    let results: Vec<DatasetResult> = DATASETS
        .iter()
        .map(|abbr| sweep_dataset(abbr, cfg, seeds))
        .collect();

    let mut total_trials = 0usize;
    let mut total_panics = 0usize;
    for r in &results {
        let mut table = Table::new([
            "class",
            "trials",
            "panics",
            "open ok",
            "exact",
            "skipped",
            "mismatch",
            "recovery %",
        ]);
        for (name, a) in &r.per_class {
            total_trials += a.trials;
            total_panics += a.panics;
            table.row([
                (*name).to_string(),
                a.trials.to_string(),
                a.panics.to_string(),
                a.strict_open_ok.to_string(),
                a.recovered_exact.to_string(),
                a.skipped.to_string(),
                a.mismatched.to_string(),
                format!("{:.1}", a.recovery_rate() * 100.0),
            ]);
        }
        report.table(format!("Dataset {} — per fault class", r.abbr), table);
    }

    let mut table = Table::new(
        std::iter::once("dataset").chain(SALVAGE_COUNTERS.iter().map(|&(_, suffix)| suffix)),
    );
    for r in &results {
        let deltas = r.salvage_counters.iter().map(u64::to_string);
        table.row(std::iter::once(r.abbr.to_string()).chain(deltas));
    }
    report.table("Salvage counter deltas (tsfile.salvage.*)", table);

    let plans_per_row = seeds as usize * classes().len();
    let mut table = Table::new(["codec", "dataset", "plans", "panics", "recovery %"]);
    for r in &results {
        for (name, a) in &r.per_codec {
            table.row([
                (*name).to_string(),
                r.abbr.to_string(),
                a.trials.to_string(),
                a.panics.to_string(),
                format!("{:.1}", a.recovery_rate() * 100.0),
            ]);
        }
    }
    report.table(
        format!("Per-codec survival ({plans_per_row} fault plans per dataset row)"),
        table,
    );

    report.gate("panics", total_panics, "== 0");
    assert_eq!(
        total_panics, 0,
        "fault sweep must be panic-free ({total_trials} trials)"
    );
    println!("{total_trials} trials, 0 panics; all class gates held.");
    println!();
    report.finish(quick);
}
