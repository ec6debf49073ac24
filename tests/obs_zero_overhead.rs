//! What the `obs` runtime switch promises, end to end.
//!
//! * Flipping the switch never changes a single encoded byte:
//!   instrumentation observes, it never participates.
//! * With the switch off, nothing is recorded: a pass through every
//!   instrumented layer (every codec through the block driver, every
//!   outer pipeline, a TsFile write with strict and salvage reads, and a
//!   store's flush, compaction and recovering reopen) leaves every
//!   counter, histogram count and span count where it was, and the
//!   flight recorder empty.
//!
//! Both tests flip the process-global switch, so they serialize on
//! [`SWITCH`] (integration-test files are separate processes, so other
//! test binaries can't interfere).

use bitpack::codec::{decode_blocks, encode_blocks_parallel};
use bos::{BosCodec, SolverKind};
use encodings::{OuterKind, PackerKind, Pipeline};
use std::io::Write;
use std::path::Path;
use std::sync::{Mutex, MutexGuard};
use store::{Store, StoreOptions};
use tsfile::{EncodingChoice, TsFileError, TsFileReader, TsFileWriter};

/// Serializes the tests in this binary (see the module docs).
static SWITCH: Mutex<()> = Mutex::new(());

/// Lock that survives a poisoned mutex (a prior panicking test must not
/// mask this one's result).
fn switch_lock() -> MutexGuard<'static, ()> {
    SWITCH.lock().unwrap_or_else(|e| e.into_inner())
}

/// Deterministic mixed series: runs, drift, and two-sided outliers.
fn series(n: usize) -> Vec<i64> {
    (0..n as i64)
        .map(|i| match i % 97 {
            0 => 1 << 44,
            1 => -(1 << 44),
            k if k < 30 => 4000,
            k => 4000 + (k % 17),
        })
        .collect()
}

/// Encodes through the instrumented driver, on then off, and demands
/// byte-identical output plus identical decodes.
fn assert_toggle_invariant<C: bitpack::BlockCodec + Sync>(codec: &C, values: &[i64]) {
    let mut on = Vec::new();
    obs::set_enabled(true);
    encode_blocks_parallel(codec, values, 256, 2, &mut on).expect("encode");
    let mut off = Vec::new();
    obs::set_enabled(false);
    encode_blocks_parallel(codec, values, 256, 2, &mut off).expect("encode");
    obs::set_enabled(true);
    assert_eq!(
        on,
        off,
        "{}: kill-switch changed encoded bytes",
        codec.name()
    );
    assert_eq!(
        decode_blocks(codec, &on).expect("decode"),
        values,
        "{}: roundtrip",
        codec.name()
    );
}

#[test]
fn runtime_toggle_never_changes_bytes() {
    let _guard = switch_lock();
    let values = series(3000);
    for kind in PackerKind::ALL {
        assert_toggle_invariant(&kind.build(), &values);
    }

    // Full pipelines too: outer encodings feed the same instrumented
    // codecs, so the invariant must hold end to end.
    for outer in OuterKind::ALL {
        let p = Pipeline::new(outer, PackerKind::BosB);
        let mut on = Vec::new();
        obs::set_enabled(true);
        p.encode(&values, &mut on);
        let mut off = Vec::new();
        obs::set_enabled(false);
        p.encode(&values, &mut off);
        obs::set_enabled(true);
        assert_eq!(on, off, "{}: kill-switch changed encoded bytes", p.label());
    }
}

/// One pass through every instrumented layer, working in `dir`.
fn drive_every_layer(dir: &Path) {
    let values = series(3000);

    // Every codec through the two-thread block driver, BOS-A included.
    for kind in PackerKind::ALL {
        let codec = kind.build();
        let mut buf = Vec::new();
        encode_blocks_parallel(&codec, &values, 256, 2, &mut buf).expect("encode");
        assert_eq!(decode_blocks(&codec, &buf).expect("decode"), values);
    }
    let adaptive = BosCodec::new(SolverKind::Adaptive);
    let mut buf = Vec::new();
    encode_blocks_parallel(&adaptive, &values, 256, 2, &mut buf).expect("encode");

    // Every outer pipeline.
    for outer in OuterKind::ALL {
        let p = Pipeline::new(outer, PackerKind::BosB);
        let mut buf = Vec::new();
        p.encode(&values, &mut buf);
        let mut out = Vec::new();
        p.decode(&buf, &mut 0, &mut out).expect("decode");
        assert_eq!(out, values, "{}: roundtrip", p.label());
    }

    // A TsFile write and strict reads, then one damaged chunk: a strict
    // read rejects it, and salvage reads skip it with the footer intact
    // and with the footer gone.
    let mut w = TsFileWriter::new();
    for name in ["a", "b"] {
        w.add_int_series(name, &values, EncodingChoice::TS2DIFF_BOS)
            .expect("add series");
    }
    let mut bytes = w.finish();
    let reader = TsFileReader::open(&bytes).expect("open");
    for name in ["a", "b"] {
        assert_eq!(reader.read_ints(name).expect("read"), values);
    }
    let (_, payload) = reader.chunk_ranges("b").expect("b indexed");
    bytes[payload.start + payload.len() / 2] ^= 0x10;
    let damaged = TsFileReader::open(&bytes).expect("footer intact");
    assert!(matches!(
        damaged.read_ints("b"),
        Err(TsFileError::ChecksumMismatch { .. })
    ));
    let (reader, _) = TsFileReader::open_salvage(&bytes);
    assert_eq!(reader.read_ints_salvage("b").expect("b").skipped.len(), 1);
    let (reader, report) = TsFileReader::open_salvage(&bytes[..bytes.len() - 8]);
    assert!(report.footer_rebuilt);
    assert_eq!(reader.read_ints_salvage("a").expect("a").values, values);

    // A store: appends that seal files, a flush, a compaction, then a
    // reopen that truncates a torn manifest tail.
    let opts = StoreOptions {
        rotate_records: 700,
        compact_min_inputs: 2,
        compact_small_records: 1 << 20,
        threads: 2,
        ..StoreOptions::default()
    };
    let mut store = Store::create(dir, opts.clone()).expect("create");
    for part in values.chunks(500) {
        store.append("s", part).expect("append");
    }
    store.flush().expect("flush");
    assert!(
        store.compact().expect("compact").is_some(),
        "compaction ran"
    );
    assert_eq!(store.read_series("s").expect("read"), values);
    drop(store);
    std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join(store::manifest::MANIFEST_FILE))
        .expect("manifest")
        .write_all(&[0x5a; 7])
        .expect("tear the manifest tail");
    let (store, report) = Store::open(dir, opts).expect("reopen");
    assert!(report.torn_tail_truncated);
    assert_eq!(store.read_series("s").expect("read"), values);
}

#[test]
fn runtime_off_records_nothing() {
    let _guard = switch_lock();
    let dir = std::env::temp_dir().join(format!("bos_obs_off_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    obs::set_enabled(false);
    obs::trail::drain();
    let before = obs::snapshot();
    drive_every_layer(&dir.join("off"));
    let after = obs::snapshot();
    let trail = obs::trail::drain();
    obs::set_enabled(true);

    assert!(!after.enabled, "the snapshot reports the switch");
    for (name, v) in &after.counters {
        assert_eq!(*v, before.counter(name), "counter {name} moved while off");
    }
    for (name, h) in &after.histograms {
        let was = before.histogram(name).map_or(0, |h| h.count);
        assert_eq!(h.count, was, "histogram {name} recorded while off");
    }
    for (name, s) in &after.spans {
        let was = before.span(name).map_or(0, |s| s.count);
        assert_eq!(s.count, was, "span {name} recorded while off");
    }
    assert!(
        trail.is_empty(),
        "trail recorded while off: {:?}",
        trail.counts()
    );

    // The same pass with the switch on reaches every layer's metrics, so
    // the silence above is the switch's doing.
    drive_every_layer(&dir.join("on"));
    let on = obs::snapshot();
    let _ = std::fs::remove_dir_all(&dir);
    for name in [
        "codec.BOS-B.blocks_encoded",
        "driver.parallel.jobs",
        "solver.BOS-A.blocks",
        "pfor.exceptions",
        "bos.blocks_separated",
        "tsfile.crc_mismatch",
        "tsfile.salvage.footer_rebuilt",
        "store.compactions",
        "store.torn_tail_truncated",
    ] {
        assert!(on.counter(name) > after.counter(name), "{name} never moved");
    }
    for name in [
        "store.open_recovery",
        "store.compact",
        "tsfile.open_salvage",
    ] {
        assert!(on.span(name).is_some_and(|s| s.count > 0), "span {name}");
    }
    assert!(!obs::trail::drain().is_empty(), "trail empty while on");
}
