//! Every flight-recorder event kind is emitted by a real call: the
//! two-thread encode driver under BOS-B, a panicking codec, a TsFile
//! write, a salvage read of a damaged file, and a store flush and
//! compaction.
//!
//! The drained trail is tallied through a `match` with no wildcard arm
//! (`event_slot`), so a new `Event` variant does not compile until it
//! has an arm here, and the test fails until some shipping call emits it.
//!
//! One `#[test]`: the recorder's rings are process-global, and a second
//! test draining concurrently would steal this one's events.

use bitpack::codec::encode_blocks_parallel;
use bitpack::{BlockCodec, DecodeResult};
use bos::{BosCodec, SolverKind};
use obs::trail::Event;
use pfor::BpCodec;
use store::{Store, StoreOptions};
use tsfile::{EncodingChoice, TsFileReader, TsFileWriter};

/// Tally slot of each [`Event`] kind.
fn event_slot(e: &Event) -> usize {
    match e {
        Event::BlockSolved { .. } => 0,
        Event::BlockPlain { .. } => 1,
        Event::BlockSeparated { .. } => 2,
        Event::DriverDispatch { .. } => 3,
        Event::DriverJoin { .. } => 4,
        Event::WorkerPanic { .. } => 5,
        Event::ChunkSealed { .. } => 6,
        Event::SalvageSkip { .. } => 7,
        Event::ManifestCommit { .. } => 8,
        Event::CompactionPhase { .. } => 9,
        Event::Span { .. } => 10,
    }
}
const EVENT_KINDS: usize = 11;

/// Panics on any block that holds a negative value.
struct PanicsOnNegative;

impl BlockCodec for PanicsOnNegative {
    fn name(&self) -> &'static str {
        "TEST-PANICS-ON-NEGATIVE"
    }

    fn encode(&self, values: &[i64], out: &mut Vec<u8>) {
        assert!(values.iter().all(|&v| v >= 0), "negative value");
        BpCodec.encode(values, out);
    }

    fn decode(&self, buf: &[u8], pos: &mut usize, out: &mut Vec<i64>) -> DecodeResult<()> {
        BpCodec.decode(buf, pos, out)
    }
}

#[test]
fn shipping_calls_emit_every_event_kind() {
    obs::trail::drain();

    // BOS-B through the two-thread driver: a block of spikes (separated)
    // and a constant block (plain).
    let mut values: Vec<i64> = (0..4096)
        .map(|i| if i % 50 == 0 { 1 << 40 } else { i % 200 })
        .collect();
    values.extend([7; 512]);
    let mut buf = Vec::new();
    encode_blocks_parallel(
        &BosCodec::new(SolverKind::BitWidth),
        &values,
        512,
        2,
        &mut buf,
    )
    .expect("encode");

    // A codec that panics on one block, through the same driver.
    let mut spiked: Vec<i64> = (0..1024).collect();
    spiked[300] = -1;
    encode_blocks_parallel(&PanicsOnNegative, &spiked, 256, 2, &mut Vec::new())
        .expect_err("block 1 panics");

    // A TsFile write, then a salvage read of one flipped payload bit.
    let mut w = TsFileWriter::new();
    w.add_int_series("s", &values, EncodingChoice::TS2DIFF_BOS)
        .expect("add series");
    let mut bytes = w.finish();
    let (_, payload) = TsFileReader::open(&bytes)
        .expect("open")
        .chunk_ranges("s")
        .expect("s indexed");
    bytes[payload.start + payload.len() / 2] ^= 0x10;
    let (reader, _) = TsFileReader::open_salvage(&bytes);
    let out = reader.read_ints_salvage("s").expect("s indexed");
    assert_eq!(out.skipped.len(), 1);

    // A store flush and a compaction of two small files.
    let dir = std::env::temp_dir().join(format!("bos_trail_coverage_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = StoreOptions {
        rotate_records: 64,
        compact_min_inputs: 2,
        compact_small_records: 1 << 20,
        threads: 1,
        ..StoreOptions::default()
    };
    let mut store = Store::create(&dir, opts).expect("create");
    for batch in 0..2i64 {
        let part: Vec<i64> = (batch * 70..batch * 70 + 70).collect();
        store.append("s", &part).expect("append");
    }
    store.flush().expect("flush");
    assert!(
        store.compact().expect("compact").is_some(),
        "compaction ran"
    );
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    let trail = obs::trail::drain();
    let mut seen = [0u64; EVENT_KINDS];
    for ev in &trail.events {
        seen[event_slot(&ev.event)] += 1;
    }
    let missing: Vec<usize> = (0..EVENT_KINDS).filter(|&s| seen[s] == 0).collect();
    assert!(missing.is_empty(), "event slots {missing:?} never emitted");
    assert_eq!(
        trail.counts().len(),
        EVENT_KINDS,
        "one label per kind: {:?}",
        trail.counts()
    );
}
