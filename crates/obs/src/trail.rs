//! Flight-recorder trail: compact timestamped event records with a
//! chrome-trace exporter.
//!
//! The data model here — [`Event`], [`TrailEvent`], [`Trail`], and the
//! exporter — is plain data and pure functions. The recording machinery
//! — per-thread sharded ring buffers and the process epoch clock — lives
//! in `imp.rs`, re-exported here under short names ([`emit`], [`drain`],
//! [`set_recording`], [`recording`]). Call sites use `obs::trail::`
//! unconditionally: [`emit`] drops the event unless both the runtime
//! switch ([`crate::enabled`]) and the trail switch are on.
//!
//! Recording semantics:
//!
//! * Each recording thread owns a *shard*: a fixed-capacity ring buffer
//!   behind a thread-local handle, so the hot path never contends on a
//!   shared lock and never allocates per event. When a ring is full the
//!   oldest record is overwritten and counted in [`Trail::dropped`].
//! * Timestamps are nanosecond deltas against a process-wide epoch
//!   (first recorder use), so events from different shards merge onto
//!   one timeline.
//! * Every emitted event is recorded while the recorder is on.
//! * [`drain`] empties every shard and merges the records into one
//!   [`Trail`] ordered by `(ts_ns, tid)` — deterministic for a given
//!   set of records regardless of drain timing.

use std::collections::BTreeMap;

use crate::snapshot::push_json_str;

pub use crate::imp::{
    trail_drain as drain, trail_emit as emit, trail_recording as recording,
    trail_set_recording as set_recording,
};

/// One compact flight-recorder record. Every payload is `Copy` —
/// integers and `&'static str` labels only — so emitting an event never
/// allocates on the hot path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A solver finished searching one block.
    BlockSolved {
        /// Solver label (e.g. `BOS-B`).
        solver: &'static str,
        /// Whether the chosen solution separates outliers.
        separated: bool,
        /// Cost of the chosen solution, in bits.
        cost_bits: u64,
        /// Candidate separations evaluated.
        candidates: u64,
        /// Candidates skipped by pruning bounds.
        prunes: u64,
    },
    /// The format layer stored a block in plain (unseparated) mode.
    BlockPlain {
        /// Values in the block.
        n: u64,
        /// Packed bit-width of the single stream.
        width: u8,
    },
    /// The format layer stored a block in separated mode.
    BlockSeparated {
        /// Bit-width of the lower-outlier stream.
        alpha: u8,
        /// Bit-width of the center stream.
        beta: u8,
        /// Bit-width of the upper-outlier stream.
        gamma: u8,
        /// Lower-outlier count.
        nl: u64,
        /// Center count.
        nc: u64,
        /// Upper-outlier count.
        nu: u64,
    },
    /// The parallel encode driver dispatched its workers.
    DriverDispatch {
        /// Blocks in the batch.
        blocks: u64,
        /// Worker threads spawned.
        workers: u64,
    },
    /// The parallel encode driver joined its workers.
    DriverJoin {
        /// Blocks in the batch.
        blocks: u64,
        /// True when at least one worker panicked.
        panicked: bool,
    },
    /// A worker panicked; the batch falls back to sequential encoding
    /// with per-block containment.
    WorkerPanic {
        /// Blocks in the batch being retried.
        blocks: u64,
    },
    /// The tsfile writer sealed one chunk (payload plus CRC-32).
    ChunkSealed {
        /// Payload bytes written.
        bytes: u64,
        /// CRC-32 stored after the payload.
        crc: u32,
    },
    /// A salvage read skipped an unrecoverable chunk.
    SalvageSkip {
        /// Skip reason label (`crc-mismatch`, `truncated`, `bad-header`).
        reason: &'static str,
        /// Byte offset of the damaged chunk in the file.
        offset: u64,
    },
    /// The store durably committed a manifest update
    /// (temp file → fsync → atomic rename).
    ManifestCommit {
        /// Manifest records after the commit.
        records: u64,
        /// Manifest bytes after the commit.
        bytes: u64,
    },
    /// A store compaction crossed a phase boundary.
    CompactionPhase {
        /// Phase label (`begin`, `commit`, `abort`).
        phase: &'static str,
        /// Sealed input files being merged.
        inputs: u64,
        /// Id of the merged output file.
        output: u64,
    },
    /// One completed span, mirrored into the trail by the `SpanGuard`
    /// drop hook so exported traces show time extents, not just points.
    Span {
        /// The span's name.
        name: &'static str,
        /// Start, in nanoseconds since the recorder epoch.
        start_ns: u64,
        /// Duration in nanoseconds.
        dur_ns: u64,
    },
}

impl Event {
    /// Stable label for this event kind, used as the chrome-trace instant
    /// name and the [`Trail::counts`] key. Labels are distinct per kind
    /// (pinned by this module's tests): two kinds sharing one would merge
    /// in every trace viewer.
    pub fn label(&self) -> &'static str {
        match self {
            Event::BlockSolved { .. } => "trail.block_solved",
            Event::BlockPlain { .. } => "trail.block_plain",
            Event::BlockSeparated { .. } => "trail.block_separated",
            Event::DriverDispatch { .. } => "trail.driver_dispatch",
            Event::DriverJoin { .. } => "trail.driver_join",
            Event::WorkerPanic { .. } => "trail.worker_panic",
            Event::ChunkSealed { .. } => "trail.chunk_sealed",
            Event::SalvageSkip { .. } => "trail.salvage_skip",
            Event::ManifestCommit { .. } => "trail.manifest_commit",
            Event::CompactionPhase { .. } => "trail.compaction_phase",
            Event::Span { .. } => "trail.span",
        }
    }

    /// Appends this event's payload as `"key": value` JSON pairs
    /// (no surrounding braces).
    fn push_args(&self, out: &mut String) {
        match *self {
            Event::BlockSolved {
                solver,
                separated,
                cost_bits,
                candidates,
                prunes,
            } => {
                out.push_str("\"solver\": ");
                push_json_str(out, solver);
                out.push_str(&format!(
                    ", \"separated\": {separated}, \"cost_bits\": {cost_bits}, \
                     \"candidates\": {candidates}, \"prunes\": {prunes}"
                ));
            }
            Event::BlockPlain { n, width } => {
                out.push_str(&format!("\"n\": {n}, \"width\": {width}"));
            }
            Event::BlockSeparated {
                alpha,
                beta,
                gamma,
                nl,
                nc,
                nu,
            } => {
                out.push_str(&format!(
                    "\"alpha\": {alpha}, \"beta\": {beta}, \"gamma\": {gamma}, \
                     \"nl\": {nl}, \"nc\": {nc}, \"nu\": {nu}"
                ));
            }
            Event::DriverDispatch { blocks, workers } => {
                out.push_str(&format!("\"blocks\": {blocks}, \"workers\": {workers}"));
            }
            Event::DriverJoin { blocks, panicked } => {
                out.push_str(&format!("\"blocks\": {blocks}, \"panicked\": {panicked}"));
            }
            Event::WorkerPanic { blocks } => {
                out.push_str(&format!("\"blocks\": {blocks}"));
            }
            Event::ChunkSealed { bytes, crc } => {
                out.push_str(&format!("\"bytes\": {bytes}, \"crc\": {crc}"));
            }
            Event::SalvageSkip { reason, offset } => {
                out.push_str("\"reason\": ");
                push_json_str(out, reason);
                out.push_str(&format!(", \"offset\": {offset}"));
            }
            Event::ManifestCommit { records, bytes } => {
                out.push_str(&format!("\"records\": {records}, \"bytes\": {bytes}"));
            }
            Event::CompactionPhase {
                phase,
                inputs,
                output,
            } => {
                out.push_str("\"phase\": ");
                push_json_str(out, phase);
                out.push_str(&format!(", \"inputs\": {inputs}, \"output\": {output}"));
            }
            Event::Span {
                name,
                start_ns,
                dur_ns,
            } => {
                out.push_str("\"name\": ");
                push_json_str(out, name);
                out.push_str(&format!(", \"start_ns\": {start_ns}, \"dur_ns\": {dur_ns}"));
            }
        }
    }
}

/// One recorded event with its capture timestamp and shard id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrailEvent {
    /// Nanoseconds since the recorder's process epoch.
    pub ts_ns: u64,
    /// Recorder shard id (1-based; one shard per concurrently
    /// recording thread — shards are reused after a thread exits).
    pub tid: u64,
    /// The event payload.
    pub event: Event,
}

/// A drained, time-ordered copy of the recorder's contents.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trail {
    /// Events ordered by `(ts_ns, tid)`; ties keep shard insertion
    /// order (the merge sort is stable).
    pub events: Vec<TrailEvent>,
    /// Records overwritten in full ring buffers before this drain.
    pub dropped: u64,
}

impl Trail {
    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Per-label event counts, label-sorted — the deterministic shape
    /// benchmarks compare across runs.
    pub fn counts(&self) -> Vec<(&'static str, u64)> {
        let mut by_label: BTreeMap<&'static str, u64> = BTreeMap::new();
        for ev in &self.events {
            *by_label.entry(ev.event.label()).or_insert(0) += 1;
        }
        by_label.into_iter().collect()
    }
}

/// Renders `ns` nanoseconds as decimal microseconds (chrome-trace `ts`
/// unit) without losing sub-microsecond precision.
fn fmt_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Exports a trail as Chrome `trace_event` JSON (the array form),
/// loadable in `about:tracing` and Perfetto. [`Event::Span`] records
/// become complete (`"ph": "X"`) events spanning their duration; every
/// other kind becomes a thread-scoped instant (`"ph": "i"`) with the
/// payload under `args`.
pub fn to_chrome_trace(trail: &Trail) -> String {
    let mut s = String::with_capacity(trail.events.len() * 96 + 8);
    s.push('[');
    for (i, ev) in trail.events.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n  {\"name\": ");
        let (name, ph, ts_ns, dur_ns) = match ev.event {
            Event::Span {
                name,
                start_ns,
                dur_ns,
            } => (name, "X", start_ns, Some(dur_ns)),
            other => (other.label(), "i", ev.ts_ns, None),
        };
        push_json_str(&mut s, name);
        s.push_str(&format!(", \"ph\": \"{ph}\", \"ts\": {}", fmt_us(ts_ns)));
        match dur_ns {
            Some(d) => s.push_str(&format!(", \"dur\": {}", fmt_us(d))),
            None => s.push_str(", \"s\": \"t\""),
        }
        s.push_str(&format!(", \"pid\": 1, \"tid\": {}, \"args\": {{", ev.tid));
        ev.event.push_args(&mut s);
        s.push_str("}}");
    }
    s.push_str("\n]\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One of every variant, with distinct payloads.
    fn one_of_each() -> Vec<Event> {
        vec![
            Event::BlockSolved {
                solver: "BOS-T",
                separated: true,
                cost_bits: 640,
                candidates: 12,
                prunes: 3,
            },
            Event::BlockPlain { n: 8, width: 4 },
            Event::BlockSeparated {
                alpha: 2,
                beta: 3,
                gamma: 40,
                nl: 1,
                nc: 6,
                nu: 1,
            },
            Event::DriverDispatch {
                blocks: 4,
                workers: 2,
            },
            Event::DriverJoin {
                blocks: 4,
                panicked: false,
            },
            Event::WorkerPanic { blocks: 4 },
            Event::ChunkSealed {
                bytes: 100,
                crc: 0xDEAD_BEEF,
            },
            Event::SalvageSkip {
                reason: "crc-mismatch",
                offset: 42,
            },
            Event::ManifestCommit {
                records: 7,
                bytes: 350,
            },
            Event::CompactionPhase {
                phase: "commit",
                inputs: 3,
                output: 9,
            },
            Event::Span {
                name: "test.trail.span",
                start_ns: 10,
                dur_ns: 25,
            },
        ]
    }

    fn trail_of(events: Vec<Event>) -> Trail {
        Trail {
            events: events
                .into_iter()
                .enumerate()
                .map(|(i, event)| TrailEvent {
                    ts_ns: i as u64 * 100,
                    tid: 1,
                    event,
                })
                .collect(),
            dropped: 0,
        }
    }

    /// Position of each kind in [`one_of_each`]. No wildcard arm: a new
    /// variant does not compile until it has a place there.
    fn kind_index(e: &Event) -> usize {
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

    #[test]
    fn one_of_each_holds_every_kind_once() {
        let kinds: Vec<usize> = one_of_each().iter().map(kind_index).collect();
        assert_eq!(kinds, (0..11).collect::<Vec<_>>());
    }

    #[test]
    fn labels_are_unique_and_prefixed() {
        let events = one_of_each();
        let labels: Vec<&str> = events.iter().map(Event::label).collect();
        let unique: std::collections::BTreeSet<&&str> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len(), "duplicate labels: {labels:?}");
        for label in &labels {
            assert!(label.starts_with("trail."), "bad label {label:?}");
        }
    }

    #[test]
    fn counts_aggregate_by_label() {
        let mut events = one_of_each();
        events.push(Event::BlockPlain { n: 5, width: 2 });
        let trail = trail_of(events);
        let counts = trail.counts();
        assert_eq!(trail.len(), 12);
        assert!(!trail.is_empty());
        let plain = counts
            .iter()
            .find(|(l, _)| *l == "trail.block_plain")
            .expect("plain counted");
        assert_eq!(plain.1, 2);
        // Label-sorted: deterministic comparison key for benchmarks.
        let labels: Vec<_> = counts.iter().map(|(l, _)| *l).collect();
        let mut sorted = labels.clone();
        sorted.sort_unstable();
        assert_eq!(labels, sorted);
    }

    #[test]
    fn chrome_trace_has_required_fields_per_event() {
        let trail = trail_of(one_of_each());
        let json = to_chrome_trace(&trail);
        assert!(json.starts_with('[') && json.ends_with("]\n"), "{json}");
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 1, "{json}");
        assert_eq!(json.matches("\"ph\": \"i\"").count(), 10, "{json}");
        // Every element carries the full trace_event field set. (The
        // span's `args` repeats `"name"`, hence 12 for that field.)
        for field in ["\"ph\": ", "\"ts\": ", "\"pid\": ", "\"tid\": "] {
            assert_eq!(json.matches(field).count(), 11, "missing {field}: {json}");
        }
        assert_eq!(json.matches("\"name\": ").count(), 12, "{json}");
        // The span's ts is its start, rendered in microseconds.
        assert!(json.contains("\"ts\": 0.010, \"dur\": 0.025"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn exports_of_the_empty_trail_are_empty() {
        let empty = Trail::default();
        assert!(empty.is_empty());
        assert_eq!(to_chrome_trace(&empty), "[\n]\n");
        assert!(empty.counts().is_empty());
    }
}
