//! Span recording for the traced run.
//!
//! Spans are recorded by the benchmark only, around public entry points.
//! A real store call is timed as the root span of one operation; the
//! benchmark then replays the same operation on the same bytes through
//! the entry points of each layer underneath, each replayed call timed as
//! a child span. A library call cannot be opened up, so children run
//! after their parent rather than inside it, and a span's self time is its
//! duration minus the durations of its children.

use bos_repro::bitpack::unrolled::{pack_words_for, unpack_words_for};
use bos_repro::bitpack::{BlockCodec, DecodeResult};
use bos_repro::bos::{self, BosCodec};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Operations of each kind whose spans go into the chrome trace.
const EXPORT_OPS: usize = 4;

/// Values per kernel reference call: one full TS2DIFF block.
const KERNEL_BLOCK: usize = 1024;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer entry point, e.g. `bos.decode_block`.
    pub name: &'static str,
    /// Start, in ns since the tracer was made.
    pub start_ns: u64,
    /// End, in ns since the tracer was made.
    pub end_ns: u64,
    /// Index of the parent span within the same operation.
    pub parent: Option<usize>,
}

impl Span {
    fn dur(&self) -> i64 {
        self.end_ns.saturating_sub(self.start_ns) as i64
    }
}

/// Self time of each span: its duration minus its children's durations.
pub fn self_times(spans: &[Span]) -> Vec<i64> {
    let mut out: Vec<i64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.dur();
        }
    }
    out
}

/// `(root ns, replayed ns)` of one operation, given its spans' self
/// times: the real root's duration, and the summed self times of every
/// replayed span under it.
pub fn coverage(spans: &[Span], selfs: &[i64]) -> (i64, i64) {
    let mut root = 0;
    let mut replayed = 0;
    for (s, &own) in spans.iter().zip(selfs) {
        match s.parent {
            None => root += s.dur(),
            Some(_) => replayed += own,
        }
    }
    (root, replayed)
}

/// Per operation kind (the root span name, e.g. `store.read`).
#[derive(Debug, Default)]
pub struct Kind {
    /// Operations replayed.
    pub replayed: u64,
    /// Summed real root time of replayed operations, ns.
    pub root_ns: i64,
    /// Summed self time of their replayed spans, ns.
    pub replayed_ns: i64,
    /// Root latencies (ms) of operations that followed a replayed one.
    pub after_replay: Vec<f64>,
    /// Root latencies (ms) of operations that followed an unreplayed one.
    pub after_plain: Vec<f64>,
    last_replayed: bool,
    exported: usize,
}

impl Kind {
    /// Summed real root time of replayed operations, ms.
    pub fn root_ms(&self) -> f64 {
        self.root_ns as f64 / 1e6
    }

    /// Replayed self time ÷ real root time: 1 when the replays account
    /// for the whole call, above 1 when they do more work than it.
    pub fn coverage(&self) -> f64 {
        self.replayed_ns as f64 / self.root_ns.max(1) as f64
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    ops: u64,
    /// Summed self time per layer, ns.
    layers: BTreeMap<&'static str, i64>,
    kinds: BTreeMap<&'static str, Kind>,
    /// `(op id, span, self ns)` of the exported operations.
    exported: Vec<(u64, Span, i64)>,
    /// Values decoded by replayed BOS blocks, by the block's stored bits
    /// per value rounded up.
    decoded_by_bits: Vec<u64>,
    disk_bytes: u64,
    chunk_bytes: u64,
}

/// Records spans of the current operation and accumulates per-layer
/// totals once it finishes.
pub struct Tracer {
    epoch: Instant,
    state: RefCell<State>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            state: RefCell::new(State::default()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records one real store call of `kind` timed `t0..t1`. Every other
    /// call of a kind is replayed, alternating, so that root latencies
    /// after a replay can be compared with those after none. Returns the
    /// root span index when this call is to be replayed.
    pub fn after_op(&self, kind: &'static str, t0: Instant, t1: Instant) -> Option<usize> {
        let mut st = self.state.borrow_mut();
        let k = st.kinds.entry(kind).or_default();
        let ms = t1.duration_since(t0).as_secs_f64() * 1e3;
        if k.last_replayed {
            k.after_replay.push(ms);
        } else {
            k.after_plain.push(ms);
        }
        k.last_replayed = !k.last_replayed;
        if !k.last_replayed {
            return None;
        }
        debug_assert!(st.spans.is_empty(), "previous operation not finished");
        let (start_ns, end_ns) = (self.ns(t0), self.ns(t1));
        st.spans.push(Span {
            name: kind,
            start_ns,
            end_ns,
            parent: None,
        });
        Some(0)
    }

    /// Whether the next call of `kind` will be replayed, for callers that
    /// must keep inputs the call destroys.
    pub fn next_replayed(&self, kind: &str) -> bool {
        !self
            .state
            .borrow()
            .kinds
            .get(kind)
            .is_some_and(|k| k.last_replayed)
    }

    /// Opens a child span of `parent`; close it with [`end`](Self::end).
    pub fn begin(&self, name: &'static str, parent: usize) -> usize {
        let now = self.ns(Instant::now());
        let mut st = self.state.borrow_mut();
        st.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: Some(parent),
        });
        st.spans.len() - 1
    }

    /// Closes span `idx`.
    pub fn end(&self, idx: usize) {
        let now = self.ns(Instant::now());
        self.state.borrow_mut().spans[idx].end_ns = now;
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn time<T>(&self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let idx = self.begin(name, parent);
        let out = f();
        self.end(idx);
        out
    }

    /// Closes the current operation and adds its spans to the totals.
    pub fn finish_op(&self) {
        let mut st = self.state.borrow_mut();
        let spans = std::mem::take(&mut st.spans);
        let Some(kind) = spans.first().map(|s| s.name) else {
            st.spans = spans;
            return;
        };
        let selfs = self_times(&spans);
        for (s, &own) in spans.iter().zip(&selfs) {
            *st.layers.entry(s.name).or_default() += own;
        }
        let (root_ns, replayed_ns) = coverage(&spans, &selfs);
        let op = st.ops;
        st.ops += 1;
        let k = st.kinds.entry(kind).or_default();
        k.replayed += 1;
        k.root_ns += root_ns;
        k.replayed_ns += replayed_ns;
        if k.exported < EXPORT_OPS {
            k.exported += 1;
            st.exported
                .extend(spans.iter().zip(selfs).map(|(s, own)| (op, *s, own)));
        }
        // Keep the buffer's capacity for the next operation.
        st.spans = spans;
        st.spans.clear();
    }

    /// Notes one decoded BOS block of `n` values stored in `bytes` bytes.
    pub fn note_block(&self, n: usize, bytes: usize) {
        if n == 0 {
            return;
        }
        let bits = (bytes * 8).div_ceil(n).clamp(1, 64);
        let mut st = self.state.borrow_mut();
        if st.decoded_by_bits.is_empty() {
            st.decoded_by_bits = vec![0; 65];
        }
        st.decoded_by_bits[bits] += n as u64;
    }

    /// Notes a read that fetched `disk` bytes to return a series whose
    /// chunks hold `chunk` bytes.
    pub fn note_read(&self, disk: u64, chunk: u64) {
        let mut st = self.state.borrow_mut();
        st.disk_bytes += disk;
        st.chunk_bytes += chunk;
    }

    /// Summed self time of layer `name`, ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.state
            .borrow()
            .layers
            .get(name)
            .map_or(0.0, |&ns| ns as f64 / 1e6)
    }

    /// Runs `f` over the per-kind totals.
    pub fn with_kinds<T>(&self, f: impl FnOnce(&BTreeMap<&'static str, Kind>) -> T) -> T {
        f(&self.state.borrow().kinds)
    }

    /// Values decoded by replayed `bos.decode_block` calls.
    pub fn decoded_values(&self) -> u64 {
        self.state.borrow().decoded_by_bits.iter().sum()
    }

    /// Disk bytes read per byte of requested chunk, over replayed reads.
    pub fn read_amplification(&self) -> f64 {
        let st = self.state.borrow();
        st.disk_bytes as f64 / st.chunk_bytes.max(1) as f64
    }

    /// Time the unrolled unpack kernel takes to unpack as many values as
    /// the replayed blocks decoded, each at its block's stored bits per
    /// value, ns: the speed limit for `bos.decode_block`.
    pub fn kernel_reference_ns(&self) -> f64 {
        let decoded = self.state.borrow().decoded_by_bits.clone();
        decoded
            .iter()
            .enumerate()
            .filter(|(_, &values)| values > 0)
            .map(|(bits, &values)| {
                unpack_ns(KERNEL_BLOCK, bits as u32) / KERNEL_BLOCK as f64 * values as f64
            })
            .sum()
    }

    /// Chrome trace-event JSON of the first operations of each kind.
    pub fn chrome_json(&self) -> String {
        let st = self.state.borrow();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, (op, s, own)) in st.exported.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"bosbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{op},\"parent\":{parent},\
                 \"self_us\":{:.3}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur() as f64 / 1e3,
                *own as f64 / 1e3,
            );
        }
        out.push_str("]}");
        out
    }
}

/// Time of one `unpack_words_for` call on `n` values of `bits` bits, ns.
fn unpack_ns(n: usize, bits: u32) -> f64 {
    let mask = if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    let values: Vec<i64> = (0..n as u64)
        .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask) as i64)
        .collect();
    let mut packed = Vec::new();
    pack_words_for(&values, 0, bits, &mut packed);
    let mut out = Vec::with_capacity(n);
    let start = Instant::now();
    let mut reps = 0u32;
    while reps < 16 || start.elapsed() < Duration::from_micros(500) {
        out.clear();
        unpack_words_for(black_box(&packed), n, bits, 0, &mut out)
            .expect("reference buffer was packed at this width");
        black_box(&out);
        reps += 1;
    }
    start.elapsed().as_nanos() as f64 / f64::from(reps)
}

/// BOS-B as a block codec that times each solve, pack and block decode
/// as a child span of `parent`. Its bytes are those of [`BosCodec`].
pub struct TracedBos<'t> {
    codec: BosCodec,
    tracer: &'t Tracer,
    parent: usize,
}

impl<'t> TracedBos<'t> {
    /// Wraps the store's codec (TS2DIFF+BOS-B uses the BOS-B solver).
    pub fn new(tracer: &'t Tracer, parent: usize) -> Self {
        Self {
            codec: BosCodec::new(bos::SolverKind::BitWidth),
            tracer,
            parent,
        }
    }
}

impl BlockCodec for TracedBos<'_> {
    fn name(&self) -> &'static str {
        self.codec.name()
    }

    fn encode(&self, values: &[i64], out: &mut Vec<u8>) {
        let solution = self
            .tracer
            .time("bos.solve", self.parent, || self.codec.solve(values));
        self.tracer.time("bos.pack", self.parent, || {
            bos::encode_block_with_solution(values, &solution, out)
        });
    }

    fn decode(&self, buf: &[u8], pos: &mut usize, out: &mut Vec<i64>) -> DecodeResult<()> {
        let (start, before) = (*pos, out.len());
        let r = self.tracer.time("bos.decode_block", self.parent, || {
            bos::decode(buf, pos, out)
        });
        self.tracer.note_block(out.len() - before, *pos - start);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        // A real root of 100 ns, then replays: a 40 ns leaf and a 50 ns
        // layer whose own 20 ns child leaves it 30 ns of self time.
        let spans = [
            span("store.read", 0, 100, None),
            span("store.fs_read", 100, 140, Some(0)),
            span("tsfile.read_ints", 140, 190, Some(0)),
            span("bos.decode_block", 150, 170, Some(2)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![10, 40, 30, 20]);
        assert_eq!(coverage(&spans, &selfs), (100, 90));
    }

    #[test]
    fn coverage_above_one_when_replays_exceed_the_root() {
        let spans = [
            span("store.open", 0, 50, None),
            span("tsfile.crc", 60, 120, Some(0)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs, vec![-10, 60]);
        assert_eq!(coverage(&spans, &selfs), (50, 60));
    }

    #[test]
    fn every_other_operation_is_replayed_and_totals_accumulate() {
        let t = Tracer::new();
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_micros(5);
        let root = t
            .after_op("store.read", t0, t1)
            .expect("first op is replayed");
        t.time("store.fs_read", root, || ());
        t.finish_op();
        assert!(t.after_op("store.read", t0, t1).is_none());
        assert!(t.after_op("store.read", t0, t1).is_some());
        t.finish_op();
        t.with_kinds(|kinds| {
            let k = &kinds["store.read"];
            assert_eq!(k.replayed, 2);
            assert_eq!(k.root_ns, 10_000);
            assert_eq!((k.after_plain.len(), k.after_replay.len()), (2, 1));
        });
        assert!(t.chrome_json().contains("\"name\":\"store.fs_read\""));
    }

    #[test]
    fn traced_codec_matches_bos_bytes() {
        let values: Vec<i64> = (0..1000)
            .map(|i| if i % 97 == 0 { 1 << 30 } else { i % 13 })
            .collect();
        let t = Tracer::new();
        let t0 = Instant::now();
        let root = t.after_op("store.flush", t0, t0).expect("replayed");
        let mut traced = Vec::new();
        TracedBos::new(&t, root).encode(&values, &mut traced);
        let mut plain = Vec::new();
        BosCodec::new(bos::SolverKind::BitWidth).encode(&values, &mut plain);
        assert_eq!(traced, plain);
        let mut out = Vec::new();
        TracedBos::new(&t, root)
            .decode(&traced, &mut 0, &mut out)
            .expect("decode");
        assert_eq!(out, values);
        t.finish_op();
        assert_eq!(t.decoded_values(), 1000);
        assert!(t.kernel_reference_ns() > 0.0);
    }
}
