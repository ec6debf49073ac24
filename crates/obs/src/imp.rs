//! The obs API: a process-wide registry of leaked atomic cells plus a
//! thread-local span stack.
//!
//! Design notes:
//!
//! * One build, one switch. The recording primitives read the runtime
//!   switch themselves: [`Counter::add`] and [`Histogram::record`] return
//!   at once while it is off, [`span`] hands out an inert guard, and
//!   [`trail_emit`] drops the event. Call sites record unconditionally;
//!   they read [`enabled`] only to skip work of their own (composing a
//!   metric name, reading a clock).
//! * Metric cells are `Box::leak`ed so lookups hand out `&'static`
//!   references — recording never touches the registry lock, only the
//!   first lookup of each name does.
//! * All atomics use `Ordering::Relaxed`: metrics are monotone tallies,
//!   not synchronization; cross-thread visibility at snapshot time is
//!   best-effort by design (the driver joins its workers before the
//!   benchmark snapshots, which does order everything).
//! * Nothing here panics on poisoned locks: a panicking thread must not
//!   cascade into instrumentation failures (`into_inner` on poison).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::snapshot::{HistogramSnapshot, Snapshot, SpanSnapshot};
use crate::trail::{Event, Trail, TrailEvent};

/// The runtime kill-switch. Starts `true`; benchmarks flip it to A/B
/// instrumentation overhead in-process.
static RUNTIME_ON: AtomicBool = AtomicBool::new(true);

/// True while recording is on. The primitives check it themselves; call
/// sites read it only to skip work of their own, such as composing a
/// metric name.
#[inline]
pub fn enabled() -> bool {
    RUNTIME_ON.load(Ordering::Relaxed)
}

/// Flips the runtime kill-switch.
pub fn set_enabled(on: bool) {
    RUNTIME_ON.store(on, Ordering::Relaxed);
}

// --- metric cells ---------------------------------------------------------

/// Monotone event tally.
#[derive(Debug)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    const fn zero() -> Self {
        Self {
            v: AtomicU64::new(0),
        }
    }

    /// Adds `n` events; nothing while the switch is off.
    #[inline]
    pub fn add(&self, n: u64) {
        if !enabled() {
            return;
        }
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.v.store(0, Ordering::Relaxed);
    }
}

/// Power-of-two-bucket histogram: bucket `b` counts values of bit-width
/// `b` (bucket 0 is exactly zero, bucket `b >= 1` covers
/// `2^(b-1) ..= 2^b - 1`). Natural fit for the workspace's quantities —
/// bit-widths, block sizes, candidate counts, latencies — and needs no
/// configuration, so a single cell type serves every site.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; 65],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    const fn zero() -> Self {
        #[expect(
            clippy::declare_interior_mutable_const,
            reason = "array-init seed, immediately moved"
        )]
        const Z: AtomicU64 = AtomicU64::new(0);
        Self {
            buckets: [Z; 65],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value; nothing while the switch is off.
    #[inline]
    pub fn record(&self, v: u64) {
        if !enabled() {
            return;
        }
        let b = (u64::BITS - v.leading_zeros()) as usize;
        if let Some(cell) = self.buckets.get(b) {
            cell.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let c = c.load(Ordering::Relaxed);
                (c > 0).then_some((i as u32, c))
            })
            .collect();
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Aggregate timings for one span name.
#[derive(Debug)]
struct SpanStat {
    count: AtomicU64,
    total_ns: AtomicU64,
    self_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl SpanStat {
    const fn zero() -> Self {
        Self {
            count: AtomicU64::new(0),
            total_ns: AtomicU64::new(0),
            self_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
        }
    }

    fn record(&self, total: u64, selft: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_ns.fetch_add(total, Ordering::Relaxed);
        self.self_ns.fetch_add(selft, Ordering::Relaxed);
        self.min_ns.fetch_min(total, Ordering::Relaxed);
        self.max_ns.fetch_max(total, Ordering::Relaxed);
    }

    fn snapshot(&self) -> SpanSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        SpanSnapshot {
            count,
            total_ns: self.total_ns.load(Ordering::Relaxed),
            self_ns: self.self_ns.load(Ordering::Relaxed),
            min_ns: if count == 0 {
                0
            } else {
                self.min_ns.load(Ordering::Relaxed)
            },
            max_ns: self.max_ns.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.total_ns.store(0, Ordering::Relaxed);
        self.self_ns.store(0, Ordering::Relaxed);
        self.min_ns.store(u64::MAX, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
    }
}

// --- registry -------------------------------------------------------------

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, &'static Counter>>,
    histograms: Mutex<BTreeMap<String, &'static Histogram>>,
    spans: Mutex<BTreeMap<String, &'static SpanStat>>,
}

fn registry() -> &'static Registry {
    static R: OnceLock<Registry> = OnceLock::new();
    R.get_or_init(Registry::default)
}

/// Locks a registry map, shrugging off poison: instrumentation must keep
/// working after an unrelated thread panicked mid-insert.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn get_or_insert<T>(
    map: &Mutex<BTreeMap<String, &'static T>>,
    name: &str,
    mk: fn() -> T,
) -> &'static T {
    let mut map = lock(map);
    if let Some(cell) = map.get(name) {
        return cell;
    }
    let cell: &'static T = Box::leak(Box::new(mk()));
    map.insert(name.to_string(), cell);
    cell
}

/// Looks up (registering on first use) the counter called `name`.
pub fn counter(name: &str) -> &'static Counter {
    get_or_insert(&registry().counters, name, Counter::zero)
}

/// Looks up (registering on first use) the histogram called `name`.
pub fn histogram(name: &str) -> &'static Histogram {
    get_or_insert(&registry().histograms, name, Histogram::zero)
}

fn span_stat(name: &str) -> &'static SpanStat {
    get_or_insert(&registry().spans, name, SpanStat::zero)
}

// --- static handles -------------------------------------------------------

/// Const-constructible handle binding a literal name to a [`Counter`];
/// the registry lookup is deferred to first use and cached.
#[derive(Debug)]
pub struct CounterHandle {
    name: &'static str,
    slot: OnceLock<&'static Counter>,
}

impl CounterHandle {
    /// Binds `name`; place the result in a `static`.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            slot: OnceLock::new(),
        }
    }

    #[inline]
    fn cell(&self) -> &'static Counter {
        self.slot.get_or_init(|| counter(self.name))
    }

    /// Adds `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell().add(n);
    }

    /// Adds one event.
    #[inline]
    pub fn inc(&self) {
        self.cell().inc();
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell().get()
    }

    /// The bound metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// Const-constructible handle binding a literal name to a [`Histogram`].
#[derive(Debug)]
pub struct HistogramHandle {
    name: &'static str,
    slot: OnceLock<&'static Histogram>,
}

impl HistogramHandle {
    /// Binds `name`; place the result in a `static`.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            slot: OnceLock::new(),
        }
    }

    #[inline]
    fn cell(&self) -> &'static Histogram {
        self.slot.get_or_init(|| histogram(self.name))
    }

    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.cell().record(v);
    }

    /// The bound metric name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

// --- spans ----------------------------------------------------------------

struct Frame {
    name: &'static str,
    start: Instant,
    child_ns: u64,
}

thread_local! {
    static SPAN_STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

/// RAII timer returned by [`span`]. On drop it records total and self
/// time (total minus enclosed child spans) under the span's name.
/// Thread-bound: the stack is thread-local, so a guard must be dropped
/// on the thread that created it (`!Send` enforces this).
pub struct SpanGuard {
    /// 1-based stack depth of this frame; 0 marks an inert guard
    /// (created while the runtime switch was off).
    depth: usize,
    _not_send: PhantomData<*const ()>,
}

/// Opens a span named `name`; time until the returned guard drops is
/// attributed to it. Nested spans subtract cleanly: a parent's
/// `self_ns` excludes its children's totals. While the switch is off the
/// guard is inert and no clock is read; a span opened while it was on is
/// recorded on drop whatever the switch says then.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            depth: 0,
            _not_send: PhantomData,
        };
    }
    let depth = SPAN_STACK.with(|s| {
        let mut stack = s.borrow_mut();
        stack.push(Frame {
            name,
            start: Instant::now(),
            child_ns: 0,
        });
        stack.len()
    });
    SpanGuard {
        depth,
        _not_send: PhantomData,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.depth == 0 {
            return;
        }
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            // Guards normally drop in LIFO order; if a caller dropped
            // out of order, close every frame above ours too so the
            // stack stays consistent.
            while stack.len() >= self.depth {
                let Some(frame) = stack.pop() else { return };
                let total = u64::try_from(frame.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
                let selft = total.saturating_sub(frame.child_ns);
                if let Some(parent) = stack.last_mut() {
                    parent.child_ns = parent.child_ns.saturating_add(total);
                }
                span_stat(frame.name).record(total, selft);
                // Mirror the completed span into the flight recorder so
                // exported traces show time extents, not just instants.
                let end = trail_now_ns();
                trail_emit(Event::Span {
                    name: frame.name,
                    start_ns: end.saturating_sub(total),
                    dur_ns: total,
                });
            }
        });
    }
}

// --- trail recorder -------------------------------------------------------

/// Per-shard ring capacity, in events.
const TRAIL_CAPACITY: usize = 16 * 1024;

/// Shard ids are handed out once and never reused (shards themselves
/// are, via the free list).
static TRAIL_NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// Fixed-capacity overwrite-oldest ring of `(ts_ns, event)` records.
#[derive(Default)]
struct TrailRing {
    buf: Vec<(u64, Event)>,
    /// Oldest slot once the ring has wrapped (next overwrite target).
    next: usize,
    dropped: u64,
}

impl TrailRing {
    fn push(&mut self, cap: usize, ts_ns: u64, event: Event) {
        if self.buf.len() < cap {
            self.buf.push((ts_ns, event));
            return;
        }
        // Full: overwrite the oldest record round-robin.
        if self.next >= self.buf.len() {
            self.next = 0;
        }
        if let Some(slot) = self.buf.get_mut(self.next) {
            *slot = (ts_ns, event);
            self.next += 1;
            self.dropped += 1;
        }
    }

    /// Empties the ring, returning its records oldest-first plus the
    /// overwrite count since the last drain.
    fn drain(&mut self) -> (Vec<(u64, Event)>, u64) {
        let dropped = std::mem::take(&mut self.dropped);
        let next = std::mem::take(&mut self.next);
        let mut out = std::mem::take(&mut self.buf);
        let len = out.len();
        if len > 0 {
            out.rotate_left(next % len);
        }
        (out, dropped)
    }
}

/// One recording shard: a ring behind its own mutex. The lock is
/// effectively uncontended — each shard is owned by one live thread,
/// and [`trail_drain`] takes it only briefly.
struct TrailShard {
    tid: u64,
    ring: Mutex<TrailRing>,
}

/// Every shard ever created (leaked, so drains can reach shards whose
/// owning thread has exited).
fn trail_shards() -> &'static Mutex<Vec<&'static TrailShard>> {
    static S: OnceLock<Mutex<Vec<&'static TrailShard>>> = OnceLock::new();
    S.get_or_init(|| Mutex::new(Vec::new()))
}

/// Shards released by exited threads, available for reuse — bounds the
/// shard population by the peak number of concurrently recording
/// threads instead of the total ever spawned.
fn trail_free() -> &'static Mutex<Vec<&'static TrailShard>> {
    static S: OnceLock<Mutex<Vec<&'static TrailShard>>> = OnceLock::new();
    S.get_or_init(|| Mutex::new(Vec::new()))
}

/// Thread-local shard claim; `Drop` returns the shard to the free list
/// when the thread exits.
struct ShardHandle(&'static TrailShard);

impl Drop for ShardHandle {
    fn drop(&mut self) {
        lock(trail_free()).push(self.0);
    }
}

thread_local! {
    static TRAIL_LOCAL: RefCell<Option<ShardHandle>> = const { RefCell::new(None) };
}

/// Runs `f` with the calling thread's shard, claiming one on first use.
/// Events arriving during thread teardown (after the thread-local is
/// destroyed) are silently discarded rather than panicking.
fn with_shard(f: impl FnOnce(&TrailShard)) {
    let _ = TRAIL_LOCAL.try_with(|cell| {
        let mut slot = cell.borrow_mut();
        let handle = slot.get_or_insert_with(|| {
            let reclaimed = lock(trail_free()).pop();
            ShardHandle(reclaimed.unwrap_or_else(|| {
                let shard: &'static TrailShard = Box::leak(Box::new(TrailShard {
                    tid: TRAIL_NEXT_TID.fetch_add(1, Ordering::Relaxed),
                    ring: Mutex::new(TrailRing::default()),
                }));
                lock(trail_shards()).push(shard);
                shard
            }))
        });
        f(handle.0);
    });
}

/// Monotonic nanoseconds since the recorder's process epoch (first use).
fn trail_now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Records `event` into the calling thread's shard while [`enabled`]:
/// one relaxed load, an uncontended mutex lock, and a ring write — no
/// allocation once the ring has grown to capacity.
pub fn trail_emit(event: Event) {
    if !enabled() {
        return;
    }
    let ts_ns = trail_now_ns();
    with_shard(|shard| lock(&shard.ring).push(TRAIL_CAPACITY, ts_ns, event));
}

/// Empties every shard and merges the records into one [`Trail`]
/// ordered by `(ts_ns, tid)` (stable, so in-shard order breaks ties).
/// Draining is the only way records leave the recorder; benchmarks
/// drain between rounds to isolate their event sets.
pub fn trail_drain() -> Trail {
    let shards: Vec<&'static TrailShard> = lock(trail_shards()).clone();
    let mut events = Vec::new();
    let mut dropped = 0u64;
    for shard in shards {
        let (records, d) = lock(&shard.ring).drain();
        dropped += d;
        events.extend(records.into_iter().map(|(ts_ns, event)| TrailEvent {
            ts_ns,
            tid: shard.tid,
            event,
        }));
    }
    events.sort_by_key(|e| (e.ts_ns, e.tid));
    Trail { events, dropped }
}

// --- snapshot / reset --------------------------------------------------

/// Copies the whole registry into a plain-data [`Snapshot`], with the
/// runtime switch as it stands now.
pub fn snapshot() -> Snapshot {
    let r = registry();
    Snapshot {
        enabled: enabled(),
        counters: lock(&r.counters)
            .iter()
            .map(|(n, c)| (n.clone(), c.get()))
            .collect(),
        histograms: lock(&r.histograms)
            .iter()
            .map(|(n, h)| (n.clone(), h.snapshot()))
            .collect(),
        spans: lock(&r.spans)
            .iter()
            .map(|(n, sp)| (n.clone(), sp.snapshot()))
            .collect(),
    }
}

/// Zeroes every registered metric (names stay registered). Benchmarks
/// call this between measured sections to isolate their deltas.
pub fn reset() {
    let r = registry();
    for c in lock(&r.counters).values() {
        c.reset();
    }
    for h in lock(&r.histograms).values() {
        h.reset();
    }
    for sp in lock(&r.spans).values() {
        sp.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // All tests share one process-wide registry; every name below is
    // unique to its test so parallel execution cannot interfere. No test
    // here flips the runtime switch, which every one of them relies on
    // staying on; the switch's own tests live in `tests/obs_metrics.rs`
    // and `tests/obs_zero_overhead.rs`, which serialize on a lock.

    #[test]
    fn counters_roundtrip() {
        let c = counter("test.imp.counter");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert!(std::ptr::eq(c, counter("test.imp.counter")));
        let snap = snapshot();
        assert!(snap.enabled);
        assert_eq!(snap.counter("test.imp.counter"), 5);
    }

    #[test]
    fn histogram_buckets_by_bit_width() {
        let h = histogram("test.imp.hist");
        for v in [0u64, 1, 2, 3, 4, 1024] {
            h.record(v);
        }
        let snap = snapshot();
        let hs = snap.histogram("test.imp.hist").expect("registered");
        assert_eq!(hs.count, 6);
        assert_eq!(hs.sum, 1034);
        assert_eq!(hs.min, 0);
        assert_eq!(hs.max, 1024);
        // 0 -> bucket 0; 1 -> 1; 2,3 -> 2; 4 -> 3; 1024 -> 11.
        assert_eq!(hs.buckets, vec![(0, 1), (1, 1), (2, 2), (3, 1), (11, 1)]);
    }

    #[test]
    fn handles_are_lazy_and_cached() {
        static H: CounterHandle = CounterHandle::new("test.imp.handle");
        assert_eq!(H.name(), "test.imp.handle");
        H.inc();
        H.add(2);
        assert_eq!(H.get(), 3);
        static HIST: HistogramHandle = HistogramHandle::new("test.imp.handle_hist");
        HIST.record(9);
        assert_eq!(
            snapshot()
                .histogram("test.imp.handle_hist")
                .map(|h| h.count),
            Some(1)
        );
    }

    #[test]
    fn nested_spans_split_self_time() {
        {
            let _outer = span("test.imp.span_outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            let _inner = span("test.imp.span_inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = snapshot();
        let outer = snap.span("test.imp.span_outer").expect("outer recorded");
        let inner = snap.span("test.imp.span_inner").expect("inner recorded");
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(outer.total_ns >= inner.total_ns);
        // Outer self time excludes the inner span.
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(outer.min_ns <= outer.max_ns);
    }

    #[test]
    fn reset_zeroes_but_keeps_names() {
        let c = counter("test.imp.reset_counter");
        c.add(3);
        let h = histogram("test.imp.reset_hist");
        h.record(5);
        reset();
        let snap = snapshot();
        assert_eq!(snap.counter("test.imp.reset_counter"), 0);
        let hs = snap
            .histogram("test.imp.reset_hist")
            .expect("name survives reset");
        assert_eq!((hs.count, hs.sum, hs.min, hs.max), (0, 0, 0, 0));
    }

    // Single test for all draining behavior: drains are process-global,
    // so two draining tests running in parallel would steal each
    // other's events. Assertions filter on marker payloads unique to
    // this test, because concurrent tests may emit their own events.
    #[test]
    fn trail_records_and_drains() {
        // Emission and time-ordered drain.
        trail_emit(Event::SalvageSkip {
            reason: "test.imp.trail_marker",
            offset: 1,
        });
        trail_emit(Event::SalvageSkip {
            reason: "test.imp.trail_marker",
            offset: 2,
        });
        let mine = |t: &Trail| -> Vec<TrailEvent> {
            t.events
                .iter()
                .filter(|e| {
                    matches!(
                        e.event,
                        Event::SalvageSkip {
                            reason: "test.imp.trail_marker",
                            ..
                        }
                    )
                })
                .copied()
                .collect()
        };
        let drained = mine(&trail_drain());
        assert_eq!(drained.len(), 2);
        assert!(drained[0].ts_ns <= drained[1].ts_ns, "not time-ordered");
        assert!(mine(&trail_drain()).is_empty(), "drain must empty shards");

        // Spans are mirrored into the trail by the drop hook.
        {
            let _g = span("test.imp.trail_span");
        }
        let spans: Vec<TrailEvent> = trail_drain()
            .events
            .into_iter()
            .filter(|e| {
                matches!(
                    e.event,
                    Event::Span {
                        name: "test.imp.trail_span",
                        ..
                    }
                )
            })
            .collect();
        assert_eq!(spans.len(), 1, "span must be mirrored exactly once");
    }

    #[test]
    fn full_ring_overwrites_oldest_and_counts_drops() {
        let mut ring = TrailRing::default();
        for i in 0..40u64 {
            ring.push(
                16,
                i,
                Event::SalvageSkip {
                    reason: "test.imp.ring",
                    offset: i,
                },
            );
        }
        let (records, dropped) = ring.drain();
        let kept: Vec<u64> = records.iter().map(|&(ts, _)| ts).collect();
        assert_eq!(
            kept,
            (24..40).collect::<Vec<u64>>(),
            "oldest-first drain of the wrapped ring"
        );
        assert_eq!(dropped, 24, "overwrites must be counted");
        assert_eq!(ring.drain(), (Vec::new(), 0), "drain must empty the ring");
    }
}
