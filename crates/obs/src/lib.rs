//! Zero-dependency observability: counters, power-of-two-bucket
//! histograms, and RAII span timers over a process-wide registry.
//!
//! The registry is a lazily grown map of leaked atomic cells: recording a
//! metric is one or two relaxed atomic RMWs, and spans cost two
//! `Instant::now()` calls plus a thread-local stack push/pop.
//!
//! One runtime switch ([`set_enabled`], read by [`enabled`]) decides
//! whether anything is recorded, and the primitives read it themselves:
//! [`Counter::add`] and [`Histogram::record`] return at once while it is
//! off, [`span`] hands out an inert guard, and [`trail::emit`] drops the
//! event. Consumers therefore call `obs::` APIs unconditionally, and the
//! switch lets benchmarks A/B the instrumentation overhead in one
//! process. Encoded bytes never depend on it.
//!
//! The trail has a second switch of its own, [`trail::set_recording`]
//! (on by default): an event is recorded only while both are on. The two
//! A/Bs measure different things. `exp_obs` flips the trail switch
//! alone, so its gates bound only the trail's share of the cost.
//! `exp_throughput`'s kill-switch rows (full run only) flip
//! [`set_enabled`], so they time the whole recorder: the kernel unpack
//! row is gated at 1.05×, and the BOS-M driver encode row is reported
//! but not gated.
//!
//! Two usage idioms, by call-site temperature:
//!
//! * **Static handles** for hot paths with literal names:
//!   `static BLOCKS: obs::CounterHandle = obs::CounterHandle::new("x.blocks");`
//!   — the registry lookup happens once, on first use.
//! * **Dynamic lookups** ([`counter`], [`histogram`]) for
//!   names composed at runtime (e.g. per codec label). Resolve once per
//!   batch, not per element, and skip the `format!` entirely when
//!   [`enabled`] is false.
//!
//! Naming scheme (enforced unique by the `obs-label-unique` xtask lint):
//! dot-separated `layer.subject[.detail]`, e.g. `solver.BOS-B.candidates`,
//! `codec.BP.blocks_encoded`, `tsfile.crc_verified`, and span names
//! `solver_search.BOS-M` / `pack_payload.BOS-M` / `tsfile.write_stream`.
//!
//! Aggregates answer *how much*; the [`trail`] flight recorder answers
//! *what happened*: per-block provenance events in per-thread ring
//! buffers, drained into a time-ordered [`trail::Trail`] and exported
//! as Chrome `trace_event` JSON.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod snapshot;
pub mod trail;

pub use snapshot::{push_json_str, HistogramSnapshot, Snapshot, SpanSnapshot};

mod imp;
pub use imp::{
    counter, enabled, histogram, reset, set_enabled, snapshot, span, Counter, CounterHandle,
    Histogram, HistogramHandle, SpanGuard,
};
