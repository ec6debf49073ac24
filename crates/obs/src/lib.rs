//! Zero-dependency observability: counters, power-of-two-bucket
//! histograms, and RAII span timers over a process-wide registry.
//!
//! Everything lives behind the `enabled` cargo feature. With it on, the
//! registry is a lazily grown map of leaked atomic cells — recording a
//! metric is one or two relaxed atomic RMWs, and spans cost two
//! `Instant::now()` calls plus a thread-local stack push/pop. With it
//! off, the *same* definitions compile to inlinable no-ops:
//! `cfg!(feature = "enabled")` guards make [`enabled`] constant `false`,
//! lookups return shared never-written statics, and [`snapshot`] is
//! always empty. Consumers therefore call `obs::` APIs unconditionally;
//! no `#[cfg]` ever appears at an instrumentation site.
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
//! A runtime kill-switch ([`set_enabled`]) exists on top of the compile
//! gate so benchmarks can A/B the instrumentation overhead in one
//! process; when the feature is off it is inert and [`enabled`] is
//! always `false`.
//!
//! Naming scheme (enforced unique by the `obs-label-unique` xtask lint):
//! dot-separated `layer.subject[.detail]`, e.g. `solver.BOS-B.candidates`,
//! `codec.BP.blocks_encoded`, `tsfile.crc_verified`, and span names
//! `solver_search.BOS-M` / `pack_payload.BOS-M` / `tsfile.write_stream`.
//!
//! Aggregates answer *how much*; the [`trail`] flight recorder answers
//! *what happened*: per-block provenance events in per-thread ring
//! buffers, drained into a time-ordered [`trail::Trail`] and exported
//! as Chrome `trace_event` JSON. Like everything else it
//! compiles to no-ops without the feature.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod snapshot;
pub mod trail;

pub use snapshot::{push_json_str, HistogramSnapshot, Snapshot, SpanSnapshot};

mod imp;
pub use imp::{
    counter, enabled, histogram, report, reset, set_enabled, snapshot, span, Counter,
    CounterHandle, Histogram, HistogramHandle, SpanGuard,
};
