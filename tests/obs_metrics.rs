//! Property tests for the `obs` metrics layer (PR 4): the codec meters in
//! the shared block driver must agree exactly with what was encoded.
//!
//! The metric assertions are snapshot *deltas* on shared labels and the
//! kill-switch test flips the global runtime toggle, so the tests in
//! this binary serialize on [`OBS_STATE`] — a concurrent test would race
//! the deltas or observe the switch mid-flip. Integration-test files are
//! separate processes, so other test binaries can't interfere.

use bitpack::codec::{decode_blocks, encode_blocks_parallel};
use bitpack::zigzag::write_varint;
use encodings::PackerKind;
use proptest::prelude::*;
use proptest::TestCaseError;
use std::sync::Mutex;

/// Serializes the tests in this binary (see the module docs). The
/// proptest below locks per case — each case's before/after snapshots
/// happen entirely under one hold — and the kill-switch test locks once
/// and restores `set_enabled(true)` before releasing.
static OBS_STATE: Mutex<()> = Mutex::new(());

/// Lock that survives a poisoned mutex (a prior panicking test must not
/// mask this one's result).
fn obs_lock() -> std::sync::MutexGuard<'static, ()> {
    OBS_STATE.lock().unwrap_or_else(|e| e.into_inner())
}

/// Completed-instance count for one span label (0 when never recorded).
fn span_count(name: &str) -> u64 {
    obs::snapshot().span(name).map_or(0, |s| s.count)
}

/// Satellite regression (PR 9): toggling the runtime kill-switch between
/// span open and drop must not panic, corrupt self-time accounting, or
/// leak thread-local stack frames.
#[test]
fn kill_switch_mid_span_keeps_accounting_sane() {
    let _guard = obs_lock();
    obs::set_enabled(true);

    // Disable while a span is open: an inner guard opened during the off
    // window is inert (it must not pop the outer frame on drop), and the
    // outer span still records exactly once after re-enabling.
    let outer_before = span_count("test.killswitch.outer");
    {
        let _outer = obs::span("test.killswitch.outer");
        obs::set_enabled(false);
        {
            let _inner = obs::span("test.killswitch.inner");
        }
        obs::set_enabled(true);
    }
    assert_eq!(
        span_count("test.killswitch.outer"),
        outer_before + 1,
        "outer span must record exactly once"
    );
    assert_eq!(
        span_count("test.killswitch.inner"),
        0,
        "inner span opened while disabled must stay unrecorded"
    );
    let outer = obs::snapshot();
    let outer = outer.span("test.killswitch.outer").expect("outer recorded");
    assert_eq!(
        outer.self_ns, outer.total_ns,
        "the inert inner span must not siphon child time from the outer"
    );

    // Enabled at open, disabled at drop: the frame was pushed, so it must
    // still be popped and recorded — otherwise it leaks on the stack and
    // corrupts every later span's depth.
    {
        let _g = obs::span("test.killswitch.drop_disabled");
        obs::set_enabled(false);
    }
    obs::set_enabled(true);
    assert_eq!(
        span_count("test.killswitch.drop_disabled"),
        1,
        "a frame pushed while enabled must be recorded on drop"
    );

    // The stack is back to level ground: a fresh span nests nothing and
    // records once with self == total.
    let fresh_before = span_count("test.killswitch.fresh");
    {
        let _g = obs::span("test.killswitch.fresh");
    }
    let snap = obs::snapshot();
    let fresh = snap.span("test.killswitch.fresh").expect("fresh recorded");
    assert_eq!(fresh.count, fresh_before + 1);
    assert_eq!(
        fresh.self_ns, fresh.total_ns,
        "a leaked frame would show up as phantom child time here"
    );
}

/// Mixed-magnitude series: a tight center with sparse two-sided outliers,
/// the regime where every codec in the grid takes a different layout path.
fn series() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(
        prop_oneof![
            8 => 0i64..200,
            1 => -1_000_000_000i64..1_000_000_000,
        ],
        0..600,
    )
}

/// Counter deltas for one codec label between two snapshots.
struct Delta {
    blocks_encoded: u64,
    values_encoded: u64,
    bytes_encoded: u64,
    blocks_decoded: u64,
    values_decoded: u64,
    bytes_decoded: u64,
}

fn delta(before: &obs::Snapshot, after: &obs::Snapshot, label: &str) -> Delta {
    let c = |field: &str| {
        after.counter(&format!("codec.{label}.{field}"))
            - before.counter(&format!("codec.{label}.{field}"))
    };
    Delta {
        blocks_encoded: c("blocks_encoded"),
        values_encoded: c("values_encoded"),
        bytes_encoded: c("bytes_encoded"),
        blocks_decoded: c("blocks_decoded"),
        values_decoded: c("values_decoded"),
        bytes_decoded: c("bytes_decoded"),
    }
}

/// Drives one concrete codec through the instrumented driver and checks
/// the metric deltas against ground truth.
fn check<C: bitpack::BlockCodec + Sync>(
    codec: &C,
    values: &[i64],
    block: usize,
) -> Result<(), TestCaseError> {
    let label = codec.name();
    let before = obs::snapshot();
    let mut buf = Vec::new();
    encode_blocks_parallel(codec, values, block, 2, &mut buf).expect("encode");
    let decoded = decode_blocks(codec, &buf).expect("decode");
    prop_assert_eq!(&decoded, values, "{} roundtrip", label);
    let after = obs::snapshot();

    let d = delta(&before, &after, label);
    let n_blocks = values.len().div_ceil(block) as u64;
    let mut header = Vec::new();
    write_varint(&mut header, n_blocks);
    let payload = (buf.len() - header.len()) as u64;

    prop_assert_eq!(d.blocks_encoded, n_blocks, "{} blocks_encoded", label);
    prop_assert_eq!(d.blocks_decoded, n_blocks, "{} blocks_decoded", label);
    prop_assert_eq!(
        d.values_encoded,
        values.len() as u64,
        "{} values_encoded",
        label
    );
    prop_assert_eq!(
        d.values_decoded,
        values.len() as u64,
        "{} values_decoded",
        label
    );
    prop_assert_eq!(d.bytes_encoded, payload, "{} bytes_encoded", label);
    prop_assert_eq!(d.bytes_decoded, payload, "{} bytes_decoded", label);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn driver_meters_agree_with_ground_truth(
        values in series(),
        block in 64usize..=256,
    ) {
        let _guard = obs_lock();
        for kind in PackerKind::ALL {
            check(&kind.build(), &values, block)?;
        }
    }
}
