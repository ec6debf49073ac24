//! The unified block-codec trait and the shared multi-block encode driver.
//!
//! Every integer block codec in the workspace — the PFOR family in
//! `crates/pfor`, BOS in `crates/bos` — implements [`BlockCodec`]. The
//! trait lives here, in the leaf crate both depend on, so there is exactly
//! one definition and one name. It has no default `encode` or `decode`:
//! every codec implements both halves of its format.
//!
//! A codec works on one self-describing block; [`encode_blocks_parallel`]
//! generalizes that to long series by segmenting into fixed-size blocks and
//! fanning encode out over std threads. Blocks are independent, so the
//! output is byte-identical to the sequential path and [`decode_blocks`]
//! (or any incremental reader) works on either. Its block loop,
//! [`encode_blocks_with`], is the workspace's one multi-block encode
//! driver: outer encodings with independent blocks (TS2DIFF) run their
//! own per-block sessions through it behind their own stream header.

#![deny(clippy::indexing_slicing)]

use crate::error::{DecodeResult, EncodeError};
use crate::zigzag::{read_varint, write_varint};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

// Parallel-driver metrics: per-worker block counts and busy time expose
// imbalance; join_wait_ns is how long the caller sat blocked collecting
// results; worker_panics counts contained session panics (each one
// triggers a sequential retry of the batch). All no-ops while the obs
// runtime switch is off.
static PAR_JOBS: obs::CounterHandle = obs::CounterHandle::new("driver.parallel.jobs");
static PAR_WORKERS: obs::CounterHandle = obs::CounterHandle::new("driver.parallel.workers");
static PAR_JOIN_WAIT_NS: obs::CounterHandle =
    obs::CounterHandle::new("driver.parallel.join_wait_ns");
static PAR_WORKER_PANICS: obs::CounterHandle =
    obs::CounterHandle::new("driver.parallel.worker_panics");
static PAR_WORKER_BLOCKS: obs::HistogramHandle =
    obs::HistogramHandle::new("driver.parallel.worker_blocks");
static PAR_WORKER_NS: obs::HistogramHandle = obs::HistogramHandle::new("driver.parallel.worker_ns");

/// Encode-side metric cells for one codec label, resolved once per batch
/// (the registry lookup does the `format!`; recording is lock-free).
#[derive(Clone, Copy)]
struct EncodeMeter {
    blocks: &'static obs::Counter,
    values: &'static obs::Counter,
    bytes: &'static obs::Counter,
}

impl EncodeMeter {
    /// `None` when instrumentation is off, so call sites skip both the
    /// name composition and the per-block accounting.
    fn new(label: &str) -> Option<Self> {
        obs::enabled().then(|| Self {
            blocks: obs::counter(&format!("codec.{label}.blocks_encoded")),
            values: obs::counter(&format!("codec.{label}.values_encoded")),
            bytes: obs::counter(&format!("codec.{label}.bytes_encoded")),
        })
    }

    fn record(&self, values: usize, bytes: usize) {
        self.blocks.inc();
        self.values.add(values as u64);
        self.bytes.add(bytes as u64);
    }
}

/// Decode-side metric cells for one codec label.
struct DecodeMeter {
    blocks: &'static obs::Counter,
    values: &'static obs::Counter,
    bytes: &'static obs::Counter,
}

impl DecodeMeter {
    fn new(label: &str) -> Option<Self> {
        obs::enabled().then(|| Self {
            blocks: obs::counter(&format!("codec.{label}.blocks_decoded")),
            values: obs::counter(&format!("codec.{label}.values_decoded")),
            bytes: obs::counter(&format!("codec.{label}.bytes_decoded")),
        })
    }

    fn record(&self, values: usize, bytes: usize) {
        self.blocks.inc();
        self.values.add(values as u64);
        self.bytes.add(bytes as u64);
    }
}

/// A codec session whose blocks are recorded under the codec's
/// per-label `codec.*` metrics when instrumentation is enabled.
struct MeteredSession<'a> {
    inner: Box<dyn EncodeSession + 'a>,
    meter: Option<EncodeMeter>,
}

impl EncodeSession for MeteredSession<'_> {
    fn encode_block(&mut self, values: &[i64], out: &mut Vec<u8>) {
        let start = out.len();
        self.inner.encode_block(values, out);
        if let Some(m) = &self.meter {
            m.record(values.len(), out.len().saturating_sub(start));
        }
    }
}

/// One session block encode with its panic contained: on panic the payload
/// is swallowed, `out` is rolled back to its entry length (the session may
/// have pushed a partial block), and `Err(())` is returned.
fn encode_one_caught(
    session: &mut (dyn EncodeSession + '_),
    block: &[i64],
    out: &mut Vec<u8>,
) -> Result<(), ()> {
    let len_before = out.len();
    match catch_unwind(AssertUnwindSafe(|| session.encode_block(block, out))) {
        Ok(()) => Ok(()),
        Err(_payload) => {
            out.truncate(len_before);
            Err(())
        }
    }
}

/// Sequential panic-contained block loop shared by the single-thread path
/// and the post-panic retry: the first block whose encode still panics
/// rolls `out` back to `restore` and surfaces as a typed error.
fn encode_blocks_caught<'a, F: Fn() -> Box<dyn EncodeSession + 'a>>(
    new_session: &F,
    values: &[i64],
    block_size: usize,
    out: &mut Vec<u8>,
    restore: usize,
) -> Result<(), EncodeError> {
    let mut session = new_session();
    for (i, block) in values.chunks(block_size).enumerate() {
        if encode_one_caught(session.as_mut(), block, out).is_err() {
            out.truncate(restore);
            return Err(EncodeError::WorkerPanicked { block: i });
        }
    }
    Ok(())
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A self-describing integer block codec.
///
/// Implementations append length-prefixed blocks on encode and must fail
/// with `Err(`[`DecodeError`](crate::DecodeError)`)` — never panic — on
/// corrupt or truncated input. `encode` and `decode` have no default
/// body, so a codec cannot implement one half of its format without the
/// other.
pub trait BlockCodec {
    /// Method label used in experiment tables ("PFOR", "NEWPFOR", …).
    ///
    /// Labels must be unique across the workspace (bench tables key on
    /// them); `encodings`' `packer_registry_roundtrips` test checks every
    /// shipping packer's label.
    fn name(&self) -> &'static str;

    /// Appends one encoded block to `out`.
    fn encode(&self, values: &[i64], out: &mut Vec<u8>);

    /// Decodes one block from `buf[*pos..]`, appending values to `out`.
    /// Fails with a [`DecodeError`](crate::DecodeError) on corrupt or
    /// truncated input.
    fn decode(&self, buf: &[u8], pos: &mut usize, out: &mut Vec<i64>) -> DecodeResult<()>;

    /// Creates per-thread encode state for a run of blocks.
    ///
    /// The multi-block drivers ([`encode_blocks_parallel`] and friends)
    /// create one session per worker and feed every block of that worker
    /// through it, so a codec with reusable working memory (e.g. a BOS
    /// solver scratch) can amortize its allocations across blocks. The
    /// default session is stateless and simply forwards to
    /// [`BlockCodec::encode`]; overriding must not change the bytes
    /// produced — sessions are a performance surface, not a format one.
    fn encode_session(&self) -> Box<dyn EncodeSession + '_> {
        Box::new(StatelessSession(self))
    }
}

/// Per-worker encode state produced by [`BlockCodec::encode_session`].
///
/// `encode_block` must append exactly the bytes [`BlockCodec::encode`]
/// would for the same block: state carried between blocks may only make
/// encoding faster, never different.
pub trait EncodeSession {
    /// Appends one encoded block to `out`.
    fn encode_block(&mut self, values: &[i64], out: &mut Vec<u8>);
}

/// Default [`EncodeSession`]: no reusable state, forwards each block to
/// [`BlockCodec::encode`].
struct StatelessSession<'a, C: ?Sized>(&'a C);

impl<C: BlockCodec + ?Sized> EncodeSession for StatelessSession<'_, C> {
    fn encode_block(&mut self, values: &[i64], out: &mut Vec<u8>) {
        self.0.encode(values, out)
    }
}

impl<C: BlockCodec + ?Sized> BlockCodec for &C {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn encode(&self, values: &[i64], out: &mut Vec<u8>) {
        (**self).encode(values, out)
    }
    fn decode(&self, buf: &[u8], pos: &mut usize, out: &mut Vec<i64>) -> DecodeResult<()> {
        (**self).decode(buf, pos, out)
    }
    fn encode_session(&self) -> Box<dyn EncodeSession + '_> {
        (**self).encode_session()
    }
}

impl<C: BlockCodec + ?Sized> BlockCodec for Box<C> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn encode(&self, values: &[i64], out: &mut Vec<u8>) {
        (**self).encode(values, out)
    }
    fn decode(&self, buf: &[u8], pos: &mut usize, out: &mut Vec<i64>) -> DecodeResult<()> {
        (**self).decode(buf, pos, out)
    }
    fn encode_session(&self) -> Box<dyn EncodeSession + '_> {
        (**self).encode_session()
    }
}

/// Encodes `values` as `varint n_blocks` followed by the blocks, encoding
/// block groups on up to `threads` worker threads and concatenating in
/// order. The output is byte-identical to a sequential loop over
/// `values.chunks(block_size)` (blocks are independent), so
/// [`decode_blocks`] — or a block-at-a-time reader such as the `query`
/// crate's scanner — works on either.
///
/// The block loop is [`encode_blocks_with`] over the codec's sessions, so
/// a codec panic surfaces as [`EncodeError::WorkerPanicked`] with `out`
/// rolled back to exactly its entry state (header included). Blocks are
/// also recorded under the codec's per-label `codec.*` metrics.
///
/// # Panics
/// If `block_size` or `threads` is zero.
pub fn encode_blocks_parallel<C: BlockCodec + Sync>(
    codec: &C,
    values: &[i64],
    block_size: usize,
    threads: usize,
    out: &mut Vec<u8>,
) -> Result<(), EncodeError> {
    assert!(block_size >= 1, "block_size must be >= 1");
    let meter = EncodeMeter::new(codec.name());
    let restore = out.len();
    write_varint(out, values.len().div_ceil(block_size) as u64);
    let new_session = || -> Box<dyn EncodeSession + '_> {
        Box::new(MeteredSession {
            inner: codec.encode_session(),
            meter,
        })
    };
    encode_blocks_with(&new_session, values, block_size, threads, out)
        .inspect_err(|_| out.truncate(restore))
}

/// The multi-block encode core: appends the blocks of `values` (no
/// stream header), encoding block groups on up to `threads` worker
/// threads — each with its own session from `new_session` — and
/// concatenating them in block order, so the output is byte-identical to
/// one session fed `values.chunks(block_size)` in order.
///
/// A session panic is contained rather than propagated: each block encode
/// runs under `catch_unwind`, and if any worker trips, the whole batch is
/// retried sequentially with per-block containment (so a *transient* panic
/// still completes the encode). A block that panics deterministically
/// surfaces as [`EncodeError::WorkerPanicked`] carrying the first failing
/// block index, with `out` rolled back to exactly its entry state — the
/// caller's buffer is never left holding a half-written stream.
///
/// # Panics
/// If `block_size` or `threads` is zero.
pub fn encode_blocks_with<'a, F>(
    new_session: &F,
    values: &[i64],
    block_size: usize,
    threads: usize,
    out: &mut Vec<u8>,
) -> Result<(), EncodeError>
where
    F: Fn() -> Box<dyn EncodeSession + 'a> + Sync,
{
    assert!(block_size >= 1, "block_size must be >= 1");
    assert!(threads >= 1, "threads must be >= 1");
    let n_blocks = values.len().div_ceil(block_size);
    let restore = out.len();
    if threads == 1 || n_blocks <= 1 {
        return encode_blocks_caught(new_session, values, block_size, out, restore);
    }
    let observed = obs::enabled();
    let blocks: Vec<&[i64]> = values.chunks(block_size).collect();
    let chunk = blocks.len().div_ceil(threads);
    let mut parts: Vec<Vec<u8>> = Vec::new();
    let mut panicked = false;
    std::thread::scope(|scope| {
        let handles: Vec<_> = blocks
            .chunks(chunk)
            .map(|group| {
                scope.spawn(move || -> Result<Vec<u8>, ()> {
                    let started = observed.then(Instant::now);
                    let mut session = new_session();
                    let mut buf = Vec::new();
                    for block in group {
                        encode_one_caught(session.as_mut(), block, &mut buf)?;
                    }
                    if let Some(t0) = started {
                        PAR_WORKER_BLOCKS.record(group.len() as u64);
                        PAR_WORKER_NS.record(elapsed_ns(t0));
                    }
                    Ok(buf)
                })
            })
            .collect();
        PAR_JOBS.inc();
        PAR_WORKERS.add(handles.len() as u64);
        obs::trail::emit(obs::trail::Event::DriverDispatch {
            blocks: n_blocks as u64,
            workers: handles.len() as u64,
        });
        let join_started = observed.then(Instant::now);
        for h in handles {
            match h.join() {
                Ok(Ok(part)) => parts.push(part),
                // Worker reported a contained panic, or (second arm) the
                // panic escaped containment entirely — possible only for
                // panics raised between blocks, not by the session itself.
                Ok(Err(())) | Err(_) => panicked = true,
            }
        }
        if let Some(t0) = join_started {
            PAR_JOIN_WAIT_NS.add(elapsed_ns(t0));
        }
        obs::trail::emit(obs::trail::Event::DriverJoin {
            blocks: n_blocks as u64,
            panicked,
        });
    });
    if !panicked {
        for part in parts {
            out.extend_from_slice(&part);
        }
        return Ok(());
    }
    // A worker panicked (`out` is untouched: parts are only appended on
    // success). Retry the batch sequentially with per-block containment:
    // transient panics complete on retry; a deterministic panic identifies
    // its block index and rolls `out` back.
    PAR_WORKER_PANICS.inc();
    obs::trail::emit(obs::trail::Event::WorkerPanic {
        blocks: n_blocks as u64,
    });
    encode_blocks_caught(new_session, values, block_size, out, restore)
}

/// Decodes an [`encode_blocks_parallel`] stream back into one vector:
/// `varint n_blocks` then that many `codec` blocks.
pub fn decode_blocks<C: BlockCodec>(codec: &C, buf: &[u8]) -> DecodeResult<Vec<i64>> {
    let mut pos = 0;
    let n_blocks = read_varint(buf, &mut pos)?;
    let meter = DecodeMeter::new(codec.name());
    let mut out = Vec::new();
    for _ in 0..n_blocks {
        let (values_before, pos_before) = (out.len(), pos);
        codec.decode(buf, &mut pos, &mut out)?;
        if let Some(m) = &meter {
            m.record(
                out.len().saturating_sub(values_before),
                pos.saturating_sub(pos_before),
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DecodeError;
    use crate::zigzag::{read_varint, zigzag_decode, zigzag_encode};

    /// Toy codec: `varint n` then `n` zigzag varints.
    struct Varints;

    impl BlockCodec for Varints {
        fn name(&self) -> &'static str {
            "VARINTS-TEST"
        }
        fn encode(&self, values: &[i64], out: &mut Vec<u8>) {
            write_varint(out, values.len() as u64);
            for &v in values {
                write_varint(out, zigzag_encode(v));
            }
        }
        fn decode(&self, buf: &[u8], pos: &mut usize, out: &mut Vec<i64>) -> DecodeResult<()> {
            let n = read_varint(buf, pos)?;
            for _ in 0..n {
                out.push(zigzag_decode(read_varint(buf, pos)?));
            }
            Ok(())
        }
    }

    #[test]
    fn parallel_encode_blocks_byte_identical_and_decode_blocks_roundtrips() {
        let values: Vec<i64> = (0..10_000)
            .map(|i| if i % 83 == 0 { -(1 << 40) } else { i % 700 })
            .collect();
        let mut seq = Vec::new();
        encode_blocks_parallel(&Varints, &values, 512, 1, &mut seq).expect("sequential encode");
        for threads in [2, 3, 8] {
            let mut par = Vec::new();
            encode_blocks_parallel(&Varints, &values, 512, threads, &mut par)
                .expect("parallel encode");
            assert_eq!(par, seq, "threads = {threads}");
        }
        assert_eq!(decode_blocks(&Varints, &seq), Ok(values));
    }

    #[test]
    fn empty_series() {
        let mut buf = Vec::new();
        encode_blocks_parallel(&Varints, &[], 1024, 4, &mut buf).expect("empty encode");
        assert_eq!(decode_blocks(&Varints, &buf), Ok(vec![]));
    }

    #[test]
    fn truncated_stream_is_err() {
        let values: Vec<i64> = (0..3000).collect();
        let mut buf = Vec::new();
        encode_blocks_parallel(&Varints, &values, 1000, 2, &mut buf).expect("encode");
        assert_eq!(
            decode_blocks(&Varints, &buf[..buf.len() / 2]),
            Err(DecodeError::Truncated)
        );
    }

    /// Deliberately-panicking mock codec: encodes like `Varints` but
    /// panics on any block containing the poison value.
    struct PanicOn(i64);

    impl BlockCodec for PanicOn {
        fn name(&self) -> &'static str {
            "PANIC-MOCK-TEST"
        }
        fn encode(&self, values: &[i64], out: &mut Vec<u8>) {
            assert!(
                !values.contains(&self.0),
                "poison value reached the encoder"
            );
            Varints.encode(values, out)
        }
        fn decode(&self, buf: &[u8], pos: &mut usize, out: &mut Vec<i64>) -> DecodeResult<()> {
            Varints.decode(buf, pos, out)
        }
    }

    #[test]
    fn worker_panic_is_contained_as_typed_error_with_rollback() {
        let mut values: Vec<i64> = (0..4000).collect();
        values[2500] = -7777; // poisons block 2500 / 512 = 4
        let codec = PanicOn(-7777);
        for threads in [1, 2, 4, 16] {
            let mut out = vec![0xAB, 0xCD, 0xEF];
            let err = encode_blocks_parallel(&codec, &values, 512, threads, &mut out)
                .expect_err("poisoned block must fail");
            assert_eq!(
                err,
                crate::EncodeError::WorkerPanicked { block: 4 },
                "threads={threads}"
            );
            assert_eq!(
                out,
                vec![0xAB, 0xCD, 0xEF],
                "output must roll back (threads={threads})"
            );
        }
        // The same codec still encodes clean input, and the stream decodes.
        let clean: Vec<i64> = (0..4000).collect();
        let mut out = Vec::new();
        encode_blocks_parallel(&codec, &clean, 512, 4, &mut out).expect("clean input");
        assert_eq!(decode_blocks(&codec, &out), Ok(clean));
    }

    #[test]
    fn blanket_impls_forward() {
        let boxed: Box<dyn BlockCodec> = Box::new(Varints);
        assert_eq!(boxed.name(), "VARINTS-TEST");
        let by_ref: &dyn BlockCodec = &Varints;
        let mut buf = Vec::new();
        by_ref.encode(&[1, -2, 3], &mut buf);
        let mut out = Vec::new();
        let mut pos = 0;
        boxed.decode(&buf, &mut pos, &mut out).expect("intact");
        assert_eq!(out, [1, -2, 3]);
        assert_eq!(pos, buf.len());
    }
}
