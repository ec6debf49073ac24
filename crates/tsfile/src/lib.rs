//! TsFile-lite — a small columnar time-series container.
//!
//! The paper deploys BOS inside Apache TsFile (§VII). This crate provides
//! the equivalent substrate in miniature: a single-file columnar format
//! holding many named series, each compressed with a per-series encoding
//! choice (any outer × operator pipeline, BOS included), with CRC-32
//! integrity on every chunk and a footer index for random access by name.
//!
//! [`TsFileReader`] reads a series by name with its type checked:
//! [`read_ints`](TsFileReader::read_ints) and
//! [`read_floats`](TsFileReader::read_floats) fail on any damage, while
//! [`read_ints_salvage`](TsFileReader::read_ints_salvage) and
//! [`read_floats_salvage`](TsFileReader::read_floats_salvage) report a
//! damaged chunk as a [`SkippedChunk`]. All four share one lookup and one
//! CRC-checked chunk read.
//!
//! ```text
//! file := magic
//!         chunk*                      one per series, written in order
//!         footer                      name → (offset, count, …) index
//!         u32 footer_crc · u64 footer_offset · magic
//!
//! chunk := u8 0x01 · varint name_len · name
//!          u8 value_type (0 int | 1 float) · [u8 decimals]
//!          u8 outer · u8 packer       encoding ids
//!          varint count · varint payload_len · payload · u32 payload_crc
//! ```
//!
//! ```
//! use tsfile::{EncodingChoice, TsFileReader, TsFileWriter};
//!
//! let mut w = TsFileWriter::new();
//! w.add_int_series("s1.temperature", &[20, 21, 21, 35, 20], EncodingChoice::TS2DIFF_BOS)
//!     .unwrap();
//! let bytes = w.finish();
//! let r = TsFileReader::open(&bytes).unwrap();
//! assert_eq!(r.read_ints("s1.temperature").unwrap(), vec![20, 21, 21, 35, 20]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]
#![deny(clippy::indexing_slicing)]

pub mod crc;

use bitpack::error::{DecodeError, EncodeError};
use bitpack::zigzag::{read_len_bounded, read_varint, write_varint};
use crc::crc32;

// Container-level metrics: chunk traffic in both directions plus CRC
// verification outcomes (footer and chunk checks both count — a mismatch
// here is the storage stack's first line of corruption evidence).
static CHUNKS_WRITTEN: obs::CounterHandle = obs::CounterHandle::new("tsfile.chunks_written");
static CHUNK_BYTES_WRITTEN: obs::CounterHandle =
    obs::CounterHandle::new("tsfile.chunk_bytes_written");
static CHUNKS_READ: obs::CounterHandle = obs::CounterHandle::new("tsfile.chunks_read");
static CRC_VERIFIED: obs::CounterHandle = obs::CounterHandle::new("tsfile.crc_verified");
static CRC_MISMATCH: obs::CounterHandle = obs::CounterHandle::new("tsfile.crc_mismatch");
// Salvage metrics: how many chunks the forward scan recovered vs skipped,
// and how often a file's footer had to be rebuilt from the body scan.
// `chunks_skipped` counts skip *events* (scan-time and per-series read
// discoveries both record here).
static SALVAGE_RECOVERED: obs::CounterHandle =
    obs::CounterHandle::new("tsfile.salvage.chunks_recovered");
static SALVAGE_SKIPPED: obs::CounterHandle =
    obs::CounterHandle::new("tsfile.salvage.chunks_skipped");
static SALVAGE_FOOTER_REBUILT: obs::CounterHandle =
    obs::CounterHandle::new("tsfile.salvage.footer_rebuilt");
use encodings::{OuterKind, PackerKind, Pipeline};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

/// File magic, 8 bytes (version byte last).
pub const MAGIC: &[u8; 8] = b"BOSTSF\x00\x01";

/// Errors returned by the reader/writer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TsFileError {
    /// The file does not start/end with the magic or is structurally
    /// invalid.
    Corrupt(&'static str),
    /// A chunk or footer checksum mismatched.
    ChecksumMismatch {
        /// Which series (empty for the footer).
        series: String,
    },
    /// The requested series does not exist.
    NoSuchSeries(String),
    /// The series exists but holds the other value type.
    WrongType(String),
    /// A series with this name was already added.
    DuplicateSeries(String),
    /// The float series has no exact `×10^p` representation.
    UnrepresentableFloats(String),
    /// A header field or chunk payload failed to decode; carries the
    /// typed decoder error from the codec stack unchanged.
    Decode(DecodeError),
    /// A series failed to encode (an operator panicked on one of its
    /// blocks); carries the encode driver's typed error unchanged.
    Encode(EncodeError),
}

impl From<DecodeError> for TsFileError {
    fn from(e: DecodeError) -> Self {
        TsFileError::Decode(e)
    }
}

impl From<EncodeError> for TsFileError {
    fn from(e: EncodeError) -> Self {
        TsFileError::Encode(e)
    }
}

impl fmt::Display for TsFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Corrupt(what) => write!(f, "corrupt tsfile: {what}"),
            Self::ChecksumMismatch { series } if series.is_empty() => {
                write!(f, "footer checksum mismatch")
            }
            Self::ChecksumMismatch { series } => {
                write!(f, "checksum mismatch in series {series:?}")
            }
            Self::NoSuchSeries(name) => write!(f, "no such series: {name:?}"),
            Self::WrongType(name) => write!(f, "series {name:?} has the other value type"),
            Self::DuplicateSeries(name) => write!(f, "series {name:?} already added"),
            Self::UnrepresentableFloats(name) => write!(
                f,
                "series {name:?} has no exact decimal scaling; store pre-scaled integers instead"
            ),
            Self::Decode(e) => write!(f, "decode failed: {e}"),
            Self::Encode(e) => write!(f, "encode failed: {e}"),
        }
    }
}

impl std::error::Error for TsFileError {}

/// Per-series encoding choice: an outer transform plus an operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodingChoice {
    /// The outer encoding.
    pub outer: OuterKind,
    /// The inner bit-packing operator.
    pub packer: PackerKind,
}

impl EncodingChoice {
    /// The production default of the paper's deployment: TS2DIFF + BOS-B.
    pub const TS2DIFF_BOS: EncodingChoice = EncodingChoice {
        outer: OuterKind::Ts2Diff,
        packer: PackerKind::BosB,
    };

    /// The pre-BOS default: TS2DIFF + plain bit-packing.
    pub const TS2DIFF_BP: EncodingChoice = EncodingChoice {
        outer: OuterKind::Ts2Diff,
        packer: PackerKind::Bp,
    };

    /// Tries a small portfolio (TS2DIFF/RLE/SPRINTZ × BOS-B) and keeps
    /// whichever encodes `values` smallest — a pragmatic "auto" mode.
    pub fn auto_for(values: &[i64]) -> EncodingChoice {
        let default = EncodingChoice {
            outer: OuterKind::Ts2Diff,
            packer: PackerKind::BosB,
        };
        let candidates = [
            default,
            EncodingChoice {
                outer: OuterKind::Rle,
                packer: PackerKind::BosB,
            },
            EncodingChoice {
                outer: OuterKind::Sprintz,
                packer: PackerKind::BosB,
            },
        ];
        let mut best = default;
        let mut best_size = usize::MAX;
        let mut buf = Vec::new();
        for c in candidates {
            buf.clear();
            c.pipeline().encode(values, &mut buf);
            if buf.len() < best_size {
                best_size = buf.len();
                best = c;
            }
        }
        best
    }

    fn pipeline(&self) -> Pipeline {
        Pipeline::new(self.outer, self.packer)
    }

    fn outer_id(&self) -> u8 {
        match self.outer {
            OuterKind::Rle => 0,
            OuterKind::Ts2Diff => 1,
            OuterKind::Sprintz => 2,
        }
    }

    fn packer_id(&self) -> u8 {
        match self.packer {
            PackerKind::Bp => 0,
            PackerKind::Pfor => 1,
            PackerKind::NewPfor => 2,
            PackerKind::OptPfor => 3,
            PackerKind::FastPfor => 4,
            PackerKind::BosV => 5,
            PackerKind::BosB => 6,
            PackerKind::BosM => 7,
            // Appended in PR 3: ids 0-7 are persisted in existing files
            // and must not be renumbered.
            PackerKind::SimplePfor => 8,
        }
    }

    fn from_ids(outer: u8, packer: u8) -> Option<EncodingChoice> {
        let outer = match outer {
            0 => OuterKind::Rle,
            1 => OuterKind::Ts2Diff,
            2 => OuterKind::Sprintz,
            _ => return None,
        };
        let packer = match packer {
            0 => PackerKind::Bp,
            1 => PackerKind::Pfor,
            2 => PackerKind::NewPfor,
            3 => PackerKind::OptPfor,
            4 => PackerKind::FastPfor,
            5 => PackerKind::BosV,
            6 => PackerKind::BosB,
            7 => PackerKind::BosM,
            8 => PackerKind::SimplePfor,
            _ => return None,
        };
        Some(EncodingChoice { outer, packer })
    }

    /// Human-readable label, e.g. "TS2DIFF+BOS-B".
    pub fn label(&self) -> String {
        self.pipeline().label()
    }
}

const TYPE_INT: u8 = 0;
const TYPE_FLOAT: u8 = 1;
const CHUNK_TAG: u8 = 0x01;

/// Builds a TsFile in memory.
#[derive(Default)]
pub struct TsFileWriter {
    body: Vec<u8>,
    index: Vec<IndexEntry>,
    names: BTreeMap<String, ()>,
}

struct IndexEntry {
    name: String,
    offset: u64,
    count: u64,
    is_float: bool,
    encoding: EncodingChoice,
}

impl TsFileWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self {
            body: MAGIC.to_vec(),
            index: Vec::new(),
            names: BTreeMap::new(),
        }
    }

    fn check_name(&mut self, name: &str) -> Result<(), TsFileError> {
        if self.names.insert(name.to_string(), ()).is_some() {
            return Err(TsFileError::DuplicateSeries(name.to_string()));
        }
        Ok(())
    }

    fn add_chunk(
        &mut self,
        name: &str,
        value_type: u8,
        decimals: Option<u8>,
        encoding: EncodingChoice,
        count: usize,
        payload: &[u8],
    ) {
        let offset = self.body.len() as u64;
        self.body.push(CHUNK_TAG);
        write_varint(&mut self.body, name.len() as u64);
        self.body.extend_from_slice(name.as_bytes());
        self.body.push(value_type);
        if let Some(d) = decimals {
            self.body.push(d);
        }
        self.body.push(encoding.outer_id());
        self.body.push(encoding.packer_id());
        write_varint(&mut self.body, count as u64);
        write_varint(&mut self.body, payload.len() as u64);
        self.body.extend_from_slice(payload);
        let crc = crc32(payload);
        self.body.extend_from_slice(&crc.to_le_bytes());
        CHUNKS_WRITTEN.inc();
        CHUNK_BYTES_WRITTEN.add(payload.len() as u64);
        obs::trail::emit(obs::trail::Event::ChunkSealed {
            bytes: payload.len() as u64,
            crc,
        });
        self.index.push(IndexEntry {
            name: name.to_string(),
            offset,
            count: count as u64,
            is_float: value_type == TYPE_FLOAT,
            encoding,
        });
    }

    /// Adds an integer series compressed with `encoding`: a one-thread
    /// [`add_int_series_parallel`](Self::add_int_series_parallel).
    pub fn add_int_series(
        &mut self,
        name: &str,
        values: &[i64],
        encoding: EncodingChoice,
    ) -> Result<(), TsFileError> {
        self.add_int_series_parallel(name, values, encoding, 1)
    }

    /// Adds an integer series compressed with `encoding`, fanning the
    /// block encodes (and therefore the solver searches) across up to
    /// `threads` worker threads via [`Pipeline::encode_parallel`]. The
    /// chunk bytes do not depend on `threads`; only the wall-clock does.
    /// The store's flush and compaction use this to re-solve series
    /// without serializing on one core. An operator panic fails the call
    /// with [`TsFileError::Encode`] and leaves the writer unchanged.
    pub fn add_int_series_parallel(
        &mut self,
        name: &str,
        values: &[i64],
        encoding: EncodingChoice,
        threads: usize,
    ) -> Result<(), TsFileError> {
        let mut payload = Vec::new();
        encoding
            .pipeline()
            .encode_parallel(values, threads, &mut payload)?;
        self.check_name(name)?;
        self.add_chunk(name, TYPE_INT, None, encoding, values.len(), &payload);
        Ok(())
    }

    /// Adds a float series (must have an exact `×10^p` representation —
    /// fixed-decimal telemetry does; free-form doubles may not).
    pub fn add_float_series(
        &mut self,
        name: &str,
        values: &[f64],
        encoding: EncodingChoice,
    ) -> Result<(), TsFileError> {
        self.check_name(name)?;
        let (p, ints) = encodings::floatint::scale(values)
            .map_err(|_| TsFileError::UnrepresentableFloats(name.to_string()))?;
        let mut payload = Vec::new();
        encoding.pipeline().encode(&ints, &mut payload);
        self.add_chunk(
            name,
            TYPE_FLOAT,
            Some(p as u8),
            encoding,
            values.len(),
            &payload,
        );
        Ok(())
    }

    /// Finalizes the file: footer index, footer CRC, trailer.
    pub fn finish(mut self) -> Vec<u8> {
        let _span = obs::span("tsfile.write_stream");
        let footer_offset = self.body.len() as u64;
        let mut footer = Vec::new();
        write_varint(&mut footer, self.index.len() as u64);
        for e in &self.index {
            write_varint(&mut footer, e.name.len() as u64);
            footer.extend_from_slice(e.name.as_bytes());
            write_varint(&mut footer, e.offset);
            write_varint(&mut footer, e.count);
            footer.push(e.is_float as u8);
            footer.push(e.encoding.outer_id());
            footer.push(e.encoding.packer_id());
        }
        let footer_crc = crc32(&footer);
        self.body.extend_from_slice(&footer);
        self.body.extend_from_slice(&footer_crc.to_le_bytes());
        self.body.extend_from_slice(&footer_offset.to_le_bytes());
        self.body.extend_from_slice(MAGIC);
        self.body
    }
}

/// Metadata of one series, from the footer index.
#[derive(Debug, Clone)]
pub struct SeriesInfo {
    /// Series name.
    pub name: String,
    /// Number of values.
    pub count: u64,
    /// Whether the series holds floats.
    pub is_float: bool,
    /// The encoding it was written with.
    pub encoding: EncodingChoice,
    /// Byte offset of its chunk.
    pub offset: u64,
}

/// Why the salvage path could not recover a chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// The payload bytes did not match the stored CRC-32.
    CrcMismatch,
    /// The chunk extends past the end of the readable bytes.
    Truncated,
    /// The chunk header failed structural validation, or a CRC-valid
    /// payload failed to decode.
    BadHeader,
}

impl SkipReason {
    /// Static label matching the `Display` form, usable as a trail
    /// event payload (which carries `&'static str`, not allocations).
    pub fn label(&self) -> &'static str {
        match self {
            Self::CrcMismatch => "crc-mismatch",
            Self::Truncated => "truncated",
            Self::BadHeader => "bad-header",
        }
    }
}

impl fmt::Display for SkipReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One chunk the salvage path saw but could not recover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkippedChunk {
    /// The series the chunk claimed to belong to.
    pub series: String,
    /// Best-effort byte range of the damaged chunk in the file.
    pub range: Range<usize>,
    /// Why it was skipped.
    pub reason: SkipReason,
}

/// Result of a partial-recovery read: everything that decoded, plus a
/// record of what did not (empty on full recovery).
#[derive(Debug, Clone, PartialEq)]
pub struct SalvageOutcome<T> {
    /// Values recovered from intact chunks, in file order.
    pub values: Vec<T>,
    /// Chunks that could not be recovered.
    pub skipped: Vec<SkippedChunk>,
}

/// What [`TsFileReader::open_salvage`] found while building the file view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SalvageReport {
    /// True when the footer was missing or corrupt and the index was
    /// rebuilt by forward-scanning the body for chunk markers.
    pub footer_rebuilt: bool,
    /// Chunks the body scan saw but could not verify as intact. Empty
    /// when the footer was trusted (damage then surfaces per series via
    /// [`TsFileReader::read_ints_salvage`]).
    pub skipped: Vec<SkippedChunk>,
}

/// Parsed fixed fields of one chunk header plus its byte geometry.
struct ChunkHeader<'a> {
    name: &'a [u8],
    decimals: Option<u8>,
    encoding: EncodingChoice,
    count: usize,
    /// File offset of the first payload byte.
    payload_start: usize,
    payload_len: usize,
}

impl ChunkHeader<'_> {
    /// File offset one past the chunk's trailing CRC.
    fn end(&self) -> usize {
        // lint:allow(unchecked-arith-in-decode): both fields bounded by data.len() in parse_chunk_header
        self.payload_start + self.payload_len + 4
    }
}

/// Parses the chunk header starting at `start`, validating every field
/// but touching neither the payload nor the CRC.
fn parse_chunk_header(data: &[u8], start: usize) -> Result<ChunkHeader<'_>, TsFileError> {
    let mut pos = start;
    let corrupt = TsFileError::Corrupt("chunk header");
    if *data.get(pos).ok_or(corrupt.clone())? != CHUNK_TAG {
        return Err(corrupt);
    }
    pos += 1;
    // Lengths come from potentially corrupt bytes: bound each against the
    // bytes actually left so a flipped varint cannot demand gigabytes.
    let remaining = data.len() - pos;
    let nlen = read_len_bounded(data, &mut pos, remaining)?;
    let name_end = pos.checked_add(nlen).ok_or(corrupt.clone())?;
    let name = data.get(pos..name_end).ok_or(corrupt.clone())?;
    pos = name_end;
    let vtype = *data.get(pos).ok_or(corrupt.clone())?;
    pos += 1;
    if vtype != TYPE_INT && vtype != TYPE_FLOAT {
        return Err(TsFileError::Corrupt("value type"));
    }
    let decimals = if vtype == TYPE_FLOAT {
        let d = *data.get(pos).ok_or(corrupt.clone())?;
        pos += 1;
        Some(d)
    } else {
        None
    };
    let outer = *data.get(pos).ok_or(corrupt.clone())?;
    let packer = *data.get(pos + 1).ok_or(corrupt)?;
    pos += 2;
    let encoding =
        EncodingChoice::from_ids(outer, packer).ok_or(TsFileError::Corrupt("encoding id"))?;
    let count = read_len_bounded(data, &mut pos, bitpack::MAX_BLOCK_VALUES)?;
    let remaining = data.len() - pos;
    let payload_len = read_len_bounded(data, &mut pos, remaining)?;
    Ok(ChunkHeader {
        name,
        decimals,
        encoding,
        count,
        payload_start: pos,
        payload_len,
    })
}

/// Extracts the payload slice of a parsed chunk and checks its CRC.
/// Returns `Corrupt("chunk truncated")` when payload or CRC bytes are
/// missing, otherwise the payload and whether the CRC matched.
fn chunk_payload<'d>(
    data: &'d [u8],
    header: &ChunkHeader<'_>,
) -> Result<(&'d [u8], bool), TsFileError> {
    let truncated = TsFileError::Corrupt("chunk truncated");
    let crc_pos = header
        .payload_start
        .checked_add(header.payload_len)
        .ok_or(truncated.clone())?;
    let payload = data
        .get(header.payload_start..crc_pos)
        .ok_or(truncated.clone())?;
    let stored = data.get(crc_pos..crc_pos + 4).ok_or(truncated.clone())?;
    let stored_crc = match <[u8; 4]>::try_from(stored) {
        Ok(b) => u32::from_le_bytes(b),
        Err(_) => return Err(truncated),
    };
    Ok((payload, crc32(payload) == stored_crc))
}

/// Decodes a CRC-verified payload and checks the decoded count.
fn decode_chunk_values(header: &ChunkHeader<'_>, payload: &[u8]) -> Result<Vec<i64>, TsFileError> {
    let mut out = Vec::with_capacity(header.count);
    let mut ppos = 0;
    header
        .encoding
        .pipeline()
        .decode(payload, &mut ppos, &mut out)?;
    if out.len() != header.count {
        return Err(TsFileError::Corrupt("value count mismatch"));
    }
    Ok(out)
}

/// Turns a float chunk's scaled integers back into floats.
fn unscale(decimals: Option<u8>, ints: &[i64]) -> Result<Vec<f64>, TsFileError> {
    let p = decimals.ok_or(TsFileError::Corrupt("missing decimals"))?;
    Ok(encodings::floatint::ints_to_floats(ints, u32::from(p)))
}

/// Maps a chunk-read failure onto the salvage skip taxonomy.
fn skip_reason(e: &TsFileError) -> SkipReason {
    match e {
        TsFileError::ChecksumMismatch { .. } => SkipReason::CrcMismatch,
        TsFileError::Decode(DecodeError::Truncated) | TsFileError::Corrupt("chunk truncated") => {
            SkipReason::Truncated
        }
        _ => SkipReason::BadHeader,
    }
}

/// What reading one chunk gives: the decimals (floats only) and the
/// decoded integers, or the chunk's error.
type ChunkRead = Result<(Option<u8>, Vec<i64>), TsFileError>;

/// Reads a TsFile from a byte buffer.
pub struct TsFileReader<'a> {
    data: &'a [u8],
    series: Vec<SeriesInfo>,
}

impl<'a> TsFileReader<'a> {
    /// Parses the footer index and validates the envelope.
    pub fn open(data: &'a [u8]) -> Result<Self, TsFileError> {
        // lint:allow(unchecked-arith-in-decode): MAGIC.len() is the constant 8
        let min = MAGIC.len() * 2 + 12;
        if data.len() < min
            || data.get(..8).is_none_or(|m| m != MAGIC)
            || data.get(data.len() - 8..).is_none_or(|m| m != MAGIC)
        {
            return Err(TsFileError::Corrupt("bad magic"));
        }
        let tail = data.len() - 8;
        let off_bytes = data
            .get(tail - 8..tail)
            .ok_or(TsFileError::Corrupt("bad footer offset"))?;
        let footer_offset = match <[u8; 8]>::try_from(off_bytes) {
            Ok(b) => u64::from_le_bytes(b) as usize,
            Err(_) => return Err(TsFileError::Corrupt("bad footer offset")),
        };
        if footer_offset < 8 || footer_offset >= tail.saturating_sub(12) {
            return Err(TsFileError::Corrupt("bad footer offset"));
        }
        let footer = data
            .get(footer_offset..tail - 12)
            .ok_or(TsFileError::Corrupt("bad footer offset"))?;
        let crc_bytes = data
            .get(tail - 12..tail - 8)
            .ok_or(TsFileError::Corrupt("bad footer offset"))?;
        let stored_crc = match <[u8; 4]>::try_from(crc_bytes) {
            Ok(b) => u32::from_le_bytes(b),
            Err(_) => return Err(TsFileError::Corrupt("bad footer offset")),
        };
        if crc32(footer) != stored_crc {
            CRC_MISMATCH.inc();
            return Err(TsFileError::ChecksumMismatch {
                series: String::new(),
            });
        }
        CRC_VERIFIED.inc();
        let mut pos = 0usize;
        // Entry counts and name lengths are attacker-controlled on a
        // corrupt file: bound them before use (decode-bomb guard).
        let count = read_len_bounded(footer, &mut pos, 1 << 20)?;
        let mut series = Vec::with_capacity(count);
        for _ in 0..count {
            let remaining = footer.len() - pos;
            let nlen = read_len_bounded(footer, &mut pos, remaining)?;
            let name_end = pos
                .checked_add(nlen)
                .ok_or(TsFileError::Corrupt("name bytes"))?;
            let name_bytes = footer
                .get(pos..name_end)
                .ok_or(TsFileError::Corrupt("name bytes"))?;
            pos = name_end;
            let name = std::str::from_utf8(name_bytes)
                .map_err(|_| TsFileError::Corrupt("name utf8"))?
                .to_string();
            let offset = read_varint(footer, &mut pos)?;
            let vcount = read_varint(footer, &mut pos)?;
            let (is_float, outer, packer) = match footer.get(pos..pos + 3) {
                Some([a, b, c]) => (*a, *b, *c),
                _ => return Err(TsFileError::Corrupt("flags")),
            };
            pos += 3;
            let encoding = EncodingChoice::from_ids(outer, packer)
                .ok_or(TsFileError::Corrupt("encoding id"))?;
            series.push(SeriesInfo {
                name,
                count: vcount,
                is_float: is_float == 1,
                encoding,
                offset,
            });
        }
        Ok(Self { data, series })
    }

    /// Index of all series in write order.
    pub fn series(&self) -> &[SeriesInfo] {
        &self.series
    }

    /// Looks up a series by name.
    pub fn info(&self, name: &str) -> Result<&SeriesInfo, TsFileError> {
        self.series
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| TsFileError::NoSuchSeries(name.to_string()))
    }

    /// Parses a chunk at `info.offset`, verifying its CRC. Returns the
    /// decimals (floats only) and decoded integers.
    fn read_chunk(&self, info: &SeriesInfo) -> ChunkRead {
        let header = parse_chunk_header(self.data, info.offset as usize)?;
        if header.name != info.name.as_bytes() {
            return Err(TsFileError::Corrupt("index/chunk name mismatch"));
        }
        let (payload, crc_ok) = chunk_payload(self.data, &header)?;
        if !crc_ok {
            CRC_MISMATCH.inc();
            return Err(TsFileError::ChecksumMismatch {
                series: info.name.clone(),
            });
        }
        CRC_VERIFIED.inc();
        CHUNKS_READ.inc();
        let values = decode_chunk_values(&header, payload)?;
        Ok((header.decimals, values))
    }

    /// Best-effort byte extent of a series' chunk, clamped to the file.
    fn chunk_extent(&self, info: &SeriesInfo) -> Range<usize> {
        let start = info.offset as usize;
        match parse_chunk_header(self.data, start) {
            Ok(h) => start..h.end().min(self.data.len()),
            Err(_) => start..self.data.len(),
        }
    }

    /// Byte ranges of the named series' chunk: the whole chunk (tag
    /// through CRC) and the payload-only subrange. Fault-injection
    /// harnesses use this to aim corruption at one chunk precisely.
    pub fn chunk_ranges(&self, name: &str) -> Result<(Range<usize>, Range<usize>), TsFileError> {
        let info = self.info(name)?;
        let start = info.offset as usize;
        let header = parse_chunk_header(self.data, start)?;
        // lint:allow(unchecked-arith-in-decode): both fields bounded by data.len() in parse_chunk_header
        let payload = header.payload_start..header.payload_start + header.payload_len;
        Ok((start..header.end(), payload))
    }

    /// Checks the CRC of every chunk the index lists, in one walk of the
    /// index, and returns the index's total value count. Each entry's
    /// chunk header must parse at the entry's offset, and its payload and
    /// CRC must lie in the file; the header's series name is not compared
    /// with the entry's. Nothing is decoded. Fails with the first damaged
    /// chunk's error: a header error, `Corrupt("chunk truncated")` or
    /// [`TsFileError::ChecksumMismatch`].
    pub fn verify_chunks(&self) -> Result<u64, TsFileError> {
        let mut total = 0u64;
        for info in &self.series {
            let header = parse_chunk_header(self.data, info.offset as usize)?;
            if !chunk_payload(self.data, &header)?.1 {
                return Err(TsFileError::ChecksumMismatch {
                    series: info.name.clone(),
                });
            }
            total = total.saturating_add(info.count);
        }
        Ok(total)
    }

    /// Opens a possibly damaged file, degrading gracefully instead of
    /// refusing it.
    ///
    /// When [`open`](Self::open) succeeds the footer index is trusted
    /// verbatim and the report is empty — the happy path is unchanged.
    /// Otherwise the body is forward-scanned for chunk markers; every
    /// candidate header is re-validated and its payload checked against
    /// the chunk CRC before it is admitted to the rebuilt index. Chunks
    /// that parse but fail verification are still indexed (so per-series
    /// reads can report them) and recorded in the report.
    ///
    /// The scan stops at the footer offset when the tail trailer still
    /// looks sane, else at the end of the buffer.
    pub fn open_salvage(data: &'a [u8]) -> (Self, SalvageReport) {
        let _span = obs::span("tsfile.open_salvage");
        if let Ok(reader) = Self::open(data) {
            return (
                reader,
                SalvageReport {
                    footer_rebuilt: false,
                    skipped: Vec::new(),
                },
            );
        }
        SALVAGE_FOOTER_REBUILT.inc();
        // The footer (or envelope) is untrusted. If the tail trailer still
        // parses to a plausible footer offset, stop the scan there so
        // footer bytes cannot masquerade as chunks; otherwise scan it all.
        let mut scan_end = data.len();
        // lint:allow(unchecked-arith-in-decode): MAGIC.len() is the constant 8
        if data.len() >= MAGIC.len() * 2 + 12
            && data.get(data.len() - 8..).is_some_and(|m| m == MAGIC)
        {
            let tail = data.len() - 8;
            if let Some(Ok(b)) = data.get(tail - 8..tail).map(<[u8; 8]>::try_from) {
                let off = u64::from_le_bytes(b) as usize;
                if off >= MAGIC.len() && off <= tail - 12 {
                    scan_end = off;
                }
            }
        }
        let start = if data.get(..MAGIC.len()).is_some_and(|m| m == MAGIC) {
            MAGIC.len()
        } else {
            0
        };
        // (info, damaged) in file order; by_name maps to the entry index.
        let mut entries: Vec<(SeriesInfo, bool)> = Vec::new();
        let mut by_name: BTreeMap<String, usize> = BTreeMap::new();
        let mut skipped = Vec::new();
        let mut pos = start;
        while pos < scan_end {
            if data.get(pos) != Some(&CHUNK_TAG) {
                pos += 1;
                continue;
            }
            let Ok(header) = parse_chunk_header(data, pos) else {
                pos += 1;
                continue;
            };
            let Ok(name) = std::str::from_utf8(header.name) else {
                pos += 1;
                continue;
            };
            let info = SeriesInfo {
                name: name.to_string(),
                count: header.count as u64,
                is_float: header.decimals.is_some(),
                encoding: header.encoding,
                offset: pos as u64,
            };
            match chunk_payload(data, &header) {
                Ok((_, true)) => {
                    // Verified chunk: index it, replacing an earlier
                    // damaged claimant of the same name (first verified
                    // occurrence wins otherwise).
                    match by_name.get(name) {
                        Some(&i) => {
                            if let Some(entry) = entries.get_mut(i) {
                                if entry.1 {
                                    *entry = (info, false);
                                }
                            }
                        }
                        None => {
                            by_name.insert(name.to_string(), entries.len());
                            entries.push((info, false));
                        }
                    }
                    SALVAGE_RECOVERED.inc();
                    pos = header.end();
                }
                payload_result => {
                    // Parsed but unverifiable: remember it (a later clean
                    // copy may replace it), report it, and keep scanning
                    // from the next byte — the claimed extent itself may
                    // be part of the damage.
                    let reason = match payload_result {
                        Ok(_) => SkipReason::CrcMismatch,
                        Err(_) => SkipReason::Truncated,
                    };
                    if !by_name.contains_key(name) {
                        by_name.insert(name.to_string(), entries.len());
                        entries.push((info, true));
                    }
                    skipped.push(SkippedChunk {
                        series: name.to_string(),
                        range: pos..header.end().min(data.len()),
                        reason,
                    });
                    SALVAGE_SKIPPED.inc();
                    obs::trail::emit(obs::trail::Event::SalvageSkip {
                        reason: reason.label(),
                        offset: pos as u64,
                    });
                    pos += 1;
                }
            }
        }
        let series = entries.into_iter().map(|(info, _)| info).collect();
        (
            Self { data, series },
            SalvageReport {
                footer_rebuilt: true,
                skipped,
            },
        )
    }

    /// The lookup-and-read under the four typed reads: finds `name`,
    /// checks that it holds the wanted value type, and reads its chunk.
    /// Lookup failures ([`TsFileError::NoSuchSeries`],
    /// [`TsFileError::WrongType`]) are the outer error; the chunk read's
    /// own result comes back whole, so a salvage read can turn it into a
    /// skip.
    fn lookup_read(
        &self,
        name: &str,
        is_float: bool,
    ) -> Result<(&SeriesInfo, ChunkRead), TsFileError> {
        let info = self.info(name)?;
        if info.is_float != is_float {
            return Err(TsFileError::WrongType(name.to_string()));
        }
        Ok((info, self.read_chunk(info)))
    }

    /// Reads an integer series by name.
    pub fn read_ints(&self, name: &str) -> Result<Vec<i64>, TsFileError> {
        Ok(self.lookup_read(name, false)?.1?.1)
    }

    /// Reads a float series by name.
    pub fn read_floats(&self, name: &str) -> Result<Vec<f64>, TsFileError> {
        let (decimals, ints) = self.lookup_read(name, true)?.1?;
        unscale(decimals, &ints)
    }

    /// Partial-recovery read of an integer series: decodes what survives
    /// and reports what does not, instead of failing the whole read.
    ///
    /// Errors only for lookup problems ([`TsFileError::NoSuchSeries`] /
    /// [`TsFileError::WrongType`]); chunk damage is returned inside the
    /// outcome.
    pub fn read_ints_salvage(&self, name: &str) -> Result<SalvageOutcome<i64>, TsFileError> {
        let (info, read) = self.lookup_read(name, false)?;
        Ok(match read {
            Ok((_, values)) => SalvageOutcome {
                values,
                skipped: Vec::new(),
            },
            Err(e) => self.skip_outcome(info, &e),
        })
    }

    /// Partial-recovery read of a float series; see
    /// [`read_ints_salvage`](Self::read_ints_salvage).
    pub fn read_floats_salvage(&self, name: &str) -> Result<SalvageOutcome<f64>, TsFileError> {
        let (info, read) = self.lookup_read(name, true)?;
        Ok(match read {
            Ok((decimals, ints)) => SalvageOutcome {
                values: unscale(decimals, &ints)?,
                skipped: Vec::new(),
            },
            Err(e) => self.skip_outcome(info, &e),
        })
    }

    /// Builds the all-skipped outcome for a chunk that failed to read.
    fn skip_outcome<T>(&self, info: &SeriesInfo, e: &TsFileError) -> SalvageOutcome<T> {
        let reason = skip_reason(e);
        SALVAGE_SKIPPED.inc();
        obs::trail::emit(obs::trail::Event::SalvageSkip {
            reason: reason.label(),
            offset: info.offset,
        });
        SalvageOutcome {
            values: Vec::new(),
            skipped: vec![SkippedChunk {
                series: info.name.clone(),
                range: self.chunk_extent(info),
                reason,
            }],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_multiple_series() {
        let mut w = TsFileWriter::new();
        let temps: Vec<i64> = (0..5000).map(|i| 200 + (i % 15)).collect();
        let loads: Vec<f64> = (0..3000).map(|i| (i % 97) as f64 / 10.0).collect();
        w.add_int_series("plant1.temp", &temps, EncodingChoice::TS2DIFF_BOS)
            .unwrap();
        w.add_float_series("plant1.load", &loads, EncodingChoice::TS2DIFF_BOS)
            .unwrap();
        w.add_int_series("plant1.rpm", &[0; 100], EncodingChoice::TS2DIFF_BP)
            .unwrap();
        let bytes = w.finish();
        let r = TsFileReader::open(&bytes).unwrap();
        assert_eq!(r.series().len(), 3);
        assert_eq!(r.read_ints("plant1.temp").unwrap(), temps);
        assert_eq!(r.read_floats("plant1.load").unwrap(), loads);
        assert_eq!(r.read_ints("plant1.rpm").unwrap(), vec![0; 100]);
    }

    #[test]
    fn error_paths() {
        let mut w = TsFileWriter::new();
        w.add_int_series("a", &[1, 2, 3], EncodingChoice::TS2DIFF_BOS)
            .unwrap();
        assert_eq!(
            w.add_int_series("a", &[4], EncodingChoice::TS2DIFF_BOS),
            Err(TsFileError::DuplicateSeries("a".into()))
        );
        assert_eq!(
            w.add_float_series("pi", &[std::f64::consts::PI], EncodingChoice::TS2DIFF_BOS),
            Err(TsFileError::UnrepresentableFloats("pi".into()))
        );
        let bytes = w.finish();
        let r = TsFileReader::open(&bytes).unwrap();
        assert!(matches!(
            r.read_ints("missing"),
            Err(TsFileError::NoSuchSeries(_))
        ));
        assert!(matches!(r.read_floats("a"), Err(TsFileError::WrongType(_))));
        // Encode failures arrive from the driver through `?` as their own
        // variant (a panicking operator is exercised in `encodings`).
        let e = TsFileError::from(EncodeError::WorkerPanicked { block: 3 });
        assert_eq!(
            e,
            TsFileError::Encode(EncodeError::WorkerPanicked { block: 3 })
        );
        assert!(e.to_string().starts_with("encode failed: "), "{e}");
    }

    #[test]
    fn payload_corruption_is_detected() {
        let mut w = TsFileWriter::new();
        // Incompressible-ish values so the payload is comfortably larger
        // than the headers and the flipped byte lands inside it.
        let values: Vec<i64> = (0..2000).map(|i| (i * i * 37) % 10_007).collect();
        w.add_int_series("s", &values, EncodingChoice::TS2DIFF_BOS)
            .unwrap();
        let mut bytes = w.finish();
        assert!(bytes.len() > 500);
        bytes[200] ^= 0x40; // inside the chunk payload
        let r = TsFileReader::open(&bytes).unwrap();
        assert!(matches!(
            r.read_ints("s"),
            Err(TsFileError::ChecksumMismatch { .. }) | Err(TsFileError::Corrupt(_))
        ));
    }

    #[test]
    fn footer_corruption_is_detected() {
        let mut w = TsFileWriter::new();
        w.add_int_series("s", &[1, 2, 3], EncodingChoice::TS2DIFF_BOS)
            .unwrap();
        let mut bytes = w.finish();
        let footer_byte = bytes.len() - 20; // inside the footer
        bytes[footer_byte] ^= 0xFF;
        assert!(TsFileReader::open(&bytes).is_err());
    }

    #[test]
    fn truncated_and_garbage_files() {
        assert!(TsFileReader::open(b"").is_err());
        assert!(TsFileReader::open(b"not a tsfile at all").is_err());
        let mut w = TsFileWriter::new();
        w.add_int_series("s", &[1], EncodingChoice::TS2DIFF_BP)
            .unwrap();
        let bytes = w.finish();
        for cut in 0..bytes.len() {
            let _ = TsFileReader::open(&bytes[..cut]); // must not panic
        }
    }

    #[test]
    fn auto_encoding_picks_sensibly() {
        // Highly repetitive data → RLE should win.
        let runs: Vec<i64> = (0..4000).map(|i| (i / 500) % 3).collect();
        let choice = EncodingChoice::auto_for(&runs);
        assert_eq!(choice.outer, OuterKind::Rle, "got {}", choice.label());
        // Smooth trending data → a delta encoding should win.
        let smooth: Vec<i64> = (0..4000).map(|i| i * 7 + (i % 3)).collect();
        let choice = EncodingChoice::auto_for(&smooth);
        assert_ne!(choice.outer, OuterKind::Rle, "got {}", choice.label());
    }

    #[test]
    fn bos_shrinks_the_file() {
        let mut values: Vec<i64> = (0..20_000).map(|i| 1000 + (i % 12)).collect();
        for i in (0..values.len()).step_by(300) {
            values[i] = 1 << 35;
        }
        let size_with = {
            let mut w = TsFileWriter::new();
            w.add_int_series("s", &values, EncodingChoice::TS2DIFF_BOS)
                .unwrap();
            w.finish().len()
        };
        let size_without = {
            let mut w = TsFileWriter::new();
            w.add_int_series("s", &values, EncodingChoice::TS2DIFF_BP)
                .unwrap();
            w.finish().len()
        };
        assert!(
            size_with * 2 < size_without,
            "{size_with} vs {size_without}"
        );
    }

    #[test]
    fn empty_file_roundtrips() {
        let bytes = TsFileWriter::new().finish();
        let r = TsFileReader::open(&bytes).unwrap();
        assert!(r.series().is_empty());
    }

    /// Three int series with payloads big enough to aim corruption at.
    fn salvage_fixture() -> (Vec<u8>, Vec<Vec<i64>>) {
        let mut w = TsFileWriter::new();
        let series: Vec<Vec<i64>> = (0..3)
            .map(|s| (0..1500).map(|i| (i * i * 31 + s * 7) % 9973).collect())
            .collect();
        for (s, values) in series.iter().enumerate() {
            w.add_int_series(&format!("s{s}"), values, EncodingChoice::TS2DIFF_BOS)
                .unwrap();
        }
        (w.finish(), series)
    }

    #[test]
    fn salvage_on_intact_file_is_invisible() {
        let (bytes, series) = salvage_fixture();
        let (r, report) = TsFileReader::open_salvage(&bytes);
        assert!(!report.footer_rebuilt);
        assert!(report.skipped.is_empty());
        for (s, values) in series.iter().enumerate() {
            let out = r.read_ints_salvage(&format!("s{s}")).unwrap();
            assert_eq!(&out.values, values);
            assert!(out.skipped.is_empty());
        }
    }

    #[test]
    fn salvage_rebuilds_index_after_footer_destruction() {
        let (mut bytes, series) = salvage_fixture();
        let footer_start = {
            let tail = bytes.len() - 8;
            u64::from_le_bytes(bytes[tail - 8..tail].try_into().unwrap()) as usize
        };
        // Obliterate footer, trailer and magic alike.
        for b in &mut bytes[footer_start..] {
            *b = 0x5A;
        }
        assert!(TsFileReader::open(&bytes).is_err());
        let (r, report) = TsFileReader::open_salvage(&bytes);
        assert!(report.footer_rebuilt);
        assert!(report.skipped.is_empty());
        assert_eq!(r.series().len(), series.len());
        for (s, values) in series.iter().enumerate() {
            assert_eq!(r.read_ints(&format!("s{s}")).unwrap(), *values);
        }
    }

    #[test]
    fn salvage_reports_corrupt_chunk_and_recovers_the_rest() {
        let (mut bytes, series) = salvage_fixture();
        let (chunk, payload) = {
            let r = TsFileReader::open(&bytes).unwrap();
            r.chunk_ranges("s1").unwrap()
        };
        assert!(payload.start >= chunk.start && payload.end + 4 <= chunk.end);
        bytes[payload.start + payload.len() / 2] ^= 0x10;
        let (r, report) = TsFileReader::open_salvage(&bytes);
        assert!(!report.footer_rebuilt, "footer untouched");
        let bad = r.read_ints_salvage("s1").unwrap();
        assert!(bad.values.is_empty());
        assert_eq!(bad.skipped.len(), 1);
        assert_eq!(bad.skipped[0].series, "s1");
        assert_eq!(bad.skipped[0].reason, SkipReason::CrcMismatch);
        assert_eq!(bad.skipped[0].range, chunk);
        for s in [0usize, 2] {
            let out = r.read_ints_salvage(&format!("s{s}")).unwrap();
            assert_eq!(out.values, series[s]);
            assert!(out.skipped.is_empty());
        }
    }

    #[test]
    fn salvage_reports_bad_header_when_chunk_tag_is_corrupt() {
        let (mut bytes, series) = salvage_fixture();
        let (chunk, _) = {
            let r = TsFileReader::open(&bytes).unwrap();
            r.chunk_ranges("s1").unwrap()
        };
        // Flip the chunk tag itself: the header no longer parses, which
        // is neither a CRC mismatch nor a truncation.
        bytes[chunk.start] ^= 0xFF;
        let (r, _report) = TsFileReader::open_salvage(&bytes);
        let bad = r.read_ints_salvage("s1").unwrap();
        assert!(bad.values.is_empty());
        assert_eq!(bad.skipped.len(), 1);
        assert_eq!(bad.skipped[0].reason, SkipReason::BadHeader);
        for s in [0usize, 2] {
            let out = r.read_ints_salvage(&format!("s{s}")).unwrap();
            assert_eq!(out.values, series[s]);
        }
    }

    #[test]
    fn salvage_scan_indexes_damaged_chunks() {
        // Footer gone AND one chunk corrupted: the scan must still index
        // the damaged chunk (reporting it) and verify the others.
        let (mut bytes, series) = salvage_fixture();
        let (_, payload) = {
            let r = TsFileReader::open(&bytes).unwrap();
            r.chunk_ranges("s0").unwrap()
        };
        bytes[payload.start + 3] ^= 0xFF;
        let cut = {
            let tail = bytes.len() - 8;
            u64::from_le_bytes(bytes[tail - 8..tail].try_into().unwrap()) as usize
        };
        bytes.truncate(cut);
        let (r, report) = TsFileReader::open_salvage(&bytes);
        assert!(report.footer_rebuilt);
        assert!(report
            .skipped
            .iter()
            .any(|s| s.series == "s0" && s.reason == SkipReason::CrcMismatch));
        let bad = r.read_ints_salvage("s0").unwrap();
        assert!(bad.values.is_empty());
        assert_eq!(bad.skipped[0].reason, SkipReason::CrcMismatch);
        for s in [1usize, 2] {
            assert_eq!(r.read_ints(&format!("s{s}")).unwrap(), series[s]);
        }
    }

    #[test]
    fn salvage_of_truncated_file_keeps_full_prefix() {
        let (mut bytes, series) = salvage_fixture();
        let (chunk2, _) = {
            let r = TsFileReader::open(&bytes).unwrap();
            r.chunk_ranges("s2").unwrap()
        };
        // Cut mid-way through the last chunk: s0/s1 survive whole.
        bytes.truncate(chunk2.start + (chunk2.end - chunk2.start) / 2);
        let (r, report) = TsFileReader::open_salvage(&bytes);
        assert!(report.footer_rebuilt);
        assert_eq!(r.read_ints("s0").unwrap(), series[0]);
        assert_eq!(r.read_ints("s1").unwrap(), series[1]);
        // The torn tail chunk is either reported truncated or invisible,
        // depending on where the cut landed.
        if let Ok(out) = r.read_ints_salvage("s2") {
            assert!(out.values.is_empty());
            assert_eq!(out.skipped[0].reason, SkipReason::Truncated);
        }
        let _ = report;
    }

    #[test]
    fn salvage_float_series() {
        let mut w = TsFileWriter::new();
        let vals: Vec<f64> = (0..800).map(|i| (i % 113) as f64 / 100.0).collect();
        w.add_float_series("f", &vals, EncodingChoice::TS2DIFF_BOS)
            .unwrap();
        w.add_int_series("i", &[7; 64], EncodingChoice::TS2DIFF_BP)
            .unwrap();
        let mut bytes = w.finish();
        let (_, payload) = {
            let r = TsFileReader::open(&bytes).unwrap();
            r.chunk_ranges("f").unwrap()
        };
        bytes[payload.start] ^= 0x01;
        let (r, _) = TsFileReader::open_salvage(&bytes);
        let out = r.read_floats_salvage("f").unwrap();
        assert!(out.values.is_empty());
        assert_eq!(out.skipped[0].reason, SkipReason::CrcMismatch);
        assert_eq!(r.read_ints_salvage("i").unwrap().values, vec![7; 64]);
        // Type guards still apply.
        assert!(matches!(
            r.read_ints_salvage("f"),
            Err(TsFileError::WrongType(_))
        ));
        assert!(matches!(
            r.read_floats_salvage("missing"),
            Err(TsFileError::NoSuchSeries(_))
        ));
    }

    #[test]
    fn parallel_series_writer_is_byte_identical() {
        let values: Vec<i64> = (0..9000)
            .map(|i| i * 5 + (i % 17) + if i % 211 == 0 { 1 << 30 } else { 0 })
            .collect();
        let mut seq = TsFileWriter::new();
        seq.add_int_series("s", &values, EncodingChoice::TS2DIFF_BOS)
            .unwrap();
        let seq_bytes = seq.finish();
        for threads in [1, 2, 4] {
            let mut par = TsFileWriter::new();
            par.add_int_series_parallel("s", &values, EncodingChoice::TS2DIFF_BOS, threads)
                .unwrap();
            assert_eq!(par.finish(), seq_bytes, "threads={threads}");
        }
    }

    #[test]
    fn salvage_of_garbage_never_panics() {
        for len in [0usize, 1, 7, 8, 64, 300] {
            let junk: Vec<u8> = (0..len).map(|i| (i * 37 % 251) as u8).collect();
            let (r, report) = TsFileReader::open_salvage(&junk);
            assert!(r.series().is_empty() || report.footer_rebuilt);
        }
    }
}
