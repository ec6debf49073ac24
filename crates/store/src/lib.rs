//! Crash-consistent multi-TsFile store.
//!
//! A store is a directory: one [`manifest`] (`MANIFEST`, an append-only
//! CRC-framed record log) plus numbered data files (`NNNNNN.tsf`, each a
//! self-contained TsFile). All durability flows through two write
//! shapes — manifest records are *appended* then fsynced (a torn tail
//! only ever costs the un-synced suffix), and whole files land via
//! temp-file → fsync → atomic rename — and both shapes are threaded
//! through a [`faultsim::CrashSchedule`] so every mutation can be killed
//! at any durable write, with the in-flight bytes optionally torn.
//!
//! The commit points are manifest records: a data file exists once its
//! `FileSealed` record is durable, and a compaction's output replaces
//! its inputs once `CompactionCommit` is durable (input deletion
//! strictly follows, so at recovery a missing input *proves* the
//! commit). [`Store::open`] replays the manifest, truncates a torn
//! tail to the last valid record, cross-checks the directory against
//! the log — rolling interrupted operations forward or back, adopting
//! intact orphans, deleting committed-dead leftovers — and routes
//! damaged files through [`TsFileReader::open_salvage`] into a typed
//! quarantine instead of failing the open.
//!
//! Strict reads go through one per-file series read: [`Store::read_series`]
//! appends each live file's values of a series in `(order, id)` order, and
//! [`Store::compact`] gathers each series from its inputs the same way,
//! one series at a time, so a compaction holds the inputs' file bytes and
//! one series' values, never every decoded input.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable
)]

pub mod manifest;

use faultsim::CrashSchedule;
use manifest::{LiveFile, Record, ReplayState};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use tsfile::{EncodingChoice, SkippedChunk, TsFileError, TsFileReader, TsFileWriter};

static FILES_SEALED: obs::CounterHandle = obs::CounterHandle::new("store.files");
static RECOVERIES: obs::CounterHandle = obs::CounterHandle::new("store.recoveries");
static QUARANTINED: obs::CounterHandle = obs::CounterHandle::new("store.quarantined");
static COMPACTIONS: obs::CounterHandle = obs::CounterHandle::new("store.compactions");
static TORN_TAIL_TRUNCATED: obs::CounterHandle =
    obs::CounterHandle::new("store.torn_tail_truncated");

/// Suffix of in-flight atomic-write temporaries; recovery sweeps them.
const TMP_SUFFIX: &str = ".tmp";

/// Extension of data files.
const DATA_SUFFIX: &str = ".tsf";

/// Errors returned by store operations.
#[derive(Debug)]
pub enum StoreError {
    /// A filesystem operation failed.
    Io {
        /// The path the operation targeted.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A data file operation failed.
    TsFile(TsFileError),
    /// The directory holds no manifest; it is not (yet) a store.
    NotAStore(PathBuf),
    /// `create` was pointed at a directory that already holds a store.
    AlreadyExists(PathBuf),
    /// The injected crash schedule fired: the simulated process is dead
    /// and this handle refuses all further mutations.
    Crashed,
}

impl From<TsFileError> for StoreError {
    fn from(e: TsFileError) -> Self {
        StoreError::TsFile(e)
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { path, source } => write!(f, "io error at {}: {source}", path.display()),
            Self::TsFile(e) => write!(f, "tsfile error: {e}"),
            Self::NotAStore(p) => write!(f, "{} holds no store manifest", p.display()),
            Self::AlreadyExists(p) => write!(f, "store already exists at {}", p.display()),
            Self::Crashed => write!(f, "simulated crash: store handle is dead"),
        }
    }
}

impl std::error::Error for StoreError {}

fn io_err(path: &Path, source: std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// Rotation / compaction policy and encoding configuration.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Seal the active buffer into a new data file once it holds this
    /// many values (across all series).
    pub rotate_records: usize,
    /// Compact only when at least this many small sealed files exist.
    pub compact_min_inputs: usize,
    /// A sealed file is a compaction candidate while it holds at most
    /// this many values.
    pub compact_small_records: u64,
    /// Encoding for sealed series.
    pub encoding: EncodingChoice,
    /// Worker threads for parallel encodes (seal and compaction).
    pub threads: usize,
}

impl Default for StoreOptions {
    fn default() -> Self {
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(8);
        Self {
            rotate_records: 4096,
            compact_min_inputs: 4,
            compact_small_records: 16 * 4096,
            encoding: EncodingChoice::TS2DIFF_BOS,
            threads,
        }
    }
}

/// Why a file sits in quarantine instead of the live set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum QuarantineReason {
    /// The manifest says the file is live but no verifiable file is on
    /// disk — its bytes failed verification.
    Damaged,
    /// The manifest says the file is live but it is not on disk at all.
    Missing,
    /// The file is on disk but unknown to the manifest and failed
    /// verification (an intact orphan would have been adopted).
    Orphaned,
}

impl QuarantineReason {
    /// Stable label for tables and JSON artifacts.
    pub fn label(self) -> &'static str {
        match self {
            Self::Damaged => "damaged",
            Self::Missing => "missing",
            Self::Orphaned => "orphaned",
        }
    }
}

/// One quarantined file: kept on disk (when it exists) for salvage
/// reads, excluded from the live set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedFile {
    /// File id.
    pub id: u64,
    /// Why it is quarantined.
    pub reason: QuarantineReason,
    /// Values the salvage path can still recover from it.
    pub recovered_values: u64,
    /// Chunks the salvage path had to skip.
    pub skipped_chunks: usize,
}

/// What [`Store::open`] found and did while recovering.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Records replayed from the (possibly truncated) manifest.
    pub replayed_records: usize,
    /// True when trailing manifest bytes were invalid and dropped.
    pub torn_tail_truncated: bool,
    /// Corrupt mid-manifest frames skipped by CRC resynchronization.
    pub manifest_frames_skipped: usize,
    /// `*.tmp` debris files swept.
    pub temps_deleted: usize,
    /// Added-but-unsealed files that verified and were sealed.
    pub sealed_rolled_forward: Vec<u64>,
    /// Added-but-unsealed files that failed verification and were
    /// deleted (their data was never committed).
    pub uncommitted_deleted: Vec<u64>,
    /// Pending compactions whose output verified and at least one input
    /// was already gone: committed at recovery.
    pub compactions_rolled_forward: Vec<u64>,
    /// Pending compactions rolled back: output deleted, inputs kept.
    pub compactions_rolled_back: Vec<u64>,
    /// Unknown on-disk files that verified and were adopted as live.
    pub orphans_adopted: Vec<u64>,
    /// On-disk files the log had already retired; deleted.
    pub leftovers_deleted: Vec<u64>,
    /// Files quarantined this open.
    pub quarantined: Vec<QuarantinedFile>,
    /// True when the manifest was rewritten (torn tail or any of the
    /// above changed the state it must describe).
    pub manifest_rewritten: bool,
}

impl RecoveryReport {
    /// True when recovery changed anything beyond replaying the log.
    pub fn acted(&self) -> bool {
        self.torn_tail_truncated
            || self.manifest_frames_skipped > 0
            || self.temps_deleted > 0
            || !self.sealed_rolled_forward.is_empty()
            || !self.uncommitted_deleted.is_empty()
            || !self.compactions_rolled_forward.is_empty()
            || !self.compactions_rolled_back.is_empty()
            || !self.orphans_adopted.is_empty()
            || !self.leftovers_deleted.is_empty()
            || !self.quarantined.is_empty()
    }
}

/// Per-file row of [`Store::status`].
#[derive(Debug, Clone)]
pub struct FileStatus {
    /// File id.
    pub id: u64,
    /// Read-order key.
    pub order: u64,
    /// Values in the file.
    pub records: u64,
    /// On-disk size in bytes (0 when unreadable).
    pub bytes: u64,
}

/// Snapshot of a store's shape for operators.
#[derive(Debug, Clone)]
pub struct StoreStatus {
    /// Live files in read order.
    pub files: Vec<FileStatus>,
    /// Quarantined files.
    pub quarantined: Vec<QuarantinedFile>,
    /// Series buffered but not yet sealed.
    pub active_series: usize,
    /// Values buffered but not yet sealed.
    pub active_values: usize,
    /// Records in the manifest log.
    pub manifest_records: usize,
    /// Next file id to be allocated.
    pub next_id: u64,
}

/// Result of a salvage-aware series scan across the whole store.
#[derive(Debug, Clone, Default)]
pub struct SeriesScan {
    /// Values recovered from live files, in `(order, id)` file order.
    pub values: Vec<i64>,
    /// Values additionally salvaged from quarantined files.
    pub quarantined: Vec<i64>,
    /// Chunks that could not be recovered anywhere.
    pub skipped: Vec<SkippedChunk>,
}

/// A directory of TsFiles under a durable manifest.
pub struct Store {
    dir: PathBuf,
    opts: StoreOptions,
    log: Vec<Record>,
    live: BTreeMap<u64, LiveFile>,
    quarantine: Vec<QuarantinedFile>,
    active: BTreeMap<String, Vec<i64>>,
    active_values: usize,
    next_id: u64,
    schedule: CrashSchedule,
}

/// Parses `NNNNNN.tsf` into its id.
fn parse_file_id(name: &str) -> Option<u64> {
    let stem = name.strip_suffix(DATA_SUFFIX)?;
    if stem.is_empty() || !stem.bytes().all(|b| b.is_ascii_digit()) || stem.len() > 19 {
        return None;
    }
    stem.parse().ok()
}

/// Writes `bytes` to `path` via temp file, fsync, and atomic rename.
#[expect(
    clippy::disallowed_methods,
    reason = "the store's one durable write: the temp file is fsynced, then renamed over `path`"
)]
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp = path.with_extension("tmp");
    let mut f = fs::File::create(&tmp).map_err(|e| io_err(&tmp, e))?;
    f.write_all(bytes).map_err(|e| io_err(&tmp, e))?;
    f.sync_all().map_err(|e| io_err(&tmp, e))?;
    fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
    Ok(())
}

/// Appends `bytes` to an existing file and fsyncs. Used only for the
/// manifest: an append that tears costs at most the un-synced suffix,
/// never an already-durable prefix.
fn append_fsync(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let mut f = fs::OpenOptions::new()
        .append(true)
        .open(path)
        .map_err(|e| io_err(path, e))?;
    f.write_all(bytes).map_err(|e| io_err(path, e))?;
    f.sync_all().map_err(|e| io_err(path, e))?;
    Ok(())
}

/// Full strict verification of a data file: envelope, footer CRC, and
/// every chunk payload CRC ([`TsFileReader::verify_chunks`]). Returns the
/// total value count, or `None` on any damage (including unreadable
/// bytes).
fn verify_bytes(bytes: &[u8]) -> Option<u64> {
    TsFileReader::open(bytes).ok()?.verify_chunks().ok()
}

/// Appends one file's values of a series to what earlier files gave,
/// taking the vector over when it is the first, so a series held in one
/// file is never copied.
fn append_values(out: &mut Vec<i64>, values: Vec<i64>) {
    if out.is_empty() {
        *out = values;
    } else {
        out.extend_from_slice(&values);
    }
}

/// The store's one strict per-file series read, under both
/// [`Store::read_series`] and [`Store::compact`]: appends `reader`'s values
/// of `name` to `out` ([`append_values`]). A file without the series adds
/// nothing; any other error is returned.
fn append_file_series(
    reader: &TsFileReader<'_>,
    name: &str,
    out: &mut Vec<i64>,
) -> Result<(), StoreError> {
    match reader.read_ints(name) {
        Ok(values) => append_values(out, values),
        Err(TsFileError::NoSuchSeries(_)) => {}
        Err(e) => return Err(e.into()),
    }
    Ok(())
}

/// Best-effort salvage census of a damaged file: recoverable integer
/// values and skipped chunks.
fn salvage_summary(bytes: &[u8]) -> (u64, usize) {
    let (reader, report) = TsFileReader::open_salvage(bytes);
    let mut values = 0u64;
    let mut skipped = report.skipped.len();
    let names: Vec<String> = reader.series().iter().map(|i| i.name.clone()).collect();
    for name in names {
        if let Ok(out) = reader.read_ints_salvage(&name) {
            values += out.values.len() as u64;
            skipped += out.skipped.len();
        }
    }
    (values, skipped)
}

impl Store {
    /// Creates a new, empty store in `dir` (created if absent).
    pub fn create(dir: impl AsRef<Path>, opts: StoreOptions) -> Result<Store, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| io_err(&dir, e))?;
        let mpath = dir.join(manifest::MANIFEST_FILE);
        if mpath.exists() {
            return Err(StoreError::AlreadyExists(dir));
        }
        let mut store = Store {
            dir,
            opts,
            log: Vec::new(),
            live: BTreeMap::new(),
            quarantine: Vec::new(),
            active: BTreeMap::new(),
            active_values: 0,
            next_id: 0,
            schedule: CrashSchedule::disarmed(),
        };
        store.durable_write(&mpath, manifest::encode(&[]))?;
        Ok(store)
    }

    /// Opens an existing store, running full recovery: manifest replay
    /// with torn-tail truncation, directory cross-check, interrupted
    /// operation roll-forward/back, orphan adoption, and quarantine.
    pub fn open(
        dir: impl AsRef<Path>,
        opts: StoreOptions,
    ) -> Result<(Store, RecoveryReport), StoreError> {
        Self::open_with_schedule(dir, opts, CrashSchedule::disarmed())
    }

    /// [`open`](Self::open) with a crash schedule armed from the first
    /// recovery write onward — recovery itself is crash-consistent.
    pub fn open_with_schedule(
        dir: impl AsRef<Path>,
        opts: StoreOptions,
        schedule: CrashSchedule,
    ) -> Result<(Store, RecoveryReport), StoreError> {
        let _span = obs::span("store.open_recovery");
        let dir = dir.as_ref().to_path_buf();
        let mpath = dir.join(manifest::MANIFEST_FILE);
        let bytes = match fs::read(&mpath) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(StoreError::NotAStore(dir));
            }
            Err(e) => return Err(io_err(&mpath, e)),
        };
        let decoded = manifest::decode(&bytes);
        let state = manifest::replay(&decoded.records);
        let mut store = Store {
            dir,
            opts,
            log: decoded.records,
            live: BTreeMap::new(),
            quarantine: Vec::new(),
            active: BTreeMap::new(),
            active_values: 0,
            next_id: 0,
            schedule,
        };
        let report = store.recover(state, decoded.torn, decoded.skipped_frames)?;
        Ok((store, report))
    }

    /// Replaces the crash schedule (arms or disarms fault injection).
    pub fn set_schedule(&mut self, schedule: CrashSchedule) {
        self.schedule = schedule;
    }

    /// True once an armed schedule has fired; the handle is then dead.
    pub fn crashed(&self) -> bool {
        self.schedule.crashed()
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The options the store was opened with.
    pub fn options(&self) -> &StoreOptions {
        &self.opts
    }

    /// Live files in read order (`(order, id)` ascending).
    pub fn live_files(&self) -> Vec<LiveFile> {
        let mut files: Vec<LiveFile> = self.live.values().copied().collect();
        files.sort_by_key(|f| (f.order, f.id));
        files
    }

    /// Files quarantined by the last recovery.
    pub fn quarantine(&self) -> &[QuarantinedFile] {
        &self.quarantine
    }

    /// On-disk path of a data file id.
    pub fn path_for(&self, id: u64) -> PathBuf {
        self.dir.join(format!("{id:06}{DATA_SUFFIX}"))
    }

    /// Reads a data file's bytes whole.
    fn read_file(&self, id: u64) -> Result<Vec<u8>, StoreError> {
        let path = self.path_for(id);
        fs::read(&path).map_err(|e| io_err(&path, e))
    }

    fn fail_if_crashed(&self) -> Result<(), StoreError> {
        if self.schedule.crashed() {
            return Err(StoreError::Crashed);
        }
        Ok(())
    }

    /// Routes one whole-file durable write through the crash schedule,
    /// then lands the (possibly torn) bytes via [`write_atomic`]. Torn
    /// bytes land at the final path on purpose: the simulation covers
    /// filesystems whose rename is not atomic under power loss, which
    /// is exactly what salvage recovery must absorb.
    fn durable_write(&mut self, path: &Path, bytes: Vec<u8>) -> Result<(), StoreError> {
        let mut buf = bytes;
        let outcome = self.schedule.on_write(&mut buf);
        if outcome.persists() {
            write_atomic(path, &buf)?;
        }
        if outcome.crashed() {
            return Err(StoreError::Crashed);
        }
        Ok(())
    }

    /// Appends one record to the durable manifest (and the in-memory
    /// log). The fsynced append is the atomic commit unit: a tear costs
    /// at most this frame, never earlier records.
    fn append_manifest(&mut self, record: Record) -> Result<(), StoreError> {
        let mut frame = Vec::new();
        manifest::append_record(&mut frame, &record);
        self.log.push(record);
        let outcome = self.schedule.on_write(&mut frame);
        if outcome.persists() {
            append_fsync(&self.dir.join(manifest::MANIFEST_FILE), &frame)?;
            obs::trail::emit(obs::trail::Event::ManifestCommit {
                records: self.log.len() as u64,
                bytes: frame.len() as u64,
            });
        }
        if outcome.crashed() {
            return Err(StoreError::Crashed);
        }
        Ok(())
    }

    /// Rewrites the manifest wholesale (recovery normalization).
    fn rewrite_manifest(&mut self, records: Vec<Record>) -> Result<(), StoreError> {
        let bytes = manifest::encode(&records);
        let n = records.len() as u64;
        let len = bytes.len() as u64;
        self.log = records;
        self.durable_write(&self.dir.join(manifest::MANIFEST_FILE), bytes)?;
        obs::trail::emit(obs::trail::Event::ManifestCommit {
            records: n,
            bytes: len,
        });
        Ok(())
    }

    /// Deletes one data file through the crash schedule (a delete is a
    /// durable mutation too). Missing files are fine — deletes must be
    /// idempotent for recovery to retry them.
    fn remove_file(&mut self, id: u64) -> Result<(), StoreError> {
        let mut empty = Vec::new();
        let outcome = self.schedule.on_write(&mut empty);
        if outcome.persists() {
            let path = self.path_for(id);
            match fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(io_err(&path, e)),
            }
        }
        if outcome.crashed() {
            return Err(StoreError::Crashed);
        }
        Ok(())
    }

    /// Buffers `values` onto `series`; seals a new data file when the
    /// rotation threshold is reached. Returns the sealed id, if any.
    pub fn append(&mut self, series: &str, values: &[i64]) -> Result<Option<u64>, StoreError> {
        self.fail_if_crashed()?;
        self.active
            .entry(series.to_string())
            .or_default()
            .extend_from_slice(values);
        self.active_values += values.len();
        if self.active_values >= self.opts.rotate_records {
            self.flush()
        } else {
            Ok(None)
        }
    }

    /// Seals the active buffer into a new data file. The commit point
    /// is the `FileSealed` manifest record: crash before it and the
    /// buffered values were never committed; crash after and they are
    /// readable on reopen. Returns the new file id, or `None` when the
    /// buffer was empty.
    pub fn flush(&mut self) -> Result<Option<u64>, StoreError> {
        self.fail_if_crashed()?;
        if self.active.is_empty() {
            return Ok(None);
        }
        let id = self.next_id;
        self.next_id += 1;
        self.append_manifest(Record::FileAdded { id, order: id })?;
        let mut writer = TsFileWriter::new();
        let mut total = 0u64;
        for (name, values) in &self.active {
            writer.add_int_series_parallel(name, values, self.opts.encoding, self.opts.threads)?;
            total += values.len() as u64;
        }
        let bytes = writer.finish();
        self.durable_write(&self.path_for(id), bytes)?;
        self.append_manifest(Record::FileSealed { id, records: total })?;
        self.live.insert(
            id,
            LiveFile {
                id,
                order: id,
                records: total,
            },
        );
        self.active.clear();
        self.active_values = 0;
        FILES_SEALED.inc();
        Ok(Some(id))
    }

    /// Merges all small sealed files into one.
    ///
    /// Each candidate file is read and opened once. Then the series are
    /// merged one at a time, in name order: a series' values are gathered
    /// from every input in `(order, id)` file order through the same
    /// per-file read as [`read_series`](Self::read_series), encoded through
    /// the parallel encode path, and dropped before the next series starts.
    /// So compaction holds at most the inputs' file bytes, the output file
    /// under construction and one series' values.
    ///
    /// The output holds every input series once, in name order, each with
    /// its values concatenated in file order, and the encoder is
    /// deterministic per block; which series is in memory at a time does
    /// not change a byte. While the input chunks of a series hold whole
    /// blocks, the solver sees the very blocks it solved at flush time and
    /// writes the same bytes for them; a chunk of any other length shifts
    /// the block boundaries after it, and those blocks are solved afresh.
    /// What the merge saves is per-file and per-chunk overhead (headers,
    /// footers, partial last blocks), not better thresholds.
    ///
    /// Reading and encoding come before the begin/commit manifest
    /// protocol, so a read error or an encode error
    /// ([`TsFileError::Encode`]) returns before `CompactionBegin` and
    /// leaves the manifest as it was. From `CompactionBegin` on, a crash
    /// anywhere leaves either the old files or the new file live, never
    /// both, never neither. Returns the output id, or `None` when fewer
    /// than `compact_min_inputs` candidates exist.
    pub fn compact(&mut self) -> Result<Option<u64>, StoreError> {
        self.fail_if_crashed()?;
        let _span = obs::span("store.compact");
        let mut candidates: Vec<LiveFile> = self
            .live
            .values()
            .filter(|f| f.records <= self.opts.compact_small_records)
            .copied()
            .collect();
        candidates.sort_by_key(|f| (f.order, f.id));
        if candidates.len() < self.opts.compact_min_inputs {
            return Ok(None);
        }
        let (bytes, total) = self.merge(&candidates)?;
        let min_order = candidates.first().map_or(u64::MAX, |f| f.order);
        let inputs: Vec<u64> = candidates.iter().map(|f| f.id).collect();
        let output = self.next_id;
        self.next_id += 1;
        self.append_manifest(Record::CompactionBegin {
            inputs: inputs.clone(),
            output,
        })?;
        obs::trail::emit(obs::trail::Event::CompactionPhase {
            phase: "begin",
            inputs: inputs.len() as u64,
            output,
        });
        self.durable_write(&self.path_for(output), bytes)?;
        self.append_manifest(Record::CompactionCommit {
            inputs: inputs.clone(),
            output,
        })?;
        obs::trail::emit(obs::trail::Event::CompactionPhase {
            phase: "commit",
            inputs: inputs.len() as u64,
            output,
        });
        for id in &inputs {
            self.live.remove(id);
        }
        self.live.insert(
            output,
            LiveFile {
                id: output,
                order: min_order,
                records: total,
            },
        );
        COMPACTIONS.inc();
        // Input deletion strictly follows the durable commit record;
        // each delete is its own crash point and recovery re-deletes
        // any leftover (the log retired those ids).
        for id in &inputs {
            self.remove_file(*id)?;
        }
        Ok(Some(output))
    }

    /// Compaction's merge, a series at a time (see [`compact`](Self::compact)):
    /// returns the output file's bytes and its value count. The inputs'
    /// bytes are dropped on return.
    fn merge(&self, inputs: &[LiveFile]) -> Result<(Vec<u8>, u64), StoreError> {
        let files = inputs
            .iter()
            .map(|f| self.read_file(f.id))
            .collect::<Result<Vec<_>, _>>()?;
        let readers = files
            .iter()
            .map(|bytes| TsFileReader::open(bytes))
            .collect::<Result<Vec<_>, _>>()?;
        let names: BTreeSet<&str> = readers
            .iter()
            .flat_map(|r| r.series().iter().map(|i| i.name.as_str()))
            .collect();
        let mut writer = TsFileWriter::new();
        let mut total = 0u64;
        for name in names {
            let mut values = Vec::new();
            for reader in &readers {
                append_file_series(reader, name, &mut values)?;
            }
            writer.add_int_series_parallel(name, &values, self.opts.encoding, self.opts.threads)?;
            total += values.len() as u64;
        }
        Ok((writer.finish(), total))
    }

    /// Drops a live file by retention policy. Returns false when the id
    /// is not live.
    pub fn retention_delete(&mut self, id: u64) -> Result<bool, StoreError> {
        self.fail_if_crashed()?;
        if !self.live.contains_key(&id) {
            return Ok(false);
        }
        self.append_manifest(Record::RetentionDelete { id })?;
        self.live.remove(&id);
        self.remove_file(id)?;
        Ok(true)
    }

    /// Reads one series strictly across all live files in read order.
    /// Unsealed (buffered) values are not included — only committed
    /// data is visible to reads.
    pub fn read_series(&self, name: &str) -> Result<Vec<i64>, StoreError> {
        let mut out = Vec::new();
        for f in self.live_files() {
            let bytes = self.read_file(f.id)?;
            append_file_series(&TsFileReader::open(&bytes)?, name, &mut out)?;
        }
        Ok(out)
    }

    /// Salvage-aware scan of one series: live files first (tolerating
    /// chunk damage that appeared after recovery), then whatever the
    /// quarantine still yields.
    pub fn scan_series(&self, name: &str) -> Result<SeriesScan, StoreError> {
        let mut scan = SeriesScan::default();
        for f in self.live_files() {
            let bytes = self.read_file(f.id)?;
            let (reader, report) = TsFileReader::open_salvage(&bytes);
            scan.skipped.extend(report.skipped);
            match reader.read_ints_salvage(name) {
                Ok(out) => {
                    append_values(&mut scan.values, out.values);
                    scan.skipped.extend(out.skipped);
                }
                Err(TsFileError::NoSuchSeries(_)) => {}
                Err(e) => return Err(e.into()),
            }
        }
        for q in &self.quarantine {
            let path = self.path_for(q.id);
            let bytes = match fs::read(&path) {
                Ok(b) => b,
                Err(_) => continue, // Missing quarantine has no bytes.
            };
            let (reader, report) = TsFileReader::open_salvage(&bytes);
            scan.skipped.extend(report.skipped);
            if let Ok(out) = reader.read_ints_salvage(name) {
                append_values(&mut scan.quarantined, out.values);
                scan.skipped.extend(out.skipped);
            }
        }
        Ok(scan)
    }

    /// Names of every series across live files and the active buffer.
    pub fn series_names(&self) -> Result<Vec<String>, StoreError> {
        let mut names: Vec<String> = Vec::new();
        for f in self.live_files() {
            let bytes = self.read_file(f.id)?;
            let reader = TsFileReader::open(&bytes)?;
            for info in reader.series() {
                if !names.contains(&info.name) {
                    names.push(info.name.clone());
                }
            }
        }
        for name in self.active.keys() {
            if !names.contains(name) {
                names.push(name.clone());
            }
        }
        names.sort();
        Ok(names)
    }

    /// Operator-facing snapshot of the store's shape.
    pub fn status(&self) -> StoreStatus {
        let files = self
            .live_files()
            .into_iter()
            .map(|f| FileStatus {
                id: f.id,
                order: f.order,
                records: f.records,
                bytes: fs::metadata(self.path_for(f.id))
                    .map(|m| m.len())
                    .unwrap_or(0),
            })
            .collect();
        StoreStatus {
            files,
            quarantined: self.quarantine.clone(),
            active_series: self.active.len(),
            active_values: self.active_values,
            manifest_records: self.log.len(),
            next_id: self.next_id,
        }
    }

    /// The recovery state machine; see the module docs for the rules.
    fn recover(
        &mut self,
        mut state: ReplayState,
        torn: bool,
        skipped_frames: usize,
    ) -> Result<RecoveryReport, StoreError> {
        let mut report = RecoveryReport {
            replayed_records: self.log.len(),
            torn_tail_truncated: torn,
            manifest_frames_skipped: skipped_frames,
            ..RecoveryReport::default()
        };
        let mut dirty = torn || skipped_frames > 0;

        // Directory census; sweep atomic-write debris.
        let mut unclaimed: BTreeMap<u64, PathBuf> = BTreeMap::new();
        let entries = fs::read_dir(&self.dir).map_err(|e| io_err(&self.dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err(&self.dir, e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if name.ends_with(TMP_SUFFIX) {
                if fs::remove_file(entry.path()).is_ok() {
                    report.temps_deleted += 1;
                }
                continue;
            }
            if let Some(id) = parse_file_id(name) {
                unclaimed.insert(id, entry.path());
            }
        }
        for &id in unclaimed.keys() {
            state.next_id = state.next_id.max(id.saturating_add(1));
        }

        // Interrupted compaction: roll forward only when the output is
        // fully verifiable AND an input is already gone — deletion
        // strictly follows the commit record, so a missing input proves
        // the commit happened even if its record was lost. Otherwise
        // roll back: the inputs still hold everything.
        if let Some(pending) = state.pending.take() {
            dirty = true;
            let output_ok = match unclaimed.get(&pending.output) {
                Some(path) => fs::read(path).ok().and_then(|b| verify_bytes(&b)).is_some(),
                None => false,
            };
            let input_missing = pending.inputs.iter().any(|id| !unclaimed.contains_key(id));
            if output_ok && input_missing {
                state.apply_commit(&pending.inputs, pending.output);
                report.compactions_rolled_forward.push(pending.output);
                obs::trail::emit(obs::trail::Event::CompactionPhase {
                    phase: "recover-commit",
                    inputs: pending.inputs.len() as u64,
                    output: pending.output,
                });
            } else {
                if unclaimed.remove(&pending.output).is_some() {
                    self.remove_file(pending.output)?;
                }
                report.compactions_rolled_back.push(pending.output);
                obs::trail::emit(obs::trail::Event::CompactionPhase {
                    phase: "recover-abort",
                    inputs: pending.inputs.len() as u64,
                    output: pending.output,
                });
            }
        }

        // Added-but-unsealed files: seal when fully verifiable, else
        // delete — their values were never committed. A file the log
        // later retired (its seal record was lost but a compaction
        // commit covering it survived) must NOT come back: its values
        // already live in the compaction output.
        let added: Vec<(u64, u64)> = state
            .added
            .iter()
            .map(|(&id, &order)| (id, order))
            .collect();
        state.added.clear();
        for (id, order) in added {
            dirty = true;
            if state.retired.contains(&id) {
                if unclaimed.remove(&id).is_some() {
                    self.remove_file(id)?;
                    report.leftovers_deleted.push(id);
                }
                continue;
            }
            let verified = unclaimed
                .get(&id)
                .and_then(|path| fs::read(path).ok())
                .and_then(|b| verify_bytes(&b));
            match verified {
                Some(records) => {
                    state.live.insert(id, LiveFile { id, order, records });
                    report.sealed_rolled_forward.push(id);
                }
                None => {
                    if unclaimed.remove(&id).is_some() {
                        self.remove_file(id)?;
                    }
                    report.uncommitted_deleted.push(id);
                }
            }
        }

        // Cross-check every live file against the directory.
        let live_ids: Vec<u64> = state.live.keys().copied().collect();
        for id in live_ids {
            match unclaimed.remove(&id) {
                None => {
                    state.live.remove(&id);
                    dirty = true;
                    report.quarantined.push(QuarantinedFile {
                        id,
                        reason: QuarantineReason::Missing,
                        recovered_values: 0,
                        skipped_chunks: 0,
                    });
                }
                Some(path) => {
                    let bytes = fs::read(&path).map_err(|e| io_err(&path, e))?;
                    if verify_bytes(&bytes).is_none() {
                        let (recovered_values, skipped_chunks) = salvage_summary(&bytes);
                        state.live.remove(&id);
                        dirty = true;
                        report.quarantined.push(QuarantinedFile {
                            id,
                            reason: QuarantineReason::Damaged,
                            recovered_values,
                            skipped_chunks,
                        });
                    }
                }
            }
        }

        // Remaining on-disk files: committed-dead leftovers are
        // deletion debt; unknown files are adopted when intact, else
        // quarantined (kept on disk for salvage).
        let leftover: Vec<u64> = unclaimed.keys().copied().collect();
        for id in leftover {
            if state.retired.contains(&id) {
                unclaimed.remove(&id);
                self.remove_file(id)?;
                report.leftovers_deleted.push(id);
                dirty = true;
                continue;
            }
            let Some(path) = unclaimed.remove(&id) else {
                continue;
            };
            let bytes = fs::read(&path).map_err(|e| io_err(&path, e))?;
            match verify_bytes(&bytes) {
                Some(records) => {
                    state.live.insert(
                        id,
                        LiveFile {
                            id,
                            order: id,
                            records,
                        },
                    );
                    report.orphans_adopted.push(id);
                    dirty = true;
                }
                None => {
                    let (recovered_values, skipped_chunks) = salvage_summary(&bytes);
                    report.quarantined.push(QuarantinedFile {
                        id,
                        reason: QuarantineReason::Orphaned,
                        recovered_values,
                        skipped_chunks,
                    });
                }
            }
        }

        self.live = state.live.clone();
        self.next_id = state.next_id;
        self.quarantine = report.quarantined.clone();
        if torn {
            TORN_TAIL_TRUNCATED.inc();
        }
        if report.acted() {
            RECOVERIES.inc();
        }
        QUARANTINED.add(self.quarantine.len() as u64);
        if dirty {
            self.rewrite_manifest(manifest::normalized_log(&state))?;
            report.manifest_rewritten = true;
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faultsim::{CrashPoint, CrashTear};

    fn test_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bos_store_test_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Rewrites a store file in place, as a crash or a bad disk would.
    #[expect(
        clippy::disallowed_methods,
        reason = "these tests damage store files on purpose"
    )]
    fn overwrite(path: &Path, bytes: &[u8]) {
        fs::write(path, bytes).expect("overwrite");
    }

    fn small_opts() -> StoreOptions {
        StoreOptions {
            rotate_records: 64,
            compact_min_inputs: 2,
            compact_small_records: 1 << 20,
            threads: 2,
            ..StoreOptions::default()
        }
    }

    #[test]
    fn seal_reopen_roundtrips_committed_values() {
        let dir = test_dir("seal_reopen");
        let mut store = Store::create(&dir, small_opts()).expect("create");
        let values: Vec<i64> = (0..200).collect();
        store.append("s", &values).expect("append");
        store.flush().expect("flush");
        drop(store);
        let (store, report) = Store::open(&dir, small_opts()).expect("open");
        assert!(!report.acted(), "clean reopen must not act: {report:?}");
        assert_eq!(store.read_series("s").expect("read"), values);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_seals_at_threshold_and_preserves_order() {
        let dir = test_dir("rotation");
        let mut store = Store::create(&dir, small_opts()).expect("create");
        let mut expect = Vec::new();
        for batch in 0..10i64 {
            let values: Vec<i64> = (batch * 40..batch * 40 + 40).collect();
            expect.extend_from_slice(&values);
            store.append("s", &values).expect("append");
        }
        store.flush().expect("flush");
        assert!(store.live_files().len() >= 2, "rotation must split files");
        assert_eq!(store.read_series("s").expect("read"), expect);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_during_seal_loses_only_uncommitted_values() {
        // Crash points 0..6 cover FileAdded append, the data-file
        // write, and the FileSealed append, with different tears.
        for (after, tear) in [
            (0, CrashTear::Truncate),
            (0, CrashTear::Before),
            (1, CrashTear::TornTail { max_tail: 16 }),
            (1, CrashTear::Before),
            (2, CrashTear::Truncate),
            (2, CrashTear::After),
        ] {
            let dir = test_dir(&format!("crash_seal_{after}_{}", tear.label()));
            let mut store = Store::create(&dir, small_opts()).expect("create");
            store
                .append("s", &(0..100i64).collect::<Vec<_>>())
                .expect("append");
            store.flush().expect("flush first");
            store.set_schedule(CrashSchedule::armed(
                CrashPoint {
                    after_writes: after,
                    tear,
                },
                42,
            ));
            let second: Vec<i64> = (100..200).collect();
            // 100 values crosses the rotation threshold, so the crash
            // fires inside the append-triggered seal.
            let err = store
                .append("s", &second)
                .and_then(|_| store.flush())
                .expect_err("must crash");
            assert!(matches!(err, StoreError::Crashed));
            drop(store);
            let (store, _report) = Store::open(&dir, small_opts()).expect("reopen");
            let read = store.read_series("s").expect("read");
            let first: Vec<i64> = (0..100).collect();
            // The first (committed) file must survive bit-exact; the
            // second either fully rolled forward or vanished.
            assert!(
                read == first || read == (0..200).collect::<Vec<_>>(),
                "crash at {after}/{}: got {} values",
                tear.label(),
                read.len()
            );
            assert!(read.starts_with(&first));
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn interrupted_compaction_never_duplicates_or_loses() {
        // Crash at every write of compact(): Begin append (0), output
        // file (1), Commit append (2), input deletes (3, 4).
        for after in 0..5usize {
            for tear in CrashTear::ALL {
                let dir = test_dir(&format!("crash_compact_{after}_{}", tear.label()));
                let mut store = Store::create(&dir, small_opts()).expect("create");
                for batch in 0..2i64 {
                    let values: Vec<i64> = (batch * 100..batch * 100 + 100).collect();
                    store.append("s", &values).expect("append");
                    store.flush().expect("flush");
                }
                store.set_schedule(CrashSchedule::armed(
                    CrashPoint {
                        after_writes: after,
                        tear,
                    },
                    7 + after as u64,
                ));
                let err = store.compact().expect_err("must crash");
                assert!(matches!(err, StoreError::Crashed));
                drop(store);
                let (store, _report) = Store::open(&dir, small_opts()).expect("reopen");
                let read = store.read_series("s").expect("read");
                assert_eq!(
                    read,
                    (0..200).collect::<Vec<_>>(),
                    "crash at {after}/{} must leave exactly the committed values",
                    tear.label()
                );
                let _ = fs::remove_dir_all(&dir);
            }
        }
    }

    #[test]
    fn completed_compaction_merges_files() {
        let dir = test_dir("compact_ok");
        let mut store = Store::create(&dir, small_opts()).expect("create");
        for batch in 0..3i64 {
            store
                .append("s", &(batch * 50..batch * 50 + 50).collect::<Vec<_>>())
                .expect("append");
            store.flush().expect("flush");
        }
        let out = store.compact().expect("compact").expect("compacted");
        assert_eq!(store.live_files().len(), 1);
        assert_eq!(store.live_files()[0].id, out);
        assert_eq!(
            store.read_series("s").expect("read"),
            (0..150).collect::<Vec<_>>()
        );
        // Reopen: nothing left to do.
        drop(store);
        let (store, report) = Store::open(&dir, small_opts()).expect("reopen");
        assert!(!report.acted(), "{report:?}");
        assert_eq!(
            store.read_series("s").expect("read"),
            (0..150).collect::<Vec<_>>()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_manifest_tail_is_truncated_and_rewritten() {
        let dir = test_dir("torn_tail");
        let mut store = Store::create(&dir, small_opts()).expect("create");
        store
            .append("s", &(0..100i64).collect::<Vec<_>>())
            .expect("append");
        store.flush().expect("flush");
        drop(store);
        let mpath = dir.join(manifest::MANIFEST_FILE);
        let mut bytes = fs::read(&mpath).expect("read manifest");
        bytes.extend_from_slice(b"\x03garbage tail not a frame");
        overwrite(&mpath, &bytes);
        let (store, report) = Store::open(&dir, small_opts()).expect("reopen");
        assert!(report.torn_tail_truncated);
        assert!(report.manifest_rewritten);
        assert_eq!(
            store.read_series("s").expect("read"),
            (0..100).collect::<Vec<_>>()
        );
        // Second open is clean.
        drop(store);
        let (_store, report) = Store::open(&dir, small_opts()).expect("reopen 2");
        assert!(!report.torn_tail_truncated);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lost_manifest_records_recover_via_orphan_adoption() {
        let dir = test_dir("orphans");
        let mut store = Store::create(&dir, small_opts()).expect("create");
        store
            .append("s", &(0..100i64).collect::<Vec<_>>())
            .expect("append");
        store.flush().expect("flush");
        drop(store);
        // Wipe the log back to a bare magic: every data file is now an
        // orphan and must be adopted, not dropped.
        overwrite(&dir.join(manifest::MANIFEST_FILE), manifest::MAGIC);
        let (store, report) = Store::open(&dir, small_opts()).expect("reopen");
        assert_eq!(report.orphans_adopted.len(), 1);
        assert_eq!(
            store.read_series("s").expect("read"),
            (0..100).collect::<Vec<_>>()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_live_file_is_quarantined_with_salvage() {
        let dir = test_dir("quarantine");
        let mut store = Store::create(&dir, small_opts()).expect("create");
        store
            .append("a", &(0..60i64).collect::<Vec<_>>())
            .expect("append a");
        // The second append crosses the rotation threshold and seals
        // both series into one file.
        let id = store
            .append("b", &(1000..1060i64).collect::<Vec<_>>())
            .expect("append b")
            .expect("sealed by rotation");
        drop(store);
        // Flip a byte inside series `a`'s payload.
        let path = dir.join(format!("{id:06}.tsf"));
        let mut bytes = fs::read(&path).expect("read file");
        let reader = TsFileReader::open(&bytes).expect("open");
        let (_, payload) = reader.chunk_ranges("a").expect("ranges");
        let mid = (payload.start + payload.end) / 2;
        drop(reader);
        bytes[mid] ^= 0xFF;
        overwrite(&path, &bytes);
        let (store, report) = Store::open(&dir, small_opts()).expect("reopen");
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].reason, QuarantineReason::Damaged);
        assert!(report.quarantined[0].recovered_values >= 60, "b survives");
        assert!(store.read_series("b").expect("live read").is_empty());
        let scan = store.scan_series("b").expect("scan");
        assert_eq!(scan.quarantined, (1000..1060).collect::<Vec<_>>());
        assert!(
            !scan.skipped.is_empty() || !store.scan_series("a").expect("scan a").skipped.is_empty()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_live_file_is_quarantined_typed() {
        let dir = test_dir("missing");
        let mut store = Store::create(&dir, small_opts()).expect("create");
        store
            .append("s", &(0..50i64).collect::<Vec<_>>())
            .expect("append");
        let id = store.flush().expect("flush").expect("sealed");
        drop(store);
        fs::remove_file(dir.join(format!("{id:06}.tsf"))).expect("unlink");
        let (store, report) = Store::open(&dir, small_opts()).expect("reopen");
        assert_eq!(report.quarantined.len(), 1);
        assert_eq!(report.quarantined[0].reason, QuarantineReason::Missing);
        assert!(store.read_series("s").expect("read").is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_delete_drops_the_file_durably() {
        let dir = test_dir("retention");
        let mut store = Store::create(&dir, small_opts()).expect("create");
        store
            .append("s", &(0..50i64).collect::<Vec<_>>())
            .expect("append");
        let id = store.flush().expect("flush").expect("sealed");
        store
            .append("s", &(50..100i64).collect::<Vec<_>>())
            .expect("append");
        store.flush().expect("flush 2");
        assert!(store.retention_delete(id).expect("delete"));
        assert!(!store.retention_delete(id).expect("idempotent"));
        drop(store);
        let (store, report) = Store::open(&dir, small_opts()).expect("reopen");
        assert!(!report.acted(), "{report:?}");
        assert_eq!(
            store.read_series("s").expect("read"),
            (50..100).collect::<Vec<_>>()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_during_retention_delete_keeps_or_drops_the_whole_file() {
        // Write 0 is the RetentionDelete append, write 1 the file delete.
        // A crash before the record lands keeps both files; once it has
        // landed, reopen finishes the delete.
        for (after, tear, deleted) in [
            (0, CrashTear::Before, false),
            (0, CrashTear::Truncate, false),
            (0, CrashTear::TornTail { max_tail: 16 }, false),
            (0, CrashTear::After, true),
            (1, CrashTear::Before, true),
            (1, CrashTear::After, true),
        ] {
            let dir = test_dir(&format!("crash_retention_{after}_{}", tear.label()));
            let mut store = Store::create(&dir, small_opts()).expect("create");
            store
                .append("s", &(0..50i64).collect::<Vec<_>>())
                .expect("append");
            let id = store.flush().expect("flush").expect("sealed");
            store
                .append("s", &(50..100i64).collect::<Vec<_>>())
                .expect("append");
            store.flush().expect("flush 2");
            let path = store.path_for(id);
            store.set_schedule(CrashSchedule::armed(
                CrashPoint {
                    after_writes: after,
                    tear,
                },
                11 + after as u64,
            ));
            let err = store.retention_delete(id).expect_err("must crash");
            assert!(matches!(err, StoreError::Crashed));
            drop(store);
            let (store, report) = Store::open(&dir, small_opts()).expect("reopen");
            let label = format!("crash at {after}/{}", tear.label());
            assert!(report.quarantined.is_empty(), "{label}: {report:?}");
            assert!(store.quarantine().is_empty(), "{label}");
            let first = if deleted { 50 } else { 0 };
            assert_eq!(
                store.read_series("s").expect("read"),
                (first..100).collect::<Vec<_>>(),
                "{label}"
            );
            assert_eq!(path.exists(), !deleted, "{label}: file on disk");
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn status_and_series_names_reflect_shape() {
        let dir = test_dir("status");
        let mut store = Store::create(&dir, small_opts()).expect("create");
        store
            .append("a", &(0..70i64).collect::<Vec<_>>())
            .expect("append");
        store.append("b", &[1, 2, 3]).expect("append b");
        let st = store.status();
        assert_eq!(st.files.len(), 1, "rotation sealed once");
        assert_eq!(st.active_series, 1);
        assert_eq!(st.active_values, 3);
        assert!(st.files[0].bytes > 0);
        assert_eq!(
            store.series_names().expect("names"),
            vec!["a".to_string(), "b".to_string()]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_file_and_many_file_series_read_back_in_order() {
        // "many" goes into each of three files, "one" only into the
        // second, so its read takes over that file's vector whole.
        let dir = test_dir("read_order");
        let mut store = Store::create(&dir, small_opts()).expect("create");
        let (mut many, mut one) = (Vec::new(), Vec::new());
        for batch in 0..3i64 {
            let values: Vec<i64> = (0..50).map(|i| batch * 1000 + i * i).collect();
            store.append("many", &values).expect("append many");
            many.extend_from_slice(&values);
            if batch == 1 {
                one = (0..30).map(|i| 7 - i * 3).collect();
                store.append("one", &one).expect("append one");
            }
            store.flush().expect("flush");
        }
        assert_eq!(store.live_files().len(), 3);
        for (name, want) in [("many", &many), ("one", &one)] {
            assert_eq!(&store.read_series(name).expect("read"), want, "{name}");
            let scan = store.scan_series(name).expect("scan");
            assert_eq!(&scan.values, want, "{name}");
            assert!(scan.skipped.is_empty() && scan.quarantined.is_empty());
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Chunk verification as recovery did it before `verify_chunks`: each
    /// chunk found by a by-name lookup, its CRC compared here.
    fn verify_bytes_by_name(bytes: &[u8]) -> Option<u64> {
        let reader = TsFileReader::open(bytes).ok()?;
        let mut total = 0u64;
        let names: Vec<(String, u64)> = reader
            .series()
            .iter()
            .map(|i| (i.name.clone(), i.count))
            .collect();
        for (name, count) in names {
            let (_, payload) = reader.chunk_ranges(&name).ok()?;
            let stored = bytes.get(payload.end..payload.end.checked_add(4)?)?;
            let body = bytes.get(payload)?;
            if tsfile::crc::crc32(body).to_le_bytes() != stored {
                return None;
            }
            total = total.saturating_add(count);
        }
        Some(total)
    }

    #[test]
    fn verification_accepts_and_rejects_as_before() {
        let dir = test_dir("verify");
        let opts = StoreOptions {
            rotate_records: 1 << 20,
            ..small_opts()
        };
        let mut store = Store::create(&dir, opts).expect("create");
        for (k, name) in ["a", "b", "c"].into_iter().enumerate() {
            let values: Vec<i64> = (0..40).map(|i| (i * 37 + k as i64) % 101).collect();
            store.append(name, &values).expect("append");
        }
        store.flush().expect("flush");
        let file = store.live_files()[0];
        let bytes = fs::read(store.path_for(file.id)).expect("read");
        assert_eq!(verify_bytes(&bytes), Some(120));
        assert_eq!(verify_bytes_by_name(&bytes), Some(120));
        for cut in 0..bytes.len() {
            let prefix = &bytes[..cut];
            assert_eq!(
                verify_bytes(prefix),
                verify_bytes_by_name(prefix),
                "cut {cut}"
            );
        }
        let mut rejected = 0;
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let verdict = verify_bytes(&flipped);
            assert_eq!(verdict, verify_bytes_by_name(&flipped), "bit {bit}");
            rejected += usize::from(verdict.is_none());
        }
        assert!(rejected > 0, "no flip was rejected");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_mutations_emit_trail_events() {
        let dir = test_dir("trail");
        let mut store = Store::create(&dir, small_opts()).expect("create");
        for batch in 0..2i64 {
            store
                .append("s", &(batch * 70..batch * 70 + 70).collect::<Vec<_>>())
                .expect("append");
        }
        store.flush().expect("flush");
        store.compact().expect("compact");
        let trail = obs::trail::drain();
        let manifest_commits = trail
            .events
            .iter()
            .filter(|e| matches!(e.event, obs::trail::Event::ManifestCommit { .. }))
            .count();
        let phases: Vec<&'static str> = trail
            .events
            .iter()
            .filter_map(|e| match e.event {
                obs::trail::Event::CompactionPhase { phase, .. } => Some(phase),
                _ => None,
            })
            .collect();
        assert!(manifest_commits >= 4, "got {manifest_commits}");
        assert!(
            phases.contains(&"begin") && phases.contains(&"commit"),
            "{phases:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_rejects_non_store_dirs() {
        let dir = test_dir("not_a_store");
        fs::create_dir_all(&dir).expect("mkdir");
        assert!(matches!(
            Store::open(&dir, StoreOptions::default()),
            Err(StoreError::NotAStore(_))
        ));
        let mut store = Store::create(&dir, StoreOptions::default()).expect("create");
        store.flush().expect("empty flush is a no-op");
        assert!(matches!(
            Store::create(&dir, StoreOptions::default()),
            Err(StoreError::AlreadyExists(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_file_id_is_strict() {
        assert_eq!(parse_file_id("000001.tsf"), Some(1));
        assert_eq!(parse_file_id("123456789.tsf"), Some(123456789));
        assert_eq!(parse_file_id("MANIFEST"), None);
        assert_eq!(parse_file_id("000001.tmp"), None);
        assert_eq!(parse_file_id("abc.tsf"), None);
        assert_eq!(parse_file_id(".tsf"), None);
        assert_eq!(parse_file_id("99999999999999999999999.tsf"), None);
    }
}
