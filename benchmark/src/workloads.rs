//! The four workloads, the store calls they time, and the layer replays
//! of the traced run.
//!
//! One closed-loop client thread issues every call; the next call starts
//! when the previous one returns.

use crate::data::Data;
use crate::stats::{highest_supported, percentile};
use crate::trace::{TracedBos, Tracer};
use bos_repro::encodings::ts2diff::Ts2DiffEncoding;
use bos_repro::store::manifest::MANIFEST_FILE;
use bos_repro::store::{Store, StoreOptions};
use bos_repro::tsfile::crc::crc32;
use bos_repro::tsfile::{EncodingChoice, TsFileError, TsFileReader, TsFileWriter};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::fs;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// Encode threads of the store in the untraced run: what
/// `StoreOptions::default()` picks on a 2-core host, so flushes and
/// compactions take the parallel encode path the shipped store takes.
/// Fixed rather than read from the host, so runs on other hosts compare.
pub const STORE_THREADS: usize = 2;

/// Encode threads of the store in the traced run. Replays run on one
/// thread, so the real calls they are set against run on one too;
/// otherwise replayed layer times would not add up to the call's time.
pub const TRACED_STORE_THREADS: usize = 1;

/// Band the coverage of a gated operation kind must fall in. Above it
/// the replay does work the real store call no longer does, so the
/// per-layer numbers would describe the replay rather than the store.
/// Below 1 is the store's own work, which the replay does not mirror:
/// fsyncs, manifest appends, and the directory and manifest checks of a
/// reopen. That is 3–12% of a gated call on a 2-vCPU VM and moves with
/// the host's disk, hence the lower edge's margin.
const COVERAGE_BAND: (f64, f64) = (0.8, 1.1);

/// Summed real time below which a kind's coverage is timer noise and is
/// not gated, ms.
const COVERAGE_MIN_ROOT_MS: f64 = 50.0;

/// TS2DIFF block size of the store's encoding.
const BLOCK: usize = 1024;

/// Rotation of the ingest workload: a flush every 64 Ki values.
const INGEST_ROTATE: usize = 65_536;

/// Rotation of the other workloads: the store default, small files.
const FRAGMENT_ROTATE: usize = 4096;

/// The scans reopen the store once every this many operations.
const REOPEN_EVERY: usize = 25;

/// Store directories live under this directory of the benchmark package,
/// one subdirectory per run, removed when the run ends.
pub const WORK_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/.bosbench-work");

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fresh stores filled by round-robin appends; times the flushes.
    Ingest,
    /// Reads and reopens of a store compacted into one file.
    Scan,
    /// Reads and reopens of the same data left in small files.
    FragmentedScan,
    /// Whole-store compactions of copies of a fragmented store.
    Compact,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Ingest,
        Workload::Scan,
        Workload::FragmentedScan,
        Workload::Compact,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Scan => "scan",
            Workload::FragmentedScan => "fragmented_scan",
            Workload::Compact => "compact",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Root span name of the operation whose latency `op_*` reports.
    fn primary(self) -> &'static str {
        match self {
            Workload::Ingest => "store.flush",
            Workload::Scan | Workload::FragmentedScan => "store.read",
            Workload::Compact => "store.compact",
        }
    }

    /// Percentile (per mille) that `op_tail_ms` reports: the highest
    /// that leaves at least ten samples beyond it in a 10 s run on a
    /// 2-vCPU VM and repeats from run to run there. The scans' reads
    /// would support p99, but over ten seeds it spread 9–17% on `scan`.
    /// On `fragmented_scan` p99, p90 and even p75 spread up to 24%, 24%
    /// and 20% against 13% for the median: slow patches of the host
    /// cover a varying share of a run's syscall-bound reads. A compaction
    /// takes ~0.3 s, too long for more than the median.
    pub fn tail_permille(self) -> u64 {
        match self {
            Workload::Ingest => 950,
            Workload::Scan => 900,
            Workload::FragmentedScan | Workload::Compact => 500,
        }
    }
}

/// Input sizes and loop floors.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Values per series.
    pub rows: usize,
    /// Set-ups per run; `setup_s` is their median. Each builds the
    /// inputs and store and ends with one untimed pass of the timed
    /// operation, so caches and lazy set-up are warm before timing.
    pub setups: usize,
    /// Timed operations (rounds, for ingest and compact) that run even
    /// after `--seconds` has passed.
    pub min_ops: usize,
}

/// The scale the command line runs.
pub const FULL: Scale = Scale {
    rows: 100_000,
    setups: 3,
    min_ops: 1,
};

/// One run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// What to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase, s.
    pub seconds: f64,
    /// Replay operations through the layers and report per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// What a run measured.
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error or a wrong result.
    pub failed: u64,
    /// Description of the first failure.
    pub first_failure: Option<String>,
    /// Metric values by name; see `report` for units.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Run facts, each value already JSON.
    pub provenance: Vec<(&'static str, String)>,
    /// Chrome trace-event JSON of the traced run.
    pub chrome: Option<String>,
}

/// Runs one workload to completion.
pub fn run(cfg: &Config) -> Outcome {
    let mut ctx = match Ctx::new(cfg) {
        Ok(ctx) => ctx,
        Err(e) => {
            return Outcome {
                attempted: 1,
                failed: 1,
                first_failure: Some(format!("cannot make {WORK_ROOT}: {e}")),
                metrics: BTreeMap::new(),
                provenance: Vec::new(),
                chrome: None,
            }
        }
    };
    let result = match cfg.workload {
        Workload::Ingest => ingest_workload(&mut ctx),
        Workload::Scan => scan_workload(&mut ctx, true),
        Workload::FragmentedScan => scan_workload(&mut ctx, false),
        Workload::Compact => compact_workload(&mut ctx),
    };
    if let Err(e) = result {
        ctx.tally.fail(e);
    }
    ctx.gate_coverage();
    ctx.finish()
}

/// Whether an operation kind's coverage lies in [`COVERAGE_BAND`], or was
/// measured over too little real time to tell.
fn coverage_ok(root_ms: f64, coverage: f64) -> bool {
    root_ms < COVERAGE_MIN_ROOT_MS || (COVERAGE_BAND.0..=COVERAGE_BAND.1).contains(&coverage)
}

/// Store directories of one run; removed on drop, whatever the exit path.
struct WorkDir {
    root: PathBuf,
    next: u32,
}

impl WorkDir {
    fn new() -> std::io::Result<WorkDir> {
        static RUNS: AtomicU32 = AtomicU32::new(0);
        let run = RUNS.fetch_add(1, Ordering::Relaxed);
        let root = Path::new(WORK_ROOT).join(format!("{}-{run}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root)?;
        Ok(WorkDir { root, next: 0 })
    }

    fn fresh(&mut self, tag: &str) -> PathBuf {
        self.next += 1;
        self.root.join(format!("{tag}-{}", self.next))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
        // Fails while another run still uses it, which is fine.
        let _ = fs::remove_dir(WORK_ROOT);
    }
}

#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first: Option<String>,
}

impl Tally {
    fn ok(&mut self) {
        self.attempted += 1;
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.first.get_or_insert_with(what);
        }
    }

    fn fail(&mut self, what: String) {
        self.check(false, || what);
    }
}

fn err<E: Display>(what: impl Display) -> impl FnOnce(E) -> String {
    move |e| format!("{what}: {e}")
}

fn ms(t0: Instant, t1: Instant) -> f64 {
    t1.duration_since(t0).as_secs_f64() * 1e3
}

/// A store that rotates at `rotate_records`, compacts only when asked
/// and encodes on `threads` threads.
fn options(rotate_records: usize, threads: usize) -> StoreOptions {
    StoreOptions {
        rotate_records,
        compact_min_inputs: 2,
        compact_small_records: u64::MAX,
        encoding: EncodingChoice::TS2DIFF_BOS,
        threads,
    }
}

/// A store built by set-up, with the data it holds.
struct Built {
    data: Data,
    store: Store,
    dir: PathBuf,
}

struct Ctx<'c> {
    cfg: &'c Config,
    work: WorkDir,
    tracer: Option<Tracer>,
    tally: Tally,
    /// Encode threads of every store the run makes.
    threads: usize,
    setup_s: Vec<f64>,
    /// Latencies of the primary operation, ms.
    op_ms: Vec<f64>,
    /// Values moved by the primary operation, and the time it took, s.
    op_values: u64,
    op_secs: f64,
    reopen_ms: Vec<f64>,
    rounds: usize,
    rotate_records: usize,
    rows: usize,
    /// Shape of the measured store: live files and bits per value.
    files: usize,
    bits_per_value: f64,
}

impl<'c> Ctx<'c> {
    fn new(cfg: &'c Config) -> std::io::Result<Ctx<'c>> {
        Ok(Ctx {
            cfg,
            work: WorkDir::new()?,
            tracer: cfg.trace.then(Tracer::new),
            tally: Tally::default(),
            threads: if cfg.trace {
                TRACED_STORE_THREADS
            } else {
                STORE_THREADS
            },
            setup_s: Vec::new(),
            op_ms: Vec::new(),
            op_values: 0,
            op_secs: 0.0,
            reopen_ms: Vec::new(),
            rounds: 0,
            rotate_records: 0,
            rows: 0,
            files: 0,
            bits_per_value: 0.0,
        })
    }

    /// True while the timed phase should go on after `done` operations.
    fn keep_going(&self, start: Instant, done: usize) -> bool {
        done < self.cfg.scale.min_ops || start.elapsed().as_secs_f64() < self.cfg.seconds
    }

    /// Set-ups to run: one when traced, as `setup_s` is not reported then.
    fn setups(&self) -> usize {
        if self.cfg.trace {
            1
        } else {
            self.cfg.scale.setups.max(1)
        }
    }

    /// Runs set-up once per [`setups`](Self::setups), timing each, and
    /// keeps the last result. Earlier stores stay in the work directory.
    fn setup<T>(&mut self, build: impl Fn(&mut Self) -> Result<T, String>) -> Result<T, String> {
        let mut kept = None;
        for _ in 0..self.setups() {
            // Free the previous inputs first, so peak memory is one set-up's.
            drop(kept.take());
            let t0 = Instant::now();
            kept = Some(build(self)?);
            self.setup_s.push(t0.elapsed().as_secs_f64());
        }
        kept.ok_or_else(|| "no set-up ran".to_string())
    }

    /// Reads every series of `data` back, untimed, and records the shape
    /// of the first store so checked.
    fn verify(&mut self, store: &Store, data: &Data) -> Result<(), String> {
        if self.files == 0 {
            self.measure_store(store)?;
        }
        for (name, _) in &data.series {
            self.read(store, data, name, false)?;
        }
        Ok(())
    }

    fn create(&mut self, dir: &Path, opts: &StoreOptions) -> Result<Store, String> {
        let store = Store::create(dir, opts.clone()).map_err(err("create"))?;
        self.tally.ok();
        Ok(store)
    }

    /// Appends `data` in round-robin batches and flushes the remainder.
    /// With `timed`, every append and flush counts toward throughput and
    /// every call that seals a file is a latency sample.
    fn ingest(&mut self, store: &mut Store, data: &Data, timed: bool) -> Result<(), String> {
        // What the store buffers, mirrored so a flush can be replayed.
        let mut pending: BTreeMap<String, Vec<i64>> = BTreeMap::new();
        for (name, batch) in data.batches() {
            if self.tracer.is_some() {
                pending
                    .entry(name.to_string())
                    .or_default()
                    .extend_from_slice(batch);
            }
            let t0 = Instant::now();
            let r = store.append(name, batch);
            let t1 = Instant::now();
            let sealed = self.flushed(r.map_err(err("append"))?, t0, t1, timed);
            if let Some(id) = sealed {
                self.replay_flush(&store.path_for(id), &mut pending, t0, t1)?;
            }
        }
        let t0 = Instant::now();
        let r = store.flush();
        let t1 = Instant::now();
        if let Some(id) = self.flushed(r.map_err(err("flush"))?, t0, t1, timed) {
            self.replay_flush(&store.path_for(id), &mut pending, t0, t1)?;
        }
        Ok(())
    }

    /// Accounts one append or flush call; returns the id it sealed.
    fn flushed(
        &mut self,
        sealed: Option<u64>,
        t0: Instant,
        t1: Instant,
        timed: bool,
    ) -> Option<u64> {
        self.tally.ok();
        if timed {
            self.op_secs += t1.duration_since(t0).as_secs_f64();
            if sealed.is_some() {
                self.op_ms.push(ms(t0, t1));
            }
        }
        sealed
    }

    /// Replays a flush that wrote `path` from the mirrored buffer.
    fn replay_flush(
        &mut self,
        path: &Path,
        pending: &mut BTreeMap<String, Vec<i64>>,
        t0: Instant,
        t1: Instant,
    ) -> Result<(), String> {
        let sealed = std::mem::take(pending);
        let Some(tracer) = &self.tracer else {
            return Ok(());
        };
        let Some(root) = tracer.after_op("store.flush", t0, t1) else {
            return Ok(());
        };
        let bytes = replay_write(tracer, root, &sealed, self.threads);
        tracer.finish_op();
        let bytes = bytes.map_err(err("flush replay"))?;
        let on_disk = fs::read(path).map_err(err(path.display()))?;
        self.tally.check(bytes == on_disk, || {
            format!("flush replay wrote other bytes than {}", path.display())
        });
        Ok(())
    }

    /// Reads series `name` and checks it against its source.
    fn read(&mut self, store: &Store, data: &Data, name: &str, timed: bool) -> Result<(), String> {
        let t0 = Instant::now();
        let r = store.read_series(name);
        let t1 = Instant::now();
        let values = r.map_err(err(format!("read_series {name}")))?;
        let want = data.get(name).unwrap_or(&[]);
        self.tally.check(values == want, || {
            format!(
                "read_series {name} returned {} values unlike its source",
                values.len()
            )
        });
        if timed {
            self.op_ms.push(ms(t0, t1));
            self.op_secs += t1.duration_since(t0).as_secs_f64();
            self.op_values += values.len() as u64;
        }
        let Some(tracer) = &self.tracer else {
            return Ok(());
        };
        let Some(root) = tracer.after_op("store.read", t0, t1) else {
            return Ok(());
        };
        let replay = replay_read(tracer, root, store, name);
        tracer.finish_op();
        let (replayed, disk, chunk) = replay?;
        tracer.note_read(disk, chunk);
        self.tally.check(replayed == values, || {
            format!("read replay of {name} returned other values")
        });
        Ok(())
    }

    /// Opens the store in `dir`, which must need no recovery.
    fn reopen(&mut self, dir: &Path, opts: &StoreOptions, timed: bool) -> Result<Store, String> {
        let t0 = Instant::now();
        let r = Store::open(dir, opts.clone());
        let t1 = Instant::now();
        let (store, report) = r.map_err(err(format!("open {}", dir.display())))?;
        self.tally.check(!report.acted(), || {
            format!("clean reopen of {} recovered: {report:?}", dir.display())
        });
        if timed {
            self.reopen_ms.push(ms(t0, t1));
        }
        if let Some(tracer) = &self.tracer {
            if let Some(root) = tracer.after_op("store.open", t0, t1) {
                let replay = replay_open(tracer, root, &store);
                tracer.finish_op();
                replay?;
            }
        }
        Ok(store)
    }

    /// Compacts every file of `store` into one.
    fn compact(&mut self, store: &mut Store, timed: bool) -> Result<(), String> {
        let inputs = store.live_files();
        // Compaction deletes its inputs; a replay reads them through
        // hard links made beforehand.
        let replaying = self
            .tracer
            .as_ref()
            .is_some_and(|t| t.next_replayed("store.compact"));
        let side = replaying.then(|| self.work.fresh("compact-inputs"));
        let mut links = Vec::new();
        if let Some(side) = &side {
            fs::create_dir_all(side).map_err(err(side.display()))?;
            for f in &inputs {
                let link = side.join(f.id.to_string());
                fs::hard_link(store.path_for(f.id), &link).map_err(err(link.display()))?;
                links.push(link);
            }
        }
        let t0 = Instant::now();
        let r = store.compact();
        let t1 = Instant::now();
        let output = r.map_err(err("compact"))?;
        let Some(output) = output else {
            return Err(format!(
                "compaction of {} files merged nothing",
                inputs.len()
            ));
        };
        self.tally.check(store.live_files().len() == 1, || {
            format!("compaction left {} files", store.live_files().len())
        });
        if timed {
            self.op_ms.push(ms(t0, t1));
            self.op_secs += t1.duration_since(t0).as_secs_f64();
            self.op_values += inputs.iter().map(|f| f.records).sum::<u64>();
        }
        let Some(tracer) = &self.tracer else {
            return Ok(());
        };
        let Some(root) = tracer.after_op("store.compact", t0, t1) else {
            return Ok(());
        };
        let replay = replay_compact(tracer, root, &links, self.threads);
        tracer.finish_op();
        let bytes = replay?;
        let path = store.path_for(output);
        let on_disk = fs::read(&path).map_err(err(path.display()))?;
        self.tally.check(bytes == on_disk, || {
            format!(
                "compaction replay wrote other bytes than {}",
                path.display()
            )
        });
        if let Some(side) = &side {
            fs::remove_dir_all(side).map_err(err(side.display()))?;
        }
        Ok(())
    }

    /// Records the shape of the store the workload measures.
    fn measure_store(&mut self, store: &Store) -> Result<(), String> {
        let status = store.status();
        let manifest = store.dir().join(MANIFEST_FILE);
        let manifest_bytes = fs::metadata(&manifest)
            .map_err(err(manifest.display()))?
            .len();
        let file_bytes: u64 = status.files.iter().map(|f| f.bytes).sum();
        let values: u64 = status.files.iter().map(|f| f.records).sum();
        self.files = status.files.len();
        self.bits_per_value = (file_bytes + manifest_bytes) as f64 * 8.0 / values.max(1) as f64;
        Ok(())
    }

    /// In the traced run, checks that the replays of the workload's timed
    /// operation and of reopens still cover the real calls; a store that
    /// changed under the replay shows as a failure here.
    fn gate_coverage(&mut self) {
        let Some(tracer) = &self.tracer else {
            return;
        };
        let gated: Vec<(&str, f64, f64)> = tracer.with_kinds(|kinds| {
            [self.cfg.workload.primary(), "store.open"]
                .into_iter()
                .filter_map(|name| kinds.get(name).map(|k| (name, k.root_ms(), k.coverage())))
                .collect()
        });
        for (name, root_ms, coverage) in gated {
            self.tally.check(coverage_ok(root_ms, coverage), || {
                format!(
                    "{name}: replays cover {coverage:.3} of {root_ms:.1} ms of real calls, \
                     outside {COVERAGE_BAND:?}"
                )
            });
        }
    }

    fn finish(self) -> Outcome {
        let cfg = self.cfg;
        let mut metrics = BTreeMap::new();
        let mut provenance = vec![
            ("workload", format!("\"{}\"", cfg.workload.name())),
            ("seed", cfg.seed.to_string()),
            ("seconds", cfg.seconds.to_string()),
            ("trace", cfg.trace.to_string()),
            (
                "available_parallelism",
                std::thread::available_parallelism()
                    .map_or(0, |n| n.get())
                    .to_string(),
            ),
            ("store_threads", self.threads.to_string()),
            ("obs_enabled", obs::enabled().to_string()),
            ("rows_per_series", self.rows.to_string()),
            ("rotate_records", self.rotate_records.to_string()),
            ("store_files", self.files.to_string()),
            ("setups", self.setup_s.len().to_string()),
            ("rounds", self.rounds.to_string()),
            ("op", format!("\"{}\"", cfg.workload.primary())),
            ("op_samples", self.op_ms.len().to_string()),
            ("reopen_samples", self.reopen_ms.len().to_string()),
            ("op_tail_permille", cfg.workload.tail_permille().to_string()),
            (
                "op_highest_supported_permille",
                highest_supported(self.op_ms.len()).map_or("null".into(), |q| q.to_string()),
            ),
            (
                "reopen_highest_supported_permille",
                highest_supported(self.reopen_ms.len()).map_or("null".into(), |q| q.to_string()),
            ),
        ];
        let mut chrome = None;
        match &self.tracer {
            None => {
                let pct = |s: &[f64], q| percentile(s, q).unwrap_or(0.0);
                metrics.insert("setup_s", pct(&self.setup_s, 500));
                metrics.insert(
                    "throughput_mvps",
                    self.op_values as f64 / self.op_secs.max(f64::MIN_POSITIVE) / 1e6,
                );
                metrics.insert("op_p50_ms", pct(&self.op_ms, 500));
                metrics.insert("op_tail_ms", pct(&self.op_ms, cfg.workload.tail_permille()));
                metrics.insert("reopen_p50_ms", pct(&self.reopen_ms, 500));
                metrics.insert("bits_per_value", self.bits_per_value);
                metrics.insert("peak_rss_mb", peak_rss_mb());
            }
            Some(t) => {
                layer_metrics(t, cfg.workload, &mut metrics, &mut provenance);
                chrome = Some(t.chrome_json());
            }
        }
        Outcome {
            attempted: self.tally.attempted,
            failed: self.tally.failed,
            first_failure: self.tally.first.clone(),
            metrics,
            provenance,
            chrome,
        }
    }
}

fn ingest_workload(ctx: &mut Ctx) -> Result<(), String> {
    let (seed, rows) = (ctx.cfg.seed, ctx.cfg.scale.rows);
    (ctx.rows, ctx.rotate_records) = (rows, INGEST_ROTATE);
    let data = ctx.setup(|ctx| {
        let data = Data::generate(seed, rows);
        ingest_round(ctx, &data, false)?;
        Ok(data)
    })?;
    let start = Instant::now();
    while ctx.keep_going(start, ctx.rounds) {
        ingest_round(ctx, &data, true)?;
        ctx.rounds += 1;
    }
    Ok(())
}

/// Fills a fresh store with `data`, reopens it and reads every series back.
fn ingest_round(ctx: &mut Ctx, data: &Data, timed: bool) -> Result<(), String> {
    let opts = options(INGEST_ROTATE, ctx.threads);
    let dir = ctx.work.fresh("ingest");
    let mut store = ctx.create(&dir, &opts)?;
    ctx.ingest(&mut store, data, timed)?;
    if timed {
        ctx.op_values += data.values();
    }
    drop(store);
    let store = ctx.reopen(&dir, &opts, timed)?;
    ctx.verify(&store, data)?;
    drop(store);
    fs::remove_dir_all(&dir).map_err(err(dir.display()))
}

fn scan_workload(ctx: &mut Ctx, compacted: bool) -> Result<(), String> {
    let (seed, rows) = (ctx.cfg.seed, ctx.cfg.scale.rows);
    let opts = options(FRAGMENT_ROTATE, ctx.threads);
    (ctx.rows, ctx.rotate_records) = (rows, FRAGMENT_ROTATE);
    let Built {
        data,
        mut store,
        dir,
    } = ctx.setup(|ctx| {
        let data = Data::generate(seed, rows);
        let dir = ctx.work.fresh("scan");
        let mut store = ctx.create(&dir, &opts)?;
        ctx.ingest(&mut store, &data, false)?;
        if compacted {
            ctx.compact(&mut store, false)?;
        }
        ctx.verify(&store, &data)?;
        Ok(Built { data, store, dir })
    })?;
    let start = Instant::now();
    let (mut ops, mut reads) = (0usize, 0usize);
    while ctx.keep_going(start, ops) {
        ops += 1;
        if ops % REOPEN_EVERY == 0 {
            store = ctx.reopen(&dir, &opts, true)?;
        } else {
            let name = &data.series[reads % data.series.len()].0;
            ctx.read(&store, &data, name, true)?;
            reads += 1;
        }
    }
    ctx.rounds = ops;
    Ok(())
}

fn compact_workload(ctx: &mut Ctx) -> Result<(), String> {
    let (seed, rows) = (ctx.cfg.seed, ctx.cfg.scale.rows);
    (ctx.rows, ctx.rotate_records) = (rows, FRAGMENT_ROTATE);
    let template = ctx.setup(|ctx| {
        let data = Data::generate(seed, rows);
        let dir = ctx.work.fresh("template");
        let mut store = ctx.create(&dir, &options(FRAGMENT_ROTATE, ctx.threads))?;
        ctx.ingest(&mut store, &data, false)?;
        let template = Built { data, store, dir };
        compact_round(ctx, &template, false)?;
        Ok(template)
    })?;
    let start = Instant::now();
    while ctx.keep_going(start, ctx.rounds) {
        compact_round(ctx, &template, true)?;
        ctx.rounds += 1;
    }
    Ok(())
}

/// Compacts a copy of the template store, reopens it and reads every
/// series back.
fn compact_round(ctx: &mut Ctx, template: &Built, timed: bool) -> Result<(), String> {
    let opts = options(FRAGMENT_ROTATE, ctx.threads);
    let dir = ctx.work.fresh("compact");
    copy_dir(&template.dir, &dir)?;
    let mut store = ctx.reopen(&dir, &opts, false)?;
    ctx.compact(&mut store, timed)?;
    drop(store);
    let store = ctx.reopen(&dir, &opts, timed)?;
    ctx.verify(&store, &template.data)?;
    drop(store);
    fs::remove_dir_all(&dir).map_err(err(dir.display()))
}

/// Copies every file of store directory `from` into a new `to`.
fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    fs::create_dir_all(to).map_err(err(to.display()))?;
    for entry in fs::read_dir(from).map_err(err(from.display()))? {
        let entry = entry.map_err(err(from.display()))?;
        let target = to.join(entry.file_name());
        fs::copy(entry.path(), &target).map_err(err(target.display()))?;
    }
    Ok(())
}

/// Replays writing `series` as one TsFile: the whole writer call, then
/// each series' TS2DIFF encode with its BOS solves and packs.
fn replay_write(
    tracer: &Tracer,
    parent: usize,
    series: &BTreeMap<String, Vec<i64>>,
    threads: usize,
) -> Result<Vec<u8>, TsFileError> {
    let write = tracer.begin("tsfile.write", parent);
    let mut writer = TsFileWriter::new();
    for (name, values) in series {
        writer.add_int_series_parallel(name, values, EncodingChoice::TS2DIFF_BOS, threads)?;
    }
    let bytes = writer.finish();
    tracer.end(write);
    for values in series.values() {
        let enc = tracer.begin("encodings.ts2diff_encode", write);
        let mut payload = Vec::new();
        Ts2DiffEncoding::with_block_size(TracedBos::new(tracer, enc), BLOCK)
            .encode(black_box(values), &mut payload);
        black_box(&payload);
        tracer.end(enc);
    }
    Ok(bytes)
}

/// What replaying the read of one data file found.
struct FileReplay {
    disk_bytes: u64,
    chunk_bytes: u64,
    series: Vec<(String, Vec<i64>)>,
}

/// Replays reading one data file: fetch, open, and per series the chunk
/// read with its CRC and TS2DIFF decode. `only` names the one series a
/// store read wants; compaction reads them all.
fn replay_file(
    tracer: &Tracer,
    parent: usize,
    path: &Path,
    only: Option<&str>,
) -> Result<FileReplay, String> {
    let bytes = tracer
        .time("store.fs_read", parent, || fs::read(path))
        .map_err(err(path.display()))?;
    let reader = tracer
        .time("tsfile.open", parent, || TsFileReader::open(&bytes))
        .map_err(err(path.display()))?;
    let names: Vec<String> = match only {
        Some(name) => vec![name.to_string()],
        None => reader.series().iter().map(|i| i.name.clone()).collect(),
    };
    let mut replay = FileReplay {
        disk_bytes: bytes.len() as u64,
        chunk_bytes: 0,
        series: Vec::new(),
    };
    for name in names {
        let read = tracer.begin("tsfile.read_ints", parent);
        let values = reader.read_ints(&name);
        tracer.end(read);
        let values = match values {
            Ok(values) => values,
            Err(TsFileError::NoSuchSeries(_)) => continue,
            Err(e) => return Err(format!("{} {name}: {e}", path.display())),
        };
        let (chunk, payload) = reader.chunk_ranges(&name).map_err(err(path.display()))?;
        replay.chunk_bytes += chunk.len() as u64;
        let payload = bytes
            .get(payload)
            .ok_or_else(|| format!("{} {name}: payload out of range", path.display()))?;
        tracer.time("tsfile.crc", read, || black_box(crc32(payload)));
        let dec = tracer.begin("encodings.ts2diff_decode", read);
        let mut decoded = Vec::with_capacity(values.len());
        let r = Ts2DiffEncoding::with_block_size(TracedBos::new(tracer, dec), BLOCK).decode(
            payload,
            &mut 0,
            &mut decoded,
        );
        tracer.end(dec);
        r.map_err(err(format!("{} {name}", path.display())))?;
        if decoded != values {
            return Err(format!(
                "{} {name}: TS2DIFF replay decoded other values",
                path.display()
            ));
        }
        replay.series.push((name, values));
    }
    Ok(replay)
}

/// Replays `Store::read_series`: every live file in read order.
fn replay_read(
    tracer: &Tracer,
    root: usize,
    store: &Store,
    name: &str,
) -> Result<(Vec<i64>, u64, u64), String> {
    let (mut values, mut disk, mut chunk) = (Vec::new(), 0, 0);
    for f in store.live_files() {
        let replay = replay_file(tracer, root, &store.path_for(f.id), Some(name))?;
        disk += replay.disk_bytes;
        chunk += replay.chunk_bytes;
        for (_, v) in replay.series {
            values.extend_from_slice(&v);
        }
    }
    Ok((values, disk, chunk))
}

/// Replays the verification `Store::open` runs on every live file.
fn replay_open(tracer: &Tracer, root: usize, store: &Store) -> Result<(), String> {
    for f in store.live_files() {
        let path = store.path_for(f.id);
        let bytes = tracer
            .time("store.fs_read", root, || fs::read(&path))
            .map_err(err(path.display()))?;
        let reader = tracer
            .time("tsfile.open", root, || TsFileReader::open(&bytes))
            .map_err(err(path.display()))?;
        for info in reader.series() {
            let (_, payload) = reader
                .chunk_ranges(&info.name)
                .map_err(err(path.display()))?;
            let payload = bytes
                .get(payload)
                .ok_or_else(|| format!("{}: payload out of range", path.display()))?;
            tracer.time("tsfile.crc", root, || black_box(crc32(payload)));
        }
    }
    Ok(())
}

/// Replays `Store::compact`: reads every input, merges series in file
/// order, and writes the merged file.
fn replay_compact(
    tracer: &Tracer,
    root: usize,
    inputs: &[PathBuf],
    threads: usize,
) -> Result<Vec<u8>, String> {
    let mut merged: BTreeMap<String, Vec<i64>> = BTreeMap::new();
    for path in inputs {
        for (name, values) in replay_file(tracer, root, path, None)?.series {
            merged.entry(name).or_default().extend_from_slice(&values);
        }
    }
    replay_write(tracer, root, &merged, threads).map_err(err("compaction replay"))
}

/// Names of the real store calls, which are the roots of the trace.
const ROOTS: [&str; 4] = ["store.flush", "store.open", "store.read", "store.compact"];

fn layer_metrics(
    t: &Tracer,
    workload: Workload,
    metrics: &mut BTreeMap<&'static str, f64>,
    provenance: &mut Vec<(&'static str, String)>,
) {
    let root_ms = t.with_kinds(|kinds| kinds.values().map(|k| k.root_ms()).sum::<f64>());
    let primary = t.with_kinds(|kinds| kinds.get(workload.primary()).map_or(0.0, |k| k.coverage()));
    let solve = t.self_ms("bos.solve");
    let decode = t.self_ms("bos.decode_block");
    let snap = obs::snapshot();
    let prunes = snap.counter("solver.BOS-B.prunes") as f64;
    let candidates = snap.counter("solver.BOS-B.candidates") as f64;
    let overhead = t.with_kinds(|kinds| {
        let k = kinds.get(workload.primary())?;
        Some(percentile(&k.after_replay, 500)? / percentile(&k.after_plain, 500)?)
    });
    let m = [
        ("bos.solve.ms", solve),
        ("bos.solve.share", solve / root_ms.max(f64::MIN_POSITIVE)),
        (
            "bos.solver.prune_ratio",
            prunes / (prunes + candidates).max(1.0),
        ),
        ("bos.pack.ms", t.self_ms("bos.pack")),
        ("bos.decode_block.ms", decode),
        (
            "bos.decode_block.mvps",
            t.decoded_values() as f64 / (decode * 1e3).max(f64::MIN_POSITIVE),
        ),
        (
            "bos.decode.kernel_frac",
            t.kernel_reference_ns() / (decode * 1e6).max(f64::MIN_POSITIVE),
        ),
        (
            "encodings.ts2diff_encode.self_ms",
            t.self_ms("encodings.ts2diff_encode"),
        ),
        (
            "encodings.ts2diff_decode.self_ms",
            t.self_ms("encodings.ts2diff_decode"),
        ),
        ("tsfile.write.self_ms", t.self_ms("tsfile.write")),
        ("tsfile.read_ints.self_ms", t.self_ms("tsfile.read_ints")),
        ("tsfile.open.ms", t.self_ms("tsfile.open")),
        ("tsfile.crc.ms", t.self_ms("tsfile.crc")),
        ("store.fs_read.ms", t.self_ms("store.fs_read")),
        ("store.read_amplification", t.read_amplification()),
        ("store.self_ms", ROOTS.iter().map(|r| t.self_ms(r)).sum()),
        ("trace.coverage", primary),
        ("trace.overhead", overhead.unwrap_or(0.0)),
    ];
    metrics.extend(m);
    let by_kind = t.with_kinds(|kinds| {
        kinds
            .iter()
            .map(|(name, k)| {
                format!(
                    "\"{name}\":{{\"replayed\":{},\"root_ms\":{},\"coverage\":{},\"self_ms\":{}}}",
                    k.replayed,
                    k.root_ms(),
                    k.coverage(),
                    t.self_ms(name),
                )
            })
            .collect::<Vec<_>>()
            .join(",")
    });
    provenance.push(("trace_by_kind", format!("{{{by_kind}}}")));
}

/// Peak resident set (`VmHWM`) of this process, MiB.
fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_outside_the_band_fails_once_measured() {
        assert!(coverage_ok(500.0, 0.95));
        assert!(coverage_ok(500.0, 1.1));
        // A replay doing more than the call, as when the store learns to
        // skip files the replay still reads.
        assert!(!coverage_ok(500.0, 1.4));
        // Store work the replay no longer does.
        assert!(!coverage_ok(500.0, 0.6));
        // Too little real time to tell.
        assert!(coverage_ok(COVERAGE_MIN_ROOT_MS / 2.0, 0.6));
    }
}
