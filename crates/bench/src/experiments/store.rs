//! Crash-consistency sweep: the storage-tier robustness gates.
//!
//! Drives a real on-disk [`store::Store`] through a committed baseline
//! (three sealed files), then arms a deterministic
//! [`faultsim::CrashPoint`] and runs one more append + flush + compact
//! sequence. The schedule kills the store at durable write N — tearing
//! the in-flight bytes per [`CrashTear`] — after which the trial
//! optionally damages the manifest (post-crash fault class), reopens
//! the directory, and checks the recovery gates:
//!
//! * **Zero panics**: every reopen runs under `catch_unwind`.
//! * **Zero committed-then-lost records**: every value sealed before
//!   the crash (plus the crashing flush's values when it returned) is
//!   readable from the live set, bit-exact.
//! * **Zero duplicates**: no value is visible twice — an interrupted
//!   compaction must leave either the inputs or the output live, never
//!   both.
//! * **Seal atomicity**: the crashing flush's values are visible
//!   all-or-nothing, consistently across its series.
//! * **Zero quarantine**: in-protocol crashes always leave a state
//!   recovery can fully resolve; quarantine is reserved for external
//!   damage classes beyond this sweep's model.
//!
//! The post-crash manifest fault classes:
//!
//! * `clean` — reopen the directory exactly as the crash left it.
//! * `torn-tail` — append 1–24 garbage bytes to the manifest (a torn
//!   append exposing unsynced bytes past the last durable record);
//!   recovery must truncate to the last valid record.
//! * `bit-flip` — flip one bit in a cold (non-final) manifest frame;
//!   CRC resynchronization must skip exactly that record and recovery
//!   must rebuild its effect from the directory.
//!
//! Full mode writes the per-class tallies, with p99 recovery latency, and
//! the gates to `target/bench/exp_store.json`. `--quick` (tier-1) runs
//! the 8 × 16 × 3 = 384-trial configuration and writes nothing.

use crate::harness::{Config, Report, Table};
use faultsim::{CrashPoint, CrashSchedule, CrashTear};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;
use store::{manifest, Store, StoreError, StoreOptions};

/// Crash points swept in full mode: every durable write of the
/// append + flush + compact sequence (10 writes) plus two beyond it
/// (no crash fires — clean-completion trials).
const POINTS_FULL: usize = 12;

/// Crash points under `--quick` (tier-1): through the third input
/// deletion of the compaction.
const POINTS_QUICK: usize = 8;

/// Seeds per (crash point, fault class) in full mode.
const SEEDS_FULL: u64 = 32;

/// Seeds per (crash point, fault class) under `--quick`.
const SEEDS_QUICK: u64 = 16;

/// Values appended per series per batch.
const BATCH: usize = 40;

/// Series written by every trial.
const SERIES: [&str; 2] = ["s0", "s1"];

/// Files sealed (committed) before the crashing mutation.
const BASE_FILES: usize = 3;

/// Post-crash manifest damage applied before the reopen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FaultClass {
    /// Reopen exactly what the crash left.
    Clean,
    /// Garbage appended past the last durable manifest record.
    TornTail,
    /// One bit flipped in a cold (non-final) manifest frame.
    BitFlip,
}

impl FaultClass {
    const ALL: [FaultClass; 3] = [FaultClass::Clean, FaultClass::TornTail, FaultClass::BitFlip];

    fn name(self) -> &'static str {
        match self {
            FaultClass::Clean => "clean",
            FaultClass::TornTail => "torn-tail",
            FaultClass::BitFlip => "bit-flip",
        }
    }
}

/// SplitMix64 — tiny deterministic generator for fault placement.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Store policy for the sweep: manual flushes (no rotation), 2-file
/// compaction floor so the 4 sealed files always compact, tiny thread
/// pool to keep 384+ trials cheap.
fn sweep_opts() -> StoreOptions {
    StoreOptions {
        rotate_records: 1 << 30,
        compact_min_inputs: 2,
        threads: 2,
        ..StoreOptions::default()
    }
}

/// What one crash/reopen trial observed.
struct Trial {
    /// The armed crash fired mid-sequence.
    crashed: bool,
    /// Recovery changed something on reopen.
    recovery_acted: bool,
    compactions_rolled_forward: usize,
    compactions_rolled_back: usize,
    sealed_rolled_forward: usize,
    orphans_adopted: usize,
    torn_tail_truncated: bool,
    frames_skipped: usize,
    /// Wall-clock nanoseconds for the reopen (recovery included).
    recovery_ns: u64,
    /// Gate violated by this trial, if any.
    violation: Option<String>,
}

fn violated(msg: String) -> Trial {
    Trial {
        crashed: false,
        recovery_acted: false,
        compactions_rolled_forward: 0,
        compactions_rolled_back: 0,
        sealed_rolled_forward: 0,
        orphans_adopted: 0,
        torn_tail_truncated: false,
        frames_skipped: 0,
        recovery_ns: 0,
        violation: Some(msg),
    }
}

/// One unique batch; values are `(trial << 24) | counter`, so a value
/// appearing twice anywhere is a duplicate by construction.
fn next_batch(trial: u64, counter: &mut u64) -> Vec<i64> {
    (0..BATCH)
        .map(|_| {
            let v = ((trial as i64) << 24) | (*counter as i64);
            *counter += 1;
            v
        })
        .collect()
}

/// Builds the store, crashes it at `point`, applies `class` to the
/// manifest, reopens, and checks every gate.
fn run_trial(base: &Path, trial: u64, point: usize, seed: u64, class: FaultClass) -> Trial {
    let dir = base.join(format!("t{trial}"));
    let _ = std::fs::remove_dir_all(&dir);
    let mut st = Store::create(&dir, sweep_opts()).expect("create trial store");

    // Committed baseline: BASE_FILES sealed files, disarmed schedule.
    let mut counter = 0u64;
    let mut committed: Vec<Vec<i64>> = vec![Vec::new(); SERIES.len()];
    for _ in 0..BASE_FILES {
        for (si, name) in SERIES.iter().enumerate() {
            let batch = next_batch(trial, &mut counter);
            st.append(name, &batch).expect("baseline append");
            committed[si].extend_from_slice(&batch);
        }
        st.flush().expect("baseline flush").expect("baseline seal");
    }

    // Arm the crash and run the sequence under test.
    let tear = CrashTear::ALL[(seed as usize) % CrashTear::ALL.len()];
    st.set_schedule(CrashSchedule::armed(
        CrashPoint {
            after_writes: point,
            tear,
        },
        seed ^ (trial << 8),
    ));
    let last: Vec<Vec<i64>> = SERIES
        .iter()
        .map(|_| next_batch(trial, &mut counter))
        .collect();
    let mut flush_completed = false;
    let result: Result<(), StoreError> = (|| {
        for (si, name) in SERIES.iter().enumerate() {
            st.append(name, &last[si])?;
        }
        st.flush()?;
        flush_completed = true;
        st.compact()?;
        Ok(())
    })();
    let crashed = matches!(result, Err(StoreError::Crashed));
    if let Err(e) = &result {
        if !crashed {
            return violated(format!("mutation failed without a crash: {e}"));
        }
    }
    if flush_completed {
        // The flush returned: its seal record is durable, the batch is
        // committed no matter where the compaction crashed.
        for (si, batch) in last.iter().enumerate() {
            committed[si].extend_from_slice(batch);
        }
    }
    drop(st);

    // Post-crash manifest damage.
    let mpath = dir.join(manifest::MANIFEST_FILE);
    let mut rng = Rng(seed.wrapping_mul(0x517c_c1b7_2722_0a95).wrapping_add(trial));
    match class {
        FaultClass::Clean => {}
        FaultClass::TornTail => {
            let mut bytes = std::fs::read(&mpath).expect("read manifest");
            let n = 1 + (rng.next() % 24) as usize;
            for _ in 0..n {
                bytes.push(rng.next() as u8);
            }
            std::fs::write(&mpath, &bytes).expect("tear manifest");
        }
        FaultClass::BitFlip => {
            let mut bytes = std::fs::read(&mpath).expect("read manifest");
            let out = manifest::decode(&bytes);
            // Flip only cold frames: the final record is the hot tail
            // (covered by the in-protocol tear classes), and the magic
            // is a whole-store loss with no recovery gate.
            if out.records.len() >= 2 {
                let cold_end = manifest::encode(&out.records[..out.records.len() - 1]).len();
                let cold_start = manifest::MAGIC.len();
                if cold_end > cold_start {
                    let off = cold_start + (rng.next() as usize) % (cold_end - cold_start);
                    bytes[off] ^= 1 << (rng.next() % 8);
                    std::fs::write(&mpath, &bytes).expect("flip manifest");
                }
            }
        }
    }

    // Reopen: no panic, no error, gates below.
    let t0 = Instant::now();
    let reopened = catch_unwind(AssertUnwindSafe(|| Store::open(&dir, sweep_opts())));
    let recovery_ns = t0.elapsed().as_nanos() as u64;
    let (st, report) = match reopened {
        Err(_) => return violated("panic during reopen".into()),
        Ok(Err(e)) => return violated(format!("reopen failed: {e}")),
        Ok(Ok(pair)) => pair,
    };

    let mut t = Trial {
        crashed,
        recovery_acted: report.acted(),
        compactions_rolled_forward: report.compactions_rolled_forward.len(),
        compactions_rolled_back: report.compactions_rolled_back.len(),
        sealed_rolled_forward: report.sealed_rolled_forward.len(),
        orphans_adopted: report.orphans_adopted.len(),
        torn_tail_truncated: report.torn_tail_truncated,
        frames_skipped: report.manifest_frames_skipped,
        recovery_ns,
        violation: None,
    };

    if !st.quarantine().is_empty() {
        t.violation = Some(format!("unexpected quarantine: {:?}", st.quarantine()));
        return t;
    }

    // Per-series read-back gates.
    let mut last_batch_seen = Vec::with_capacity(SERIES.len());
    for (si, name) in SERIES.iter().enumerate() {
        let visible = match st.read_series(name) {
            Ok(v) => v,
            Err(e) => {
                t.violation = Some(format!("{name}: strict read failed after recovery: {e}"));
                return t;
            }
        };
        let visible_set: BTreeSet<i64> = visible.iter().copied().collect();
        if visible_set.len() != visible.len() {
            t.violation = Some(format!(
                "{name}: duplicate values visible ({} reads, {} distinct)",
                visible.len(),
                visible_set.len()
            ));
            return t;
        }
        let committed_set: BTreeSet<i64> = committed[si].iter().copied().collect();
        if let Some(lost) = committed_set.difference(&visible_set).next() {
            t.violation = Some(format!("{name}: committed value {lost} lost"));
            return t;
        }
        let last_set: BTreeSet<i64> = last[si].iter().copied().collect();
        if let Some(alien) = visible_set
            .iter()
            .find(|v| !committed_set.contains(v) && !last_set.contains(v))
        {
            t.violation = Some(format!("{name}: unknown value {alien} visible"));
            return t;
        }
        // Seal atomicity: the crashing flush's batch is visible
        // all-or-nothing.
        let seen = last_set.intersection(&visible_set).count();
        if seen != 0 && seen != last_set.len() {
            t.violation = Some(format!(
                "{name}: crashing flush visible partially ({seen} of {})",
                last_set.len()
            ));
            return t;
        }
        last_batch_seen.push(seen == last_set.len());
    }
    // ... and consistently across series (they seal in one file).
    if last_batch_seen.windows(2).any(|w| w[0] != w[1]) {
        t.violation = Some("crashing flush visible in one series but not the other".into());
        return t;
    }

    drop(st);
    let _ = std::fs::remove_dir_all(&dir);
    t
}

/// Per-class tallies.
#[derive(Default)]
struct Agg {
    trials: usize,
    crashes_fired: usize,
    recoveries_acted: usize,
    compactions_rolled_forward: usize,
    compactions_rolled_back: usize,
    sealed_rolled_forward: usize,
    orphans_adopted: usize,
    torn_tail_truncated: usize,
    frames_skipped: usize,
    recovery_ns: Vec<u64>,
}

impl Agg {
    fn absorb(&mut self, t: &Trial) {
        self.trials += 1;
        self.crashes_fired += usize::from(t.crashed);
        self.recoveries_acted += usize::from(t.recovery_acted);
        self.compactions_rolled_forward += t.compactions_rolled_forward;
        self.compactions_rolled_back += t.compactions_rolled_back;
        self.sealed_rolled_forward += t.sealed_rolled_forward;
        self.orphans_adopted += t.orphans_adopted;
        self.torn_tail_truncated += usize::from(t.torn_tail_truncated);
        self.frames_skipped += t.frames_skipped;
        self.recovery_ns.push(t.recovery_ns);
    }
}

/// Percentile over recovery latencies (nearest-rank).
fn percentile(sorted: &[u64], p: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() * p).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Runs the sweep; `quick` is the tier-1 configuration (fewer points
/// and seeds, no artifact).
pub fn run(cfg: &Config, quick: bool) {
    super::banner("Crash consistency: reopen gates across crash points", cfg);
    let mut report = Report::new("exp_store", cfg);
    let (points, seeds) = if quick {
        (POINTS_QUICK, SEEDS_QUICK)
    } else {
        (POINTS_FULL, SEEDS_FULL)
    };
    println!(
        "{points} crash points x {seeds} seeds x {} manifest classes = {} reopen trials{}",
        FaultClass::ALL.len(),
        points * seeds as usize * FaultClass::ALL.len(),
        if quick { " [--quick]" } else { "" }
    );
    println!();

    let base = std::env::temp_dir().join(format!("bos_exp_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("sweep temp dir");

    let mut aggs: Vec<(FaultClass, Agg)> = FaultClass::ALL
        .into_iter()
        .map(|c| (c, Agg::default()))
        .collect();
    let mut trial_id = 0u64;
    let mut panics = 0usize;
    for point in 0..points {
        for seed in 0..seeds {
            for (ci, class) in FaultClass::ALL.into_iter().enumerate() {
                let t = run_trial(&base, trial_id, point, seed, class);
                trial_id += 1;
                assert!(
                    t.violation.is_none(),
                    "[{}/point={point}/seed={seed}] {}",
                    class.name(),
                    t.violation.as_deref().unwrap_or_default()
                );
                if t.violation.as_deref() == Some("panic during reopen") {
                    panics += 1;
                }
                aggs[ci].1.absorb(&t);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&base);

    let mut table = Table::new([
        "class",
        "trials",
        "crashes",
        "recovered",
        "roll-fwd",
        "roll-back",
        "re-seal",
        "adopted",
        "torn",
        "skipped",
        "p99 ms",
    ]);
    for (class, a) in &aggs {
        let mut ns = a.recovery_ns.clone();
        ns.sort_unstable();
        table.row([
            class.name().to_string(),
            a.trials.to_string(),
            a.crashes_fired.to_string(),
            a.recoveries_acted.to_string(),
            a.compactions_rolled_forward.to_string(),
            a.compactions_rolled_back.to_string(),
            a.sealed_rolled_forward.to_string(),
            a.orphans_adopted.to_string(),
            a.torn_tail_truncated.to_string(),
            a.frames_skipped.to_string(),
            format!("{:.3}", percentile(&ns, 99) as f64 / 1e6),
        ]);
    }
    report.table("Reopen outcomes per post-crash manifest class", table);

    let total: usize = aggs.iter().map(|(_, a)| a.trials).sum();
    report.gate("reopen panics", panics, "== 0");
    assert_eq!(panics, 0, "reopen must never panic ({total} trials)");
    println!(
        "{total} reopen trials: 0 panics, 0 committed-then-lost records, 0 duplicates, \
         seal atomicity held."
    );
    println!();
    report.finish(quick);
}
