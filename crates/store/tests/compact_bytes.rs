//! Pins compaction's output bytes: the compacted file is exactly what a
//! `TsFileWriter` writes when fed every input series once, in name order,
//! each with its values concatenated in the store's `(order, id)` file
//! order, through the store's own encoding and thread count.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use encodings::{OuterKind, PackerKind};
use proptest::prelude::*;
use store::{Store, StoreOptions};
use tsfile::{EncodingChoice, TsFileWriter};

/// Series names the files draw from, so most series span several files
/// and some files lack some series.
const NAMES: [&str; 4] = ["cpu", "disk", "mem", "net"];

/// Chunk lengths: whole 1024-value blocks half the time, anything in
/// 0..=3000 otherwise.
fn chunk_len() -> impl Strategy<Value = usize> {
    prop_oneof![(0usize..3).prop_map(|k| k * 1024), 0usize..3001]
}

fn encoding() -> impl Strategy<Value = EncodingChoice> {
    prop::sample::select(vec![
        EncodingChoice::TS2DIFF_BOS,
        EncodingChoice {
            outer: OuterKind::Sprintz,
            packer: PackerKind::BosM,
        },
    ])
}

/// A drifting level with sparse spikes on both sides, from `seed`.
fn values(seed: u64, len: usize) -> Vec<i64> {
    let mut x = seed | 1;
    let mut level = (seed % 10_000) as i64;
    (0..len)
        .map(|_| {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let r = (x >> 33) as i64;
            level += r % 9 - 4;
            match r % 61 {
                0 => level + 50_000 + r % 1000,
                1 => level - 70_000,
                _ => level,
            }
        })
        .collect()
}

static CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn compaction_writes_the_name_ordered_file_order_merge(
        files in prop::collection::vec(
            prop::collection::vec((0usize..NAMES.len(), chunk_len(), any::<u64>()), 1..=4),
            2..=5,
        ),
        encoding in encoding(),
        threads in 1usize..4,
    ) {
        let dir = std::env::temp_dir().join(format!(
            "bos_store_compact_bytes_{}_{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = StoreOptions {
            rotate_records: usize::MAX,
            compact_min_inputs: 2,
            compact_small_records: u64::MAX,
            encoding,
            threads,
        };
        let mut store = Store::create(&dir, opts).unwrap();
        // What each series should read back as: its appends in file order.
        let mut merged: BTreeMap<&str, Vec<i64>> = BTreeMap::new();
        // Each file is a list of `(name index, chunk length, value seed)`
        // appends, sealed by one flush.
        for file in &files {
            for &(name, len, seed) in file {
                let v = values(seed, len);
                store.append(NAMES[name], &v).unwrap();
                merged.entry(NAMES[name]).or_default().extend_from_slice(&v);
            }
            store.flush().unwrap().expect("a non-empty buffer seals a file");
        }
        prop_assert_eq!(store.live_files().len(), files.len());
        let output = store.compact().unwrap().expect("enough inputs");
        let compacted = std::fs::read(store.path_for(output)).unwrap();

        let mut writer = TsFileWriter::new();
        for (name, v) in &merged {
            writer.add_int_series_parallel(name, v, encoding, threads).unwrap();
        }
        prop_assert!(compacted == writer.finish(), "compacted bytes differ");
        for (name, v) in &merged {
            prop_assert_eq!(&store.read_series(name).unwrap(), v);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
