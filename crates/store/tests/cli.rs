//! Integration tests driving the `boscli` binary end-to-end.

use std::path::PathBuf;
use std::process::Command;

fn boscli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_boscli"))
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("boscli_test_{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir
}

#[test]
fn pack_info_unpack_roundtrip() {
    let dir = tmpdir("roundtrip");
    let csv = dir.join("temps.csv");
    let values: Vec<i64> = (0..5000)
        .map(|i| 200 + (i % 17) + if i % 97 == 0 { 9000 } else { 0 })
        .collect();
    datasets::csv::save_ints(&csv, &values).unwrap();

    let tsf = dir.join("out.tsf");
    let out = boscli()
        .args([
            "pack",
            tsf.to_str().unwrap(),
            &format!("temps={}", csv.display()),
        ])
        .output()
        .expect("run pack");
    assert!(
        out.status.success(),
        "pack failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = boscli()
        .args(["info", tsf.to_str().unwrap()])
        .output()
        .expect("run info");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("temps"), "info output: {text}");
    assert!(text.contains("5000"), "info output: {text}");

    let back = dir.join("back.csv");
    let out = boscli()
        .args([
            "unpack",
            tsf.to_str().unwrap(),
            "temps",
            back.to_str().unwrap(),
        ])
        .output()
        .expect("run unpack");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(datasets::csv::load_ints(&back).unwrap(), values);
}

#[test]
fn bench_prints_method_table() {
    let dir = tmpdir("bench");
    let csv = dir.join("series.csv");
    let values: Vec<i64> = (0..3000).map(|i| i % 250).collect();
    datasets::csv::save_ints(&csv, &values).unwrap();
    let out = boscli()
        .args(["bench", csv.to_str().unwrap()])
        .output()
        .expect("run bench");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("TS2DIFF+BOS-B"), "bench output: {text}");
    assert!(text.contains("RLE+BP"), "bench output: {text}");
}

#[test]
fn float_csv_is_packed_losslessly() {
    let dir = tmpdir("floats");
    let csv = dir.join("load.csv");
    let values: Vec<f64> = (0..2000).map(|i| (i % 331) as f64 / 10.0).collect();
    datasets::csv::save_floats(&csv, &values).unwrap();
    let tsf = dir.join("f.tsf");
    let out = boscli()
        .args([
            "pack",
            tsf.to_str().unwrap(),
            &format!("load={}", csv.display()),
        ])
        .output()
        .expect("run pack");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let data = std::fs::read(&tsf).unwrap();
    let reader = tsfile::TsFileReader::open(&data).unwrap();
    assert_eq!(reader.read_floats("load").unwrap(), values);
}

#[test]
fn store_create_append_status_compact() {
    let dir = tmpdir("store_cli");
    let store_dir = dir.join("db");
    let out = boscli()
        .args(["store", "create", store_dir.to_str().unwrap()])
        .output()
        .expect("run store create");
    assert!(
        out.status.success(),
        "create failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let csv = dir.join("temps.csv");
    let values: Vec<i64> = (0..9000).map(|i| 100 + i % 13).collect();
    datasets::csv::save_ints(&csv, &values).unwrap();
    let out = boscli()
        .args([
            "store",
            "append",
            store_dir.to_str().unwrap(),
            &format!("temps={}", csv.display()),
        ])
        .output()
        .expect("run store append");
    assert!(
        out.status.success(),
        "append failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("sealed file"), "append output: {text}");

    let out = boscli()
        .args(["store", "status", store_dir.to_str().unwrap()])
        .output()
        .expect("run store status");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("live files"), "status output: {text}");
    assert!(text.contains("temps"), "status output: {text}");

    let out = boscli()
        .args(["store", "compact", store_dir.to_str().unwrap()])
        .output()
        .expect("run store compact");
    assert!(
        out.status.success(),
        "compact failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Reopen after compaction: every appended value must still be readable.
    let (store, report) = store::Store::open(&store_dir, store::StoreOptions::default()).unwrap();
    assert!(!report.acted(), "clean reopen acted: {report:?}");
    assert_eq!(store.read_series("temps").unwrap(), values);
}

#[test]
fn salvage_emits_table_and_metrics_report() {
    let dir = tmpdir("salvage_cli");
    let csv = dir.join("a.csv");
    let values: Vec<i64> = (0..4000).map(|i| i % 91).collect();
    datasets::csv::save_ints(&csv, &values).unwrap();
    let tsf = dir.join("a.tsf");
    assert!(boscli()
        .args([
            "pack",
            tsf.to_str().unwrap(),
            &format!("a={}", csv.display()),
        ])
        .output()
        .unwrap()
        .status
        .success());

    // Corrupt one payload byte so salvage has something to report.
    let mut data = std::fs::read(&tsf).unwrap();
    let reader = tsfile::TsFileReader::open(&data).unwrap();
    let (_, range) = reader.chunk_ranges("a").unwrap();
    data[range.start + range.len() / 2] ^= 0xff;
    #[expect(
        clippy::disallowed_methods,
        reason = "the test damages a file on purpose"
    )]
    std::fs::write(&tsf, &data).unwrap();

    let metrics = dir.join("salvage.json");
    let out = boscli()
        .args([
            "salvage",
            tsf.to_str().unwrap(),
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .output()
        .expect("run salvage");
    assert!(
        out.status.success(),
        "salvage failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("damaged"), "salvage output: {text}");
    assert!(text.contains("recovered"), "salvage output: {text}");

    let json = std::fs::read_to_string(&metrics).unwrap();
    assert!(json.contains("\"salvage\""), "metrics json: {json}");
    assert!(
        json.contains("\"series_damaged\": 1"),
        "metrics json: {json}"
    );
    assert!(json.contains("\"skipped\""), "metrics json: {json}");
}

#[test]
fn encode_defaults_to_bos_b_and_writes_a_trace() {
    let dir = tmpdir("encode_cli");
    let csv = dir.join("ints.csv");
    let values: Vec<i64> = (0..5000)
        .map(|i| 300 + (i % 23) + if i % 61 == 0 { 1 << 20 } else { 0 })
        .collect();
    datasets::csv::save_ints(&csv, &values).unwrap();
    let bin = dir.join("ints.bin");
    let trace = dir.join("trace.json");
    let out = boscli()
        .args([
            "encode",
            csv.to_str().unwrap(),
            bin.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("run encode");
    assert!(
        out.status.success(),
        "encode failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("solver BOS-B"), "encode output: {text}");

    // Blocks are independent, so the worker count the CLI picks does not
    // change the bytes.
    let codec = bos::BosCodec::new(bos::SolverKind::BitWidth);
    let mut expected = Vec::new();
    bitpack::codec::encode_blocks_parallel(&codec, &values, 1024, 1, &mut expected).unwrap();
    let written = std::fs::read(&bin).unwrap();
    assert_eq!(written, expected);
    assert_eq!(
        bitpack::codec::decode_blocks(&codec, &written).unwrap(),
        values
    );

    let json = std::fs::read_to_string(&trace).unwrap();
    assert!(json.contains("\"trail.block_solved\""), "trace: {json}");
}

#[test]
fn bad_usage_exits_nonzero() {
    assert!(!boscli().output().unwrap().status.success());
    assert!(!boscli()
        .args(["info", "/nonexistent/file.tsf"])
        .output()
        .unwrap()
        .status
        .success());
    assert!(!boscli().args(["unpack"]).output().unwrap().status.success());
}
