//! End-to-end storage-stack integration: datasets → TsFile archive →
//! read-back → query scans, mirroring the paper's deployment story
//! (BOS inside TsFile, §VII; query cost, Figure 11).

use bos_repro::bitpack::codec::{decode_blocks, encode_blocks_parallel};
use bos_repro::bos::{BosCodec, SolverKind};
use bos_repro::datasets::{all_datasets, generate};
use bos_repro::query::Scanner;
use bos_repro::tsfile::{EncodingChoice, TsFileReader, TsFileWriter};

#[test]
fn archive_all_datasets_and_read_back() {
    let sets = all_datasets(6_000);
    let mut w = TsFileWriter::new();
    for d in &sets {
        w.add_int_series(
            d.name,
            &d.as_scaled_ints(),
            EncodingChoice::auto_for(&d.as_scaled_ints()),
        )
        .unwrap();
    }
    let bytes = w.finish();
    let raw: usize = sets.iter().map(|d| d.uncompressed_bytes()).sum();
    assert!(
        bytes.len() * 3 < raw,
        "archive {} vs raw {raw}",
        bytes.len()
    );

    let r = TsFileReader::open(&bytes).unwrap();
    assert_eq!(r.series().len(), sets.len());
    for d in &sets {
        assert_eq!(
            r.read_ints(d.name).unwrap(),
            d.as_scaled_ints(),
            "{}",
            d.abbr
        );
    }
}

#[test]
fn bos_archives_are_smaller_than_bp_archives() {
    let sets = all_datasets(6_000);
    let size_with = |enc: EncodingChoice| {
        let mut w = TsFileWriter::new();
        for d in &sets {
            w.add_int_series(d.name, &d.as_scaled_ints(), enc).unwrap();
        }
        w.finish().len()
    };
    let bos = size_with(EncodingChoice::TS2DIFF_BOS);
    let bp = size_with(EncodingChoice::TS2DIFF_BP);
    assert!(bos < bp, "bos {bos} vs bp {bp}");
}

#[test]
fn scanner_answers_match_bruteforce_on_every_dataset() {
    for d in all_datasets(5_000) {
        let ints = d.as_scaled_ints();
        let mut stream = Vec::new();
        encode_blocks_parallel(
            &BosCodec::new(SolverKind::BitWidth),
            &ints,
            1024,
            2,
            &mut stream,
        )
        .expect("encode");
        let scanner = Scanner::open(&stream).unwrap();
        assert_eq!(
            scanner.min().unwrap(),
            ints.iter().copied().min(),
            "{}",
            d.abbr
        );
        assert_eq!(
            scanner.max().unwrap().0,
            ints.iter().copied().max(),
            "{}",
            d.abbr
        );
        assert_eq!(
            scanner.sum().unwrap(),
            ints.iter().map(|&v| v as i128).sum::<i128>(),
            "{}",
            d.abbr
        );
        // A mid-range predicate.
        let lo = ints.iter().copied().min().unwrap_or(0);
        let hi = lo + (ints.iter().copied().max().unwrap_or(0) - lo) / 3;
        assert_eq!(
            scanner.count_in_range(lo, hi).unwrap(),
            ints.iter().filter(|&&v| v >= lo && v <= hi).count(),
            "{}",
            d.abbr
        );
    }
}

#[test]
fn parallel_and_sequential_streams_are_interchangeable() {
    let ints = generate("EE", 20_000).expect("dataset").as_scaled_ints();
    let codec = BosCodec::new(SolverKind::BitWidth);
    let mut seq = Vec::new();
    encode_blocks_parallel(&codec, &ints, 1024, 1, &mut seq).expect("encode");
    let mut par = Vec::new();
    encode_blocks_parallel(&codec, &ints, 1024, 4, &mut par).expect("encode");
    assert_eq!(seq, par);
    let scanner = Scanner::open(&par).unwrap();
    assert_eq!(scanner.materialize().unwrap(), ints);
    assert_eq!(decode_blocks(&codec, &seq).unwrap(), ints);
}
