//! Failure injection across the whole stack, driven by the seeded
//! `faultsim` corruption engine: bit flips, byte garbage, truncations and
//! torn tails must never panic any decoder, and integrity-checked layers
//! must detect corruption. Every trial is reproducible from (plan index,
//! seed) — no hand-rolled offset lists.

use bos_repro::datasets::generate;
use bos_repro::encodings::{OuterKind, PackerKind, Pipeline};
use bos_repro::faultsim::{Fault, FaultPlan};
use bos_repro::floatcodec::all_codecs;
use bos_repro::gpcomp::{ByteCodec, Lz4Like, LzmaLite};
use bos_repro::query::Scanner;
use bos_repro::tsfile::{EncodingChoice, TsFileReader, TsFileWriter};

/// A representative spread of corruption plans. Applying each at several
/// seeds covers single/multi bit flips, byte garbage, range rewrites,
/// truncation, torn tails, dropped ranges and destroyed trailers.
fn fault_plans() -> Vec<FaultPlan> {
    vec![
        FaultPlan::single(Fault::FlipBits { count: 1 }),
        FaultPlan::single(Fault::FlipBits { count: 8 }),
        FaultPlan::single(Fault::GarbageBytes { count: 4 }),
        FaultPlan::single(Fault::GarbageRange { max_len: 64 }),
        FaultPlan::single(Fault::Truncate),
        FaultPlan::single(Fault::TornTail { max_tail: 32 }),
        FaultPlan::single(Fault::DropRange { max_len: 48 }),
        FaultPlan::single(Fault::DestroyTail { count: 24 }),
        FaultPlan::new()
            .with(Fault::FlipBits { count: 3 })
            .with(Fault::TornTail { max_tail: 16 }),
    ]
}

const SEEDS: u64 = 8;

#[test]
fn pipelines_survive_faults_without_panicking() {
    let ints = generate("MT", 4_000).expect("dataset").as_scaled_ints();
    for outer in OuterKind::ALL {
        for packer in [
            PackerKind::Bp,
            PackerKind::FastPfor,
            PackerKind::BosB,
            PackerKind::BosM,
        ] {
            let pipeline = Pipeline::new(outer, packer);
            let mut buf = Vec::new();
            pipeline.encode(&ints, &mut buf);
            for (p, plan) in fault_plans().iter().enumerate() {
                for seed in 0..SEEDS {
                    let mut corrupt = buf.clone();
                    plan.apply(&mut corrupt, seed ^ (p as u64) << 32);
                    let mut out = Vec::new();
                    let mut pos = 0;
                    // Must not panic. If decode "succeeds", the result may
                    // be wrong data (these layers have no checksums) —
                    // that is the TsFile layer's job.
                    let _ = pipeline.decode(&corrupt, &mut pos, &mut out);
                }
            }
        }
    }
}

#[test]
fn float_codecs_survive_faults() {
    let values = generate("YE", 3_000).expect("dataset").as_floats();
    for codec in all_codecs() {
        let mut buf = Vec::new();
        codec.encode(&values, &mut buf);
        for (p, plan) in fault_plans().iter().enumerate() {
            for seed in 0..SEEDS {
                let mut corrupt = buf.clone();
                plan.apply(
                    &mut corrupt,
                    seed.wrapping_mul(0x9E37).wrapping_add(p as u64),
                );
                let mut out = Vec::new();
                let mut pos = 0;
                let _ = codec.decode(&corrupt, &mut pos, &mut out);
            }
        }
    }
}

#[test]
fn byte_codecs_survive_faults() {
    let data: Vec<u8> = (0..20_000u32)
        .flat_map(|i| (i % 300).to_le_bytes())
        .collect();
    let codecs: Vec<Box<dyn ByteCodec>> = vec![Box::new(Lz4Like::new()), Box::new(LzmaLite::new())];
    for codec in codecs {
        let mut buf = Vec::new();
        codec.compress(&data, &mut buf);
        for (p, plan) in fault_plans().iter().enumerate() {
            for seed in 0..SEEDS {
                let mut corrupt = buf.clone();
                plan.apply(&mut corrupt, seed | (p as u64) << 48);
                let mut out = Vec::new();
                let mut pos = 0;
                let _ = codec.decompress(&corrupt, &mut pos, &mut out);
            }
        }
    }
}

#[test]
fn tsfile_detects_every_payload_fault() {
    // Unlike the raw codecs, TsFile carries CRCs: any corruption confined
    // to a chunk payload must surface as an error, never as silently
    // wrong data.
    let ints = generate("CS", 5_000).expect("dataset").as_scaled_ints();
    let mut w = TsFileWriter::new();
    w.add_int_series("s", &ints, EncodingChoice::TS2DIFF_BOS)
        .unwrap();
    let bytes = w.finish();
    let payload = {
        let r = TsFileReader::open(&bytes).unwrap();
        r.chunk_ranges("s").unwrap().1
    };
    let mut silent_corruptions = 0usize;
    for plan in [
        FaultPlan::single(Fault::FlipBits { count: 1 }),
        FaultPlan::single(Fault::FlipBits { count: 5 }),
        FaultPlan::single(Fault::GarbageBytes { count: 3 }),
        FaultPlan::single(Fault::GarbageRange { max_len: 40 }),
    ] {
        for seed in 0..4 * SEEDS {
            let mut corrupt = bytes.clone();
            let records = plan.apply_in(&mut corrupt, payload.clone(), seed);
            if corrupt == bytes {
                continue; // the draw was a no-op (e.g. flip of an equal bit)
            }
            assert!(records
                .iter()
                .all(|r| { r.touched.start >= payload.start && r.touched.end <= payload.end }));
            match TsFileReader::open(&corrupt) {
                Err(_) => {}
                Ok(r) => match r.read_ints("s") {
                    Err(_) => {}
                    Ok(out) => {
                        if out != ints {
                            silent_corruptions += 1;
                        }
                    }
                },
            }
        }
    }
    assert_eq!(
        silent_corruptions, 0,
        "corruption returned wrong data silently"
    );
}

#[test]
fn scanner_rejects_faulted_streams_or_answers_consistently() {
    use bos_repro::bitpack::codec::encode_blocks_parallel;
    use bos_repro::bos::{BosCodec, SolverKind};
    let ints = generate("TT", 8_000).expect("dataset").as_scaled_ints();
    let mut stream = Vec::new();
    encode_blocks_parallel(
        &BosCodec::new(SolverKind::BitWidth),
        &ints,
        512,
        2,
        &mut stream,
    )
    .expect("encode");
    for (p, plan) in fault_plans().iter().enumerate() {
        for seed in 0..SEEDS {
            let mut corrupt = stream.clone();
            plan.apply(&mut corrupt, seed ^ (p as u64) << 16);
            if let Ok(scanner) = Scanner::open(&corrupt) {
                // No checksums at this layer: results may be wrong, but
                // calls must stay panic-free and internally consistent.
                let total = scanner.count_in_range(i64::MIN, i64::MAX);
                if let Ok(t) = total {
                    assert!(t <= scanner.len());
                }
                let _ = scanner.min();
                let _ = scanner.max();
            }
        }
    }
}
