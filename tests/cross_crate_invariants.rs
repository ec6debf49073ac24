//! Cross-crate invariants tying the paper's claims to real data: the
//! exact solvers agree on every dataset block, costs equal encoded bits,
//! and the ablations order correctly.

use bos_repro::bitpack::codec::decode_blocks;
use bos_repro::bitpack::zigzag::write_varint;
use bos_repro::bos::kpart::solve_kpart;
use bos_repro::bos::solver::solve_values;
use bos_repro::bos::BosCodec;
use bos_repro::bos::{
    BitWidthSolver, MedianSolver, Solution, SolverKind, SortedBlock, ValueSolver,
};
use bos_repro::datasets::all_datasets;
use bos_repro::encodings::ts2diff::Ts2DiffEncoding;

const N: usize = 6_000;
const BLOCK: usize = 512;

/// Delta blocks from every dataset — the distribution BOS actually sees.
fn real_blocks() -> Vec<Vec<i64>> {
    let mut blocks = Vec::new();
    for dataset in all_datasets(N) {
        let ints = dataset.as_scaled_ints();
        let deltas = Ts2DiffEncoding::<pfor::BpCodec>::deltas(&ints);
        for chunk in deltas.chunks(BLOCK).take(4) {
            blocks.push(chunk.to_vec());
        }
    }
    blocks
}

#[test]
fn bosb_equals_bosv_on_all_dataset_blocks() {
    let v = ValueSolver::new();
    let b = BitWidthSolver::new();
    for block in real_blocks() {
        assert_eq!(
            solve_values(&b, &block).cost_bits(),
            solve_values(&v, &block).cost_bits(),
            "exact solvers disagree on a real block"
        );
    }
}

#[test]
fn median_is_sandwiched_on_all_dataset_blocks() {
    let b = BitWidthSolver::new();
    let m = MedianSolver::new();
    for block in real_blocks() {
        let opt = solve_values(&b, &block).cost_bits();
        let med = solve_values(&m, &block).cost_bits();
        let plain = SortedBlock::from_values(&block).plain_cost_bits();
        assert!(
            opt <= med && med <= plain,
            "opt {opt} med {med} plain {plain}"
        );
    }
}

#[test]
fn solver_cost_equals_evaluator_cost_on_real_blocks() {
    for block in real_blocks() {
        let sorted = SortedBlock::from_values(&block);
        for kind in [SolverKind::BitWidth, SolverKind::Median] {
            match BosCodec::new(kind).solve(&block) {
                Solution::Plain { cost_bits } => {
                    assert_eq!(cost_bits, sorted.plain_cost_bits())
                }
                Solution::Separated { sep, cost_bits } => {
                    assert_eq!(sorted.evaluate(sep).cost_bits, cost_bits)
                }
            }
        }
    }
}

#[test]
fn upper_only_ablation_never_beats_full_bos() {
    // Figure 12's premise: restricting the search can only cost bits.
    let full = BitWidthSolver::new();
    let upper = BitWidthSolver::upper_only();
    let mut strictly_better = 0usize;
    let blocks = real_blocks();
    for block in &blocks {
        let f = solve_values(&full, block).cost_bits();
        let u = solve_values(&upper, block).cost_bits();
        assert!(f <= u, "full {f} > upper-only {u}");
        if f < u {
            strictly_better += 1;
        }
    }
    // And on real delta streams lower outliers do exist, so the full
    // search must win strictly somewhere.
    assert!(strictly_better > 0, "lower outliers never mattered");
}

#[test]
fn kpart_matches_figure14_ordering() {
    for block in real_blocks().into_iter().take(12) {
        if block.is_empty() {
            continue;
        }
        let sorted = SortedBlock::from_values(&block);
        let k1 = solve_kpart(&sorted, 1).cost_bits;
        let k3 = solve_kpart(&sorted, 3).cost_bits;
        let k6 = solve_kpart(&sorted, 6).cost_bits;
        assert!(k3 <= k1);
        assert!(k6 <= k3);
        // The Figure 14 claim: going beyond 3 parts yields little.
        let gain_13 = k1 - k3;
        let gain_36 = k3 - k6;
        if gain_13 > 0 {
            assert!(
                gain_36 * 3 <= gain_13 * 4,
                "3→6 gain {gain_36} suspiciously large vs 1→3 gain {gain_13}"
            );
        }
    }
}

#[test]
fn encoded_streams_are_cross_solver_compatible() {
    // Any BOS stream decodes with the shared decoder regardless of solver.
    for block in real_blocks().into_iter().take(8) {
        let mut buf = Vec::new();
        BosCodec::new(SolverKind::Median).encode(&block, &mut buf);
        BosCodec::new(SolverKind::BitWidth).encode(&block, &mut buf);
        let mut out = Vec::new();
        let mut pos = 0;
        bos_repro::bos::decode(&buf, &mut pos, &mut out).expect("first");
        bos_repro::bos::decode(&buf, &mut pos, &mut out).expect("second");
        assert_eq!(out.len(), block.len() * 2);
        assert_eq!(&out[..block.len()], &block[..]);
        assert_eq!(&out[block.len()..], &block[..]);
    }
    // A multi-block stream whose blocks come from different solvers
    // decodes with one `decode_blocks` call.
    let blocks: Vec<Vec<i64>> = real_blocks().into_iter().take(6).collect();
    let mut stream = Vec::new();
    write_varint(&mut stream, blocks.len() as u64);
    for (block, kind) in blocks.iter().zip(SolverKind::ALL.iter().cycle()) {
        BosCodec::new(*kind).encode(block, &mut stream);
    }
    let codec = BosCodec::new(SolverKind::BitWidth);
    assert_eq!(decode_blocks(&codec, &stream), Ok(blocks.concat()));
}
