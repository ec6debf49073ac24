//! Figure 14 — varying the number of divided value parts (1–7).
//!
//! Applies the k-part DP generalization of BOS inside a TS2DIFF-style
//! delta pipeline and reports average ratio and compression time per k.

use crate::harness::{fmt_ns, fmt_ratio, time_stats, Config, Table};
use bitpack::zigzag::read_varint_i64;
use bitpack::zigzag::write_varint_i64;
use bos::kpart::{decode_kpart, encode_kpart};
use datasets::all_datasets;

/// Block size matching the other encoders.
pub const BLOCK: usize = 1024;

/// Delta + k-part encoding of a whole series.
pub fn encode_series(values: &[i64], k: usize, out: &mut Vec<u8>) {
    for block in values.chunks(BLOCK) {
        write_varint_i64(out, block[0]);
        let deltas: Vec<i64> = block.windows(2).map(|w| w[1].wrapping_sub(w[0])).collect();
        encode_kpart(&deltas, k, out);
    }
}

/// Decoder counterpart of [`encode_series`].
pub fn decode_series(buf: &[u8], n: usize, out: &mut Vec<i64>) -> bitpack::DecodeResult<()> {
    let mut pos = 0;
    let mut produced = 0;
    let mut deltas = Vec::new();
    while produced < n {
        let first = read_varint_i64(buf, &mut pos)?;
        out.push(first);
        produced += 1;
        deltas.clear();
        decode_kpart(buf, &mut pos, &mut deltas)?;
        let mut prev = first;
        for &d in &deltas {
            prev = prev.wrapping_add(d);
            out.push(prev);
        }
        produced += deltas.len();
    }
    Ok(())
}

/// Runs the experiment.
pub fn run(cfg: &Config) {
    super::banner("Figure 14: varying the number of divided value parts", cfg);
    let sets = all_datasets(cfg.n);
    let mut table = Table::new(["# parts", "avg ratio", "avg comp ns/point"]);
    let mut ratios = Vec::new();
    for k in 1..=7usize {
        let (mut rsum, mut tsum) = (0.0, 0.0);
        for dataset in &sets {
            let ints = dataset.as_scaled_ints();
            let mut buf = Vec::new();
            let (_, ns) = time_stats(cfg.repeats, || {
                buf.clear();
                encode_series(&ints, k, &mut buf);
            });
            let mut out = Vec::new();
            decode_series(&buf, ints.len(), &mut out).expect("decode");
            assert_eq!(out, ints, "k = {k} lossy on {}", dataset.abbr);
            rsum += (ints.len() * 8) as f64 / buf.len() as f64;
            tsum += ns.mean / ints.len() as f64;
        }
        let k_ratio = rsum / sets.len() as f64;
        ratios.push(k_ratio);
        table.row([
            k.to_string(),
            fmt_ratio(k_ratio),
            fmt_ns(tsum / sets.len() as f64),
        ]);
    }
    table.print();
    println!();
    let gain_13 = ratios[2] - ratios[0];
    let gain_37 = ratios[6] - ratios[2];
    println!(
        "Ratio gain 1→3 parts: {gain_13:+.2}; 3→7 parts: {gain_37:+.2} — the paper's \
         recommendation of 3 parts."
    );
    assert!(ratios[2] > ratios[0], "3 parts must beat 1 part");
    assert!(
        gain_37 < gain_13,
        "the marginal gain beyond 3 parts must be smaller than the 1→3 jump"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_roundtrip_all_k() {
        let values: Vec<i64> = (0..3000)
            .map(|i| 40 * i + if i % 57 == 0 { 1 << 22 } else { i % 13 })
            .collect();
        for k in 1..=7usize {
            let mut buf = Vec::new();
            encode_series(&values, k, &mut buf);
            let mut out = Vec::new();
            decode_series(&buf, values.len(), &mut out).expect("decode");
            assert_eq!(out, values, "k = {k}");
        }
    }

    #[test]
    fn series_decode_rejects_truncation() {
        let values: Vec<i64> = (0..2048).map(|i| i * 3).collect();
        let mut buf = Vec::new();
        encode_series(&values, 3, &mut buf);
        let mut out = Vec::new();
        assert!(decode_series(&buf[..buf.len() / 2], values.len(), &mut out).is_err());
    }
}
