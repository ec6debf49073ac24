//! Lossless transform coding: DCT-II and radix-2 FFT with integer
//! residual correction (the "DCT" and "FFT" comparators of Figure 13).
//!
//! Frequency transforms are lossy; the paper (§II-B) notes that lossless
//! use requires storing the residuals — and that BOS applies naturally to
//! those residuals, which concentrate near zero with outliers at signal
//! discontinuities ("BOS+DCT", "BOS+FFT").
//!
//! Scheme per block of [`BLOCK`] integers:
//! 1. transform the block (DCT-II or real FFT) in `f64`;
//! 2. quantize the coefficients to `i64` with a fixed step;
//! 3. reconstruct deterministically with the inverse transform and round;
//! 4. store quantized coefficients *and* the exact integer residuals with
//!    the chosen inner operator (BOS or plain BP — the with/without axis
//!    of Figure 13).
//!
//! Both ends run the same `f64` code on the same inputs, so the
//! reconstruction is bit-identical and the residual correction is exact.

use bitpack::error::{DecodeError, DecodeResult};
use bitpack::zigzag::{read_varint, write_varint};
use bitpack::BlockCodec as _;
use bos::{BosCodec, SolverKind};

/// Values per transform block.
pub const BLOCK: usize = 256;

/// Quantization step for coefficients: coarser → smaller coefficient
/// storage but larger residuals. One unit of signal precision works well
/// for the scaled-integer series of the experiments.
const Q_STEP: f64 = 4.0;

/// Which frequency transform to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransformKind {
    /// Type-II discrete cosine transform.
    Dct,
    /// Radix-2 real FFT (interleaved real/imaginary half-spectrum).
    Fft,
}

/// The inner operator storing coefficients and residuals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InnerPacker {
    /// Plain bit-packing ("without BOS").
    Bp,
    /// BOS with the exact bit-width solver ("with BOS").
    BosB,
}

/// A lossless transform codec over `i64` series.
#[derive(Debug, Clone, Copy)]
pub struct TransformCodec {
    /// The transform.
    pub kind: TransformKind,
    /// The inner operator.
    pub packer: InnerPacker,
}

impl TransformCodec {
    /// Creates a codec.
    pub fn new(kind: TransformKind, packer: InnerPacker) -> Self {
        Self { kind, packer }
    }

    /// Label like "DCT", "BOS+DCT".
    pub fn label(&self) -> String {
        let base = match self.kind {
            TransformKind::Dct => "DCT",
            TransformKind::Fft => "FFT",
        };
        match self.packer {
            InnerPacker::Bp => base.to_string(),
            InnerPacker::BosB => format!("BOS+{base}"),
        }
    }

    fn pack(&self, values: &[i64], out: &mut Vec<u8>) {
        match self.packer {
            InnerPacker::Bp => pfor::BpCodec::new().encode(values, out),
            InnerPacker::BosB => BosCodec::new(SolverKind::BitWidth).encode(values, out),
        }
    }

    fn unpack(&self, buf: &[u8], pos: &mut usize, out: &mut Vec<i64>) -> DecodeResult<()> {
        // Both operators write self-describing blocks decodable by their
        // own decoders; dispatch on the packer we were built with.
        match self.packer {
            InnerPacker::Bp => pfor::BpCodec::new().decode(buf, pos, out),
            InnerPacker::BosB => bos::decode(buf, pos, out),
        }
    }

    /// Encodes a series.
    pub fn encode(&self, values: &[i64], out: &mut Vec<u8>) {
        write_varint(out, values.len() as u64);
        for block in values.chunks(BLOCK) {
            let signal: Vec<f64> = block.iter().map(|&v| v as f64).collect();
            let coeffs = match self.kind {
                TransformKind::Dct => dct2(&signal),
                TransformKind::Fft => rfft(&signal),
            };
            let quantized: Vec<i64> = coeffs
                .iter()
                .map(|&c| (c / Q_STEP).round() as i64)
                .collect();
            let recon = self.reconstruct(&quantized, block.len());
            let residuals: Vec<i64> = block
                .iter()
                .zip(&recon)
                .map(|(&x, &r)| x.wrapping_sub(r))
                .collect();
            self.pack(&quantized, out);
            self.pack(&residuals, out);
        }
    }

    fn reconstruct(&self, quantized: &[i64], len: usize) -> Vec<i64> {
        let dequant: Vec<f64> = quantized.iter().map(|&q| q as f64 * Q_STEP).collect();
        let recon = match self.kind {
            TransformKind::Dct => idct2(&dequant),
            TransformKind::Fft => irfft(&dequant, len),
        };
        recon.iter().map(|&r| r.round() as i64).collect()
    }

    /// Decodes a series.
    pub fn decode(&self, buf: &[u8], pos: &mut usize, out: &mut Vec<i64>) -> DecodeResult<()> {
        let n = read_varint(buf, pos)? as usize;
        if n > bitpack::MAX_BLOCK_VALUES {
            return Err(DecodeError::CountOverflow { claimed: n as u64 });
        }
        out.reserve(n);
        let mut produced = 0usize;
        while produced < n {
            let len = (n - produced).min(BLOCK);
            let mut quantized = Vec::new();
            self.unpack(buf, pos, &mut quantized)?;
            let mut residuals = Vec::new();
            self.unpack(buf, pos, &mut residuals)?;
            if residuals.len() != len {
                return Err(DecodeError::LengthMismatch {
                    expected: len,
                    got: residuals.len(),
                });
            }
            let recon = self.reconstruct(&quantized, len);
            if recon.len() != len {
                return Err(DecodeError::LengthMismatch {
                    expected: len,
                    got: recon.len(),
                });
            }
            for (r, d) in recon.iter().zip(&residuals) {
                out.push(r.wrapping_add(*d));
            }
            produced += len;
        }
        Ok(())
    }
}

/// DCT-II (the classic "DCT"), direct O(n²) form — blocks are small.
fn dct2(x: &[f64]) -> Vec<f64> {
    let n = x.len();
    let scale = std::f64::consts::PI / n as f64;
    (0..n)
        .map(|k| {
            x.iter()
                .enumerate()
                .map(|(i, &v)| v * ((i as f64 + 0.5) * k as f64 * scale).cos())
                .sum::<f64>()
                * (2.0 / n as f64)
        })
        .collect()
}

/// Inverse of [`dct2`] (DCT-III with the matching normalization).
fn idct2(c: &[f64]) -> Vec<f64> {
    let n = c.len();
    if n == 0 {
        return Vec::new();
    }
    let scale = std::f64::consts::PI / n as f64;
    (0..n)
        .map(|i| {
            c[0] / 2.0
                + (1..n)
                    .map(|k| c[k] * ((i as f64 + 0.5) * k as f64 * scale).cos())
                    .sum::<f64>()
        })
        .collect()
}

/// Real FFT: pads to the next power of two, returns interleaved
/// `[re0, im0, re1, im1, …]` for the half-spectrum `0..=N/2`.
fn rfft(x: &[f64]) -> Vec<f64> {
    let n = x.len().next_power_of_two().max(2);
    let mut re: Vec<f64> = x.to_vec();
    re.resize(n, *x.last().unwrap_or(&0.0)); // pad with the edge value
    let mut im = vec![0.0f64; n];
    fft_in_place(&mut re, &mut im, false);
    let mut out = Vec::with_capacity(n + 2);
    for k in 0..=n / 2 {
        out.push(re[k]);
        out.push(im[k]);
    }
    out
}

/// Inverse of [`rfft`], truncating back to `len` samples.
fn irfft(half: &[f64], len: usize) -> Vec<f64> {
    if len == 0 {
        return Vec::new();
    }
    let n = len.next_power_of_two().max(2);
    let mut re = vec![0.0f64; n];
    let mut im = vec![0.0f64; n];
    for k in 0..=n / 2 {
        let (r, i) = (
            half.get(2 * k).copied().unwrap_or(0.0),
            half.get(2 * k + 1).copied().unwrap_or(0.0),
        );
        re[k] = r;
        im[k] = i;
        if k != 0 && k != n / 2 {
            re[n - k] = r;
            im[n - k] = -i; // hermitian symmetry of a real signal
        }
    }
    fft_in_place(&mut re, &mut im, true);
    re.truncate(len);
    re
}

/// Iterative radix-2 Cooley–Tukey FFT. `inverse` includes the 1/N factor.
fn fft_in_place(re: &mut [f64], im: &mut [f64], inverse: bool) {
    let n = re.len();
    debug_assert!(n.is_power_of_two());
    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * std::f64::consts::TAU / len as f64;
        let (wr, wi) = (ang.cos(), ang.sin());
        let mut i = 0;
        while i < n {
            let (mut cr, mut ci) = (1.0f64, 0.0f64);
            for k in 0..len / 2 {
                let (ar, ai) = (re[i + k], im[i + k]);
                let (br, bi) = (re[i + k + len / 2], im[i + k + len / 2]);
                let (tr, ti) = (br * cr - bi * ci, br * ci + bi * cr);
                re[i + k] = ar + tr;
                im[i + k] = ai + ti;
                re[i + k + len / 2] = ar - tr;
                im[i + k + len / 2] = ai - ti;
                let ncr = cr * wr - ci * wi;
                ci = cr * wi + ci * wr;
                cr = ncr;
            }
            i += len;
        }
        len <<= 1;
    }
    if inverse {
        let inv = 1.0 / n as f64;
        for v in re.iter_mut() {
            *v *= inv;
        }
        for v in im.iter_mut() {
            *v *= inv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(codec: &TransformCodec, values: &[i64]) -> usize {
        let mut buf = Vec::new();
        codec.encode(values, &mut buf);
        let mut pos = 0;
        let mut out = Vec::new();
        codec.decode(&buf, &mut pos, &mut out).expect("decode");
        assert_eq!(out, values, "{}", codec.label());
        assert_eq!(pos, buf.len());
        buf.len()
    }

    fn smooth_signal(n: usize) -> Vec<i64> {
        (0..n)
            .map(|i| {
                let t = i as f64 * 0.05;
                (1000.0 * t.sin() + 400.0 * (3.1 * t).cos() + 5000.0).round() as i64
            })
            .collect()
    }

    #[test]
    fn dct_identity() {
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin() * 100.0).collect();
        let c = dct2(&x);
        let back = idct2(&c);
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn fft_identity() {
        let x: Vec<f64> = (0..128).map(|i| (i as f64 * 0.211).cos() * 50.0).collect();
        let h = rfft(&x);
        let back = irfft(&h, x.len());
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn roundtrip_all_variants() {
        let values = smooth_signal(1000);
        for kind in [TransformKind::Dct, TransformKind::Fft] {
            for packer in [InnerPacker::Bp, InnerPacker::BosB] {
                roundtrip(&TransformCodec::new(kind, packer), &values);
            }
        }
    }

    #[test]
    fn roundtrip_edges() {
        for kind in [TransformKind::Dct, TransformKind::Fft] {
            let c = TransformCodec::new(kind, InnerPacker::BosB);
            roundtrip(&c, &[]);
            roundtrip(&c, &[5]);
            roundtrip(&c, &[5, -5]);
            roundtrip(&c, &vec![1_000_000; 300]);
            roundtrip(&c, &(0..257).collect::<Vec<i64>>());
        }
    }

    #[test]
    fn noisy_spikes_still_roundtrip() {
        let mut values = smooth_signal(512);
        values[100] += 1 << 30;
        values[200] -= 1 << 28;
        for kind in [TransformKind::Dct, TransformKind::Fft] {
            roundtrip(&TransformCodec::new(kind, InnerPacker::BosB), &values);
        }
    }

    #[test]
    fn bos_residuals_not_larger_than_bp() {
        // Residuals concentrate near zero with spikes at discontinuities —
        // BOS's favourable regime.
        let mut values = smooth_signal(4096);
        for i in (0..values.len()).step_by(300) {
            values[i] += 200_000;
        }
        let with_bos = roundtrip(
            &TransformCodec::new(TransformKind::Dct, InnerPacker::BosB),
            &values,
        );
        let without = roundtrip(
            &TransformCodec::new(TransformKind::Dct, InnerPacker::Bp),
            &values,
        );
        assert!(with_bos <= without, "{with_bos} vs {without}");
    }

    #[test]
    fn labels() {
        assert_eq!(
            TransformCodec::new(TransformKind::Dct, InnerPacker::Bp).label(),
            "DCT"
        );
        assert_eq!(
            TransformCodec::new(TransformKind::Fft, InnerPacker::BosB).label(),
            "BOS+FFT"
        );
    }
}
