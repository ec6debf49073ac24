//! Float ↔ integer scaling (`×10^p`).
//!
//! The paper: "Algorithms designed for integers, such as RLE, SPRINTZ and
//! TS2DIFF, first convert float into integer by scaling 10^p, where p is
//! the precision of the original floating-point data" (citing BUFF). The
//! synthetic float datasets in this reproduction are generated with a
//! fixed decimal precision, so the conversion is exactly invertible.

#![deny(clippy::indexing_slicing)]

/// Largest decimal precision we ever infer (10^15 still fits f64's 53-bit
/// mantissa for the magnitudes in the evaluation datasets).
pub const MAX_PRECISION: u32 = 10;

/// Why a float series cannot enter the scaled-integer pipeline — the
/// encode-side counterpart of [`bitpack::DecodeError`], so
/// `Pipeline::encode_f64` and `Pipeline::decode_f64` speak the same
/// `Result` dialect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FloatEncodeError {
    /// No `p ≤ MAX_PRECISION` reproduces every value exactly
    /// ([`infer_precision`] found nothing) — e.g. values using the full
    /// binary mantissa.
    NoExactScaling,
    /// A value scaled by `10^p` leaves `i64`'s exactly-representable range
    /// (or is non-finite).
    Overflow {
        /// The precision at which the scaling overflowed.
        precision: u32,
    },
}

impl std::fmt::Display for FloatEncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FloatEncodeError::NoExactScaling => {
                write!(f, "no exact decimal scaling with p <= {MAX_PRECISION}")
            }
            FloatEncodeError::Overflow { precision } => {
                write!(f, "scaled value exceeds i64 range at precision {precision}")
            }
        }
    }
}

impl std::error::Error for FloatEncodeError {}

/// `10^p` as f64.
#[inline]
fn pow10(p: u32) -> f64 {
    10f64.powi(p as i32)
}

/// Scales floats to integers by `10^p` with rounding.
///
/// Returns `None` if any scaled magnitude exceeds `i64`'s exact range —
/// callers should pick a smaller `p`.
pub fn floats_to_ints(values: &[f64], precision: u32) -> Option<Vec<i64>> {
    let scale = pow10(precision);
    values
        .iter()
        .map(|&v| {
            let scaled = (v * scale).round();
            if scaled.is_finite() && scaled.abs() < 9.0e18 {
                Some(scaled as i64)
            } else {
                None
            }
        })
        .collect()
}

/// Inverse of [`floats_to_ints`].
pub fn ints_to_floats(values: &[i64], precision: u32) -> Vec<f64> {
    let scale = pow10(precision);
    values.iter().map(|&v| v as f64 / scale).collect()
}

/// Smallest `p ≤ MAX_PRECISION` such that scaling by `10^p` loses nothing
/// (`ints_to_floats(floats_to_ints(x)) == x` bitwise on the values).
///
/// Returns `None` when no such precision exists (e.g. values using the full
/// binary mantissa); such series are not exactly representable in the
/// scaled-integer pipeline and the experiments treat them with the float
/// codecs instead.
pub fn infer_precision(values: &[f64]) -> Option<u32> {
    (0..=MAX_PRECISION).find(|&p| {
        let scale = pow10(p);
        values.iter().all(|&v| {
            let scaled = (v * scale).round();
            // Bit equality through the integer domain — float == would
            // accept −0.0 → 0.0, which is lossy.
            scaled.is_finite()
                && scaled.abs() < 9.0e18
                && ((scaled as i64) as f64 / scale).to_bits() == v.to_bits()
        })
    })
}

/// Scales a float series at its [`infer_precision`] into integers:
/// `(precision, ints)`, or why the series has no exact integer form.
pub fn scale(values: &[f64]) -> Result<(u32, Vec<i64>), FloatEncodeError> {
    let p = infer_precision(values).ok_or(FloatEncodeError::NoExactScaling)?;
    let ints = floats_to_ints(values, p).ok_or(FloatEncodeError::Overflow { precision: p })?;
    Ok((p, ints))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integral_floats_are_precision_zero() {
        let values = [1.0, -5.0, 1_000_000.0];
        assert_eq!(infer_precision(&values), Some(0));
        let ints = floats_to_ints(&values, 0).unwrap();
        assert_eq!(ints, vec![1, -5, 1_000_000]);
        assert_eq!(ints_to_floats(&ints, 0), values);
    }

    #[test]
    fn two_decimals_roundtrip() {
        let values = [1.25, -3.5, 0.01, 99.99];
        let p = infer_precision(&values).unwrap();
        assert!(p <= 2 + 14); // representability, not exact decimality
        let ints = floats_to_ints(&values, p).unwrap();
        let back = ints_to_floats(&ints, p);
        assert_eq!(back, values);
    }

    #[test]
    fn overflow_is_none() {
        assert!(floats_to_ints(&[1e300], 0).is_none());
        assert!(floats_to_ints(&[1e18], 5).is_none());
        assert!(floats_to_ints(&[f64::NAN], 0).is_none());
        assert!(floats_to_ints(&[f64::INFINITY], 0).is_none());
    }

    #[test]
    fn infer_rejects_full_mantissa() {
        // A value needing the whole binary mantissa has no decimal scaling.
        let awkward = [std::f64::consts::PI];
        assert_eq!(infer_precision(&awkward), None);
    }

    #[test]
    fn generated_fixed_precision_data_roundtrips() {
        // Values quantized to 3 decimals, like the synthetic datasets.
        let values: Vec<f64> = (0..1000)
            .map(|i| (i as f64 * 7.001).round() / 1000.0 * 8.0)
            .collect();
        // Quantize to exactly 3 decimals first.
        let values: Vec<f64> = values
            .iter()
            .map(|v| (v * 1000.0).round() / 1000.0)
            .collect();
        let p = infer_precision(&values).expect("3-decimal data is representable");
        let ints = floats_to_ints(&values, p).unwrap();
        assert_eq!(ints_to_floats(&ints, p), values);
    }
}
