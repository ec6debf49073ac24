//! Bit-width arithmetic used throughout the cost model.
//!
//! The paper writes `⌈log(x + 1)⌉` (base 2) for the number of bits needed to
//! store any value in `0..=x`. Two variants are needed:
//!
//! * [`width`] — the plain `⌈log2(x+1)⌉`, which is 0 for `x = 0`. Used by the
//!   no-separation baseline (Definition 1), where a constant block stores no
//!   payload at all.
//! * [`width1`] — `max(1, ⌈log2(x+1)⌉)`, the width of a *separated part*.
//!   The special cases listed after Definition 5 ("if `max Xl = xmin` the
//!   first term is `2·nl`", "if `max Xc = min Xc` the third term is
//!   `n − nl − nu`") show that each non-empty part pays at least one bit per
//!   value, which is what the deployed encoder does.

#![deny(clippy::cast_possible_truncation)]

/// `⌈log2(range + 1)⌉`: bits needed for any value in `0..=range`.
///
/// ```
/// assert_eq!(bitpack::width(0), 0);
/// assert_eq!(bitpack::width(1), 1);
/// assert_eq!(bitpack::width(8), 4);   // the example from the paper's intro
/// assert_eq!(bitpack::width(u64::MAX), 64);
/// ```
#[inline]
pub fn width(range: u64) -> u32 {
    64 - range.leading_zeros()
}

/// `max(1, ⌈log2(range + 1)⌉)`: width of a non-empty separated part.
#[inline]
pub fn width1(range: u64) -> u32 {
    width(range).max(1)
}

/// Bits needed to store the single value `v` with leading zeros removed
/// (`⌈log2(v + 1)⌉`). Alias of [`width`] with value semantics, matching the
/// paper's "the bit-width of 8 is 4".
#[inline]
pub fn bit_width(v: u64) -> u32 {
    width(v)
}

/// The unsigned distance `hi − lo` of two signed values, exact for the whole
/// `i64` domain (no overflow).
///
/// The cost model only ever consumes ranges, so blocks of `i64` values are
/// handled by mapping every pair to its `u64` distance.
#[inline]
pub fn range_u64(lo: i64, hi: i64) -> u64 {
    debug_assert!(lo <= hi);
    hi.wrapping_sub(lo) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width_small_values() {
        assert_eq!(width(0), 0);
        assert_eq!(width(1), 1);
        assert_eq!(width(2), 2);
        assert_eq!(width(3), 2);
        assert_eq!(width(4), 3);
        assert_eq!(width(7), 3);
        assert_eq!(width(8), 4);
        assert_eq!(width(255), 8);
        assert_eq!(width(256), 9);
    }

    #[test]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "x < 4096, so w <= 12 and 2^(w - 1) fits u64"
    )]
    fn width_is_ceil_log2_plus_one_domain() {
        for x in 0..4096u64 {
            let w = width(x);
            if x == 0 {
                assert_eq!(w, 0);
            } else {
                assert!(u128::from(x) < (1u128 << w));
                assert!(x > (1u128 << (w - 1)) as u64 - 1);
            }
        }
    }

    #[test]
    fn width1_floors_at_one() {
        assert_eq!(width1(0), 1);
        assert_eq!(width1(1), 1);
        assert_eq!(width1(2), 2);
        assert_eq!(width1(u64::MAX), 64);
    }

    #[test]
    fn range_u64_extremes() {
        assert_eq!(range_u64(i64::MIN, i64::MAX), u64::MAX);
        assert_eq!(range_u64(-1, 1), 2);
        assert_eq!(range_u64(5, 5), 0);
        assert_eq!(range_u64(i64::MIN, 0), 1u64 << 63);
    }

    #[test]
    fn paper_intro_example() {
        // X = (3,2,4,5,3,2,0,8): plain bit-packing needs width(8) = 4 bits.
        assert_eq!(width(8), 4);
        // After removing 0 and 8 and subtracting min 2: range 3, width 2.
        assert_eq!(width(5 - 2), 2);
    }
}
