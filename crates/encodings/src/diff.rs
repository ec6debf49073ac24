//! Differencing transforms of arbitrary order.
//!
//! TS2DIFF's name comes from IoTDB's `TS_2DIFF` encoding, which supports
//! second-order differencing (delta-of-delta) — ideal for series with a
//! linear trend (timestamps above all), where first-order deltas are still
//! large but second-order ones collapse to noise. This module provides
//! order-k differencing as a reusable transform; `Ts2DiffEncoding` uses
//! order 1 by default and higher orders via
//! [`Ts2DiffEncoding::with_options`](crate::ts2diff::Ts2DiffEncoding::with_options).
//!
//! All arithmetic is wrapping, so the transform is a bijection on `i64`
//! sequences and the inverse is exact for any input.

#![deny(clippy::indexing_slicing)]

/// Applies `order` rounds of wrapping differencing in place.
///
/// After the call, `values[..order]` hold the original heads needed for
/// reconstruction and `values[order..]` hold the order-k differences.
pub fn diff_in_place(values: &mut [i64], order: usize) {
    for round in 0..order {
        if values.len() <= round + 1 {
            continue; // nothing to difference at this depth
        }
        // Forward pass carrying the pre-difference predecessor; equivalent
        // to differencing from the back, without re-reading updated slots.
        let mut iter = values.iter_mut().skip(round);
        let Some(first) = iter.next() else { continue };
        let mut prev = *first;
        for v in iter {
            let cur = *v;
            *v = cur.wrapping_sub(prev);
            prev = cur;
        }
    }
}

/// Inverse of [`diff_in_place`]: `order` rounds of prefix summation.
pub fn undiff_in_place(values: &mut [i64], order: usize) {
    for round in (0..order).rev() {
        if values.len() <= round + 1 {
            continue; // rounds below this depth still apply
        }
        // Running prefix sum seeded by the head value of this round.
        let mut iter = values.iter_mut().skip(round);
        let Some(first) = iter.next() else { continue };
        let mut acc = *first;
        for v in iter {
            acc = acc.wrapping_add(*v);
            *v = acc;
        }
    }
}

/// Convenience: the order-k difference series of `values` (allocating).
pub fn diff(values: &[i64], order: usize) -> Vec<i64> {
    let mut v = values.to_vec();
    diff_in_place(&mut v, order);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(values: &[i64], order: usize) {
        let mut v = values.to_vec();
        diff_in_place(&mut v, order);
        undiff_in_place(&mut v, order);
        assert_eq!(v, values, "order {order}");
    }

    #[test]
    fn first_order_matches_manual_deltas() {
        let mut v = vec![5i64, 8, 6, 6, 10];
        diff_in_place(&mut v, 1);
        assert_eq!(v, vec![5, 3, -2, 0, 4]);
        undiff_in_place(&mut v, 1);
        assert_eq!(v, vec![5, 8, 6, 6, 10]);
    }

    #[test]
    fn second_order_collapses_linear_trends() {
        // x_i = 7i + 3: first diffs constant 7, second diffs zero.
        let values: Vec<i64> = (0..100).map(|i| 7 * i + 3).collect();
        let d = diff(&values, 2);
        assert_eq!(d[0], 3);
        assert_eq!(d[1], 7);
        assert!(d[2..].iter().all(|&x| x == 0));
    }

    #[test]
    fn second_order_collapses_quadratics_at_order_three() {
        let values: Vec<i64> = (0..50).map(|i| i * i).collect();
        let d3 = diff(&values, 3);
        assert!(d3[3..].iter().all(|&x| x == 0), "{d3:?}");
        let d2 = diff(&values, 2);
        assert!(d2[2..].iter().all(|&x| x == 2));
    }

    #[test]
    fn roundtrips_all_orders_and_lengths() {
        let base: Vec<i64> = vec![i64::MAX, i64::MIN, 0, 17, -17, 1 << 40, -(1 << 40), 3];
        for order in 0..5 {
            for len in 0..base.len() {
                roundtrip(&base[..len], order);
            }
        }
    }

    #[test]
    fn wrapping_is_exact_on_extremes() {
        let values = vec![i64::MIN, i64::MAX, i64::MIN, i64::MAX];
        roundtrip(&values, 1);
        roundtrip(&values, 2);
        roundtrip(&values, 3);
    }

    #[test]
    fn order_zero_is_identity() {
        let values = vec![1i64, 2, 3];
        assert_eq!(diff(&values, 0), values);
    }
}
