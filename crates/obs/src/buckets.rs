//! Log-bucket index math shared by [`Histogram`](crate::Histogram) and
//! its snapshot type.
//!
//! The layout is a sub-bucketed base-2 logarithm: each octave `[2^k, 2^(k+1))`
//! splits into 4 equal sub-buckets, bounding the relative quantization error
//! at 25 %. Values below 4 get exact unit buckets. Indices are a pure
//! function of the value — no state, no rounding mode — which is what makes
//! cross-shard histogram merge exact.

/// Number of distinct bucket indices ([`index`] maps every `u64` into
/// `0..COUNT`).
pub const COUNT: usize = 252;

/// Sub-bucket resolution: each power-of-two octave splits into
/// `1 << SUB_BITS` buckets.
const SUB_BITS: u32 = 2;

/// Bucket index for a recorded value.
#[inline]
pub fn index(v: u64) -> usize {
    if v < 4 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let sub = ((v >> (msb - SUB_BITS)) - (1 << SUB_BITS)) as usize;
    4 + (msb as usize - SUB_BITS as usize) * (1 << SUB_BITS) + sub
}

/// Largest value that maps to bucket `idx` (the bucket's inclusive upper
/// bound). Percentile reads resolve to this bound, so a reported quantile
/// is at most 25 % above the true value.
#[inline]
pub fn upper_bound(idx: usize) -> u64 {
    debug_assert!(idx < COUNT, "bucket index {idx} out of range");
    if idx < 4 {
        return idx as u64;
    }
    let msb = (SUB_BITS as usize + (idx - 4) / (1 << SUB_BITS)) as u32;
    let sub = ((idx - 4) % (1 << SUB_BITS)) as u64;
    let top = ((1 << SUB_BITS) + sub + 1) as u128;
    let bound = (top << (msb - SUB_BITS)) - 1;
    u64::try_from(bound).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_get_unit_buckets() {
        for v in 0..4u64 {
            assert_eq!(index(v), v as usize);
            assert_eq!(upper_bound(v as usize), v);
        }
    }

    #[test]
    fn indices_are_monotone_and_in_range() {
        let mut last = 0usize;
        for v in [0u64, 1, 3, 4, 5, 7, 8, 9, 100, 1 << 20, u64::MAX / 2, u64::MAX] {
            let idx = index(v);
            assert!(idx < COUNT, "index {idx} for {v} out of range");
            assert!(idx >= last, "index not monotone at {v}");
            last = idx;
        }
        assert_eq!(index(u64::MAX), COUNT - 1);
    }

    #[test]
    fn upper_bound_is_inclusive_and_tight() {
        for idx in 0..COUNT {
            let ub = upper_bound(idx);
            assert_eq!(index(ub), idx, "upper bound of {idx} maps elsewhere");
            if ub < u64::MAX {
                assert!(index(ub + 1) > idx, "bound of {idx} not tight");
            }
        }
    }

    #[test]
    fn relative_error_is_bounded() {
        for v in [4u64, 10, 100, 12345, 1 << 30, 1 << 50] {
            let ub = upper_bound(index(v));
            assert!(ub >= v);
            assert!((ub - v) as f64 <= 0.25 * v as f64, "error too large at {v}: bound {ub}");
        }
    }
}
