//! Internal helpers shared by the conv kernels.

/// Valid kernel-tap range `[lo, hi)` for output position `o`: taps `k` with
/// `0 <= o*stride + k - pad < extent`.
#[inline]
pub(crate) fn tap_range(
    o: usize,
    stride: usize,
    pad: usize,
    ksize: usize,
    extent: usize,
) -> (usize, usize) {
    let base = o * stride;
    let lo = pad.saturating_sub(base).min(ksize);
    let hi = (extent + pad - base).min(ksize);
    (lo, hi.max(lo))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tap_range_interior() {
        // extent 8, k 3, pad 1, stride 1: interior position sees all taps.
        assert_eq!(tap_range(3, 1, 1, 3, 8), (0, 3));
    }

    #[test]
    fn tap_range_left_edge() {
        // o=0: tap 0 would read index -1 -> clipped.
        assert_eq!(tap_range(0, 1, 1, 3, 8), (1, 3));
    }

    #[test]
    fn tap_range_right_edge() {
        // o=7: tap 2 would read index 8 -> clipped.
        assert_eq!(tap_range(7, 1, 1, 3, 8), (0, 2));
    }

    #[test]
    fn tap_range_strided() {
        // stride 2, k 3, pad 1, extent 8; o=4 reads base 8: taps {0} would
        // be index 7, taps beyond extent clipped.
        let (lo, hi) = tap_range(4, 2, 1, 3, 8);
        assert!(lo < hi);
        for k in lo..hi {
            let idx = 4 * 2 + k;
            assert!(idx >= 1 && idx - 1 < 8);
        }
    }
}
