//! Floating-point helpers: the geometric tolerance and a totally ordered
//! `f64` wrapper for use in heaps and sort keys.

/// Absolute tolerance used for geometric predicates throughout the library.
///
/// Indoor coordinates are metres; 1e-9 m is far below any physically
/// meaningful resolution while staying well above `f64` rounding noise for
/// building-scale magnitudes (≤ 10^4 m).
pub(crate) const EPSILON: f64 = 1e-9;

/// A totally ordered `f64` for binary heaps and deterministic sorting.
///
/// Ordering follows [`f64::total_cmp`]; NaNs sort after all other values, but
/// the library never produces NaN distances (all inputs are finite and
/// distances are sums of square roots of non-negative numbers).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OrdF64(pub f64);

impl Eq for OrdF64 {}

impl Ord for OrdF64 {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl PartialOrd for OrdF64 {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl From<f64> for OrdF64 {
    #[inline]
    fn from(v: f64) -> Self {
        OrdF64(v)
    }
}

impl std::fmt::Display for OrdF64 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::rect::Rect2;

    /// Returns `true` when `a` and `b` differ by at most [`EPSILON`].
    pub(crate) fn approx_eq(a: f64, b: f64) -> bool {
        (a - b).abs() <= EPSILON
    }

    /// Overlap area of two rectangles (0 when disjoint).
    pub(crate) fn overlap_area(a: &Rect2, b: &Rect2) -> f64 {
        let w = a.hi.x.min(b.hi.x) - a.lo.x.max(b.lo.x);
        let h = a.hi.y.min(b.hi.y) - a.lo.y.max(b.lo.y);
        w.max(0.0) * h.max(0.0)
    }

    #[test]
    fn ordf64_orders_totally() {
        let mut v = vec![OrdF64(3.0), OrdF64(-1.0), OrdF64(2.5)];
        v.sort();
        assert_eq!(v, vec![OrdF64(-1.0), OrdF64(2.5), OrdF64(3.0)]);
    }

    #[test]
    fn ordf64_works_in_heap() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut h = BinaryHeap::new();
        h.push(Reverse(OrdF64(2.0)));
        h.push(Reverse(OrdF64(1.0)));
        h.push(Reverse(OrdF64(3.0)));
        assert_eq!(h.pop().unwrap().0, OrdF64(1.0));
    }
}
