//! Irregular-partition decomposition into index units (Algorithm 3).
//!
//! Long, thin, or non-convex partitions cause dead space in tree nodes and
//! degrade query performance (§III-A.2). The paper decomposes such
//! partitions into *index units*: regions whose short-side/long-side ratio
//! is at least `T_shape`, cutting concave partitions at turning points
//! (reflex vertices) first.
//!
//! Our implementation follows the two criteria of Algorithm 3:
//!
//! 1. **Concavity cuts** — a non-convex rectilinear partition is sliced into
//!    rectangles at its reflex vertices ([`crate::Polygon::rectangles`]:
//!    slab decomposition followed by a merge pass, which realizes the
//!    paper's "prefer turning points closer to the middle" goal of producing
//!    large quadratic pieces).
//! 2. **Imbalance cuts** — each rectangle whose aspect ratio is below
//!    `T_shape` is split recursively at the midpoint of its longer
//!    dimension (lines 9–13 of Algorithm 3) until the ratio reaches the
//!    threshold, or no further midpoint halving can improve it (a halving
//!    improves the ratio iff `long > short·√2`; we stop at the optimum, so
//!    for `T_shape > ~0.94` units converge to the best achievable ratio
//!    instead of looping forever).
//!
//! Non-rectilinear partitions (e.g. polygonized circles) fall back to their
//! bounding rectangle before the imbalance cuts — a conservative choice that
//! only ever *over*-covers space, so index correctness (no false negatives)
//! is preserved.

use crate::polygon::Polygon;
use crate::rect::Rect2;

/// Parameters of the decomposition.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DecomposeConfig {
    /// Minimum acceptable short/long side ratio of an index unit
    /// (the paper's `T_shape`; its experiments use 0.5).
    pub t_shape: f64,
    /// Hard cap on produced units per partition, guarding against
    /// pathological thresholds. 256 is far above anything the paper's
    /// workloads produce.
    pub max_units: usize,
}

impl Default for DecomposeConfig {
    fn default() -> Self {
        DecomposeConfig {
            t_shape: 0.5,
            max_units: 256,
        }
    }
}

/// Decomposes a partition footprint into index units.
///
/// The result is non-empty, covers the polygon (exactly for rectilinear
/// input, conservatively via the bounding box otherwise), and every unit's
/// aspect ratio is `≥ min(t_shape, best achievable by midpoint halving)`.
pub fn decompose(footprint: &Polygon, config: &DecomposeConfig) -> Vec<Rect2> {
    let base = match footprint.rectangles() {
        Some(rects) if !rects.is_empty() => rects,
        _ => vec![footprint.bbox()],
    };
    let mut out = Vec::with_capacity(base.len());
    for r in base {
        split_to_shape(r, config, &mut out);
    }
    out
}

/// Decomposes a plain rectangle (fast path used for regular rooms).
pub fn decompose_rect(rect: Rect2, config: &DecomposeConfig) -> Vec<Rect2> {
    let mut out = Vec::new();
    split_to_shape(rect, config, &mut out);
    out
}

/// Iterative imbalance cut (Algorithm 3, lines 9–13).
///
/// Worklist form so the `max_units` cap is exact: once the finished units
/// plus the pending pieces reach the cap, every pending piece is emitted
/// unsplit.
fn split_to_shape(rect: Rect2, config: &DecomposeConfig, out: &mut Vec<Rect2>) {
    let mut stack = vec![rect];
    while let Some(r) = stack.pop() {
        if out.len() + stack.len() + 1 >= config.max_units {
            out.push(r);
            continue;
        }
        let (w, h) = (r.width(), r.height());
        let (short, long) = if w < h { (w, h) } else { (h, w) };
        let ratio = if long <= 0.0 { 1.0 } else { short / long };
        // A midpoint halving of the long side improves the ratio iff long/2
        // is still closer to `short` than `long` is, i.e. long > short·√2.
        let improvable = long > short * std::f64::consts::SQRT_2;
        if ratio >= config.t_shape || !improvable {
            out.push(r);
            continue;
        }
        let halves = if w >= h {
            r.split_at_x((r.lo.x + r.hi.x) / 2.0)
        } else {
            r.split_at_y((r.lo.y + r.hi.y) / 2.0)
        };
        match halves {
            Some((a, b)) => {
                stack.push(a);
                stack.push(b);
            }
            None => out.push(r), // numerically unsplittable sliver
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point2;

    fn cfg(t: f64) -> DecomposeConfig {
        DecomposeConfig {
            t_shape: t,
            ..DecomposeConfig::default()
        }
    }

    #[test]
    fn square_is_untouched() {
        let r = Rect2::from_bounds(0.0, 0.0, 10.0, 10.0);
        assert_eq!(decompose_rect(r, &cfg(0.5)), vec![r]);
    }

    #[test]
    fn hallway_splits_into_balanced_units() {
        // A 600 m × 10 m corridor, the paper's canonical imbalanced case.
        let r = Rect2::from_bounds(0.0, 0.0, 600.0, 10.0);
        let units = decompose_rect(r, &cfg(0.5));
        assert!(units.len() > 1);
        let total: f64 = units.iter().map(|u| u.area()).sum();
        assert!((total - r.area()).abs() < 1e-6);
        for u in &units {
            assert!(
                u.aspect_ratio() >= 0.5 - 1e-9,
                "unit {u} ratio {}",
                u.aspect_ratio()
            );
        }
    }

    #[test]
    fn vertical_strip_splits_along_y() {
        let r = Rect2::from_bounds(0.0, 0.0, 5.0, 80.0);
        let units = decompose_rect(r, &cfg(0.5));
        assert!(units.len() >= 8);
        for u in &units {
            assert!(u.aspect_ratio() >= 0.5 - 1e-9);
        }
    }

    #[test]
    fn l_shaped_hallway_units_cover_polygon() {
        let p = Polygon::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(60.0, 0.0),
            Point2::new(60.0, 6.0),
            Point2::new(6.0, 6.0),
            Point2::new(6.0, 60.0),
            Point2::new(0.0, 60.0),
        ])
        .unwrap();
        let units = decompose(&p, &cfg(0.5));
        let total: f64 = units.iter().map(|u| u.area()).sum();
        assert!((total - p.area()).abs() < 1e-6, "area preserved exactly");
        for u in &units {
            assert!(u.aspect_ratio() >= 0.5 - 1e-9);
            assert!(p.contains(u.center()));
        }
        // Units are pairwise disjoint.
        for i in 0..units.len() {
            for j in (i + 1)..units.len() {
                assert!(crate::fp::tests::overlap_area(&units[i], &units[j]) < 1e-9);
            }
        }
    }

    #[test]
    fn non_rectilinear_falls_back_to_bbox() {
        let p = Polygon::new(vec![
            Point2::new(0.0, 0.0),
            Point2::new(10.0, 0.0),
            Point2::new(0.0, 10.0),
        ])
        .unwrap();
        let units = decompose(&p, &DecomposeConfig::default());
        // bbox of the triangle is a square: one unit.
        assert_eq!(units.len(), 1);
        assert!(units[0].contains_rect(&p.bbox()));
    }

    #[test]
    fn extreme_threshold_terminates() {
        // T_shape close to 1 cannot always be met; the recursion must stop
        // at the best achievable ratio rather than looping.
        let r = Rect2::from_bounds(0.0, 0.0, 420.0, 10.0);
        let units = decompose_rect(r, &cfg(0.95));
        assert!(!units.is_empty());
        let total: f64 = units.iter().map(|u| u.area()).sum();
        assert!((total - r.area()).abs() < 1e-6);
        for u in &units {
            // Midpoint halving guarantees at least 1/√2 ≈ 0.707 at the
            // stopping point.
            assert!(u.aspect_ratio() >= std::f64::consts::FRAC_1_SQRT_2 - 1e-9);
        }
    }

    #[test]
    fn unit_cap_is_respected() {
        let r = Rect2::from_bounds(0.0, 0.0, 1.0e6, 1.0);
        let config = DecomposeConfig {
            t_shape: 0.5,
            max_units: 16,
        };
        let units = decompose_rect(r, &config);
        assert!(units.len() <= 16);
        let total: f64 = units.iter().map(|u| u.area()).sum();
        assert!((total - r.area()).abs() / r.area() < 1e-9);
    }
}
