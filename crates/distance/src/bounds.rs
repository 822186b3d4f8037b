//! Upper and lower bounds for indoor distances (§II-D).
//!
//! The query pipeline prunes objects with cheap bounds before computing any
//! exact expected distance. Every bound here reads an object only through
//! its [`SubregionSummary`] entries — partition, mass, bounding box — and
//! never its instances: the query path passes the object's memoised
//! summary, the monitors a view of their own decomposition
//! ([`Subregions::summaries`](idq_objects::Subregions::summaries)).
//!
//! * [`subregion_bounds`] — per-subregion topological bounds (the
//!   ingredients of Lemmas 1–2 / Eq. 7), built from door distances plus the
//!   subregion's bounding box;
//! * [`object_bounds`] — the Table III dispatch: topological bounds for
//!   single-partition objects, probabilistic (mass-weighted) bounds for
//!   multi-partition objects.
//!
//! The unit tests check the mass-weighted bounds against Lemma 5's printed
//! two-group form.
//!
//! ### Soundness note (restricted door distances)
//!
//! All bounds are sound when computed from **full-graph** door distances.
//! A *banded* context (subgraph phase) may over-estimate or miss the
//! doors beyond its [exit horizon](DoorDistances::exit_horizon), which
//! preserves upper bounds but could inflate a lower bound. So
//! [`subregion_bounds`] clamps each lower bound at the exit horizon — any
//! route leaving the band costs at least that much — and reports the
//! clamp ([`SubregionBounds::clamped`], [`ObjectBounds::clamped`]). A
//! bound that was not clamped equals the complete context's bound bit for
//! bit: it is attained through a door at or below the exit horizon, where
//! banded distances are exact, and every door a banded context lacks lies
//! beyond it. `ikNNQ` re-keys an object whose bound was clamped once its
//! context has grown; the oracle-equivalence tests verify the end-to-end
//! guarantee.

use crate::dijkstra::DoorDistances;
use idq_model::IndoorSpace;
use idq_objects::SubregionSummary;

/// Which bound family produced an [`ObjectBounds`] (Table III).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BoundKind {
    /// Single-partition object: topological bounds (Eq. 7).
    Topological,
    /// Multi-partition object: probabilistic bounds (Eq. 8).
    Probabilistic,
}

/// Lower/upper bounds on the expected indoor distance of one object.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ObjectBounds {
    /// Lower bound (`O.l` in Algorithm 1/2).
    pub lower: f64,
    /// Upper bound (`O.u`).
    pub upper: f64,
    /// Which family applied.
    pub(crate) kind: BoundKind,
    /// Some subregion's lower bound was clamped at the context's exit
    /// horizon, so a wider context may raise `lower`.
    pub clamped: bool,
}

/// Topological bounds for one subregion: `t_min(S[i])` and `t_max(S[i])`
/// of Lemmas 1–2, carrying the subregion's probability mass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct SubregionBounds {
    /// Lower bound on the indoor distance of *every* instance in the
    /// subregion.
    pub(crate) lower: f64,
    /// Upper bound on the indoor distance of every instance.
    pub(crate) upper: f64,
    /// Probability mass of the subregion.
    pub(crate) prob: f64,
    /// `lower` was clamped at the context's exit horizon.
    pub(crate) clamped: bool,
}

/// Computes `t_min` / `t_max` for one subregion from door distances:
/// `min over entry doors d of (|q ⇝ d| + |d, S|_{min/max E})`, including
/// the direct intra-partition route when the subregion shares the query's
/// partition.
///
/// For multi-floor partitions (staircases) a vertical walking slack is
/// added to the upper side, since planar bounding-box distances
/// under-estimate the cross-floor intra-partition metric.
pub(crate) fn subregion_bounds(
    space: &IndoorSpace,
    dd: &DoorDistances,
    sub: &SubregionSummary,
) -> SubregionBounds {
    let pid = sub.partition;
    let Ok(partition) = space.partition(pid) else {
        return SubregionBounds {
            lower: f64::INFINITY,
            upper: f64::INFINITY,
            prob: sub.prob,
            clamped: false,
        };
    };
    let z_slack = vertical_slack(space, partition.floor_lo, partition.floor_hi);

    let mut lower = f64::INFINITY;
    let mut upper = f64::INFINITY;
    if pid == dd.source_partition {
        lower = lower.min(sub.bbox.min_dist(dd.query.point));
        upper = upper.min(sub.bbox.max_dist(dd.query.point) + z_slack);
    }
    for &d in &partition.doors {
        if !space.can_enter(d, pid) {
            continue;
        }
        let w = dd.door_distance(d);
        if !w.is_finite() {
            continue;
        }
        let p = space.door_point(d).expect("active entry door").point;
        lower = lower.min(w + sub.bbox.min_dist(p));
        upper = upper.min(w + sub.bbox.max_dist(p) + z_slack);
    }
    // Truncation safety: a banded (horizon-restricted) context reports
    // doors past its horizon as unreachable, and the loop above skips
    // them — which can push this minimum past what a truncated-away
    // route actually achieves. Any route leaving the banded region costs
    // at least the context's exit horizon, so the horizon itself is
    // always a valid floor for `t_min`: clamp rather than trust an
    // inflated minimum. (`upper` needs no clamp — dropping routes or
    // inflating their cost only loosens an upper bound, never
    // invalidates it. Complete contexts have exit horizon ∞: no-op.)
    let clamped = lower > dd.exit_horizon();
    SubregionBounds {
        lower: lower.min(dd.exit_horizon()),
        upper,
        prob: sub.prob,
        clamped,
    }
}

/// The Table III dispatch: bounds on the expected indoor distance.
///
/// * one subregion → **topological** bounds (Eq. 7): `[t_min, t_max]`;
/// * several subregions → **probabilistic** bounds: the mass-weighted
///   combination `[Σ p_j·t_min(S_j), Σ p_j·t_max(S_j)]`, the sound
///   realisation of Lemma 5 (it uses exactly the per-subregion probability
///   information §II-D.3 calls for, and is never looser than the printed
///   two-group form, which the unit tests check).
///
/// `summary` is the object's subregion summary, in
/// [`Subregions`](idq_objects::Subregions) order; nothing is allocated.
pub fn object_bounds<'s>(
    space: &IndoorSpace,
    dd: &DoorDistances,
    summary: impl IntoIterator<Item = &'s SubregionSummary>,
) -> ObjectBounds {
    let mut first = None;
    let mut count = 0;
    let mut lower = 0.0;
    let mut upper = 0.0;
    let mut clamped = false;
    for sub in summary {
        let b = subregion_bounds(space, dd, sub);
        lower += b.prob * b.lower;
        upper += b.prob * b.upper;
        clamped |= b.clamped;
        first.get_or_insert(b);
        count += 1;
    }
    match first {
        Some(b) if count == 1 => ObjectBounds {
            lower: b.lower,
            upper: b.upper,
            kind: BoundKind::Topological,
            clamped,
        },
        _ => ObjectBounds {
            lower,
            upper,
            kind: BoundKind::Probabilistic,
            clamped,
        },
    }
}

/// Vertical walking slack for a multi-floor partition: the worst-case cost
/// of floor changes that planar bounding-box distances miss.
fn vertical_slack(space: &IndoorSpace, floor_lo: u16, floor_hi: u16) -> f64 {
    if floor_hi > floor_lo {
        (floor_hi - floor_lo) as f64 * space.floor_height() * space.stair_walk_factor()
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::DoorDistances;
    use crate::expected::expected_indoor_distance_naive;
    use idq_geom::{Circle, Point2, Rect2};
    use idq_model::{DoorsGraph, FloorPlanBuilder, IndoorPoint};
    use idq_objects::{ObjectId, Subregions, UncertainObject};

    /// Lemma 5 / Eq. 8 in its printed two-group shape, with the paper's
    /// applicability condition (a split index where the near group's upper
    /// bounds separate from the far group's lower bounds) and split heuristic
    /// (prefer large `i` for the lower bound, small `i` for the upper bound).
    ///
    /// Returns `None` when no separating split exists (all subregion ranges
    /// overlap) — callers fall back to the topological bounds, exactly as
    /// §II-D.3 prescribes.
    fn lemma5_bounds(bounds: &[SubregionBounds]) -> Option<(f64, f64)> {
        if bounds.len() < 2 {
            return None;
        }
        let mut sorted: Vec<&SubregionBounds> = bounds.iter().collect();
        sorted.sort_by(|a, b| a.lower.total_cmp(&b.lower));
        let n = sorted.len();
        let mut lower_best: Option<f64> = None;
        let mut upper_best: Option<f64> = None;
        let mut prefix_mass = 0.0;
        let mut prefix_hi_max: f64 = 0.0;
        let mut prefix_lo_min = f64::INFINITY;
        for i in 0..n - 1 {
            prefix_mass += sorted[i].prob;
            prefix_hi_max = prefix_hi_max.max(sorted[i].upper);
            prefix_lo_min = prefix_lo_min.min(sorted[i].lower);
            let far = &sorted[i + 1..];
            let far_lo_min = far.iter().map(|b| b.lower).fold(f64::INFINITY, f64::min);
            let far_hi_max = far.iter().map(|b| b.upper).fold(0.0, f64::max);
            if prefix_hi_max <= far_lo_min {
                let p_hat = prefix_mass;
                let lb = p_hat * prefix_lo_min + (1.0 - p_hat) * far_lo_min;
                let ub = p_hat * prefix_hi_max + (1.0 - p_hat) * far_hi_max;
                // Heuristic: the last feasible split wins for the lower bound,
                // the first feasible split for the upper bound.
                lower_best = Some(lb);
                if upper_best.is_none() {
                    upper_best = Some(ub);
                }
            }
        }
        match (lower_best, upper_best) {
            (Some(l), Some(u)) => Some((l, u)),
            _ => None,
        }
    }

    /// Three rooms in a row plus a far room, giving multi-partition
    /// objects and non-trivial masses.
    fn space() -> (IndoorSpace, DoorsGraph) {
        let mut b = FloorPlanBuilder::new(4.0);
        let r0 = b
            .add_room(0, Rect2::from_bounds(0.0, 0.0, 10.0, 10.0))
            .unwrap();
        let r1 = b
            .add_room(0, Rect2::from_bounds(10.0, 0.0, 20.0, 10.0))
            .unwrap();
        let r2 = b
            .add_room(0, Rect2::from_bounds(20.0, 0.0, 30.0, 10.0))
            .unwrap();
        let r3 = b
            .add_room(0, Rect2::from_bounds(30.0, 0.0, 40.0, 10.0))
            .unwrap();
        b.add_door_between(r0, r1, Point2::new(10.0, 5.0)).unwrap();
        b.add_door_between(r1, r2, Point2::new(20.0, 5.0)).unwrap();
        b.add_door_between(r2, r3, Point2::new(30.0, 5.0)).unwrap();
        let s = b.finish().unwrap();
        let g = DoorsGraph::build(&s);
        (s, g)
    }

    fn multi_part_object() -> UncertainObject {
        UncertainObject::with_uniform_weights(
            ObjectId(1),
            Circle::new(Point2::new(20.0, 5.0), 10.0),
            0,
            vec![
                Point2::new(12.0, 5.0), // r1
                Point2::new(15.0, 3.0), // r1
                Point2::new(25.0, 5.0), // r2
                Point2::new(35.0, 5.0), // r3
            ],
        )
        .unwrap()
    }

    fn q() -> IndoorPoint {
        IndoorPoint::new(Point2::new(2.0, 5.0), 0)
    }

    #[test]
    fn bounds_sandwich_the_exact_distance() {
        let (s, g) = space();
        let o = multi_part_object();
        let dd = DoorDistances::compute(&s, &g, q()).unwrap();
        let subs = Subregions::compute(&o, &s).unwrap();
        let b = object_bounds(&s, &dd, subs.summaries());
        let exact = expected_indoor_distance_naive(&s, &dd, &o);
        assert!(b.lower <= exact + 1e-9, "lower {} exact {exact}", b.lower);
        assert!(b.upper >= exact - 1e-9, "upper {} exact {exact}", b.upper);
        assert_eq!(b.kind, BoundKind::Probabilistic);
    }

    #[test]
    fn single_partition_uses_topological_bounds() {
        let (s, g) = space();
        let o = UncertainObject::with_uniform_weights(
            ObjectId(2),
            Circle::new(Point2::new(15.0, 5.0), 2.0),
            0,
            vec![Point2::new(14.0, 5.0), Point2::new(16.0, 6.0)],
        )
        .unwrap();
        let dd = DoorDistances::compute(&s, &g, q()).unwrap();
        let subs = Subregions::compute(&o, &s).unwrap();
        let b = object_bounds(&s, &dd, subs.summaries());
        assert_eq!(b.kind, BoundKind::Topological);
        let exact = expected_indoor_distance_naive(&s, &dd, &o);
        assert!(b.lower <= exact && exact <= b.upper);
    }

    #[test]
    fn lemma5_is_sound_but_no_tighter_than_weighted() {
        let (s, g) = space();
        let o = multi_part_object();
        let dd = DoorDistances::compute(&s, &g, q()).unwrap();
        let subs = Subregions::compute(&o, &s).unwrap();
        let per: Vec<SubregionBounds> = subs
            .summaries()
            .map(|x| subregion_bounds(&s, &dd, x))
            .collect();
        let exact = expected_indoor_distance_naive(&s, &dd, &o);
        if let Some((l5, u5)) = lemma5_bounds(&per) {
            assert!(l5 <= exact + 1e-9);
            assert!(u5 >= exact - 1e-9);
            let weighted = object_bounds(&s, &dd, subs.summaries());
            assert!(weighted.lower >= l5 - 1e-9, "weighted LB at least as tight");
            assert!(weighted.upper <= u5 + 1e-9, "weighted UB at least as tight");
        }
    }

    #[test]
    fn unreachable_subregion_pushes_bounds_to_infinity() {
        let (mut s, _) = space();
        // Close the r2–r3 door: instances in r3 become unreachable.
        let d = s.doors().find(|d| d.position.x == 30.0).unwrap().id;
        s.close_door(d).unwrap();
        let g = DoorsGraph::build(&s);
        let o = multi_part_object();
        let dd = DoorDistances::compute(&s, &g, q()).unwrap();
        let subs = Subregions::compute(&o, &s).unwrap();
        let b = object_bounds(&s, &dd, subs.summaries());
        assert!(b.upper.is_infinite());
        assert!(b.lower.is_infinite());
    }

    #[test]
    fn euclidean_lower_bounds_hold_transitively() {
        // |q,O|minE ≤ topological lower? Not in general (topological is
        // tighter). But both must lower-bound the exact distance.
        let (s, g) = space();
        let o = multi_part_object();
        let dd = DoorDistances::compute(&s, &g, q()).unwrap();
        let exact = expected_indoor_distance_naive(&s, &dd, &o);
        let emin = o.min_euclidean(q().point);
        assert!(emin <= exact + 1e-9);
    }
}
