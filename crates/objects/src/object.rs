//! Uncertain objects and their discrete instances.

use crate::error::ObjectError;
use crate::subregion::StampedSummary;
use idq_geom::{Circle, Point2, Rect2};
use idq_model::{Floor, IndoorPoint};
use std::sync::OnceLock;

/// Identifier of an uncertain moving object.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u64);

impl std::fmt::Display for ObjectId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "O{}", self.0)
    }
}

/// One existential instance `(s_i, p_i)` of an uncertain object.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Instance {
    /// Planar position of the instance.
    pub position: Point2,
    /// Floor the instance is on.
    pub floor: Floor,
    /// Existential probability `p_i`.
    pub weight: f64,
}

impl Instance {
    /// The instance position as an indoor point.
    #[inline]
    pub fn indoor_point(&self) -> IndoorPoint {
        IndoorPoint::new(self.position, self.floor)
    }
}

/// An uncertain indoor moving object: `O = {(s_i, p_i)}` with `Σ p_i = 1`
/// (Def. in §II-B), plus the circular uncertainty region the instances were
/// drawn from (used for geometric filtering).
#[derive(Clone, Debug)]
pub struct UncertainObject {
    /// Identifier.
    pub id: ObjectId,
    /// The reported uncertainty region (circle on one floor, §V-A).
    pub region: Circle,
    /// Floor of the region centre.
    pub floor: Floor,
    /// The discrete instances. Non-empty; weights sum to 1.
    instances: Box<[Instance]>,
    /// Cached tight bounding box of the instance positions.
    instance_bbox: Rect2,
    /// The memoised subregion summary and instance slots (see
    /// [`UncertainObject::subregion_summary`] and
    /// [`UncertainObject::subregions`]); 16 B while empty.
    pub(crate) summary: OnceLock<Box<StampedSummary>>,
}

/// Tolerance for the weight-sum invariant.
const WEIGHT_TOL: f64 = 1e-6;

impl UncertainObject {
    /// Creates an object, validating the probability invariant.
    pub fn new(
        id: ObjectId,
        region: Circle,
        floor: Floor,
        instances: Vec<Instance>,
    ) -> Result<Self, ObjectError> {
        if instances.is_empty() {
            return Err(ObjectError::EmptyInstances);
        }
        let mut sum = 0.0;
        let mut bbox = Rect2::empty_sentinel();
        for (i, inst) in instances.iter().enumerate() {
            if !inst.position.is_finite() || !inst.weight.is_finite() || inst.weight <= 0.0 {
                return Err(ObjectError::NonFiniteInstance(i));
            }
            sum += inst.weight;
            bbox = bbox.union(&Rect2::new(inst.position, inst.position));
        }
        if (sum - 1.0).abs() > WEIGHT_TOL {
            return Err(ObjectError::BadWeights { sum });
        }
        Ok(UncertainObject {
            id,
            region,
            floor,
            instances: instances.into_boxed_slice(),
            instance_bbox: bbox,
            summary: OnceLock::new(),
        })
    }

    /// Creates an object with uniform weights over the given positions.
    pub fn with_uniform_weights(
        id: ObjectId,
        region: Circle,
        floor: Floor,
        positions: Vec<Point2>,
    ) -> Result<Self, ObjectError> {
        let n = positions.len();
        if n == 0 {
            return Err(ObjectError::EmptyInstances);
        }
        let w = 1.0 / n as f64;
        let instances = positions
            .into_iter()
            .map(|p| Instance {
                position: p,
                floor,
                weight: w,
            })
            .collect();
        Self::new(id, region, floor, instances)
    }

    /// A certain (point) object: one instance with probability 1. Useful
    /// for tests and for positioning systems with exact reads.
    pub fn point_object(id: ObjectId, at: IndoorPoint) -> Self {
        UncertainObject {
            id,
            region: Circle::new(at.point, 0.0),
            floor: at.floor,
            instances: vec![Instance {
                position: at.point,
                floor: at.floor,
                weight: 1.0,
            }]
            .into_boxed_slice(),
            instance_bbox: Rect2::new(at.point, at.point),
            summary: OnceLock::new(),
        }
    }

    /// The instances `{(s_i, p_i)}`.
    #[inline]
    pub fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// Number of instances — the paper's `|O|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Always `false` (construction rejects empty instance sets); present
    /// for idiomatic pairing with [`UncertainObject::len`].
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Tight bounding box of the instance positions.
    #[inline]
    pub fn instance_bbox(&self) -> Rect2 {
        self.instance_bbox
    }

    /// The planar rectangle this object occupies for index maintenance:
    /// uncertainty region ∪ instances. The single source of the footprint
    /// formula — the composite index's object layer and the engine's batch
    /// stager must agree on it.
    #[inline]
    pub fn footprint_rect(&self) -> Rect2 {
        self.region.bbox().union(&self.instance_bbox)
    }

    /// Minimum planar Euclidean distance from `q` to any instance —
    /// `|q, O|_minE` (same-floor geometric lower bound ingredient).
    pub fn min_euclidean(&self, q: Point2) -> f64 {
        self.instances
            .iter()
            .map(|i| i.position.dist(q))
            .fold(f64::INFINITY, f64::min)
    }
}

impl std::fmt::Display for UncertainObject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{} instances, r={:.1}m, floor {}]",
            self.id,
            self.len(),
            self.region.radius,
            self.floor
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(positions: Vec<Point2>) -> UncertainObject {
        UncertainObject::with_uniform_weights(
            ObjectId(1),
            Circle::new(Point2::new(0.0, 0.0), 5.0),
            0,
            positions,
        )
        .unwrap()
    }

    #[test]
    fn weights_must_sum_to_one() {
        let bad = vec![
            Instance {
                position: Point2::new(0.0, 0.0),
                floor: 0,
                weight: 0.4,
            },
            Instance {
                position: Point2::new(1.0, 0.0),
                floor: 0,
                weight: 0.4,
            },
        ];
        assert!(matches!(
            UncertainObject::new(ObjectId(1), Circle::new(Point2::new(0.0, 0.0), 1.0), 0, bad),
            Err(ObjectError::BadWeights { .. })
        ));
    }

    #[test]
    fn rejects_empty_and_nonfinite() {
        assert!(matches!(
            UncertainObject::with_uniform_weights(
                ObjectId(1),
                Circle::new(Point2::new(0.0, 0.0), 1.0),
                0,
                vec![]
            ),
            Err(ObjectError::EmptyInstances)
        ));
        let nan = vec![Instance {
            position: Point2::new(f64::NAN, 0.0),
            floor: 0,
            weight: 1.0,
        }];
        assert!(matches!(
            UncertainObject::new(ObjectId(1), Circle::new(Point2::new(0.0, 0.0), 1.0), 0, nan),
            Err(ObjectError::NonFiniteInstance(0))
        ));
    }

    #[test]
    fn distance_summaries() {
        let o = obj(vec![
            Point2::new(0.0, 0.0),
            Point2::new(4.0, 0.0),
            Point2::new(0.0, 3.0),
        ]);
        let q = Point2::new(8.0, 0.0);
        assert!((o.min_euclidean(q) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn bbox_covers_all_instances() {
        let o = obj(vec![
            Point2::new(-1.0, 2.0),
            Point2::new(4.0, 0.0),
            Point2::new(0.0, 3.0),
        ]);
        let bb = o.instance_bbox();
        for i in o.instances() {
            assert!(bb.contains(i.position));
        }
        assert_eq!(bb, Rect2::from_bounds(-1.0, 0.0, 4.0, 3.0));
    }

    #[test]
    fn summary_slot_costs_at_most_16_bytes() {
        // 88 B before the summary memo. History retains ~262k object
        // versions on a durable ingest and no query ever fills their
        // memos, so the empty slot is all those versions pay.
        assert!(std::mem::size_of::<UncertainObject>() <= 88 + 16);
    }

    #[test]
    fn point_object_is_certain() {
        let o =
            UncertainObject::point_object(ObjectId(9), IndoorPoint::new(Point2::new(1.0, 2.0), 3));
        assert_eq!(o.len(), 1);
        assert_eq!(o.instances()[0].weight, 1.0);
        assert_eq!(o.floor, 3);
    }
}
