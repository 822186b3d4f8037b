//! Gaussian instance sampling (§V-A).
//!
//! The paper generates each object's PDF as 100 sampling points following a
//! Gaussian distribution whose mean is the uncertainty-region centre and
//! whose standard deviation is one sixth of the region's diameter (= radius
//! / 3), truncated to the circular region. We add one practical constraint
//! the paper leaves implicit: every instance must lie inside *some*
//! partition (instances inside walls are meaningless for indoor distance),
//! so out-of-partition draws are rejected and, past a retry budget, clamped
//! to the region centre.

use crate::error::ObjectError;
use crate::object::{ObjectId, UncertainObject};
use idq_geom::{Circle, Point2};
use idq_model::{Floor, IndoorPoint, IndoorSpace};
use rand::RngExt;

/// Gaussian sampler for uncertain-object instances.
#[derive(Clone, Copy, Debug)]
pub struct GaussianSampler {
    /// Number of instances per object (paper: 100).
    pub instances: usize,
    /// σ as a fraction of the region *radius* (paper: diameter/6 = radius/3,
    /// i.e. 1/3).
    pub sigma_fraction: f64,
    /// Rejection-sampling retries per instance before clamping to centre.
    pub max_retries: usize,
}

impl Default for GaussianSampler {
    fn default() -> Self {
        GaussianSampler {
            instances: 100,
            sigma_fraction: 1.0 / 3.0,
            max_retries: 64,
        }
    }
}

impl GaussianSampler {
    /// A sampler with `n` instances and the paper's σ.
    pub fn with_instances(n: usize) -> Self {
        GaussianSampler {
            instances: n.max(1),
            ..Self::default()
        }
    }

    /// Samples an uncertain object centred at `center` on `floor` with the
    /// given region radius. The centre itself must lie in a partition.
    pub fn sample<R: RngExt + ?Sized>(
        &self,
        id: ObjectId,
        center: Point2,
        floor: Floor,
        radius: f64,
        space: &IndoorSpace,
        rng: &mut R,
    ) -> Result<UncertainObject, ObjectError> {
        self.sample_impl(id, center, floor, radius, rng, |p| {
            space.partition_at(IndoorPoint::new(p, floor)).is_some()
        })
    }

    /// Like [`GaussianSampler::sample`], but point-locates every draw
    /// against a caller-supplied candidate-partition list instead of
    /// scanning the whole floor. Exact — identical draws, acceptances and
    /// errors — whenever `hint` contains every active partition overlapping
    /// the region's bounding box (all draws are truncated to the region, so
    /// no acceptable draw can fall outside the hint); batch appliers derive
    /// such a hint from the index units the region footprint touches.
    // One parameter past clippy's limit, deliberately: this is `sample`'s
    // exact signature plus the hint, and splitting them apart would hide
    // the correspondence.
    #[allow(clippy::too_many_arguments)]
    pub fn sample_with_hint<R: RngExt + ?Sized>(
        &self,
        id: ObjectId,
        center: Point2,
        floor: Floor,
        radius: f64,
        space: &IndoorSpace,
        hint: &[idq_model::PartitionId],
        rng: &mut R,
    ) -> Result<UncertainObject, ObjectError> {
        self.sample_impl(id, center, floor, radius, rng, |p| {
            hint.iter().any(|&pid| {
                space
                    .partition(pid)
                    .map(|part| part.contains(p, floor))
                    .unwrap_or(false)
            })
        })
    }

    fn sample_impl<R: RngExt + ?Sized>(
        &self,
        id: ObjectId,
        center: Point2,
        floor: Floor,
        radius: f64,
        rng: &mut R,
        in_partition: impl Fn(Point2) -> bool,
    ) -> Result<UncertainObject, ObjectError> {
        if !in_partition(center) {
            return Err(ObjectError::NoHostPartition);
        }
        let region = Circle::new(center, radius);
        let sigma = radius * self.sigma_fraction;
        let mut positions = Vec::with_capacity(self.instances);
        for _ in 0..self.instances {
            let mut accepted = center;
            for _ in 0..self.max_retries {
                let candidate = Point2::new(
                    center.x + sigma * standard_normal(rng),
                    center.y + sigma * standard_normal(rng),
                );
                let in_region = radius <= 0.0 || region.contains(candidate);
                if in_region && in_partition(candidate) {
                    accepted = candidate;
                    break;
                }
            }
            positions.push(accepted);
        }
        UncertainObject::with_uniform_weights(id, region, floor, positions)
    }
}

/// One standard-normal draw via Box–Muller (we deliberately avoid an extra
/// `rand_distr` dependency; see DESIGN.md §5).
pub(crate) fn standard_normal<R: RngExt + ?Sized>(rng: &mut R) -> f64 {
    // u1 ∈ (0, 1] so ln(u1) is finite.
    let u1: f64 = 1.0 - rng.random::<f64>();
    let u2: f64 = rng.random::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use idq_model::FloorPlanBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn one_room() -> IndoorSpace {
        let mut b = FloorPlanBuilder::new(4.0);
        b.add_room(0, idq_geom::Rect2::from_bounds(0.0, 0.0, 100.0, 100.0))
            .unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn samples_inside_region_and_partition() {
        let space = one_room();
        let mut rng = StdRng::seed_from_u64(42);
        let s = GaussianSampler::default();
        let o = s
            .sample(
                ObjectId(1),
                Point2::new(50.0, 50.0),
                0,
                10.0,
                &space,
                &mut rng,
            )
            .unwrap();
        assert_eq!(o.len(), 100);
        for inst in o.instances() {
            assert!(o.region.contains(inst.position), "inside the circle");
            assert!(
                space
                    .partition_at(IndoorPoint::new(inst.position, 0))
                    .is_some(),
                "inside a partition"
            );
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let space = one_room();
        let s = GaussianSampler::with_instances(25);
        let a = s
            .sample(
                ObjectId(1),
                Point2::new(50.0, 50.0),
                0,
                5.0,
                &space,
                &mut StdRng::seed_from_u64(7),
            )
            .unwrap();
        let b = s
            .sample(
                ObjectId(1),
                Point2::new(50.0, 50.0),
                0,
                5.0,
                &space,
                &mut StdRng::seed_from_u64(7),
            )
            .unwrap();
        for (x, y) in a.instances().iter().zip(b.instances()) {
            assert_eq!(x.position, y.position);
        }
    }

    #[test]
    fn center_outside_building_is_rejected() {
        let space = one_room();
        let mut rng = StdRng::seed_from_u64(1);
        let s = GaussianSampler::default();
        assert!(matches!(
            s.sample(
                ObjectId(1),
                Point2::new(500.0, 500.0),
                0,
                5.0,
                &space,
                &mut rng
            ),
            Err(ObjectError::NoHostPartition)
        ));
    }

    #[test]
    fn near_wall_center_clamps_rather_than_escapes() {
        let space = one_room();
        let mut rng = StdRng::seed_from_u64(3);
        // Centre 1 m from the wall with radius 10: many draws fall outside;
        // all surviving instances must still be valid.
        let o = GaussianSampler::default()
            .sample(
                ObjectId(1),
                Point2::new(1.0, 50.0),
                0,
                10.0,
                &space,
                &mut rng,
            )
            .unwrap();
        for inst in o.instances() {
            assert!(space
                .partition_at(IndoorPoint::new(inst.position, 0))
                .is_some());
        }
    }

    #[test]
    fn zero_radius_collapses_to_center() {
        let space = one_room();
        let mut rng = StdRng::seed_from_u64(5);
        let o = GaussianSampler::with_instances(10)
            .sample(
                ObjectId(1),
                Point2::new(50.0, 50.0),
                0,
                0.0,
                &space,
                &mut rng,
            )
            .unwrap();
        for inst in o.instances() {
            assert_eq!(inst.position, Point2::new(50.0, 50.0));
        }
    }

    #[test]
    fn hint_sampling_is_bit_identical_to_full_point_location() {
        let mut b = FloorPlanBuilder::new(4.0);
        let r0 = b
            .add_room(0, idq_geom::Rect2::from_bounds(0.0, 0.0, 20.0, 20.0))
            .unwrap();
        let r1 = b
            .add_room(0, idq_geom::Rect2::from_bounds(20.0, 0.0, 40.0, 20.0))
            .unwrap();
        b.add_door_between(r0, r1, Point2::new(20.0, 10.0)).unwrap();
        let space = b.finish().unwrap();
        let s = GaussianSampler::with_instances(40);
        // A region straddling the shared wall: draws near the wall are in
        // either room, draws beyond the outer walls are rejected.
        let center = Point2::new(19.0, 10.0);
        let full = s
            .sample(
                ObjectId(1),
                center,
                0,
                8.0,
                &space,
                &mut StdRng::seed_from_u64(5),
            )
            .unwrap();
        let hinted = s
            .sample_with_hint(
                ObjectId(1),
                center,
                0,
                8.0,
                &space,
                &[r0, r1],
                &mut StdRng::seed_from_u64(5),
            )
            .unwrap();
        for (a, b) in full.instances().iter().zip(hinted.instances()) {
            assert_eq!(a.position, b.position);
        }
        // A hint missing the centre's partition errors like an
        // out-of-building centre.
        assert!(matches!(
            s.sample_with_hint(
                ObjectId(2),
                Point2::new(5.0, 5.0),
                0,
                1.0,
                &space,
                &[r1],
                &mut StdRng::seed_from_u64(5),
            ),
            Err(ObjectError::NoHostPartition)
        ));
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(11);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean: f64 = draws.iter().sum::<f64>() / n as f64;
        let var: f64 = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean ≈ 0, got {mean}");
        assert!((var - 1.0).abs() < 0.1, "variance ≈ 1, got {var}");
    }
}
