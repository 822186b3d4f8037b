//! Query-point workloads (§V-A: 50 random query points per experiment).

use crate::building::GeneratedBuilding;
use idq_geom::Point2;
use idq_model::IndoorPoint;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Parameters of a query-point workload.
#[derive(Clone, Copy, Debug)]
pub struct QueryPointConfig {
    /// Number of query points (paper: 50).
    pub count: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for QueryPointConfig {
    fn default() -> Self {
        QueryPointConfig {
            count: 50,
            seed: 0x9E71,
        }
    }
}

/// Generates query points uniformly over the building: random floor,
/// random planar position, rejected until it falls inside a partition.
pub fn generate_query_points(
    building: &GeneratedBuilding,
    config: &QueryPointConfig,
) -> Vec<IndoorPoint> {
    let space = &building.space;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let floors = space.num_floors().max(1) as u16;
    let mut out = Vec::with_capacity(config.count);
    while out.len() < config.count {
        let floor = rng.random_range(0..floors);
        let p = Point2::new(
            rng.random_range(0.0..building.config.width),
            rng.random_range(0.0..building.config.depth),
        );
        let q = IndoorPoint::new(p, floor);
        if space.partition_at(q).is_some() {
            out.push(q);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::building::{generate_building, BuildingConfig};

    #[test]
    fn points_are_valid_and_deterministic() {
        let g = generate_building(&BuildingConfig {
            bands: 2,
            rooms_per_side: 3,
            ..BuildingConfig::with_floors(2)
        })
        .unwrap();
        let cfg = QueryPointConfig { count: 30, seed: 5 };
        let a = generate_query_points(&g, &cfg);
        assert_eq!(a.len(), 30);
        for q in &a {
            assert!(g.space.partition_at(*q).is_some());
        }
        let b = generate_query_points(&g, &cfg);
        assert_eq!(a, b);
    }
}
