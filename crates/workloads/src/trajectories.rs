//! Trajectory-stream workloads: wave-major random-walk movement for the
//! history ring and its `(x, y, time)` trajectory store.
//!
//! Unlike the mixed feed of [`crate::updates`], this stream models
//! **coherent motion**: one batch ("wave") per epoch, each moving a
//! fraction of the population by a bounded step from its previous
//! position — so applying wave `k` as commit `k` yields a population
//! whose per-object position sequences are walkable trajectories
//! (short resting legs, small displacements, occasional floor changes),
//! which is what historical range/trajectory/co-movement queries need to
//! exercise realistic segment geometry.

use crate::building::GeneratedBuilding;
use idq_core::Update;
use idq_geom::Point2;
use idq_model::{Floor, IndoorPoint};
use idq_objects::{ObjectId, ObjectStore};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Parameters of a trajectory stream.
#[derive(Clone, Copy, Debug)]
pub struct TrajectoryStreamConfig {
    /// Waves to generate — one batch (one commit epoch) each.
    pub steps: usize,
    /// Fraction of the population that moves each wave (the rest rest,
    /// extending their current trajectory leg).
    pub move_fraction: f64,
    /// Largest per-wave displacement along each axis, metres.
    pub max_step: f64,
    /// Probability that a moving object changes floor this wave
    /// (teleporting to a uniform position on the new floor, modelling a
    /// stair/elevator transition).
    pub floor_change: f64,
    /// RNG seed — the stream is fully deterministic given the seed and
    /// the starting population.
    pub seed: u64,
}

impl Default for TrajectoryStreamConfig {
    fn default() -> Self {
        TrajectoryStreamConfig {
            steps: 256,
            move_fraction: 0.15,
            max_step: 6.0,
            floor_change: 0.02,
            seed: 0xCAFE,
        }
    }
}

/// Generates a wave-major trajectory stream over `store`'s population:
/// `steps` batches of [`Update::MoveObject`], valid for sequential
/// batch application from that starting state (each batch is one commit,
/// i.e. one epoch, i.e. one time slice of every trajectory).
pub fn generate_trajectory_stream(
    building: &GeneratedBuilding,
    store: &ObjectStore,
    config: &TrajectoryStreamConfig,
) -> Vec<Vec<Update>> {
    let space = &building.space;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let floors = space.num_floors().max(1) as Floor;

    // Simulated positions, id-sorted for deterministic wave order.
    let mut ids: Vec<ObjectId> = store.ids_sorted();
    let mut at: Vec<(Point2, Floor)> = ids
        .iter()
        .map(|&id| {
            let obj = store.get(id).expect("ids_sorted names live objects");
            (obj.region.center, obj.floor)
        })
        .collect();
    ids.sort_unstable();

    let mut out = Vec::with_capacity(config.steps);
    for _ in 0..config.steps {
        let mut wave = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            if rng.random::<f64>() >= config.move_fraction {
                continue;
            }
            let (pos, floor) = at[i];
            let (center, floor) = if floors > 1 && rng.random::<f64>() < config.floor_change {
                let f = rng.random_range(0..floors);
                (uniform_position(building, f, &mut rng), f)
            } else {
                walk_step(building, pos, floor, config.max_step, &mut rng)
            };
            at[i] = (center, floor);
            wave.push(Update::MoveObject {
                id,
                center,
                floor,
                seed: rng.random::<u64>(),
            });
        }
        out.push(wave);
    }
    out
}

/// One bounded random-walk step from `pos`, rejection-sampled onto the
/// floor's partitions (walls are not crossed diagonally through dead
/// space — a step that lands outside every partition re-rolls, and after
/// a few failures the object stays put rather than teleporting).
fn walk_step(
    building: &GeneratedBuilding,
    pos: Point2,
    floor: Floor,
    max_step: f64,
    rng: &mut StdRng,
) -> (Point2, Floor) {
    let space = &building.space;
    for _ in 0..16 {
        let c = Point2::new(
            pos.x + rng.random_range(-max_step..=max_step),
            pos.y + rng.random_range(-max_step..=max_step),
        );
        if space.partition_at(IndoorPoint::new(c, floor)).is_some() {
            return (c, floor);
        }
    }
    (pos, floor)
}

/// A uniform position inside some partition of `floor`.
fn uniform_position(building: &GeneratedBuilding, floor: Floor, rng: &mut StdRng) -> Point2 {
    let space = &building.space;
    loop {
        let c = Point2::new(
            rng.random_range(0.0..building.config.width),
            rng.random_range(0.0..building.config.depth),
        );
        if space.partition_at(IndoorPoint::new(c, floor)).is_some() {
            return c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::building::{generate_building, BuildingConfig};
    use crate::objects::{generate_objects, ObjectConfig};
    use idq_core::{EngineConfig, IndoorEngine};

    fn setup() -> (GeneratedBuilding, ObjectStore) {
        let building = generate_building(&BuildingConfig {
            bands: 2,
            rooms_per_side: 3,
            ..BuildingConfig::with_floors(2)
        })
        .unwrap();
        let store = generate_objects(
            &building,
            &ObjectConfig {
                count: 30,
                radius: 4.0,
                instances: 4,
                seed: 19,
            },
        )
        .unwrap();
        (building, store)
    }

    #[test]
    fn stream_is_deterministic_and_wave_major() {
        let (building, store) = setup();
        let cfg = TrajectoryStreamConfig {
            steps: 50,
            ..TrajectoryStreamConfig::default()
        };
        let a = generate_trajectory_stream(&building, &store, &cfg);
        let b = generate_trajectory_stream(&building, &store, &cfg);
        assert_eq!(a.len(), 50);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let moved: usize = a.iter().map(|w| w.len()).sum();
        assert!(moved > 0, "some object moves in 50 waves");
        assert!(
            a.iter().all(|w| w.len() < 30),
            "no wave moves the whole population at the default fraction"
        );
    }

    #[test]
    fn steps_are_bounded_walks() {
        let (building, store) = setup();
        let cfg = TrajectoryStreamConfig {
            steps: 80,
            floor_change: 0.0, // pure same-floor walk
            max_step: 3.0,
            ..TrajectoryStreamConfig::default()
        };
        let mut at: idq_geom::IdMap<ObjectId, Point2> =
            store.iter().map(|o| (o.id, o.region.center)).collect();
        for wave in generate_trajectory_stream(&building, &store, &cfg) {
            for update in wave {
                let Update::MoveObject {
                    id, center, floor, ..
                } = update
                else {
                    panic!("trajectory streams are pure movement");
                };
                let prev = at.insert(id, center).unwrap();
                assert_eq!(floor, store.get(id).unwrap().floor, "no floor change");
                assert!(
                    (center.x - prev.x).abs() <= 3.0 + 1e-9
                        && (center.y - prev.y).abs() <= 3.0 + 1e-9,
                    "step bounded by max_step"
                );
            }
        }
    }

    #[test]
    fn stream_applies_cleanly_as_batches() {
        let (building, store) = setup();
        let mut engine = IndoorEngine::with_objects(
            building.space.clone(),
            store.clone(),
            EngineConfig::default(),
        )
        .unwrap();
        let cfg = TrajectoryStreamConfig {
            steps: 40,
            move_fraction: 0.5,
            seed: 5,
            ..TrajectoryStreamConfig::default()
        };
        for wave in generate_trajectory_stream(&building, &store, &cfg) {
            if !wave.is_empty() {
                engine.apply_batch(&wave).unwrap();
            }
        }
        engine.validate().unwrap();
    }
}
