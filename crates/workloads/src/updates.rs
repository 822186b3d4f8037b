//! Update-stream workloads: seeded mixed streams of typed
//! [`Update`]s for ingest benchmarks and batch-semantics tests.
//!
//! The stream models an indoor positioning feed over a live population:
//! mostly position reports (moves), some arrivals (inserts) and departures
//! (removes), and occasional topology events (door open/close churn). The
//! generator tracks the simulated population so every emitted update is
//! applicable when the stream is applied in order — moves and removes name
//! live ids, inserts carry fresh pre-sampled objects, and door events
//! alternate close/open per door.

use crate::building::GeneratedBuilding;
use crate::objects::sample_one;
use idq_core::Update;
use idq_geom::IdSet;
use idq_model::DoorId;
use idq_objects::{ObjectId, ObjectStore};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Parameters of a mixed update stream. The four kind weights are
/// normalized internally, so any non-negative mix works; kinds that need a
/// live object (moves, removes) fall back to inserts while the population
/// is empty.
#[derive(Clone, Copy, Debug)]
pub struct UpdateStreamConfig {
    /// Updates to generate.
    pub count: usize,
    /// Weight of position reports (`Update::MoveObject`).
    pub moves: f64,
    /// Weight of arrivals (`Update::InsertObject`, pre-sampled).
    pub inserts: f64,
    /// Weight of departures (`Update::RemoveObject`).
    pub removes: f64,
    /// Weight of door open/close events.
    pub door_events: f64,
    /// Uncertainty-region radius of inserted objects, metres.
    pub radius: f64,
    /// Instances per inserted object.
    pub instances: usize,
    /// RNG seed — the stream is fully deterministic given the seed and the
    /// starting population.
    pub seed: u64,
}

impl Default for UpdateStreamConfig {
    fn default() -> Self {
        UpdateStreamConfig {
            count: 1024,
            moves: 0.85,
            inserts: 0.06,
            removes: 0.05,
            door_events: 0.04,
            radius: 5.0,
            instances: 8,
            seed: 0xF00D,
        }
    }
}

/// Generates a mixed update stream against a building and its starting
/// population. The stream is valid for **sequential application from that
/// starting state** (single [`idq_core::IndoorEngine::apply`] calls or
/// [`idq_core::IndoorEngine::apply_batch`] chunks in order).
pub fn generate_update_stream(
    building: &GeneratedBuilding,
    store: &ObjectStore,
    config: &UpdateStreamConfig,
) -> Vec<Update> {
    let space = &building.space;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let total = (config.moves + config.inserts + config.removes + config.door_events).max(1e-12);
    let (w_move, w_insert, w_remove) = (
        config.moves / total,
        config.inserts / total,
        config.removes / total,
    );

    // Simulated population state.
    let mut live: Vec<ObjectId> = store.ids_sorted();
    let mut next_id: u64 = live.iter().map(|id| id.0 + 1).max().unwrap_or(0);
    let doors: Vec<DoorId> = space.doors().map(|d| d.id).collect();
    let mut closed: IdSet<DoorId> = IdSet::default();

    let mut out = Vec::with_capacity(config.count);
    while out.len() < config.count {
        let roll: f64 = rng.random();
        let update = if roll < w_move && !live.is_empty() {
            let id = live[rng.random_range(0..live.len())];
            let (center, floor) = random_position(building, &mut rng);
            Update::MoveObject {
                id,
                center,
                floor,
                seed: rng.random::<u64>(),
            }
        } else if roll < w_move + w_insert || live.is_empty() {
            let id = ObjectId(next_id);
            next_id += 1;
            let object = sample_one(building, id, config.radius, config.instances, &mut rng)
                .expect("generator buildings host objects everywhere");
            live.push(id);
            Update::InsertObject(Box::new(object))
        } else if roll < w_move + w_insert + w_remove {
            let at = rng.random_range(0..live.len());
            let id = live.swap_remove(at);
            Update::RemoveObject(id)
        } else if doors.is_empty() {
            continue; // degenerate building: re-roll into the object kinds
        } else {
            let d = doors[rng.random_range(0..doors.len())];
            if closed.remove(&d) {
                Update::OpenDoor(d)
            } else {
                closed.insert(d);
                Update::CloseDoor(d)
            }
        };
        out.push(update);
    }
    out
}

fn random_position(building: &GeneratedBuilding, rng: &mut StdRng) -> (idq_geom::Point2, u16) {
    let space = &building.space;
    let floors = space.num_floors().max(1) as u16;
    loop {
        let floor = rng.random_range(0..floors);
        let c = idq_geom::Point2::new(
            rng.random_range(0.0..building.config.width),
            rng.random_range(0.0..building.config.depth),
        );
        if space
            .partition_at(idq_model::IndoorPoint::new(c, floor))
            .is_some()
        {
            return (c, floor);
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
                count: 40,
                radius: 4.0,
                instances: 4,
                seed: 11,
            },
        )
        .unwrap();
        (building, store)
    }

    #[test]
    fn stream_is_deterministic_and_mixed() {
        let (building, store) = setup();
        let cfg = UpdateStreamConfig {
            count: 200,
            ..UpdateStreamConfig::default()
        };
        let a = generate_update_stream(&building, &store, &cfg);
        let b = generate_update_stream(&building, &store, &cfg);
        assert_eq!(a.len(), 200);
        assert_eq!(
            a.iter().map(update_kind).collect::<Vec<_>>(),
            b.iter().map(update_kind).collect::<Vec<_>>()
        );
        let moves = a.iter().filter(|u| update_kind(u) == "move").count();
        let doors = a.iter().filter(|u| u.is_topology()).count();
        assert!(moves > 120, "moves dominate the default mix: {moves}");
        assert!(doors > 0, "door churn present");
    }

    #[test]
    fn stream_applies_cleanly_in_order() {
        let (building, store) = setup();
        let mut engine = IndoorEngine::with_objects(
            building.space.clone(),
            store.clone(),
            EngineConfig::default(),
        )
        .unwrap();
        let cfg = UpdateStreamConfig {
            count: 120,
            seed: 3,
            ..UpdateStreamConfig::default()
        };
        for update in generate_update_stream(&building, &store, &cfg) {
            engine.apply(update).unwrap();
        }
        engine.validate().unwrap();
        assert_eq!(engine.epoch(), 120);
    }

    #[test]
    fn pure_position_mix_has_no_topology() {
        let (building, store) = setup();
        let cfg = UpdateStreamConfig {
            count: 100,
            door_events: 0.0,
            ..UpdateStreamConfig::default()
        };
        let stream = generate_update_stream(&building, &store, &cfg);
        assert!(stream.iter().all(|u| !u.is_topology()));
    }

    fn update_kind(u: &Update) -> &'static str {
        match u {
            Update::MoveObject { .. } => "move",
            Update::InsertObject(_) => "insert",
            Update::RemoveObject(_) => "remove",
            Update::OpenDoor(_) => "open",
            Update::CloseDoor(_) => "close",
            _ => "other",
        }
    }
}
