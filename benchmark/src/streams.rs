//! Seeded operation streams: the inputs the program receives. Every
//! stream is a pure function of the world and a seed, and folds into a
//! digest that must repeat for that seed.

use crate::stats::Digest;
use crate::world::World;
use idq_core::Update;
use idq_geom::Point2;
use idq_model::{DoorId, Floor, IndoorPoint, PartitionId};
use idq_objects::ObjectId;
use idq_query::Query;
use idq_workloads::{generate_query_points, GeneratedBuilding, PaperDefaults, QueryPointConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Seeded query points inside partitions of the building.
pub fn query_points(building: &GeneratedBuilding, count: usize, seed: u64) -> Vec<IndoorPoint> {
    generate_query_points(building, &QueryPointConfig { count, seed })
}

/// The two query kinds of the paper, one workload each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryKind {
    Range,
    Knn,
}

impl QueryKind {
    pub fn workload(self) -> &'static str {
        match self {
            QueryKind::Range => "paper_range",
            QueryKind::Knn => "paper_knn",
        }
    }
}

/// The `i`-th single-issue query of the paper protocol: the points
/// round-robin, the paper's sweep (r or k ∈ {50, 100, 150}) cycling with
/// them and shifted by one on every pass over the points, so any stretch
/// of the stream mixes the three evenly and a point meets all three.
pub fn paper_query(points: &[IndoorPoint], kind: QueryKind, i: usize) -> Query {
    let q = points[i % points.len()];
    let step = (i + i / points.len()) % 3;
    match kind {
        QueryKind::Range => Query::Range {
            q,
            r: PaperDefaults::RANGE_SWEEP[step],
        },
        QueryKind::Knn => Query::Knn {
            q,
            k: PaperDefaults::K_SWEEP[step],
        },
    }
}

/// The six sweep queries sharing one query point: one `execute_batch`
/// group.
pub fn paper_group(q: IndoorPoint) -> [Query; 6] {
    std::array::from_fn(|i| {
        let kind = if i < 3 {
            QueryKind::Range
        } else {
            QueryKind::Knn
        };
        paper_query(&[q], kind, i)
    })
}

/// The mixed-traffic reader's `i`-th query: iRQ r=100 / ikNN k=100
/// alternating, each at its own point.
pub fn default_query(points: &[IndoorPoint], i: usize) -> Query {
    let d = PaperDefaults::default();
    let q = points[i % points.len()];
    if i.is_multiple_of(2) {
        Query::Range { q, r: d.range_r }
    } else {
        Query::Knn { q, k: d.k }
    }
}

pub fn digest_query(d: &mut Digest, query: &Query) {
    let q = query.query_point();
    d.f64(q.point.x);
    d.f64(q.point.y);
    d.u64(q.floor as u64);
    match *query {
        Query::Range { r, .. } => d.f64(r),
        Query::Knn { k, .. } => d.u64(k as u64),
        _ => {}
    }
}

/// Batches of a stream folded into its printed digest.
const DIGESTED: usize = 32;

/// Digest of the first batches `next` yields. Call it on a *clone* of a
/// generator: the digest then repeats for a seed however long the timed
/// window turns out to be.
pub fn update_stream_digest(mut next: impl FnMut() -> Vec<Update>) -> Digest {
    let mut d = Digest::default();
    for _ in 0..DIGESTED {
        digest_updates(&mut d, &next());
    }
    d
}

pub fn digest_updates(d: &mut Digest, updates: &[Update]) {
    for u in updates {
        match u {
            Update::MoveObject {
                id,
                center,
                floor,
                seed,
            } => {
                d.u64(id.0);
                d.f64(center.x);
                d.f64(center.y);
                d.u64(*floor as u64);
                d.u64(*seed);
            }
            Update::CloseDoor(door) => d.u64(0xC105E ^ door.0 as u64),
            Update::OpenDoor(door) => d.u64(0x0BE2 ^ door.0 as u64),
            other => unreachable!("the benchmark issues no {other:?}"),
        }
    }
}

/// Rooms per locality window of the neighbourhood stream.
pub const WINDOW: usize = 4;

/// The room-local update stream of `standing_local` (the stream of
/// `crates/bench/src/bin/subscriptions.rs`, seeded): every object has a
/// home *neighbourhood* — [`WINDOW`] consecutive rooms of one floor — and
/// each batch moves objects of one neighbourhood between its rooms, the
/// way position reports arrive from people milling around one shop
/// cluster. A commit's before- and after-partitions stay inside one
/// window, so routed dispatch can prove almost every subscription
/// untouched; a footprint scattered building-wide would degrade to
/// broadcast by construction (that is `live_mixed`'s job).
#[derive(Clone)]
pub struct Neighbourhoods {
    /// `members[floor][neighbourhood]`: the objects homed there.
    members: Vec<Vec<Vec<ObjectId>>>,
    rooms_by_floor: Vec<Vec<(PartitionId, Point2)>>,
    batch: usize,
    rng: StdRng,
    issued: usize,
}

impl Neighbourhoods {
    pub fn new(world: &World, batch: usize, seed: u64) -> Self {
        let building = &world.building;
        let floors = building.rooms_by_floor.len();
        let rooms_by_floor: Vec<Vec<(PartitionId, Point2)>> = building
            .rooms_by_floor
            .iter()
            .map(|rooms| {
                rooms
                    .iter()
                    .map(|&room| {
                        let p = building.space.partition(room).expect("generated room");
                        (room, p.bbox.center())
                    })
                    .collect()
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        // A seeded shuffle decides which neighbourhood each object calls
        // home; the population keeps paper density building-wide.
        let mut ids = world.store.ids_sorted();
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.random_range(0..=i));
        }
        let mut members: Vec<Vec<Vec<ObjectId>>> = rooms_by_floor
            .iter()
            .map(|rooms| vec![Vec::new(); (rooms.len() / WINDOW).max(1)])
            .collect();
        for (j, id) in ids.into_iter().enumerate() {
            let f = j % floors;
            let n = (j / floors) % members[f].len();
            members[f][n].push(id);
        }
        Neighbourhoods {
            members,
            rooms_by_floor,
            batch,
            rng,
            issued: 0,
        }
    }

    /// The rooms of one neighbourhood's window.
    #[cfg(test)]
    pub fn window(&self, floor: usize, neighbourhood: usize) -> Vec<PartitionId> {
        let rooms = &self.rooms_by_floor[floor];
        (0..WINDOW)
            .map(|slot| rooms[(neighbourhood * WINDOW + slot) % rooms.len()].0)
            .collect()
    }

    fn room_center(&self, floor: usize, neighbourhood: usize, slot: usize) -> Point2 {
        let rooms = &self.rooms_by_floor[floor];
        rooms[(neighbourhood * WINDOW + slot % WINDOW) % rooms.len()].1
    }

    /// Moves that settle every object into its home neighbourhood, one
    /// batch per floor. Without them each object's first move would drag
    /// a faraway "before" partition into a commit's footprint.
    pub fn settle(&self) -> Vec<Vec<Update>> {
        self.members
            .iter()
            .enumerate()
            .map(|(f, floor)| {
                floor
                    .iter()
                    .enumerate()
                    .flat_map(|(n, group)| {
                        group.iter().map(move |&id| Update::MoveObject {
                            id,
                            center: self.room_center(f, n, id.0 as usize),
                            floor: f as Floor,
                            seed: id.0,
                        })
                    })
                    .collect()
            })
            .collect()
    }

    /// The next batch, with the `(floor, neighbourhood)` it is confined
    /// to. Floors rotate; the neighbourhood strides so consecutive
    /// visits to a floor land in different wings.
    pub fn next_batch(&mut self) -> (usize, usize, Vec<Update>) {
        let k = self.issued;
        self.issued += 1;
        let floors = self.members.len();
        let f = k % floors;
        let n = (k / floors * 7 + k) % self.members[f].len();
        let group = &self.members[f][n];
        let offset = self.rng.random_range(0..group.len().max(1));
        let mut updates = Vec::with_capacity(self.batch);
        for j in 0..self.batch.min(group.len()) {
            let id = group[(offset + j) % group.len()];
            let slot = self.rng.random_range(0..WINDOW);
            updates.push(Update::MoveObject {
                id,
                center: self.room_center(f, n, slot),
                floor: f as Floor,
                seed: self.rng.random::<u64>(),
            });
        }
        (f, n, updates)
    }
}

/// Building-wide scattered movement: each wave walks exactly `batch`
/// distinct seeded objects one step (the walk model of
/// `idq_workloads::generate_trajectory_stream`, with a fixed wave size
/// so every commit carries the same work).
#[derive(Clone)]
pub struct ScatteredWaves {
    at: Vec<(ObjectId, Point2, Floor)>,
    batch: usize,
    rng: StdRng,
}

/// Longest walking step, metres, and the chance a move changes floor.
const MAX_STEP: f64 = 6.0;
const FLOOR_CHANGE: f64 = 0.01;

impl ScatteredWaves {
    pub fn new(world: &World, batch: usize, seed: u64) -> Self {
        let at = world
            .store
            .ids_sorted()
            .into_iter()
            .map(|id| {
                let o = world.store.get(id).expect("ids_sorted names live objects");
                (id, o.region.center, o.floor)
            })
            .collect();
        ScatteredWaves {
            at,
            batch,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    pub fn next_wave(&mut self, building: &GeneratedBuilding) -> Vec<Update> {
        let n = self.at.len();
        let floors = building.space.num_floors().max(1) as Floor;
        let mut wave = Vec::with_capacity(self.batch);
        // Partial Fisher–Yates: the first `batch` slots become a uniform
        // sample of distinct objects.
        for i in 0..self.batch.min(n) {
            let j = self.rng.random_range(i..n);
            self.at.swap(i, j);
            let (id, pos, floor) = self.at[i];
            let (center, floor) = if floors > 1 && self.rng.random_bool(FLOOR_CHANGE) {
                let f = self.rng.random_range(0..floors);
                (self.uniform_position(building, f), f)
            } else {
                (self.walk_step(building, pos, floor), floor)
            };
            self.at[i] = (id, center, floor);
            wave.push(Update::MoveObject {
                id,
                center,
                floor,
                seed: self.rng.random::<u64>(),
            });
        }
        wave
    }

    fn walk_step(&mut self, building: &GeneratedBuilding, pos: Point2, floor: Floor) -> Point2 {
        for _ in 0..16 {
            let c = Point2::new(
                pos.x + self.rng.random_range(-MAX_STEP..=MAX_STEP),
                pos.y + self.rng.random_range(-MAX_STEP..=MAX_STEP),
            );
            if building
                .space
                .partition_at(IndoorPoint::new(c, floor))
                .is_some()
            {
                return c;
            }
        }
        pos
    }

    fn uniform_position(&mut self, building: &GeneratedBuilding, floor: Floor) -> Point2 {
        loop {
            let c = Point2::new(
                self.rng.random_range(0.0..building.config.width),
                self.rng.random_range(0.0..building.config.depth),
            );
            if building
                .space
                .partition_at(IndoorPoint::new(c, floor))
                .is_some()
            {
                return c;
            }
        }
    }
}

/// `live_mixed`'s topology commits: seeded room doors, one toggled every
/// `every` waves (the first half a cycle in, so even a short window sees
/// one). Toggle `i` closes door `i / 2` when `i` is even and reopens it
/// when odd, so at most one door is ever shut.
pub struct Toggles {
    updates: std::vec::IntoIter<Update>,
    every: usize,
    waves: usize,
}

impl Toggles {
    pub fn new(building: &GeneratedBuilding, every: usize, seed: u64) -> Self {
        Toggles {
            updates: door_toggles(building, 64, seed).into_iter(),
            every,
            waves: 0,
        }
    }

    /// Counts one committed wave; the toggle to commit after it, if due.
    pub fn after_wave(&mut self) -> Option<Update> {
        self.waves += 1;
        (self.waves + self.every / 2)
            .is_multiple_of(self.every)
            .then(|| self.updates.next())
            .flatten()
    }
}

/// The first `count` toggles of the seeded close/reopen sequence.
pub fn door_toggles(building: &GeneratedBuilding, count: usize, seed: u64) -> Vec<Update> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut doors: Vec<DoorId> = Vec::new();
    while doors.len() < count.div_ceil(2) {
        let f = rng.random_range(0..building.rooms_by_floor.len());
        let rooms = &building.rooms_by_floor[f];
        let room = rooms[rng.random_range(0..rooms.len())];
        let door = building.space.doors_of(room).expect("generated room")[0];
        if !doors.contains(&door) {
            doors.push(door);
        }
    }
    (0..count)
        .map(|i| {
            if i.is_multiple_of(2) {
                Update::CloseDoor(doors[i / 2])
            } else {
                Update::OpenDoor(doors[i / 2])
            }
        })
        .collect()
}

/// One historical *case*: an analyst follows one object — its
/// trajectory, who it moved with, who else came within `r` of where it
/// was seen during a short window, and its `k` nearest neighbours at the
/// window's end.
#[derive(Clone, Copy, Debug)]
pub struct Case {
    pub object: ObjectId,
    pub q: IndoorPoint,
    pub from: u64,
    pub to: u64,
}

/// Epochs per `RangeDuring` window.
pub const CASE_WINDOW: u64 = 8;

/// `count` cases over the retained epochs `[oldest, newest]`. Window
/// ends sweep the retained range evenly (replay cost grows with the
/// distance from the nearest keyframe, so a sweep covers every distance
/// equally in every run); objects and points are seeded.
pub fn history_cases(
    world: &World,
    oldest: u64,
    newest: u64,
    count: usize,
    seed: u64,
) -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(seed);
    let points = query_points(&world.building, count, seed ^ 0xCA5E);
    let ids = world.store.ids_sorted();
    let first_end = (oldest + CASE_WINDOW - 1).min(newest);
    let ends = newest - first_end + 1;
    (0..count)
        .map(|i| {
            // A stride coprime with most lengths spreads consecutive
            // cases across keyframe distances instead of walking them in
            // order.
            let to = first_end + (i as u64 * 37) % ends;
            Case {
                object: ids[rng.random_range(0..ids.len())],
                q: points[i],
                from: to.saturating_sub(CASE_WINDOW - 1).max(oldest),
                to,
            }
        })
        .collect()
}

pub fn digest_case(d: &mut Digest, case: &Case) {
    d.u64(case.object.0);
    d.f64(case.q.point.x);
    d.f64(case.q.point.y);
    d.u64(case.q.floor as u64);
    d.u64(case.from);
    d.u64(case.to);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::Population;
    use std::collections::HashMap;

    fn small_world(seed: u64) -> World {
        World::generate(
            Population {
                floors: 2,
                objects: 600,
                radius: 10.0,
                instances: 2,
            },
            seed,
        )
    }

    fn stream_digest(seed: u64) -> Digest {
        let world = small_world(seed);
        let mut d = Digest::default();
        let points = query_points(&world.building, 32, seed);
        for i in 0..64 {
            digest_query(&mut d, &paper_query(&points, QueryKind::Range, i));
            digest_query(&mut d, &paper_query(&points, QueryKind::Knn, i));
            digest_query(&mut d, &default_query(&points, i));
        }
        let mut local = Neighbourhoods::new(&world, 16, seed);
        let mut waves = ScatteredWaves::new(&world, 32, seed);
        for _ in 0..8 {
            digest_updates(&mut d, &local.next_batch().2);
            digest_updates(&mut d, &waves.next_wave(&world.building));
        }
        digest_updates(&mut d, &door_toggles(&world.building, 4, seed));
        for case in history_cases(&world, 3, 40, 16, seed) {
            digest_case(&mut d, &case);
        }
        d
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        assert_eq!(stream_digest(7), stream_digest(7));
        assert_ne!(stream_digest(7), stream_digest(8));
    }

    #[test]
    fn paper_protocol_sweeps_evenly_and_every_point_meets_every_step() {
        let points = query_points(&small_world(1).building, 6, 1);
        let label = |query: Query| match query {
            Query::Range { r, .. } => format!("r{r}"),
            Query::Knn { k, .. } => format!("k{k}"),
            _ => unreachable!(),
        };
        let stream = |kind, range: std::ops::Range<usize>| -> Vec<String> {
            range
                .map(|i| label(paper_query(&points, kind, i)))
                .collect()
        };
        assert_eq!(stream(QueryKind::Range, 0..3), ["r50", "r100", "r150"]);
        assert_eq!(stream(QueryKind::Knn, 0..3), ["k50", "k100", "k150"]);
        // Six points, a multiple of the sweep: without the shift per pass
        // the first point would meet r50 for ever.
        let first_point: Vec<String> = (0..3)
            .map(|pass| label(paper_query(&points, QueryKind::Range, pass * 6)))
            .collect();
        assert_eq!(first_point, ["r50", "r100", "r150"]);
        let group = paper_group(points[0]);
        assert!(group.iter().all(|q| q.query_point() == points[0]));
        let mut kinds: Vec<String> = group.into_iter().map(label).collect();
        kinds.sort();
        assert_eq!(kinds, ["k100", "k150", "k50", "r100", "r150", "r50"]);
    }

    #[test]
    fn neighbourhood_batches_stay_inside_their_window() {
        let world = small_world(3);
        let space = &world.building.space;
        let mut stream = Neighbourhoods::new(&world, 16, 3);
        // Where every object is, as partitions: settle first, then
        // follow the batches.
        let mut at: HashMap<ObjectId, PartitionId> = HashMap::new();
        let apply = |updates: &[Update], at: &mut HashMap<ObjectId, PartitionId>| {
            for u in updates {
                let Update::MoveObject {
                    id, center, floor, ..
                } = u
                else {
                    panic!("only moves");
                };
                let room = space
                    .partition_at(IndoorPoint::new(*center, *floor))
                    .expect("room centres lie in rooms");
                at.insert(*id, room);
            }
        };
        for batch in stream.settle() {
            apply(&batch, &mut at);
        }
        assert_eq!(at.len(), 600, "settling places every object");
        for _ in 0..200 {
            let (f, n, batch) = stream.next_batch();
            assert!(!batch.is_empty());
            let window = stream.window(f, n);
            for u in &batch {
                let id = u.object_id().expect("a move names its object");
                assert!(
                    window.contains(&at[&id]),
                    "before-partition inside the window"
                );
            }
            apply(&batch, &mut at);
            for u in &batch {
                let id = u.object_id().expect("a move names its object");
                assert!(
                    window.contains(&at[&id]),
                    "after-partition inside the window"
                );
            }
        }
    }

    #[test]
    fn scattered_waves_move_distinct_objects() {
        let world = small_world(5);
        let mut waves = ScatteredWaves::new(&world, 64, 5);
        for _ in 0..20 {
            let wave = waves.next_wave(&world.building);
            assert_eq!(wave.len(), 64);
            let mut ids: Vec<_> = wave.iter().filter_map(Update::object_id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 64, "no object moves twice in one wave");
        }
    }

    #[test]
    fn door_toggles_close_then_reopen_one_door_at_a_time() {
        let world = small_world(9);
        let toggles = door_toggles(&world.building, 5, 9);
        assert_eq!(toggles.len(), 5);
        for pair in toggles.chunks(2) {
            let Update::CloseDoor(closed) = pair[0] else {
                panic!("even toggles close");
            };
            if let Some(Update::OpenDoor(opened)) = pair.get(1) {
                assert_eq!(*opened, closed);
            }
        }
    }

    #[test]
    fn history_windows_stay_inside_the_retained_range() {
        let world = small_world(11);
        for case in history_cases(&world, 10, 60, 100, 11) {
            assert!(case.from >= 10 && case.to <= 60 && case.from <= case.to);
            assert!(case.to - case.from < CASE_WINDOW);
        }
        let ends: std::collections::BTreeSet<u64> = history_cases(&world, 10, 60, 100, 11)
            .iter()
            .map(|c| c.to)
            .collect();
        assert!(ends.len() > 30, "window ends sweep the retained range");
    }
}
