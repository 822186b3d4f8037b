//! Oracle for the standing kNN monitor: after every absorbed delta, its
//! ranking equals a fresh `knn_query(k)` bit for bit.
//!
//! A `KnnMonitor` keeps every object keyed at or below a boundary fixed at
//! its last re-query (the set W), answers with the first `k` of W and
//! re-queries only when fewer than `k` remain. The random deltas here
//! remove members of W, move objects across the boundary in both
//! directions, insert, place objects in exact ties with ranked ones
//! (mirror images across the floor's axis of symmetry) and toggle doors,
//! under each ablation of the query options and from populations smaller
//! than the depth a re-query ranks, so that a boundary of `∞` tightens.

use indoor_dq::geom::{Circle, Point2, Rect2};
use indoor_dq::index::{CompositeIndex, IndexConfig};
use indoor_dq::model::{DoorId, FloorPlanBuilder, IndoorPoint, IndoorSpace};
use indoor_dq::objects::{ObjectId, ObjectStore, UncertainObject};
use indoor_dq::query::{knn_query, KnnMonitor, QueryOptions};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Rooms A | B | C and a hall on y ∈ [0, 10], each pair joined by a door
/// on y = 5, and a second door between A and B. Every door lies on the
/// line y = 5, so mirroring a position across it keeps every indoor
/// distance from a query point on that line, bit for bit.
fn world() -> (IndoorSpace, Vec<DoorId>) {
    let mut b = FloorPlanBuilder::new(4.0);
    let mut room = |x0: f64, x1: f64| {
        b.add_room(0, Rect2::from_bounds(x0, 0.0, x1, 10.0))
            .unwrap()
    };
    let (a, rb, c, hall) = (
        room(0.0, 10.0),
        room(10.0, 20.0),
        room(20.0, 30.0),
        room(30.0, 60.0),
    );
    let mut doors = vec![
        b.add_door_between(a, rb, Point2::new(10.0, 5.0)).unwrap(),
        b.add_door_between(rb, c, Point2::new(20.0, 5.0)).unwrap(),
        b.add_door_between(c, hall, Point2::new(30.0, 5.0)).unwrap(),
    ];
    // Parallel to the first door, mirrored: (10, 2) and (10, 8).
    for y in [2.0, 8.0] {
        doors.push(b.add_door_between(a, rb, Point2::new(10.0, y)).unwrap());
    }
    (b.finish().unwrap(), doors)
}

/// An object on the integer grid: a point, or three instances spread
/// along x around the centre.
#[derive(Clone, Copy, Debug)]
struct Placement {
    x: u8,
    y: u8,
    spread: bool,
}

impl Placement {
    fn object(self, id: ObjectId) -> UncertainObject {
        let (x, y) = (self.x as f64, self.y as f64);
        let at = IndoorPoint::new(Point2::new(x, y), 0);
        if !self.spread {
            return UncertainObject::point_object(id, at);
        }
        let positions = vec![
            Point2::new(x - 1.0, y),
            Point2::new(x, y),
            Point2::new(x + 1.0, y),
        ];
        UncertainObject::with_uniform_weights(id, Circle::new(at.point, 1.5), 0, positions).unwrap()
    }

    /// The mirror image across y = 5.
    fn mirrored(self) -> Self {
        Placement {
            y: 10 - self.y,
            ..self
        }
    }
}

#[derive(Clone, Debug)]
enum Op {
    /// Inserts object `slot`, or moves it.
    Place(u64, Placement),
    /// Removes object `slot`, if present.
    Remove(u64),
    /// Removes the object at `rank` in a fresh ranking: a member of W
    /// while `rank` < k.
    RemoveRanked(usize),
    /// Moves the object at `rank`: out of W when it goes far, into W
    /// when a far rank comes near.
    MoveRanked(usize, Placement),
    /// Places object `slot` at the mirror image of the object at `rank`:
    /// an exact tie, broken by id.
    Mirror(u64, usize),
    /// Moves the object at `rank` to its own mirror image: re-priced at
    /// its old key, the boundary's own when it holds rank k + Δ.
    Reflect(usize),
    /// Opens or closes a door.
    ToggleDoor(usize),
}

const SLOTS: u64 = 24;

/// A drawn op: `(kind, slot, rank, x, y, spread)`.
type RawOp = (u8, u64, usize, u8, u8, u8);

fn raw_op() -> impl Strategy<Value = RawOp> {
    (0u8..16, 0..SLOTS, 0usize..12, 1u8..=59, 1u8..=9, 0u8..2)
}

/// Decodes a drawn op (the vendored proptest has no `prop_oneof`): the
/// kind picks the op with weights 5 : 1 : 2 : 3 : 2 : 2 : 1.
fn decode((kind, slot, rank, x, y, spread): RawOp) -> Op {
    let p = Placement {
        x,
        y,
        spread: spread == 1,
    };
    match kind {
        0..=4 => Op::Place(slot, p),
        5 => Op::Remove(slot),
        6..=7 => Op::RemoveRanked(rank % 8),
        8..=10 => Op::MoveRanked(rank, p),
        11..=12 => Op::Mirror(slot, rank),
        13..=14 => Op::Reflect(rank),
        _ => Op::ToggleDoor(rank % 4),
    }
}

struct World {
    space: IndoorSpace,
    doors: Vec<DoorId>,
    store: ObjectStore,
    index: CompositeIndex,
    placed: BTreeMap<u64, Placement>,
    /// Ids the ops of the current delta placed or removed.
    touched: Vec<u64>,
    q: IndoorPoint,
    options: QueryOptions,
}

impl World {
    /// The ids ranked by a fresh query deep enough for every rank an op
    /// names.
    fn ranking(&self) -> Vec<u64> {
        let out = knn_query(
            &self.space,
            &self.index,
            &self.store,
            self.q,
            16,
            &self.options,
        );
        out.unwrap().results.iter().map(|h| h.object.0).collect()
    }

    fn put(&mut self, slot: u64, p: Placement) {
        let id = ObjectId(slot);
        if self.store.contains(id) {
            self.store.remove(id).unwrap();
            self.store.insert(p.object(id)).unwrap();
            let obj = self.store.get(id).unwrap();
            self.index.update_object(&self.space, obj).unwrap();
        } else {
            let obj = p.object(id);
            self.index.insert_object(&self.space, &obj).unwrap();
            self.store.insert(obj).unwrap();
        }
        self.placed.insert(slot, p);
        self.touched.push(slot);
    }

    fn remove(&mut self, slot: u64) {
        if self.placed.remove(&slot).is_some() {
            self.index.remove_object(ObjectId(slot)).unwrap();
            self.store.remove(ObjectId(slot)).unwrap();
            self.touched.push(slot);
        }
    }

    /// Applies one op; returns whether it changed the topology.
    fn apply(&mut self, op: &Op) -> bool {
        let ranked = |w: &World, rank: usize| w.ranking().get(rank).copied();
        match *op {
            Op::Place(slot, p) => self.put(slot, p),
            Op::Remove(slot) => self.remove(slot),
            Op::RemoveRanked(rank) => {
                if let Some(slot) = ranked(self, rank) {
                    self.remove(slot);
                }
            }
            Op::MoveRanked(rank, p) => {
                if let Some(slot) = ranked(self, rank) {
                    self.put(slot, p);
                }
            }
            Op::Mirror(slot, rank) => {
                if let Some(of) = ranked(self, rank).filter(|&of| of != slot) {
                    let p = self.placed[&of].mirrored();
                    self.put(slot, p);
                }
            }
            Op::Reflect(rank) => {
                if let Some(slot) = ranked(self, rank) {
                    let p = self.placed[&slot].mirrored();
                    self.put(slot, p);
                }
            }
            Op::ToggleDoor(i) => {
                let d = self.doors[i];
                let ev = if self.space.door(d).unwrap().open {
                    self.space.close_door(d)
                } else {
                    self.space.open_door(d)
                };
                let ev = ev.unwrap();
                self.index
                    .apply_topology(&self.space, &self.store, &ev)
                    .unwrap();
                return true;
            }
        }
        false
    }

    fn check(&self, mon: &KnnMonitor, k: usize, step: &str) {
        let fresh = knn_query(
            &self.space,
            &self.index,
            &self.store,
            self.q,
            k,
            &self.options,
        )
        .unwrap()
        .results;
        let want: Vec<(ObjectId, u64)> = fresh
            .iter()
            .map(|h| (h.object, h.distance.to_bits()))
            .collect();
        let got: Vec<(ObjectId, u64)> = mon
            .ranked()
            .iter()
            .map(|&(id, d)| (id, d.to_bits()))
            .collect();
        assert_eq!(got, want, "ranking after {step}");
        let mut ids: Vec<ObjectId> = fresh.iter().map(|h| h.object).collect();
        ids.sort_unstable();
        assert_eq!(mon.current(), ids, "ids after {step}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn monitor_ranking_equals_a_fresh_query_after_every_delta(
        initial in proptest::collection::vec((0..SLOTS, 1u8..=59, 1u8..=9, 0u8..2), 0..20),
        deltas in proptest::collection::vec(proptest::collection::vec(raw_op(), 1..4), 1..24),
        k in 1usize..6,
        qx in 0usize..5,
        ablation in 0usize..3,
    ) {
        let (space, doors) = world();
        let options = [
            QueryOptions::default(),
            QueryOptions::default().without_pruning(),
            QueryOptions::default().without_skeleton(),
        ][ablation];
        let store = ObjectStore::new();
        let index = CompositeIndex::build(&space, &store, IndexConfig::default()).unwrap();
        let q = IndoorPoint::new(Point2::new([5.0, 3.0, 15.0, 25.0, 45.0][qx], 5.0), 0);
        let mut w = World {
            space,
            doors,
            store,
            index,
            placed: BTreeMap::new(),
            touched: Vec::new(),
            q,
            options,
        };
        // The initial population: smaller than k + Δ in many cases.
        for &(slot, x, y, spread) in &initial {
            w.put(slot, Placement { x, y, spread: spread == 1 });
        }
        let mut mon = KnnMonitor::new(q, k, options).unwrap();
        mon.refresh(&w.space, &w.index, &w.store).unwrap();
        w.check(&mon, k, "refresh");

        for (i, delta) in deltas.iter().enumerate() {
            let before: Vec<u64> = w.placed.keys().copied().collect();
            let mut topology_changed = false;
            let delta: Vec<Op> = delta.iter().map(|&raw| decode(raw)).collect();
            for op in &delta {
                topology_changed |= w.apply(op);
            }
            // The net delta, as a commit reports it: the touched ids
            // placed after the batch, and those placed only before it.
            let mut named = std::mem::take(&mut w.touched);
            named.sort_unstable();
            named.dedup();
            let (updated, removed): (Vec<u64>, Vec<u64>) =
                named.into_iter().partition(|id| w.placed.contains_key(id));
            let ids = |v: Vec<u64>| -> Vec<ObjectId> { v.into_iter().map(ObjectId).collect() };
            let updated = ids(updated);
            let removed = ids(removed.into_iter().filter(|id| before.contains(id)).collect());
            mon.absorb_delta(&updated, &removed, topology_changed, &w.space, &w.index, &w.store)
                .unwrap();
            w.check(&mon, k, &format!("delta {i}: {delta:?}"));
        }
    }
}

/// An object placed at the boundary's own distance, with a smaller id,
/// is keyed below B and must enter W: once the nearer object leaves, the
/// tie decides the answer.
#[test]
fn an_object_tied_with_the_boundary_enters_w() {
    let (space, doors) = world();
    let store = ObjectStore::new();
    let index = CompositeIndex::build(&space, &store, IndexConfig::default()).unwrap();
    let q = IndoorPoint::new(Point2::new(5.0, 5.0), 0);
    let options = QueryOptions::default();
    let mut w = World {
        space,
        doors,
        store,
        index,
        placed: BTreeMap::new(),
        touched: Vec::new(),
        q,
        options,
    };
    let mut mon = KnnMonitor::new(q, 1, options).unwrap();
    mon.refresh(&w.space, &w.index, &w.store).unwrap();
    let point = |x, y| Placement {
        x,
        y,
        spread: false,
    };
    // Two objects fill W to k + Δ = 2 and set B at object 20.
    let steps = [
        Op::Place(10, point(6, 5)),
        Op::Place(20, point(8, 7)),
        Op::Mirror(15, 1),
        Op::Remove(10),
    ];
    for (i, op) in steps.iter().enumerate() {
        let before: Vec<u64> = w.placed.keys().copied().collect();
        w.apply(op);
        let touched = std::mem::take(&mut w.touched);
        let (updated, removed): (Vec<u64>, Vec<u64>) = touched
            .into_iter()
            .partition(|id| w.placed.contains_key(id));
        assert!(removed.iter().all(|id| before.contains(id)));
        let ids = |v: Vec<u64>| -> Vec<ObjectId> { v.into_iter().map(ObjectId).collect() };
        mon.absorb_delta(
            &ids(updated),
            &ids(removed),
            false,
            &w.space,
            &w.index,
            &w.store,
        )
        .unwrap();
        w.check(&mon, 1, &format!("step {i}: {op:?}"));
        if i == 1 {
            assert!(mon.radius().is_finite(), "W reached k + Δ: B tightened");
        }
    }
    assert_eq!(
        mon.current(),
        [ObjectId(15)],
        "the tie goes to the smaller id"
    );
    assert_eq!(mon.work().requeries, 0);
}
