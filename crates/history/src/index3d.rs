//! The 3D `(x, y, time)` trajectory index.
//!
//! Object movement between epochs is stored as **presence segments**: one
//! segment per (object, resting position) pair, spanning the inclusive
//! epoch interval the object spent at that position. An object that moves
//! at epoch `e` closes its open segment at `e - 1` and opens a new one at
//! `e`; a stationary object contributes one long segment, so historical
//! range queries see resting objects too — a pure per-move index would
//! miss them.
//!
//! Closed segments are indexed per floor in an insert-only 3D R-tree over
//! boxes `(footprint rect, epoch interval)`, the classic 3D R-tree layout
//! for historical trajectories with time as the third axis. The tree is
//! [`idq_index::RTree`] at the [`Box3`] bounds type; this module only
//! says what a box is and which segments are alive. Because the
//! planar indoor distance is lower-bounded by Euclidean xy distance, a
//! box probe with the query circle's bounding rect is a sound prefilter
//! for distance-aware historical queries: it can over-approximate but
//! never miss.
//!
//! Segments are never deleted individually; eviction retires whole time
//! prefixes by flipping `alive` flags and rebuilding a floor's tree once
//! the dead fraction passes one half.

use idq_geom::{IdMap, Point2, Rect2};
use idq_index::rtree::{Bounds, LeafEntry, RTree};
use idq_model::{Floor, PartitionId};
use idq_objects::ObjectId;
use std::ops::ControlFlow;

/// A 3D axis-aligned box: a planar rect extruded over an inclusive epoch
/// interval `[t_lo, t_hi]`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Box3 {
    /// Planar extent.
    pub rect: Rect2,
    /// First epoch covered (inclusive).
    pub t_lo: u64,
    /// Last epoch covered (inclusive).
    pub t_hi: u64,
}

/// Axis 0 is time: segments arrive roughly sorted by it, so on ties the
/// tree splits along time and stays narrow.
impl Bounds for Box3 {
    const AXES: usize = 3;

    fn empty() -> Self {
        Box3 {
            rect: Rect2::empty_sentinel(),
            t_lo: u64::MAX,
            t_hi: 0,
        }
    }

    fn union(&self, other: &Box3) -> Box3 {
        Box3 {
            rect: self.rect.union(&other.rect),
            t_lo: self.t_lo.min(other.t_lo),
            t_hi: self.t_hi.max(other.t_hi),
        }
    }

    /// Closed-interval overlap on all three axes.
    fn intersects(&self, other: &Box3) -> bool {
        self.t_lo <= other.t_hi && other.t_lo <= self.t_hi && self.rect.intersects(&other.rect)
    }

    /// Planar area times the epoch-count extent. Degenerate (point) rects
    /// still get a positive time extent, so pure-time enlargement is
    /// visible to the descent heuristic.
    fn measure(&self) -> f64 {
        if self.rect.is_empty_sentinel() || self.t_lo > self.t_hi {
            return 0.0;
        }
        self.rect.area().max(1e-9) * (self.t_hi - self.t_lo + 1) as f64
    }

    fn center(&self, axis: usize) -> f64 {
        match axis {
            0 => (self.t_lo + self.t_hi) as f64 * 0.5,
            1 => self.rect.center().x,
            _ => self.rect.center().y,
        }
    }
}

/// One presence segment: an object resting at `position` from `from_epoch`
/// until (exclusively) `to_epoch`.
#[derive(Clone, Debug)]
pub struct Segment {
    /// The object this segment belongs to.
    pub object: ObjectId,
    /// Floor the object rested on.
    pub floor: Floor,
    /// Partition of the resting position, when it resolves to one
    /// (objects in doors or dead zones carry `None`).
    pub partition: Option<PartitionId>,
    /// Center of the uncertainty region while resting.
    pub position: Point2,
    /// Planar footprint (region bbox ∪ instance bbox) while resting.
    pub rect: Rect2,
    /// First epoch at this position (inclusive).
    pub from_epoch: u64,
    /// Wall-clock stamp of the commit that opened the segment
    /// (milliseconds since the Unix epoch; 0 when the clock was
    /// unreadable). Metadata only — queries are epoch-addressed.
    pub from_wall_ms: u64,
    /// First epoch *not* at this position (exclusive bound).
    pub to_epoch: u64,
    /// Cleared when the segment's whole interval falls out of retention.
    pub alive: bool,
}

impl Segment {
    /// The 3D box this segment occupies (inclusive epoch interval).
    pub fn box3(&self) -> Box3 {
        Box3 {
            rect: self.rect,
            t_lo: self.from_epoch,
            t_hi: self.to_epoch.saturating_sub(1).max(self.from_epoch),
        }
    }
}

/// Fanout of the per-floor segment trees.
const SEGMENT_FANOUT: usize = 16;

/// One floor's tree: segment boxes (held inline in the leaves) carrying
/// arena ids. Insert-only between rebuilds.
type SegmentTree = RTree<Box3, u32>;

/// The segment arena plus its per-floor 3D R-trees and the exact lookup
/// side tables (`by_object` for trajectories, `by_partition` for
/// co-movement).
#[derive(Clone, Debug, Default)]
pub struct SegmentStore {
    arena: Vec<Segment>,
    /// One tree per floor, indexed by floor number; grown on demand.
    trees: Vec<SegmentTree>,
    by_object: IdMap<ObjectId, Vec<u32>>,
    by_partition: IdMap<PartitionId, Vec<u32>>,
    dead: usize,
}

impl SegmentStore {
    /// Appends a closed segment to the arena and every lookup structure.
    pub fn push(&mut self, seg: Segment) {
        debug_assert!(seg.to_epoch > seg.from_epoch);
        let id = self.arena.len() as u32;
        let floor = seg.floor as usize;
        if self.trees.len() <= floor {
            self.trees
                .resize_with(floor + 1, || RTree::new(SEGMENT_FANOUT));
        }
        self.trees[floor].insert(LeafEntry {
            bounds: seg.box3(),
            item: id,
        });
        self.by_object.entry(seg.object).or_default().push(id);
        if let Some(p) = seg.partition {
            self.by_partition.entry(p).or_default().push(id);
        }
        self.arena.push(seg);
    }

    /// The segment with arena id `id`.
    pub fn get(&self, id: u32) -> &Segment {
        &self.arena[id as usize]
    }

    /// Live segments of `object` whose interval intersects `[from, to]`
    /// (inclusive), in arena (time) order.
    pub fn of_object(&self, object: ObjectId, from: u64, to: u64) -> Vec<&Segment> {
        let Some(ids) = self.by_object.get(&object) else {
            return Vec::new();
        };
        ids.iter()
            .map(|&id| &self.arena[id as usize])
            .filter(|s| s.alive && s.from_epoch <= to && s.to_epoch > from)
            .collect()
    }

    /// Live segments resting in `partition` whose interval intersects
    /// `[from, to]` (inclusive).
    pub fn in_partition(&self, partition: PartitionId, from: u64, to: u64) -> Vec<&Segment> {
        let Some(ids) = self.by_partition.get(&partition) else {
            return Vec::new();
        };
        ids.iter()
            .map(|&id| &self.arena[id as usize])
            .filter(|s| s.alive && s.from_epoch <= to && s.to_epoch > from)
            .collect()
    }

    /// Visits the arena id of every live segment on `floor` intersecting
    /// `probe`, via the floor's 3D tree, until `visit` breaks.
    fn search_floor(
        &self,
        floor: Floor,
        probe: &Box3,
        mut visit: impl FnMut(u32) -> ControlFlow<()>,
    ) {
        let Some(tree) = self.trees.get(floor as usize) else {
            return;
        };
        tree.search(
            |b| b.intersects(probe),
            |e| {
                if self.arena[e.item as usize].alive {
                    visit(e.item)
                } else {
                    ControlFlow::Continue(())
                }
            },
        );
    }

    /// Live segments on `floor` intersecting `probe` via the floor's 3D
    /// tree (arena ids, unordered).
    pub fn probe_floor(&self, floor: Floor, probe: &Box3) -> Vec<u32> {
        let mut out = Vec::new();
        self.search_floor(floor, probe, |id| {
            out.push(id);
            ControlFlow::Continue(())
        });
        out
    }

    /// Whether any live segment on `floor` intersects `probe` — the
    /// cheap existence prefilter historical range walks use to skip
    /// epochs whose window provably holds nothing near the query.
    pub fn floor_has_any(&self, floor: Floor, probe: &Box3) -> bool {
        let mut found = false;
        self.search_floor(floor, probe, |_| {
            found = true;
            ControlFlow::Break(())
        });
        found
    }

    /// Whether any live segment on **any** floor intersects `probe`.
    /// Sound as a historical range prefilter across floors too: indoor
    /// distance is lower-bounded by planar Euclidean distance regardless
    /// of the floors involved, so an object in range of `q` always has a
    /// footprint intersecting the `q ± r` rect.
    pub fn any_has(&self, probe: &Box3) -> bool {
        (0..self.trees.len()).any(|f| self.floor_has_any(f as Floor, probe))
    }

    /// Retires every segment whose whole interval precedes `oldest`
    /// (i.e. `to_epoch <= oldest`), then compacts once dead segments
    /// outnumber live ones.
    pub fn retire_before(&mut self, oldest: u64) {
        for seg in &mut self.arena {
            if seg.alive && seg.to_epoch <= oldest {
                seg.alive = false;
                self.dead += 1;
            }
        }
        if self.dead * 2 > self.arena.len() {
            self.rebuild();
        }
    }

    /// Drops dead segments and rebuilds the arena, trees and side tables
    /// from the survivors.
    fn rebuild(&mut self) {
        let survivors: Vec<Segment> = self.arena.drain(..).filter(|s| s.alive).collect();
        self.trees.clear();
        self.by_object.clear();
        self.by_partition.clear();
        self.dead = 0;
        for seg in survivors {
            self.push(seg);
        }
    }

    /// Live (closed) segments.
    pub fn len(&self) -> usize {
        self.arena.len() - self.dead
    }

    /// Whether no live segment remains.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate retained bytes of the arena and trees.
    ///
    /// Arena: a [`Segment`] is 96 B. Trees, counted by
    /// [`RTree::approx_bytes`] from the layout itself: 56 B per leaf entry
    /// (the 48 B [`Box3`] inline + the `u32` id, padded) and 88 B per node
    /// (48 B bounds + 32 B tagged `Vec` + 8 B for its slot in the parent's
    /// child list). Time-ordered appends leave leaves half full, so a
    /// segment costs ≈ 96 + 56 + 88/8 ≈ 163 B in all.
    pub fn approx_bytes(&self) -> usize {
        self.arena.len() * std::mem::size_of::<Segment>()
            + self.trees.iter().map(RTree::approx_bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(object: u64, x: f64, y: f64, from: u64, to: u64) -> Segment {
        Segment {
            object: ObjectId(object),
            floor: 0,
            partition: Some(PartitionId((x as u32) / 10)),
            position: Point2::new(x, y),
            rect: Rect2::from_bounds(x - 1.0, y - 1.0, x + 1.0, y + 1.0),
            from_epoch: from,
            from_wall_ms: 0,
            to_epoch: to,
            alive: true,
        }
    }

    fn probe(x0: f64, y0: f64, x1: f64, y1: f64, t0: u64, t1: u64) -> Box3 {
        Box3 {
            rect: Rect2::from_bounds(x0, y0, x1, y1),
            t_lo: t0,
            t_hi: t1,
        }
    }

    /// Brute-force reference for the tree probe.
    fn brute(store: &SegmentStore, p: &Box3) -> Vec<u32> {
        (0..store.arena.len() as u32)
            .filter(|&id| {
                let s = &store.arena[id as usize];
                s.alive && s.floor == 0 && s.box3().intersects(p)
            })
            .collect()
    }

    #[test]
    fn probe_matches_brute_force() {
        let mut store = SegmentStore::default();
        // A grid of objects stepping right every 7 epochs.
        for o in 0..40u64 {
            for step in 0..12u64 {
                let x = (o % 8) as f64 * 9.0 + step as f64;
                let y = (o / 8) as f64 * 11.0;
                store.push(seg(o, x, y, step * 7, (step + 1) * 7));
            }
        }
        for (p, label) in [
            (probe(0.0, 0.0, 20.0, 20.0, 0, 10), "corner"),
            (probe(30.0, 30.0, 60.0, 60.0, 40, 80), "middle"),
            (probe(-5.0, -5.0, 200.0, 200.0, 0, 200), "everything"),
            (probe(500.0, 500.0, 510.0, 510.0, 0, 200), "nothing"),
            (probe(0.0, 0.0, 200.0, 200.0, 83, 83), "last instant"),
        ] {
            let mut got = store.probe_floor(0, &p);
            let mut want = brute(&store, &p);
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "probe {label}");
            assert_eq!(store.floor_has_any(0, &p), !want.is_empty(), "any {label}");
        }
    }

    #[test]
    fn of_object_returns_time_ordered_overlaps() {
        let mut store = SegmentStore::default();
        for step in 0..10u64 {
            store.push(seg(3, step as f64, 0.0, step * 5, (step + 1) * 5));
        }
        store.push(seg(4, 99.0, 99.0, 0, 50));
        let spans = store.of_object(ObjectId(3), 12, 27);
        let got: Vec<(u64, u64)> = spans.iter().map(|s| (s.from_epoch, s.to_epoch)).collect();
        assert_eq!(got, vec![(10, 15), (15, 20), (20, 25), (25, 30)]);
        assert!(store.of_object(ObjectId(9), 0, 100).is_empty());
    }

    #[test]
    fn retire_drops_old_segments_and_rebuilds() {
        let mut store = SegmentStore::default();
        for o in 0..30u64 {
            store.push(seg(o, o as f64, 0.0, 0, 10));
            store.push(seg(o, o as f64 + 1.0, 0.0, 10, 20));
        }
        assert_eq!(store.len(), 60);
        store.retire_before(10);
        // Half dead triggers nothing yet (strictly more than half does);
        // either way no retired segment is visible.
        assert_eq!(store.len(), 30);
        let p = probe(-10.0, -10.0, 100.0, 100.0, 0, 9);
        assert!(store.probe_floor(0, &p).is_empty());
        assert!(!store.floor_has_any(0, &p));
        store.retire_before(20);
        assert_eq!(store.len(), 0);
        assert_eq!(store.dead, 0, "full retire compacts the arena");
    }

    #[test]
    fn partition_lookup_filters_by_window() {
        let mut store = SegmentStore::default();
        store.push(seg(1, 5.0, 0.0, 0, 10)); // partition 0
        store.push(seg(2, 5.0, 1.0, 8, 20)); // partition 0
        store.push(seg(3, 25.0, 0.0, 0, 20)); // partition 2
        let hits = store.in_partition(PartitionId(0), 9, 9);
        let ids: Vec<u64> = hits.iter().map(|s| s.object.0).collect();
        assert_eq!(ids, vec![1, 2]);
        assert!(store.in_partition(PartitionId(0), 12, 15).len() == 1);
        assert!(store.in_partition(PartitionId(7), 0, 100).is_empty());
    }
}
