//! Presence segments: the `(x, y, time)` trajectory store.
//!
//! Object movement between epochs is stored as **presence segments**: one
//! segment per (object, resting position) pair, spanning the half-open
//! epoch interval `[from_epoch, to_epoch)` the object spent at that
//! position. An object that moves at epoch `e` closes its open segment
//! with `to_epoch = e` and opens a new one from `e`; a stationary object
//! contributes one long segment, so historical range queries see resting
//! objects too — a pure per-move index would miss them.
//!
//! The store is an arena in append (time) order with two exact side
//! tables: `by_object` for trajectories and `by_partition` for
//! co-movement. The one spatial question, whether anything rested near a
//! query during a window ([`SegmentStore::any_has`]), is a scan of the
//! arena: it gates a replay of the whole window, which costs far more
//! than the scan. All three lookups share one interval rule: a live
//! segment meets the inclusive window `[from, to]` when
//! `from_epoch <= to && to_epoch > from`.
//!
//! Segments are never deleted individually; eviction retires whole time
//! prefixes by flipping `alive` flags and compacts the arena once the
//! dead fraction passes one half.

use idq_geom::{IdMap, Point2, Rect2};
use idq_model::{Floor, PartitionId};
use idq_objects::ObjectId;

/// One presence segment: an object resting at `position` from `from_epoch`
/// until (exclusively) `to_epoch`.
#[derive(Clone, Debug)]
pub(crate) struct Segment {
    /// The object this segment belongs to.
    pub(crate) object: ObjectId,
    /// Floor the object rested on.
    pub(crate) floor: Floor,
    /// Partition of the resting position, when it resolves to one
    /// (objects in doors or dead zones carry `None`).
    pub(crate) partition: Option<PartitionId>,
    /// Center of the uncertainty region while resting.
    pub(crate) position: Point2,
    /// Planar footprint (region bbox ∪ instance bbox) while resting.
    pub(crate) rect: Rect2,
    /// First epoch at this position (inclusive).
    pub(crate) from_epoch: u64,
    /// Wall-clock stamp of the commit that opened the segment
    /// (milliseconds since the Unix epoch; 0 when the clock was
    /// unreadable). Metadata only — queries are epoch-addressed.
    pub(crate) from_wall_ms: u64,
    /// First epoch *not* at this position (exclusive bound).
    pub(crate) to_epoch: u64,
    /// Cleared when the segment's whole interval falls out of retention.
    pub(crate) alive: bool,
}

impl Segment {
    /// Whether the segment is retained and its interval
    /// `[from_epoch, to_epoch)` meets the inclusive window `[from, to]`.
    fn live_during(&self, from: u64, to: u64) -> bool {
        self.alive && self.from_epoch <= to && self.to_epoch > from
    }
}

/// The segment arena plus the exact lookup side tables (`by_object` for
/// trajectories, `by_partition` for co-movement).
#[derive(Clone, Debug, Default)]
pub(crate) struct SegmentStore {
    arena: Vec<Segment>,
    by_object: IdMap<ObjectId, Vec<u32>>,
    by_partition: IdMap<PartitionId, Vec<u32>>,
    dead: usize,
}

impl SegmentStore {
    /// Appends a closed segment to the arena and both side tables.
    pub(crate) fn push(&mut self, seg: Segment) {
        debug_assert!(seg.to_epoch > seg.from_epoch);
        let id = self.arena.len() as u32;
        self.by_object.entry(seg.object).or_default().push(id);
        if let Some(p) = seg.partition {
            self.by_partition.entry(p).or_default().push(id);
        }
        self.arena.push(seg);
    }

    /// Live segments of `object` whose interval intersects `[from, to]`
    /// (inclusive), in arena (time) order.
    pub(crate) fn of_object(&self, object: ObjectId, from: u64, to: u64) -> Vec<&Segment> {
        self.lookup(self.by_object.get(&object), from, to)
    }

    /// Live segments resting in `partition` whose interval intersects
    /// `[from, to]` (inclusive).
    pub(crate) fn in_partition(&self, partition: PartitionId, from: u64, to: u64) -> Vec<&Segment> {
        self.lookup(self.by_partition.get(&partition), from, to)
    }

    fn lookup(&self, ids: Option<&Vec<u32>>, from: u64, to: u64) -> Vec<&Segment> {
        ids.into_iter()
            .flatten()
            .map(|&id| &self.arena[id as usize])
            .filter(|s| s.live_during(from, to))
            .collect()
    }

    /// Whether any live segment, on any floor, has a footprint meeting
    /// `rect` during `[from, to]` (inclusive). Sound as a historical range
    /// prefilter with the `q ± r` rect: indoor distance is lower-bounded
    /// by planar Euclidean distance regardless of the floors involved, so
    /// an object in range of `q` always has a footprint meeting it.
    pub(crate) fn any_has(&self, rect: &Rect2, from: u64, to: u64) -> bool {
        self.arena
            .iter()
            .any(|s| s.live_during(from, to) && s.rect.intersects(rect))
    }

    /// Retires every segment whose whole interval precedes `oldest`
    /// (i.e. `to_epoch <= oldest`), then compacts once dead segments
    /// outnumber live ones.
    pub(crate) fn retire_before(&mut self, oldest: u64) {
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

    /// Drops dead segments and rebuilds the arena and side tables from
    /// the survivors.
    fn rebuild(&mut self) {
        let survivors: Vec<Segment> = self.arena.drain(..).filter(|s| s.alive).collect();
        self.by_object.clear();
        self.by_partition.clear();
        self.dead = 0;
        for seg in survivors {
            self.push(seg);
        }
    }

    /// Live (closed) segments.
    pub(crate) fn len(&self) -> usize {
        self.arena.len() - self.dead
    }

    /// Approximate retained bytes, up to `Vec` growth slack and the side
    /// tables' per-key overhead.
    ///
    /// A segment holds its 96 B arena slot ([`Segment`] inline) and one
    /// 4 B `u32` id in `by_object`, plus one in `by_partition` unless it
    /// rested in a door or dead zone. Counting that second id for every
    /// segment bounds the rare partitionless ones from above: a segment
    /// costs 96 + 4 + 4 = 104 B.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.arena.len() * (std::mem::size_of::<Segment>() + 2 * std::mem::size_of::<u32>())
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

    /// A probe: a planar rect and an inclusive epoch window.
    type Probe = (Rect2, u64, u64);

    fn probe(x0: f64, y0: f64, x1: f64, y1: f64, t0: u64, t1: u64) -> Probe {
        (Rect2::from_bounds(x0, y0, x1, y1), t0, t1)
    }

    /// Brute-force reference for the scan: enumerates the epochs each
    /// live segment covers instead of comparing interval ends.
    fn brute(store: &SegmentStore, (rect, from, to): &Probe) -> bool {
        store.arena.iter().any(|s| {
            s.alive
                && s.rect.intersects(rect)
                && (s.from_epoch..s.to_epoch).any(|e| (*from..=*to).contains(&e))
        })
    }

    fn any_has(store: &SegmentStore, (rect, from, to): &Probe) -> bool {
        store.any_has(rect, *from, *to)
    }

    #[test]
    fn any_has_matches_brute_force() {
        let mut store = SegmentStore::default();
        // A grid of objects stepping right every 7 epochs, on two floors.
        for o in 0..40u64 {
            for step in 0..12u64 {
                let x = (o % 8) as f64 * 9.0 + step as f64;
                let y = (o / 8) as f64 * 11.0;
                store.push(Segment {
                    floor: (o % 2) as Floor,
                    ..seg(o, x, y, step * 7, (step + 1) * 7)
                });
            }
        }
        // One lone segment on floor 1, far from the grid: [100, 110).
        store.push(Segment {
            floor: 1,
            ..seg(99, 300.0, 300.0, 100, 110)
        });
        let lone = (300.0, 300.0, 301.0, 301.0);
        let cases = [
            (probe(0.0, 0.0, 20.0, 20.0, 0, 10), "corner", true),
            (probe(30.0, 30.0, 60.0, 60.0, 40, 80), "middle", true),
            (probe(-5.0, -5.0, 200.0, 200.0, 0, 200), "everything", true),
            (probe(500.0, 500.0, 510.0, 510.0, 0, 200), "nothing", false),
            (probe(0.0, 0.0, 200.0, 200.0, 83, 83), "last instant", true),
            // The grid's last segments are [77, 84): epoch 84 is past them.
            (
                probe(0.0, 0.0, 200.0, 200.0, 84, 90),
                "one past the end",
                false,
            ),
            (
                probe(lone.0, lone.1, lone.2, lone.3, 109, 109),
                "lone last epoch",
                true,
            ),
            (
                probe(lone.0, lone.1, lone.2, lone.3, 110, 120),
                "lone end",
                false,
            ),
            (
                probe(lone.0, lone.1, lone.2, lone.3, 90, 99),
                "lone before",
                false,
            ),
        ];
        for (p, label, want) in &cases {
            assert_eq!(brute(&store, p), *want, "oracle {label}");
            assert_eq!(any_has(&store, p), *want, "any {label}");
        }

        // Retire the first 42 epochs: the grid's first six steps go dead
        // (but stay in the arena, half or fewer being dead).
        store.retire_before(42);
        assert!(store.dead > 0 && store.dead * 2 <= store.arena.len());
        let early = probe(-5.0, -5.0, 200.0, 200.0, 0, 41);
        assert!(!brute(&store, &early));
        assert!(!any_has(&store, &early), "retired segments never match");
        for (p, label, _) in &cases {
            assert_eq!(any_has(&store, p), brute(&store, p), "retired {label}");
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
        assert!(!any_has(&store, &p));
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
