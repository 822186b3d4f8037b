//! Partition-aligned decomposition of an uncertain object: `O = ∪ S[j]`
//! (§II-B).
//!
//! An object's uncertainty region may overlap several partitions; its
//! instances are grouped by the partition containing them. Each group is an
//! *uncertainty subregion* `S[j]` carrying its probability mass and a tight
//! bounding box — the unit the distance cases (§II-C) and the probabilistic
//! bounds (§II-D.3) operate on.
//!
//! The bounds (Lemmas 1–3, Eq. 7/8, Table III) read only a subregion's
//! partition, mass and box — its [`SubregionSummary`] — and never its
//! instances; only the exact expected distance does. So an object keeps
//! two forms:
//!
//! * the **summary** — one [`SubregionSummary`] per subregion, ~48 B each,
//!   read through [`UncertainObject::subregion_summary`]. Its lifetime is
//!   one per object version per partition layout: the first reader on a
//!   layout memoises it inside the object, stamped with
//!   [`IndoorSpace::layout_id`]; a new object version (a move) starts
//!   empty, and a reader on another layout computes its own and leaves
//!   the memo alone. It is derived state and never encoded.
//! * the full [`Subregions`] with instance indices, read through
//!   [`UncertainObject::subregions`] by the callers that need instances
//!   (refinement). The memo keeps one byte per instance — the index of
//!   its subregion — so on the memo's layout the decomposition is rebuilt
//!   by one bucketing pass, without point location. The kernel runs only
//!   to fill the memo, off the memo's layout, or for an object with more
//!   subregions than a byte can name. One-shot queries and standing
//!   monitors read both forms through the same evaluation context.

use crate::error::ObjectError;
use crate::object::UncertainObject;
use idq_geom::{IdMap, Rect2};
use idq_model::{IndoorSpace, PartitionId};
use std::borrow::Cow;

/// The instance-free part of one subregion `S[j]`: everything the bounds
/// read.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SubregionSummary {
    /// The partition hosting the subregion's instances — `P(S[j])`.
    pub partition: PartitionId,
    /// Probability mass `Σ_{s_i ∈ S[j]} p_i`.
    pub prob: f64,
    /// Tight bounding box of the member instance positions.
    pub bbox: Rect2,
}

/// One uncertainty subregion `S[j]`: the instances of an object falling
/// into a single partition.
#[derive(Clone, Debug, PartialEq)]
pub struct Subregion {
    /// Partition, mass and bounding box.
    pub summary: SubregionSummary,
    /// Indices into the object's instance slice.
    pub instance_indices: Vec<u32>,
}

/// Objects with more subregions than this keep no instance slots: a slot
/// is one byte.
const MAX_SLOTTED_SUBREGIONS: usize = 1 << u8::BITS;

/// An object's memoised summary and the layout it was computed on.
#[derive(Clone, Debug)]
pub(crate) struct StampedSummary {
    layout: u64,
    entries: Box<[SubregionSummary]>,
    /// Per instance, the index of its subregion in `entries`. Empty when
    /// the object has more than [`MAX_SLOTTED_SUBREGIONS`] subregions.
    slots: Box<[u8]>,
}

impl StampedSummary {
    fn new(layout: u64, subs: &Subregions, instances: usize) -> Self {
        let mut slots = Vec::new();
        if subs.len() <= MAX_SLOTTED_SUBREGIONS {
            slots.resize(instances, 0);
            for (j, sub) in subs.iter().enumerate() {
                for &i in &sub.instance_indices {
                    slots[i as usize] = j as u8;
                }
            }
        }
        StampedSummary {
            layout,
            entries: subs.summaries().copied().collect(),
            slots: slots.into_boxed_slice(),
        }
    }

    /// The decomposition the memo was filled from, by one bucketing pass
    /// over the slots: each subregion's indices come out ascending, as
    /// the kernel pushes them. `None` without slots.
    fn rebuild(&self) -> Option<Subregions> {
        if self.slots.is_empty() {
            return None;
        }
        let mut subs: Vec<Subregion> = self
            .entries
            .iter()
            .map(|&summary| Subregion {
                summary,
                instance_indices: Vec::new(),
            })
            .collect();
        for (i, &j) in self.slots.iter().enumerate() {
            subs[j as usize].instance_indices.push(i as u32);
        }
        Some(Subregions { subs })
    }
}

impl UncertainObject {
    /// The object's subregion summary on `space`'s partition layout: the
    /// [`Subregions::summaries`] of [`Subregions::compute_with_hint`] with
    /// `hint()`, in the same order, with equal bits.
    ///
    /// The first reader memoises it in the object, stamped with
    /// [`IndoorSpace::layout_id`]; later readers on that layout get the
    /// memo without touching the instances or calling `hint`. A reader on
    /// another layout gets a freshly computed summary and leaves the memo
    /// as it is. The flag is `true` when this call ran the kernel.
    // Inlined, as is `subregions`: every object a query prices or
    // refines takes the memo hit path, and without the hint whether that
    // path inlines into its caller depends on how unrelated code in the
    // calling crate falls into codegen units.
    #[inline]
    pub fn subregion_summary(
        &self,
        space: &IndoorSpace,
        hint: impl FnOnce() -> Vec<PartitionId>,
    ) -> Result<(Cow<'_, [SubregionSummary]>, bool), ObjectError> {
        let layout = space.layout_id();
        if let Some(memo) = self.memo_on(layout) {
            return Ok((Cow::Borrowed(&memo.entries), false));
        }
        let subs = Subregions::compute_with_hint(self, space, &hint())?;
        Ok(match self.fill_memo(layout, &subs) {
            Some(memo) => (Cow::Borrowed(&memo.entries), true),
            None => (Cow::Owned(subs.summaries().copied().collect()), true),
        })
    }

    /// The object's full decomposition on `space`'s partition layout,
    /// equal field for field — instance indices included — to
    /// [`Subregions::compute_with_hint`] with `hint()`.
    ///
    /// On the memo's layout it is rebuilt from the memo's instance slots
    /// (flag `false`). Otherwise the kernel runs (flag `true`) and, when
    /// the memo is empty, fills it as [`Self::subregion_summary`] would.
    /// An object with more than 256 subregions has no slots and always
    /// runs the kernel.
    #[inline]
    pub fn subregions(
        &self,
        space: &IndoorSpace,
        hint: impl FnOnce() -> Vec<PartitionId>,
    ) -> Result<(Subregions, bool), ObjectError> {
        let layout = space.layout_id();
        if let Some(subs) = self.memo_on(layout).and_then(StampedSummary::rebuild) {
            return Ok((subs, false));
        }
        let subs = Subregions::compute_with_hint(self, space, &hint())?;
        self.fill_memo(layout, &subs);
        Ok((subs, true))
    }

    fn memo_on(&self, layout: u64) -> Option<&StampedSummary> {
        let memo: &StampedSummary = self.summary.get()?;
        (memo.layout == layout).then_some(memo)
    }

    /// Fills an empty memo from a kernel result on `layout`, and returns
    /// the memo when it is on `layout` afterwards. A filled memo — another
    /// layout's, or a racing reader's on this layout, which is equal —
    /// stays as it is.
    fn fill_memo(&self, layout: u64, subs: &Subregions) -> Option<&StampedSummary> {
        let memo: &StampedSummary = self
            .summary
            .get_or_init(|| Box::new(StampedSummary::new(layout, subs, self.len())));
        (memo.layout == layout).then_some(memo)
    }
}

/// The full decomposition of one object, sorted by descending probability
/// mass (deterministic; ties broken by partition id).
#[derive(Clone, Debug, PartialEq)]
pub struct Subregions {
    subs: Vec<Subregion>,
}

impl Subregions {
    /// Computes the subregions of `object` against the current topology:
    /// each instance is assigned to the partition containing it.
    ///
    /// Errors with [`ObjectError::NoHostPartition`] when an instance lies
    /// outside every active partition. An indexed object never does: the
    /// composite index refuses such an object, and the sampler draws
    /// inside partitions only.
    pub fn compute(object: &UncertainObject, space: &IndoorSpace) -> Result<Self, ObjectError> {
        Self::compute_with_hint(object, space, &[])
    }

    /// Like [`Subregions::compute`], but tries `hint` partitions first.
    ///
    /// Callers that already know which partitions the object overlaps (the
    /// composite index's o-table) pass them here, turning per-instance
    /// point location from a floor-wide scan into a handful of containment
    /// checks — the assignment result is identical because partitions do
    /// not overlap (up to shared boundaries, where the hint may pick the
    /// other co-boundary partition; distances are unaffected as boundary
    /// points belong to both).
    pub fn compute_with_hint(
        object: &UncertainObject,
        space: &IndoorSpace,
        hint: &[PartitionId],
    ) -> Result<Self, ObjectError> {
        let mut by_partition: IdMap<PartitionId, Vec<u32>> = IdMap::default();
        for (idx, inst) in object.instances().iter().enumerate() {
            let hinted = hint.iter().copied().find(|&pid| {
                space
                    .partition(pid)
                    .map(|p| p.contains(inst.position, inst.floor))
                    .unwrap_or(false)
            });
            let pid = hinted
                .or_else(|| space.partition_at(inst.indoor_point()))
                .ok_or(ObjectError::NoHostPartition)?;
            by_partition.entry(pid).or_default().push(idx as u32);
        }
        let mut subs: Vec<Subregion> = by_partition
            .into_iter()
            .map(|(partition, instance_indices)| {
                let mut prob = 0.0;
                let mut bbox = Rect2::empty_sentinel();
                for &i in &instance_indices {
                    let inst = &object.instances()[i as usize];
                    prob += inst.weight;
                    bbox = bbox.union(&Rect2::new(inst.position, inst.position));
                }
                Subregion {
                    summary: SubregionSummary {
                        partition,
                        prob,
                        bbox,
                    },
                    instance_indices,
                }
            })
            .collect();
        subs.sort_by(|a, b| {
            let (a, b) = (&a.summary, &b.summary);
            b.prob
                .total_cmp(&a.prob)
                .then_with(|| a.partition.cmp(&b.partition))
        });
        Ok(Subregions { subs })
    }

    /// The subregions, descending by probability mass.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = &Subregion> {
        self.subs.iter()
    }

    /// The subregions' summaries, in the same order — what the bounds
    /// take, viewed without allocating.
    #[inline]
    pub fn summaries(&self) -> impl Iterator<Item = &SubregionSummary> {
        self.subs.iter().map(|s| &s.summary)
    }

    /// Number of subregions — the paper's `m`.
    #[inline]
    pub fn len(&self) -> usize {
        self.subs.len()
    }

    /// `true` iff there are no subregions (cannot happen for valid objects).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.subs.is_empty()
    }

    /// Returns `true` when the whole object lies in one partition — the
    /// boundary between the single-partition (§II-C.1/2) and
    /// multi-partition (§II-C.3) distance cases.
    #[inline]
    pub fn single_partition(&self) -> bool {
        self.subs.len() == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{ObjectId, UncertainObject};
    use idq_geom::{Circle, Point2, Rect2 as R};
    use idq_model::{FloorPlanBuilder, IndoorPoint, SplitLine};

    /// Two rooms with a door; object instances straddle the wall.
    fn setup() -> (IndoorSpace, UncertainObject) {
        let mut b = FloorPlanBuilder::new(4.0);
        let a = b.add_room(0, R::from_bounds(0.0, 0.0, 10.0, 10.0)).unwrap();
        let c = b
            .add_room(0, R::from_bounds(10.0, 0.0, 20.0, 10.0))
            .unwrap();
        b.add_door_between(a, c, Point2::new(10.0, 5.0)).unwrap();
        let s = b.finish().unwrap();
        let o = UncertainObject::with_uniform_weights(
            ObjectId(1),
            Circle::new(Point2::new(10.0, 5.0), 3.0),
            0,
            vec![
                Point2::new(8.0, 5.0),  // room a
                Point2::new(9.0, 4.0),  // room a
                Point2::new(12.0, 5.0), // room c
                Point2::new(11.5, 6.0), // room c
            ],
        )
        .unwrap();
        (s, o)
    }

    #[test]
    fn instances_group_by_partition() {
        let (s, o) = setup();
        let subs = Subregions::compute(&o, &s).unwrap();
        assert_eq!(subs.len(), 2);
        assert!(!subs.single_partition());
        let total: f64 = subs.summaries().map(|x| x.prob).sum();
        assert!((total - 1.0).abs() < 1e-9, "probability mass preserved");
        // Every instance appears exactly once.
        let mut seen: Vec<u32> = subs
            .iter()
            .flat_map(|x| x.instance_indices.clone())
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
        // Sorted by descending mass (tie → partition id asc), both 0.5 here.
        let probs: Vec<f64> = subs.summaries().map(|x| x.prob).collect();
        assert!(probs[0] >= probs[1]);
    }

    /// Splits room c at x = 15, a new layout; returns the halves.
    fn split_right_room(s: &mut IndoorSpace) -> [PartitionId; 2] {
        let right = s.partition_at(IndoorPoint::new(Point2::new(15.0, 5.0), 0));
        let (halves, _) = s
            .split_partition(right.unwrap(), SplitLine::AtX(15.0), None)
            .unwrap();
        halves
    }

    #[test]
    fn summary_is_memoised_per_layout() {
        let (mut s, o) = setup();
        let kernel: Vec<SubregionSummary> = Subregions::compute(&o, &s)
            .unwrap()
            .summaries()
            .copied()
            .collect();
        let (first, computed) = o.subregion_summary(&s, Vec::new).unwrap();
        assert!(
            computed && matches!(first, Cow::Borrowed(_)),
            "fills the memo"
        );
        assert_eq!(*first, kernel[..]);
        let (again, computed) = o
            .subregion_summary(&s, || unreachable!("a hit needs no hint"))
            .unwrap();
        assert!(!computed);
        assert_eq!(again.as_ptr(), first.as_ptr(), "the memo itself");

        // Another layout: a fresh summary, the memo left as it was.
        let halves = split_right_room(&mut s);
        let (other, computed) = o.subregion_summary(&s, Vec::new).unwrap();
        assert!(computed && matches!(other, Cow::Owned(_)));
        assert_eq!(other.len(), 2);
        assert!(
            other.iter().any(|x| x.partition == halves[0]),
            "room c's instances now lie in its west half"
        );
        let (stale, _) = o.subregion_summary(&s, Vec::new).unwrap();
        assert!(matches!(stale, Cow::Owned(_)), "still not memoised");
    }

    #[test]
    fn subregions_are_rebuilt_from_the_memo() {
        let (mut s, o) = setup();
        let kernel = Subregions::compute(&o, &s).unwrap();
        let (first, computed) = o.subregions(&s, Vec::new).unwrap();
        assert!(computed, "an empty memo: the kernel runs and fills it");
        assert_eq!(first, kernel);
        let (again, computed) = o
            .subregions(&s, || unreachable!("a hit needs no hint"))
            .unwrap();
        assert!(!computed);
        assert_eq!(again, kernel, "instance indices included");
        assert!(!o.subregion_summary(&s, Vec::new).unwrap().1, "one memo");

        // Another layout: the kernel runs, the memo stays as it was.
        split_right_room(&mut s);
        let (other, computed) = o.subregions(&s, Vec::new).unwrap();
        assert!(computed);
        assert_eq!(other, Subregions::compute(&o, &s).unwrap());
        assert_ne!(other, kernel, "room c's subregion moved to a half");
    }

    #[test]
    fn bbox_distances_bound_instance_distances() {
        let (s, o) = setup();
        let subs = Subregions::compute(&o, &s).unwrap();
        let q = Point2::new(0.0, 0.0);
        for sub in subs.iter() {
            let exact_min = sub
                .instance_indices
                .iter()
                .map(|&i| o.instances()[i as usize].position.dist(q))
                .fold(f64::INFINITY, f64::min);
            let exact_max = sub
                .instance_indices
                .iter()
                .map(|&i| o.instances()[i as usize].position.dist(q))
                .fold(0.0, f64::max);
            assert!(sub.summary.bbox.min_dist(q) <= exact_min + 1e-9);
            assert!(sub.summary.bbox.max_dist(q) >= exact_max - 1e-9);
        }
    }

    #[test]
    fn single_partition_object() {
        let (s, _) = setup();
        let o = UncertainObject::with_uniform_weights(
            ObjectId(2),
            Circle::new(Point2::new(5.0, 5.0), 1.0),
            0,
            vec![Point2::new(4.5, 5.0), Point2::new(5.5, 5.2)],
        )
        .unwrap();
        let subs = Subregions::compute(&o, &s).unwrap();
        assert!(subs.single_partition());
        assert_eq!(subs.summaries().count(), 1);
    }

    #[test]
    fn no_partitions_on_floor_errors() {
        let (s, _) = setup();
        // A floor without partitions, then an instance slightly outside
        // the building (x = -0.5) on a covered floor.
        for (floor, x) in [(7, 5.0), (0, -0.5)] {
            let o = UncertainObject::with_uniform_weights(
                ObjectId(4),
                Circle::new(Point2::new(0.0, 5.0), 1.0),
                floor,
                vec![Point2::new(x, 5.0), Point2::new(0.5, 5.0)],
            )
            .unwrap();
            assert!(matches!(
                Subregions::compute(&o, &s),
                Err(ObjectError::NoHostPartition)
            ));
        }
    }
}
