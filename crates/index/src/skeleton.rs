//! The skeleton tier (§III-A.5) and the geometric lower bound (§III-B).
//!
//! The Euclidean lower bound alone is far too loose for multi-floor
//! buildings (the paper's 20-floor example: a 300 m query ball covers 90%
//! of the building even though only the query's own floor qualifies).
//! The skeleton tier captures the staircases concisely: every staircase
//! *entrance* is a node, and an `M × M` matrix `M_s2s` stores lower bounds
//! of entrance-to-entrance indoor distances following the paper's four
//! matrix properties:
//!
//! 1. `M[s,s] = 0`;
//! 2. same-floor entrances: the planar Euclidean distance;
//! 3. entrances of the same staircase: the within-staircase walking
//!    distance;
//! 4. otherwise: the shortest path over the skeleton graph (Floyd–Warshall
//!    closure of properties 2–3).
//!
//! The resulting [`SkeletonTier::min_skeleton_distance`] implements Eq. 10
//! and lower-bounds the true indoor distance (Lemma 6), which is what lets
//! `RangeSearch` prune whole floors.

use idq_geom::{Mbr3, Point2, Rect2};
use idq_model::{DoorKind, Floor, IndoorPoint, IndoorSpace, PartitionId};

/// One staircase entrance (a door with `DoorKind::StaircaseEntrance`).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Entrance {
    /// The staircase partition it belongs to.
    pub(crate) staircase: PartitionId,
    /// Floor of the entrance.
    pub(crate) floor: Floor,
    /// Planar position.
    pub(crate) position: Point2,
}

/// Per-query scratch for [`SkeletonTier::min_skeleton_distance_pruned`]:
/// the factored inner minimum `g[j] = min_i (head_i + M_s2s[i, j])` and
/// its floor-level lower bound `base = min_j g[j]`, computed lazily per
/// target floor and reused across every MBR a retrieval evaluates.
#[derive(Clone, Debug)]
pub struct SkeletonScratch {
    q_floor: Floor,
    q_point: Point2,
    /// `floors[f] = Some((base, g))` once floor `f` has been seen; `g`
    /// is aligned with the tier's entrance list for that floor.
    floors: Vec<Option<(f64, Vec<f64>)>>,
}

/// The skeleton tier: staircase entrances plus the `M_s2s` matrix.
#[derive(Clone, Debug, Default)]
pub struct SkeletonTier {
    entrances: Vec<Entrance>,
    /// Entrance indices per floor.
    per_floor: Vec<Vec<usize>>,
    /// Row-major `M × M` distance matrix.
    matrix: Vec<f64>,
}

impl SkeletonTier {
    /// Builds the tier from the current space.
    pub(crate) fn build(space: &IndoorSpace) -> Self {
        let mut entrances = Vec::new();
        for door in space.doors() {
            if door.kind != DoorKind::StaircaseEntrance || !door.open {
                continue;
            }
            // Identify the staircase side.
            let staircase = door.partitions.into_iter().find(|&p| {
                space
                    .partition(p)
                    .map(|x| x.kind == idq_model::PartitionKind::Staircase)
                    .unwrap_or(false)
            });
            if let Some(staircase) = staircase {
                entrances.push(Entrance {
                    staircase,
                    floor: door.floor,
                    position: door.position,
                });
            }
        }
        let m = entrances.len();
        let mut per_floor: Vec<Vec<usize>> = vec![Vec::new(); space.num_floors()];
        for (i, e) in entrances.iter().enumerate() {
            if let Some(v) = per_floor.get_mut(e.floor as usize) {
                v.push(i);
            }
        }
        // Base matrix per properties 1–3.
        let mut matrix = vec![f64::INFINITY; m * m];
        for i in 0..m {
            matrix[i * m + i] = 0.0;
            for j in (i + 1)..m {
                let (a, b) = (&entrances[i], &entrances[j]);
                let mut w = f64::INFINITY;
                if a.floor == b.floor {
                    w = w.min(a.position.dist(b.position)); // property 2
                }
                if a.staircase == b.staircase {
                    // property 3: within-staircase walking distance.
                    let d = space.intra_distance(
                        IndoorPoint::new(a.position, a.floor),
                        IndoorPoint::new(b.position, b.floor),
                    );
                    w = w.min(d);
                }
                matrix[i * m + j] = w;
                matrix[j * m + i] = w;
            }
        }
        // Property 4: Floyd–Warshall closure.
        for k in 0..m {
            for i in 0..m {
                let dik = matrix[i * m + k];
                if dik.is_infinite() {
                    continue;
                }
                for j in 0..m {
                    let through = dik + matrix[k * m + j];
                    if through < matrix[i * m + j] {
                        matrix[i * m + j] = through;
                    }
                }
            }
        }
        SkeletonTier {
            entrances,
            per_floor,
            matrix,
        }
    }

    /// Skeleton distance between two indoor points (Def. 2): same floor →
    /// planar Euclidean; different floors → best entrance-to-entrance
    /// route. `∞` when one of the floors has no entrance (truly
    /// unreachable across floors in this model).
    pub fn skeleton_distance(&self, q: IndoorPoint, p: IndoorPoint) -> f64 {
        if q.floor == p.floor {
            return q.point.dist(p.point);
        }
        let m = self.entrances.len();
        let mut best = f64::INFINITY;
        for &i in self.per_floor.get(q.floor as usize).into_iter().flatten() {
            let si = &self.entrances[i];
            let head = q.point.dist(si.position);
            for &j in self.per_floor.get(p.floor as usize).into_iter().flatten() {
                let sj = &self.entrances[j];
                let cand = head + self.matrix[i * m + j] + sj.position.dist(p.point);
                if cand < best {
                    best = cand;
                }
            }
        }
        best
    }

    /// Builds a per-query scratch for
    /// [`Self::min_skeleton_distance_pruned`]. Valid for this tier and
    /// this `q` only — a topology commit rebuilds the tier, so a scratch
    /// must never outlive the retrieval it was created for.
    pub fn scratch(&self, q: IndoorPoint) -> SkeletonScratch {
        SkeletonScratch {
            q_floor: q.floor,
            q_point: q.point,
            floors: vec![None; self.per_floor.len()],
        }
    }

    /// `Self::min_skeleton_distance` restructured for a whole
    /// retrieval: Eq. 10's double loop factors as
    /// `min_j ((min_i (head_i + M[i,j])) + rectdist_j)` because addition
    /// is monotone, and the inner minimum `g[j]` depends only on
    /// `(q, target floor)` — the scratch computes it once per floor and
    /// every later MBR on that floor pays a single loop. The factored
    /// value is bit-identical to the double loop (the winning pair runs
    /// through the same `(head + M) + rect` rounding sequence).
    ///
    /// `screen` turns the per-floor floor `base = min_j g[j]` into an
    /// O(1) rejection: when `base > screen` the method returns `base`
    /// (a lower bound of the true metric) without touching the MBR.
    /// Callers must therefore only compare the result against
    /// thresholds `≤ screen`; every such comparison decides exactly as
    /// the exact metric would.
    pub fn min_skeleton_distance_pruned(
        &self,
        s: &mut SkeletonScratch,
        e: &Mbr3,
        screen: f64,
    ) -> f64 {
        if e.covers_floor(s.q_floor) {
            return e.rect.min_dist(s.q_point);
        }
        let target_floor = if s.q_floor < e.floor_lo {
            e.floor_lo
        } else {
            e.floor_hi
        };
        let Some(slot) = s.floors.get_mut(target_floor as usize) else {
            return f64::INFINITY; // no entrances recorded for that floor
        };
        let m = self.entrances.len();
        let (base, g) = slot.get_or_insert_with(|| {
            let on_target = &self.per_floor[target_floor as usize];
            let mut g = Vec::with_capacity(on_target.len());
            for &j in on_target {
                let mut gj = f64::INFINITY;
                for &i in self.per_floor.get(s.q_floor as usize).into_iter().flatten() {
                    let head = s.q_point.dist(self.entrances[i].position);
                    let v = head + self.matrix[i * m + j];
                    if v < gj {
                        gj = v;
                    }
                }
                g.push(gj);
            }
            let base = g.iter().copied().fold(f64::INFINITY, f64::min);
            (base, g)
        });
        if *base > screen {
            return *base;
        }
        let mut best = f64::INFINITY;
        for (k, &j) in self.per_floor[target_floor as usize].iter().enumerate() {
            let cand = g[k] + rect_min_dist(&e.rect, self.entrances[j].position);
            if cand < best {
                best = cand;
            }
        }
        best
    }

    /// Minimum skeleton distance from `q` to an entity MBR (Eq. 10):
    /// if `q`'s floor is covered, the planar Euclidean `min_dist`;
    /// otherwise the best route through entrances on `q`'s floor and on the
    /// entity's nearest covered boundary floors (`e.lf` / `e.uf`); the
    /// vertical drop is accounted for inside `M_s2s`.
    pub(crate) fn min_skeleton_distance(&self, q: IndoorPoint, e: &Mbr3) -> f64 {
        if e.covers_floor(q.floor) {
            return e.rect.min_dist(q.point);
        }
        let m = self.entrances.len();
        // The closer boundary floor of the entity (floors are consecutive).
        let target_floor = if q.floor < e.floor_lo {
            e.floor_lo
        } else {
            e.floor_hi
        };
        let mut best = f64::INFINITY;
        for &i in self.per_floor.get(q.floor as usize).into_iter().flatten() {
            let si = &self.entrances[i];
            let head = q.point.dist(si.position);
            if head >= best {
                continue;
            }
            for &j in self
                .per_floor
                .get(target_floor as usize)
                .into_iter()
                .flatten()
            {
                let sj = &self.entrances[j];
                let cand = head + self.matrix[i * m + j] + rect_min_dist(&e.rect, sj.position);
                if cand < best {
                    best = cand;
                }
            }
        }
        best
    }
}

#[inline]
fn rect_min_dist(r: &Rect2, p: Point2) -> f64 {
    r.min_dist(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use idq_geom::Rect2;
    use idq_model::FloorPlanBuilder;

    /// Two floors, one hallway each, connected by one staircase at x≈20.
    fn two_floor_space() -> (IndoorSpace, PartitionId) {
        let mut b = FloorPlanBuilder::new(4.0);
        let h0 = b
            .add_room(0, Rect2::from_bounds(0.0, 0.0, 20.0, 10.0))
            .unwrap();
        let h1 = b
            .add_room(1, Rect2::from_bounds(0.0, 0.0, 20.0, 10.0))
            .unwrap();
        let st = b
            .add_staircase((0, 1), Rect2::from_bounds(20.0, 0.0, 24.0, 10.0))
            .unwrap();
        b.add_staircase_entrance(st, h0, 0, Point2::new(20.0, 5.0))
            .unwrap();
        b.add_staircase_entrance(st, h1, 1, Point2::new(20.0, 5.0))
            .unwrap();
        (b.finish().unwrap(), st)
    }

    #[test]
    fn matrix_properties_hold() {
        let (s, st) = two_floor_space();
        let t = SkeletonTier::build(&s);
        let m = t.entrances.len();
        assert_eq!(m, 2);
        let entry = |i: usize, j: usize| t.matrix[i * m + j];
        // Property 1: zero diagonal.
        assert_eq!(entry(0, 0), 0.0);
        // Property 3: same staircase, vertical walk 4 m × factor 2 = 8 m.
        assert!((entry(0, 1) - 8.0).abs() < 1e-9);
        let _ = st;
    }

    #[test]
    fn same_floor_skeleton_is_euclidean() {
        let (s, _) = two_floor_space();
        let t = SkeletonTier::build(&s);
        let a = IndoorPoint::new(Point2::new(1.0, 5.0), 0);
        let b = IndoorPoint::new(Point2::new(4.0, 1.0), 0);
        assert!((t.skeleton_distance(a, b) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn cross_floor_goes_through_entrances() {
        let (s, _) = two_floor_space();
        let t = SkeletonTier::build(&s);
        let a = IndoorPoint::new(Point2::new(10.0, 5.0), 0);
        let b = IndoorPoint::new(Point2::new(10.0, 5.0), 1);
        // 10 m to the entrance, 8 m up, 10 m back.
        assert!((t.skeleton_distance(a, b) - 28.0).abs() < 1e-9);
    }

    #[test]
    fn skeleton_lower_bounds_indoor_distance() {
        use idq_distance::indoor_distance;
        use idq_model::DoorsGraph;
        let (s, _) = two_floor_space();
        let g = DoorsGraph::build(&s);
        let t = SkeletonTier::build(&s);
        for (ax, af, bx, bf) in [
            (1.0, 0u16, 19.0, 1u16),
            (10.0, 0, 10.0, 1),
            (3.0, 1, 18.0, 0),
        ] {
            let a = IndoorPoint::new(Point2::new(ax, 5.0), af);
            let b = IndoorPoint::new(Point2::new(bx, 5.0), bf);
            let sk = t.skeleton_distance(a, b);
            let real = indoor_distance(&s, &g, a, b).unwrap();
            assert!(
                sk <= real + 1e-9,
                "Lemma 6 violated: skeleton {sk} > indoor {real}"
            );
        }
    }

    #[test]
    fn eq10_same_floor_is_planar_mindist() {
        let (s, _) = two_floor_space();
        let t = SkeletonTier::build(&s);
        let e = Mbr3::planar(Rect2::from_bounds(10.0, 0.0, 14.0, 10.0), 0, 0.0);
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        assert!((t.min_skeleton_distance(q, &e) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn eq10_cross_floor_adds_entrance_route() {
        let (s, _) = two_floor_space();
        let t = SkeletonTier::build(&s);
        let e = Mbr3::planar(Rect2::from_bounds(0.0, 0.0, 4.0, 10.0), 1, 4.0);
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        // 18 m to the entrance + 8 up + 16 back to the rect.
        let d = t.min_skeleton_distance(q, &e);
        assert!((d - (18.0 + 8.0 + 16.0)).abs() < 1e-9, "got {d}");
    }

    #[test]
    fn unreachable_floor_gives_infinity() {
        // A floor with no staircase entrance is unreachable through the
        // skeleton.
        let mut b = FloorPlanBuilder::new(4.0);
        b.add_room(0, Rect2::from_bounds(0.0, 0.0, 10.0, 10.0))
            .unwrap();
        b.add_room(1, Rect2::from_bounds(0.0, 0.0, 10.0, 10.0))
            .unwrap();
        let s = b.finish().unwrap();
        let t = SkeletonTier::build(&s);
        assert_eq!(t.entrances.len(), 0);
        let q = IndoorPoint::new(Point2::new(5.0, 5.0), 0);
        let p = IndoorPoint::new(Point2::new(5.0, 5.0), 1);
        assert!(t.skeleton_distance(q, p).is_infinite());
    }

    #[test]
    fn multi_staircase_routes_choose_best() {
        // Two staircases; the far one is closer to the target point on the
        // upper floor.
        let mut b = FloorPlanBuilder::new(4.0);
        let h0 = b
            .add_room(0, Rect2::from_bounds(0.0, 0.0, 100.0, 10.0))
            .unwrap();
        let h1 = b
            .add_room(1, Rect2::from_bounds(0.0, 0.0, 100.0, 10.0))
            .unwrap();
        let s1 = b
            .add_staircase((0, 1), Rect2::from_bounds(100.0, 0.0, 104.0, 10.0))
            .unwrap();
        let s2 = b
            .add_staircase((0, 1), Rect2::from_bounds(-4.0, 0.0, 0.0, 10.0))
            .unwrap();
        b.add_staircase_entrance(s1, h0, 0, Point2::new(100.0, 5.0))
            .unwrap();
        b.add_staircase_entrance(s1, h1, 1, Point2::new(100.0, 5.0))
            .unwrap();
        b.add_staircase_entrance(s2, h0, 0, Point2::new(0.0, 5.0))
            .unwrap();
        b.add_staircase_entrance(s2, h1, 1, Point2::new(0.0, 5.0))
            .unwrap();
        let s = b.finish().unwrap();
        let t = SkeletonTier::build(&s);
        assert_eq!(t.entrances.len(), 4);
        // q near x=10 on floor 0, target near x=5 on floor 1: the left
        // staircase wins.
        let q = IndoorPoint::new(Point2::new(10.0, 5.0), 0);
        let p = IndoorPoint::new(Point2::new(5.0, 5.0), 1);
        let d = t.skeleton_distance(q, p);
        assert!((d - (10.0 + 8.0 + 5.0)).abs() < 1e-9, "got {d}");
    }
}
