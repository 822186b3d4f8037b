//! Shortest indoor distances from a query point to doors — the *subgraph
//! phase* engine.
//!
//! Every exit door of `P(q)` is seeded with its intra-partition distance
//! `|q, d_q|_E` and distances spread over the doors graph from there, in
//! one of two ways. [`DoorDistances::compute`] runs a multi-source
//! Dijkstra over the full graph and keeps the predecessor tree (the naive
//! oracle and the Distance / Path queries use it).
//! [`DoorDistances::compute_banded`] — what every query-pipeline context
//! is built by — instead composes per-door expansion rows truncated at a
//! horizon (the search radius plus slack): the paper's Phase 2 ("the
//! distance calculation only involves the partitions in Rp") bounded by
//! walking cost rather than by a partition set, so the rows are reusable
//! across queries.

use crate::cache::DoorRow;
use crate::error::DistanceError;
use idq_geom::OrdF64;
use idq_model::{DoorId, DoorsGraph, IndoorPoint, IndoorSpace, PartitionId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Sentinel for "no predecessor" in the shortest-path tree.
const NO_PREV: u32 = u32::MAX;

/// Shortest indoor distances from a query point to every reachable door,
/// with predecessor links for path reconstruction.
#[derive(Clone, Debug)]
pub struct DoorDistances {
    /// The query point the distances originate from.
    pub query: IndoorPoint,
    /// The partition containing the query point — `P(q)`.
    pub source_partition: PartitionId,
    dist: Vec<f64>,
    prev: Vec<u32>,
    restricted: bool,
    exit_horizon: f64,
}

impl DoorDistances {
    /// Runs Dijkstra from `q` over the full doors graph.
    pub fn compute(
        space: &IndoorSpace,
        graph: &DoorsGraph,
        q: IndoorPoint,
    ) -> Result<Self, DistanceError> {
        if graph.door_slots() < space.door_slots() {
            return Err(DistanceError::StaleGraph {
                graph_slots: graph.door_slots(),
                space_slots: space.door_slots(),
            });
        }
        let source_partition = space
            .partition_at(q)
            .ok_or(DistanceError::QueryOutsideSpace(q))?;

        let n = space.door_slots();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev = vec![NO_PREV; n];
        let mut heap: BinaryHeap<Reverse<(OrdF64, u32)>> = BinaryHeap::new();

        // Seeds: doors one can leave P(q) through.
        for &d in space.doors_of(source_partition).unwrap_or(&[]) {
            if !space.can_leave(d, source_partition) {
                continue;
            }
            let w = space
                .point_to_door(q, d)
                .expect("door of the source partition");
            if w < dist[d.index()] {
                dist[d.index()] = w;
                heap.push(Reverse((OrdF64(w), d.0)));
            }
        }

        while let Some(Reverse((OrdF64(du), u))) = heap.pop() {
            if du > dist[u as usize] {
                continue; // stale heap entry
            }
            for e in graph.edges_from(DoorId(u)) {
                let nd = du + e.weight;
                let v = e.to.index();
                if nd < dist[v] {
                    dist[v] = nd;
                    prev[v] = u;
                    heap.push(Reverse((OrdF64(nd), e.to.0)));
                }
            }
        }

        Ok(DoorDistances {
            query: q,
            source_partition,
            dist,
            prev,
            restricted: false,
            exit_horizon: f64::INFINITY,
        })
    }

    /// Builds door distances from `q` by **composing per-door expansion
    /// rows** instead of running a fresh from-`q` Dijkstra: for every
    /// seed door `d` of `P(q)` (weight `w_d = |q,d|_E`), the row
    /// supplied by `row_source` (typically [`crate::DistanceCache::row`]
    /// or a locally expanded [`DoorRow`]) is read *truncated at the
    /// requested horizon* and folded as
    /// `dist(v) = min_d (w_d + row_d(v))`.
    ///
    /// Rows hold exact full-graph distances, so every composed value is
    /// an over-estimate of the true distance only through truncation:
    /// any door whose true distance is at most
    /// `exit_horizon = min_d w_d + horizon` gets its exact value —
    /// the winning seed's term survives truncation because its row-local
    /// part is at most `horizon`. That exactness contract is surfaced
    /// through [`Self::exit_horizon`].
    /// Crucially, the result is a pure function of
    /// `(q, horizon, geometry)` — independent of how wide the supplied
    /// rows actually are — which is what makes cache reuse bit-exact.
    ///
    /// When every seed row is [complete within](DoorRow::complete_within)
    /// the horizon, the truncated reads are the complete rows, so the
    /// context is returned unrestricted (exit horizon `∞`): it has the
    /// same entries, hence the same bits, as the composition at `∞`.
    ///
    /// The composed context carries no predecessor tree; [`Self::path_to`]
    /// returns `None`.
    pub fn compute_banded(
        space: &IndoorSpace,
        graph: &DoorsGraph,
        q: IndoorPoint,
        horizon: f64,
        mut row_source: impl FnMut(&DoorsGraph, DoorId, f64) -> Arc<DoorRow>,
    ) -> Result<Self, DistanceError> {
        if graph.door_slots() < space.door_slots() {
            return Err(DistanceError::StaleGraph {
                graph_slots: graph.door_slots(),
                space_slots: space.door_slots(),
            });
        }
        let source_partition = space
            .partition_at(q)
            .ok_or(DistanceError::QueryOutsideSpace(q))?;

        let n = graph.door_slots().max(space.door_slots());
        let mut dist = vec![f64::INFINITY; n];
        let mut min_w = f64::INFINITY;
        let mut complete = true;
        for &d in space.doors_of(source_partition).unwrap_or(&[]) {
            if !space.can_leave(d, source_partition) {
                continue;
            }
            let w = space
                .point_to_door(q, d)
                .expect("door of the source partition");
            min_w = min_w.min(w);
            let row = row_source(graph, d, horizon);
            complete &= row.complete_within(horizon);
            for (v, rv) in row.entries_within(horizon) {
                let nd = w + rv;
                let v = v as usize;
                if v < n && nd < dist[v] {
                    dist[v] = nd;
                }
            }
        }

        let restricted = horizon.is_finite() && !complete;
        Ok(DoorDistances {
            query: q,
            source_partition,
            dist,
            prev: Vec::new(),
            restricted,
            exit_horizon: if restricted {
                min_w + horizon
            } else {
                f64::INFINITY
            },
        })
    }

    /// The shortest indoor distance from the query point to door `d`
    /// (`∞` if unreachable).
    #[inline]
    pub fn door_distance(&self, d: DoorId) -> f64 {
        self.dist.get(d.index()).copied().unwrap_or(f64::INFINITY)
    }

    /// Whether door `d` was reached.
    #[inline]
    pub fn reachable(&self, d: DoorId) -> bool {
        self.door_distance(d).is_finite()
    }

    /// Whether the distances were truncated at a finite horizon
    /// ([`Self::compute_banded`] with a finite `horizon` that cut a seed
    /// row short): values beyond [`Self::exit_horizon`] may over-estimate
    /// the true distance or be missing. Never set by [`Self::compute`].
    #[inline]
    pub fn is_restricted(&self) -> bool {
        self.restricted
    }

    /// The exactness horizon of a restricted context: every walking cost
    /// at or below this value is provably equal to its full-graph value.
    /// For a [`Self::compute_banded`] context it is `min_d w_d + horizon`:
    /// a door with true distance at or below it is reached through some
    /// seed whose row-local part fits under the truncation horizon, so
    /// the composed value is exact. `∞` for unrestricted contexts and for
    /// sources with no exit.
    #[inline]
    pub fn exit_horizon(&self) -> f64 {
        self.exit_horizon
    }

    /// The door sequence of the shortest path from the query point through
    /// door `d` (inclusive), or `None` if `d` is unreachable. This is the
    /// `δ` of the paper's `q ⇝δ p` notation. Contexts assembled by
    /// [`Self::compute_banded`] carry no predecessor tree and always
    /// return `None`.
    pub fn path_to(&self, d: DoorId) -> Option<Vec<DoorId>> {
        if !self.reachable(d) || self.prev.len() < self.dist.len() {
            return None;
        }
        let mut seq = vec![d];
        let mut cur = d.index();
        while self.prev[cur] != NO_PREV {
            let p = self.prev[cur];
            seq.push(DoorId(p));
            cur = p as usize;
        }
        seq.reverse();
        Some(seq)
    }

    /// Number of doors with a finite distance.
    pub fn reached_count(&self) -> usize {
        self.dist.iter().filter(|d| d.is_finite()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idq_geom::{Point2, Rect2};
    use idq_model::FloorPlanBuilder;

    /// A 1×4 corridor of rooms: R0 - R1 - R2 - R3, 10 m each, doors at the
    /// shared walls' midpoints.
    fn corridor() -> (IndoorSpace, DoorsGraph, Vec<PartitionId>, Vec<DoorId>) {
        let mut b = FloorPlanBuilder::new(4.0);
        let rooms: Vec<PartitionId> = (0..4)
            .map(|i| {
                b.add_room(
                    0,
                    Rect2::from_bounds(10.0 * i as f64, 0.0, 10.0 * (i + 1) as f64, 10.0),
                )
                .unwrap()
            })
            .collect();
        let doors: Vec<DoorId> = (0..3)
            .map(|i| {
                b.add_door_between(
                    rooms[i],
                    rooms[i + 1],
                    Point2::new(10.0 * (i + 1) as f64, 5.0),
                )
                .unwrap()
            })
            .collect();
        let s = b.finish().unwrap();
        let g = DoorsGraph::build(&s);
        (s, g, rooms, doors)
    }

    #[test]
    fn distances_accumulate_along_the_corridor() {
        let (s, g, _, doors) = corridor();
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let dd = DoorDistances::compute(&s, &g, q).unwrap();
        assert!((dd.door_distance(doors[0]) - 8.0).abs() < 1e-9);
        assert!((dd.door_distance(doors[1]) - 18.0).abs() < 1e-9);
        assert!((dd.door_distance(doors[2]) - 28.0).abs() < 1e-9);
        assert_eq!(dd.reached_count(), 3);
    }

    #[test]
    fn path_reconstruction_matches_topology() {
        let (s, g, _, doors) = corridor();
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let dd = DoorDistances::compute(&s, &g, q).unwrap();
        assert_eq!(dd.path_to(doors[2]).unwrap(), doors);
        assert_eq!(dd.path_to(doors[0]).unwrap(), vec![doors[0]]);
    }

    #[test]
    fn banded_composition_matches_full_dijkstra_under_the_horizon() {
        let (s, g, _, doors) = corridor();
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let full = DoorDistances::compute(&s, &g, q).unwrap();
        let banded = DoorDistances::compute_banded(&s, &g, q, 15.0, |g, d, h| {
            std::sync::Arc::new(crate::cache::DoorRow::expand(g, d, h))
        })
        .unwrap();
        // exit_horizon = min seed weight (8) + horizon (15) = 23: doors at
        // 8 and 18 are exact, the door at 28 is beyond the trust bound.
        assert!(banded.is_restricted());
        assert!((banded.exit_horizon() - 23.0).abs() < 1e-9);
        for &d in &doors[..2] {
            assert_eq!(
                banded.door_distance(d).to_bits(),
                full.door_distance(d).to_bits()
            );
        }
        assert!(!banded.reachable(doors[2]));
        // No predecessor tree on assembled contexts.
        assert_eq!(banded.path_to(doors[0]), None);
    }

    #[test]
    fn banded_composition_with_infinite_horizon_is_complete() {
        let (s, g, _, doors) = corridor();
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let banded = DoorDistances::compute_banded(&s, &g, q, f64::INFINITY, |g, d, h| {
            std::sync::Arc::new(crate::cache::DoorRow::expand(g, d, h))
        })
        .unwrap();
        assert!(!banded.is_restricted());
        assert!(banded.exit_horizon().is_infinite());
        assert!((banded.door_distance(doors[2]) - 28.0).abs() < 1e-9);
        assert_eq!(banded.reached_count(), 3);
    }

    #[test]
    fn complete_seed_rows_make_an_unrestricted_context() {
        // The only seed door is 8 m from q and reaches the other two at
        // 10 and 20 m: a 25 m horizon holds its whole row.
        let (s, g, _, doors) = corridor();
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let expand =
            |g: &DoorsGraph, d, h| std::sync::Arc::new(crate::cache::DoorRow::expand(g, d, h));
        let full = DoorDistances::compute_banded(&s, &g, q, f64::INFINITY, expand).unwrap();
        for (horizon, restricted) in [(15.0, true), (20.0, false), (25.0, false)] {
            let banded = DoorDistances::compute_banded(&s, &g, q, horizon, expand).unwrap();
            assert_eq!(banded.is_restricted(), restricted, "horizon {horizon}");
            assert_eq!(banded.exit_horizon().is_infinite(), !restricted);
            if !restricted {
                for &d in &doors {
                    assert_eq!(
                        banded.door_distance(d).to_bits(),
                        full.door_distance(d).to_bits()
                    );
                }
            }
        }
    }

    #[test]
    fn banded_composition_is_independent_of_row_width() {
        // The requested horizon, not the supplied row width, decides what
        // is read: handing the composition over-wide (complete) rows must
        // produce bitwise the same context as exact-width rows.
        let (s, g, _, doors) = corridor();
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let exact = DoorDistances::compute_banded(&s, &g, q, 12.0, |g, d, h| {
            std::sync::Arc::new(crate::cache::DoorRow::expand(g, d, h))
        })
        .unwrap();
        let wide = DoorDistances::compute_banded(&s, &g, q, 12.0, |g, d, _| {
            std::sync::Arc::new(crate::cache::DoorRow::expand(g, d, f64::INFINITY))
        })
        .unwrap();
        for &d in &doors {
            assert_eq!(
                exact.door_distance(d).to_bits(),
                wide.door_distance(d).to_bits()
            );
        }
        assert_eq!(
            exact.exit_horizon().to_bits(),
            wide.exit_horizon().to_bits()
        );
    }

    #[test]
    fn query_outside_space_errors() {
        let (s, g, _, _) = corridor();
        let q = IndoorPoint::new(Point2::new(-50.0, 5.0), 0);
        assert!(matches!(
            DoorDistances::compute(&s, &g, q),
            Err(DistanceError::QueryOutsideSpace(_))
        ));
    }

    #[test]
    fn one_way_door_blocks_reverse_reachability() {
        let mut b = FloorPlanBuilder::new(4.0);
        let a = b
            .add_room(0, Rect2::from_bounds(0.0, 0.0, 10.0, 10.0))
            .unwrap();
        let c = b
            .add_room(0, Rect2::from_bounds(10.0, 0.0, 20.0, 10.0))
            .unwrap();
        let d = b.add_one_way_door(a, c, Point2::new(10.0, 5.0)).unwrap();
        let s = b.finish().unwrap();
        let g = DoorsGraph::build(&s);
        // From A: can leave through the one-way door.
        let dd =
            DoorDistances::compute(&s, &g, IndoorPoint::new(Point2::new(5.0, 5.0), 0)).unwrap();
        assert!(dd.reachable(d));
        // From C: cannot.
        let dd =
            DoorDistances::compute(&s, &g, IndoorPoint::new(Point2::new(15.0, 5.0), 0)).unwrap();
        assert!(!dd.reachable(d));
        assert_eq!(dd.reached_count(), 0);
    }

    #[test]
    fn closed_door_stops_search_after_rebuild() {
        let (mut s, _, _, doors) = corridor();
        let ev = s.close_door(doors[1]).unwrap();
        let mut g = DoorsGraph::build(&s);
        g.apply(&s, &ev); // no-op consistency; built after close anyway
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let dd = DoorDistances::compute(&s, &g, q).unwrap();
        assert!(dd.reachable(doors[0]));
        assert!(!dd.reachable(doors[1]));
        assert!(!dd.reachable(doors[2]));
    }

    #[test]
    fn stale_graph_is_rejected() {
        let (mut s, g, rooms, _) = corridor();
        // Mutate the space so it has more door slots than the graph knows.
        let (_, _ev) = s
            .insert_door(
                rooms[0],
                rooms[1],
                Point2::new(10.0, 2.0),
                0,
                idq_model::Direction::Bidirectional,
            )
            .unwrap();
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        assert!(matches!(
            DoorDistances::compute(&s, &g, q),
            Err(DistanceError::StaleGraph { .. })
        ));
    }
}
