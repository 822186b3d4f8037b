//! The doors graph `G_d = (D, E)` (§II-A).
//!
//! Vertices are doors; an edge `(d_i → d_j)` via partition `P` means "pass
//! through `d_i` into `P`, walk to `d_j`, pass through `d_j` out of `P`".
//! Edge weight is the intra-partition distance between the door midpoints
//! (footnote 1 of the paper), which inside staircases includes the scaled
//! vertical drop.
//!
//! One-directional doors induce directed edges exactly as in the paper's
//! Figure 3: with `d_12` one-way out of room 12, the edges `(d_15, d_12)`
//! and `(d_12, d_11)` exist but their reverses do not.
//!
//! Following the paper's design, the graph is not a separately maintained
//! artefact: it is *derived* from the space ([`DoorsGraph::build`]) and kept
//! in sync incrementally ([`DoorsGraph::apply`]) as the de-facto topological
//! layer of the composite index — no door-to-door distances are
//! pre-computed.

use crate::ids::{DoorId, PartitionId};
use crate::space::IndoorSpace;
use crate::topology::TopologyEvent;

/// A directed, weighted edge of the doors graph.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DoorEdge {
    /// Destination door.
    pub to: DoorId,
    /// Walking distance between the door midpoints through `via`.
    pub weight: f64,
    /// The partition traversed by this edge.
    pub(crate) via: PartitionId,
}

/// Adjacency-list doors graph, indexed densely by [`DoorId`].
#[derive(Clone, Debug, Default)]
pub struct DoorsGraph {
    adj: Vec<Vec<DoorEdge>>,
    space_version: u64,
}

impl DoorsGraph {
    /// Builds the graph for the current state of `space`.
    pub fn build(space: &IndoorSpace) -> Self {
        let mut g = DoorsGraph {
            adj: vec![Vec::new(); space.door_slots()],
            space_version: space.version(),
        };
        let pids: Vec<PartitionId> = space.partitions().map(|p| p.id).collect();
        for pid in pids {
            g.add_partition_edges(space, pid);
        }
        g
    }

    /// Number of door slots covered (dense domain of [`DoorId`]).
    #[inline]
    pub fn door_slots(&self) -> usize {
        self.adj.len()
    }

    /// Total number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum()
    }

    /// Outgoing edges of a door. Empty for unknown/retired doors.
    #[inline]
    pub fn edges_from(&self, d: DoorId) -> &[DoorEdge] {
        self.adj.get(d.index()).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Incrementally updates the graph after a topology event.
    ///
    /// Only the edge lists of the affected partitions are recomputed —
    /// the maintenance-cost advantage the paper claims over full distance
    /// pre-computation (§V-B.4).
    pub fn apply(&mut self, space: &IndoorSpace, event: &TopologyEvent) {
        match event {
            TopologyEvent::PartitionInserted(p) => {
                self.grow(space);
                self.rebuild_partition(space, *p);
            }
            TopologyEvent::PartitionRemoved(p) => {
                self.remove_partition_edges(*p);
            }
            TopologyEvent::DoorInserted(d)
            | TopologyEvent::DoorRemoved(d)
            | TopologyEvent::DoorStateChanged(d)
            | TopologyEvent::DoorRetargeted(d) => {
                self.grow(space);
                // Rebuild both partitions the door touches (tombstoned doors
                // still record them).
                if let Ok(door) = space.door_raw(*d) {
                    for pid in door.partitions {
                        self.rebuild_partition(space, pid);
                    }
                }
            }
            TopologyEvent::PartitionSplit { old, new } => {
                self.grow(space);
                self.remove_partition_edges(*old);
                for pid in new {
                    self.rebuild_partition(space, *pid);
                }
            }
            TopologyEvent::PartitionsMerged { old, new } => {
                self.grow(space);
                for pid in old {
                    self.remove_partition_edges(*pid);
                }
                self.rebuild_partition(space, *new);
            }
        }
        self.space_version = space.version();
    }

    /// Recomputes every edge routed through `pid`.
    pub(crate) fn rebuild_partition(&mut self, space: &IndoorSpace, pid: PartitionId) {
        self.remove_partition_edges(pid);
        if space.partition(pid).is_ok() {
            self.add_partition_edges(space, pid);
        }
    }

    fn grow(&mut self, space: &IndoorSpace) {
        if self.adj.len() < space.door_slots() {
            self.adj.resize(space.door_slots(), Vec::new());
        }
    }

    fn remove_partition_edges(&mut self, pid: PartitionId) {
        for edges in &mut self.adj {
            edges.retain(|e| e.via != pid);
        }
    }

    fn add_partition_edges(&mut self, space: &IndoorSpace, pid: PartitionId) {
        let Ok(doors) = space.doors_of(pid) else {
            return;
        };
        let doors = doors.to_vec();
        for &di in &doors {
            if !space.can_enter(di, pid) {
                continue;
            }
            for &dj in &doors {
                if di == dj || !space.can_leave(dj, pid) {
                    continue;
                }
                let Ok(weight) = space.door_to_door(di, dj) else {
                    continue;
                };
                self.adj[di.index()].push(DoorEdge {
                    to: dj,
                    weight,
                    via: pid,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FloorPlanBuilder;
    use idq_geom::{Point2, Rect2};

    /// Three rooms in a row: A -(d0)- B -(d1)- C, plus a one-way door d2
    /// from C directly back to A (wrapping corridor, conceptually).
    fn chain() -> (IndoorSpace, [PartitionId; 3], [DoorId; 2]) {
        let mut b = FloorPlanBuilder::new(4.0);
        let a = b
            .add_room(0, Rect2::from_bounds(0.0, 0.0, 10.0, 10.0))
            .unwrap();
        let m = b
            .add_room(0, Rect2::from_bounds(10.0, 0.0, 20.0, 10.0))
            .unwrap();
        let c = b
            .add_room(0, Rect2::from_bounds(20.0, 0.0, 30.0, 10.0))
            .unwrap();
        let d0 = b.add_door_between(a, m, Point2::new(10.0, 5.0)).unwrap();
        let d1 = b.add_door_between(m, c, Point2::new(20.0, 5.0)).unwrap();
        (b.finish().unwrap(), [a, m, c], [d0, d1])
    }

    #[test]
    fn chain_edges_and_weights() {
        let (s, [_, m, _], [d0, d1]) = chain();
        let g = DoorsGraph::build(&s);
        // d0 → d1 via the middle room, weight 10.
        let e: Vec<_> = g.edges_from(d0).to_vec();
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].to, d1);
        assert_eq!(e[0].via, m);
        assert!((e[0].weight - 10.0).abs() < 1e-9);
        // Symmetric direction exists too.
        assert_eq!(g.edges_from(d1).len(), 1);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn one_way_door_induces_directed_edges() {
        // Figure 3(b) of the paper in miniature: room with an exit-only
        // door. Entering the room must use the bidirectional door.
        let mut b = FloorPlanBuilder::new(4.0);
        let room = b
            .add_room(0, Rect2::from_bounds(0.0, 0.0, 10.0, 10.0))
            .unwrap();
        let hall = b
            .add_room(0, Rect2::from_bounds(10.0, 0.0, 20.0, 10.0))
            .unwrap();
        let d_in = b
            .add_door_between(room, hall, Point2::new(10.0, 2.0))
            .unwrap();
        let d_out = b
            .add_one_way_door(room, hall, Point2::new(10.0, 8.0))
            .unwrap();
        let s = b.finish().unwrap();
        let g = DoorsGraph::build(&s);
        // Via room: d_in → d_out exists (enter room by d_in, leave by d_out);
        // d_out → d_in via room must NOT exist (cannot enter room by d_out).
        assert!(g
            .edges_from(d_in)
            .iter()
            .any(|e| e.to == d_out && e.via == room));
        assert!(!g
            .edges_from(d_out)
            .iter()
            .any(|e| e.to == d_in && e.via == room));
        // Via hall: d_out → d_in exists (enter hall by d_out, leave into room
        // by d_in); d_in → d_out via hall does not (cannot leave hall
        // through the one-way door).
        assert!(g
            .edges_from(d_out)
            .iter()
            .any(|e| e.to == d_in && e.via == hall));
        assert!(!g
            .edges_from(d_in)
            .iter()
            .any(|e| e.to == d_out && e.via == hall));
    }

    #[test]
    fn closed_door_drops_edges_incrementally() {
        let (mut s, _, [d0, d1]) = chain();
        let mut g = DoorsGraph::build(&s);
        assert_eq!(g.edge_count(), 2);
        let ev = s.close_door(d1).unwrap();
        g.apply(&s, &ev);
        assert_eq!(g.edge_count(), 0);
        let ev = s.open_door(d1).unwrap();
        g.apply(&s, &ev);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.edges_from(d0).len(), 1);
    }

    #[test]
    fn incremental_matches_full_rebuild_after_partition_delete() {
        let (mut s, [_, m, _], _) = chain();
        let mut g = DoorsGraph::build(&s);
        let evs = s.delete_partition(m).unwrap();
        for ev in &evs {
            g.apply(&s, ev);
        }
        let fresh = DoorsGraph::build(&s);
        assert_eq!(g.edge_count(), fresh.edge_count());
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn staircase_edges_cost_vertical_walk() {
        let mut b = FloorPlanBuilder::new(4.0);
        let h0 = b
            .add_room(0, Rect2::from_bounds(0.0, 0.0, 10.0, 5.0))
            .unwrap();
        let h1 = b
            .add_room(1, Rect2::from_bounds(0.0, 0.0, 10.0, 5.0))
            .unwrap();
        let st = b
            .add_staircase((0, 1), Rect2::from_bounds(10.0, 0.0, 14.0, 5.0))
            .unwrap();
        let e0 = b
            .add_staircase_entrance(st, h0, 0, Point2::new(10.0, 2.5))
            .unwrap();
        let e1 = b
            .add_staircase_entrance(st, h1, 1, Point2::new(10.0, 2.5))
            .unwrap();
        let s = b.finish().unwrap();
        let g = DoorsGraph::build(&s);
        let e: Vec<_> = g.edges_from(e0).iter().filter(|e| e.via == st).collect();
        assert_eq!(e.len(), 1);
        assert_eq!(e[0].to, e1);
        // Same planar point, one floor of 4 m at walk factor 2.
        assert!((e[0].weight - 8.0).abs() < 1e-9);
    }
}
