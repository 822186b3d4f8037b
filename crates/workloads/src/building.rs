//! Parametric multi-floor mall generator.
//!
//! Reproduces the statistics of the paper's evaluation building (§V-A):
//! every floor is `width × depth` metres (default 600 × 600) and contains
//!
//! * a **ring corridor** along the perimeter (four strips: south, north,
//!   west, east) — the mall's walkway;
//! * **five double-loaded corridor bands** in the interior, each with 10
//!   rooms on either side → exactly 100 rooms per floor;
//! * **four staircases in the corners**, each a single partition spanning
//!   all floors with one entrance door per floor onto the ring;
//! * doors: one per room onto its band corridor, two per band onto the
//!   west/east ring strips, four ring-corner doors, four staircase
//!   entrances per floor. A configurable number of rooms per floor instead
//!   get a one-way in / one-way out door pair (airport-security style,
//!   §I), exercising directed doors-graph edges.
//!
//! Per floor: 100 rooms + 5 band corridors + 4 ring strips = 109
//! single-floor partitions, plus the 4 shared staircases — so 10/20/30
//! floors give ≈1.1K/2.2K/3.3K partitions, matching the paper's 1K/2K/3K
//! x-axis.

use idq_geom::{Point2, Rect2};
use idq_model::{Floor, FloorPlanBuilder, IndoorSpace, ModelError, PartitionId};

/// Parameters of the synthetic building.
#[derive(Clone, Debug)]
pub struct BuildingConfig {
    /// Number of floors (paper: 10 / 20 / **30**… defaults to 20, the
    /// middle setting).
    pub floors: Floor,
    /// Floor width (x extent), metres.
    pub width: f64,
    /// Floor depth (y extent), metres.
    pub depth: f64,
    /// Floor height, metres.
    pub floor_height: f64,
    /// Corridor width (ring strips and band corridors), metres.
    pub corridor_width: f64,
    /// Interior double-loaded corridor bands per floor.
    pub bands: usize,
    /// Rooms on each side of each band corridor.
    pub rooms_per_side: usize,
    /// Rooms per floor converted to a one-way in/out door pair.
    pub one_way_rooms: usize,
}

impl Default for BuildingConfig {
    fn default() -> Self {
        BuildingConfig {
            floors: 20,
            width: 600.0,
            depth: 600.0,
            floor_height: 4.0,
            corridor_width: 10.0,
            bands: 5,
            rooms_per_side: 10,
            one_way_rooms: 2,
        }
    }
}

impl BuildingConfig {
    /// A building with the given floor count and paper defaults otherwise.
    pub fn with_floors(floors: Floor) -> Self {
        BuildingConfig {
            floors,
            ..Self::default()
        }
    }

    /// Rooms per floor implied by the configuration.
    pub(crate) fn rooms_per_floor(&self) -> usize {
        2 * self.bands * self.rooms_per_side
    }
}

/// The generated building plus handles used by workloads and tests.
#[derive(Debug)]
pub struct GeneratedBuilding {
    /// The indoor space.
    pub space: IndoorSpace,
    /// Room partitions, grouped by floor.
    pub rooms_by_floor: Vec<Vec<PartitionId>>,
    /// All corridor partitions (ring strips + band corridors), by floor.
    pub corridors_by_floor: Vec<Vec<PartitionId>>,
    /// The configuration that produced the building.
    pub config: BuildingConfig,
}

impl GeneratedBuilding {
    /// Total active partitions.
    pub fn partition_count(&self) -> usize {
        self.space.partition_count()
    }

    /// Total active doors.
    pub fn door_count(&self) -> usize {
        self.space.door_count()
    }
}

/// Generates the synthetic mall described in the module docs.
pub fn generate_building(config: &BuildingConfig) -> Result<GeneratedBuilding, ModelError> {
    let mut b = FloorPlanBuilder::new(config.floor_height);
    let (w, d, cw) = (config.width, config.depth, config.corridor_width);
    let floors = config.floors.max(1);

    // Staircases: corner squares spanning all floors, tucked just inside
    // the ring corridor.
    let stair = cw; // staircase side length
    let stair_rects = [
        Rect2::from_bounds(cw, cw, cw + stair, cw + stair), // SW
        Rect2::from_bounds(w - cw - stair, cw, w - cw, cw + stair), // SE
        Rect2::from_bounds(cw, d - cw - stair, cw + stair, d - cw), // NW
        Rect2::from_bounds(w - cw - stair, d - cw - stair, w - cw, d - cw), // NE
    ];
    let mut staircases = Vec::with_capacity(4);
    for r in stair_rects {
        staircases.push(b.add_staircase((0, floors - 1), r)?);
    }

    let mut rooms_by_floor = Vec::with_capacity(floors as usize);
    let mut corridors_by_floor = Vec::with_capacity(floors as usize);

    for f in 0..floors {
        let mut rooms = Vec::with_capacity(config.rooms_per_floor());
        let mut corridors = Vec::new();

        // Ring corridor strips.
        let south = b.add_room_kind(f, Rect2::from_bounds(0.0, 0.0, w, cw))?;
        let north = b.add_room_kind(f, Rect2::from_bounds(0.0, d - cw, w, d))?;
        let west = b.add_room_kind(f, Rect2::from_bounds(0.0, cw, cw, d - cw))?;
        let east = b.add_room_kind(f, Rect2::from_bounds(w - cw, cw, w, d - cw))?;
        corridors.extend([south, north, west, east]);
        // Ring corner doors.
        b.add_door_between(south, west, Point2::new(cw / 2.0, cw))?;
        b.add_door_between(south, east, Point2::new(w - cw / 2.0, cw))?;
        b.add_door_between(north, west, Point2::new(cw / 2.0, d - cw))?;
        b.add_door_between(north, east, Point2::new(w - cw / 2.0, d - cw))?;

        // Staircase entrances onto the west/east strips.
        for (i, &st) in staircases.iter().enumerate() {
            let r = stair_rects[i];
            let (strip, x) = if r.lo.x < w / 2.0 {
                (west, cw) // west-side staircases share the x = cw edge
            } else {
                (east, w - cw)
            };
            let pos = Point2::new(x, (r.lo.y + r.hi.y) / 2.0);
            b.add_staircase_entrance(st, strip, f, pos)?;
        }

        // Interior bands of rooms around their own corridor.
        // Interior region: x ∈ [cw, w−cw], y ∈ [cw+stair, d−cw−stair].
        let ix0 = cw;
        let ix1 = w - cw;
        let iy0 = cw + stair;
        let iy1 = d - cw - stair;
        let band_h = (iy1 - iy0) / config.bands as f64;
        let room_d = (band_h - cw) / 2.0; // room depth on each side
        let room_w = (ix1 - ix0) / config.rooms_per_side as f64;
        let mut one_way_left = config.one_way_rooms;

        for band in 0..config.bands {
            let y0 = iy0 + band as f64 * band_h;
            let cy0 = y0 + room_d; // corridor bottom
            let cy1 = cy0 + cw; // corridor top
            let corridor = b.add_room_kind(f, Rect2::from_bounds(ix0, cy0, ix1, cy1))?;
            corridors.push(corridor);
            // Corridor ends open onto the west/east ring strips.
            b.add_door_between(corridor, west, Point2::new(ix0, (cy0 + cy1) / 2.0))?;
            b.add_door_between(corridor, east, Point2::new(ix1, (cy0 + cy1) / 2.0))?;

            for side in 0..2 {
                for i in 0..config.rooms_per_side {
                    let x0 = ix0 + i as f64 * room_w;
                    let x1 = x0 + room_w;
                    let (ry0, ry1, door_y) = if side == 0 {
                        (y0, cy0, cy0) // below the corridor, door on its top edge
                    } else {
                        (cy1, y0 + band_h, cy1) // above, door on its bottom edge
                    };
                    let room = b.add_room_kind(f, Rect2::from_bounds(x0, ry0, x1, ry1))?;
                    rooms.push(room);
                    let cx = (x0 + x1) / 2.0;
                    if one_way_left > 0 {
                        // Security-style room: separate entry and exit doors.
                        one_way_left -= 1;
                        b.add_one_way_door(corridor, room, Point2::new(cx - room_w / 4.0, door_y))?;
                        b.add_one_way_door(room, corridor, Point2::new(cx + room_w / 4.0, door_y))?;
                    } else {
                        b.add_door_between(room, corridor, Point2::new(cx, door_y))?;
                    }
                }
            }
        }
        rooms_by_floor.push(rooms);
        corridors_by_floor.push(corridors);
    }

    let space = b.finish()?;
    debug_assert_eq!(space.connected_components(), 1);
    Ok(GeneratedBuilding {
        space,
        rooms_by_floor,
        corridors_by_floor,
        config: config.clone(),
    })
}

/// Small extension so the generator reads naturally: ring strips and band
/// corridors are `Hallway` partitions; rooms are `Room`s.
trait BuilderExt {
    fn add_room_kind(&mut self, floor: Floor, rect: Rect2) -> Result<PartitionId, ModelError>;
}

impl BuilderExt for FloorPlanBuilder {
    fn add_room_kind(&mut self, floor: Floor, rect: Rect2) -> Result<PartitionId, ModelError> {
        // Wide, thin strips are hallways; compact rectangles are rooms.
        if rect.aspect_ratio() < 0.25 {
            self.add_hallway(floor, idq_geom::Polygon::from_rect(rect))
        } else {
            self.add_room(floor, rect)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idq_model::{DoorKind, IndoorPoint, PartitionKind};

    fn small() -> GeneratedBuilding {
        generate_building(&BuildingConfig::with_floors(3)).unwrap()
    }

    fn staircases(g: &GeneratedBuilding) -> Vec<&idq_model::Partition> {
        g.space
            .partitions()
            .filter(|p| p.kind == PartitionKind::Staircase)
            .collect()
    }

    #[test]
    fn paper_statistics_hold() {
        let g = small();
        let cfg = &g.config;
        assert_eq!(cfg.rooms_per_floor(), 100);
        // 109 per floor + 4 staircases.
        assert_eq!(g.partition_count(), 3 * 109 + 4);
        for f in 0..3 {
            assert_eq!(g.rooms_by_floor[f].len(), 100);
            assert_eq!(g.corridors_by_floor[f].len(), 9);
            let entrances = g
                .space
                .doors()
                .filter(|d| d.kind == DoorKind::StaircaseEntrance && d.floor == f as Floor)
                .count();
            assert_eq!(entrances, 4);
        }
        assert_eq!(staircases(&g).len(), 4);
        // Doors per floor: 100 room doors + 2 extra one-way (2 rooms get
        // pairs) + 10 corridor-ring + 4 corners + 4 stair entrances = 120.
        assert_eq!(g.door_count(), 3 * 120);
    }

    #[test]
    fn building_is_connected() {
        let g = small();
        assert_eq!(g.space.connected_components(), 1);
        assert!(g.space.sealed_partitions().is_empty());
    }

    #[test]
    fn staircases_span_all_floors() {
        let g = small();
        for p in staircases(&g) {
            assert_eq!(p.floor_lo, 0);
            assert_eq!(p.floor_hi, 2);
        }
    }

    #[test]
    fn no_overlapping_partitions() {
        // Random probing: every interior point belongs to at most one
        // partition (ignoring shared boundaries).
        let g = small();
        let mut checked = 0;
        for gx in 0..30 {
            for gy in 0..30 {
                let p = Point2::new(7.0 + gx as f64 * 19.7, 3.0 + gy as f64 * 19.9);
                let hits = g.space.partitions_at(IndoorPoint::new(p, 1));
                assert!(hits.len() <= 1, "{p} in {hits:?}");
                checked += 1;
            }
        }
        assert_eq!(checked, 900);
    }

    #[test]
    fn one_way_rooms_have_directed_door_pairs() {
        let g = small();
        let one_way: Vec<_> = g
            .space
            .doors()
            .filter(|d| d.direction == idq_model::Direction::OneWay)
            .collect();
        // 2 rooms × 2 doors × 3 floors.
        assert_eq!(one_way.len(), 12);
    }

    #[test]
    fn every_room_reaches_the_ring() {
        // Doors-graph connectivity from a room on the top floor down to a
        // staircase on floor 0 would need Dijkstra; here we just verify
        // every room has at least one door and its corridor is connected.
        let g = small();
        for &room in &g.rooms_by_floor[2] {
            let doors = g.space.doors_of(room).unwrap();
            assert!(!doors.is_empty());
        }
    }

    #[test]
    fn scales_with_floor_count() {
        let g10 = generate_building(&BuildingConfig::with_floors(1)).unwrap();
        assert_eq!(g10.partition_count(), 109 + 4);
        let cfg = BuildingConfig {
            bands: 2,
            rooms_per_side: 3,
            ..BuildingConfig::with_floors(1)
        };
        let tiny = generate_building(&cfg).unwrap();
        assert_eq!(tiny.rooms_by_floor[0].len(), 12);
        assert_eq!(tiny.space.connected_components(), 1);
    }
}
