//! Figure 15 — the composite indoor index.
//!
//! * (a) partitions retrieved with vs without the skeleton tier, vs query
//!   range (the skeleton's pruning power);
//! * (b) per-layer construction time vs partitions;
//! * (c) dynamic operation cost vs number of operations
//!   (insert/deletePartition, insert/deleteObj);
//! * (d) door-to-door distance pre-computation time vs partitions (the
//!   maintenance-cost baseline the paper argues against).

use idq_bench::{build_world, scale_from_env, scaled_floors, scaled_objects, scaled_sweep};
use idq_model::{Direction, PartitionKind, PartitionSpec};
use idq_objects::ObjectId;
use idq_query::PrecomputedD2D;
use idq_workloads::{sample_one, PaperDefaults, SeriesTable};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let scale = scale_from_env();
    let d = PaperDefaults::default();
    eprintln!("fig15: IDQ_SCALE={scale}");

    // ---- (a) skeleton effectiveness ------------------------------------------
    let world = build_world(
        scaled_floors(d.floors, scale),
        scaled_objects(d.objects, scale),
        d.radius,
        d.queries,
        42,
    );
    let mut a = SeriesTable::new(
        "Fig 15(a) partitions retrieved vs query range",
        "range",
        &["withSkeleton", "withoutSkeleton"],
    );
    for &r in &PaperDefaults::RANGE_SWEEP {
        let (mut with, mut without) = (0usize, 0usize);
        for &q in &world.queries {
            with += world
                .index
                .range_search(&world.building.space, q, r, true)
                .partitions
                .len();
            without += world
                .index
                .range_search(&world.building.space, q, r, false)
                .partitions
                .len();
        }
        let n = world.queries.len().max(1);
        a.push_row(
            format!("{r:.0}"),
            vec![(with / n) as f64, (without / n) as f64],
        );
    }
    println!("{}", a.render());

    // ---- (b) construction time per layer ---------------------------------------
    let mut b = SeriesTable::new(
        "Fig 15(b) construction time (ms) per layer vs partitions",
        "parts",
        &[
            "tree-tier",
            "Object-Layer",
            "Topological-Layer",
            "skeleton-tier",
        ],
    );
    let mut worlds_by_floors = Vec::new();
    for floors in scaled_sweep(&PaperDefaults::FLOOR_SWEEP, |f| scaled_floors(f, scale)) {
        let w = build_world(
            floors,
            scaled_objects(d.objects, scale),
            d.radius,
            d.queries,
            42,
        );
        let s = w.index.build_stats;
        b.push_row(
            format!("{}", w.building.partition_count()),
            vec![s.tree_ms, s.object_ms, s.topo_ms, s.skeleton_ms],
        );
        worlds_by_floors.push(w);
    }
    println!("{}", b.render());

    // ---- (c) dynamic operation cost -----------------------------------------------
    let mut c = SeriesTable::new(
        "Fig 15(c) mean cost per operation (ms) vs batch size",
        "#ops",
        &[
            "insertPartition",
            "deletePartition",
            "insertObj",
            "deleteObj",
        ],
    );
    for &ops in &PaperDefaults::OPS_SWEEP {
        let mut w = build_world(
            scaled_floors(d.floors, scale),
            scaled_objects(d.objects, scale),
            d.radius,
            4,
            42,
        );
        let mut rng = StdRng::seed_from_u64(9);
        let hall = w.building.corridors_by_floor[0][0];
        let hall_box = w.building.space.partition(hall).unwrap().bbox;

        // insertPartition: pop-up booths along the south ring corridor.
        let t = Instant::now();
        let mut inserted = Vec::new();
        for i in 0..ops {
            let x0 = 30.0 + (i as f64) * 4.0 % 500.0;
            let spec = PartitionSpec {
                kind: PartitionKind::Room,
                name: None,
                floor: 0,
                footprint: idq_geom::Polygon::from_rect(idq_geom::Rect2::from_bounds(
                    x0,
                    -6.0,
                    x0 + 3.0,
                    0.0,
                )),
                doors: vec![idq_model::DoorSpec {
                    position: idq_geom::Point2::new(x0 + 1.5, 0.0),
                    other: hall,
                    direction: Direction::Bidirectional,
                }],
            };
            let (pid, _, events) = w.building.space.insert_partition(spec).unwrap();
            for ev in &events {
                std::sync::Arc::make_mut(&mut w.index)
                    .apply_topology(&w.building.space, &w.store, ev)
                    .unwrap();
            }
            inserted.push(pid);
        }
        let insert_part_ms = t.elapsed().as_secs_f64() * 1e3 / ops as f64;

        // deletePartition: remove them again.
        let t = Instant::now();
        for pid in inserted {
            let events = w.building.space.delete_partition(pid).unwrap();
            for ev in &events {
                std::sync::Arc::make_mut(&mut w.index)
                    .apply_topology(&w.building.space, &w.store, ev)
                    .unwrap();
            }
        }
        let delete_part_ms = t.elapsed().as_secs_f64() * 1e3 / ops as f64;

        // insertObj / deleteObj.
        let mut fresh = Vec::new();
        for i in 0..ops {
            fresh.push(
                sample_one(
                    &w.building,
                    ObjectId(1_000_000 + i as u64),
                    d.radius,
                    d.instances,
                    &mut rng,
                )
                .unwrap(),
            );
        }
        let t = Instant::now();
        for obj in &fresh {
            std::sync::Arc::make_mut(&mut w.index)
                .insert_object(&w.building.space, obj)
                .unwrap();
        }
        let insert_obj_ms = t.elapsed().as_secs_f64() * 1e3 / ops as f64;
        let t = Instant::now();
        for obj in &fresh {
            std::sync::Arc::make_mut(&mut w.index)
                .remove_object(obj.id)
                .unwrap();
        }
        let delete_obj_ms = t.elapsed().as_secs_f64() * 1e3 / ops as f64;

        let _ = hall_box;
        c.push_row(
            format!("{ops}"),
            vec![insert_part_ms, delete_part_ms, insert_obj_ms, delete_obj_ms],
        );
    }
    println!("{}", c.render());

    // ---- (d) pre-computation time ---------------------------------------------------
    let mut dt = SeriesTable::new(
        "Fig 15(d) door-to-door distance pre-computation vs partitions",
        "parts",
        &["precompute (ms)", "doors", "matrix MB"],
    );
    for w in &worlds_by_floors {
        let pre = PrecomputedD2D::build(&w.building.space, w.index.doors_graph());
        dt.push_row(
            format!("{}", w.building.partition_count()),
            vec![
                pre.build_ms,
                pre.door_slots() as f64,
                pre.matrix_bytes() as f64 / (1024.0 * 1024.0),
            ],
        );
    }
    println!("{}", dt.render());

    // Context line mirroring §V-B.4's argument.
    println!(
        "note: compare Fig 15(c)'s per-operation costs (sub-millisecond object ops)\n\
         against Fig 15(d)'s full re-pre-computation — the composite index design\n\
         avoids the latter entirely on every topology change."
    );
}
