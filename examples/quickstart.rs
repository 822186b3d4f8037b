//! Quickstart: build a tiny floor plan, insert a few uncertain objects,
//! then take a snapshot and run a batch of typed queries — a range query,
//! a kNN query and a shortest path — through one consistent read view.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use indoor_dq::model::IndoorPoint;
use indoor_dq::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A small office floor: three rooms off a corridor.
    //
    //    +--------+--------+--------+
    //    | lounge | office | lab    |
    //    +--d0----+--d1----+--d2----+
    //    |          corridor        |
    //    +--------------------------+
    let mut plan = FloorPlanBuilder::new(4.0);
    let lounge = plan.add_named_room("lounge", 0, Rect2::from_bounds(0.0, 5.0, 10.0, 15.0))?;
    let office = plan.add_named_room("office", 0, Rect2::from_bounds(10.0, 5.0, 20.0, 15.0))?;
    let lab = plan.add_named_room("lab", 0, Rect2::from_bounds(20.0, 5.0, 30.0, 15.0))?;
    let corridor = plan.add_named_room("corridor", 0, Rect2::from_bounds(0.0, 0.0, 30.0, 5.0))?;
    plan.add_door_between(lounge, corridor, Point2::new(5.0, 5.0))?;
    plan.add_door_between(office, corridor, Point2::new(15.0, 5.0))?;
    plan.add_door_between(lab, corridor, Point2::new(25.0, 5.0))?;
    let space = plan.finish()?;
    println!(
        "built a floor with {} partitions, {} doors, {} connected component(s)",
        space.partition_count(),
        space.door_count(),
        space.connected_components()
    );

    // 2. The engine owns the space, the objects and the composite index.
    let mut engine = IndoorEngine::new(space, EngineConfig::default())?;

    // Three people reported by indoor positioning, each with a circular
    // uncertainty region sampled by Gaussian instances (§II-B of the
    // paper). Writes are typed updates; a batch commits atomically.
    let people = [(5.0, 1), (15.0, 2), (25.0, 3)].map(|(x, seed)| Update::InsertObjectAt {
        center: Point2::new(x, 10.0),
        floor: 0,
        radius: 1.5,
        instances: 64,
        seed,
    });
    let report = engine.apply_batch(&people)?;
    let ids: Vec<ObjectId> = report
        .outcomes
        .iter()
        .filter_map(UpdateOutcome::inserted_object)
        .collect();
    let [alice, bob, carol] = ids[..] else {
        unreachable!("three inserts, three ids")
    };
    println!("inserted objects: alice={alice}, bob={bob}, carol={carol}");

    // 3. Queries are typed values executed through a snapshot — a cheap,
    // consistent read view. A batch runs them one after another on that
    // one view. All of them evaluate *indoor* distances: through doors,
    // not walls.
    let q = IndoorPoint::new(Point2::new(2.0, 2.0), 0); // corridor, west end
    let p = IndoorPoint::new(Point2::new(25.0, 12.0), 0); // inside the lab
    let snapshot = engine.snapshot();
    let outcomes = snapshot.execute_batch(&[
        Query::Range { q, r: 18.0 },
        Query::Knn { q, k: 2 },
        Query::Path { q, p },
    ])?;

    let in_range = outcomes[0].as_range().expect("range outcome");
    println!("\niRQ(q, 18 m) → {} object(s):", in_range.results.len());
    for hit in &in_range.results {
        println!(
            "  {}  expected indoor distance ≈ {:.2} m{}",
            hit.object,
            hit.distance,
            if hit.certified_by_bound {
                "  (certified by bound)"
            } else {
                ""
            }
        );
    }

    let knn = outcomes[1].as_knn().expect("knn outcome");
    println!("\nikNN(q, 2):");
    for hit in &knn.results {
        println!("  {}  at {:.2} m", hit.object, hit.distance);
    }

    // 4. Point-to-point shortest paths with their door sequence.
    if let Some((len, doors)) = &outcomes[2].as_path().expect("path outcome").path {
        println!(
            "\nshortest path q → lab: {:.2} m through {} door(s): {:?}",
            len,
            doors.len(),
            doors
        );
    }

    // 5. Every outcome reports the pipeline's four phases (the paper's
    // Fig. 12(b) breakdown) plus its door-distance work.
    let s = &in_range.stats;
    println!(
        "\npipeline: filtering {:.3} ms, subgraph {:.3} ms, pruning {:.3} ms, refinement {:.3} ms",
        s.filtering_ms, s.subgraph_ms, s.pruning_ms, s.refinement_ms
    );
    println!(
        "           {} candidates → {} pruned by bounds → {} refined",
        s.candidates_after_filter, s.pruned_by_bounds, s.refined
    );
    let dijkstras: usize = outcomes.iter().map(|o| o.stats().dijkstras_run).sum();
    let rows: usize = outcomes.iter().map(|o| o.stats().shared_cache_hits).sum();
    println!(
        "batch:     {} Dijkstra(s) for {} queries ({} door-distance row(s) reused from the cache)",
        dijkstras,
        outcomes.len(),
        rows
    );
    Ok(())
}
