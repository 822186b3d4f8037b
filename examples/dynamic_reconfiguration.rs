//! The paper's temporal-variation scenario (§I, Figure 1's Room 21): a
//! conference hall is reconfigured between *banquet style* (one big
//! partition) and *meeting style* (split by a sliding wall), and indoor
//! distances — hence query answers — change with it. The composite index
//! absorbs the change incrementally; no door-to-door distances were ever
//! pre-computed, so nothing needs re-precomputing (the paper's key
//! maintenance argument, §V-B.4).
//!
//! The write side uses PR 3's typed updates: each reconfiguration is one
//! atomic `apply_batch` transaction. The standing coffee-call range query
//! is a service *subscription*: every committed report is delivered to it
//! automatically and absorbed as a delta — no caller-side bookkeeping of
//! what changed (the promoted form of the old `RangeMonitor::absorb`
//! flow).
//!
//! ```text
//! cargo run --release --example dynamic_reconfiguration
//! ```

use indoor_dq::model::{IndoorPoint, SplitLine};
use indoor_dq::prelude::*;
use indoor_dq::query::PrecomputedD2D;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A venue: lobby + conference hall (Room 21) with doors d41/d42.
    let mut plan = FloorPlanBuilder::new(4.0);
    let lobby = plan.add_named_room("lobby", 0, Rect2::from_bounds(0.0, 0.0, 100.0, 10.0))?;
    let hall = plan.add_named_room("room 21", 0, Rect2::from_bounds(10.0, 10.0, 90.0, 50.0))?;
    let d41 = plan.add_door_between(hall, lobby, Point2::new(20.0, 10.0))?;
    let d42 = plan.add_door_between(hall, lobby, Point2::new(80.0, 10.0))?;
    let space = plan.finish()?;
    let mut engine = IndoorEngine::new(space, EngineConfig::default())?;
    println!("venue ready (doors d41={d41}, d42={d42})");

    // Attendees on both ends of the hall, admitted as one atomic batch:
    // either the whole group registers or none of it does.
    let report = engine.apply_batch(&[
        Update::InsertObjectAt {
            center: Point2::new(20.0, 40.0),
            floor: 0,
            radius: 2.0,
            instances: 64,
            seed: 1,
        },
        Update::InsertObjectAt {
            center: Point2::new(80.0, 40.0),
            floor: 0,
            radius: 2.0,
            instances: 64,
            seed: 2,
        },
    ])?;
    let west_attendee = report.delta.inserted[0];
    let east_attendee = report.delta.inserted[1];
    println!(
        "attendees admitted in one transaction (epoch {})",
        report.epoch
    );

    // An usher stands near the west end of the hall, with a standing 40 m
    // "coffee call" range subscription — every commit feeds it a delta
    // notification, no re-query, no caller bookkeeping.
    let usher = IndoorPoint::new(Point2::new(25.0, 30.0), 0);
    let service = engine.service();
    let mut coffee_call = service.subscribe(Query::Range { q: usher, r: 40.0 })?;
    println!(
        "40 m coffee call reaches {} attendee(s) in banquet style (epoch {})",
        coffee_call.initial().len(),
        coffee_call.epoch()
    );

    let banquet = engine
        .snapshot()
        .execute(&Query::Knn { q: usher, k: 2 })?
        .into_knn()
        .expect("knn outcome");
    println!("\nbanquet style — usher's nearest attendees:");
    for h in &banquet.results {
        println!("  {} at {:.1} m", h.object, h.distance);
    }

    // Mount the sliding wall at x = 50 (meeting style, no connecting
    // door): the hall becomes two rooms and the east attendee must now be
    // reached through the lobby via d41 and d42. One typed update, one
    // epoch; the subscription receives the commit and re-evaluates itself.
    let report = engine.apply_batch(&[Update::SplitPartition {
        partition: hall,
        line: SplitLine::AtX(50.0),
        connecting_door: None,
    }])?;
    let halves = report.outcomes[0]
        .split_halves()
        .expect("split yields halves");
    println!(
        "\nsliding wall mounted: room 21 → {} + {} (epoch {})",
        halves[0], halves[1], report.epoch
    );
    let notice = coffee_call.wait()?.expect("the split was committed");
    for (id, change) in &notice.changes {
        println!("  coffee call: {id} {change}");
    }
    println!(
        "40 m coffee call now reaches {} attendee(s) at epoch {}: {:?}",
        coffee_call.current().len(),
        coffee_call.epoch(),
        coffee_call.current()
    );
    assert!(coffee_call.contains(west_attendee));

    // The usher's kNN and a distance check, on one snapshot.
    let outcomes = engine.snapshot().execute_batch(&[
        Query::Knn { q: usher, k: 2 },
        Query::Range { q: usher, r: 40.0 },
    ])?;
    let meeting = outcomes[0].as_knn().expect("knn outcome");
    println!("meeting style — usher's nearest attendees:");
    for h in &meeting.results {
        println!("  {} at {:.1} m", h.object, h.distance);
    }
    let d_banquet = banquet
        .results
        .iter()
        .find(|h| h.object == east_attendee)
        .unwrap()
        .distance;
    let d_meeting = meeting
        .results
        .iter()
        .find(|h| h.object == east_attendee)
        .unwrap()
        .distance;
    println!(
        "\neast attendee: {:.1} m (banquet) → {:.1} m (meeting): rerouted via d41+d42",
        d_banquet, d_meeting
    );
    assert!(d_meeting > d_banquet);
    // The monitor and the fresh range query agree exactly.
    let call = outcomes[1].as_range().expect("range outcome");
    let fresh: Vec<ObjectId> = call.results.iter().map(|h| h.object).collect();
    assert_eq!(coffee_call.current(), fresh);

    // Dismount the wall: banquet style restored, distances return. The
    // merge and the attendees' walk back west ride in one atomic batch —
    // coalesced index maintenance, all-or-nothing semantics.
    let report = engine.apply_batch(&[
        Update::MergePartitions(halves[0], halves[1]),
        Update::MoveObject {
            id: east_attendee,
            center: Point2::new(40.0, 40.0),
            floor: 0,
            seed: 3,
        },
    ])?;
    let restored = report.outcomes[0]
        .merged_partition()
        .expect("merge outcome");
    println!("\nwall dismounted: hall restored as {restored}");
    let notice = coffee_call.wait()?.expect("the restore was committed");
    println!(
        "coffee call after restore: {:?} ({} change(s) absorbed at epoch {})",
        coffee_call.current(),
        notice.changes.len(),
        notice.epoch
    );
    assert!(coffee_call.contains(east_attendee));
    let back = engine.snapshot().execute(&Query::Knn { q: usher, k: 2 })?;
    for h in &back.as_knn().expect("kNN outcome").results {
        println!("  {} at {:.1} m", h.object, h.distance);
    }

    // Contrast with the pre-computation alternative: every reconfiguration
    // would invalidate the all-pairs door matrix and force a full rebuild.
    let t = std::time::Instant::now();
    let pre = PrecomputedD2D::build(engine.space(), engine.index().doors_graph());
    println!(
        "\nre-precomputing all door-to-door distances after the change would cost {:.1} ms \
         (matrix of {} doors); the composite index absorbed it incrementally.",
        t.elapsed().as_secs_f64() * 1e3,
        pre.door_slots(),
    );
    Ok(())
}
