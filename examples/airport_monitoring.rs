//! The paper's second motivating scenario (§I): monitoring individuals
//! within a predefined range of a sensitive point in an airport — e.g. a
//! power distribution unit — where one-directional doors (security
//! control) shape the reachable space.
//!
//! The example builds a small terminal with a landside/airside split: the
//! security checkpoint is one-way landside → airside. Monitoring around a
//! sensitive point on the airside must respect that passengers cannot walk
//! back through security: walking distance *from* the unit and *to* the
//! unit differ.
//!
//! On top of the live monitoring round, the example attaches a bounded
//! history ring (`idq-history`) before any passenger moves, scripts a
//! short journey through the terminal, and then answers after-the-fact
//! questions — where did the suspect walk, who was ever inside the
//! perimeter, who moved with them — verifying every reconstructed epoch
//! bit-for-bit against live snapshots pinned as ground truth.
//!
//! ```text
//! cargo run --release --example airport_monitoring
//! ```

use indoor_dq::model::IndoorPoint;
use indoor_dq::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Terminal layout (one floor):
    //
    //   +-----------------+--sec--+------------------+
    //   |   landside hall  >>>>>>>|   airside hall   |
    //   +--------+--------+-------+---------+--------+
    //   | checkin|  shops |       |  gate A | gate B |
    //   +--------+--------+       +---------+--------+
    //
    // `sec` is one-way (landside → airside); an exit corridor (not drawn)
    // lets passengers leave airside back to landside the long way round.
    let mut plan = FloorPlanBuilder::new(4.0);
    let landside = plan.add_named_room("landside", 0, Rect2::from_bounds(0.0, 20.0, 60.0, 40.0))?;
    let airside = plan.add_named_room("airside", 0, Rect2::from_bounds(60.0, 20.0, 120.0, 40.0))?;
    let checkin = plan.add_named_room("checkin", 0, Rect2::from_bounds(0.0, 0.0, 30.0, 20.0))?;
    let shops = plan.add_named_room("shops", 0, Rect2::from_bounds(30.0, 0.0, 60.0, 20.0))?;
    let gate_a = plan.add_named_room("gateA", 0, Rect2::from_bounds(60.0, 0.0, 90.0, 20.0))?;
    let gate_b = plan.add_named_room("gateB", 0, Rect2::from_bounds(90.0, 0.0, 120.0, 20.0))?;
    let exit_corr = plan.add_named_room("exit", 0, Rect2::from_bounds(0.0, 40.0, 120.0, 46.0))?;

    plan.add_door_between(landside, checkin, Point2::new(15.0, 20.0))?;
    plan.add_door_between(landside, shops, Point2::new(45.0, 20.0))?;
    plan.add_door_between(airside, gate_a, Point2::new(75.0, 20.0))?;
    plan.add_door_between(airside, gate_b, Point2::new(105.0, 20.0))?;
    // Security: one-way landside → airside.
    let security = plan.add_one_way_door(landside, airside, Point2::new(60.0, 30.0))?;
    // Airside exit: one-way airside → exit corridor → landside.
    plan.add_one_way_door(airside, exit_corr, Point2::new(110.0, 40.0))?;
    plan.add_one_way_door(exit_corr, landside, Point2::new(10.0, 40.0))?;
    let space = plan.finish()?;
    let rooms = [
        (landside, "landside"),
        (airside, "airside"),
        (checkin, "checkin"),
        (shops, "shops"),
        (gate_a, "gate A"),
        (gate_b, "gate B"),
        (exit_corr, "exit corridor"),
    ];
    let room_name = |p: Option<PartitionId>| {
        p.and_then(|p| rooms.iter().find(|(id, _)| *id == p))
            .map_or("?", |(_, n)| n)
    };

    let mut engine = IndoorEngine::new(space, EngineConfig::default())?;

    // Passengers: some landside, some airside near the gates.
    let arrivals: Vec<Update> = [
        (10.0, 30.0),  // landside hall
        (45.0, 10.0),  // shops
        (70.0, 30.0),  // airside, just past security
        (80.0, 10.0),  // gate A
        (100.0, 10.0), // gate B
        (110.0, 30.0), // airside, far end
    ]
    .iter()
    .zip(0..)
    .map(|(&(x, y), seed)| Update::InsertObjectAt {
        center: Point2::new(x, y),
        floor: 0,
        radius: 3.0,
        instances: 64,
        seed,
    })
    .collect();
    let report = engine.apply_batch(&arrivals)?;
    let passengers: Vec<ObjectId> = report
        .outcomes
        .iter()
        .filter_map(UpdateOutcome::inserted_object)
        .collect();

    // The sensitive point: a power distribution unit on the airside wall.
    let pdu = IndoorPoint::new(Point2::new(65.0, 38.0), 0);
    println!("monitoring a 30 m security perimeter around the PDU at {pdu}\n");

    // One snapshot answers the whole monitoring round consistently: the
    // perimeter query and both asymmetric distance probes see the same
    // space version. (Distance probes run their own point-to-point
    // search; only range/kNN queries share evaluation contexts.)
    let landside_guard = IndoorPoint::new(Point2::new(55.0, 30.0), 0);
    let outcomes = engine.snapshot().execute_batch(&[
        Query::Range { q: pdu, r: 30.0 },
        Query::Distance {
            q: landside_guard,
            p: pdu,
        },
        Query::Distance {
            q: pdu,
            p: landside_guard,
        },
    ])?;
    let watch = outcomes[0].as_range().expect("range outcome");
    println!("passengers inside the perimeter (walking distance ≤ 30 m):");
    for hit in &watch.results {
        println!("  {}  at {:.1} m", hit.object, hit.distance);
    }

    // One-way asymmetry: from the landside hall the PDU may be close
    // *through security*, but walking back out is the long way.
    let to_pdu = outcomes[1]
        .as_distance()
        .expect("distance outcome")
        .distance;
    let from_pdu = outcomes[2]
        .as_distance()
        .expect("distance outcome")
        .distance;
    println!(
        "\nguard (landside) → PDU: {to_pdu:.1} m through security;\n\
         PDU → guard:            {from_pdu:.1} m around through the exit corridor"
    );
    assert!(from_pdu > to_pdu);

    // ---- retention: record everything from here on -------------------
    //
    // The recorder attaches to the commit path; every epoch the engine
    // publishes from now on lands in a bounded in-memory ring. We keep a
    // live snapshot of every epoch as ground truth to verify against.
    let recorder = HistoryRecorder::attach(
        &engine,
        HistoryOptions {
            keyframe_every: 4,
            ..HistoryOptions::default()
        },
    )?;
    let mut ground_truth = vec![engine.snapshot()];

    // A scripted journey for passenger 0 — check-in, shops, through
    // security, gate A — while passenger 1 shadows them step for step
    // and the others drift around the gates.
    let suspect = passengers[0];
    let shadow = passengers[1];
    let journey: &[&[(ObjectId, f64, f64)]] = &[
        &[(suspect, 15.0, 10.0), (shadow, 18.0, 12.0)], // both in check-in
        &[(suspect, 45.0, 10.0), (shadow, 48.0, 8.0)],  // both in shops
        &[
            (suspect, 50.0, 30.0),
            (shadow, 52.0, 28.0),
            (passengers[3], 70.0, 30.0), // gate A → airside hall
        ],
        &[(suspect, 70.0, 30.0), (shadow, 72.0, 32.0)], // through security
        &[
            (suspect, 80.0, 10.0),
            (shadow, 82.0, 12.0),
            (passengers[3], 100.0, 10.0), // drifts on to gate B
        ],
    ];
    for wave in journey {
        let updates: Vec<Update> = wave
            .iter()
            .map(|&(id, x, y)| Update::MoveObject {
                id,
                center: Point2::new(x, y),
                floor: 0,
                seed: 7,
            })
            .collect();
        engine.apply_batch(&updates)?;
        ground_truth.push(engine.snapshot());
    }

    // Emergency drill: security closes. The perimeter from the PDU still
    // covers airside passengers, but the landside guard can no longer
    // reach it at all. (A topology change — the ring keyframes it.)
    engine.apply(Update::CloseDoor(security))?;
    let closed = engine.snapshot();
    ground_truth.push(closed.clone());
    let to_pdu_closed = closed
        .execute(&Query::Distance {
            q: landside_guard,
            p: pdu,
        })?
        .into_distance()
        .expect("distance outcome")
        .distance;
    println!(
        "\nafter closing security: guard → PDU = {}",
        if to_pdu_closed.is_finite() {
            format!("{to_pdu_closed:.1} m")
        } else {
            "unreachable".to_string()
        }
    );
    let watch = closed
        .execute(&Query::Range { q: pdu, r: 30.0 })?
        .into_range()
        .expect("range outcome");
    println!(
        "perimeter check still sees {} airside passenger(s)",
        watch.results.len()
    );

    // ---- after the fact: ask the ring what happened ------------------
    recorder.sync();
    let session = recorder.session();
    let (oldest, newest) = (session.oldest(), session.newest());
    println!(
        "\nhistory ring: epochs {oldest}..={newest} retained ({} keyframes)",
        recorder.stats().keyframes
    );

    // Ground truth first: every retained epoch must reconstruct to the
    // exact snapshot the engine published — bit-for-bit.
    for pinned in &ground_truth {
        let rebuilt = session.reconstruct(pinned.version())?;
        assert_eq!(
            rebuilt.encode_checkpoint(),
            pinned.encode_checkpoint(),
            "epoch {} reconstructed differently",
            pinned.version()
        );
    }
    println!(
        "verified: all {} epochs reconstruct bit-identical to live snapshots",
        ground_truth.len()
    );

    // Where did the suspect walk? The (x, y, time) trajectory store
    // returns the room-by-room trajectory without replaying anything.
    println!("\npassenger {suspect}'s trajectory:");
    match session.execute(&HistoryQuery::Trajectory {
        object: suspect,
        from: oldest,
        to: newest,
    })? {
        HistoryOutcome::Trajectory(spans) => {
            for s in &spans {
                println!(
                    "  epochs {:>2}..={:<2}  {:13} at ({:.0}, {:.0})",
                    s.from_epoch,
                    s.to_epoch,
                    room_name(s.partition),
                    s.position.x,
                    s.position.y
                );
            }
        }
        other => unreachable!("trajectory query yields trajectory: {other:?}"),
    }

    // Who was EVER inside the PDU perimeter during the journey?
    let ever_near = session.range_during(pdu, 30.0, oldest, newest)?;
    println!("\never inside the 30 m perimeter during epochs {oldest}..={newest}: {ever_near:?}");
    assert!(
        ever_near.contains(&suspect),
        "the suspect passed the PDU on the way to gate A"
    );

    // Who moved with the suspect? Partition co-residence over the window.
    let companions = session.together(suspect, oldest, newest, 3)?;
    println!("\ntravelled with passenger {suspect} (≥ 3 shared epochs):");
    for c in &companions {
        println!("  {}  {} shared epochs", c.object, c.shared_epochs);
    }
    assert!(
        companions.iter().any(|c| c.object == shadow),
        "the shadow co-resided in every room"
    );

    // And a point-in-time forensic question: who was closest to the PDU
    // back when the suspect cleared security (two epochs before the end)?
    let at = newest - 2;
    let knn = session.knn_at(pdu, 3, at)?;
    println!("\nclosest to the PDU at epoch {at}:");
    for hit in &knn.results {
        println!("  {}  at {:.1} m", hit.object, hit.distance);
    }
    Ok(())
}
