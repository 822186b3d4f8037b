//! The paper's first motivating scenario (§I): a café in a large shopping
//! mall sends advertisements to *nearby* shoppers — broadcast would be
//! wasteful and annoying, so it needs an indoor range query over moving,
//! imprecisely-positioned customers.
//!
//! This example generates the paper's evaluation mall (scaled down for a
//! quick run), populates it with shoppers, and runs the café's campaign:
//! an `iRQ` every "minute" while shoppers move around.
//!
//! ```text
//! cargo run --release --example mall_advertising
//! ```

use indoor_dq::model::IndoorPoint;
use indoor_dq::prelude::*;
use indoor_dq::workloads::{generate_building, generate_objects, BuildingConfig, ObjectConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 5-floor mall with the paper's floor layout (ring corridor, five
    // double-loaded halls, four corner staircases, 100 shops per floor).
    let building = generate_building(&BuildingConfig::with_floors(5))?;
    println!(
        "mall: {} partitions, {} doors, {} floors",
        building.partition_count(),
        building.door_count(),
        building.space.num_floors()
    );

    // 2000 shoppers with RFID-grade positioning uncertainty (r = 10 m,
    // 100 Gaussian instances each — §V-A).
    let shoppers = generate_objects(
        &building,
        &ObjectConfig {
            count: 2000,
            radius: 10.0,
            instances: 100,
            seed: 2024,
        },
    )?;
    let mut engine =
        IndoorEngine::with_objects(building.space.clone(), shoppers, EngineConfig::default())?;

    // The café sits on floor 2 beside the western ring corridor.
    let cafe = IndoorPoint::new(Point2::new(15.0, 300.0), 2);
    println!("café at {cafe}");

    let mut rng = StdRng::seed_from_u64(7);
    let ids = engine.store().ids_sorted();
    for minute in 0..5 {
        // A slice of shoppers wander to new positions (object updates are
        // deletion + insertion, §III-C.2), committed as one batch.
        let mut moves = Vec::new();
        for &id in ids.iter().skip(minute * 37).step_by(101).take(60) {
            let floor = rng.random_range(0..engine.space().num_floors() as u16);
            let dest = Point2::new(rng.random_range(15.0..585.0), rng.random_range(15.0..585.0));
            if engine
                .space()
                .partition_at(IndoorPoint::new(dest, floor))
                .is_some()
            {
                moves.push(Update::MoveObject {
                    id,
                    center: dest,
                    floor,
                    seed: minute as u64,
                });
            }
        }
        engine.apply_batch(&moves)?;

        // Send two coupon tiers per round: a premium offer to shoppers
        // within 25 m walking distance and a standard one within 60 m.
        // Both queries anchor at the café: the second composes its door
        // distances from cache rows the first one expanded.
        let t = std::time::Instant::now();
        let outcomes = engine.snapshot().execute_batch(&[
            Query::Range { q: cafe, r: 25.0 },
            Query::Range { q: cafe, r: 60.0 },
        ])?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let premium = outcomes[0].as_range().expect("range outcome");
        let campaign = outcomes[1].as_range().expect("range outcome");
        let dijkstras: usize = outcomes.iter().map(|o| o.stats().dijkstras_run).sum();
        println!(
            "minute {minute}: {:3} premium / {:3} standard coupons \
             ({:.2} ms, {} Dijkstra; filtered {:.1}% of the mall, refined {} expected distances)",
            premium.results.len(),
            campaign.results.len(),
            ms,
            dijkstras,
            campaign.stats.filtering_ratio() * 100.0,
            campaign.stats.refined,
        );
    }

    // Compare against naively broadcasting by Euclidean distance: the
    // straight-line ball reaches through floors and walls and would spam
    // shoppers the café cannot serve.
    let euclidean_hits = engine
        .store()
        .iter()
        .filter(|o| {
            let dz = (o.floor as f64 - cafe.floor as f64) * engine.space().floor_height();
            let planar = o.region.center.dist(cafe.point);
            (planar * planar + dz * dz).sqrt() <= 60.0
        })
        .count();
    let walking = engine
        .snapshot()
        .execute(&Query::Range { q: cafe, r: 60.0 })?;
    let walking_hits = walking.as_range().expect("range outcome").results.len();
    println!(
        "\nEuclidean 60 m ball: {euclidean_hits} shoppers; true walking-distance ball: {walking_hits}.\n\
         The difference is who gets spammed through walls and floors."
    );
    Ok(())
}
