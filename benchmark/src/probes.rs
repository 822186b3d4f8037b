//! Layer probes of the traced pass: public functions of single layers
//! called directly, from outside, on the workload's own world.
//!
//! The workload loops only cross the layers at the service boundary
//! (`execute`, `apply_batch`, `quiesce`); a receipt attributes time to
//! phases but not to the crates underneath. These probes time the
//! calls the pipeline and the write path make into `idq-index`,
//! `idq-distance`, `idq-objects` and `idq-model`, on the same inputs,
//! so a later change to one layer has a number of its own to move.
//! Calls too short for a span each (sub-µs) are timed as one loop.

use crate::metrics::Sink;
use crate::trace;
use crate::world::World;
use idq_core::{IndoorEngine, Snapshot, Update};
use idq_distance::{expected_indoor_distance, DoorDistances};
use idq_geom::{Circle, Mbr3};
use idq_history::{HistoryOptions, HistoryRecorder};
use idq_model::IndoorPoint;
use idq_objects::{GaussianSampler, ObjectId, Subregions};
use idq_query::{KnnMonitor, RangeMonitor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Query points a read probe visits, and the radius it retrieves at.
const READ_POINTS: usize = 48;
const READ_RADIUS: f64 = 100.0;
/// Standing-query shape the monitor probe uses (the fleet's own mix).
const MONITOR_RADIUS: f64 = 30.0;
const MONITOR_K: usize = 10;
/// Commits the bare-engine probes replay.
const BARE_COMMITS: usize = 12;

fn us(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// What the four query phases call underneath, at `points`.
pub fn read_layers(snapshot: &Snapshot, points: &[IndoorPoint], sink: &mut Sink) {
    let (space, index, store) = (snapshot.space(), snapshot.index(), snapshot.store());
    let options = *snapshot.options();
    let cache = index.distance_cache();
    for &q in points.iter().take(READ_POINTS) {
        let found = {
            let _span = trace::span("index.range_search");
            index.range_search(space, q, READ_RADIUS, options.use_skeleton)
        };

        // Eq. 10's skeleton lower bound, per object MBR.
        let mbrs: Vec<Mbr3> = found
            .objects
            .iter()
            .filter_map(|&o| index.object_layer().object_mbr(o).ok())
            .collect();
        let t = Instant::now();
        for mbr in &mbrs {
            black_box(index.min_skeleton_distance(space, black_box(q), black_box(mbr)));
        }
        sink.add_over("index.skeleton_bound_us", us(t), mbrs.len() as f64);

        // The subgraph phase: door distances out to the retrieval
        // radius plus slack, composed from the shared cache's rows.
        let dd = {
            let _span = trace::span("distance.door_distances");
            DoorDistances::compute_banded(
                space,
                index.doors_graph(),
                q,
                READ_RADIUS + options.subgraph_slack,
                |graph, door, horizon| {
                    cache
                        .row(graph, door, horizon, options.distance_cache_bytes)
                        .0
                },
            )
        };
        let Ok(dd) = dd else {
            sink.fail(&format!("door distances at {q}"));
            continue;
        };

        // Refinement: decompose each candidate, then its expectation.
        let mut subregion_us = 0.0;
        let mut expected_us = 0.0;
        let mut refined = 0.0;
        for &o in &found.objects {
            let Ok(object) = store.get(o) else { continue };
            let t = Instant::now();
            let Ok(subregions) = Subregions::compute_with_hint(object, space, &found.partitions)
            else {
                continue;
            };
            subregion_us += us(t);
            let t = Instant::now();
            black_box(expected_indoor_distance(space, &dd, object, &subregions));
            expected_us += us(t);
            refined += 1.0;
        }
        sink.add_over("objects.subregion_us", subregion_us, refined);
        sink.add_over("distance.expected_us", expected_us, refined);
    }
    sink.set("distance.cache_mb", cache.bytes() as f64 / (1 << 20) as f64);

    // Standing queries: what registration (refresh) and dispatch
    // (absorb) call in `idq-query`.
    for (i, &q) in points.iter().take(READ_POINTS).enumerate() {
        let nearby = index
            .range_search(space, q, MONITOR_RADIUS, options.use_skeleton)
            .objects;
        let absorbed = if i % 2 == 0 {
            let Ok(mut m) = RangeMonitor::new(q, MONITOR_RADIUS, options) else {
                continue;
            };
            {
                let _span = trace::span("query.monitor_refresh");
                let _ = m.refresh(space, index, store);
            }
            let t = Instant::now();
            let out = m.absorb_delta(&nearby, &[], false, space, index, store);
            (us(t), out.is_ok())
        } else {
            let Ok(mut m) = KnnMonitor::new(q, MONITOR_K, options) else {
                continue;
            };
            {
                let _span = trace::span("query.monitor_refresh");
                let _ = m.refresh(space, index, store);
            }
            let t = Instant::now();
            let out = m.absorb_delta(&nearby, &[], false, space, index, store);
            (us(t), out.is_ok())
        };
        if !absorbed.1 {
            sink.fail(&format!("monitor absorb at {q}"));
        }
        sink.add_over("query.monitor_absorb_us", absorbed.0, nearby.len() as f64);
    }
}

/// What staging and applying a commit call underneath, on `batches` of
/// moves against the current state.
pub fn write_layers(world: &World, snapshot: &Snapshot, batches: &[Vec<Update>], sink: &mut Sink) {
    let (space, index) = (snapshot.space(), snapshot.index());
    let population = world.population;
    let sampler = GaussianSampler::with_instances(population.instances);
    let mut staged = index.clone();
    for batch in batches {
        let moves: Vec<(ObjectId, IndoorPoint, u64)> = batch
            .iter()
            .filter_map(|u| match *u {
                Update::MoveObject {
                    id,
                    center,
                    floor,
                    seed,
                } => Some((id, IndoorPoint::new(center, floor), seed)),
                _ => None,
            })
            .collect();
        let n = moves.len() as f64;

        let t = Instant::now();
        let homes: Vec<_> = moves.iter().map(|m| space.partition_at(m.1)).collect();
        sink.add_over("model.partition_at_us", us(t), n);

        let t = Instant::now();
        for (&(id, at, seed), home) in moves.iter().zip(&homes) {
            let mut rng = StdRng::seed_from_u64(seed ^ id.0);
            let hint: Vec<_> = home.iter().copied().collect();
            black_box(
                sampler
                    .sample_with_hint(
                        id,
                        at.point,
                        at.floor,
                        population.radius,
                        space,
                        &hint,
                        &mut rng,
                    )
                    .is_ok(),
            );
        }
        sink.add_over("objects.sample_us", us(t), n);

        let mbrs: Vec<Mbr3> = moves
            .iter()
            .map(|m| {
                let rect = Circle::new(m.1.point, population.radius).bbox();
                Mbr3::planar(rect, m.1.floor, space.elevation(m.1.floor))
            })
            .collect();
        let footprints = {
            let _span = trace::span("index.unit_footprints_grouped");
            index.unit_footprints_grouped(&mbrs)
        };
        let t = Instant::now();
        for ((m, units), mbr) in moves.iter().zip(footprints).zip(mbrs) {
            if staged.update_object_prepared(m.0, units, mbr).is_err() {
                sink.fail(&format!("staged index update of {}", m.0));
            }
        }
        sink.add_over("index.update_object_us", us(t), n);
    }

    // The same commits on a bare memory-only engine (no log, no fleet,
    // no retention), then with retention attached: what the write path
    // itself costs, and what keeping history adds to it.
    black_box(world.build_index());
    let bare = |retention: bool| -> Option<f64> {
        let mut engine = IndoorEngine::with_objects(
            world.building.space.clone(),
            snapshot.store().clone(),
            world.engine_config(),
        )
        .ok()?;
        let recorder = retention
            .then(|| HistoryRecorder::attach(&engine, HistoryOptions::default()).ok())
            .flatten();
        let t = Instant::now();
        for batch in batches.iter().take(BARE_COMMITS) {
            let _span = trace::span(if retention {
                "core.retained_apply"
            } else {
                "core.bare_apply"
            });
            engine.apply_batch(batch).ok()?;
        }
        if let Some(recorder) = &recorder {
            recorder.sync();
        }
        Some(t.elapsed().as_secs_f64())
    };
    match (bare(false), bare(true)) {
        (Some(off), Some(on)) if off > 0.0 => sink.add("history.retention_overhead", on / off),
        _ => sink.fail("bare-engine replay of the probe commits"),
    }
}

/// Pinning a snapshot of the live service.
pub fn snapshot_pin(service: &idq_core::IndoorService, sink: &mut Sink) {
    const PINS: usize = 2000;
    let t = Instant::now();
    for _ in 0..PINS {
        black_box(service.snapshot());
    }
    sink.add_over("core.snapshot_pin_us", us(t), PINS as f64);
}

/// How long the retention worker trails a commit: `recorder.sync()`
/// right after each of a few commits on the live stack.
pub fn history_lag(stack: &crate::world::Stack, batches: &[Vec<Update>], sink: &mut Sink) {
    let Some(recorder) = &stack.recorder else {
        return;
    };
    for batch in batches {
        if let Err(e) = stack.writer.apply_batch(batch) {
            sink.fail(&format!("probe commit: {e}"));
            continue;
        }
        let _span = trace::span("history.sync");
        recorder.sync();
    }
}
