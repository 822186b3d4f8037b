//! Shared harness for the figure binaries: world construction at paper
//! scale (§V-A) and workload-averaged query timing.
//!
//! Scale control: the environment variable `IDQ_SCALE` (a float, default
//! `1.0`) multiplies the object counts and floor counts of every
//! experiment, so `IDQ_SCALE=0.1 cargo run --release -p idq-bench --bin
//! fig12` gives a fast smoke run while the default regenerates the paper's
//! exact parameter grid.

#![warn(unreachable_pub)]

use idq_core::Snapshot;
use idq_index::{CompositeIndex, IndexConfig};
use idq_model::{IndoorPoint, IndoorSpace};
use idq_objects::ObjectStore;
use idq_query::{Query, QueryOptions, QueryStats};
use idq_workloads::{
    generate_building, generate_objects, generate_query_points, BuildingConfig, GeneratedBuilding,
    ObjectConfig, PaperDefaults, QueryPointConfig,
};
use std::sync::Arc;

/// A fully built experimental world.
///
/// The three layers are `Arc`-shared so `World::snapshot` assembles an
/// owned [`Snapshot`] for free (`fig15`, which mutates layers in place, goes
/// through `Arc::make_mut`). `space` is the snapshot-facing copy of
/// `building.space`, taken at construction: harnesses that mutate the
/// building afterwards work on `building.space` and never snapshot.
pub struct World {
    /// The generated building.
    pub building: GeneratedBuilding,
    /// The building's space, `Arc`-shared for snapshots.
    pub(crate) space: Arc<IndoorSpace>,
    /// The object population.
    pub store: Arc<ObjectStore>,
    /// The composite index over both.
    pub index: Arc<CompositeIndex>,
    /// The query workload (50 random points at paper scale).
    pub queries: Vec<IndoorPoint>,
    /// Query options sized for the population's uncertainty radii.
    pub options: QueryOptions,
}

/// Experiment scale multiplier from `IDQ_SCALE` (default 1.0, clamped to
/// `[0.01, 10]`).
pub fn scale_from_env() -> f64 {
    std::env::var("IDQ_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(1.0)
        .clamp(0.01, 10.0)
}

/// Applies the scale to an object count (at least 100).
pub fn scaled_objects(n: usize, scale: f64) -> usize {
    ((n as f64 * scale) as usize).max(100)
}

/// Applies the scale to a floor count (at least 2).
pub fn scaled_floors(f: u16, scale: f64) -> u16 {
    ((f as f64 * scale).round() as u16).max(2)
}

/// Scales each value of a parameter sweep with `f`, dropping repeats
/// (first occurrence wins). At a small `IDQ_SCALE` the clamps in
/// [`scaled_floors`] and the figures' `k` floor collapse a sweep such as
/// 10/20/30 floors to 2/2/2; deduplicating keeps each table to one row or
/// series per distinct setting.
pub fn scaled_sweep<T: Copy, U: PartialEq>(sweep: &[T], f: impl Fn(T) -> U) -> Vec<U> {
    let mut out: Vec<U> = Vec::with_capacity(sweep.len());
    for &v in sweep {
        let u = f(v);
        if !out.contains(&u) {
            out.push(u);
        }
    }
    out
}

/// Builds a world with the paper's defaults except where overridden.
pub fn build_world(
    floors: u16,
    objects: usize,
    radius: f64,
    query_count: usize,
    seed: u64,
) -> World {
    let defaults = PaperDefaults::default();
    let building =
        generate_building(&BuildingConfig::with_floors(floors)).expect("generator invariants hold");
    let store = generate_objects(
        &building,
        &ObjectConfig {
            count: objects,
            radius,
            instances: defaults.instances,
            seed,
        },
    )
    .expect("population fits the building");
    let index = CompositeIndex::build(
        &building.space,
        &store,
        IndexConfig {
            fanout: defaults.fanout,
            t_shape: defaults.t_shape,
            bulk_load: true,
        },
    )
    .expect("index builds");
    let queries = generate_query_points(
        &building,
        &QueryPointConfig {
            count: query_count,
            seed: seed ^ 0xBEEF,
        },
    );
    let options = QueryOptions::for_max_radius(radius);
    let space = Arc::new(building.space.clone());
    World {
        building,
        space,
        store: Arc::new(store),
        index: Arc::new(index),
        queries,
        options,
    }
}

impl World {
    /// An owned, consistent read view over the world with the given
    /// options (the snapshot API benchmark harnesses execute queries
    /// through) — three `Arc` clones, shareable across reader threads.
    pub(crate) fn snapshot(&self, options: &QueryOptions) -> Snapshot {
        Snapshot::from_parts(
            Arc::clone(&self.space),
            Arc::clone(&self.store),
            Arc::clone(&self.index),
            *options,
        )
    }
}

/// Average wall time (ms) and averaged stats of single-issue execution
/// over one query per workload point, with warm caches: one untimed pass
/// over the workload fills the shared distance cache and the summary memos
/// first, so the timed pass measures steady-state queries.
fn mean_single(
    world: &World,
    make: impl Fn(IndoorPoint) -> Query,
    options: &QueryOptions,
) -> (f64, QueryStats) {
    let snapshot = world.snapshot(options);
    for &q in &world.queries {
        snapshot.execute(&make(q)).expect("query succeeds");
    }
    let mut acc = QueryStats::default();
    let t = std::time::Instant::now();
    for &q in &world.queries {
        let out = snapshot.execute(&make(q)).expect("query succeeds");
        acc.accumulate(out.stats());
    }
    let n = world.queries.len().max(1);
    let total_ms = t.elapsed().as_secs_f64() * 1e3 / n as f64;
    (total_ms, acc.scale_down(n))
}

/// Average iRQ wall time (ms) and averaged stats over the query workload.
pub fn mean_irq(world: &World, r: f64, options: &QueryOptions) -> (f64, QueryStats) {
    mean_single(world, |q| Query::Range { q, r }, options)
}

/// Average ikNNQ wall time (ms) and averaged stats.
pub fn mean_knn(world: &World, k: usize, options: &QueryOptions) -> (f64, QueryStats) {
    mean_single(world, |q| Query::Knn { q, k }, options)
}

/// Pretty count label: `20000` → `"20K"`.
pub fn klabel(n: usize) -> String {
    if n.is_multiple_of(1000) && n >= 1000 {
        format!("{}K", n / 1000)
    } else {
        n.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_helpers() {
        assert_eq!(scaled_objects(10_000, 0.01), 100);
        assert_eq!(scaled_floors(20, 0.1), 2);
        assert_eq!(klabel(20_000), "20K");
        assert_eq!(klabel(123), "123");
    }

    #[test]
    fn scaled_sweep_drops_repeats_in_order() {
        let floors = scaled_sweep(&[10u16, 20, 30], |f| scaled_floors(f, 0.02));
        assert_eq!(floors, vec![2]);
        let floors = scaled_sweep(&[10u16, 20, 30], |f| scaled_floors(f, 0.1));
        assert_eq!(floors, vec![2, 3]);
        assert_eq!(
            scaled_sweep(&[50usize, 100, 150], |k| k),
            vec![50, 100, 150]
        );
    }

    #[test]
    fn tiny_world_round_trips() {
        let w = build_world(2, 150, 5.0, 3, 1);
        assert_eq!(w.store.len(), 150);
        let (ms, stats) = mean_irq(&w, 50.0, &w.options);
        assert!(ms >= 0.0);
        assert_eq!(stats.total_objects, 150);
        let (ms, stats) = mean_knn(&w, 10, &w.options);
        assert!(ms >= 0.0);
        assert!(stats.refined > 0);
    }
}
