//! World and service-stack construction, shared by the workloads.

use crate::metrics::Sink;
use crate::storage_probe::{ProbeBackend, StorageCounters};
use crate::trace;
use idq_core::{
    DurabilityOptions, EngineConfig, IndoorEngine, IndoorService, Subscription, WriteHandle,
};
use idq_history::{HistoryOptions, HistoryRecorder};
use idq_index::{CompositeIndex, IndexConfig};
use idq_objects::ObjectStore;
use idq_query::QueryOptions;
use idq_storage::{FileBackend, StorageBackend, SyncPolicy};
use idq_workloads::{
    generate_building, generate_objects, generate_subscription_set, BuildingConfig,
    GeneratedBuilding, ObjectConfig, PaperDefaults, SubscriptionSetConfig,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Subscriptions polled after every commit: what "notification
/// observable" means for `notify_*`.
pub const POLLED: usize = 100;

/// Population of a workload's world.
#[derive(Clone, Copy, Debug)]
pub struct Population {
    pub floors: u16,
    pub objects: usize,
    pub radius: f64,
    pub instances: usize,
}

/// A generated building and its seeded object population.
pub struct World {
    pub building: GeneratedBuilding,
    pub store: ObjectStore,
    pub population: Population,
}

impl World {
    pub fn generate(population: Population, seed: u64) -> World {
        let building = generate_building(&BuildingConfig::with_floors(population.floors))
            .expect("generator invariants hold");
        let store = generate_objects(
            &building,
            &ObjectConfig {
                count: population.objects,
                radius: population.radius,
                instances: population.instances,
                seed,
            },
        )
        .expect("population fits the building");
        World {
            building,
            store,
            population,
        }
    }

    /// The paper's index layout (§V-A) and query options sized for the
    /// population's uncertainty radius.
    pub fn engine_config(&self) -> EngineConfig {
        let d = PaperDefaults::default();
        EngineConfig {
            index: IndexConfig {
                fanout: d.fanout,
                t_shape: d.t_shape,
                bulk_load: true,
            },
            query: QueryOptions::for_max_radius(self.population.radius),
        }
    }

    pub fn build_index(&self) -> CompositeIndex {
        let _span = trace::span("index.build");
        CompositeIndex::build(
            &self.building.space,
            &self.store,
            self.engine_config().index,
        )
        .expect("index builds")
    }
}

/// What a [`Stack`] is made of.
#[derive(Clone, Copy, Debug)]
pub struct StackPlan {
    /// `wal=group` on a real directory, checkpoint every this many
    /// epochs; `None` for a memory-only engine.
    pub durable: Option<u64>,
    /// Retention attached with these options.
    pub history: Option<HistoryOptions>,
    /// Mixed range/kNN standing queries registered.
    pub subscriptions: usize,
}

/// A running service: engine, handles, retention, the subscription fleet.
pub struct Stack {
    pub engine: IndoorEngine,
    pub service: IndoorService,
    pub writer: WriteHandle,
    pub recorder: Option<HistoryRecorder>,
    pub fleet: Vec<Subscription>,
    pub dir: Option<PathBuf>,
    /// Storage counters (traced passes only).
    pub storage: Option<Arc<StorageCounters>>,
}

/// A storage backend over `dir`: the bare [`FileBackend`], wrapped in the
/// counting probe on traced passes.
pub fn backend(dir: &Path, counters: Option<&Arc<StorageCounters>>) -> Arc<dyn StorageBackend> {
    let files = FileBackend::open(dir).expect("benchmark data directory opens");
    match counters {
        Some(c) => Arc::new(ProbeBackend::new(files, Arc::clone(c))),
        None => Arc::new(files),
    }
}

pub fn durability(checkpoint_every: u64) -> DurabilityOptions {
    DurabilityOptions {
        sync: SyncPolicy::Group,
        checkpoint_every,
        ..DurabilityOptions::default()
    }
}

impl Stack {
    /// Builds the service over `store` (the world's population, or a
    /// pre-positioned copy of it). `dir` is wiped first when durable.
    /// Registration cost goes to `sink` under the dispatch keys.
    pub fn build(
        world: &World,
        store: ObjectStore,
        plan: StackPlan,
        dir: &Path,
        seed: u64,
        sink: &mut Sink,
    ) -> Stack {
        let space = world.building.space.clone();
        let config = world.engine_config();
        let storage =
            (plan.durable.is_some() && trace::enabled()).then(Arc::<StorageCounters>::default);
        let engine = match plan.durable {
            Some(checkpoint_every) => {
                let _ = std::fs::remove_dir_all(dir);
                let _span = trace::span("core.create_durable");
                IndoorEngine::create_with(
                    backend(dir, storage.as_ref()),
                    space,
                    store,
                    config,
                    durability(checkpoint_every),
                )
            }
            None => IndoorEngine::with_objects(space, store, config),
        }
        .expect("engine builds");
        let recorder = plan
            .history
            .map(|options| HistoryRecorder::attach(&engine, options).expect("fresh engine"));
        let service = engine.service();
        let writer = engine.writer();

        let queries = generate_subscription_set(
            &world.building,
            &SubscriptionSetConfig {
                count: plan.subscriptions,
                knn_fraction: 0.2,
                radii: vec![15.0, 30.0],
                ks: vec![5, 10],
                floor_skew: 1.5,
                seed: seed ^ 0x5B5,
            },
        );
        let t = Instant::now();
        let fleet: Vec<Subscription> = {
            let _span = trace::span("dispatch.register_fleet");
            queries
                .iter()
                .map(|&q| service.subscribe(q).expect("range/knn subscribe"))
                .collect()
        };
        if !fleet.is_empty() {
            let n = fleet.len() as f64;
            sink.add(
                "dispatch.register_ms_per_sub",
                t.elapsed().as_secs_f64() * 1e3 / n,
            );
            let (_, links, _) = service.dispatch_index_load();
            sink.add("dispatch.mean_footprint", links as f64 / n);
        }
        Stack {
            engine,
            service,
            writer,
            recorder,
            fleet,
            dir: plan.durable.map(|_| dir.to_path_buf()),
            storage,
        }
    }

    /// The subscriptions polled after every commit.
    pub fn polled(&mut self) -> &mut [Subscription] {
        let n = self.fleet.len().min(POLLED);
        &mut self.fleet[..n]
    }
}

/// `benchmark/out/`: data directories and trace files.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}
