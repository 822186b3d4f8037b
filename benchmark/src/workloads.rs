//! The workloads. Each is set up from a seed at one of two sizes, runs
//! its timed loop for a budget, and finishes with its share of the
//! correctness gate. Sizes and rates are frozen here; `README.md` says
//! why each was chosen.

use crate::metrics::{Headline, Sink, Source};
use crate::pacer::{Pacer, WallClock};
use crate::stats::Digest;
use crate::storage_probe::Counter;
use crate::streams::{self, Case, Neighbourhoods, ScatteredWaves, Toggles};
use crate::world::{self, Population, Stack, StackPlan, World};
use crate::{check, ops, probes, trace};
use idq_core::{EngineConfig, IndoorEngine, Snapshot, Update};
use idq_history::{HistoryOptions, HistorySession};
use idq_model::IndoorPoint;
use idq_query::Query;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The workloads `BENCHMARK.json` names: one kind of operation each, one
/// closed-loop client. Four, because the driver's time budget is per
/// run and a run must outlast this host's slow stretches (README, "Noise
/// bounds").
pub const DRIVEN: [&str; 4] = [
    "paper_range",
    "paper_knn",
    "ingest_durable",
    "standing_local",
];

/// Every workload `--workload` accepts, in the order a per-layer metric
/// the focus lacks is looked up among its companions (see `main`). The
/// last two are companions of traced passes and workloads to run by hand:
/// `history_cases` is the one the four-workload budget left out, and
/// `live_mixed` runs two generator threads beside three service threads
/// on two cores and an open loop with topology stalls, so its timings do
/// not repeat within the driver's bound.
pub const ALL: [&str; 6] = [
    "paper_range",
    "paper_knn",
    "ingest_durable",
    "standing_local",
    "history_cases",
    "live_mixed",
];

/// What the generic end-to-end metrics mean on each workload.
pub fn headline(name: &str) -> Option<Headline> {
    let per_second = |op, what, throughput, counts| Headline {
        op,
        what,
        throughput,
        counts,
    };
    Some(match name {
        "paper_range" => per_second(
            "irq",
            "one iRQ, r in {50,100,150}",
            Source::PerSecond(&["irq"], 1.0),
            "queries",
        ),
        "paper_knn" => per_second(
            "knn",
            "one ikNN, k in {50,100,150}",
            Source::PerSecond(&["knn"], 1.0),
            "queries",
        ),
        "ingest_durable" => per_second(
            "commit",
            "one durable 1024-move apply_batch, submit to ack",
            Source::Rate("ingest"),
            "updates, backlog drained",
        ),
        "standing_local" => per_second(
            "notify",
            "one 64-move commit, submit to notifications observable",
            Source::Rate("ingest"),
            "updates, dispatch drained",
        ),
        "history_cases" => per_second(
            "history",
            "one case: Trajectory, Together, RangeDuring, KnnAt",
            Source::PerSecond(&["history"], 1.0),
            "cases",
        ),
        "live_mixed" => per_second(
            "notify",
            "one paced 256-move wave, due time to notifications observable",
            Source::PerSecond(&["irq", "knn"], 1.0),
            "reader queries",
        ),
        _ => return None,
    })
}

/// `Full` sizes are the ones numbers are quoted at. `Smoke` sizes (two
/// floors) exercise every code path and check in well under a second of
/// set-up; on a traced pass they exercise the layers the focus workload
/// does not, and are never a source of quoted numbers on their own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    fn pick<T>(self, full: T, smoke: T) -> T {
        match self {
            Size::Full => full,
            Size::Smoke => smoke,
        }
    }

    /// The shared population of the four service workloads: the one
    /// every committed `BENCH_*` write line uses.
    fn service_population(self) -> Population {
        Population {
            floors: self.pick(10, 2),
            objects: self.pick(20_000, 1_000),
            radius: 10.0,
            instances: 8,
        }
    }
}

pub trait Workload {
    /// Runs the timed loops for `budget`, continuing the op stream where
    /// the previous call stopped.
    fn run(&mut self, budget: Duration, sink: &mut Sink);
    /// Traced pass only: the layer probes this workload's layers get.
    fn probe(&mut self, sink: &mut Sink);
    /// After timing: the correctness gate (and, for `ingest_durable`,
    /// recovery). Consumes the workload and releases what it holds.
    fn finish(self: Box<Self>, sink: &mut Sink);
}

/// Sets up a workload from `seed`. Set-up observations (registration
/// cost, the op-stream digest) go to `sink`.
pub fn setup(name: &str, size: Size, seed: u64, sink: &mut Sink) -> Option<Box<dyn Workload>> {
    Some(match name {
        "paper_range" => Box::new(PaperStatic::setup(QueryKind::Range, size, seed)),
        "paper_knn" => Box::new(PaperStatic::setup(QueryKind::Knn, size, seed)),
        "ingest_durable" => Box::new(IngestDurable::setup(size, seed, sink)),
        "standing_local" => Box::new(StandingLocal::setup(size, seed, sink)),
        "live_mixed" => Box::new(LiveMixed::setup(size, seed, sink)),
        "history_cases" => Box::new(HistoryCases::setup(size, seed, sink)),
        _ => return None,
    })
}

/// Where a durable workload keeps its files:
/// `benchmark/out/<workload>-<size>-<pid>/`, inside the checkout and named
/// so concurrent runs never collide.
fn data_dir(name: &str, size: Size) -> PathBuf {
    let size = size.pick("full", "smoke");
    world::out_dir().join(format!("{name}-{size}-{}", std::process::id()))
}

/// Moves-only batches the write probes replay, taken from the stream.
fn probe_batches(mut next: impl FnMut() -> Vec<Update>) -> Vec<Vec<Update>> {
    (0..12).map(|_| next()).collect()
}

// ---- paper_range, paper_knn ---------------------------------------------

pub use streams::QueryKind;

/// The paper's Figs. 12–13 protocol on a read-only snapshot, one query
/// kind per workload.
struct PaperStatic {
    kind: QueryKind,
    snapshot: Snapshot,
    points: Vec<IndoorPoint>,
    checked: usize,
    next: usize,
}

impl PaperStatic {
    fn setup(kind: QueryKind, size: Size, seed: u64) -> Self {
        let world = World::generate(
            Population {
                floors: size.pick(20, 2),
                objects: size.pick(20_000, 1_000),
                radius: 10.0,
                instances: size.pick(100, 8),
            },
            seed,
        );
        let index = world.build_index();
        let options = world.engine_config().query;
        let points = streams::query_points(&world.building, size.pick(1_200, 600), seed ^ 0xBEEF);
        let snapshot = Snapshot::from_parts(
            Arc::new(world.building.space),
            Arc::new(world.store),
            Arc::new(index),
            options,
        );
        // One untimed pass at the widest radius: the door rows of every
        // point's partition are resident afterwards at the widest band
        // the sweep asks for, so the loop times a warm cache and first
        // visits are not outliers.
        for &q in &points {
            let _ = snapshot.execute(&Query::Range { q, r: 150.0 });
        }
        PaperStatic {
            kind,
            snapshot,
            points,
            // Each oracle answer costs a full-graph Dijkstra plus every
            // object's exact distance: ~0.45 s at full size.
            checked: size.pick(4, 40),
            next: 0,
        }
    }
}

impl Workload for PaperStatic {
    fn run(&mut self, budget: Duration, sink: &mut Sink) {
        let (snapshot, points, kind) = (&self.snapshot, &self.points, self.kind);
        ops::single_queries(
            |q| snapshot.execute(q),
            |i| streams::paper_query(points, kind, i),
            &mut self.next,
            Instant::now() + budget,
            sink,
        );
    }

    fn probe(&mut self, sink: &mut Sink) {
        probes::read_layers(&self.snapshot, &self.points, sink);
        // `execute_batch` over groups of the six sweep queries sharing a
        // query point: how much work inputs that share a point save.
        let (snapshot, points) = (&self.snapshot, &self.points);
        ops::batches(
            |g| snapshot.execute_batch(g),
            |i| streams::paper_group(points[i % points.len()]),
            &mut 0,
            Instant::now() + Duration::from_millis(400),
            sink,
        );
    }

    fn finish(self: Box<Self>, sink: &mut Sink) {
        let mut stream = Digest::default();
        for i in 0..3 * self.points.len() {
            streams::digest_query(
                &mut stream,
                &streams::paper_query(&self.points, self.kind, i),
            );
        }
        let sample: Vec<Query> = (0..self.checked)
            .map(|i| streams::paper_query(&self.points, self.kind, i * 7))
            .collect();
        let results = check::against_oracle(&self.snapshot, &sample, sink);
        eprintln!(
            "{}: op-stream digest {:016x}; {} answers checked against the naive \
             oracle, result digest {:016x}",
            self.kind.workload(),
            stream.0,
            sample.len(),
            results.0
        );
    }
}

// ---- ingest_durable -------------------------------------------------------

/// Durable batched ingest with retention and no subscriptions; on a
/// traced pass, also recovery of a fixed job once per round.
struct IngestDurable {
    world: World,
    stack: Stack,
    waves: ScatteredWaves,
    /// Traced passes only: untraced, the window belongs to the commits.
    fixture: Option<RecoveryFixture>,
    digest: Digest,
}

/// A directory holding a fixed recovery job — a base checkpoint of the
/// world plus a log suffix of [`RecoveryFixture::SUFFIX`] commits — and
/// the state its recovery must reproduce. Reopening does not change it.
struct RecoveryFixture {
    dir: PathBuf,
    live_bytes: Vec<u8>,
    live_epoch: u64,
    replayed: usize,
}

impl RecoveryFixture {
    /// Commits replayed by recovery: the same work in every round of
    /// every run.
    const SUFFIX: usize = 16;

    fn create(world: &World, dir: PathBuf, mut waves: ScatteredWaves) -> Self {
        let _ = std::fs::remove_dir_all(&dir);
        let engine = IndoorEngine::create_with(
            world::backend(&dir, None),
            world.building.space.clone(),
            world.store.clone(),
            world.engine_config(),
            world::durability(0),
        )
        .expect("fixture engine builds");
        let writer = engine.writer();
        let mut replayed = 0;
        for _ in 0..Self::SUFFIX {
            let wave = waves.next_wave(&world.building);
            replayed += wave.len();
            writer.apply_batch(&wave).expect("fixture commit applies");
        }
        engine.flush_wal().expect("fixture log flushes");
        let live = engine.snapshot();
        // Last writer out flushes and closes the log.
        RecoveryFixture {
            dir,
            live_bytes: live.encode_checkpoint(),
            live_epoch: live.version(),
            replayed,
        }
    }

    /// One timed reopen; the recovered state must equal the live state
    /// the fixture was closed in, byte for byte.
    fn reopen(&self, config: EngineConfig, sink: &mut Sink) {
        let backend = world::backend(&self.dir, None);
        let Some(seconds) =
            recover_and_compare(backend, config, &self.live_bytes, self.live_epoch, sink)
        else {
            return;
        };
        sink.add(
            "storage.recovery_ms_per_10k",
            seconds * 1e3 * 10_000.0 / self.replayed as f64,
        );
    }
}

impl Drop for RecoveryFixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Recovers an engine from `backend` and requires its
/// `encode_checkpoint()` bytes and epoch to equal the live ones. Returns
/// how long the recovery took, in seconds, when it succeeded.
fn recover_and_compare(
    backend: Arc<dyn idq_storage::StorageBackend>,
    config: EngineConfig,
    live_bytes: &[u8],
    live_epoch: u64,
    sink: &mut Sink,
) -> Option<f64> {
    let t = Instant::now();
    let reopened = {
        let _span = trace::span("storage.recover");
        IndoorEngine::recover_with(backend, config, world::durability(0))
    };
    let seconds = t.elapsed().as_secs_f64();
    match reopened {
        Ok(engine) => {
            let recovered = engine.snapshot();
            if recovered.version() == live_epoch && recovered.encode_checkpoint() == live_bytes {
                sink.attempt(true);
            } else {
                sink.fail("recovered checkpoint bytes differ from the live final snapshot");
            }
            Some(seconds)
        }
        Err(e) => {
            sink.fail(&format!("recovery: {e}"));
            None
        }
    }
}

impl IngestDurable {
    fn setup(size: Size, seed: u64, sink: &mut Sink) -> Self {
        let world = World::generate(size.service_population(), seed);
        let dir = data_dir("ingest_durable", size);
        let stack = Stack::build(
            &world,
            world.store.clone(),
            StackPlan {
                // ≥ 5 background checkpoints complete inside a window.
                durable: Some(size.pick(48, 16)),
                // Tight enough that eviction cycles several times.
                history: Some(HistoryOptions {
                    max_epochs: 256,
                    max_bytes: 128 << 20,
                    ..HistoryOptions::default()
                }),
                subscriptions: 0,
            },
            &dir,
            seed,
            sink,
        );
        let waves = ScatteredWaves::new(&world, size.pick(1024, 64), seed ^ 0x1A6E);
        let mut preview = waves.clone();
        let digest = streams::update_stream_digest(|| preview.next_wave(&world.building));
        let fixture = trace::enabled().then(|| {
            RecoveryFixture::create(&world, dir.with_extension("recovery"), waves.clone())
        });
        IngestDurable {
            world,
            stack,
            waves,
            fixture,
            digest,
        }
    }

    fn next_wave(&mut self) -> Vec<Update> {
        self.waves.next_wave(&self.world.building)
    }
}

impl Workload for IngestDurable {
    fn run(&mut self, budget: Duration, sink: &mut Sink) {
        let until = Instant::now() + budget;
        if let Some(fixture) = &self.fixture {
            fixture.reopen(self.world.engine_config(), sink);
        }
        let started = Instant::now();
        storage_window(&self.stack);
        let (stack, waves, building) = (&mut self.stack, &mut self.waves, &self.world.building);
        let updates = ops::commit_loop(stack, || waves.next_wave(building), until, sink);
        ops::drain_ingest(stack, started, updates, sink);
        storage_receipt(stack, sink);
        history_receipt(stack, sink);
    }

    fn probe(&mut self, sink: &mut Sink) {
        let batches = probe_batches(|| self.next_wave());
        let snapshot = self.stack.service.snapshot();
        probes::write_layers(&self.world, &snapshot, &batches, sink);
        probes::snapshot_pin(&self.stack.service, sink);
        probes::history_lag(&self.stack, &batches, sink);
    }

    fn finish(self: Box<Self>, sink: &mut Sink) {
        eprintln!("ingest_durable: op-stream digest {:016x}", self.digest.0);
        // The run's own directory, whatever its checkpoints and log
        // suffix are by now, must recover to the state it was closed in.
        if let Err(e) = self.stack.engine.flush_wal() {
            sink.fail(&format!("flush_wal: {e}"));
        }
        let live = self.stack.service.snapshot();
        let (live_bytes, live_epoch) = (live.encode_checkpoint(), live.version());
        drop(live);
        let this = *self;
        let dir = this.stack.dir.clone().expect("ingest_durable is durable");
        let counters = this.stack.storage.clone();
        let config = this.world.engine_config();
        // Last writer out flushes and closes the log.
        drop(this.stack);
        let backend = world::backend(&dir, counters.as_ref());
        recover_and_compare(backend, config, &live_bytes, live_epoch, sink);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Starts a storage-counting window: whatever set-up, probes or the
/// last window's stragglers asked of storage is discarded.
fn storage_window(stack: &Stack) {
    if let Some(counters) = &stack.storage {
        counters.take();
    }
}

/// Folds what the engine asked of storage since [`storage_window`] into
/// the per-layer keys (traced passes only).
fn storage_receipt(stack: &Stack, sink: &mut Sink) {
    let Some(counters) = &stack.storage else {
        return;
    };
    let taken = counters.take();
    let of = |c: Counter| taken[c as usize] as f64;
    let mib = (1u64 << 20) as f64;
    for (key, value) in [
        (
            "storage.wal_ms",
            (of(Counter::WalAppendNs) + of(Counter::WalSyncNs)) / 1e6,
        ),
        ("storage.wal_bytes", of(Counter::WalBytes)),
        ("storage.wal_appends", of(Counter::WalAppends)),
        ("storage.wal_fsyncs", of(Counter::WalSyncs)),
        ("storage.fsync_ms", of(Counter::WalSyncNs) / 1e6),
        ("storage.checkpoints", of(Counter::Checkpoints)),
        ("storage.checkpoint_ms", of(Counter::CheckpointNs) / 1e6),
        ("storage.checkpoint_mb", of(Counter::CheckpointBytes) / mib),
    ] {
        sink.add_over(key, value, 0.0);
    }
}

/// Folds the retention ring's own stats into the per-layer keys.
fn history_receipt(stack: &Stack, sink: &mut Sink) {
    if let (true, Some(recorder)) = (trace::enabled(), &stack.recorder) {
        let stats = recorder.stats();
        sink.set(
            "history.mb_per_epoch",
            stats.approx_bytes as f64 / (1u64 << 20) as f64 / stats.retained_epochs.max(1) as f64,
        );
        sink.set("history.evicted_epochs", stats.evicted_epochs as f64);
    }
}

/// `[deliveries, skipped, commits, coalesced]` of the dispatcher so far.
fn dispatch_counts(stack: &Stack) -> [u64; 4] {
    let s = stack.service.dispatch_stats();
    [s.deliveries, s.skipped, s.commits, s.coalesced]
}

/// Folds what dispatch did during a window into the per-layer keys.
fn dispatch_receipt(stack: &Stack, before: [u64; 4], sink: &mut Sink) {
    if !trace::enabled() {
        return;
    }
    let after = dispatch_counts(stack);
    let [deliveries, skipped, commits, coalesced] =
        std::array::from_fn(|i| (after[i] - before[i]) as f64);
    sink.add_over("dispatch.deliveries", deliveries, 0.0);
    sink.add_over("dispatch.pairs", deliveries + skipped, 0.0);
    sink.add_over("dispatch.commits", commits, 0.0);
    sink.add_over("dispatch.coalesced", coalesced, 0.0);
}

// ---- standing_local -------------------------------------------------------

/// A large standing-query fleet under room-local movement: routing.
struct StandingLocal {
    world: World,
    stack: Stack,
    stream: Neighbourhoods,
    digest: Digest,
}

impl StandingLocal {
    fn setup(size: Size, seed: u64, sink: &mut Sink) -> Self {
        let world = World::generate(size.service_population(), seed);
        let stream = Neighbourhoods::new(&world, 64, seed ^ 0x10CA1);
        // Settle every object into its home neighbourhood before the
        // fleet registers against the population.
        let store = {
            let mut engine = IndoorEngine::with_objects(
                world.building.space.clone(),
                world.store.clone(),
                EngineConfig::default(),
            )
            .expect("engine builds");
            for batch in stream.settle() {
                engine.apply_batch(&batch).expect("pre-positioning applies");
            }
            engine.store().clone()
        };
        let stack = Stack::build(
            &world,
            store,
            StackPlan {
                durable: None,
                history: None,
                subscriptions: size.pick(10_000, 2_500),
            },
            &data_dir("standing_local", size),
            seed,
            sink,
        );
        let mut preview = stream.clone();
        let digest = streams::update_stream_digest(|| preview.next_batch().2);
        StandingLocal {
            world,
            stack,
            stream,
            digest,
        }
    }
}

impl Workload for StandingLocal {
    fn run(&mut self, budget: Duration, sink: &mut Sink) {
        let started = Instant::now();
        let before = dispatch_counts(&self.stack);
        let (stack, stream) = (&mut self.stack, &mut self.stream);
        let updates = ops::commit_loop(stack, || stream.next_batch().2, started + budget, sink);
        ops::drain_ingest(stack, started, updates, sink);
        dispatch_receipt(stack, before, sink);
    }

    fn probe(&mut self, sink: &mut Sink) {
        let batches = probe_batches(|| self.stream.next_batch().2);
        let snapshot = self.stack.service.snapshot();
        let points: Vec<IndoorPoint> = self
            .stack
            .fleet
            .iter()
            .map(|s| s.query().query_point())
            .collect();
        probes::read_layers(&snapshot, &points, sink);
        probes::write_layers(&self.world, &snapshot, &batches, sink);
        probes::snapshot_pin(&self.stack.service, sink);
    }

    fn finish(mut self: Box<Self>, sink: &mut Sink) {
        eprintln!("standing_local: op-stream digest {:016x}", self.digest.0);
        check::fleet_is_current(&mut self.stack, sink);
    }
}

// ---- live_mixed -----------------------------------------------------------

/// The full stack under paced scattered waves, topology toggles and a
/// concurrent reader.
struct LiveMixed {
    world: World,
    stack: Stack,
    waves: ScatteredWaves,
    toggles: Toggles,
    points: Vec<IndoorPoint>,
    period: Duration,
    next_query: usize,
    digest: Digest,
}

impl LiveMixed {
    fn setup(size: Size, seed: u64, sink: &mut Sink) -> Self {
        let world = World::generate(size.service_population(), seed);
        let stack = Stack::build(
            &world,
            world.store.clone(),
            StackPlan {
                durable: Some(size.pick(48, 16)),
                history: Some(HistoryOptions {
                    max_epochs: 256,
                    max_bytes: 128 << 20,
                    ..HistoryOptions::default()
                }),
                subscriptions: size.pick(1_000, 100),
            },
            &data_dir("live_mixed", size),
            seed,
            sink,
        );
        let waves = ScatteredWaves::new(&world, size.pick(256, 64), seed ^ 0x11FE);
        let toggles = Toggles::new(&world.building, size.pick(100, 10), seed ^ 0xD002);
        let mut preview = waves.clone();
        let mut digest = streams::update_stream_digest(|| preview.next_wave(&world.building));
        streams::digest_updates(
            &mut digest,
            &streams::door_toggles(&world.building, 8, seed ^ 0xD002),
        );
        let points = streams::query_points(&world.building, size.pick(4_000, 400), seed ^ 0xBEEF);
        LiveMixed {
            world,
            stack,
            waves,
            toggles,
            points,
            period: Duration::from_millis(size.pick(50, 10)),
            next_query: 0,
            digest,
        }
    }
}

impl Workload for LiveMixed {
    fn run(&mut self, budget: Duration, sink: &mut Sink) {
        storage_window(&self.stack);
        let dispatch_before = dispatch_counts(&self.stack);
        let service = self.stack.service.clone();
        let points = &self.points;
        let first_query = self.next_query;
        let (stack, waves, building, toggles) = (
            &mut self.stack,
            &mut self.waves,
            &self.world.building,
            &mut self.toggles,
        );
        let period = self.period;
        // Two generator threads on two cores: the paced writer here, the
        // closed-loop reader beside it for the same window.
        let reader = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut sink = Sink::default();
                let mut next = first_query;
                ops::single_queries(
                    |q| service.execute(q),
                    |i| streams::default_query(points, i),
                    &mut next,
                    Instant::now() + budget,
                    &mut sink,
                );
                (sink, next)
            });
            let mut pacer = Pacer::new(WallClock::start(), period);
            ops::paced_waves(
                stack,
                &mut pacer,
                || waves.next_wave(building),
                toggles,
                budget,
                sink,
            );
            reader.join().expect("reader thread panicked")
        });
        self.next_query = reader.1;
        sink.absorb(reader.0);
        storage_receipt(&self.stack, sink);
        dispatch_receipt(&self.stack, dispatch_before, sink);
        history_receipt(&self.stack, sink);
    }

    fn probe(&mut self, sink: &mut Sink) {
        let batches = probe_batches(|| self.waves.next_wave(&self.world.building));
        let snapshot = self.stack.service.snapshot();
        probes::read_layers(&snapshot, &self.points, sink);
        probes::write_layers(&self.world, &snapshot, &batches, sink);
        probes::snapshot_pin(&self.stack.service, sink);
        probes::history_lag(&self.stack, &batches, sink);
    }

    fn finish(mut self: Box<Self>, sink: &mut Sink) {
        eprintln!("live_mixed: op-stream digest {:016x}", self.digest.0);
        check::fleet_is_current(&mut self.stack, sink);
        let dir = self.stack.dir.clone();
        drop(self);
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

// ---- history_cases --------------------------------------------------------

/// Analyst cases against a retained ring; nothing is written.
struct HistoryCases {
    session: HistorySession,
    cases: Vec<Case>,
    checked: usize,
    next: usize,
    digest: Digest,
}

impl HistoryCases {
    fn setup(size: Size, seed: u64, sink: &mut Sink) -> Self {
        let world = World::generate(size.service_population(), seed);
        let stack = Stack::build(
            &world,
            world.store.clone(),
            StackPlan {
                durable: None,
                history: Some(HistoryOptions {
                    keyframe_every: size.pick(64, 16),
                    ..HistoryOptions::default()
                }),
                subscriptions: 0,
            },
            &data_dir("history_cases", size),
            seed,
            sink,
        );
        // The ring the cases read: `live_mixed`-sized waves of scattered
        // movement, three keyframe groups of them, retained in full.
        let mut waves = ScatteredWaves::new(&world, size.pick(256, 64), seed ^ 0x815);
        let mut digest = Digest::default();
        for _ in 0..size.pick(192, 48) {
            let wave = waves.next_wave(&world.building);
            streams::digest_updates(&mut digest, &wave);
            stack.writer.apply_batch(&wave).expect("wave applies");
        }
        let recorder = stack.recorder.as_ref().expect("retention attached");
        recorder.sync();
        history_receipt(&stack, sink);
        let session = recorder.session();
        let cases = streams::history_cases(
            &world,
            session.oldest(),
            session.newest(),
            size.pick(512, 256),
            seed ^ 0xCA5E,
        );
        for case in &cases {
            streams::digest_case(&mut digest, case);
        }
        // The session is a clone-out: the engine and recorder can go.
        HistoryCases {
            session,
            cases,
            // Each checked case reconstructs every epoch of its window.
            checked: size.pick(5, 20),
            next: 0,
            digest,
        }
    }
}

impl Workload for HistoryCases {
    fn run(&mut self, budget: Duration, sink: &mut Sink) {
        ops::history_cases(
            &self.session,
            &self.cases,
            &mut self.next,
            Instant::now() + budget,
            sink,
        );
    }

    fn probe(&mut self, sink: &mut Sink) {
        for case in self.cases.iter().take(24) {
            let _span = trace::span("history.reconstruct");
            if self.session.reconstruct(case.to).is_err() {
                sink.fail(&format!("reconstruct({})", case.to));
            }
        }
    }

    fn finish(self: Box<Self>, sink: &mut Sink) {
        eprintln!("history_cases: op-stream digest {:016x}", self.digest.0);
        let step = (self.cases.len() / self.checked).max(1);
        let sample: Vec<Case> = self
            .cases
            .iter()
            .step_by(step)
            .take(self.checked)
            .copied()
            .collect();
        check::history_against_reconstruction(&self.session, &sample, sink);
    }
}
