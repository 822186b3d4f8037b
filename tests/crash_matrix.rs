//! Crash-matrix suite for the durability subsystem.
//!
//! Every scenario follows the same shape: run a durable engine over a
//! mixed object/topology update stream, kill it at a chosen point (a
//! byte-accurate [`MemBackend::crashed`] copy keeps only what `fsync`
//! made durable — exactly what a power loss leaves on disk), recover,
//! and demand a **bit-identical** world digest against a plain in-memory
//! engine that serially replayed the same batch prefix. The matrix
//! covers:
//!
//! * kill at every commit boundary (`Group` policy: no acknowledged
//!   commit is ever lost);
//! * a torn WAL tail — both trailing garbage and a mid-record cut;
//! * a group that reached the durable log but died before the epoch
//!   swap published it (recovery replays it: logged ⇒ committed);
//! * `Os`-policy crash (a suffix of acknowledged commits may vanish,
//!   but recovery still lands on a consistent earlier epoch);
//! * a group whose WAL fsync fails (bytes possibly persisted anyway):
//!   the engine fail-stops permanently, the epoch is never reused, and
//!   recovery never replays a merged/duplicated group;
//! * kill mid-checkpoint (partial `.tmp`, corrupt forged `.ckpt`):
//!   recovery falls back to the previous valid checkpoint;
//! * checkpoint + log-suffix replay with real segment truncation;
//! * liveness: writers keep committing while a checkpoint is stalled
//!   inside the storage backend;
//! * proptest-randomized streams over policies and checkpoint points.

use indoor_dq::prelude::*;
use indoor_dq::storage::{LogFile, StorageError, Wal};
use indoor_dq::workloads::{
    generate_building, generate_objects, generate_query_points, generate_update_stream,
    GeneratedBuilding, QueryPointConfig, UpdateStreamConfig,
};
use proptest::prelude::*;
use std::sync::{Arc, Condvar, Mutex};

fn building() -> GeneratedBuilding {
    generate_building(&BuildingConfig {
        bands: 2,
        rooms_per_side: 3,
        ..BuildingConfig::with_floors(2)
    })
    .unwrap()
}

fn population(b: &GeneratedBuilding, seed: u64) -> indoor_dq::objects::ObjectStore {
    generate_objects(
        b,
        &ObjectConfig {
            count: 40,
            radius: 5.0,
            instances: 6,
            seed,
        },
    )
    .unwrap()
}

/// One batch per epoch: a mixed stream (moves, arrivals, departures,
/// door open/close churn) chunked so sequential application is valid.
fn batches(b: &GeneratedBuilding, seed: u64, count: usize, per_batch: usize) -> Vec<Vec<Update>> {
    let store = population(b, seed);
    let mut scratch =
        IndoorEngine::with_objects(b.space.clone(), store, EngineConfig::default()).unwrap();
    let mut out = Vec::new();
    for k in 0..count {
        let stream = generate_update_stream(
            b,
            scratch.store(),
            &UpdateStreamConfig {
                count: per_batch,
                door_events: 0.10,
                seed: seed ^ 0xC4A5 ^ ((k as u64) << 8),
                ..Default::default()
            },
        );
        scratch.apply_batch(&stream).unwrap();
        out.push(stream);
    }
    out
}

fn queries(b: &GeneratedBuilding) -> Vec<Query> {
    let points = generate_query_points(b, &QueryPointConfig { count: 3, seed: 71 });
    let mut queries = Vec::new();
    for &q in &points {
        queries.push(Query::Range { q, r: 50.0 });
        queries.push(Query::Knn { q, k: 4 });
    }
    queries
}

/// A bit-exact digest of the whole recovered world: epoch, every stored
/// object's id/position/radius bits, and the outcome bits of a fixed
/// query battery (options pinned — the engines under test differ in
/// history, not in state).
fn digest(e: &IndoorEngine, queries: &[Query]) -> Vec<u64> {
    let snap = e
        .snapshot()
        .with_options(QueryOptions::for_max_radius(10.0));
    let mut d = vec![e.epoch(), snap.store().len() as u64];
    let mut ids: Vec<u64> = snap.store().iter().map(|o| o.id.0).collect();
    ids.sort_unstable();
    for id in ids {
        let o = snap.store().get(ObjectId(id)).unwrap();
        d.extend([
            id,
            o.region.center.x.to_bits(),
            o.region.center.y.to_bits(),
            o.region.radius.to_bits(),
            o.floor as u64,
        ]);
    }
    for out in snap.execute_batch(queries).unwrap() {
        match out {
            Outcome::Range(r) => {
                d.push(r.results.len() as u64);
                d.extend(
                    r.results
                        .iter()
                        .flat_map(|h| [h.object.0, h.distance.to_bits()]),
                );
            }
            Outcome::Knn(k) => {
                d.push(k.results.len() as u64);
                d.extend(
                    k.results
                        .iter()
                        .flat_map(|h| [h.object.0, h.distance.to_bits()]),
                );
            }
            _ => unreachable!("battery issues range/knn only"),
        }
    }
    d
}

/// The oracle: a plain in-memory engine that serially replayed the first
/// `k` batches.
fn serial_at(b: &GeneratedBuilding, seed: u64, batches: &[Vec<Update>], k: usize) -> IndoorEngine {
    let mut e = IndoorEngine::with_objects(
        b.space.clone(),
        population(b, seed),
        EngineConfig::default(),
    )
    .unwrap();
    for batch in &batches[..k] {
        e.apply_batch(batch).unwrap();
    }
    e
}

fn durable(
    backend: &MemBackend,
    b: &GeneratedBuilding,
    seed: u64,
    options: DurabilityOptions,
) -> IndoorEngine {
    IndoorEngine::create_with(
        Arc::new(backend.clone()),
        b.space.clone(),
        population(b, seed),
        EngineConfig::default(),
        options,
    )
    .unwrap()
}

fn recover(backend: MemBackend) -> IndoorEngine {
    IndoorEngine::recover_with(
        Arc::new(backend),
        EngineConfig::default(),
        DurabilityOptions::default(),
    )
    .unwrap()
}

/// The newest WAL segment file on the backend (where a torn tail lives).
fn active_segment(backend: &MemBackend) -> String {
    let mut segs: Vec<String> = backend
        .list()
        .unwrap()
        .into_iter()
        .filter(|n| n.starts_with("wal-") && n.ends_with(".log"))
        .collect();
    segs.sort();
    segs.pop().expect("a durable engine always has a log")
}

const SEED: u64 = 9;
const EPOCHS: usize = 6;

#[test]
fn kill_at_every_commit_boundary_recovers_bit_identical() {
    let b = building();
    let stream = batches(&b, SEED, EPOCHS, 24);
    let q = queries(&b);
    let backend = MemBackend::new();
    let mut e = durable(&backend, &b, SEED, DurabilityOptions::default());
    for (k, batch) in stream.iter().enumerate() {
        e.apply_batch(batch).unwrap();
        // Power loss right here: the commit was acknowledged, so the
        // `Group` policy guarantees it is already durable.
        let r = recover(backend.crashed());
        assert_eq!(r.epoch(), (k + 1) as u64);
        assert_eq!(
            digest(&r, &q),
            digest(&serial_at(&b, SEED, &stream, k + 1), &q),
            "recovery diverges from serial replay at epoch {}",
            k + 1
        );
    }
}

#[test]
fn torn_wal_tail_is_discarded_and_prefix_recovers() {
    let b = building();
    let stream = batches(&b, SEED, EPOCHS, 24);
    let q = queries(&b);

    // Trailing garbage after the last full record: all epochs survive.
    let backend = MemBackend::new();
    {
        let mut e = durable(&backend, &b, SEED, DurabilityOptions::default());
        for batch in &stream {
            e.apply_batch(batch).unwrap();
        }
    }
    let name = active_segment(&backend);
    let len = backend.read(&name).unwrap().len() as u64;
    let mut f = backend.open_at(&name, len).unwrap();
    f.append(&[0x17, 0, 0, 0, 0xAB, 0xCD]).unwrap(); // header of a frame that never finished
    f.sync().unwrap();
    drop(f);
    let r = recover(backend.clone());
    assert_eq!(r.epoch(), EPOCHS as u64);
    assert_eq!(
        digest(&r, &q),
        digest(&serial_at(&b, SEED, &stream, EPOCHS), &q)
    );

    // A cut through the *last record itself*: the final epoch is torn
    // away and recovery lands on the previous one.
    let backend = MemBackend::new();
    {
        let mut e = durable(&backend, &b, SEED, DurabilityOptions::default());
        for batch in &stream {
            e.apply_batch(batch).unwrap();
        }
    }
    let name = active_segment(&backend);
    let len = backend.read(&name).unwrap().len() as u64;
    let mut f = backend.open_at(&name, len - 3).unwrap();
    f.sync().unwrap();
    drop(f);
    let r = recover(backend.clone());
    assert_eq!(r.epoch(), (EPOCHS - 1) as u64);
    assert_eq!(
        digest(&r, &q),
        digest(&serial_at(&b, SEED, &stream, EPOCHS - 1), &q)
    );
}

#[test]
fn logged_but_unpublished_group_replays_on_recovery() {
    let b = building();
    let stream = batches(&b, SEED, EPOCHS, 24);
    let q = queries(&b);
    let backend = MemBackend::new();
    let moved = {
        let mut e = durable(&backend, &b, SEED, DurabilityOptions::default());
        for batch in &stream {
            e.apply_batch(batch).unwrap();
        }
        e.snapshot().store().iter().map(|o| o.id).min().unwrap()
    };
    // The crash window between WAL append and epoch swap: the group is
    // durable in the log but no reader ever saw it published. Forge
    // exactly that state by appending a valid next-epoch group directly.
    let update = Update::MoveObject {
        id: moved,
        center: Point2::new(6.0, 6.0),
        floor: 0,
        seed: 42,
    };
    let payload = indoor_dq::core::encode_batch(std::slice::from_ref(&update), &[]);
    {
        let (mut wal, _) = Wal::open(
            Arc::new(backend.clone()),
            SyncPolicy::Always,
            8 * 1024 * 1024,
        )
        .unwrap();
        wal.append_commit(EPOCHS as u64 + 1, &[payload]).unwrap();
    }
    // Once logged, the group is committed: recovery must replay it.
    let r = recover(backend.clone());
    assert_eq!(r.epoch(), EPOCHS as u64 + 1);
    let mut serial = serial_at(&b, SEED, &stream, EPOCHS);
    serial.apply(update).unwrap();
    assert_eq!(digest(&r, &q), digest(&serial, &q));
}

#[test]
fn os_policy_crash_loses_only_a_suffix() {
    let b = building();
    let stream = batches(&b, SEED, EPOCHS, 24);
    let q = queries(&b);
    let backend = MemBackend::new();
    let mut e = durable(
        &backend,
        &b,
        SEED,
        DurabilityOptions {
            sync: SyncPolicy::Os,
            ..DurabilityOptions::default()
        },
    );
    for batch in &stream {
        e.apply_batch(batch).unwrap();
    }
    // Crash while the engine is still live: with `Os` nothing forced the
    // log out, so a suffix of acknowledged commits may be gone — but
    // recovery still lands on a *consistent* earlier epoch.
    let r = recover(backend.crashed());
    let at = r.epoch();
    assert!(at <= EPOCHS as u64);
    assert_eq!(
        digest(&r, &q),
        digest(&serial_at(&b, SEED, &stream, at as usize), &q)
    );

    // A clean shutdown flushes regardless of policy: nothing is lost.
    drop(e);
    let r = recover(backend.crashed());
    assert_eq!(r.epoch(), EPOCHS as u64);
    assert_eq!(
        digest(&r, &q),
        digest(&serial_at(&b, SEED, &stream, EPOCHS), &q)
    );
}

#[test]
fn kill_mid_checkpoint_falls_back_to_the_previous_checkpoint() {
    let b = building();
    let stream = batches(&b, SEED, EPOCHS, 24);
    let q = queries(&b);
    let backend = MemBackend::new();
    {
        let mut e = durable(&backend, &b, SEED, DurabilityOptions::default());
        for batch in &stream {
            e.apply_batch(batch).unwrap();
        }
    }
    // A checkpointer killed mid-stream leaves a partial `.tmp` (never
    // renamed into place) …
    let mut f = backend.create("ckpt-00000000000000ff.tmp").unwrap();
    f.append(b"half-written snapshot").unwrap();
    f.sync().unwrap();
    drop(f);
    // … and a kill *during the rename window* can at worst leave a
    // damaged `.ckpt`. Forge one newer than the real checkpoint.
    let mut f = backend.create("ckpt-00000000000000ff.ckpt").unwrap();
    f.append(b"IDQCKPT1 this is not a valid checkpoint at all")
        .unwrap();
    f.sync().unwrap();
    drop(f);
    // Recovery skips both and degrades to the older valid checkpoint +
    // full log replay.
    let r = recover(backend.clone());
    assert_eq!(r.epoch(), EPOCHS as u64);
    assert_eq!(
        digest(&r, &q),
        digest(&serial_at(&b, SEED, &stream, EPOCHS), &q)
    );
}

#[test]
fn checkpoint_plus_suffix_replay_with_segment_truncation() {
    let b = building();
    let stream = batches(&b, SEED, EPOCHS, 24);
    let q = queries(&b);
    let backend = MemBackend::new();
    // Tiny segments: every commit group seals its own segment, so the
    // mid-stream checkpoint physically deletes the covered prefix.
    let options = DurabilityOptions {
        segment_bytes: 1,
        ..DurabilityOptions::default()
    };
    {
        let mut e = durable(&backend, &b, SEED, options);
        for batch in &stream[..4] {
            e.apply_batch(batch).unwrap();
        }
        let logged = backend.total_bytes();
        assert_eq!(e.checkpoint().unwrap(), Some(4));
        assert!(
            backend.total_bytes() < logged,
            "the checkpoint must truncate covered log segments"
        );
        for batch in &stream[4..] {
            e.apply_batch(batch).unwrap();
        }
    }
    let r = recover(backend.crashed());
    assert_eq!(r.epoch(), EPOCHS as u64);
    assert_eq!(r.last_checkpoint_epoch(), Some(4));
    assert_eq!(
        digest(&r, &q),
        digest(&serial_at(&b, SEED, &stream, EPOCHS), &q)
    );
}

/// A backend that can stall checkpoint-file creation on demand — the
/// probe that proves checkpoints never block the commit path.
#[derive(Debug)]
struct GatedBackend {
    inner: MemBackend,
    gate: Mutex<bool>,
    opened: Condvar,
}

impl GatedBackend {
    fn new(inner: MemBackend) -> Arc<Self> {
        Arc::new(GatedBackend {
            inner,
            gate: Mutex::new(false),
            opened: Condvar::new(),
        })
    }

    fn block_checkpoints(&self) {
        *self.gate.lock().unwrap() = true;
    }

    fn release_checkpoints(&self) {
        *self.gate.lock().unwrap() = false;
        self.opened.notify_all();
    }
}

impl StorageBackend for GatedBackend {
    fn label(&self) -> String {
        "gated".to_string()
    }
    fn create(&self, name: &str) -> Result<Box<dyn LogFile>, StorageError> {
        if name.starts_with("ckpt-") {
            let mut blocked = self.gate.lock().unwrap();
            while *blocked {
                blocked = self.opened.wait(blocked).unwrap();
            }
        }
        self.inner.create(name)
    }
    fn open_at(&self, name: &str, len: u64) -> Result<Box<dyn LogFile>, StorageError> {
        self.inner.open_at(name, len)
    }
    fn read(&self, name: &str) -> Result<Vec<u8>, StorageError> {
        self.inner.read(name)
    }
    fn list(&self) -> Result<Vec<String>, StorageError> {
        self.inner.list()
    }
    fn delete(&self, name: &str) -> Result<(), StorageError> {
        self.inner.delete(name)
    }
    fn rename(&self, from: &str, to: &str) -> Result<(), StorageError> {
        self.inner.rename(from, to)
    }
}

/// A backend that can make WAL fsyncs fail on demand while still letting
/// the appended bytes through — the "failed fsync whose data reaches
/// disk anyway via the page cache" shape of the fail-stop contract.
#[derive(Debug)]
struct FlakySyncBackend {
    inner: MemBackend,
    fail_wal_sync: Arc<Mutex<bool>>,
}

#[derive(Debug)]
struct FlakyLogFile {
    fail_wal_sync: Arc<Mutex<bool>>,
    name: String,
    inner: Box<dyn LogFile>,
}

impl LogFile for FlakyLogFile {
    fn append(&mut self, data: &[u8]) -> Result<(), StorageError> {
        self.inner.append(data)
    }
    fn sync(&mut self) -> Result<(), StorageError> {
        if self.name.starts_with("wal-") && *self.fail_wal_sync.lock().unwrap() {
            return Err(StorageError::Io {
                op: "sync",
                path: self.name.clone(),
                message: "injected fsync failure".to_string(),
            });
        }
        self.inner.sync()
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
}

impl StorageBackend for FlakySyncBackend {
    fn label(&self) -> String {
        "flaky".to_string()
    }
    fn create(&self, name: &str) -> Result<Box<dyn LogFile>, StorageError> {
        Ok(Box::new(FlakyLogFile {
            fail_wal_sync: Arc::clone(&self.fail_wal_sync),
            name: name.to_string(),
            inner: self.inner.create(name)?,
        }))
    }
    fn open_at(&self, name: &str, len: u64) -> Result<Box<dyn LogFile>, StorageError> {
        self.inner.open_at(name, len)
    }
    fn read(&self, name: &str) -> Result<Vec<u8>, StorageError> {
        self.inner.read(name)
    }
    fn list(&self) -> Result<Vec<String>, StorageError> {
        self.inner.list()
    }
    fn delete(&self, name: &str) -> Result<(), StorageError> {
        self.inner.delete(name)
    }
    fn rename(&self, from: &str, to: &str) -> Result<(), StorageError> {
        self.inner.rename(from, to)
    }
}

#[test]
fn failed_group_log_poisons_the_engine_and_never_reuses_the_epoch() {
    let b = building();
    let stream = batches(&b, SEED, EPOCHS, 24);
    let q = queries(&b);
    let mem = MemBackend::new();
    let fail = Arc::new(Mutex::new(false));
    let backend = Arc::new(FlakySyncBackend {
        inner: mem.clone(),
        fail_wal_sync: Arc::clone(&fail),
    });
    let mut e = IndoorEngine::create_with(
        backend as Arc<dyn StorageBackend>,
        b.space.clone(),
        population(&b, SEED),
        EngineConfig::default(),
        DurabilityOptions::default(),
    )
    .unwrap();
    for batch in &stream[..3] {
        e.apply_batch(batch).unwrap();
    }

    // Epoch 4's group fsync fails, but its appended bytes went through —
    // exactly the residue a failed fsync can leave behind.
    *fail.lock().unwrap() = true;
    let err = e.apply_batch(&stream[3]).unwrap_err();
    assert!(matches!(err, EngineError::Storage { .. }), "{err:?}");
    assert_eq!(e.epoch(), 3, "the failed group must not publish");

    // Durability is now poisoned: even with the fault gone, retrying the
    // batch must fail — the retry would append epoch 4 *again* on top of
    // the residue, and recovery (which merges consecutive same-epoch
    // records into one atomic batch) would replay both as one group.
    *fail.lock().unwrap() = false;
    let err = e.apply_batch(&stream[3]).unwrap_err();
    assert!(matches!(err, EngineError::Storage { .. }), "{err:?}");
    assert_eq!(e.epoch(), 3, "a poisoned engine must not commit");

    // Power loss now: the never-synced residue vanishes and recovery
    // lands exactly on the last acknowledged epoch.
    let r = recover(mem.crashed());
    assert_eq!(r.epoch(), 3);
    assert_eq!(digest(&r, &q), digest(&serial_at(&b, SEED, &stream, 3), &q));

    // If the residue *does* reach disk (here: the shutdown flush), it
    // replays as the one clean group it is — recovery runs ahead of the
    // failure report, but never diverges and never errors.
    drop(e);
    let r = recover(mem.clone());
    assert_eq!(r.epoch(), 4);
    assert_eq!(digest(&r, &q), digest(&serial_at(&b, SEED, &stream, 4), &q));
}

#[test]
fn writers_progress_while_a_checkpoint_is_stalled() {
    let b = building();
    let stream = batches(&b, SEED, EPOCHS, 24);
    let q = queries(&b);
    let mem = MemBackend::new();
    let gated = GatedBackend::new(mem.clone());
    let mut e = IndoorEngine::create_with(
        Arc::clone(&gated) as Arc<dyn StorageBackend>,
        b.space.clone(),
        population(&b, SEED),
        EngineConfig::default(),
        DurabilityOptions {
            checkpoint_every: 1, // every commit wants a background checkpoint
            ..DurabilityOptions::default()
        },
    )
    .unwrap();

    // Stall the checkpointer inside the backend, then keep committing:
    // the write path must not wait for it (the checkpoint encodes a
    // pinned immutable version, not the live one).
    gated.block_checkpoints();
    for batch in &stream {
        e.apply_batch(batch).unwrap();
    }
    assert_eq!(
        e.epoch(),
        EPOCHS as u64,
        "commits ran ahead of the stalled checkpoint"
    );
    assert_eq!(
        e.last_checkpoint_epoch(),
        Some(0),
        "no checkpoint can land while the gate is closed"
    );

    gated.release_checkpoints();
    while e.last_checkpoint_epoch() == Some(0) {
        std::thread::yield_now();
    }
    drop(e);
    let r = recover(mem.crashed());
    assert_eq!(r.epoch(), EPOCHS as u64);
    assert!(r.last_checkpoint_epoch().unwrap() >= 1);
    assert_eq!(
        digest(&r, &q),
        digest(&serial_at(&b, SEED, &stream, EPOCHS), &q)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The whole contract, randomized: any seeded mixed stream, either
    /// strict sync policy, any mid-stream checkpoint position, any crash
    /// point — recovery is bit-identical to serial replay of the prefix.
    #[test]
    fn randomized_streams_recover_bit_identical(
        seed in 1u64..500,
        always in any::<bool>(),
        ckpt_after in 0usize..=4,
        crash_after in 1usize..=6,
    ) {
        let b = building();
        let stream = batches(&b, seed, 6, 16);
        let q = queries(&b);
        let backend = MemBackend::new();
        let options = DurabilityOptions {
            sync: if always { SyncPolicy::Always } else { SyncPolicy::Group },
            ..DurabilityOptions::default()
        };
        let mut e = durable(&backend, &b, seed, options);
        for (k, batch) in stream[..crash_after].iter().enumerate() {
            e.apply_batch(batch).unwrap();
            if k + 1 == ckpt_after {
                e.checkpoint().unwrap();
            }
        }
        let r = recover(backend.crashed());
        prop_assert_eq!(r.epoch(), crash_after as u64);
        prop_assert_eq!(
            digest(&r, &q),
            digest(&serial_at(&b, seed, &stream, crash_after), &q)
        );
    }
}
