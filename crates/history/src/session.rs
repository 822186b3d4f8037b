//! [`HistorySession`] — a consistent read view over the retained window,
//! and the historical query family evaluated against it.
//!
//! A session snapshots the ring once: later commits and evictions do not
//! move its window, so a multi-query analysis sees one consistent
//! history. Epoch reconstruction replays forward from the nearest
//! keyframe at or before the target, applying delta records through the
//! same store/index maintenance entry points the live engine uses —
//! which is what makes reconstructed snapshots **bit-identical**
//! (checkpoint-byte equal) to the versions the engine once published.

use crate::error::HistoryError;
use crate::index3d::SegmentStore;
use crate::ring::{DeltaRecord, EpochRecord, Payload, Ring};
use idq_core::{EngineState, Snapshot};
use idq_geom::{IdMap, Point2, Rect2};
use idq_index::CompositeIndex;
use idq_model::{Floor, IndoorPoint, IndoorSpace, PartitionId};
use idq_objects::{ObjectId, ObjectStore};
use idq_query::{KnnResult, Query, QueryOptions, RangeMonitor};
use std::sync::Arc;

/// One leg of a historical trajectory: the object rested at `position`
/// over the **inclusive** epoch interval `[from_epoch, to_epoch]`,
/// clamped to the query window.
#[derive(Clone, Debug, PartialEq)]
pub struct TrajectorySpan {
    /// Floor rested on.
    pub floor: Floor,
    /// Partition of the resting position (`None` when the position did
    /// not resolve to one).
    pub partition: Option<PartitionId>,
    /// Uncertainty-region centre while resting.
    pub position: Point2,
    /// First epoch of the span (inclusive, ≥ query `from`).
    pub from_epoch: u64,
    /// Last epoch of the span (inclusive, ≤ query `to`).
    pub to_epoch: u64,
    /// Wall-clock stamp of the commit that started the leg (ms since the
    /// Unix epoch; 0 if the clock was unreadable at commit time).
    pub(crate) entered_wall_ms: u64,
}

/// One co-mover found by [`HistoryQuery::Together`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Companion {
    /// The other object.
    pub object: ObjectId,
    /// Epochs the two objects spent in the same partition within the
    /// query window.
    pub shared_epochs: u64,
}

/// The historical query family (MOIST-style co-movement included).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum HistoryQuery {
    /// Which objects were inside range `r` of `q` at **any** epoch of
    /// `[from, to]` (union of per-epoch `iRQ` answers).
    RangeDuring {
        /// The query point.
        q: IndoorPoint,
        /// The range radius, metres.
        r: f64,
        /// Window start epoch (inclusive).
        from: u64,
        /// Window end epoch (inclusive).
        to: u64,
    },
    /// Where object `object` was over `[from, to]`.
    Trajectory {
        /// The object to trace.
        object: ObjectId,
        /// Window start epoch (inclusive).
        from: u64,
        /// Window end epoch (inclusive).
        to: u64,
    },
    /// The `k` nearest objects to `q` as of epoch `epoch`.
    KnnAt {
        /// The query point.
        q: IndoorPoint,
        /// How many neighbours.
        k: usize,
        /// The epoch to reconstruct.
        epoch: u64,
    },
    /// Objects that moved together with `object`: shared at least
    /// `min_shared` epochs of partition co-residence within `[from, to]`.
    Together {
        /// The reference object.
        object: ObjectId,
        /// Window start epoch (inclusive).
        from: u64,
        /// Window end epoch (inclusive).
        to: u64,
        /// Minimum shared epochs to qualify.
        min_shared: u64,
    },
}

/// The outcome of one [`HistoryQuery`], matching its variant.
#[derive(Clone, Debug)]
pub enum HistoryOutcome {
    /// [`HistoryQuery::RangeDuring`]: union of members, ascending.
    Members(Vec<ObjectId>),
    /// [`HistoryQuery::Trajectory`]: spans in time order.
    Trajectory(Vec<TrajectorySpan>),
    /// [`HistoryQuery::KnnAt`]: the reconstructed-epoch kNN answer.
    Knn(KnnResult),
    /// [`HistoryQuery::Together`]: companions, most-shared first.
    Companions(Vec<Companion>),
}

/// A consistent historical read view: the retained records and the
/// presence segments (open tracks closed at `newest + 1`), frozen at
/// session-open time.
#[derive(Debug)]
pub struct HistorySession {
    records: Vec<EpochRecord>,
    oldest: u64,
    newest: u64,
    segments: SegmentStore,
}

/// The mutable layers of a version being replayed forward from a
/// keyframe, maintained through the same entry points the live write
/// path uses.
struct ReplayState {
    space: Arc<IndoorSpace>,
    store: ObjectStore,
    index: CompositeIndex,
    /// The keyframe's query options: the engine's configured ones, which
    /// every reconstructed version and replayed monitor uses.
    options: QueryOptions,
    epoch: u64,
}

impl ReplayState {
    fn from_keyframe(snapshot: &Snapshot) -> Self {
        let state = snapshot.state();
        ReplayState {
            space: state.space_arc(),
            store: state.store().clone(),
            // The index clone shares the keyframe's Arc-owned geometry
            // *and* its shared distance cache: delta records carry no
            // topology events, so rows cached by earlier replays (or by
            // the live engine against the same geometry) stay valid and
            // serve every historical query over this keyframe's span.
            index: state.index().clone(),
            options: state.options(),
            epoch: state.epoch(),
        }
    }

    /// Applies one delta record, advancing to `epoch`.
    fn apply(&mut self, delta: &DeltaRecord, epoch: u64) -> Result<(), HistoryError> {
        for obj in &delta.upserts {
            let obj = (**obj).clone();
            if self.store.contains(obj.id) {
                self.index.update_object(&self.space, &obj)?;
                self.store.replace_discarding(obj)?;
            } else {
                self.index.insert_object(&self.space, &obj)?;
                self.store.insert(obj)?;
            }
        }
        for &id in &delta.removed {
            self.index.remove_object(id)?;
            self.store.discard(id)?;
        }
        self.store.restore_id_watermark(delta.watermark);
        self.epoch = epoch;
        Ok(())
    }

    /// Freezes into a pinned snapshot, checkpoint-byte identical to the
    /// version the engine published at this epoch.
    fn into_snapshot(self) -> Snapshot {
        Snapshot::from_state(Arc::new(EngineState::from_parts_at(
            self.space,
            Arc::new(self.store),
            Arc::new(self.index),
            self.options,
            self.epoch,
        )))
    }
}

impl HistorySession {
    pub(crate) fn from_ring(ring: &Ring) -> Self {
        let records: Vec<EpochRecord> = ring.records().iter().cloned().collect();
        let oldest = ring.oldest().unwrap_or(0);
        let newest = ring.newest().unwrap_or(0);
        let mut segments = ring.segments.clone();
        for seg in ring.materialized_open_tracks(newest + 1) {
            segments.push(seg);
        }
        HistorySession {
            records,
            oldest,
            newest,
            segments,
        }
    }

    /// Oldest reconstructable epoch of this session.
    pub fn oldest(&self) -> u64 {
        self.oldest
    }

    /// Newest recorded epoch of this session.
    pub fn newest(&self) -> u64 {
        self.newest
    }

    /// Validates an inclusive epoch window against the session's
    /// retained range: inverted windows, windows reaching past the
    /// newest absorbed epoch and windows touching evicted epochs all
    /// fail typed — never answered partially.
    fn check_window(&self, from: u64, to: u64) -> Result<(), HistoryError> {
        if from > to {
            return Err(HistoryError::EmptyWindow { from, to });
        }
        if to > self.newest {
            return Err(HistoryError::FutureEpoch {
                requested: to,
                newest: self.newest,
            });
        }
        if from < self.oldest {
            return Err(HistoryError::Evicted {
                requested: from,
                oldest_retained: self.oldest,
            });
        }
        Ok(())
    }

    fn record_at(&self, epoch: u64) -> &EpochRecord {
        let rec = &self.records[(epoch - self.oldest) as usize];
        debug_assert_eq!(rec.epoch, epoch, "ring records are epoch-dense");
        rec
    }

    /// Replays to `epoch` from the nearest keyframe at or before it.
    fn replay_to(&self, epoch: u64) -> Result<ReplayState, HistoryError> {
        let ti = (epoch - self.oldest) as usize;
        let ki = (0..=ti)
            .rev()
            .find(|&i| matches!(self.records[i].payload, Payload::Keyframe { .. }))
            .expect("the ring always starts at a keyframe");
        let Payload::Keyframe { snapshot } = &self.records[ki].payload else {
            unreachable!()
        };
        let mut state = ReplayState::from_keyframe(snapshot);
        for rec in &self.records[ki + 1..=ti] {
            let Payload::Delta(delta) = &rec.payload else {
                unreachable!("no keyframe between a keyframe and its nearest successor")
            };
            state.apply(delta, rec.epoch)?;
        }
        Ok(state)
    }

    /// Reconstructs the engine's published version at `epoch` as a
    /// pinned snapshot — checkpoint-byte identical to the live one
    /// (`Snapshot::encode_checkpoint` equality is the tested contract).
    pub fn reconstruct(&self, epoch: u64) -> Result<Snapshot, HistoryError> {
        self.check_window(epoch, epoch)?;
        if let Payload::Keyframe { snapshot } = &self.record_at(epoch).payload {
            return Ok(snapshot.clone());
        }
        Ok(self.replay_to(epoch)?.into_snapshot())
    }

    /// Per-epoch `iRQ(q, r)` membership over `[from, to]`: one
    /// `(epoch, members)` pair per epoch, members ascending. Evaluated
    /// with one standing monitor walked across the delta stream — not
    /// `to - from` full reconstructions — after a segment-scan prefilter
    /// that answers windows where nothing rested within the `q ± r` rect
    /// without replaying at all.
    pub fn range_membership(
        &self,
        q: IndoorPoint,
        r: f64,
        from: u64,
        to: u64,
    ) -> Result<Vec<(u64, Vec<ObjectId>)>, HistoryError> {
        self.check_window(from, to)?;
        let rect = Rect2::from_bounds(q.point.x - r, q.point.y - r, q.point.x + r, q.point.y + r);
        if !self.segments.any_has(&rect, from, to) {
            return Ok((from..=to).map(|e| (e, Vec::new())).collect());
        }

        let mut state = self.replay_to(from)?;
        let mut monitor = RangeMonitor::new(q, r, state.options)?;
        let mut members = monitor.refresh(&state.space, &state.index, &state.store)?;
        members.sort_unstable();
        let mut out = Vec::with_capacity((to - from + 1) as usize);
        out.push((from, members));
        for epoch in from + 1..=to {
            let rec = self.record_at(epoch);
            let mut members = match &rec.payload {
                Payload::Keyframe { snapshot } => {
                    // Swap the layers wholesale and re-query on them.
                    state = ReplayState::from_keyframe(snapshot);
                    monitor.refresh(&state.space, &state.index, &state.store)?
                }
                Payload::Delta(delta) => {
                    let updated: Vec<ObjectId> = delta.upserts.iter().map(|o| o.id).collect();
                    state.apply(delta, rec.epoch)?;
                    monitor.absorb_delta(
                        &updated,
                        &delta.removed,
                        false,
                        &state.space,
                        &state.index,
                        &state.store,
                    )?;
                    monitor.current()
                }
            };
            members.sort_unstable();
            out.push((epoch, members));
        }
        Ok(out)
    }

    /// Which objects crossed range `r` of `q` during `[from, to]` —
    /// the union of per-epoch range answers, ascending.
    pub fn range_during(
        &self,
        q: IndoorPoint,
        r: f64,
        from: u64,
        to: u64,
    ) -> Result<Vec<ObjectId>, HistoryError> {
        let mut all: Vec<ObjectId> = self
            .range_membership(q, r, from, to)?
            .into_iter()
            .flat_map(|(_, members)| members)
            .collect();
        all.sort_unstable();
        all.dedup();
        Ok(all)
    }

    /// The trajectory of `object` over `[from, to]`: its resting spans
    /// in time order, clamped to the window. An object absent (not yet
    /// inserted, or removed) over the whole window yields no spans.
    pub fn trajectory(
        &self,
        object: ObjectId,
        from: u64,
        to: u64,
    ) -> Result<Vec<TrajectorySpan>, HistoryError> {
        self.check_window(from, to)?;
        let mut spans: Vec<TrajectorySpan> = self
            .segments
            .of_object(object, from, to)
            .into_iter()
            .map(|s| TrajectorySpan {
                floor: s.floor,
                partition: s.partition,
                position: s.position,
                from_epoch: s.from_epoch.max(from),
                to_epoch: (s.to_epoch - 1).min(to),
                entered_wall_ms: s.from_wall_ms,
            })
            .collect();
        spans.sort_by_key(|s| s.from_epoch);
        Ok(spans)
    }

    /// Objects that moved together with `object` over `[from, to]`:
    /// every other object sharing at least `min_shared` epochs of
    /// partition co-residence, most-shared first (ties by id). Exact
    /// over the recorded partition sequences — evaluated through the
    /// per-partition segment table, not spatial overlap, so co-residents
    /// far apart inside one large partition still count.
    pub fn together(
        &self,
        object: ObjectId,
        from: u64,
        to: u64,
        min_shared: u64,
    ) -> Result<Vec<Companion>, HistoryError> {
        self.check_window(from, to)?;
        let mut shared: IdMap<ObjectId, u64> = IdMap::default();
        for span in self.segments.of_object(object, from, to) {
            let Some(partition) = span.partition else {
                continue;
            };
            let lo = span.from_epoch.max(from);
            let hi = (span.to_epoch - 1).min(to);
            for other in self.segments.in_partition(partition, lo, hi) {
                if other.object == object {
                    continue;
                }
                let o_lo = other.from_epoch.max(lo);
                let o_hi = (other.to_epoch - 1).min(hi);
                if o_lo <= o_hi {
                    *shared.entry(other.object).or_default() += o_hi - o_lo + 1;
                }
            }
        }
        let mut out: Vec<Companion> = shared
            .into_iter()
            .filter(|&(_, n)| n >= min_shared)
            .map(|(object, shared_epochs)| Companion {
                object,
                shared_epochs,
            })
            .collect();
        out.sort_by(|a, b| {
            b.shared_epochs
                .cmp(&a.shared_epochs)
                .then(a.object.cmp(&b.object))
        });
        Ok(out)
    }

    /// `ikNNQ(q, k)` as of epoch `epoch`, against the reconstructed
    /// version — the same answer a live snapshot of that version gave.
    pub fn knn_at(&self, q: IndoorPoint, k: usize, epoch: u64) -> Result<KnnResult, HistoryError> {
        let snapshot = self.reconstruct(epoch)?;
        let outcome = snapshot.execute(&Query::Knn { q, k })?;
        Ok(outcome
            .as_knn()
            .expect("a Knn query yields a Knn outcome")
            .clone())
    }

    /// Evaluates one query of the family.
    pub fn execute(&self, query: &HistoryQuery) -> Result<HistoryOutcome, HistoryError> {
        match *query {
            HistoryQuery::RangeDuring { q, r, from, to } => self
                .range_during(q, r, from, to)
                .map(HistoryOutcome::Members),
            HistoryQuery::Trajectory { object, from, to } => self
                .trajectory(object, from, to)
                .map(HistoryOutcome::Trajectory),
            HistoryQuery::KnnAt { q, k, epoch } => {
                self.knn_at(q, k, epoch).map(HistoryOutcome::Knn)
            }
            HistoryQuery::Together {
                object,
                from,
                to,
                min_shared,
            } => self
                .together(object, from, to, min_shared)
                .map(HistoryOutcome::Companions),
        }
    }
}
