//! Engine-level entry points for [`RangeMonitor`] — a snapshot-based
//! refresh plus the delta-driven [`MonitorExt::absorb`].
//!
//! `RangeMonitor` lives in `idq-query` beneath the engine, so its raw
//! methods take the `(space, index, store)` triple. The [`MonitorExt`]
//! extension trait closes that gap for engine users: both methods read
//! the layers out of an owned [`Snapshot`], and `absorb` consumes the
//! [`UpdateReport`] a committed [`crate::IndoorEngine::apply_batch`]
//! returns — the monitor re-evaluates exactly the objects the batch's net
//! delta names (falling back to one full refresh when the topology
//! changed), so the caller never feeds objects one by one.
//!
//! For a monitor that is *fed automatically* on every commit — without
//! the caller routing reports — see [`crate::IndoorService::subscribe`],
//! which wraps a `RangeMonitor` in a [`crate::Subscription`].

use crate::error::EngineError;
use crate::snapshot::Snapshot;
use crate::update::UpdateReport;
use idq_objects::ObjectId;
use idq_query::{MonitorChange, RangeMonitor};

/// Snapshot- and report-driven entry points for [`RangeMonitor`].
pub trait MonitorExt {
    /// Full re-evaluation through the indexed pipeline on a snapshot
    /// (see [`RangeMonitor::refresh`]). Returns the objects inside.
    fn refresh_on(&mut self, snapshot: &Snapshot) -> Result<Vec<ObjectId>, EngineError>;

    /// Absorbs a committed batch: removals leave the result set, inserted
    /// and moved objects are re-evaluated, and a topology change triggers
    /// one full refresh. Returns every membership change, ascending by id.
    fn absorb(
        &mut self,
        report: &UpdateReport,
        snapshot: &Snapshot,
    ) -> Result<Vec<(ObjectId, MonitorChange)>, EngineError>;
}

impl MonitorExt for RangeMonitor {
    fn refresh_on(&mut self, snapshot: &Snapshot) -> Result<Vec<ObjectId>, EngineError> {
        Ok(self.refresh(snapshot.space(), snapshot.index(), snapshot.store())?)
    }

    fn absorb(
        &mut self,
        report: &UpdateReport,
        snapshot: &Snapshot,
    ) -> Result<Vec<(ObjectId, MonitorChange)>, EngineError> {
        let updated = report.delta.updated();
        Ok(self.absorb_delta(
            &updated,
            &report.delta.removed,
            report.delta.topology_changed,
            snapshot.space(),
            snapshot.index(),
            snapshot.store(),
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{insert_at, range, three_rooms};
    use crate::update::Update;
    use crate::{EngineConfig, IndoorEngine};
    use idq_geom::Point2;
    use idq_model::IndoorPoint;
    use idq_query::QueryOptions;

    #[test]
    fn absorb_tracks_a_batch_without_destructuring() {
        let mut e = IndoorEngine::new(three_rooms(), EngineConfig::default()).unwrap();
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let mut mon = RangeMonitor::new(q, 15.0, QueryOptions::default()).unwrap();
        mon.refresh_on(&e.snapshot()).unwrap();
        assert!(mon.current().is_empty());

        let report = e
            .apply_batch(&[
                Update::InsertObjectAt {
                    center: Point2::new(12.0, 5.0),
                    floor: 0,
                    radius: 1.0,
                    instances: 4,
                    seed: 1,
                },
                Update::InsertObjectAt {
                    center: Point2::new(28.0, 5.0),
                    floor: 0,
                    radius: 1.0,
                    instances: 4,
                    seed: 2,
                },
            ])
            .unwrap();
        let changes = mon.absorb(&report, &e.snapshot()).unwrap();
        assert_eq!(changes.len(), 1, "only the near object entered");
        let inside = mon.current();
        // The absorbed set matches a from-scratch evaluation.
        let fresh: Vec<_> = range(&e, q, 15.0)
            .results
            .iter()
            .map(|h| h.object)
            .collect();
        assert_eq!(inside, fresh);
    }

    #[test]
    fn absorb_falls_back_to_refresh_on_topology_change() {
        let mut e = IndoorEngine::new(three_rooms(), EngineConfig::default()).unwrap();
        let id = insert_at(&mut e, Point2::new(15.0, 5.0), 1.0, 4, 1);
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let mut mon = RangeMonitor::new(q, 20.0, QueryOptions::default()).unwrap();
        mon.refresh_on(&e.snapshot()).unwrap();
        assert!(mon.contains(id));
        let door = e.space().doors().next().unwrap().id;
        let report = e.apply_batch(&[Update::CloseDoor(door)]).unwrap();
        assert!(report.delta.topology_changed);
        let changes = mon.absorb(&report, &e.snapshot()).unwrap();
        assert_eq!(changes, vec![(id, MonitorChange::Left)]);
        assert!(mon.current().is_empty());
    }
}
