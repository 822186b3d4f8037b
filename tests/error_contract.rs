//! The error-type contract, in one place: every `EngineError` and
//! `HistoryError` variant renders a meaningful, single-line `Display`
//! message, and `source()` exposes an underlying cause exactly where the
//! documentation promises one (storage/recovery failures for the engine,
//! engine failures for history) — so callers can rely on the standard
//! `Error` chain for root-cause reporting.

use indoor_dq::distance::DistanceError;
use indoor_dq::geom::Point2;
use indoor_dq::history::HistoryError;
use indoor_dq::index::IndexError;
use indoor_dq::model::{IndoorPoint, ModelError, PartitionId};
use indoor_dq::objects::{ObjectError, ObjectId};
use indoor_dq::prelude::{EngineError, Query};
use indoor_dq::query::QueryError;
use indoor_dq::storage::StorageError;
use std::error::Error;

/// Display must be non-empty, single-line, and not terminated — it nests
/// into larger messages.
fn well_formed(e: &dyn Error) -> String {
    let msg = e.to_string();
    assert!(!msg.is_empty(), "empty Display");
    assert!(!msg.contains('\n'), "multi-line Display: {msg:?}");
    assert!(
        !msg.ends_with('.') && !msg.ends_with('\n'),
        "terminated Display nests badly: {msg:?}"
    );
    msg
}

fn every_engine_variant() -> Vec<EngineError> {
    let q = IndoorPoint::new(Point2::new(1.0, 2.0), 0);
    vec![
        EngineError::Model(ModelError::UnknownPartition(PartitionId(7))),
        EngineError::Object(ObjectError::EmptyInstances),
        EngineError::Index(IndexError::ObjectNotIndexed(ObjectId(4))),
        EngineError::Index(IndexError::Uncovered(ObjectId(5))),
        EngineError::Distance(DistanceError::QueryOutsideSpace(q)),
        EngineError::Query(QueryError::ZeroK),
        EngineError::UnsupportedSubscription(Query::Distance { q, p: q }),
        EngineError::FloorOutOfSpace {
            floor: 9,
            num_floors: 2,
        },
        EngineError::PartitionOccupied {
            partition: PartitionId(3),
            object: ObjectId(6),
        },
        EngineError::Storage {
            path: "/tmp/idq-wal".into(),
            epoch: 41,
            cause: StorageError::Io {
                op: "append",
                path: "/tmp/idq-wal/log".into(),
                message: "disk full".into(),
            },
        },
        EngineError::Recovery {
            path: "/tmp/idq-wal".into(),
            epoch: 17,
            cause: StorageError::Corrupt {
                path: "/tmp/idq-wal/log".into(),
                offset: 512,
                reason: "crc mismatch".into(),
            },
        },
    ]
}

#[test]
fn engine_error_display_and_source_round_trip() {
    for err in every_engine_variant() {
        let msg = well_formed(&err);
        match &err {
            // The durability variants chain their storage cause...
            EngineError::Storage { path, epoch, cause }
            | EngineError::Recovery { path, epoch, cause } => {
                assert!(msg.contains(path.as_str()), "{msg:?} names the path");
                assert!(msg.contains(&epoch.to_string()), "{msg:?} names the epoch");
                let src = err.source().expect("durability errors chain a cause");
                assert_eq!(src.to_string(), cause.to_string(), "source round-trips");
                assert!(src.source().is_none(), "storage errors are the chain root");
            }
            // ...every other variant renders flat (the layer error's own
            // message IS the engine message, or the context is inline).
            _ => assert!(err.source().is_none(), "unexpected source on {err:?}"),
        }
        // Details survive into the rendered message.
        match &err {
            EngineError::FloorOutOfSpace { floor, .. } => {
                assert!(msg.contains(&floor.to_string()))
            }
            EngineError::PartitionOccupied { partition, object } => {
                assert!(msg.contains(&partition.to_string()));
                assert!(msg.contains(&object.to_string()));
            }
            EngineError::Query(_) => assert!(msg.contains('k')),
            _ => {}
        }
    }
}

fn every_history_variant() -> Vec<HistoryError> {
    vec![
        HistoryError::Evicted {
            requested: 3,
            oldest_retained: 12,
        },
        HistoryError::FutureEpoch {
            requested: 99,
            newest: 42,
        },
        HistoryError::EmptyWindow { from: 8, to: 5 },
        HistoryError::AlreadyAttached,
        HistoryError::Engine(EngineError::Query(QueryError::BadRange(-1.0))),
    ]
}

#[test]
fn history_error_display_and_source_round_trip() {
    for err in every_history_variant() {
        let msg = well_formed(&err);
        match &err {
            HistoryError::Evicted {
                requested,
                oldest_retained,
            } => {
                // The clamp hint must be in the message: callers re-issue
                // with `from = oldest_retained`.
                assert!(msg.contains(&requested.to_string()));
                assert!(msg.contains(&oldest_retained.to_string()));
                assert!(err.source().is_none());
            }
            HistoryError::FutureEpoch { requested, newest } => {
                assert!(msg.contains(&requested.to_string()));
                assert!(msg.contains(&newest.to_string()));
                assert!(err.source().is_none());
            }
            HistoryError::EmptyWindow { from, to } => {
                assert!(msg.contains(&from.to_string()));
                assert!(msg.contains(&to.to_string()));
                assert!(err.source().is_none());
            }
            HistoryError::AlreadyAttached => assert!(err.source().is_none()),
            HistoryError::Engine(inner) => {
                let src = err.source().expect("engine failures chain");
                assert_eq!(src.to_string(), inner.to_string(), "source round-trips");
                assert!(msg.contains(&inner.to_string()), "context wraps the cause");
            }
        }
    }
}

#[test]
fn layer_errors_convert_and_round_trip_through_history() {
    // Every `From` conversion into HistoryError lands in the Engine
    // variant with the original rendered somewhere in the chain.
    let from_query: HistoryError = QueryError::ZeroK.into();
    let from_object: HistoryError = ObjectError::UnknownObject(ObjectId(5)).into();
    let from_index: HistoryError = IndexError::ObjectAlreadyIndexed(ObjectId(6)).into();
    let from_engine: HistoryError = EngineError::FloorOutOfSpace {
        floor: 3,
        num_floors: 1,
    }
    .into();
    for (err, needle) in [
        (&from_query, QueryError::ZeroK.to_string()),
        (
            &from_object,
            ObjectError::UnknownObject(ObjectId(5)).to_string(),
        ),
        (
            &from_index,
            IndexError::ObjectAlreadyIndexed(ObjectId(6)).to_string(),
        ),
        (&from_engine, "floor 3".to_string()),
    ] {
        assert!(matches!(err, HistoryError::Engine(_)), "{err:?}");
        assert!(
            err.to_string().contains(&needle),
            "{err} should contain {needle:?}"
        );
        assert!(err.source().is_some());
    }
}
