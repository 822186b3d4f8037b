//! Operation drivers: the timed loops the workloads are assembled from.
//!
//! Every driver records end-to-end samples into a [`Sink`] whether or
//! not the pass is traced. On a traced pass each call into a layer also
//! opens a span, and the layer's public receipt (`QueryStats`,
//! `UpdateStats`) is folded into the sink's per-layer keys.

use crate::metrics::Sink;
use crate::pacer::{Clock, Pacer};
use crate::streams::{Case, Toggles};
use crate::trace;
use crate::world::Stack;
use idq_core::{EngineError, Update};
use idq_history::HistorySession;
use idq_query::{Outcome, Query};
use std::time::{Duration, Instant};

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Loop condition of every timed loop: `true` the first time whatever
/// the clock says, then while time is left. A slice, however short, thus
/// issues at least one operation and no rate or sample set is empty.
fn more(first: &mut bool, time_left: bool) -> bool {
    std::mem::take(first) || time_left
}

/// Radius and k of a history case's `RangeDuring` and `KnnAt`.
pub const CASE_RADIUS: f64 = 30.0;
pub const CASE_K: usize = 10;

/// Single-issue queries, one client, closed loop: `stream(i)` for
/// `i = *next..` until `until`. Records `irq`/`knn` latency samples.
pub fn single_queries(
    exec: impl Fn(&Query) -> Result<Outcome, EngineError>,
    stream: impl Fn(usize) -> Query,
    next: &mut usize,
    until: Instant,
    sink: &mut Sink,
) {
    let mut opening = true;
    while more(&mut opening, Instant::now() < until) {
        let query = stream(*next);
        trace::set_request(*next as u64);
        *next += 1;
        let t = Instant::now();
        let span = trace::span("query.execute");
        let outcome = exec(&query);
        let elapsed = ms(t);
        let span = span.finish();
        match outcome {
            Ok(outcome) => {
                sink.attempt(true);
                let kind = match query {
                    Query::Range { .. } => "irq",
                    _ => "knn",
                };
                sink.sample(kind, elapsed);
                if trace::enabled() {
                    query_receipt(sink, &outcome, &span);
                }
            }
            Err(e) => sink.fail(&format!("{query:?}: {e}")),
        }
    }
}

/// Folds one query's `QueryStats` into the per-layer keys and lays its
/// four phases under the `query.execute` span.
fn query_receipt(sink: &mut Sink, outcome: &Outcome, span: &trace::Closed) {
    let s = outcome.stats();
    let (results, phases) = match outcome {
        Outcome::Range(r) => (
            r.results.len(),
            [
                "irq.filtering",
                "irq.subgraph",
                "irq.pruning",
                "irq.refinement",
            ],
        ),
        Outcome::Knn(r) => (
            r.results.len(),
            [
                "knn.filtering",
                "knn.subgraph",
                "knn.pruning",
                "knn.refinement",
            ],
        ),
        _ => return,
    };
    let times = [s.filtering_ms, s.subgraph_ms, s.pruning_ms, s.refinement_ms];
    span.lay(&[
        (phases[0], times[0]),
        (phases[1], times[1]),
        (phases[2], times[2]),
        (phases[3], times[3]),
    ]);
    for (key, value) in phases.into_iter().zip(times) {
        sink.add(key, value);
    }
    sink.add("receipt.nodes", s.nodes_visited as f64);
    sink.add("receipt.entries", s.entries_checked as f64);
    sink.add("receipt.candidates", s.candidates_after_filter as f64);
    sink.add("receipt.results", results as f64);
    sink.add("receipt.refined", s.refined as f64);
    sink.add(
        "receipt.decided",
        (s.accepted_by_bounds + s.pruned_by_bounds) as f64,
    );
    sink.add("receipt.fallbacks", s.full_graph_fallbacks as f64);
    sink.add("receipt.cache_lookups", s.shared_cache_lookups as f64);
    sink.add("receipt.cache_hits", s.shared_cache_hits as f64);
    sink.add("receipt.cache_evictions", s.shared_cache_evictions as f64);
}

/// `execute_batch` over groups sharing a query point, closed loop.
/// Records one `batch` latency sample per group.
pub fn batches(
    exec: impl Fn(&[Query]) -> Result<Vec<Outcome>, EngineError>,
    group: impl Fn(usize) -> [Query; 6],
    next: &mut usize,
    until: Instant,
    sink: &mut Sink,
) {
    let mut opening = true;
    while more(&mut opening, Instant::now() < until) {
        let g = group(*next);
        trace::set_request(*next as u64);
        *next += 1;
        let t = Instant::now();
        let outcomes = {
            let _span = trace::span("query.execute_batch");
            exec(&g)
        };
        let elapsed = ms(t);
        match outcomes {
            Ok(outcomes) => {
                sink.attempt(outcomes.len() == g.len());
                sink.sample("batch", elapsed);
                if trace::enabled() {
                    sink.add_over("batch.ms", elapsed, 0.0);
                    for o in &outcomes {
                        let s = o.stats();
                        sink.add("batch.dijkstras", s.dijkstras_run as f64);
                        sink.add("batch.queries", 1.0);
                        sink.add("batch.subregion_hits", s.subregion_cache_hits as f64);
                        sink.add(
                            "batch.subregion_lookups",
                            (s.subregion_cache_hits + s.subregions_computed) as f64,
                        );
                    }
                }
            }
            Err(e) => sink.fail(&format!("batch at {:?}: {e}", g[0].query_point())),
        }
    }
}

/// One `apply_batch` call: counts the attempt and, traced, folds the
/// `UpdateStats` receipt. Returns the call's latency in ms, `None` when
/// the commit failed.
fn commit(stack: &Stack, updates: &[Update], span: &'static str, sink: &mut Sink) -> Option<f64> {
    let t = Instant::now();
    let report = {
        let _span = trace::span(span);
        stack.writer.apply_batch(updates)
    };
    let elapsed = ms(t);
    match report {
        Ok(report) => {
            sink.attempt(true);
            if trace::enabled() {
                sink.add("receipt.shards_touched", report.stats.shards_touched as f64);
                sink.add("receipt.group_batches", report.stats.group_batches as f64);
                sink.add("storage.commits", 1.0);
                sink.add("storage.updates", updates.len() as f64);
            }
            Some(elapsed)
        }
        Err(e) => {
            sink.fail(&format!("commit of {} updates: {e}", updates.len()));
            None
        }
    }
}

/// Waits until the commit's notifications are observable: dispatch has
/// routed it and the polled subscriptions have drained their mailboxes.
fn await_notifications(stack: &mut Stack, span: &'static str, sink: &mut Sink) {
    {
        let _span = trace::span(span);
        stack.service.quiesce();
    }
    let _span = trace::span("dispatch.poll");
    for sub in stack.polled() {
        if let Err(e) = sub.poll() {
            sink.fail(&format!("poll: {e}"));
        }
    }
}

/// One writer, closed loop: commit, wait for the notifications, repeat
/// until `until`. Records `commit` and (with a fleet) `notify` samples.
/// The `ingest` rate is recorded by [`drain_ingest`], which the caller
/// runs once the window's last commit is in.
pub fn commit_loop(
    stack: &mut Stack,
    mut next_batch: impl FnMut() -> Vec<Update>,
    until: Instant,
    sink: &mut Sink,
) -> usize {
    let mut updates = 0usize;
    let mut request = 0u64;
    let mut opening = true;
    while more(&mut opening, Instant::now() < until) {
        // Generated between operations: the generator is not the system.
        let batch = next_batch();
        trace::set_request(request);
        request += 1;
        let t = Instant::now();
        let Some(elapsed) = commit(stack, &batch, "core.apply_batch", sink) else {
            continue;
        };
        sink.sample("commit", elapsed);
        updates += batch.len();
        if !stack.fleet.is_empty() {
            await_notifications(stack, "dispatch.quiesce", sink);
            sink.sample("notify", ms(t));
        }
    }
    updates
}

/// Ends an ingest window: drains every backlog the commits left behind
/// (WAL flush, dispatch, retention) *inside* the window, then records
/// the `ingest` rate.
pub fn drain_ingest(stack: &Stack, started: Instant, updates: usize, sink: &mut Sink) {
    if stack.dir.is_some() {
        let _span = trace::span("storage.flush_wal");
        if let Err(e) = stack.engine.flush_wal() {
            sink.fail(&format!("flush_wal: {e}"));
        }
    }
    stack.service.quiesce();
    if let Some(recorder) = &stack.recorder {
        let _span = trace::span("history.sync");
        recorder.sync();
    }
    sink.add_over("ingest", started.elapsed().as_secs_f64(), updates as f64);
}

/// One writer, open loop: a wave is due every `period` whether or not
/// the last one finished, and its notify latency runs from its *due*
/// time. Every `toggle_every`-th wave also commits the next topology
/// toggle. Records `notify` and `late` samples.
pub fn paced_waves<C: Clock>(
    stack: &mut Stack,
    pacer: &mut Pacer<C>,
    mut next_wave: impl FnMut() -> Vec<Update>,
    toggles: &mut Toggles,
    until: Duration,
    sink: &mut Sink,
) {
    let mut wave = next_wave();
    let mut request = 0u64;
    let mut opening = true;
    while more(&mut opening, pacer.now() < until) {
        let late = pacer.begin();
        sink.sample("late", late.as_secs_f64() * 1e3);
        trace::set_request(request);
        request += 1;
        // No `commit` sample: paced commits alternate between two costs
        // (about 4 and 8 ms) in equal shares, which no quantile near the
        // middle summarises steadily. The span is in the trace, and the
        // commit is part of the notify latency below.
        let committed = commit(stack, &wave, "core.apply_batch", sink).is_some();
        let toggle = toggles.after_wave();
        let mut stall_span = "dispatch.quiesce";
        if let Some(toggle) = toggle {
            commit(stack, &[toggle], "core.topology_commit", sink);
            stall_span = "dispatch.topology_stall";
        }
        if committed {
            await_notifications(stack, stall_span, sink);
            sink.sample("notify", pacer.since_due().as_secs_f64() * 1e3);
        }
        // The next wave is generated in the slack before it is due.
        wave = next_wave();
    }
}

/// History cases, one client, closed loop. Records `history` samples.
pub fn history_cases(
    session: &HistorySession,
    cases: &[Case],
    next: &mut usize,
    until: Instant,
    sink: &mut Sink,
) {
    let (oldest, newest) = (session.oldest(), session.newest());
    let mut opening = true;
    while more(&mut opening, Instant::now() < until) {
        let case = cases[*next % cases.len()];
        trace::set_request(*next as u64);
        *next += 1;
        let t = Instant::now();
        let _case_span = trace::span("history.case");
        let mut ok = true;
        {
            let t = Instant::now();
            let _span = trace::span("history.trajectory");
            ok &= session.trajectory(case.object, oldest, newest).is_ok();
            if trace::enabled() {
                sink.add("history.trajectory_us", t.elapsed().as_secs_f64() * 1e6);
            }
        }
        {
            let _span = trace::span("history.together");
            ok &= session
                .together(case.object, oldest, newest, crate::streams::CASE_WINDOW)
                .is_ok();
        }
        {
            let _span = trace::span("history.range_during");
            ok &= session
                .range_during(case.q, CASE_RADIUS, case.from, case.to)
                .is_ok();
            if trace::enabled() {
                sink.add_over(
                    "history.range_during_epochs",
                    (case.to - case.from + 1) as f64,
                    0.0,
                );
            }
        }
        {
            let _span = trace::span("history.knn_at");
            ok &= session.knn_at(case.q, CASE_K, case.to).is_ok();
        }
        sink.sample("history", ms(t));
        if ok {
            sink.attempt(true);
        } else {
            sink.fail(&format!("history case {case:?}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::more;

    #[test]
    fn a_timed_loop_issues_one_operation_even_with_no_time_left() {
        let mut opening = true;
        assert!(more(&mut opening, false));
        assert!(!more(&mut opening, false));
        assert!(more(&mut opening, true));
    }
}
