//! The metric tables of `BENCHMARK.json` and the [`Sink`] every phase
//! records into.
//!
//! A phase records raw material — latency samples, sums with counts —
//! under short keys; a metric is a [`Source`] over those keys. A workload
//! of a run is [`Measured`] as one sink per timed round plus a pooled
//! sink. An end-to-end metric is the median of its per-round values and is
//! always the focus workload's own: which of its keys is "the operation"
//! and what its throughput counts is the workload's [`Headline`]. A
//! per-layer metric (traced passes) is read from the pooled sink of the
//! focus when the focus exercised that layer, and from the first smoke-size
//! companion that did otherwise (see `README.md`, "The traced pass").

use crate::stats;
use std::collections::BTreeMap;

/// How a metric is derived from a [`Sink`].
#[derive(Clone, Copy, Debug)]
pub enum Source {
    /// Percentile of a latency sample.
    Pct(&'static str, f64),
    /// Sum ÷ count of a key: a per-call or per-object mean.
    Mean(&'static str),
    /// Count ÷ sum of a key recorded as `(seconds, operations)`.
    Rate(&'static str),
    /// Operations per second of one closed-loop client, from its latency
    /// samples (ms) under these keys: samples × operations per sample ÷
    /// the samples' sum. The generator's own time between operations
    /// (under 0.1 % of any operation here) is left out, so the figure is
    /// a function of the samples alone.
    PerSecond(&'static [&'static str], f64),
    /// Sum of one key ÷ sum of another.
    Ratio(&'static str, &'static str),
    /// Plain sum: a count of events, or a value `main` records once
    /// (set-up time, peak RSS, trace overhead).
    Sum(&'static str),
}

/// What an end-to-end metric reads from the focus workload.
#[derive(Clone, Copy, Debug)]
pub enum Headlined {
    /// This percentile of the workload's operation latency.
    Op(f64),
    /// The workload's throughput.
    Throughput,
    /// A value `main` records once per run under this key.
    Recorded(&'static str),
}

/// One end-to-end metric: name, unit, direction, regression bound.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
    pub reads: Headlined,
}

/// Which of a workload's recordings the generic end-to-end metrics
/// report: every workload issues one kind of operation from one
/// closed-loop client.
#[derive(Clone, Copy, Debug)]
pub struct Headline {
    /// Key of the operation's latency samples (ms).
    pub op: &'static str,
    /// What one operation is, for the report.
    pub what: &'static str,
    pub throughput: Source,
    /// What the throughput counts per second.
    pub counts: &'static str,
}

impl Headline {
    pub fn source(&self, reads: Headlined) -> Source {
        match reads {
            Headlined::Op(p) => Pct(self.op, p),
            Headlined::Throughput => self.throughput,
            Headlined::Recorded(key) => Sum(key),
        }
    }
}

/// One per-layer metric (`<layer>.<name>`, layer = crate).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub source: Source,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    reads: Headlined,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        reads,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    source: Source,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
    }
}

use Source::*;

/// The five end-to-end metrics, the same five for every workload: what
/// "the operation" and "throughput" are is the workload's [`Headline`].
/// See README "Noise bounds" for the measurements behind the bounds.
pub const END_TO_END: [EndToEnd; 5] = [
    e2e(
        "setup_s",
        "s",
        "lower",
        0.25,
        Headlined::Recorded("setup_s"),
    ),
    e2e(
        "peak_rss_mb",
        "MiB",
        "lower",
        0.2,
        Headlined::Recorded("peak_rss_mb"),
    ),
    e2e("op_p50_ms", "ms", "lower", 0.25, Headlined::Op(50.0)),
    e2e("op_p90_ms", "ms", "lower", 0.25, Headlined::Op(90.0)),
    e2e("throughput", "1/s", "higher", 0.25, Headlined::Throughput),
];

/// The per-layer metrics of the traced pass.
pub const PER_LAYER: [PerLayer; 64] = [
    // idq-index
    layer("index.filter_ms", "ms", "lower", Mean("index.range_search")),
    layer(
        "index.nodes_per_query",
        "count",
        "lower",
        Mean("receipt.nodes"),
    ),
    layer(
        "index.entries_per_query",
        "count",
        "lower",
        Mean("receipt.entries"),
    ),
    layer(
        "index.candidates_per_result",
        "ratio",
        "lower",
        Ratio("receipt.candidates", "receipt.results"),
    ),
    layer(
        "index.skeleton_bound_us",
        "us",
        "lower",
        Mean("index.skeleton_bound_us"),
    ),
    layer(
        "index.footprint_ms_per_commit",
        "ms",
        "lower",
        Mean("index.unit_footprints_grouped"),
    ),
    layer(
        "index.update_us_per_object",
        "us",
        "lower",
        Mean("index.update_object_us"),
    ),
    layer("index.build_ms", "ms", "lower", Mean("index.build")),
    // idq-distance
    layer(
        "distance.dijkstra_ms",
        "ms",
        "lower",
        Mean("distance.door_distances"),
    ),
    layer(
        "distance.cache_hit_ratio",
        "ratio",
        "higher",
        Ratio("receipt.cache_hits", "receipt.cache_lookups"),
    ),
    layer(
        "distance.cache_evictions",
        "count",
        "lower",
        Sum("receipt.cache_evictions"),
    ),
    layer(
        "distance.cache_mb",
        "MiB",
        "lower",
        Mean("distance.cache_mb"),
    ),
    layer(
        "distance.expected_us_per_object",
        "us",
        "lower",
        Mean("distance.expected_us"),
    ),
    layer(
        "distance.fallbacks_per_query",
        "count",
        "lower",
        Mean("receipt.fallbacks"),
    ),
    // idq-query
    layer(
        "query.irq.filtering_ms",
        "ms",
        "lower",
        Mean("irq.filtering"),
    ),
    layer("query.irq.subgraph_ms", "ms", "lower", Mean("irq.subgraph")),
    layer("query.irq.pruning_ms", "ms", "lower", Mean("irq.pruning")),
    layer(
        "query.irq.refinement_ms",
        "ms",
        "lower",
        Mean("irq.refinement"),
    ),
    layer(
        "query.knn.filtering_ms",
        "ms",
        "lower",
        Mean("knn.filtering"),
    ),
    layer("query.knn.subgraph_ms", "ms", "lower", Mean("knn.subgraph")),
    layer("query.knn.pruning_ms", "ms", "lower", Mean("knn.pruning")),
    layer(
        "query.knn.refinement_ms",
        "ms",
        "lower",
        Mean("knn.refinement"),
    ),
    layer(
        "query.refined_per_query",
        "count",
        "lower",
        Mean("receipt.refined"),
    ),
    layer(
        "query.decided_by_bounds_ratio",
        "ratio",
        "higher",
        Ratio("receipt.decided", "receipt.candidates"),
    ),
    layer(
        "query.batch_dijkstras_per_query",
        "ratio",
        "lower",
        Ratio("batch.dijkstras", "batch.queries"),
    ),
    layer(
        "query.subregion_hit_ratio",
        "ratio",
        "higher",
        Ratio("batch.subregion_hits", "batch.subregion_lookups"),
    ),
    layer(
        "query.batch_ms_per_query",
        "ms",
        "lower",
        Ratio("batch.ms", "batch.queries"),
    ),
    layer(
        "query.monitor_refresh_ms",
        "ms",
        "lower",
        Mean("query.monitor_refresh"),
    ),
    layer(
        "query.monitor_absorb_us_per_object",
        "us",
        "lower",
        Mean("query.monitor_absorb_us"),
    ),
    // idq-objects, idq-model
    layer(
        "objects.sample_us_per_move",
        "us",
        "lower",
        Mean("objects.sample_us"),
    ),
    layer(
        "objects.subregion_us",
        "us",
        "lower",
        Mean("objects.subregion_us"),
    ),
    layer(
        "model.partition_at_us",
        "us",
        "lower",
        Mean("model.partition_at_us"),
    ),
    // idq-core
    layer(
        "core.apply_ms_per_commit",
        "ms",
        "lower",
        Mean("core.bare_apply"),
    ),
    layer(
        "core.shards_touched_per_commit",
        "count",
        "lower",
        Mean("receipt.shards_touched"),
    ),
    layer(
        "core.group_batches_mean",
        "count",
        "higher",
        Mean("receipt.group_batches"),
    ),
    layer(
        "core.topology_commit_ms",
        "ms",
        "lower",
        Mean("core.topology_commit"),
    ),
    layer(
        "core.snapshot_pin_us",
        "us",
        "lower",
        Mean("core.snapshot_pin_us"),
    ),
    // idq-storage
    layer(
        "storage.wal_ms_per_commit",
        "ms",
        "lower",
        Ratio("storage.wal_ms", "storage.commits"),
    ),
    layer(
        "storage.wal_bytes_per_update",
        "B",
        "lower",
        Ratio("storage.wal_bytes", "storage.updates"),
    ),
    layer(
        "storage.appends_per_commit",
        "count",
        "lower",
        Ratio("storage.wal_appends", "storage.commits"),
    ),
    layer(
        "storage.fsyncs_per_commit",
        "count",
        "lower",
        Ratio("storage.wal_fsyncs", "storage.commits"),
    ),
    layer(
        "storage.fsync_ms",
        "ms",
        "lower",
        Ratio("storage.fsync_ms", "storage.wal_fsyncs"),
    ),
    layer(
        "storage.checkpoints",
        "count",
        "higher",
        Sum("storage.checkpoints"),
    ),
    layer(
        "storage.checkpoint_ms",
        "ms",
        "lower",
        Ratio("storage.checkpoint_ms", "storage.checkpoints"),
    ),
    layer(
        "storage.checkpoint_mb",
        "MiB",
        "lower",
        Ratio("storage.checkpoint_mb", "storage.checkpoints"),
    ),
    layer(
        "storage.recovery_ms_per_10k",
        "ms",
        "lower",
        Mean("storage.recovery_ms_per_10k"),
    ),
    // idq-dispatch
    layer(
        "dispatch.register_ms_per_sub",
        "ms",
        "lower",
        Mean("dispatch.register_ms_per_sub"),
    ),
    layer(
        "dispatch.mean_footprint",
        "count",
        "lower",
        Mean("dispatch.mean_footprint"),
    ),
    layer(
        "dispatch.drain_ms_per_commit",
        "ms",
        "lower",
        Mean("dispatch.quiesce"),
    ),
    layer(
        "dispatch.hit_ratio",
        "ratio",
        "lower",
        Ratio("dispatch.deliveries", "dispatch.pairs"),
    ),
    layer(
        "dispatch.deliveries_per_commit",
        "count",
        "lower",
        Ratio("dispatch.deliveries", "dispatch.commits"),
    ),
    layer(
        "dispatch.coalesced",
        "count",
        "lower",
        Sum("dispatch.coalesced"),
    ),
    layer(
        "dispatch.topology_stall_ms",
        "ms",
        "lower",
        Mean("dispatch.topology_stall"),
    ),
    // idq-history
    layer(
        "history.sync_ms_per_commit",
        "ms",
        "lower",
        Mean("history.sync"),
    ),
    layer(
        "history.retention_overhead_ratio",
        "ratio",
        "lower",
        Mean("history.retention_overhead"),
    ),
    layer(
        "history.mb_per_epoch",
        "MiB",
        "lower",
        Mean("history.mb_per_epoch"),
    ),
    layer(
        "history.evicted_epochs",
        "count",
        "lower",
        Mean("history.evicted_epochs"),
    ),
    layer(
        "history.trajectory_us",
        "us",
        "lower",
        Mean("history.trajectory_us"),
    ),
    layer(
        "history.together_ms",
        "ms",
        "lower",
        Mean("history.together"),
    ),
    layer(
        "history.range_during_ms_per_epoch",
        "ms",
        "lower",
        Ratio("history.range_during", "history.range_during_epochs"),
    ),
    layer("history.knn_at_ms", "ms", "lower", Mean("history.knn_at")),
    layer(
        "history.reconstruct_ms",
        "ms",
        "lower",
        Mean("history.reconstruct"),
    ),
    // the harness itself: validity checks, not targets
    layer("harness.late_p99_ms", "ms", "lower", Pct("late", 99.0)),
    layer(
        "harness.trace_overhead_ratio",
        "ratio",
        "lower",
        Sum("harness.trace_overhead"),
    ),
];

/// Raw material recorded by the phases of one run.
#[derive(Clone, Debug, Default)]
pub struct Sink {
    samples: BTreeMap<&'static str, Vec<f64>>,
    sums: BTreeMap<&'static str, (f64, f64)>,
    /// Operations issued plus answers checked.
    pub attempted: u64,
    /// `Err`s returned plus wrong answers.
    pub failed: u64,
}

impl Sink {
    /// Records one latency (or other) sample.
    pub fn sample(&mut self, key: &'static str, value: f64) {
        self.samples.entry(key).or_default().push(value);
    }

    /// Adds `value` to a key's sum, over `count` more units.
    pub fn add_over(&mut self, key: &'static str, value: f64, count: f64) {
        let e = self.sums.entry(key).or_default();
        e.0 += value;
        e.1 += count;
    }

    /// Adds one observation to a key's sum.
    pub fn add(&mut self, key: &'static str, value: f64) {
        self.add_over(key, value, 1.0);
    }

    /// Records a gauge: the latest reading replaces earlier ones.
    pub fn set(&mut self, key: &'static str, value: f64) {
        self.sums.insert(key, (value, 1.0));
    }

    /// Counts one issued operation or checked answer.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Counts a failed operation, logging why.
    pub fn fail(&mut self, what: &str) {
        eprintln!("FAILED: {what}");
        self.attempt(false);
    }

    pub fn count(&self, key: &str) -> usize {
        self.samples.get(key).map_or(0, Vec::len)
    }

    /// Appends everything `other` recorded (a second generator thread's
    /// share of the same window).
    pub fn absorb(&mut self, other: Sink) {
        for (k, v) in other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
        for (k, v) in other.sums {
            let e = self.sums.entry(k).or_default();
            e.0 += v.0;
            e.1 += v.1;
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Evaluates a source; `None` when nothing was recorded for it.
    pub fn eval(&self, source: Source) -> Option<f64> {
        let sum = |k: &str| self.sums.get(k).map(|e| e.0);
        let sorted = |k: &str| {
            self.samples.get(k).filter(|v| !v.is_empty()).map(|v| {
                let mut v = v.clone();
                stats::sort(&mut v);
                v
            })
        };
        match source {
            Pct(k, p) => sorted(k).map(|v| stats::percentile(&v, p)),
            Mean(k) => self.sums.get(k).filter(|e| e.1 > 0.0).map(|e| e.0 / e.1),
            Rate(k) => self.sums.get(k).filter(|e| e.0 > 0.0).map(|e| e.1 / e.0),
            PerSecond(keys, per_sample) => {
                let taken: Vec<&Vec<f64>> =
                    keys.iter().filter_map(|k| self.samples.get(k)).collect();
                let count: usize = taken.iter().map(|v| v.len()).sum();
                let ms: f64 = taken.iter().flat_map(|v| v.iter()).sum();
                (ms > 0.0).then(|| count as f64 * per_sample / (ms / 1e3))
            }
            Ratio(n, d) => match (sum(n), sum(d)) {
                (Some(n), Some(d)) if d > 0.0 => Some(n / d),
                _ => None,
            },
            Sum(k) => sum(k),
        }
    }
}

/// What one workload recorded in a run.
pub struct Measured {
    /// One sink per timed round.
    pub rounds: Vec<Sink>,
    /// Everything: set-up, every round, the probes, the correctness gate.
    pub pooled: Sink,
}

impl Measured {
    /// `pooled` holds what was recorded outside the rounds; the rounds
    /// are added to it.
    pub fn new(rounds: Vec<Sink>, mut pooled: Sink) -> Self {
        for round in &rounds {
            pooled.absorb(round.clone());
        }
        Measured { rounds, pooled }
    }

    /// The metric's value in each round that recorded it.
    pub fn per_round(&self, source: Source) -> Vec<f64> {
        self.rounds.iter().filter_map(|r| r.eval(source)).collect()
    }

    /// An end-to-end metric: computed per round, and the median of the
    /// rounds is taken. What was recorded outside the rounds (set-up
    /// time, memory) is read from the pooled sink.
    pub fn end_to_end(&self, source: Source) -> Option<f64> {
        let per_round = self.per_round(source);
        if per_round.is_empty() {
            self.pooled.eval(source)
        } else {
            Some(stats::median(&per_round))
        }
    }
}

/// A per-layer metric's value for this run: the focus's when the focus
/// recorded it, else that of the first companion that did. The flag says
/// which.
pub fn resolve(focus: &Measured, companions: &[&Measured], source: Source) -> Option<(f64, bool)> {
    let eval = |w: &Measured| w.pooled.eval(source);
    eval(focus)
        .map(|v| (v, true))
        .or_else(|| companions.iter().find_map(|c| eval(c)).map(|v| (v, false)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_evaluate() {
        let mut s = Sink::default();
        for v in [3.0, 1.0, 2.0] {
            s.sample("irq", v);
        }
        s.add_over("ingest", 2.0, 500.0);
        s.sample("batch", 4.0);
        s.add("receipt.nodes", 10.0);
        s.add("receipt.nodes", 30.0);
        s.add_over("n", 6.0, 0.0);
        s.add_over("d", 4.0, 0.0);
        assert_eq!(s.eval(Pct("irq", 50.0)), Some(2.0));
        assert_eq!(s.eval(Rate("ingest")), Some(250.0));
        // 3 + 1 samples in 6 + 4 ms; a batch sample is six queries.
        assert_eq!(s.eval(PerSecond(&["irq", "batch"], 1.0)), Some(400.0));
        assert_eq!(s.eval(PerSecond(&["batch"], 6.0)), Some(1500.0));
        assert_eq!(s.eval(PerSecond(&["knn"], 1.0)), None);
        assert_eq!(s.eval(Mean("receipt.nodes")), Some(20.0));
        assert_eq!(s.eval(Ratio("n", "d")), Some(1.5));
        assert_eq!(s.eval(Sum("n")), Some(6.0));
        assert_eq!(s.eval(Pct("knn", 50.0)), None);
        assert_eq!(s.eval(Mean("n")), None, "a sum over zero units has no mean");
    }

    #[test]
    fn focus_wins_and_companions_fill_in_in_order() {
        let summed = |key: &'static str, value: f64| {
            let mut pooled = Sink::default();
            pooled.add(key, value);
            Measured::new(Vec::new(), pooled)
        };
        let focus = summed("a", 1.0);
        let first = summed("b", 5.0);
        let mut second = summed("b", 7.0);
        second.pooled.add("a", 9.0);
        let rest = [&first, &second];
        assert_eq!(resolve(&focus, &rest, Mean("a")), Some((1.0, true)));
        assert_eq!(resolve(&focus, &rest, Mean("b")), Some((5.0, false)));
        assert_eq!(resolve(&focus, &rest, Mean("c")), None);
    }

    /// Three rounds of three operations; the middle round met a slow
    /// stretch of the host, and a hiccup hit one timing of the last.
    fn three_rounds() -> Vec<Sink> {
        [
            ([1.0, 2.0, 3.0], 1.0),
            ([10.0, 20.0, 30.0], 4.0),
            ([1.5, 2.5, 50.0], 1.5),
        ]
        .into_iter()
        .map(|(values, seconds)| {
            let mut s = Sink::default();
            for v in values {
                s.sample("irq", v);
            }
            s.add_over("ingest", seconds, 3.0);
            s
        })
        .collect()
    }

    #[test]
    fn a_metric_is_the_median_of_its_rounds() {
        let mut outside = Sink::default();
        outside.add("setup_s", 0.25);
        let m = Measured::new(three_rounds(), outside);
        let headline = Headline {
            op: "irq",
            what: "one iRQ",
            throughput: Rate("ingest"),
            counts: "updates",
        };
        let value = |reads| m.end_to_end(headline.source(reads));
        assert_eq!(value(Headlined::Op(50.0)), Some(2.5));
        assert_eq!(value(Headlined::Op(100.0)), Some(30.0));
        assert_eq!(value(Headlined::Throughput), Some(2.0));
        // Recorded outside the rounds: the pooled value.
        assert_eq!(value(Headlined::Recorded("setup_s")), Some(0.25));
        // The pooled sink holds every round's samples.
        assert_eq!(m.pooled.count("irq"), 9);
        assert_eq!(m.pooled.eval(Pct("irq", 50.0)), Some(3.0));
    }

    /// `BENCHMARK.json` is written by hand; this keeps it in step.
    #[test]
    fn benchmark_json_names_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for m in &END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            );
            assert!(json.contains(&entry), "missing or stale: {entry}");
        }
        for m in &PER_LAYER {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            );
            assert!(json.contains(&entry), "missing or stale: {entry}");
        }
        for w in crate::workloads::DRIVEN {
            assert!(
                json.contains(&format!("{{\"name\": \"{w}\", \"why\": ")),
                "workload {w}"
            );
        }
        let names = json.matches("\"name\": ").count();
        assert_eq!(
            names,
            END_TO_END.len() + PER_LAYER.len() + crate::workloads::DRIVEN.len()
        );
    }
}
