//! Per-query statistics: the raw material of the paper's evaluation
//! figures (phase breakdowns for Fig. 12(b)/13(b), pruning ratios for
//! Fig. 14, retrieval counts for Fig. 15(a)).

/// Phase timings and pruning counters of one query execution.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QueryStats {
    /// Phase 1 (filtering) wall time, ms.
    pub filtering_ms: f64,
    /// Phase 2 (subgraph Dijkstra) wall time, ms.
    pub subgraph_ms: f64,
    /// Phase 3 (bound pruning) wall time, ms.
    pub pruning_ms: f64,
    /// Phase 4 (refinement) wall time, ms.
    pub refinement_ms: f64,
    /// Objects in the store at query time (`|O|`).
    pub total_objects: usize,
    /// Candidates surviving the filtering phase (`|Ro|`). For kNN: the
    /// objects whose MBR entry popped in the search — with pruning off,
    /// the objects popped for refinement.
    pub candidates_after_filter: usize,
    /// Candidate partitions (`|Rp|`). For kNN: the partitions the search
    /// popped.
    pub partitions_retrieved: usize,
    /// Objects accepted outright by their upper bound.
    pub accepted_by_bounds: usize,
    /// Objects discarded by their lower bound. For kNN: the candidates
    /// that were not refined (`candidates_after_filter − refined`).
    pub pruned_by_bounds: usize,
    /// Objects whose exact expected distance was computed.
    pub refined: usize,
    /// Refinements that needed the full-graph Dijkstra fallback.
    pub full_graph_fallbacks: usize,
    /// indR-tree nodes visited during filtering. Always 0 for kNN, whose
    /// search follows doors and descends no tree.
    pub nodes_visited: usize,
    /// Leaf entries checked during filtering. For kNN: the distinct
    /// objects the search saw.
    pub entries_checked: usize,
    /// Subgraph-phase context assemblies charged to this query: the build
    /// (1 for a single-issue query; in a batch group only the query that
    /// builds the shared context pays for it) plus, for kNN, every growth
    /// its search made of a context it built. A batch member that reuses
    /// its group's context is charged for neither.
    pub dijkstras_run: usize,
    /// 1 when this query reused a shared evaluation context built by an
    /// earlier query of its batch group, 0 otherwise.
    pub context_reuses: usize,
    /// Decompositions this query ran through the point-location kernel:
    /// memo fills (by pruning or refinement), reads on a layout
    /// other than the memo's, and refinements of objects too fragmented
    /// for the memo's instance slots.
    pub subregions_computed: usize,
    /// Decompositions this query reused: summary memo hits, refinement
    /// decompositions rebuilt from the memo's instance slots, and
    /// refinement-map hits (an object refined twice, or already refined by
    /// an earlier query of the batch group).
    pub subregion_cache_hits: usize,
    /// Shared-distance-cache row lookups this query issued (context
    /// build + lazy full-graph fallbacks). Always
    /// `shared_cache_hits + shared_cache_misses`.
    pub shared_cache_lookups: usize,
    /// Lookups served by a resident row of the shared distance cache.
    pub shared_cache_hits: usize,
    /// Lookups that expanded (and cached) a fresh row.
    pub shared_cache_misses: usize,
    /// Rows the shared cache's byte budget evicted during this query.
    pub shared_cache_evictions: usize,
    /// Approximate resident bytes of the shared distance cache after the
    /// query — a gauge, not a per-query delta (0 when the cache is off).
    pub shared_cache_bytes: usize,
}

impl QueryStats {
    /// Total query time across the four phases, ms.
    pub fn total_ms(&self) -> f64 {
        self.filtering_ms + self.subgraph_ms + self.pruning_ms + self.refinement_ms
    }

    /// Fraction of all objects disqualified by the *filtering* phase
    /// (Fig. 14(a)/(c), series "Filtering").
    pub fn filtering_ratio(&self) -> f64 {
        if self.total_objects == 0 {
            return 0.0;
        }
        1.0 - self.candidates_after_filter as f64 / self.total_objects as f64
    }

    /// Fraction of all objects disqualified after the *pruning* phase:
    /// everything except those needing refinement or accepted as results
    /// (Fig. 14(a)/(c), series "Pruning").
    pub fn pruning_ratio(&self) -> f64 {
        if self.total_objects == 0 {
            return 0.0;
        }
        1.0 - self.refined as f64 / self.total_objects as f64
    }

    /// Accumulates another run (for averaging over a query workload).
    pub fn accumulate(&mut self, other: &QueryStats) {
        self.filtering_ms += other.filtering_ms;
        self.subgraph_ms += other.subgraph_ms;
        self.pruning_ms += other.pruning_ms;
        self.refinement_ms += other.refinement_ms;
        self.total_objects += other.total_objects;
        self.candidates_after_filter += other.candidates_after_filter;
        self.partitions_retrieved += other.partitions_retrieved;
        self.accepted_by_bounds += other.accepted_by_bounds;
        self.pruned_by_bounds += other.pruned_by_bounds;
        self.refined += other.refined;
        self.full_graph_fallbacks += other.full_graph_fallbacks;
        self.nodes_visited += other.nodes_visited;
        self.entries_checked += other.entries_checked;
        self.dijkstras_run += other.dijkstras_run;
        self.context_reuses += other.context_reuses;
        self.subregions_computed += other.subregions_computed;
        self.subregion_cache_hits += other.subregion_cache_hits;
        self.shared_cache_lookups += other.shared_cache_lookups;
        self.shared_cache_hits += other.shared_cache_hits;
        self.shared_cache_misses += other.shared_cache_misses;
        self.shared_cache_evictions += other.shared_cache_evictions;
        // A gauge: keep the latest observation rather than summing.
        self.shared_cache_bytes = other.shared_cache_bytes;
    }

    /// Divides all counters/timings by `n` (averaging helper).
    pub fn scale_down(&self, n: usize) -> QueryStats {
        if n == 0 {
            return *self;
        }
        let f = n as f64;
        QueryStats {
            filtering_ms: self.filtering_ms / f,
            subgraph_ms: self.subgraph_ms / f,
            pruning_ms: self.pruning_ms / f,
            refinement_ms: self.refinement_ms / f,
            total_objects: self.total_objects / n,
            candidates_after_filter: self.candidates_after_filter / n,
            partitions_retrieved: self.partitions_retrieved / n,
            accepted_by_bounds: self.accepted_by_bounds / n,
            pruned_by_bounds: self.pruned_by_bounds / n,
            refined: self.refined / n,
            full_graph_fallbacks: self.full_graph_fallbacks / n,
            nodes_visited: self.nodes_visited / n,
            entries_checked: self.entries_checked / n,
            dijkstras_run: self.dijkstras_run / n,
            context_reuses: self.context_reuses / n,
            subregions_computed: self.subregions_computed / n,
            subregion_cache_hits: self.subregion_cache_hits / n,
            shared_cache_lookups: self.shared_cache_lookups / n,
            shared_cache_hits: self.shared_cache_hits / n,
            shared_cache_misses: self.shared_cache_misses / n,
            shared_cache_evictions: self.shared_cache_evictions / n,
            shared_cache_bytes: self.shared_cache_bytes,
        }
    }
}

impl std::fmt::Display for QueryStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "phases[filter {:.3} ms, subgraph {:.3} ms, prune {:.3} ms, refine {:.3} ms] \
             candidates[{} of {}] \
             bounds[accepted {} pruned {} refined {}] \
             dijkstra[runs {} reuses {} fallbacks {}] \
             subregions[computed {} hits {}] \
             shared-cache[lookups {} hits {} misses {} evictions {} ~{} B]",
            self.filtering_ms,
            self.subgraph_ms,
            self.pruning_ms,
            self.refinement_ms,
            self.candidates_after_filter,
            self.total_objects,
            self.accepted_by_bounds,
            self.pruned_by_bounds,
            self.refined,
            self.dijkstras_run,
            self.context_reuses,
            self.full_graph_fallbacks,
            self.subregions_computed,
            self.subregion_cache_hits,
            self.shared_cache_lookups,
            self.shared_cache_hits,
            self.shared_cache_misses,
            self.shared_cache_evictions,
            self.shared_cache_bytes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let s = QueryStats {
            total_objects: 1000,
            candidates_after_filter: 30,
            refined: 5,
            ..QueryStats::default()
        };
        assert!((s.filtering_ratio() - 0.97).abs() < 1e-12);
        assert!((s.pruning_ratio() - 0.995).abs() < 1e-12);
        assert_eq!(QueryStats::default().filtering_ratio(), 0.0);
    }

    #[test]
    fn accumulate_and_scale() {
        let mut a = QueryStats {
            filtering_ms: 1.0,
            refined: 4,
            ..Default::default()
        };
        let b = QueryStats {
            filtering_ms: 3.0,
            refined: 2,
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.filtering_ms, 4.0);
        assert_eq!(a.refined, 6);
        assert!(a.to_string().contains("refined 6]"));
        let avg = a.scale_down(2);
        assert_eq!(avg.filtering_ms, 2.0);
        assert_eq!(avg.refined, 3);
    }

    #[test]
    fn shared_cache_counters_are_self_consistent() {
        use idq_geom::{Circle, Point2, Rect2};
        use idq_index::{CompositeIndex, IndexConfig};
        use idq_model::{FloorPlanBuilder, IndoorPoint};
        use idq_objects::{ObjectId, ObjectStore, UncertainObject};

        let mut b = FloorPlanBuilder::new(4.0);
        let r0 = b
            .add_room(0, Rect2::from_bounds(0.0, 0.0, 10.0, 10.0))
            .unwrap();
        let r1 = b
            .add_room(0, Rect2::from_bounds(10.0, 0.0, 20.0, 10.0))
            .unwrap();
        let r2 = b
            .add_room(0, Rect2::from_bounds(20.0, 0.0, 30.0, 10.0))
            .unwrap();
        b.add_door_between(r0, r1, Point2::new(10.0, 5.0)).unwrap();
        b.add_door_between(r1, r2, Point2::new(20.0, 5.0)).unwrap();
        let space = b.finish().unwrap();
        let mut store = ObjectStore::new();
        store
            .insert(
                UncertainObject::with_uniform_weights(
                    ObjectId(1),
                    Circle::new(Point2::new(25.0, 5.0), 2.0),
                    0,
                    vec![Point2::new(24.0, 5.0), Point2::new(26.0, 5.0)],
                )
                .unwrap(),
            )
            .unwrap();
        let index = CompositeIndex::build(&space, &store, IndexConfig::default()).unwrap();
        let q = IndoorPoint::new(Point2::new(2.0, 5.0), 0);
        let opts = crate::QueryOptions::default();

        let cold = crate::range_query(&space, &index, &store, q, 30.0, &opts)
            .unwrap()
            .stats;
        assert_eq!(
            cold.shared_cache_hits + cold.shared_cache_misses,
            cold.shared_cache_lookups,
            "hits + misses == lookups"
        );
        assert!(cold.shared_cache_lookups >= 1);
        assert!(cold.shared_cache_misses >= 1, "fresh cache must miss");
        assert!(cold.shared_cache_bytes > 0);

        let warm = crate::range_query(&space, &index, &store, q, 30.0, &opts)
            .unwrap()
            .stats;
        assert_eq!(
            warm.shared_cache_hits + warm.shared_cache_misses,
            warm.shared_cache_lookups
        );
        assert!(warm.shared_cache_hits >= 1, "second run reuses rows");
        assert_eq!(warm.shared_cache_misses, 0);

        // Display carries the shared-cache segment, and accumulate keeps
        // the invariant.
        assert!(warm.to_string().contains("shared-cache["));
        let mut sum = cold;
        sum.accumulate(&warm);
        assert_eq!(
            sum.shared_cache_hits + sum.shared_cache_misses,
            sum.shared_cache_lookups
        );
    }
}
