//! Query evaluation options and ablation switches.

use crate::error::QueryError;

/// Tuning knobs of the four-phase pipeline. The defaults reproduce the
/// paper's full method; the switches implement its ablations:
///
/// * `use_skeleton = false` → filtering falls back to the plain Euclidean
///   lower bound ("withoutSkeleton", Fig. 15(a));
/// * `use_pruning = false` → Phase 3 is skipped and every filtered
///   candidate is refined ("withoutPruning", Fig. 14(b)/(d)).
///
/// Change a knob with struct-update syntax
/// (`QueryOptions { subgraph_slack: 0.0, ..QueryOptions::default() }`) or
/// one of the helpers below.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryOptions {
    /// Use the skeleton tier's geometric lower bound in filtering.
    pub use_skeleton: bool,
    /// Apply the topological/probabilistic bounds in Phase 3.
    pub use_pruning: bool,
    /// Width in metres of the first door-distance band: a range query's
    /// context reaches `r + subgraph_slack`, a kNN search starts at
    /// `2 × subgraph_slack` and grows from there. A cost parameter only —
    /// answers do not depend on it: bounds clamp at the band's exit
    /// horizon and refinement falls back to the full graph (see the
    /// soundness note in `idq_distance::bounds`). A band narrower than
    /// the population's uncertainty regions costs clamped bounds and
    /// full-graph fallbacks, and changes only the certifying upper bound
    /// a bound-certified range hit reports. Must be finite and
    /// non-negative.
    pub subgraph_slack: f64,
    /// Approximate byte budget of the shared, service-lifetime
    /// [`idq_distance::DistanceCache`] that serves every door-distance
    /// row (default 256 MiB). Past the budget, least-recently-used rows
    /// are evicted at source-door granularity; eviction costs recompute
    /// on the next touch, never correctness.
    pub distance_cache_bytes: usize,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            use_skeleton: true,
            use_pruning: true,
            subgraph_slack: 60.0,
            distance_cache_bytes: 256 << 20,
        }
    }
}

impl QueryOptions {
    /// Rejects a slack that is negative, infinite or NaN: a NaN horizon
    /// would build an unrestricted but empty context and silently drop
    /// answers.
    pub(crate) fn check_slack(&self) -> Result<(), QueryError> {
        let s = self.subgraph_slack;
        if s.is_finite() && s >= 0.0 {
            Ok(())
        } else {
            Err(QueryError::BadSlack(s))
        }
    }

    /// Options with a slack sized for a maximum uncertainty-region radius
    /// (2× diameter + detour headroom), so bounds rarely clamp and
    /// refinement rarely falls back. Nothing widens the slack for you:
    /// size it here for the largest region you will load.
    pub fn for_max_radius(max_radius: f64) -> Self {
        QueryOptions {
            subgraph_slack: (4.0 * max_radius + 20.0).max(60.0),
            ..Self::default()
        }
    }

    /// Disables the skeleton tier (Fig. 15(a) ablation).
    pub fn without_skeleton(self) -> Self {
        QueryOptions {
            use_skeleton: false,
            ..self
        }
    }

    /// Disables bound pruning (Fig. 14(b)/(d) ablation).
    pub fn without_pruning(self) -> Self {
        QueryOptions {
            use_pruning: false,
            ..self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let o = QueryOptions::default().without_skeleton().without_pruning();
        assert!(!o.use_skeleton);
        assert!(!o.use_pruning);
        let o = QueryOptions::for_max_radius(15.0);
        assert!(o.subgraph_slack >= 80.0);
    }
}
