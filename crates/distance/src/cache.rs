//! Shared, geometry-keyed distance cache — memoized per-door Dijkstra
//! rows reused across queries, subscriptions, dispatch, and history.
//!
//! The paper's §V-B.4 baseline shows that *full* door-to-door
//! pre-computation is too expensive to maintain; the opposite extreme —
//! one restricted Dijkstra per query — leaves all cross-query reuse on
//! the table. This module is the middle ground: a concurrent,
//! service-lifetime memo of **per-source-door expansion rows**
//! ([`DoorRow`]), each the exact prefix of a full Dijkstra from that
//! door truncated at a horizon band. A query-point context is then
//! *assembled* by composing seed rows (see
//! `DoorDistances::compute_banded` in this crate): the per-door rows are
//! query-independent, so every query, subscription registration,
//! footprint repair, and history replay against the same geometry shares
//! them.
//!
//! **Validity is pointer identity.** The cache holds no epoch or version
//! field: it is owned by an `Arc` that lives alongside the geometry tier
//! (`CompositeIndex` retires the whole cache `Arc` whenever topology
//! changes, the same structural trick as `shares_geometry_with`).
//! Readers that reach a cache through an index therefore can never
//! observe a row computed against different geometry — no epoch check on
//! the read path.
//!
//! **Reuse is bit-exact.** Rows are stored in settle order, so a row
//! expanded at horizon `H` serves any request at horizon `h ≤ H` by
//! truncated iteration ([`DoorRow::entries_within`]): Dijkstra's
//! monotone settle order makes the truncated read identical, entry for
//! entry, to a fresh expansion at `h`. Horizons are quantized to
//! power-of-two bands ([`band_for`]) so nearby thresholds coalesce onto
//! one row.
//!
//! **Memory is bounded.** Each striped shard evicts least-recently-used
//! rows (at source-door granularity) once its share of the configured
//! byte budget is exceeded; eviction only costs recompute, never
//! correctness.

use idq_geom::IdMap;
use idq_geom::OrdF64;
use idq_model::{DoorId, DoorsGraph};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of striped shards. Sixteen keeps lock contention negligible on
/// small machines without bloating the fixed footprint.
const SHARD_COUNT: usize = 16;

/// Smallest horizon band: requests below 32 m all share one row width.
const MIN_BAND: f64 = 32.0;

/// One memoized Dijkstra expansion from a single source door.
///
/// `entries` holds `(door, distance)` pairs **in settle order** (the
/// order Dijkstra popped them), each the exact full-graph shortest
/// distance from the source door. The row is complete for every door
/// whose distance is `≤ horizon`; doors beyond the horizon are absent.
#[derive(Clone, Debug)]
pub struct DoorRow {
    horizon: f64,
    entries: Vec<(u32, f64)>,
    /// The expansion settled every door reachable from the source before
    /// it passed the horizon.
    exhausted: bool,
}

impl DoorRow {
    /// Expands a row from `src` over the full doors graph, truncated at
    /// `horizon` (inclusive: a door settled exactly at the horizon is
    /// kept). With `horizon = ∞` this is a complete single-source
    /// Dijkstra. The expansion is bitwise-deterministic: ties in the
    /// heap break by `(distance, door id)`, matching
    /// `PrecomputedD2D`-style full expansions, so a truncated row is a
    /// strict prefix of the complete one.
    pub fn expand(graph: &DoorsGraph, src: DoorId, horizon: f64) -> Self {
        let n = graph.door_slots();
        let mut entries = Vec::new();
        if src.index() >= n {
            return DoorRow {
                horizon,
                entries,
                exhausted: false,
            };
        }
        let mut dist = vec![f64::INFINITY; n];
        let mut heap: BinaryHeap<Reverse<(OrdF64, u32)>> = BinaryHeap::new();
        dist[src.index()] = 0.0;
        heap.push(Reverse((OrdF64(0.0), src.0)));
        let mut exhausted = true;
        while let Some(Reverse((OrdF64(du), u))) = heap.pop() {
            if du > dist[u as usize] {
                continue; // stale heap entry
            }
            if du > horizon {
                exhausted = false;
                break; // everything left in the heap is farther still
            }
            entries.push((u, du));
            for e in graph.edges_from(DoorId(u)) {
                let nd = du + e.weight;
                let v = e.to.index();
                if nd < dist[v] {
                    dist[v] = nd;
                    heap.push(Reverse((OrdF64(nd), e.to.0)));
                }
            }
        }
        DoorRow {
            horizon,
            entries,
            exhausted,
        }
    }

    /// Whether this row holds every door reachable from its source and
    /// none of them lies beyond `h`: a read at `h` or any wider horizon
    /// is then the complete row. A pure function of the geometry and `h`,
    /// whatever horizon the row was expanded to.
    #[inline]
    pub(crate) fn complete_within(&self, h: f64) -> bool {
        self.exhausted && self.entries.last().is_none_or(|&(_, d)| d <= h)
    }

    /// The horizon this row was expanded to.
    #[inline]
    pub(crate) fn horizon(&self) -> f64 {
        self.horizon
    }

    /// Iterates `(door, distance)` pairs with distance `≤ h`, in settle
    /// order. Because entries are stored in settle order, this truncated
    /// read of a wider row is identical to a fresh expansion at `h`.
    #[inline]
    pub fn entries_within(&self, h: f64) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.entries
            .iter()
            .copied()
            .take_while(move |&(_, d)| d <= h)
    }

    /// Approximate heap footprint, for the eviction budget.
    #[inline]
    pub(crate) fn approx_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.entries.len() * std::mem::size_of::<(u32, f64)>()
    }
}

/// Quantizes a requested horizon up to its cache band: the smallest
/// power-of-two multiple of the 32 m base band at or above it (`∞`
/// stays `∞`).
/// Banding makes nearby thresholds share one row and makes a cached row
/// reusable by every request underneath its band.
pub fn band_for(horizon: f64) -> f64 {
    if !horizon.is_finite() {
        return f64::INFINITY;
    }
    let mut band = MIN_BAND;
    while band < horizon {
        band *= 2.0;
    }
    band
}

/// What a [`DistanceCache::row`] call observed.
#[derive(Clone, Copy, Debug)]
pub struct RowFetch {
    /// `true` when an already-resident row covered the request.
    pub hit: bool,
    /// Rows evicted (from the same shard) to fit the new row in budget.
    pub evicted: usize,
}

struct CacheEntry {
    row: Arc<DoorRow>,
    last_used: u64,
}

#[derive(Default)]
struct Shard {
    rows: IdMap<u32, CacheEntry>,
    bytes: usize,
}

/// Concurrent, service-lifetime memo of per-door expansion rows.
///
/// Shared via `Arc` from `CompositeIndex`; see the module docs for the
/// validity-by-pointer-identity invariant and the bit-exactness
/// argument. All methods take `&self` and are safe to call from any
/// number of query threads concurrently.
pub struct DistanceCache {
    shards: Vec<Mutex<Shard>>,
    tick: AtomicU64,
    bytes: AtomicU64,
}

impl DistanceCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        DistanceCache {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            tick: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Returns the expansion row for `src`, covering at least `horizon`,
    /// expanding (at the quantized band) and caching it on a miss.
    /// `max_bytes` bounds the whole cache; the shard evicts its
    /// least-recently-used rows past its share of the budget.
    ///
    /// The returned row may be wider than requested — callers must read
    /// it through [`DoorRow::entries_within`] at their *requested*
    /// horizon so results stay independent of cache state. The
    /// [`RowFetch`] receipt is the only count of the call's traffic.
    pub fn row(
        &self,
        graph: &DoorsGraph,
        src: DoorId,
        horizon: f64,
        max_bytes: usize,
    ) -> (Arc<DoorRow>, RowFetch) {
        let now = self.tick.fetch_add(1, Ordering::Relaxed);
        let shard = &self.shards[src.index() % SHARD_COUNT];

        if let Some(e) = shard
            .lock()
            .expect("cache shard poisoned")
            .rows
            .get_mut(&src.0)
        {
            if e.row.horizon() >= horizon {
                e.last_used = now;
                return (
                    Arc::clone(&e.row),
                    RowFetch {
                        hit: true,
                        evicted: 0,
                    },
                );
            }
        }

        // Miss: expand outside the lock at the quantized band, so other
        // doors in the shard stay available while we run Dijkstra.
        let band = band_for(horizon);
        let fresh = Arc::new(DoorRow::expand(graph, src, band));
        let fresh_bytes = fresh.approx_bytes();

        let mut s = shard.lock().expect("cache shard poisoned");
        // Re-check after the race window: keep the widest row.
        if let Some(e) = s.rows.get_mut(&src.0) {
            if e.row.horizon() >= band {
                e.last_used = now;
                return (
                    Arc::clone(&e.row),
                    RowFetch {
                        hit: false,
                        evicted: 0,
                    },
                );
            }
            let old = e.row.approx_bytes();
            s.bytes = s.bytes - old + fresh_bytes;
            self.bytes.fetch_add(fresh_bytes as u64, Ordering::Relaxed);
            self.bytes.fetch_sub(old as u64, Ordering::Relaxed);
            let e = s.rows.get_mut(&src.0).expect("just observed");
            e.row = Arc::clone(&fresh);
            e.last_used = now;
        } else {
            s.bytes += fresh_bytes;
            self.bytes.fetch_add(fresh_bytes as u64, Ordering::Relaxed);
            s.rows.insert(
                src.0,
                CacheEntry {
                    row: Arc::clone(&fresh),
                    last_used: now,
                },
            );
        }

        // Evict LRU rows past this shard's share of the budget — but
        // never the row we just inserted, and never the last row.
        let shard_budget = (max_bytes / SHARD_COUNT).max(1);
        let mut evicted = 0usize;
        while s.bytes > shard_budget && s.rows.len() > 1 {
            let victim = s
                .rows
                .iter()
                .filter(|(&k, _)| k != src.0)
                .min_by_key(|(_, e)| e.last_used)
                .map(|(&k, _)| k);
            let Some(victim) = victim else { break };
            if let Some(e) = s.rows.remove(&victim) {
                let freed = e.row.approx_bytes();
                s.bytes -= freed;
                self.bytes.fetch_sub(freed as u64, Ordering::Relaxed);
                evicted += 1;
            }
        }
        (
            fresh,
            RowFetch {
                hit: false,
                evicted,
            },
        )
    }

    /// Approximate resident bytes (cheap atomic read; no shard locks).
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

impl Default for DistanceCache {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for DistanceCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistanceCache")
            .field("bytes", &self.bytes())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idq_geom::{Point2, Rect2};
    use idq_model::{FloorPlanBuilder, IndoorSpace, PartitionId};

    /// A 1×`n` corridor of 10 m rooms with doors at shared-wall midpoints.
    fn corridor(n: usize) -> (IndoorSpace, DoorsGraph, Vec<DoorId>) {
        let mut b = FloorPlanBuilder::new(4.0);
        let rooms: Vec<PartitionId> = (0..n)
            .map(|i| {
                b.add_room(
                    0,
                    Rect2::from_bounds(10.0 * i as f64, 0.0, 10.0 * (i + 1) as f64, 10.0),
                )
                .unwrap()
            })
            .collect();
        let doors: Vec<DoorId> = (0..n - 1)
            .map(|i| {
                b.add_door_between(
                    rooms[i],
                    rooms[i + 1],
                    Point2::new(10.0 * (i + 1) as f64, 5.0),
                )
                .unwrap()
            })
            .collect();
        let s = b.finish().unwrap();
        let g = DoorsGraph::build(&s);
        (s, g, doors)
    }

    /// Resident rows and the sum of their `approx_bytes` across shards.
    fn resident(cache: &DistanceCache) -> (usize, u64) {
        cache.shards.iter().fold((0, 0), |(rows, bytes), s| {
            let s = s.lock().unwrap();
            let sum: usize = s.rows.values().map(|e| e.row.approx_bytes()).sum();
            assert_eq!(s.bytes, sum, "shard byte count");
            (rows + s.rows.len(), bytes + sum as u64)
        })
    }

    /// Asserts `row` read at `h` is a fresh expansion at `h`, bit for bit.
    fn reads_as_fresh(g: &DoorsGraph, d: DoorId, row: &DoorRow, h: f64) {
        let fresh = DoorRow::expand(g, d, h);
        let got: Vec<_> = row
            .entries_within(h)
            .map(|(v, x)| (v, x.to_bits()))
            .collect();
        let want: Vec<_> = fresh
            .entries_within(h)
            .map(|(v, x)| (v, x.to_bits()))
            .collect();
        assert_eq!(got, want, "row of {d:?} read at {h}");
    }

    #[test]
    fn band_grid_quantizes_up() {
        assert_eq!(band_for(0.0), 32.0);
        assert_eq!(band_for(31.9), 32.0);
        assert_eq!(band_for(32.0), 32.0);
        assert_eq!(band_for(33.0), 64.0);
        assert_eq!(band_for(500.0), 512.0);
        assert!(band_for(f64::INFINITY).is_infinite());
    }

    #[test]
    fn truncated_expansion_is_a_prefix_of_the_complete_row() {
        let (_, g, doors) = corridor(6);
        let full = DoorRow::expand(&g, doors[0], f64::INFINITY);
        let short = DoorRow::expand(&g, doors[0], 25.0);
        // Doors along the corridor from doors[0]: itself at 0, then 10, 20, ...
        assert_eq!(full.entries_within(f64::INFINITY).count(), 5);
        assert_eq!(short.entries_within(f64::INFINITY).count(), 3);
        let full_prefix: Vec<_> = full.entries_within(25.0).collect();
        let short_all: Vec<_> = short.entries_within(f64::INFINITY).collect();
        assert_eq!(full_prefix.len(), short_all.len());
        for ((fd, fv), (sd, sv)) in full_prefix.iter().zip(short_all.iter()) {
            assert_eq!(fd, sd);
            assert_eq!(fv.to_bits(), sv.to_bits());
        }
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let (_, g, doors) = corridor(6);
        let cache = DistanceCache::new();
        let budget = usize::MAX;
        let (_, f) = cache.row(&g, doors[0], 20.0, budget);
        assert!(!f.hit);
        let (_, f) = cache.row(&g, doors[0], 20.0, budget);
        assert!(f.hit);
        // A request under the resident band is still a hit.
        let (_, f) = cache.row(&g, doors[0], 5.0, budget);
        assert!(f.hit);
        assert_eq!(f.evicted, 0);
        // The one miss left one resident row, and the byte gauge counts it.
        let (rows, bytes) = resident(&cache);
        assert_eq!(rows, 1);
        assert!(bytes > 0);
        assert_eq!(bytes, cache.bytes());
    }

    #[test]
    fn wider_request_promotes_the_row() {
        let (_, g, doors) = corridor(6);
        let cache = DistanceCache::new();
        let budget = usize::MAX;
        let (row, _) = cache.row(&g, doors[0], 20.0, budget);
        assert_eq!(row.horizon(), 32.0); // banded up
        let (row, f) = cache.row(&g, doors[0], 40.0, budget);
        assert!(!f.hit);
        assert_eq!(row.horizon(), 64.0);
        // The promoted row replaced the narrow one; a narrow request now hits.
        let (row, f) = cache.row(&g, doors[0], 20.0, budget);
        assert!(f.hit);
        assert_eq!(row.horizon(), 64.0);
        assert_eq!(resident(&cache), (1, row.approx_bytes() as u64));
        assert_eq!(cache.bytes(), row.approx_bytes() as u64);
    }

    #[test]
    fn tiny_budget_evicts_lru_rows() {
        let (_, g, doors) = corridor(6);
        let cache = DistanceCache::new();
        // Budget so small every shard holds at most ~one row.
        let evicted: usize = doors
            .iter()
            .map(|&d| cache.row(&g, d, f64::INFINITY, 1).1.evicted)
            .sum();
        let (rows, bytes) = resident(&cache);
        assert_eq!(bytes, cache.bytes());
        // Doors sharing a shard evicted each other: every expanded row is
        // resident or was evicted, and no shard holds more than one.
        assert_eq!(rows + evicted, doors.len());
        for s in &cache.shards {
            assert!(s.lock().unwrap().rows.len() <= 1);
        }
        // Eviction never breaks correctness: re-request recomputes.
        let (row, _) = cache.row(&g, doors[0], f64::INFINITY, 1);
        assert_eq!(row.entries_within(f64::INFINITY).count(), 5);
    }

    #[test]
    fn rows_match_a_full_dijkstra_bitwise() {
        let (_, g, doors) = corridor(6);
        let cache = DistanceCache::new();
        let (row, _) = cache.row(&g, doors[2], f64::INFINITY, usize::MAX);
        // Reference: an independent complete expansion.
        let reference = DoorRow::expand(&g, doors[2], f64::INFINITY);
        assert_eq!(
            row.entries_within(f64::INFINITY).count(),
            reference.entries_within(f64::INFINITY).count()
        );
        for ((rd, rv), (fd, fv)) in row
            .entries_within(f64::INFINITY)
            .zip(reference.entries_within(f64::INFINITY))
        {
            assert_eq!(rd, fd);
            assert_eq!(rv.to_bits(), fv.to_bits());
        }
        // doors[2] reaches doors[1] and doors[3] at 10, doors[0]/[4] at 20.
        let by_door: IdMap<u32, f64> = row.entries_within(f64::INFINITY).collect();
        assert_eq!(by_door[&doors[2].0], 0.0);
        assert!((by_door[&doors[1].0] - 10.0).abs() < 1e-9);
        assert!((by_door[&doors[4].0] - 20.0).abs() < 1e-9);
    }

    #[test]
    fn concurrent_requests_for_one_door_read_as_fresh_expansions() {
        // A long corridor and wide horizons make every expansion slow
        // enough that threads released together miss together and race
        // to install their rows, in either order.
        let (_, g, doors) = corridor(1000);
        let d = doors[0];
        let horizons = [1000.0, 2500.0, 5000.0, f64::INFINITY, 3000.0, 7000.0];
        for round in 0..64 {
            let cache = DistanceCache::new();
            let start = std::sync::Barrier::new(4);
            let widest = std::thread::scope(|s| {
                let threads: Vec<_> = (0..4)
                    .map(|t| {
                        let h = horizons[(round + t) % horizons.len()];
                        let (cache, g, start) = (&cache, &g, &start);
                        s.spawn(move || {
                            start.wait();
                            let (row, _) = cache.row(g, d, h, usize::MAX);
                            reads_as_fresh(g, d, &row, h);
                            row.horizon()
                        })
                    })
                    .collect();
                threads
                    .into_iter()
                    .map(|t| t.join().unwrap())
                    .fold(0.0, f64::max)
            });
            // Whatever order the rows were installed in, the widest stayed.
            let (row, f) = cache.row(&g, d, widest, usize::MAX);
            assert!(f.hit, "round {round}");
            assert_eq!(row.horizon(), widest, "round {round}");
            reads_as_fresh(&g, d, &row, widest);
            let (rows, bytes) = resident(&cache);
            assert_eq!(rows, 1);
            assert_eq!(bytes, cache.bytes());
        }
    }
}
