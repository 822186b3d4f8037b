//! The indR-tree tier (§III-A.2): an R-tree over the [`Mbr3`] boxes of
//! index units, carrying [`UnitId`] payloads.
//!
//! Adaptation points from the paper:
//!
//! * entries are *planar* MBRs placed in 3D; construction heuristics pad
//!   the vertical side by 1 cm ([`Mbr3::build_volume`]) while query-phase
//!   distances ignore the pad — the paper's trick to keep volume-based
//!   splits meaningful without distorting distances;
//! * construction uses Sort-Tile-Recursive packing (the paper uses a
//!   *packed* R\*-tree, §V-A) grouped floor-first, so same-floor units
//!   share subtrees ([`RTree::bulk_load`]);
//! * dynamic inserts descend by least build-volume enlargement and split
//!   overflowing nodes at the median of the axis of largest centre spread,
//!   ties going to elevation (so floors separate first), then x, then y.
//!   This is an STR-consistent split; R\*'s forced reinsertion is
//!   intentionally omitted — documented deviation, irrelevant to the
//!   measured update costs which are dominated by bucket moves;
//! * deletions tolerate underfull nodes (bounds are recomputed, empty
//!   nodes pruned and their arena slots reused), which keeps
//!   `deletePartition` O(height) as the paper's Fig. 15(c) expects.

use crate::units::UnitId;
use idq_geom::{Mbr3, OrdF64};

/// A leaf entry: one index unit and its box.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LeafEntry {
    /// The unit's bounding box.
    pub(crate) bounds: Mbr3,
    /// The unit.
    pub(crate) item: UnitId,
}

#[derive(Clone, Debug)]
enum NodeKind {
    Leaf(Vec<LeafEntry>),
    Inner(Vec<usize>),
}

#[derive(Clone, Debug)]
struct Node {
    /// Exactly the union of the node's entries / children.
    bounds: Mbr3,
    kind: NodeKind,
}

/// Statistics of one tree search (feeds the Fig. 15(a) experiment).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Tree nodes visited.
    pub nodes_visited: usize,
    /// Leaf entries whose bounds were tested.
    pub entries_checked: usize,
}

/// An R-tree over index-unit boxes.
#[derive(Clone, Debug)]
pub struct RTree {
    nodes: Vec<Node>,
    /// Arena slots released by [`RTree::remove`], reused before growing.
    free: Vec<usize>,
    root: usize,
    fanout: usize,
    len: usize,
}

impl RTree {
    /// Sort-Tile-Recursive bulk load ("packed" construction, §V-A).
    pub(crate) fn bulk_load(mut entries: Vec<LeafEntry>, fanout: usize) -> Self {
        let fanout = fanout.max(2);
        if entries.is_empty() {
            return Self::new(fanout);
        }
        let mut tree = RTree {
            nodes: Vec::new(),
            free: Vec::new(),
            root: 0,
            fanout,
            len: entries.len(),
        };
        // Pack leaves: floor-first, then STR tiles in x, then runs in y.
        let leaf_groups = str_tiles(&mut entries, fanout, |e| &e.bounds);
        let mut level: Vec<usize> = leaf_groups
            .into_iter()
            .map(|group| tree.alloc(NodeKind::Leaf(group)))
            .collect();
        while level.len() > 1 {
            let mut items: Vec<(usize, Mbr3)> =
                level.iter().map(|&i| (i, tree.nodes[i].bounds)).collect();
            let groups = str_tiles(&mut items, fanout, |x| &x.1);
            level = groups
                .into_iter()
                .map(|group| {
                    let children = group.into_iter().map(|x| x.0).collect();
                    tree.alloc(NodeKind::Inner(children))
                })
                .collect();
        }
        tree.root = level[0];
        tree
    }

    /// An empty tree with the given fanout (paper default: 20).
    pub(crate) fn new(fanout: usize) -> Self {
        RTree {
            nodes: vec![Node {
                bounds: Mbr3::empty_sentinel(),
                kind: NodeKind::Leaf(Vec::new()),
            }],
            free: Vec::new(),
            root: 0,
            fanout: fanout.max(2),
            len: 0,
        }
    }

    /// Stores a node holding `kind` (bounds computed from its contents)
    /// in a free arena slot, growing the arena only when none is free.
    fn alloc(&mut self, kind: NodeKind) -> usize {
        let node = Node {
            bounds: self.bounds_of(&kind),
            kind,
        };
        match self.free.pop() {
            Some(idx) => {
                self.nodes[idx] = node;
                idx
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        }
    }

    /// Returns an unlinked node's slot (and its heap storage) for reuse.
    fn release(&mut self, idx: usize) {
        self.nodes[idx].kind = NodeKind::Leaf(Vec::new());
        self.free.push(idx);
    }

    fn bounds_of(&self, kind: &NodeKind) -> Mbr3 {
        match kind {
            NodeKind::Leaf(entries) => union_of(entries.iter().map(|e| e.bounds)),
            NodeKind::Inner(children) => union_of(children.iter().map(|&c| self.nodes[c].bounds)),
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the tree holds no entries.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tree height (1 = a single leaf).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut cur = self.root;
        while let NodeKind::Inner(c) = &self.nodes[cur].kind {
            h += 1;
            cur = c[0];
        }
        h
    }

    /// Number of tree nodes in use (reachable from the root).
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    // ---- search -----------------------------------------------------------

    /// The one tree walk (Algorithm 4's `RangeSearch` included): visits
    /// every leaf entry whose bounds `admit`, descending only into nodes
    /// whose bounds `admit`. The predicate is injected so callers can
    /// search by the skeleton distance (Eq. 10), plain Euclidean distance
    /// (the paper's "withoutSkeleton" ablation) or box intersection; it
    /// must be monotone (a box it rejects contains no box it admits).
    pub(crate) fn search(
        &self,
        admit: impl Fn(&Mbr3) -> bool,
        mut visit: impl FnMut(&LeafEntry),
    ) -> SearchStats {
        let mut stats = SearchStats::default();
        if self.len == 0 {
            return stats;
        }
        let mut stack = vec![self.root];
        while let Some(idx) = stack.pop() {
            stats.nodes_visited += 1;
            match &self.nodes[idx].kind {
                NodeKind::Leaf(entries) => {
                    for e in entries {
                        stats.entries_checked += 1;
                        if admit(&e.bounds) {
                            visit(e);
                        }
                    }
                }
                NodeKind::Inner(children) => {
                    stack.extend(children.iter().filter(|&&c| admit(&self.nodes[c].bounds)));
                }
            }
        }
        stats
    }

    // ---- insertion ----------------------------------------------------------

    /// Inserts one entry (dynamic maintenance, §III-C.1 *Insertion*).
    pub(crate) fn insert(&mut self, entry: LeafEntry) {
        if let Some(sibling) = self.insert_at(self.root, entry) {
            self.root = self.alloc(NodeKind::Inner(vec![self.root, sibling]));
        }
        self.len += 1;
    }

    /// Inserts below `idx`, growing bounds by the key on the way down;
    /// returns the new sibling when `idx` overflowed and split.
    fn insert_at(&mut self, idx: usize, entry: LeafEntry) -> Option<usize> {
        self.nodes[idx].bounds = self.nodes[idx].bounds.union(&entry.bounds);
        let sibling = match &self.nodes[idx].kind {
            NodeKind::Leaf(_) => None,
            NodeKind::Inner(children) => {
                let child = self.choose_child(children, &entry.bounds);
                Some(self.insert_at(child, entry)?)
            }
        };
        let count = match &mut self.nodes[idx].kind {
            NodeKind::Leaf(entries) => {
                entries.push(entry);
                entries.len()
            }
            NodeKind::Inner(children) => {
                children.extend(sibling);
                children.len()
            }
        };
        (count > self.fanout).then(|| self.split(idx))
    }

    /// Least-build-volume-enlargement child choice (ties: smaller volume).
    fn choose_child(&self, children: &[usize], key: &Mbr3) -> usize {
        let mut best = children[0];
        let mut best_cost = (f64::INFINITY, f64::INFINITY);
        for &c in children {
            let cur = self.nodes[c].bounds;
            let size = cur.build_volume();
            let cost = (cur.union(key).build_volume() - size, size);
            if cost < best_cost {
                best_cost = cost;
                best = c;
            }
        }
        best
    }

    /// Splits an overflowing node at the median of its widest axis; the
    /// lower half stays in `idx`, the upper half moves to the returned
    /// sibling.
    fn split(&mut self, idx: usize) -> usize {
        let kind = std::mem::replace(&mut self.nodes[idx].kind, NodeKind::Leaf(Vec::new()));
        let (left, right) = match kind {
            NodeKind::Leaf(entries) => {
                let (l, r) = halve(entries, |e| e.bounds);
                (NodeKind::Leaf(l), NodeKind::Leaf(r))
            }
            NodeKind::Inner(children) => {
                let (l, r) = halve(children, |&c| self.nodes[c].bounds);
                (NodeKind::Inner(l), NodeKind::Inner(r))
            }
        };
        self.nodes[idx].bounds = self.bounds_of(&left);
        self.nodes[idx].kind = left;
        self.alloc(right)
    }

    // ---- removal -------------------------------------------------------------

    /// Removes one entry by payload, guided by its bounds. Returns whether
    /// it was found.
    pub(crate) fn remove(&mut self, item: UnitId, bounds: &Mbr3) -> bool {
        if !self.remove_at(self.root, item, bounds) {
            return false;
        }
        self.len -= 1;
        if self.len == 0 {
            *self = Self::new(self.fanout);
            return true;
        }
        // Collapse a chain of single-child inner roots.
        while let NodeKind::Inner(children) = &self.nodes[self.root].kind {
            let &[only] = children.as_slice() else { break };
            self.release(self.root);
            self.root = only;
        }
        true
    }

    fn remove_at(&mut self, idx: usize, item: UnitId, hint: &Mbr3) -> bool {
        match &mut self.nodes[idx].kind {
            NodeKind::Leaf(entries) => {
                let Some(pos) = entries.iter().position(|e| e.item == item) else {
                    return false;
                };
                entries.swap_remove(pos);
            }
            NodeKind::Inner(children) => {
                let children = children.clone();
                let Some(child) = children.into_iter().find(|&c| {
                    self.nodes[c].bounds.intersects(hint) && self.remove_at(c, item, hint)
                }) else {
                    return false;
                };
                // Prune an emptied child.
                let emptied = match &self.nodes[child].kind {
                    NodeKind::Leaf(e) => e.is_empty(),
                    NodeKind::Inner(c) => c.is_empty(),
                };
                if emptied {
                    self.release(child);
                    if let NodeKind::Inner(children) = &mut self.nodes[idx].kind {
                        children.retain(|&c| c != child);
                    }
                }
            }
        }
        self.nodes[idx].bounds = self.bounds_of(&self.nodes[idx].kind);
        true
    }

    // ---- invariants (test support) --------------------------------------------

    /// Validates structural invariants: tight bounds, fanout caps, leaves
    /// at one depth, exactly `len` entries reachable, and every arena slot
    /// either reachable or on the free list. Panics on violation.
    pub fn validate(&self) {
        let (mut entries, mut nodes) = (0, 0);
        self.validate_at(self.root, self.height(), &mut entries, &mut nodes);
        assert_eq!(entries, self.len, "reachable entries == len");
        assert_eq!(nodes, self.node_count(), "no arena slot leaked");
    }

    fn validate_at(&self, idx: usize, levels_left: usize, entries: &mut usize, nodes: &mut usize) {
        let node = &self.nodes[idx];
        *nodes += 1;
        assert!(!self.free.contains(&idx), "reachable node is not free");
        assert!(
            node.bounds == self.bounds_of(&node.kind),
            "bounds are the exact union"
        );
        match &node.kind {
            NodeKind::Leaf(es) => {
                assert!(es.len() <= self.fanout, "leaf fanout");
                assert_eq!(levels_left, 1, "leaves at one depth");
                *entries += es.len();
            }
            NodeKind::Inner(children) => {
                assert!(children.len() <= self.fanout, "inner fanout");
                assert!(!children.is_empty(), "inner node non-empty");
                for &c in children {
                    self.validate_at(c, levels_left - 1, entries, nodes);
                }
            }
        }
    }
}

fn union_of(boxes: impl Iterator<Item = Mbr3>) -> Mbr3 {
    boxes.fold(Mbr3::empty_sentinel(), |acc, b| acc.union(&b))
}

/// Centre coordinate of `m` along split axis 0 (elevation, so floors
/// separate first, as the paper's floor-aware layout wants), 1 (x) or
/// 2 (y).
fn center(m: &Mbr3, axis: usize) -> f64 {
    match axis {
        0 => (m.z_lo + m.z_hi) / 2.0,
        1 => m.rect.center().x,
        _ => m.rect.center().y,
    }
}

/// Sorts items by centre along the axis with the widest centre spread and
/// cuts them at the median; on ties the lowest-numbered axis wins.
fn halve<X>(mut items: Vec<X>, bounds_of: impl Fn(&X) -> Mbr3) -> (Vec<X>, Vec<X>) {
    let mut axis = 0;
    let mut widest = f64::NEG_INFINITY;
    for a in 0..3 {
        let (lo, hi) = items
            .iter()
            .map(|it| center(&bounds_of(it), a))
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), c| {
                (lo.min(c), hi.max(c))
            });
        if hi - lo > widest {
            widest = hi - lo;
            axis = a;
        }
    }
    items.sort_by_key(|it| OrdF64(center(&bounds_of(it), axis)));
    let upper = items.split_off(items.len() / 2);
    (items, upper)
}

/// Groups items into STR tiles of at most `fanout` items: sort by floor
/// (z), slice into floor runs, tile each run by x slabs then y runs.
fn str_tiles<T>(
    items: &mut Vec<T>,
    fanout: usize,
    mbr_of: impl Fn(&T) -> &Mbr3 + Copy,
) -> Vec<Vec<T>> {
    let n = items.len();
    if n <= fanout {
        return vec![std::mem::take(items)];
    }
    // Sort by (floor, x); slice into x-slabs of ~sqrt(n/fanout) per floor
    // run, then chunk each slab by y.
    items.sort_by(|a, b| {
        let (ma, mb) = (mbr_of(a), mbr_of(b));
        ma.floor_lo
            .cmp(&mb.floor_lo)
            .then(OrdF64(ma.rect.center().x).cmp(&OrdF64(mb.rect.center().x)))
    });
    let leaf_count = n.div_ceil(fanout);
    let slab_count = (leaf_count as f64).sqrt().ceil() as usize;
    let slab_size = n.div_ceil(slab_count);
    let mut out = Vec::with_capacity(leaf_count);
    let mut rest = std::mem::take(items);
    while !rest.is_empty() {
        let take = slab_size.min(rest.len());
        let mut slab: Vec<T> = rest.drain(..take).collect();
        slab.sort_by_key(|it| OrdF64(mbr_of(it).rect.center().y));
        while !slab.is_empty() {
            let take = fanout.min(slab.len());
            out.push(slab.drain(..take).collect());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use idq_geom::{Point3, Rect2};

    fn entry(i: u32, x: f64, y: f64, floor: u16) -> LeafEntry {
        LeafEntry {
            item: UnitId(i),
            bounds: Mbr3::planar(
                Rect2::from_bounds(x, y, x + 5.0, y + 5.0),
                floor,
                floor as f64 * 4.0,
            ),
        }
    }

    fn grid_entries(nx: u32, ny: u32, floors: u16) -> Vec<LeafEntry> {
        let mut v = Vec::new();
        let mut id = 0;
        for f in 0..floors {
            for i in 0..nx {
                for j in 0..ny {
                    v.push(entry(id, i as f64 * 10.0, j as f64 * 10.0, f));
                    id += 1;
                }
            }
        }
        v
    }

    /// Units whose MBR lies within `r` of `q`, plus the walk's counters.
    fn within(t: &RTree, q: Point3, r: f64) -> (Vec<UnitId>, SearchStats) {
        let mut seen = Vec::new();
        let stats = t.search(|m| m.min_dist(q) <= r, |e| seen.push(e.item));
        (seen, stats)
    }

    #[test]
    fn bulk_load_reaches_everything() {
        let entries = grid_entries(10, 10, 3);
        let t = RTree::bulk_load(entries.clone(), 20);
        assert_eq!(t.len(), 300);
        t.validate();
        assert!(t.height() >= 2);
        let (seen, _) = within(&t, Point3::new(0.0, 0.0, 0.0), f64::INFINITY);
        assert_eq!(seen.len(), 300);
    }

    #[test]
    fn range_search_prunes_far_nodes() {
        let entries = grid_entries(10, 10, 3);
        let t = RTree::bulk_load(entries, 20);
        let q = Point3::new(2.5, 2.5, 0.0);
        let (seen, stats) = within(&t, q, 12.0);
        // Brute-force oracle.
        let oracle = grid_entries(10, 10, 3)
            .into_iter()
            .filter(|e| e.bounds.min_dist(q) <= 12.0)
            .count();
        assert_eq!(seen.len(), oracle);
        assert!(oracle > 0);
        assert!(stats.nodes_visited < t.node_count(), "pruning happened");
    }

    #[test]
    fn incremental_insert_matches_bulk_semantics() {
        let entries = grid_entries(8, 8, 2);
        let mut t = RTree::new(8);
        for e in &entries {
            t.insert(*e);
        }
        assert_eq!(t.len(), entries.len());
        t.validate();
        let q = Point3::new(35.0, 35.0, 4.0);
        let (mut a, _) = within(&t, q, 15.0);
        let mut oracle: Vec<UnitId> = entries
            .iter()
            .filter(|e| e.bounds.min_dist(q) <= 15.0)
            .map(|e| e.item)
            .collect();
        a.sort();
        oracle.sort();
        assert_eq!(a, oracle);
    }

    #[test]
    fn remove_then_search_consistent() {
        let entries = grid_entries(6, 6, 2);
        let mut t = RTree::bulk_load(entries.clone(), 6);
        for e in entries.iter().take(30) {
            assert!(t.remove(e.item, &e.bounds), "must find {e:?}");
        }
        assert_eq!(t.len(), entries.len() - 30);
        t.validate();
        let (seen, _) = within(&t, Point3::new(0.0, 0.0, 0.0), f64::INFINITY);
        assert_eq!(seen.len(), entries.len() - 30);
        // Removed units are gone.
        for e in entries.iter().take(30) {
            assert!(!seen.contains(&e.item));
        }
        // Removing again fails cleanly.
        assert!(!t.remove(entries[0].item, &entries[0].bounds));
    }

    #[test]
    fn empty_tree_behaviour() {
        let mut t = RTree::new(20);
        assert!(t.is_empty());
        let stats = t.search(
            |m| m.min_dist(Point3::new(0.0, 0.0, 0.0)) <= 10.0,
            |_| panic!("nothing to visit"),
        );
        assert_eq!(stats.entries_checked, 0);
        assert!(!t.remove(
            UnitId(0),
            &Mbr3::planar(Rect2::from_bounds(0.0, 0.0, 1.0, 1.0), 0, 0.0)
        ));
        // Insert into empty then drain to empty again.
        let e = entry(0, 0.0, 0.0, 0);
        t.insert(e);
        assert_eq!(t.len(), 1);
        assert!(t.remove(e.item, &e.bounds));
        assert!(t.is_empty());
        t.validate();
    }

    #[test]
    fn floors_separate_in_bulk_load() {
        // Units of different floors should rarely share a leaf.
        let entries = grid_entries(5, 5, 4);
        let t = RTree::bulk_load(entries, 25);
        t.validate();
        // Searching exactly floor 0's plane within a planar radius should
        // check far fewer entries than the whole tree.
        let (_, stats) = within(&t, Point3::new(25.0, 25.0, 0.0), 5.0);
        assert!(
            stats.entries_checked <= 50,
            "checked {}",
            stats.entries_checked
        );
    }

    #[test]
    fn mixed_insert_remove_stress_keeps_invariants() {
        let mut t = RTree::new(4);
        let entries = grid_entries(7, 7, 2);
        for (i, e) in entries.iter().enumerate() {
            t.insert(*e);
            if i % 3 == 0 {
                assert!(t.remove(e.item, &e.bounds));
            }
        }
        t.validate();
        let expected = entries
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 != 0)
            .count();
        assert_eq!(t.len(), expected);
    }

    #[test]
    fn churn_reuses_arena_slots() {
        // At the parent commit every pruned child and collapsed root stayed
        // in the arena: 56 slots per round, 2 801 in the empty tree after
        // 50 rounds — all cloned by each copy-on-write topology commit.
        let entries = grid_entries(8, 8, 1);
        let mut t = RTree::new(4);
        let mut peak_slots = 0;
        for round in 0..50 {
            for e in &entries {
                t.insert(*e);
                // Every node but the root holds at least one entry or child.
                assert!(t.node_count() <= 2 * t.len(), "nodes bounded by entries");
            }
            if round == 0 {
                peak_slots = t.nodes.len();
            }
            assert!(t.nodes.len() <= peak_slots, "round {round} grew the arena");
            for e in &entries {
                assert!(t.remove(e.item, &e.bounds));
                assert!(t.node_count() <= 2 * t.len().max(1));
            }
            t.validate();
            assert_eq!(t.node_count(), 1, "an empty tree is one empty leaf");
        }
    }

    /// SplitMix64 — the crate has no `rand` dependency.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A random interval inside `[0, 100]` of width at most 12.
        fn span(&mut self) -> (f64, f64) {
            let lo = self.below(100) as f64;
            (lo, lo + self.below(13) as f64)
        }
    }

    /// A random unit box: planar on one of floors 0–2, or (one in four)
    /// a staircase-like box spanning up to floor 3 or 4.
    fn random_box(rng: &mut Rng) -> Mbr3 {
        let ((x0, x1), (y0, y1)) = (rng.span(), rng.span());
        let floors = (rng.below(3) as u16, 3 + rng.below(2) as u16);
        if rng.below(4) == 0 {
            Mbr3::spanning(
                Rect2::from_bounds(x0, y0, x1, y1),
                floors,
                (floors.0 as f64 * 4.0, floors.1 as f64 * 4.0),
            )
        } else {
            Mbr3::planar(
                Rect2::from_bounds(x0, y0, x1, y1),
                floors.0,
                floors.0 as f64 * 4.0,
            )
        }
    }

    /// Random insert / remove / search steps against a linear scan,
    /// validating the tree after every step.
    #[test]
    fn random_steps_match_linear_scan() {
        for seed in 1..=4 {
            matches_linear_scan(seed);
        }
    }

    fn matches_linear_scan(seed: u64) {
        let mut rng = Rng(seed);
        let mut tree = RTree::new(4);
        let mut live: Vec<LeafEntry> = Vec::new();
        for step in 0..600u32 {
            match rng.below(4) {
                0 | 1 => {
                    let e = LeafEntry {
                        bounds: random_box(&mut rng),
                        item: UnitId(step),
                    };
                    tree.insert(e);
                    live.push(e);
                }
                2 if !live.is_empty() => {
                    let e = live.swap_remove(rng.below(live.len() as u64) as usize);
                    assert!(tree.remove(e.item, &e.bounds), "step {step}: {e:?}");
                    assert!(
                        !tree.remove(e.item, &e.bounds),
                        "step {step}: removed twice"
                    );
                }
                _ => {
                    let probe = random_box(&mut rng);
                    let mut want: Vec<UnitId> = live
                        .iter()
                        .filter(|e| e.bounds.intersects(&probe))
                        .map(|e| e.item)
                        .collect();
                    let mut got = Vec::new();
                    tree.search(|b| b.intersects(&probe), |e| got.push(e.item));
                    got.sort_unstable();
                    want.sort_unstable();
                    assert_eq!(got, want, "step {step}: probe {probe:?}");
                }
            }
            tree.validate();
            assert_eq!(tree.len(), live.len());
        }
    }
}
