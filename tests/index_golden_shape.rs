//! The packed indR-tree is part of the measured contract: `index.*`
//! counters and the paper workloads' candidate streams depend on its
//! exact shape and on the order the filtering walk tests nodes in. The
//! tree shape and the `r = 150` walk were recorded at commit 4080359 (the
//! last one with a hand-written, `Mbr3`-only tree), the `r = 50` and
//! `r = 100` walks at 04de673 with the same `range_search` call; a
//! refactor of the tree must not move them.

use indoor_dq::index::SearchStats;
use indoor_dq::index::{CompositeIndex, IndexConfig};
use indoor_dq::workloads::{
    generate_building, generate_objects, generate_query_points, BuildingConfig, ObjectConfig,
    QueryPointConfig,
};

#[test]
fn bulk_loaded_tree_and_filter_walks_match_recorded_shape() {
    let building = generate_building(&BuildingConfig::with_floors(5)).unwrap();
    let store = generate_objects(
        &building,
        &ObjectConfig {
            count: 500,
            radius: 10.0,
            instances: 8,
            seed: 7,
        },
    )
    .unwrap();
    let index = CompositeIndex::build(&building.space, &store, IndexConfig::default()).unwrap();
    let tree = index.rtree();
    tree.validate();
    assert_eq!(
        (tree.len(), tree.height(), tree.node_count()),
        (1944, 3, 107)
    );

    let queries = generate_query_points(&building, &QueryPointConfig { count: 3, seed: 11 });
    // (r, use_skeleton) → (nodes visited, entries checked, |Ro|, |Rp|,
    // bucket entries scanned).
    let cases = [
        ((50.0, true), (7, 75, 2, 5, 3)),
        ((100.0, true), (11, 120, 12, 20, 32)),
        ((150.0, false), (34, 515, 71, 91, 187)),
    ];
    for (&q, ((r, use_skeleton), want)) in queries.iter().zip(cases) {
        let out = index.range_search(&building.space, q, r, use_skeleton);
        let (nodes_visited, entries_checked, objects, partitions, objects_checked) = want;
        assert_eq!(
            out.stats,
            SearchStats {
                nodes_visited,
                entries_checked
            },
            "q={q}"
        );
        assert_eq!(
            (out.objects.len(), out.partitions.len(), out.objects_checked),
            (objects, partitions, objects_checked),
            "q={q}"
        );
    }
}
