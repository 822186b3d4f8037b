//! Figure 13 — ikNNQ query execution time.
//!
//! * (a) `T_q` vs `|O|` ∈ {10K, 20K, 30K} for k ∈ {50, 100, 150};
//! * (b) phase breakdown at the defaults;
//! * (c) `T_q` vs uncertainty-region diameter ∈ {10, 20, 30};
//! * (d) `T_q` vs partitions ∈ {1K, 2K, 3K}.

use idq_bench::{
    build_world, klabel, mean_knn, scale_from_env, scaled_floors, scaled_objects, scaled_sweep,
};
use idq_workloads::{PaperDefaults, SeriesTable};

fn main() {
    let scale = scale_from_env();
    let d = PaperDefaults::default();
    let queries = d.queries;
    eprintln!("fig13: IDQ_SCALE={scale}");

    let scaled_k = |k: usize| ((k as f64 * scale) as usize).max(5);
    let k_sweep = scaled_sweep(&PaperDefaults::K_SWEEP, scaled_k);
    let k_default = scaled_k(d.k);

    // ---- (a) Tq vs |O|; (b) breakdown ---------------------------------------
    let series: Vec<String> = k_sweep.iter().map(|k| format!("k={k}")).collect();
    let series_ref: Vec<&str> = series.iter().map(String::as_str).collect();
    let mut a = SeriesTable::new(
        "Fig 13(a) ikNNQ Tq (ms) vs |O|, warm caches",
        "|O|",
        &series_ref,
    );
    let mut b = SeriesTable::new(
        "Fig 13(b) ikNNQ phase breakdown (ms) at default k, warm caches",
        "|O|",
        &["Filtering", "Subgraph", "Pruning", "Refinement"],
    );
    for objs in scaled_sweep(&PaperDefaults::OBJECT_SWEEP, |n| scaled_objects(n, scale)) {
        let world = build_world(scaled_floors(d.floors, scale), objs, d.radius, queries, 42);
        let mut row = Vec::new();
        for &k in &k_sweep {
            let (ms, stats) = mean_knn(&world, k, &world.options);
            row.push(ms);
            if k == k_default {
                b.push_row(
                    klabel(objs),
                    vec![
                        stats.filtering_ms,
                        stats.subgraph_ms,
                        stats.pruning_ms,
                        stats.refinement_ms,
                    ],
                );
            }
        }
        a.push_row(klabel(objs), row);
    }
    println!("{}", a.render());
    println!("{}", b.render());

    // ---- (c) Tq vs uncertainty diameter --------------------------------------
    let mut c = SeriesTable::new(
        "Fig 13(c) ikNNQ Tq (ms) vs uncertainty region (diameter, m), warm caches",
        "diam",
        &series_ref,
    );
    for &radius in &PaperDefaults::RADIUS_SWEEP {
        let world = build_world(
            scaled_floors(d.floors, scale),
            scaled_objects(d.objects, scale),
            radius,
            queries,
            42,
        );
        let mut row = Vec::new();
        for &k in &k_sweep {
            let (ms, _) = mean_knn(&world, k, &world.options);
            row.push(ms);
        }
        c.push_row(format!("{}", (radius * 2.0) as i64), row);
    }
    println!("{}", c.render());

    // ---- (d) Tq vs number of partitions ---------------------------------------
    let mut dtab = SeriesTable::new(
        "Fig 13(d) ikNNQ Tq (ms) vs partitions (floors 10/20/30), warm caches",
        "parts",
        &series_ref,
    );
    for floors in scaled_sweep(&PaperDefaults::FLOOR_SWEEP, |f| scaled_floors(f, scale)) {
        let world = build_world(
            floors,
            scaled_objects(d.objects, scale),
            d.radius,
            queries,
            42,
        );
        let parts = world.building.partition_count();
        let mut row = Vec::new();
        for &k in &k_sweep {
            let (ms, _) = mean_knn(&world, k, &world.options);
            row.push(ms);
        }
        dtab.push_row(format!("{parts}"), row);
    }
    println!("{}", dtab.render());
}
