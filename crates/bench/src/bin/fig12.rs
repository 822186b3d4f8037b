//! Figure 12 — iRQ query execution time.
//!
//! * (a) `T_q` vs `|O|` ∈ {10K, 20K, 30K} for r ∈ {50, 100, 150};
//! * (b) phase breakdown at the defaults;
//! * (c) `T_q` vs uncertainty-region diameter ∈ {10, 20, 30};
//! * (d) `T_q` vs partitions ∈ {1K, 2K, 3K} (floors 10/20/30).
//!
//! `IDQ_SCALE=0.1` for a smoke run; default is paper scale.

use idq_bench::{
    build_world, klabel, mean_irq, scale_from_env, scaled_floors, scaled_objects, scaled_sweep,
};
use idq_workloads::{PaperDefaults, SeriesTable};

fn main() {
    let scale = scale_from_env();
    let d = PaperDefaults::default();
    let queries = d.queries;
    eprintln!("fig12: IDQ_SCALE={scale}");

    // ---- (a) Tq vs |O| for r ∈ {50,100,150}; (b) breakdown -----------------
    let mut a = SeriesTable::new(
        "Fig 12(a) iRQ Tq (ms) vs |O|, warm caches",
        "|O|",
        &["r=50", "r=100", "r=150"],
    );
    let mut b = SeriesTable::new(
        "Fig 12(b) iRQ phase breakdown (ms) at r=100, warm caches",
        "|O|",
        &["Filtering", "Subgraph", "Pruning", "Refinement"],
    );
    for objs in scaled_sweep(&PaperDefaults::OBJECT_SWEEP, |n| scaled_objects(n, scale)) {
        let world = build_world(scaled_floors(d.floors, scale), objs, d.radius, queries, 42);
        let mut row = Vec::new();
        for &r in &PaperDefaults::RANGE_SWEEP {
            let (ms, stats) = mean_irq(&world, r, &world.options);
            row.push(ms);
            if (r - d.range_r).abs() < 1e-9 {
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

    // ---- (c) Tq vs uncertainty diameter ------------------------------------
    let mut c = SeriesTable::new(
        "Fig 12(c) iRQ Tq (ms) vs uncertainty region (diameter, m), warm caches",
        "diam",
        &["r=50", "r=100", "r=150"],
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
        for &r in &PaperDefaults::RANGE_SWEEP {
            let (ms, _) = mean_irq(&world, r, &world.options);
            row.push(ms);
        }
        c.push_row(format!("{}", (radius * 2.0) as i64), row);
    }
    println!("{}", c.render());

    // ---- (d) Tq vs number of partitions -------------------------------------
    let mut dtab = SeriesTable::new(
        "Fig 12(d) iRQ Tq (ms) vs partitions (floors 10/20/30), warm caches",
        "parts",
        &["r=50", "r=100", "r=150"],
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
        for &r in &PaperDefaults::RANGE_SWEEP {
            let (ms, _) = mean_irq(&world, r, &world.options);
            row.push(ms);
        }
        dtab.push_row(format!("{parts}"), row);
    }
    println!("{}", dtab.render());
}
