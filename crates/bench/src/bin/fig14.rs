//! Figure 14 — effectiveness of the indoor distance bounds.
//!
//! * (a) iRQ filtering & pruning ratios vs `|O|`;
//! * (b) iRQ `T_q` with vs without the pruning phase;
//! * (c) ikNNQ filtering & pruning ratios vs `|O|`;
//! * (d) ikNNQ `T_q` with vs without the pruning phase.

use idq_bench::{
    build_world, klabel, mean_irq, mean_knn, scale_from_env, scaled_floors, scaled_objects,
    scaled_sweep,
};
use idq_workloads::{PaperDefaults, SeriesTable};

fn main() {
    let scale = scale_from_env();
    let d = PaperDefaults::default();
    eprintln!("fig14: IDQ_SCALE={scale}");
    let k_default = ((d.k as f64 * scale) as usize).max(5);

    let mut a = SeriesTable::new(
        "Fig 14(a) iRQ pruning ratio (%) vs |O| (r=100), warm caches",
        "|O|",
        &["Filtering", "Pruning"],
    );
    let mut b = SeriesTable::new(
        "Fig 14(b) iRQ Tq (ms): pruning phase on/off (r=100), warm caches",
        "|O|",
        &["withPruning", "withoutPruning"],
    );
    let mut c = SeriesTable::new(
        "Fig 14(c) ikNNQ pruning ratio (%) vs |O|, warm caches",
        "|O|",
        &["Filtering", "Pruning"],
    );
    let mut dt = SeriesTable::new(
        "Fig 14(d) ikNNQ Tq (ms): pruning phase on/off, warm caches",
        "|O|",
        &["withPruning", "withoutPruning"],
    );

    for objs in scaled_sweep(&PaperDefaults::OBJECT_SWEEP, |n| scaled_objects(n, scale)) {
        let world = build_world(
            scaled_floors(d.floors, scale),
            objs,
            d.radius,
            d.queries,
            42,
        );

        let (with_ms, stats) = mean_irq(&world, d.range_r, &world.options);
        let (without_ms, _) = mean_irq(&world, d.range_r, &world.options.without_pruning());
        a.push_row(
            klabel(objs),
            vec![
                stats.filtering_ratio() * 100.0,
                stats.pruning_ratio() * 100.0,
            ],
        );
        b.push_row(klabel(objs), vec![with_ms, without_ms]);

        let (with_ms, stats) = mean_knn(&world, k_default, &world.options);
        let (without_ms, _) = mean_knn(&world, k_default, &world.options.without_pruning());
        c.push_row(
            klabel(objs),
            vec![
                stats.filtering_ratio() * 100.0,
                stats.pruning_ratio() * 100.0,
            ],
        );
        dt.push_row(klabel(objs), vec![with_ms, without_ms]);
    }
    println!("{}", a.render());
    println!("{}", b.render());
    println!("{}", c.render());
    println!("{}", dt.render());
}
