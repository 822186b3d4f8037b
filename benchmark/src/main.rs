//! The repo benchmark: one process per workload, everything from
//! `--seed`, the result as one JSON line on standard output.
//!
//! ```text
//! idq-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! See `README.md` beside this package for what is measured and why.

mod check;
mod metrics;
mod ops;
mod pacer;
mod probes;
mod stats;
mod storage_probe;
mod streams;
mod trace;
mod workloads;
mod world;

use metrics::{resolve, Headlined, Measured, Sink, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use workloads::{Size, Workload};

/// Traced passes only: share of `--seconds` each companion is timed
/// for; the focus gets what the companions leave.
const COMPANION_SHARE: f64 = 0.06;
/// Companions always get this seed, whatever `--seed` says: they fill in
/// the per-layer metrics of layers the focus does not exercise.
const COMPANION_SEED: u64 = 0x5EED;
/// A timed window is cut into this many rounds; every end-to-end metric
/// is computed per round and reported as the median of the rounds.
const ROUNDS: usize = 9;
/// The focus runs untimed for this share of `--seconds` before round one.
const FOCUS_WARM_UP_SHARE: f64 = 0.05;
/// A companion runs untimed for this share of a slice before each slice.
const WARM_UP_SHARE: f64 = 0.3;
/// Set-up is repeated up to this many times (median reported), as long
/// as the repeats so far took less than [`SETUP_PATIENCE`].
const SETUP_REPEATS: usize = 15;
const SETUP_PATIENCE: Duration = Duration::from_millis(2500);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut given: BTreeMap<String, String> = BTreeMap::new();
    let mut size = Size::Full;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--smoke" => size = Size::Smoke,
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                let value = args.next().ok_or(format!("{flag} needs a value"))?;
                given.insert(flag, value);
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let take = |flag: &str| given.get(flag).ok_or(format!("{flag} is required"));
    let workload = take("--workload")?.clone();
    if !workloads::ALL.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            workloads::ALL.join(", ")
        ));
    }
    let seed = take("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: expected 0 < s ≤ 600"));
    }
    let trace = match take("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        size,
    })
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Folds drained spans into a sink under their names (ms), and returns
/// them for the trace file.
fn fold_spans(sink: &mut Sink) -> Vec<trace::Span> {
    let spans = trace::drain();
    for s in &spans {
        sink.add(s.name, s.ms());
    }
    spans
}

/// Prints `name count total self` per span name, widest total first.
fn print_span_table(title: &str, spans: &[trace::Span]) {
    let mut by_name: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
    for (name, total, own) in trace::self_times(spans) {
        let e = by_name.entry(name).or_default();
        e.0 += 1;
        e.1 += total;
        e.2 += own;
    }
    let mut rows: Vec<_> = by_name.into_iter().collect();
    rows.sort_by(|a, b| b.1 .1.total_cmp(&a.1 .1));
    eprintln!("spans of {title}:");
    eprintln!(
        "{:<34} {:>8} {:>12} {:>12}",
        "name", "count", "total ms", "self ms"
    );
    for (name, (count, total, own)) in rows {
        eprintln!("{name:<34} {count:>8} {total:>12.3} {own:>12.3}");
    }
}

/// A workload being run: its per-round sinks, what it recorded outside
/// the rounds, and its spans.
struct Running {
    workload: Box<dyn Workload>,
    rounds: Vec<Sink>,
    pooled: Sink,
    spans: Vec<trace::Span>,
}

impl Running {
    /// One more timed round of `slice`, recorded into a sink of its own.
    fn round(&mut self, slice: Duration) {
        let mut round = Sink::default();
        self.workload.run(slice, &mut round);
        self.spans.extend(fold_spans(&mut round));
        self.rounds.push(round);
    }

    /// Probes (traced passes), then the correctness gate.
    fn finish(mut self, probe: bool) -> (Measured, Vec<trace::Span>) {
        if probe {
            self.workload.probe(&mut self.pooled);
        }
        self.workload.finish(&mut self.pooled);
        self.spans.extend(fold_spans(&mut self.pooled));
        (Measured::new(self.rounds, self.pooled), self.spans)
    }
}

fn run(args: &Args) -> Result<String, String> {
    trace::enable(args.trace);

    let headline = workloads::headline(&args.workload).ok_or("unknown workload")?;
    if !workloads::DRIVEN.contains(&args.workload.as_str()) {
        eprintln!(
            "{}: a workload to run by hand; BENCHMARK.json names {}",
            args.workload,
            workloads::DRIVEN.join(", ")
        );
    }

    // ---- set-up ---------------------------------------------------------------
    // An untraced pass runs the workload asked for and nothing else. A
    // traced pass also sets up every other workload at smoke size, first:
    // the contract makes a traced run print every per-layer metric, and
    // the focus does not exercise every layer.
    let mut companions: Vec<(&str, Running)> = Vec::new();
    for &name in workloads::ALL
        .iter()
        .filter(|&&n| args.trace && n != args.workload)
    {
        let mut pooled = Sink::default();
        let workload = workloads::setup(name, Size::Smoke, COMPANION_SEED, &mut pooled)
            .ok_or(format!("unknown workload {name}"))?;
        let spans = fold_spans(&mut pooled);
        companions.push((
            name,
            Running {
                workload,
                rounds: Vec::new(),
                pooled,
                spans,
            },
        ));
    }
    let mut pooled = Sink::default();
    let mut setups = Vec::new();
    let mut spent = Duration::ZERO;
    let mut focus: Option<Box<dyn Workload>> = None;
    while setups.len() < SETUP_REPEATS && (setups.is_empty() || spent < SETUP_PATIENCE) {
        // The previous repeat's world goes first: two never coexist.
        drop(focus.take());
        trace::drain();
        pooled = Sink::default();
        let t = Instant::now();
        focus = workloads::setup(&args.workload, args.size, args.seed, &mut pooled);
        setups.push(t.elapsed().as_secs_f64());
        spent += t.elapsed();
    }
    let spans = fold_spans(&mut pooled);
    let mut focus = Running {
        workload: focus.ok_or("unknown workload")?,
        rounds: Vec::new(),
        pooled,
        spans,
    };
    let setup_s = stats::median(&setups);
    eprintln!(
        "{}: set up in {setups:?} s (median reported)",
        args.workload
    );

    // ---- timed window ---------------------------------------------------------
    // ROUNDS rounds of one focus slice (and, traced, one slice of each
    // companion). Every end-to-end metric is computed per round and
    // reported as the median of the rounds: this host's speed wanders by
    // tens of percent for seconds at a time, and the median of rounds that
    // span the whole run ignores the minority that met such a stretch.
    let companion_slice = Duration::from_secs_f64(args.seconds * COMPANION_SHARE / ROUNDS as f64);
    let focus_slice = Duration::from_secs_f64(
        args.seconds * (1.0 - FOCUS_WARM_UP_SHARE - COMPANION_SHARE * companions.len() as f64)
            / ROUNDS as f64,
    );
    trace::enable(false);
    focus.workload.run(
        Duration::from_secs_f64(args.seconds * FOCUS_WARM_UP_SHARE),
        &mut Sink::default(),
    );
    // Operations and seconds of the focus: [traced rounds, untraced base].
    let mut ops = [0.0; 2];
    let mut secs = [0.0; 2];
    for round in 0..ROUNDS {
        // A traced pass runs its last round untraced, on the same op
        // stream and in the same steady state, as the base of the overhead
        // ratio; that round's samples are not reported.
        let base_round = args.trace && round == ROUNDS - 1;
        trace::enable(args.trace && !base_round);
        let t = Instant::now();
        focus.round(focus_slice);
        secs[usize::from(base_round)] += t.elapsed().as_secs_f64();
        ops[usize::from(base_round)] += focus.rounds[round].attempted as f64;
        for (_, companion) in &mut companions {
            // Untimed first steps: the focus just evicted its caches.
            trace::enable(false);
            companion
                .workload
                .run(companion_slice.mul_f64(WARM_UP_SHARE), &mut Sink::default());
            trace::enable(args.trace);
            companion.round(companion_slice);
        }
    }
    trace::enable(args.trace);
    if args.trace {
        let base = focus.rounds.pop().expect("ROUNDS > 0");
        focus.pooled.attempted += base.attempted;
        focus.pooled.failed += base.failed;
        focus.pooled.add(
            "harness.trace_overhead",
            (ops[1] / secs[1]) / (ops[0] / secs[0]),
        );
    }

    // ---- correctness gate, recovery -------------------------------------------
    focus.pooled.add("setup_s", setup_s);
    let (mut focus, focus_spans) = focus.finish(args.trace);
    let companions: Vec<(&str, Measured, Vec<trace::Span>)> = companions
        .into_iter()
        .map(|(name, running)| {
            let (measured, spans) = running.finish(args.trace);
            (name, measured, spans)
        })
        .collect();
    focus.pooled.add("peak_rss_mb", peak_rss_mb());

    // ---- report ---------------------------------------------------------------
    let others: Vec<&Measured> = companions.iter().map(|c| &c.1).collect();
    let mut entries = Vec::new();
    let mut report = |name: &str, unit: &str, note: String, value: Option<(f64, bool)>| {
        let (value, from_focus) = value.ok_or(format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is {value}"));
        }
        eprintln!(
            "{name:<36} {value:>16.6} {unit:<6} {note:<22} {}",
            if from_focus { "" } else { "(smoke companion)" }
        );
        entries.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
        Ok::<(), String>(())
    };
    if args.trace {
        for m in &PER_LAYER {
            let value = resolve(&focus, &others, m.source);
            report(m.name, m.unit, format!("{} is better", m.better), value)?;
        }
    } else {
        eprintln!(
            "{}: op = {}; throughput = {} per second",
            args.workload, headline.what, headline.counts
        );
        for m in &END_TO_END {
            let note = format!("{} is better, ±{}", m.better, m.bound);
            let source = headline.source(m.reads);
            report(
                m.name,
                m.unit,
                note,
                focus.end_to_end(source).map(|v| (v, true)),
            )?;
            let per_round = focus.per_round(source);
            if !per_round.is_empty() {
                let listed: Vec<String> = per_round.iter().map(|v| format!("{v:.4}")).collect();
                eprintln!("{:<36} rounds: {}", "", listed.join(" "));
            }
        }
        // The sample count behind the tail, what it would support, and the
        // whole ladder two ways: median of rounds, and pooled.
        let n = focus.pooled.count(headline.op);
        let ladder = |of: &dyn Fn(f64) -> f64| -> String {
            let steps: Vec<String> = [50.0, 75.0, 90.0, 95.0, 99.0]
                .iter()
                .map(|&p| format!("p{p}={:.3}", of(p)))
                .collect();
            steps.join(" ")
        };
        eprintln!(
            "samples: {} n={n} in {} rounds, supports p{}",
            headline.op,
            focus.rounds.len(),
            stats::highest_supported(n)
        );
        eprintln!(
            "  median of rounds: {}",
            ladder(&|p| focus
                .end_to_end(headline.source(Headlined::Op(p)))
                .unwrap_or(f64::NAN))
        );
        eprintln!(
            "  pooled:           {}",
            ladder(&|p| focus
                .pooled
                .eval(headline.source(Headlined::Op(p)))
                .unwrap_or(f64::NAN))
        );
    }
    if args.trace {
        let out = world::out_dir();
        std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
        let path = out.join(format!("trace-{}.jsonl", args.workload));
        let companion_names: Vec<String> = companions
            .iter()
            .map(|c| format!("companion:{}", c.0))
            .collect();
        let mut phases: Vec<(&str, &[trace::Span])> =
            vec![(args.workload.as_str(), focus_spans.as_slice())];
        for (name, c) in companion_names.iter().zip(&companions) {
            phases.push((name.as_str(), c.2.as_slice()));
        }
        trace::write_jsonl(&path, &phases).map_err(|e| format!("{}: {e}", path.display()))?;
        print_span_table(&args.workload, &focus_spans);
        eprintln!("trace written to {}", path.display());
    }
    let attempted: u64 =
        focus.pooled.attempted + others.iter().map(|w| w.pooled.attempted).sum::<u64>();
    let failed: u64 = focus.pooled.failed + others.iter().map(|w| w.pooled.failed).sum::<u64>();
    eprintln!("ops {attempted} failed {failed}");
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        entries.join(", ")
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("idq-benchmark: {e}");
            eprintln!(
                "usage: idq-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("idq-benchmark: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload's untraced pass reports every end-to-end metric
    /// from its own operations; one traced pass covers all six workloads
    /// (the other five ride along as companions) and every per-layer
    /// metric resolves. Every check passes and the line has the
    /// contract's shape.
    #[test]
    fn every_metric_is_reported_and_every_check_passes_at_smoke_size() {
        let _exclusive = trace::EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
        let passes = workloads::ALL
            .iter()
            .map(|&w| (w, false))
            .chain([("paper_knn", true), ("standing_local", true)]);
        for (workload, traced) in passes {
            let args = Args {
                workload: workload.to_string(),
                seed: 7,
                seconds: if traced { 4.0 } else { 1.0 },
                trace: traced,
                size: Size::Smoke,
            };
            let line = run(&args).expect("the run completes");
            assert!(
                line.starts_with("{\"correct\": true, \"attempted\": "),
                "{line}"
            );
            assert!(line.contains("\"failed\": 0, \"metrics\": {"), "{line}");
            let names: Vec<&str> = if traced {
                PER_LAYER.iter().map(|m| m.name).collect()
            } else {
                END_TO_END.iter().map(|m| m.name).collect()
            };
            for name in &names {
                assert!(
                    line.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload}: {name}"
                );
            }
            assert_eq!(line.matches("\"value\": ").count(), names.len());
        }
    }
}
