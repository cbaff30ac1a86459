//! The supersym benchmark: four workloads that use the system the way its
//! users do (a sweep grid, compile-and-certify, `titalc stats`, and
//! `profile --timeline`), each checked against committed references.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep-grid|compile-suite|stats-suite|timeline-suite|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --write-refs
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! metrics and the layer budget. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. See
//! `README.md` for what each workload and metric is for.

mod common;
mod compile;
mod measure;
mod refs;
mod stats;
mod sweep;
mod timeline;

use measure::{median, peak_rss_mb, quantile, timed, Tracer};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use supersym::trace::{JsonObject, JsonValue};

/// Set-ups per run, `setup_s` being their median. They run between the
/// timed iterations, taking `SETUP_SHARE` of the run's time, so that they
/// sample the same stretch of host time as `wall_s` does; at least
/// `MIN_SETUPS` in all.
const SETUP_SHARE: f64 = 0.05;
const MIN_SETUPS: usize = 5;
/// Timed iterations per run even when `--seconds` runs out first.
const MIN_ITERS: usize = 3;

const WORKLOADS: [&str; 4] = [
    "sweep-grid",
    "compile-suite",
    "stats-suite",
    "timeline-suite",
];

/// One workload, as the run loop sees it.
pub trait Workload: Sized {
    type Output;
    /// Everything done before the first timed iteration.
    fn setup(seed: u64, tracer: &mut Tracer) -> Self;
    /// One timed iteration.
    fn iterate(&mut self, tracer: &mut Tracer) -> Self::Output;
    /// Checks one iteration's output, outside the timed region.
    fn check(&mut self, output: Self::Output) -> Checked;
    /// Checks too costly for every iteration; run once, after the peak
    /// memory reading.
    fn final_check(&mut self) -> Checked {
        Checked::default()
    }
}

/// What one check found: operations attempted and failed, the
/// deterministic work counters of the iteration, and failure messages.
#[derive(Debug, Default)]
pub struct Checked {
    pub attempted: u64,
    pub failed: u64,
    pub counters: BTreeMap<&'static str, u64>,
    pub errors: Vec<String>,
    /// Outputs whose check could not finish within its time box.
    pub unfinished: u64,
}

impl Checked {
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }
}

/// Running totals over a whole run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    counters: Option<BTreeMap<&'static str, u64>>,
    unfinished: u64,
}

impl Tally {
    /// Adds one check; work counters must repeat exactly between
    /// iterations, and a counter that drifts is a failed operation.
    fn add(&mut self, mut checked: Checked) {
        if !checked.counters.is_empty() {
            match &self.counters {
                None => self.counters = Some(checked.counters.clone()),
                Some(first) if *first != checked.counters => checked.fail(format!(
                    "work counters changed between iterations: {first:?} vs {:?}",
                    checked.counters
                )),
                Some(_) => {}
            }
        }
        self.attempted += checked.attempted;
        self.failed += checked.failed;
        self.unfinished += checked.unfinished;
        for error in checked.errors {
            if self.errors.len() < 8 {
                self.errors.push(error);
            }
        }
    }

    fn counter(&self, name: &str) -> u64 {
        self.counters
            .as_ref()
            .and_then(|c| c.get(name).copied())
            .unwrap_or(0)
    }
}

struct Report {
    tally: Tally,
    metrics: Vec<(String, f64, &'static str)>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut iter = argv.iter();
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--write-refs"] {
        refs::write_all();
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&argv);
    }
    let report = match args.workload.as_str() {
        "sweep-grid" => run::<sweep::SweepGrid>(&args),
        "compile-suite" => run::<compile::CompileSuite>(&args),
        "stats-suite" => run::<stats::StatsSuite>(&args),
        _ => run::<timeline::TimelineSuite>(&args),
    };
    print_report(&args.workload, &report);
    ExitCode::SUCCESS
}

/// `--workload all`: each workload in a process of its own, so peak
/// memory and warm caches do not carry over between workloads.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut results = JsonObject::new();
    let mut correct = true;
    for workload in WORKLOADS {
        let mut child_args: Vec<String> = argv.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("--workload was parsed");
        child_args[at + 1] = workload.to_string();
        let output = Command::new(&exe)
            .args(&child_args)
            .output()
            .expect("spawn a workload process");
        let stdout = String::from_utf8_lossy(&output.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let last = stdout.lines().last().unwrap_or_default();
        match supersym::trace::parse_json(last) {
            Ok(doc) if output.status.success() => {
                correct &= doc.get("correct").and_then(JsonValue::as_bool) == Some(true);
                results = results.field(workload, doc);
            }
            _ => {
                eprintln!("perfbench: workload {workload} failed ({})", output.status);
                return ExitCode::FAILURE;
            }
        }
    }
    let summary = JsonObject::new()
        .field("correct", JsonValue::Bool(correct))
        .field("workloads", results.build());
    println!("{}", summary.build());
    ExitCode::SUCCESS
}

fn run<W: Workload>(args: &Args) -> Report {
    if args.trace {
        run_traced::<W>(args)
    } else {
        run_untraced::<W>(args)
    }
}

/// The end-to-end run: a set-up, one warm-up iteration, then timed
/// iterations for `--seconds` with more set-ups between them, all with
/// tracing off. Every iteration runs on the first set-up's workload, and
/// every output is checked.
///
/// `wall_s` and `cpu_s` are the sum over an iteration's parts of each
/// part's median over the run: a stretch of slow host time then moves only
/// the parts it fell on, where the median of whole iterations, of which a
/// long workload fits only a few in a run, would follow it.
fn run_untraced<W: Workload>(args: &Args) -> Report {
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let setup = |setups: &mut Vec<f64>| {
        let (workload, ns) = timed(|| W::setup(args.seed, &mut Tracer::off()));
        setups.push(ns / 1e9);
        workload
    };
    let mut workload = setup(&mut setups);
    let warm = workload.iterate(&mut Tracer::off());
    tally.add(workload.check(warm));

    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let mut walls = Vec::new();
    let mut parts = PartTimes::default();
    let mut setup_s = 0.0;
    while walls.len() < MIN_ITERS || started.elapsed() < budget {
        while setup_s < SETUP_SHARE * started.elapsed().as_secs_f64() {
            let start = Instant::now();
            drop(setup(&mut setups));
            setup_s += start.elapsed().as_secs_f64();
        }
        let mut tracer = Tracer::off();
        let wall = Instant::now();
        let output = workload.iterate(&mut tracer);
        walls.push(wall.elapsed().as_secs_f64());
        parts.add(tracer.parts);
        tally.add(workload.check(output));
    }
    while setups.len() < MIN_SETUPS {
        drop(setup(&mut setups));
    }
    let peak = peak_rss_mb();
    tally.add(workload.final_check());
    let (wall_s, cpu_s) = parts.sum_of_medians();
    eprintln!(
        "perfbench: {} set-ups, setup_s quartiles {:.4e} {:.4e} {:.4e}; {} timed iterations of {} parts; median whole iteration {:.4} s, sum of part medians {wall_s:.4} s",
        setups.len(),
        quantile(&setups, 0.25),
        median(&setups),
        quantile(&setups, 0.75),
        walls.len(),
        parts.wall.len(),
        median(&walls),
    );
    Report {
        tally,
        metrics: named(&[
            ("setup_s", median(&setups), "s"),
            ("wall_s", wall_s, "s"),
            ("cpu_s", cpu_s, "s"),
            ("peak_rss_mb", peak, "MB"),
        ]),
    }
}

/// Wall and CPU seconds of each part of an iteration, over a run.
#[derive(Default)]
struct PartTimes {
    wall: Vec<Vec<f64>>,
    cpu: Vec<Vec<f64>>,
}

impl PartTimes {
    fn add(&mut self, parts: Vec<(f64, f64)>) {
        if self.wall.is_empty() {
            self.wall = vec![Vec::new(); parts.len()];
            self.cpu = vec![Vec::new(); parts.len()];
        }
        assert_eq!(parts.len(), self.wall.len(), "same parts every iteration");
        for (i, (wall, cpu)) in parts.into_iter().enumerate() {
            self.wall[i].push(wall);
            self.cpu[i].push(cpu);
        }
    }

    /// One iteration's wall and CPU time, each part at its median.
    fn sum_of_medians(&self) -> (f64, f64) {
        let sum = |parts: &[Vec<f64>]| parts.iter().map(|p| median(p)).sum();
        (sum(&self.wall), sum(&self.cpu))
    }
}

/// The budget layers, in report order. A layer a workload does not
/// exercise reports 0.
const LAYERS: [&str; 15] = [
    "workloads.gen",
    "lang.parse",
    "core.front",
    "core.back",
    "verify.check",
    "verify.certify",
    "sim.exec",
    "sim.exact",
    "sim.simulate",
    "trace.sink",
    "trace.metrics",
    "trace.timeline",
    "sweep.engine",
    "sweep.journal",
    "sweep.tail_idle",
];

/// Deterministic counters reported by the traced run.
const COUNTS: [&str; 13] = [
    "core.static_instrs",
    "verify.certify.differential_passes",
    "sim.instructions",
    "sim.block.hits",
    "sim.block.misses",
    "sim.block.fallbacks",
    "sim.block.evictions",
    "sim.block.overflows",
    "sim.block.replayed_instructions",
    "trace.issue_events",
    "trace.timeline.bytes",
    "sweep.journal_bytes",
    "sweep.quarantined",
];

/// The per-layer run: alternating untraced and traced cycles (set-up plus
/// one iteration each) for `--seconds`. Untraced cycles give the rates and
/// the base of `trace_overhead`; traced cycles give the layer budget.
fn run_traced<W: Workload>(args: &Args) -> Report {
    let mut tally = Tally::default();
    let mut workload = W::setup(args.seed, &mut Tracer::off());
    let warm = workload.iterate(&mut Tracer::off());
    tally.add(workload.check(warm));

    let budget = Duration::from_secs_f64(args.seconds);
    let started = Instant::now();
    let (mut plain_cycles, mut plain_iters, mut traced_cycles) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut tracers: Vec<Tracer> = Vec::new();
    while tracers.is_empty() || started.elapsed() < budget {
        let cycle = Instant::now();
        let mut w = W::setup(args.seed, &mut Tracer::off());
        let (output, iter_ns) = timed(|| w.iterate(&mut Tracer::off()));
        plain_cycles.push(cycle.elapsed().as_secs_f64());
        plain_iters.push(iter_ns / 1e9);
        tally.add(w.check(output));

        let mut tracer = Tracer::on();
        let cycle = Instant::now();
        let mut w = W::setup(args.seed, &mut tracer);
        let output = w.iterate(&mut tracer);
        traced_cycles.push(cycle.elapsed().as_secs_f64());
        let mut checked = w.check(output);
        if let Some(first) = tracers
            .first()
            .filter(|first| first.counts != tracer.counts)
        {
            checked.fail(format!(
                "traced work counters changed: {:?} vs {:?}",
                first.counts, tracer.counts
            ));
        }
        tally.add(checked);
        tracers.push(tracer);
        workload = w;
    }
    tally.add(workload.final_check());

    let cycles = tracers.len() as f64;
    let mean_layer = |name: &str| {
        tracers
            .iter()
            .map(|t| t.layers.get(name).copied().unwrap_or(0.0))
            .sum::<f64>()
            / cycles
    };
    let mean_aux = |name: &str| {
        tracers
            .iter()
            .map(|t| t.aux.get(name).copied().unwrap_or(0.0))
            .sum::<f64>()
            / cycles
    };
    let counts = &tracers[0].counts;
    let count = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let capacity = (traced_cycles.iter().sum::<f64>() * 1e9
        + tracers.iter().map(|t| t.extra_capacity_ns).sum::<f64>())
        / cycles;
    let attributed: f64 = LAYERS.iter().map(|l| mean_layer(l)).sum();
    let unattributed = capacity - attributed;
    print_budget(&LAYERS.map(|l| (l, mean_layer(l))), unattributed, capacity);

    let iter_s = median(&plain_iters);
    let events = count("trace.issue_events");
    let items: Vec<f64> = tracers
        .iter()
        .flat_map(|t| t.item_ms.iter().copied())
        .collect();
    let records = count("sweep.records");
    let mut metrics = named(&[
        (
            "trace_overhead",
            median(&traced_cycles) / median(&plain_cycles) - 1.0,
            "ratio",
        ),
        ("unattributed_share", per(unattributed, capacity), "ratio"),
        ("budget_ms", capacity / 1e6, "ms"),
        ("unattributed_ms", unattributed / 1e6, "ms"),
        (
            "fail_ratio",
            per(tally.failed as f64, tally.attempted as f64),
            "ratio",
        ),
        ("check.unfinished", tally.unfinished as f64, "count"),
        (
            "sim_minstr_per_s",
            per(tally.counter("sim.instructions") as f64 / 1e6, iter_s),
            "Minstr/s",
        ),
        (
            "records_per_s",
            per(tally.counter("sweep.records") as f64, iter_s),
            "1/s",
        ),
        (
            "compile_kinstr_per_s",
            per(tally.counter("core.static_instrs") as f64 / 1e3, iter_s),
            "kinstr/s",
        ),
    ]);
    for layer in LAYERS {
        metrics.push((format!("{layer}_ms"), mean_layer(layer) / 1e6, "ms"));
    }
    for name in COUNTS {
        metrics.push((name.to_string(), count(name), "count"));
    }
    let probe_instrs = count("probe.instructions");
    let hits = count("sim.block.hits");
    let timeline_ns = mean_aux("delta.timeline");
    metrics.extend(named(&[
        (
            "sim.block.hit_rate",
            per(hits, hits + count("sim.block.misses")),
            "ratio",
        ),
        (
            "sim.block.replay_share",
            per(
                count("sim.block.replayed_instructions"),
                count("sim.instructions"),
            ),
            "ratio",
        ),
        (
            "sim.block.fallback_rate",
            per(count("sim.block.fallbacks"), hits),
            "ratio",
        ),
        (
            "sim.exec.ns_per_instr",
            per(mean_aux("probe.exec"), probe_instrs),
            "ns",
        ),
        (
            "sim.exact.ns_per_instr",
            per(mean_aux("probe.exact"), probe_instrs),
            "ns",
        ),
        (
            "sim.simulate.ns_per_instr",
            per(mean_aux("probe.simulate"), probe_instrs),
            "ns",
        ),
        (
            "trace.sink.ns_per_event",
            per(mean_aux("delta.sink"), events),
            "ns",
        ),
        (
            "trace.metrics.ns_per_event",
            per(mean_aux("delta.metrics"), events),
            "ns",
        ),
        (
            "trace.timeline.ns_per_event",
            per(timeline_ns, events),
            "ns",
        ),
        (
            "trace.timeline.mb_per_s",
            per(count("trace.timeline.bytes") / 1e6, timeline_ns / 1e9),
            "MB/s",
        ),
        ("sweep.item_ms.p50", quantile(&items, 0.5), "ms"),
        ("sweep.item_ms.p99", quantile(&items, 0.99), "ms"),
        (
            "sweep.cell.back_ms",
            per(mean_aux("sweep.cell.back") / 1e6, records),
            "ms",
        ),
        (
            "sweep.cell.sim_ms",
            per(mean_aux("sweep.cell.sim") / 1e6, records),
            "ms",
        ),
        (
            "sweep.engine_share",
            if records > 0.0 {
                1.0 - per(mean_aux("sweep.item_busy"), mean_aux("sweep.capacity"))
            } else {
                0.0
            },
            "ratio",
        ),
    ]));
    eprintln!(
        "perfbench: {} traced and {} untraced cycles, {} item windows",
        tracers.len(),
        plain_cycles.len(),
        items.len()
    );
    Report { tally, metrics }
}

fn named(metrics: &[(&str, f64, &'static str)]) -> Vec<(String, f64, &'static str)> {
    metrics
        .iter()
        .map(|&(name, value, unit)| (name.to_string(), value, unit))
        .collect()
}

fn print_budget(layers: &[(&str, f64)], unattributed: f64, capacity: f64) {
    println!("layer budget (ms per traced cycle; thread time for parallel sections)");
    for (layer, ns) in layers.iter().filter(|(_, ns)| *ns != 0.0) {
        println!(
            "  {layer:<22} {:>12.3} ms  {:>6.2}%",
            ns / 1e6,
            100.0 * ns / capacity
        );
    }
    println!(
        "  {:<22} {:>12.3} ms  {:>6.2}%",
        "unattributed",
        unattributed / 1e6,
        100.0 * unattributed / capacity
    );
    println!("  {:<22} {:>12.3} ms", "total", capacity / 1e6);
}

fn print_report(workload: &str, report: &Report) {
    let tally = &report.tally;
    println!("workload {workload}");
    for (name, value, unit) in &report.metrics {
        println!("  {name:<36} {value:>16.6} {unit}");
    }
    if let Some(counters) = &tally.counters {
        for (name, value) in counters {
            println!("  counter {name:<28} {value:>16}");
        }
    }
    for error in &tally.errors {
        println!("  FAILED: {error}");
    }
    if tally.unfinished > 0 {
        println!(
            "  UNCHECKED: {} output(s) whose check did not finish in its time box",
            tally.unfinished
        );
    }
    println!(
        "  operations {} attempted, {} failed",
        tally.attempted, tally.failed
    );
    let mut metrics = JsonObject::new();
    for (name, value, unit) in &report.metrics {
        metrics = metrics.field(
            name.as_str(),
            JsonObject::new()
                .field("value", JsonValue::Float(*value))
                .field("unit", JsonValue::str(*unit))
                .build(),
        );
    }
    let doc = JsonObject::new()
        .field("correct", JsonValue::Bool(tally.failed == 0))
        .field("attempted", JsonValue::UInt(tally.attempted))
        .field("failed", JsonValue::UInt(tally.failed))
        .field("metrics", metrics.build())
        .build();
    println!("{doc}");
}
