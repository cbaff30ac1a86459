//! Micro-benchmarks of the supersym pipeline itself: front end,
//! optimizer, code generator, scheduler, and the coupled
//! functional+timing simulator. Plain `main` over `std::time::Instant`
//! (the container builds offline, so no criterion).
//!
//! With `--json` the per-row output is replaced by one JSON document
//! (schema `supersym.bench/v1`) — the format of the checked-in
//! `BENCH_NNNN.json` perf snapshots that track the pipeline's speed
//! trajectory per PR:
//!
//! ```text
//! cargo bench -p supersym-bench --bench pipeline -- --json > BENCH_NNNN.json
//! ```

use std::hint::black_box;
use std::io;
use std::time::Instant;
use supersym::isa::InstrClass;
use supersym::machine::presets;
use supersym::sim::{simulate, simulate_with_cache, simulate_with_sink, CacheConfig, SimOptions};
use supersym::trace::{IssueEvent, JsonObject, JsonValue, TimelineSink, TraceSink};
use supersym::workloads::{linpack, stan};
use supersym::{compile, CompileOptions, OptLevel};

/// Warmup runs before each timed row: populates instruction/data caches,
/// the allocator, and (for the simulator) the block timing cache, so the
/// measured iterations see steady state.
const WARMUP_ITERS: u32 = 3;

/// One timed row: name, mean, minimum, and iteration count.
struct Row {
    name: String,
    mean_ns: u64,
    min_ns: u64,
    iters: u32,
}

/// Collects timing rows and workload-size counters, printing rows as they
/// finish (table mode) or holding them for one JSON document (`--json`).
struct Harness {
    json: bool,
    rows: Vec<Row>,
    counters: Vec<(String, u64)>,
}

impl Harness {
    /// Times `f` over `iters` runs (after [`WARMUP_ITERS`] warmups) and
    /// records the mean and minimum wall-clock per run. The minimum is the
    /// stable statistic on a noisy box — it is what `bench-diff` compares
    /// — and is returned for derived throughput counters.
    fn time(&mut self, name: &str, iters: u32, mut f: impl FnMut()) -> u64 {
        for _ in 0..WARMUP_ITERS {
            f();
        }
        let mut total_ns = 0_u128;
        let mut min_ns = u128::MAX;
        for _ in 0..iters {
            let start = Instant::now();
            f();
            let elapsed = start.elapsed().as_nanos();
            total_ns += elapsed;
            min_ns = min_ns.min(elapsed);
        }
        let mean_ns = u64::try_from(total_ns / u128::from(iters)).unwrap_or(u64::MAX);
        let min_ns = u64::try_from(min_ns).unwrap_or(u64::MAX);
        if !self.json {
            println!(
                "{name:40} mean {:>10}ns  min {:>10}ns  ({iters} iters)",
                mean_ns, min_ns
            );
        }
        self.rows.push(Row {
            name: name.to_string(),
            mean_ns,
            min_ns,
            iters,
        });
        min_ns
    }

    /// Records a named size counter (instructions per iteration,
    /// dependence-edge counts) that gives the timing rows their scale.
    fn count(&mut self, name: &str, value: u64, line: &str) {
        if !self.json {
            println!("{line}");
        }
        self.counters.push((name.to_string(), value));
    }

    /// The `supersym.bench/v1` snapshot document.
    fn json_document(&self) -> JsonValue {
        let rows = self
            .rows
            .iter()
            .map(|row| {
                JsonObject::new()
                    .field("name", JsonValue::str(row.name.clone()))
                    .field("mean_ns", JsonValue::UInt(row.mean_ns))
                    .field("min_ns", JsonValue::UInt(row.min_ns))
                    .field("iters", JsonValue::UInt(u64::from(row.iters)))
                    .build()
            })
            .collect();
        let counters = self
            .counters
            .iter()
            .map(|(name, value)| {
                JsonObject::new()
                    .field("name", JsonValue::str(name.clone()))
                    .field("value", JsonValue::UInt(*value))
                    .build()
            })
            .collect();
        JsonObject::new()
            .field("schema", JsonValue::str("supersym.bench/v1"))
            .field("rows", JsonValue::Array(rows))
            .field("counters", JsonValue::Array(counters))
            .build()
    }
}

fn bench_compile(harness: &mut Harness) {
    let workload = linpack(16);
    let machine = presets::multititan();
    for level in [OptLevel::O0, OptLevel::O2, OptLevel::O4] {
        let options = CompileOptions::new(level, &machine);
        harness.time(&format!("compile/linpack16_{level:?}"), 10, || {
            black_box(compile(&workload.source, &options).unwrap());
        });
    }
    // The rule table's compile-time cost, and the cost of certifying
    // every pass of the same compile.
    let without_rules = CompileOptions::new(OptLevel::O4, &machine).with_rules(false);
    harness.time("compile/linpack16_O4_rules_off", 10, || {
        black_box(compile(&workload.source, &without_rules).unwrap());
    });
    let with_certify = CompileOptions::new(OptLevel::O4, &machine);
    harness.time("compile/linpack16_O4_certified", 10, || {
        black_box(supersym::compile_certified(&workload.source, &with_certify).unwrap());
    });
}

fn bench_simulate(harness: &mut Harness) {
    let workload = linpack(16);
    let machine = presets::multititan();
    let program = compile(
        &workload.source,
        &CompileOptions::new(OptLevel::O4, &machine),
    )
    .unwrap();
    let instructions = simulate(&program, &machine, SimOptions::default())
        .unwrap()
        .instructions();
    harness.count(
        "simulate/instructions_per_iter",
        instructions,
        &format!("simulate: {instructions} instructions per iteration"),
    );

    for machine in [
        presets::base(),
        presets::ideal_superscalar(4),
        presets::superpipelined(4),
        presets::cray1(),
        presets::superscalar_with_class_conflicts(4),
    ] {
        let name = machine.name().replace([' ', '(', ')', ','], "_");
        let min_ns = harness.time(&format!("simulate/{name}"), 10, || {
            black_box(simulate(&program, &machine, SimOptions::default()).unwrap());
        });
        // Simulator throughput in dynamic instructions per second, from
        // the row's minimum (the stable statistic).
        let ips = instructions
            .saturating_mul(1_000_000_000)
            .checked_div(min_ns)
            .unwrap_or(0);
        harness.count(
            &format!("simulate/{name}_ips"),
            ips,
            &format!("simulate/{name}: {ips} instructions/s"),
        );
    }
    // The exact model with the block timing cache disabled — the
    // before/after pair for the simulator-throughput table in
    // EXPERIMENTS.md.
    let exact = SimOptions {
        block_cache: false,
        ..SimOptions::default()
    };
    let machine = presets::base();
    harness.time("simulate/base_no_block_cache", 10, || {
        black_box(simulate(&program, &machine, exact).unwrap());
    });
}

/// The cheapest possible live sink: one counter bump per issue event.
/// The gap between this row and the `no_sink` row is the cost of
/// materializing `IssueEvent`s; the gap between `no_sink` and plain
/// `simulate` must be noise (the no-sink path is a single branch).
struct CountingSink(u64);

impl TraceSink for CountingSink {
    fn issue(&mut self, _event: &IssueEvent) {
        self.0 += 1;
    }
}

fn bench_sink_overhead(harness: &mut Harness) {
    let workload = linpack(16);
    let machine = presets::multititan();
    let program = compile(
        &workload.source,
        &CompileOptions::new(OptLevel::O4, &machine),
    )
    .unwrap();
    harness.time("simulate_sink/none", 10, || {
        black_box(simulate(&program, &machine, SimOptions::default()).unwrap());
    });
    harness.time("simulate_sink/counting", 10, || {
        let mut sink = CountingSink(0);
        black_box(
            simulate_with_sink(&program, &machine, SimOptions::default(), &mut sink).unwrap(),
        );
    });
    // The full trace_event encoder, streamed to nowhere: the gap to the
    // `counting` row is the cost of rendering the timeline document.
    let lanes: Vec<String> = machine
        .functional_units()
        .iter()
        .map(|unit| unit.name().to_string())
        .collect();
    let class_lane: Vec<(String, usize)> = InstrClass::ALL
        .iter()
        .map(|&class| (class.mnemonic().to_string(), machine.unit_of(class)))
        .collect();
    harness.time("simulate_sink/timeline", 10, || {
        let mut sink =
            TimelineSink::new(io::sink()).with_pipeline_lanes(lanes.clone(), class_lane.clone());
        black_box(
            simulate_with_sink(&program, &machine, SimOptions::default(), &mut sink).unwrap(),
        );
        sink.finish().unwrap();
    });
    // Events of one run, counted on a run of its own (the timed rows run
    // warm-ups as well as timed iterations).
    let mut sink = CountingSink(0);
    simulate_with_sink(&program, &machine, SimOptions::default(), &mut sink).unwrap();
    let events = sink.0;
    harness.count(
        "simulate_sink/issue_events_per_iter",
        events,
        &format!("simulate_sink: {events} issue events per iteration"),
    );
}

fn bench_scheduler(harness: &mut Harness) {
    let workload = stan(1);
    let machine = presets::cray1();
    // Unscheduled program as the scheduling input.
    let unscheduled = compile(
        &workload.source,
        &CompileOptions::new(OptLevel::O0, &machine),
    )
    .unwrap();
    harness.time("schedule_stan_for_cray1", 20, || {
        let mut program = unscheduled.clone();
        supersym::codegen::schedule_program(&mut program, &machine);
        black_box(program);
    });
}

fn bench_cache(harness: &mut Harness) {
    let workload = linpack(16);
    let machine = presets::base();
    let program = compile(
        &workload.source,
        &CompileOptions::new(OptLevel::O4, &machine),
    )
    .unwrap();
    harness.time("simulate_with_cache_linpack16", 5, || {
        black_box(
            simulate_with_cache(
                &program,
                &machine,
                SimOptions::default(),
                CacheConfig::small_direct(),
                CacheConfig::small_direct(),
            )
            .unwrap(),
        );
    });
}

fn bench_oracles(harness: &mut Harness) {
    use supersym::analyze::{dependence_edges, scheduling_regions, OracleKind};
    use supersym::workloads::livermore;
    let workload = livermore(40, 1);
    let machine = presets::ideal_superscalar(8);
    // Naive unrolling shares one induction variable across copies, so the
    // two oracles genuinely disagree about the optimized regions' memory
    // edges; count those on the O4 output, then time scheduling itself.
    let optimized = compile(
        &workload.source,
        &CompileOptions::new(OptLevel::O4, &machine)
            .with_unroll(supersym::opt::UnrollOptions::naive(4)),
    )
    .unwrap();
    let unscheduled = compile(
        &workload.source,
        &CompileOptions::new(OptLevel::O0, &machine)
            .with_unroll(supersym::opt::UnrollOptions::naive(4)),
    )
    .unwrap();
    for kind in [OracleKind::Conservative, OracleKind::Symbolic] {
        let oracle = kind.as_loop_oracle();
        let edges: usize = optimized
            .functions()
            .iter()
            .flat_map(|func| {
                scheduling_regions(func)
                    .into_iter()
                    .map(|(lo, hi)| dependence_edges(&func.instrs()[lo..hi], oracle).len())
            })
            .sum();
        harness.count(
            &format!("oracle/{kind:?}_dependence_edges"),
            edges as u64,
            &format!("oracle/{kind:?}: {edges} dependence edges on the O4 output"),
        );
        harness.time(&format!("schedule_livermore_{kind:?}"), 20, || {
            let mut program = unscheduled.clone();
            supersym::codegen::schedule_program_with(&mut program, &machine, oracle);
            black_box(program);
        });
    }
}

/// The loop-analysis layer: SCEV construction over the source IR, machine-loop
/// statics (critical path, recurrence MinII, resource MinII), and the full
/// bound measurement (analysis + one timed simulation) per workload.
fn bench_bound(harness: &mut Harness) {
    use supersym::analyze::{function_scev, program_loop_statics, OracleKind};
    use supersym::experiments::measure_bound;
    use supersym::workloads::livermore;
    let workload = livermore(40, 1);
    let machine = presets::ideal_superscalar(2);
    let options = CompileOptions::new(OptLevel::O4, &machine);
    let ast = supersym::lang::parse(&workload.source).unwrap();
    let module = supersym::ir::lower(&ast).unwrap();
    harness.time("bound/scev_livermore", 20, || {
        for func in &module.funcs {
            black_box(function_scev(func));
        }
    });
    let program = compile(&workload.source, &options).unwrap();
    let oracle = OracleKind::Symbolic.as_loop_oracle();
    let statics = program_loop_statics(&program, &machine, oracle);
    harness.count(
        "bound/livermore_machine_loops",
        statics.len() as u64,
        &format!("bound: {} machine loops in livermore O4", statics.len()),
    );
    harness.time("bound/loop_statics_livermore", 20, || {
        black_box(program_loop_statics(&program, &machine, oracle));
    });
    harness.time("bound/measure_livermore", 10, || {
        black_box(measure_bound("livermore", &program, &machine));
    });
}

/// The sweep driver: front-compile amortization, the fan-out engine over a
/// 12-cell grid, and the cache-hit fast path (which skips scheduling and
/// simulation entirely).
fn bench_sweep(harness: &mut Harness) {
    use supersym::analyze::OracleKind;
    use supersym::machine::GridSpec;
    use supersym::sweep::{
        cache_from_records, run_sweep, PipelineCellRunner, ResultCache, SweepConfig, SweepPlan,
        DEFAULT_CELL_FUEL,
    };
    let workloads = vec![supersym::workloads::whet(1)];
    harness.time("sweep/front_compile_whet", 5, || {
        black_box(PipelineCellRunner::new(
            &workloads,
            OptLevel::O4,
            OracleKind::Symbolic,
            DEFAULT_CELL_FUEL,
            false,
        ));
    });
    let runner = PipelineCellRunner::new(
        &workloads,
        OptLevel::O4,
        OracleKind::Symbolic,
        DEFAULT_CELL_FUEL,
        false,
    );
    let grid = GridSpec::parse("issue=1,2,4 pipe=1,2 lat=unit,titan").unwrap();
    let plan = SweepPlan {
        workload_names: runner.names().to_vec(),
        fuel: DEFAULT_CELL_FUEL,
        identity: runner.identity(&grid.canonical(), OptLevel::O4, OracleKind::Symbolic),
        grid,
    };
    let config = SweepConfig {
        jobs: 2,
        ..SweepConfig::default()
    };
    harness.count(
        "sweep/records_per_iter",
        plan.record_count() as u64,
        &format!("sweep: {} records per iteration", plan.record_count()),
    );
    let mut first = None;
    harness.time("sweep/12cells_whet_2jobs", 5, || {
        first = Some(black_box(
            run_sweep(&plan, &runner, &config, None, &ResultCache::new(), None).unwrap(),
        ));
    });
    let cache = cache_from_records(first.as_ref().unwrap().records.iter());
    harness.time("sweep/12cells_whet_cached", 10, || {
        black_box(run_sweep(&plan, &runner, &config, None, &cache, None).unwrap());
    });
}

fn main() {
    let json = std::env::args().any(|arg| arg == "--json");
    let mut harness = Harness {
        json,
        rows: Vec::new(),
        counters: Vec::new(),
    };
    bench_compile(&mut harness);
    bench_simulate(&mut harness);
    bench_sink_overhead(&mut harness);
    bench_scheduler(&mut harness);
    bench_oracles(&mut harness);
    bench_bound(&mut harness);
    bench_cache(&mut harness);
    bench_sweep(&mut harness);
    if json {
        print!("{}", harness.json_document().pretty());
    }
}
