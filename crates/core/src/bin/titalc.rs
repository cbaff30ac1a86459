//! `titalc` — the supersym command-line driver.
//!
//! Compiles a Tital source file under a chosen machine description and
//! optimization level, then (by default) simulates it and reports cycle
//! counts, or disassembles the scheduled machine code.
//!
//! ```text
//! titalc program.tital                      # compile + run on the base machine
//! titalc -m superscalar:4 -O2 program.tital # degree-4 ideal superscalar, local opt
//! titalc -m cray1 --dump program.tital      # show scheduled assembly
//! titalc -m multititan --unroll careful:4 program.tital
//! titalc --verify program.tital             # verify the compiler's own output
//! titalc --oracle conservative program.tital# schedule without symbolic aliasing
//! titalc lint machine.machine               # lint a machine description
//! titalc lint program.s                     # lint an assembly program
//! titalc lint program.tital                 # dataflow lints on Tital source
//! titalc analyze program.tital              # dump per-block dataflow facts
//! titalc analyze --loops program.tital      # loop forest + scalar evolution
//! titalc bound program.tital                # static ILP ceiling vs measured
//! titalc bound -m superscalar:2             # suite sweep on one preset
//! titalc profile program.tital              # per-phase + per-cycle accounting
//! titalc profile --json program.tital       # the same, machine-readable
//! titalc torture --seed 7 --iters 1000      # mutation-robustness campaign
//! titalc torture --replay tests/corpus      # replay the crash corpus
//! titalc certify -m cray1 program.tital     # re-prove every optimizer pass
//! titalc synth                              # regenerate the rewrite-rule table
//! titalc synth --check                      # CI: table must match checked-in
//! titalc --machines                         # list machine presets
//! ```
//!
//! Exit codes distinguish *where* an input was rejected (see `EXIT CODES`
//! in `--help`): scripts can tell a syntax error from a verifier
//! diagnostic from a runtime trap without parsing stderr.

use std::collections::HashSet;
use std::io::{BufWriter, Write};
use std::process::ExitCode;
use std::sync::Mutex;
use supersym::analyze::{
    dump_module, function_scev, lint_module, program_loop_statics, static_bound, Distance,
    LoopCount, OracleKind, Subscript,
};
use supersym::experiments::measure_bound;
use supersym::isa::{ClassCensus, InstrClass, Program};
use supersym::machine::{parse_degree, parse_machine_spec, presets, GridSpec, MachineConfig};
use supersym::opt::UnrollOptions;
use supersym::rules::{synthesize, SynthConfig, DEFAULT_TABLE_TEXT};
use supersym::sim::{
    simulate, simulate_with_cache, simulate_with_sink, CacheConfig, CycleAccount, MetricsSink,
    SimOptions, SimReport, StallCause,
};
use supersym::sweep::{PipelineCellRunner, DEFAULT_CELL_FUEL};
use supersym::torture::{replay_torture_corpus, run_torture};
use supersym::trace::{
    parse_json, validate_timeline, IssueEvent, JsonLinesSink, JsonObject, JsonValue, LoopCountSink,
    MemorySink, MetricsRegistry, PhaseRecord, SweepItem, TimelineSink, TraceSink, METRICS_SCHEMA,
};
use supersym::verify::{error_count, lint_program, CertMethod};
use supersym::workloads::{suite, Size};
use supersym::{
    compile, compile_certified, compile_with_trace, phase_metrics, CompileOptions, OptLevel,
};
use supersym_sweep::{
    aggregate_cells, cache_from_records, frontier_json, load_checkpoint, pareto_frontier,
    run_sweep_observed, CellRecord, CellStatus, FaultInjection, SweepConfig, SweepObserver,
    SweepPlan, SCHEMA,
};
use supersym_torture::{write_corpus, Layer};

/// Exit code for usage and I/O errors.
const EXIT_USAGE: u8 = 1;
/// Exit code for front-end rejections: the input file failed to lex,
/// parse, type-check or lower.
const EXIT_PARSE: u8 = 2;
/// Exit code for static-check failures: lint/verify diagnostics, IR
/// validation, machine-description or register-split problems — and for
/// torture-campaign findings.
const EXIT_VERIFY: u8 = 3;
/// Exit code for simulation (runtime) errors.
const EXIT_SIM: u8 = 4;

const USAGE: &str = "\
titalc — compile and simulate Tital programs (supersym)

USAGE:
    titalc [OPTIONS] <FILE>
    titalc lint [-m <NAME>] <FILE>
    titalc analyze [--loops] [--json] <FILE>
    titalc certify [OPTIONS] <FILE>
    titalc profile [OPTIONS] <FILE>
    titalc stats [OPTIONS] <FILE>
    titalc bound [OPTIONS] [FILE]
    titalc torture [TORTURE OPTIONS]
    titalc synth [--check]
    titalc sweep --grid <SPEC> [SWEEP OPTIONS]
    titalc bench-diff [--threshold <PCT>] [--only <PREFIX>] <OLD.json> <NEW.json>

OPTIONS:
    Each subcommand accepts the options its section below names; any
    other option is a usage error.
    -m, --machine <NAME>     machine preset (default: base); see --machines.
                             Degrees share the `sweep --grid` bounds:
                             superscalar:<n> takes n in 1..=64, and
                             superpipelined:<m> takes m in 1..=16
    -O<N>                    optimization level 0..4 (default: 4; bare -O
                             is -O4)
        --unroll <KIND:N>    loop unrolling: naive:N or careful:N, with N
                             in 1..=64
        --dump               print the scheduled assembly instead of running
        --cache              also simulate 8KiB split I/D caches
        --verify             run the static verifier on the compiled output
        --oracle <KIND>      memory disambiguation for scheduling:
                             symbolic (default) or conservative
        --trace <FILE>       stream one JSON line per compile phase and per
                             dynamic instruction to FILE (run and profile)
        --machines           list machine presets and exit
    -h, --help               show this help

PROFILE:
    `titalc profile` compiles and runs like plain `titalc`, but reports
    where the time went instead of just how much there was: per-phase
    compile telemetry (wall time, IR sizes, dependence-edge counts under
    both oracles, scheduler movement) and the run's cycle account (every
    cycle charged to issue, one stall cause, or pipeline drain — the sum
    is exactly the machine cycles), with per-class and per-functional-unit
    wait rollups and the most-waited-on producer instructions.
        --json               emit one JSON document (schema
                             supersym.profile/v1) instead of tables
        --timeline <FILE>    write a Chrome trace_event timeline (schema
                             supersym.timeline/v1, loadable in Perfetto):
                             compile-phase spans, one span per dynamic
                             instruction on its functional unit's lane,
                             and ipc/inflight counter tracks
    Also accepts -m, -O<N>, --unroll, --oracle, --verify and --trace.
    Uses the same compile/run exit codes as plain `titalc`.

STATS:
    `titalc stats` compiles and runs like `titalc profile`, but emits one
    deterministic JSON document (schema supersym.metrics/v1): a metrics
    registry of counters, gauges and log2-bucket histograms — compile
    phase counters, the stall-run-length and per-block ILP distributions,
    and the run's headline numbers — plus the per-phase wall times.
    Accepts -m, -O<N>, --unroll, --oracle and --verify.

LINT:
    `titalc lint` statically checks a file and exits nonzero on errors.
    Files ending in `.machine` are parsed as machine descriptions; files
    ending in `.tital` are lowered to IR and checked with the dataflow
    lints (dead stores, provable out-of-bounds accesses, constant branch
    conditions); files ending in `.json` are validated as timeline
    documents (trace_event invariants: monotone timestamps per lane,
    matched begin/end pairs, stable lane naming); anything else is parsed
    as assembly and checked with the program lint (pass -m to also check
    register-split conformance). Accepts -m only.

ANALYZE:
    `titalc analyze` lowers a Tital source file to IR, prints every
    block's dataflow facts (reachability, constants, value ranges,
    reaching definitions, branch verdicts), then runs the dataflow lints.
    Exits nonzero on lint errors.
        --loops              instead of the dataflow dump, print the
                             natural-loop forest and scalar-evolution
                             facts per loop: induction variables with
                             steps, classified array subscripts, and
                             ZIV/SIV dependence distance vectors
        --json               with --loops, emit one JSON document
                             (schema supersym.loops/v1) instead of text

BOUND:
    `titalc bound` reports sound static ILP ceilings next to measured
    parallelism. With a FILE, it compiles the program for the chosen -m
    preset, analyzes its innermost machine loops (critical path, minimum
    iteration spacing, recurrence- and resource-bound MinII), runs it,
    and checks the soundness invariant: measured ILP never exceeds the
    static bound. Without a FILE, it sweeps the whole benchmark suite on
    every machine preset (or just the -m one). A violated invariant is
    an internal-consistency failure and exits with code 3.
        --json               emit one JSON document (schema
                             supersym.bound/v1) instead of tables
    Also accepts -m, -O<N>, --unroll, --oracle and --verify.

CERTIFY:
    `titalc certify` compiles with per-pass translation validation: the
    IR is snapshotted before and after every optimizer pass and each pair
    is re-proven equivalent, structurally (symbolic per-block summaries)
    or differentially (a fuel-bounded IR executor compares return value,
    final global state and call count). Prints one line per pass run and
    exits with code 3 if any pass cannot be certified. Accepts -m, -O<N>,
    --unroll, --oracle and --verify.

SYNTH:
    `titalc synth` re-runs verified rewrite-rule synthesis (enumerate,
    fingerprint on characteristic vectors, prove with sound certifiers)
    and prints the resulting rule table to stdout — the exact format of
    the checked-in `crates/rules/src/rules.tital-rules`.
        --check              do not print; exit 3 unless the regenerated
                             table is byte-identical to the shipped one

SWEEP:
    `titalc sweep` explores the whole machine-design space the paper's
    presets sample: a grid spec like
    `issue=1,2,4,8 pipe=1,2,4 lat=unit,titan fu=ideal,shared` is
    enumerated into cells, each workload's machine-independent front half
    is compiled once, and worker threads schedule + simulate every
    (workload × cell) item. Cells run under a panic trap and a fuel
    watchdog: failures are classified (panic / timeout / reject) and
    quarantined as records, never lost. The summary (one JSON document,
    schema supersym.sweep/v1) ends with the speedup-vs-hardware-cost
    Pareto frontier. Exits 3 when any cell was quarantined.
        --grid <SPEC>        axes: issue= pipe= lat= fu= split= (required)
        --workloads <CSV>    workload names, or `all` (default)
        --jobs <N>           worker threads (default: 1)
        --fuel <N>           simulator steps per cell before the watchdog
                             quarantines it as a timeout
        --checkpoint <FILE>  append one record per finished item to FILE
        --resume <FILE>      resume from FILE (same as --checkpoint, but
                             completed items are not re-run; the final
                             output is byte-identical to an uninterrupted
                             sweep). The header must match this sweep's
                             grid, workloads and programs.
        --out <FILE>         write the complete record set, in canonical
                             cell order, to FILE
        --cache <FILE>       reuse deterministic results across sweeps,
                             keyed by (program hash, machine hash)
        --deadline-ms <N>    also quarantine cells slower than N ms of
                             wall clock (off by default: wall deadlines
                             trade byte-determinism for protection)
        --inject <SPEC>      self-test fault injection: `panic:K` and/or
                             `timeout:J` (comma-separated) fail every
                             K-th/J-th item
        --timeline <FILE>    write a Chrome trace_event timeline with one
                             lane per worker: a span per executed cell,
                             instant markers for cache hits and
                             quarantines (schema supersym.timeline/v1)
    Also accepts -O<N>, --oracle and --verify with their usual meanings.

BENCH-DIFF:
    `titalc bench-diff OLD.json NEW.json` compares two supersym.bench/v1
    snapshots row by row and prints the percent delta of every row's
    mean (the min when the snapshot records one). Exits 3 when any row
    common to both snapshots regressed (got slower) by more than the
    threshold.
        --threshold <PCT>    regression tolerance in percent (default: 10)
        --only <PREFIX>      gate only rows whose name starts with PREFIX
                             (all rows still print; others never fail)

TORTURE OPTIONS:
    `titalc torture` runs a deterministic fault-injection campaign
    against the whole pipeline: seeded mutants at five layers (source,
    ast, asm, machine, grid) must each produce a typed error or a correct,
    reproducible run — never a panic, hang or verifier disagreement.
        --seed <N>           campaign seed (default: 0; same seed, same mutants)
        --iters <K>          mutants per layer (default: 500)
        --layer <L>          restrict to a layer (repeatable):
                             source | ast | asm | machine | grid (default: all)
        --corpus <DIR>       write minimized reproducers for findings to DIR
        --replay <DIR>       instead of mutating, replay every corpus file
                             in DIR and check the panic/determinism contract

EXIT CODES:
    0    success
    1    usage or I/O error
    2    the input failed to parse, type-check or lower (front end)
    3    static checks failed: lint/verify diagnostics, IR validation,
         machine-description or register-split errors, torture findings,
         bench-diff regressions beyond the threshold
    4    simulation (runtime) error, or an I/O error writing a requested
         output file (--trace, --timeline, --out, --checkpoint, --cache)
";

/// Every option value, parsed once to its typed, range-checked form. The
/// flag table fills it; which fields a [`Command`] reads depends on the
/// subcommand, and the table lets each subcommand set only those. A
/// numeric option left unset takes its default where it is used.
#[derive(Debug, Clone, Default, PartialEq)]
struct Opts {
    machine: Option<MachineConfig>,
    opt: OptLevel,
    oracle: OracleKind,
    unroll: Option<UnrollOptions>,
    verify: bool,
    dump: bool,
    cache: bool,
    machines: bool,
    loops: bool,
    json: bool,
    trace: Option<String>,
    timeline: Option<String>,
    check: bool,
    seed: u64,
    iters: Option<u64>,
    layers: Vec<Layer>,
    corpus: Option<String>,
    replay: Option<String>,
    grid: Option<GridSpec>,
    workloads: Option<Vec<String>>,
    jobs: Option<usize>,
    fuel: Option<u64>,
    checkpoint: Option<String>,
    resume: bool,
    out: Option<String>,
    cache_file: Option<String>,
    deadline_ms: Option<u64>,
    inject: FaultInjection,
    threshold: Option<f64>,
    only: Option<String>,
}

impl Opts {
    /// The compile options of `-m`/`-O`/`--oracle`/`--verify`/`--unroll`
    /// (the machine defaults to `base`).
    fn compile_options(&self) -> CompileOptions {
        let machine = self.machine.clone().unwrap_or_else(presets::base);
        let mut options = CompileOptions::new(self.opt, &machine).with_oracle(self.oracle);
        if self.verify {
            options = options.with_verify(true);
        }
        if let Some(unroll) = self.unroll {
            options = options.with_unroll(unroll);
        }
        options
    }
}

/// What one `titalc` invocation asks for.
#[derive(Debug, PartialEq)]
enum Command {
    Help,
    Machines,
    Run(String, Opts),
    Lint(String, Opts),
    Analyze(String, Opts),
    Certify(String, Opts),
    Profile(String, Opts),
    Stats(String, Opts),
    /// Without a FILE, the suite sweep over the preset list.
    Bound(Option<String>, Opts),
    Torture(Opts),
    Synth(Opts),
    Sweep(GridSpec, Opts),
    BenchDiff([String; 2], Opts),
}

/// The paper's machine presets, the one list behind `-m`, `--machines`
/// and the `bound` suite sweep: (spelling, description, constructor, the
/// degrees the `bound` suite instantiates). `<n>` in a spelling takes an
/// issue width and `<m>` a superpipelining degree, checked against the
/// `sweep --grid` bounds.
type Machine = (
    &'static str,
    &'static str,
    fn(&[u32]) -> MachineConfig,
    &'static [&'static [u32]],
);

#[rustfmt::skip]
const MACHINES: &[Machine] = &[
    ("base", "one instruction/cycle, unit latencies", |_| presets::base(), &[&[]]),
    ("multititan", "MultiTitan latency model (avg superpipelining 1.7)",
     |_| presets::multititan(), &[&[]]),
    ("cray1", "CRAY-1 latency model (avg superpipelining 4.4)", |_| presets::cray1(), &[&[]]),
    ("vliw:<n>", "n-wide VLIW (taken branches break the issue group)",
     |d| presets::vliw(d[0]), &[&[4]]),
    ("superscalar:<n>", "ideal degree-n superscalar",
     |d| presets::ideal_superscalar(d[0]), &[&[2], &[8]]),
    ("superpipelined:<m>", "degree-m superpipelined", |d| presets::superpipelined(d[0]), &[&[4]]),
    ("ssp:<n>:<m>", "superpipelined superscalar",
     |d| presets::superpipelined_superscalar(d[0], d[1]), &[&[2, 2]]),
    ("conflicts:<n>", "degree-n superscalar with shared functional units",
     |d| presets::superscalar_with_class_conflicts(d[0]), &[&[4]]),
    ("slowcycle", "underpipelined: doubled latencies, slower clock",
     |_| presets::underpipelined_slow_cycle(), &[&[]]),
    ("underpipelined", "issues every other cycle", |_| presets::underpipelined_half_issue(), &[&[]]),
];

/// Resolves a `-m` name such as `cray1` or `ssp:2:4` through [`MACHINES`].
fn parse_machine(name: &str) -> Result<MachineConfig, String> {
    let unknown = || format!("unknown machine `{name}` (try --machines)");
    let mut given = name.split(':');
    let head = given.next().unwrap_or_default();
    let (spelling, _, build, _) = MACHINES
        .iter()
        .find(|(spelling, ..)| spelling.split(':').next() == Some(head))
        .ok_or_else(unknown)?;
    let params: Vec<&str> = spelling.split(':').skip(1).collect();
    let values: Vec<&str> = given.collect();
    if params.len() != values.len() {
        return Err(unknown());
    }
    let degrees = params
        .iter()
        .zip(values)
        .map(|(&param, value)| {
            let axis = if param == "<m>" { "pipe" } else { "issue" };
            parse_degree(axis, value).map_err(|error| format!("machine `{name}`: {error}"))
        })
        .collect::<Result<Vec<u32>, String>>()?;
    Ok(build(&degrees))
}

/// The largest `--unroll` factor (the paper's studies stop at 10).
const MAX_UNROLL: usize = 64;

/// Parses `--unroll KIND:N`.
fn parse_unroll(spec: &str) -> Result<UnrollOptions, String> {
    let (kind, factor) = spec.split_once(':').ok_or("spec must be KIND:N")?;
    let factor = factor
        .parse()
        .ok()
        .filter(|n| (1..=MAX_UNROLL).contains(n))
        .ok_or_else(|| format!("factor `{factor}` is outside 1..={MAX_UNROLL}"))?;
    match kind {
        "naive" => Ok(UnrollOptions::naive(factor)),
        "careful" => Ok(UnrollOptions::careful(factor)),
        other => Err(format!("unknown unroll kind `{other}`")),
    }
}

/// Parses the level glued to `-O`; a bare `-O` is `-O4`.
fn parse_opt_level(level: &str) -> Result<OptLevel, String> {
    match level {
        "0" => Ok(OptLevel::O0),
        "1" => Ok(OptLevel::O1),
        "2" => Ok(OptLevel::O2),
        "3" => Ok(OptLevel::O3),
        "4" | "" => Ok(OptLevel::O4),
        other => Err(format!("unknown optimization level `{other}`")),
    }
}

fn parse_oracle(kind: &str) -> Result<OracleKind, String> {
    match kind {
        "symbolic" => Ok(OracleKind::Symbolic),
        "conservative" => Ok(OracleKind::Conservative),
        other => Err(format!("unknown oracle `{other}`")),
    }
}

/// Parses `--inject panic:K,timeout:J`.
fn parse_inject(spec: &str) -> Result<FaultInjection, String> {
    let mut inject = FaultInjection::default();
    for part in spec.split(',') {
        let (kind, every) = part
            .split_once(':')
            .ok_or_else(|| format!("inject spec `{part}` must be kind:N"))?;
        let every: u64 = every
            .parse()
            .map_err(|_| format!("bad inject period `{every}`"))?;
        match kind {
            "panic" => inject.panic_every = Some(every),
            "timeout" => inject.timeout_every = Some(every),
            other => return Err(format!("unknown inject kind `{other}`")),
        }
    }
    Ok(inject)
}

fn number<T: std::str::FromStr>(text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("`{text}` is not an unsigned integer"))
}

fn positive<T: std::str::FromStr + PartialOrd + Default>(text: &str) -> Result<T, String> {
    match text.parse() {
        Ok(value) if value > T::default() => Ok(value),
        _ => Err(format!("`{text}` is not a positive number")),
    }
}

/// Stores a parsed flag value (the flag table's `apply` shape).
fn set<T>(slot: &mut T, value: T) -> Result<(), String> {
    *slot = value;
    Ok(())
}

/// How a flag takes its value.
#[derive(Clone, Copy)]
enum Arity {
    /// A bare switch: `--dump`.
    Switch,
    /// The next argument: `--grid SPEC`.
    Next,
    /// Glued to the flag: `-O2` (a bare `-O` passes the empty string).
    Glued,
}

/// One flag: its spellings, how it takes a value, the subcommands that
/// accept it (`""` is plain `titalc`), and how its value lands in [`Opts`].
struct Flag {
    names: &'static [&'static str],
    arity: Arity,
    subcommands: &'static [&'static str],
    apply: fn(&mut Opts, &str) -> Result<(), String>,
}

const SUBCOMMANDS: [&str; 10] = [
    "lint",
    "analyze",
    "certify",
    "profile",
    "stats",
    "bound",
    "torture",
    "synth",
    "sweep",
    "bench-diff",
];

/// The subcommands that compile one program for one machine.
const COMPILING: &[&str] = &["", "certify", "profile", "stats", "bound"];
/// The compiling subcommands plus `sweep`, which compiles for every cell.
const TUNING: &[&str] = &["", "certify", "profile", "stats", "bound", "sweep"];

/// The whole command line, one row per flag. `-h`/`--help` is accepted
/// everywhere and handled by [`parse_args`] itself.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag { names: &["-m", "--machine"], arity: Arity::Next,
           subcommands: &["", "lint", "certify", "profile", "stats", "bound"],
           apply: |o, v| set(&mut o.machine, Some(parse_machine(v)?)) },
    Flag { names: &["-O"], arity: Arity::Glued, subcommands: TUNING,
           apply: |o, v| set(&mut o.opt, parse_opt_level(v)?) },
    Flag { names: &["--oracle"], arity: Arity::Next, subcommands: TUNING,
           apply: |o, v| set(&mut o.oracle, parse_oracle(v)?) },
    Flag { names: &["--verify"], arity: Arity::Switch, subcommands: TUNING,
           apply: |o, _| set(&mut o.verify, true) },
    Flag { names: &["--unroll"], arity: Arity::Next, subcommands: COMPILING,
           apply: |o, v| set(&mut o.unroll, Some(parse_unroll(v)?)) },
    Flag { names: &["--dump"], arity: Arity::Switch, subcommands: &[""],
           apply: |o, _| set(&mut o.dump, true) },
    Flag { names: &["--cache"], arity: Arity::Switch, subcommands: &[""],
           apply: |o, _| set(&mut o.cache, true) },
    Flag { names: &["--machines"], arity: Arity::Switch, subcommands: &[""],
           apply: |o, _| set(&mut o.machines, true) },
    Flag { names: &["--trace"], arity: Arity::Next, subcommands: &["", "profile"],
           apply: |o, v| set(&mut o.trace, Some(v.into())) },
    Flag { names: &["--json"], arity: Arity::Switch, subcommands: &["analyze", "profile", "bound"],
           apply: |o, _| set(&mut o.json, true) },
    Flag { names: &["--loops"], arity: Arity::Switch, subcommands: &["analyze"],
           apply: |o, _| set(&mut o.loops, true) },
    Flag { names: &["--timeline"], arity: Arity::Next, subcommands: &["profile", "sweep"],
           apply: |o, v| set(&mut o.timeline, Some(v.into())) },
    Flag { names: &["--check"], arity: Arity::Switch, subcommands: &["synth"],
           apply: |o, _| set(&mut o.check, true) },
    Flag { names: &["--seed"], arity: Arity::Next, subcommands: &["torture"],
           apply: |o, v| set(&mut o.seed, number(v)?) },
    Flag { names: &["--iters"], arity: Arity::Next, subcommands: &["torture"],
           apply: |o, v| set(&mut o.iters, Some(number(v)?)) },
    Flag { names: &["--layer"], arity: Arity::Next, subcommands: &["torture"],
           apply: |o, v| {
               o.layers.push(Layer::parse(v).ok_or("must be source|ast|asm|machine|grid")?);
               Ok(())
           } },
    Flag { names: &["--corpus"], arity: Arity::Next, subcommands: &["torture"],
           apply: |o, v| set(&mut o.corpus, Some(v.into())) },
    Flag { names: &["--replay"], arity: Arity::Next, subcommands: &["torture"],
           apply: |o, v| set(&mut o.replay, Some(v.into())) },
    Flag { names: &["--grid"], arity: Arity::Next, subcommands: &["sweep"],
           apply: |o, v| set(&mut o.grid, Some(GridSpec::parse(v).map_err(|e| e.to_string())?)) },
    Flag { names: &["--workloads"], arity: Arity::Next, subcommands: &["sweep"],
           apply: |o, v| set(&mut o.workloads, (v != "all").then(|| v.split(',').map(String::from).collect())) },
    Flag { names: &["--jobs"], arity: Arity::Next, subcommands: &["sweep"],
           apply: |o, v| set(&mut o.jobs, Some(positive(v)?)) },
    Flag { names: &["--fuel"], arity: Arity::Next, subcommands: &["sweep"],
           apply: |o, v| set(&mut o.fuel, Some(positive(v)?)) },
    Flag { names: &["--checkpoint"], arity: Arity::Next, subcommands: &["sweep"],
           apply: |o, v| set(&mut o.checkpoint, Some(v.into())) },
    Flag { names: &["--resume"], arity: Arity::Next, subcommands: &["sweep"],
           apply: |o, v| { o.resume = true; set(&mut o.checkpoint, Some(v.into())) } },
    Flag { names: &["--out"], arity: Arity::Next, subcommands: &["sweep"],
           apply: |o, v| set(&mut o.out, Some(v.into())) },
    Flag { names: &["--cache"], arity: Arity::Next, subcommands: &["sweep"],
           apply: |o, v| set(&mut o.cache_file, Some(v.into())) },
    Flag { names: &["--deadline-ms"], arity: Arity::Next, subcommands: &["sweep"],
           apply: |o, v| set(&mut o.deadline_ms, Some(positive(v)?)) },
    Flag { names: &["--inject"], arity: Arity::Next, subcommands: &["sweep"],
           apply: |o, v| set(&mut o.inject, parse_inject(v)?) },
    Flag { names: &["--threshold"], arity: Arity::Next, subcommands: &["bench-diff"],
           apply: |o, v| set(&mut o.threshold, Some(positive(v)?)) },
    Flag { names: &["--only"], arity: Arity::Next, subcommands: &["bench-diff"],
           apply: |o, v| set(&mut o.only, Some(v.into())) },
];

/// The one argv parser: picks the subcommand, runs every flag through
/// [`FLAGS`], then checks the positional arguments the subcommand needs.
fn parse_args(argv: &[String]) -> Result<Command, String> {
    let (sub, rest) = match argv.split_first() {
        Some((first, rest)) if SUBCOMMANDS.contains(&first.as_str()) => (first.as_str(), rest),
        _ => ("", argv),
    };
    let invocation = if sub.is_empty() {
        "plain `titalc`".to_string()
    } else {
        format!("`titalc {sub}`")
    };
    let mut opts = Opts::default();
    let mut files: Vec<String> = Vec::new();
    let mut args = rest.iter();
    while let Some(arg) = args.next() {
        if arg == "-h" || arg == "--help" {
            return Ok(Command::Help);
        }
        if !arg.starts_with('-') {
            files.push(arg.clone());
            continue;
        }
        let named = || {
            FLAGS.iter().filter(|flag| match flag.arity {
                Arity::Glued => arg.starts_with(flag.names[0]),
                _ => flag.names.contains(&arg.as_str()),
            })
        };
        let Some(flag) = named().find(|flag| flag.subcommands.contains(&sub)) else {
            return Err(match named().next() {
                Some(flag) => format!("`{}` does not apply to {invocation}", flag.names[0]),
                None => format!("unknown option `{arg}`"),
            });
        };
        let value = match flag.arity {
            Arity::Switch => "",
            Arity::Glued => &arg[flag.names[0].len()..],
            Arity::Next => args
                .next()
                .ok_or_else(|| format!("`{arg}` needs a value"))?,
        };
        (flag.apply)(&mut opts, value).map_err(|error| format!("{arg}: {error}"))?;
    }
    if matches!(sub, "torture" | "synth" | "sweep") {
        if let Some(file) = files.first() {
            return Err(format!("unexpected argument `{file}` to {invocation}"));
        }
    }
    // As with a repeated flag, the last FILE wins.
    let file = files.last().cloned();
    let one_file = || {
        file.clone()
            .ok_or_else(|| format!("{invocation} needs a FILE"))
    };
    Ok(match sub {
        "lint" => Command::Lint(one_file()?, opts),
        "analyze" => Command::Analyze(one_file()?, opts),
        "certify" => Command::Certify(one_file()?, opts),
        "profile" => Command::Profile(one_file()?, opts),
        "stats" => Command::Stats(one_file()?, opts),
        "bound" => Command::Bound(file, opts),
        "torture" => Command::Torture(opts),
        "synth" => Command::Synth(opts),
        "sweep" => match opts.grid.take() {
            Some(grid) => Command::Sweep(grid, opts),
            None => return Err("--grid is required".to_string()),
        },
        "bench-diff" => match <[String; 2]>::try_from(files) {
            Ok(snapshots) => Command::BenchDiff(snapshots, opts),
            Err(_) => return Err("expected exactly two snapshot files".to_string()),
        },
        _ if opts.machines => Command::Machines,
        _ => Command::Run(one_file()?, opts),
    })
}

/// `titalc torture`: run a campaign (or a corpus replay). Exits 0 when
/// the robustness contract held, `EXIT_VERIFY` when any mutant produced a
/// finding.
fn run_torture_cmd(opts: &Opts) -> ExitCode {
    if let Some(dir) = &opts.replay {
        let report = match replay_torture_corpus(std::path::Path::new(&dir)) {
            Ok(report) => report,
            Err(error) => {
                eprintln!("titalc torture: cannot replay `{dir}`: {error}");
                return ExitCode::from(EXIT_USAGE);
            }
        };
        let replayed = report.layers.iter().map(|l| l.mutants).sum::<u64>();
        print!("{report}");
        println!("corpus replay: {replayed} file(s)");
        return if report.finding_count() == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(EXIT_VERIFY)
        };
    }
    let layers = if opts.layers.is_empty() {
        Layer::ALL.to_vec()
    } else {
        opts.layers.clone()
    };
    let report = run_torture(opts.seed, opts.iters.unwrap_or(500), layers);
    print!("{report}");
    if let Some(dir) = &opts.corpus {
        if report.finding_count() > 0 {
            match write_corpus(std::path::Path::new(&dir), &report) {
                Ok(paths) => {
                    for path in paths {
                        println!("wrote {}", path.display());
                    }
                }
                Err(error) => {
                    eprintln!("titalc torture: cannot write corpus to `{dir}`: {error}");
                    return ExitCode::from(EXIT_USAGE);
                }
            }
        }
    }
    if report.finding_count() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_VERIFY)
    }
}

/// `titalc synth`: re-run rewrite-rule synthesis and print the verified
/// table (the exact checked-in format), or with `--check` compare the
/// regeneration byte-for-byte against the shipped table — the CI
/// determinism gate. A mismatch exits `EXIT_VERIFY`.
fn run_synth_cmd(check: bool) -> ExitCode {
    let report = synthesize(&SynthConfig::default());
    let text = report.table.to_text();
    eprintln!(
        "synth: {} term(s) enumerated, {} candidate identity(ies), \
         {} unproven candidate(s) dropped, {} rule(s) verified",
        report.terms_enumerated,
        report.candidates,
        report.rejected,
        report.table.rules().len()
    );
    if !check {
        print!("{text}");
        return ExitCode::SUCCESS;
    }
    if text == DEFAULT_TABLE_TEXT {
        println!(
            "synth check: regenerated table is byte-identical to the shipped one \
             ({} rule(s))",
            report.table.rules().len()
        );
        return ExitCode::SUCCESS;
    }
    let diverging = text
        .lines()
        .zip(DEFAULT_TABLE_TEXT.lines())
        .position(|(fresh, shipped)| fresh != shipped);
    match diverging {
        Some(index) => eprintln!(
            "titalc synth: line {} differs from the shipped table:\n  regenerated: {}\n  shipped:     {}",
            index + 1,
            text.lines().nth(index).unwrap_or(""),
            DEFAULT_TABLE_TEXT.lines().nth(index).unwrap_or("")
        ),
        None => eprintln!(
            "titalc synth: regenerated table has {} line(s), the shipped one {}",
            text.lines().count(),
            DEFAULT_TABLE_TEXT.lines().count()
        ),
    }
    ExitCode::from(EXIT_VERIFY)
}

/// Whether a record may seed the cross-sweep result cache: only
/// deterministic outcomes (completions and typed rejects) qualify —
/// panics and timeouts are exactly the outcomes worth retrying.
fn cacheable(record: &CellRecord) -> bool {
    matches!(record.status, CellStatus::Ok(_) | CellStatus::Reject { .. })
}

/// Bridges engine observer callbacks onto a worker-lane timeline: one
/// sweep-process thread per worker, each item rendered by
/// [`TimelineSink::sweep_item`].
struct SweepTimeline {
    sink: TimelineSink<BufWriter<std::fs::File>>,
}

impl SweepObserver for SweepTimeline {
    fn item(
        &mut self,
        worker: usize,
        start_us: u64,
        end_us: u64,
        cached: bool,
        record: &CellRecord,
    ) {
        self.sink.sweep_item(&SweepItem {
            worker,
            start_us,
            end_us,
            cached,
            cell: &record.cell,
            workload: &record.workload,
            status: record.status.label(),
        });
    }
}

/// `titalc sweep`: enumerate a machine grid, compile each workload's
/// front half once, fan scheduling + simulation out across workers with
/// fault quarantine, and print a `supersym.sweep/v1` summary ending in
/// the speedup-vs-cost Pareto frontier. Exits `EXIT_VERIFY` when any
/// item was quarantined, `EXIT_SIM` on output I/O errors.
#[allow(clippy::too_many_lines)]
fn run_sweep_cmd(grid: GridSpec, opts: &Opts) -> ExitCode {
    let mut workloads = suite(Size::Small);
    if let Some(filter) = &opts.workloads {
        if let Some(name) = filter
            .iter()
            .find(|name| !workloads.iter().any(|w| w.name == name.as_str()))
        {
            eprintln!("titalc sweep: unknown workload `{name}`");
            return ExitCode::from(EXIT_USAGE);
        }
        workloads.retain(|w| filter.iter().any(|name| name == w.name));
    }
    let fuel = opts.fuel.unwrap_or(DEFAULT_CELL_FUEL);
    let runner = PipelineCellRunner::new(&workloads, opts.opt, opts.oracle, fuel, opts.verify);
    let plan = SweepPlan {
        workload_names: runner.names().to_vec(),
        fuel,
        identity: runner.identity(&grid.canonical(), opts.opt, opts.oracle),
        grid,
    };
    let header = plan.header();

    // Checkpoint: on resume, recover every intact record and rewrite the
    // journal (header + intact records) so a torn tail line from a kill
    // cannot corrupt the first appended record.
    let mut resume_state = None;
    let mut journal_file = None;
    if let Some(path) = &opts.checkpoint {
        if opts.resume {
            if let Ok(text) = std::fs::read_to_string(path) {
                match load_checkpoint(&text, &header) {
                    Ok(state) => resume_state = Some(state),
                    Err(error) => {
                        eprintln!("titalc sweep: cannot resume `{path}`: {error}");
                        return ExitCode::from(EXIT_USAGE);
                    }
                }
            }
        }
        let rewrite = || -> std::io::Result<std::fs::File> {
            let mut file = std::fs::File::create(path)?;
            writeln!(file, "{}", header.render())?;
            if let Some(state) = &resume_state {
                for record in state.done.iter().flatten() {
                    writeln!(file, "{}", record.render())?;
                }
            }
            Ok(file)
        };
        match rewrite() {
            Ok(file) => journal_file = Some(file),
            Err(error) => {
                eprintln!("titalc sweep: cannot write checkpoint `{path}`: {error}");
                return ExitCode::from(EXIT_SIM);
            }
        }
    }

    // Result cache: prior records, keyed by (program hash, machine hash).
    let mut cache_records: Vec<CellRecord> = Vec::new();
    if let Some(path) = &opts.cache_file {
        if let Ok(text) = std::fs::read_to_string(path) {
            cache_records.extend(text.lines().filter_map(CellRecord::parse));
        }
    }
    let cache = cache_from_records(cache_records.iter());

    let config = SweepConfig {
        jobs: opts.jobs.unwrap_or(1),
        deadline_ms: opts.deadline_ms,
        inject: opts.inject,
        quiet: true,
    };
    let timeline_observer = match &opts.timeline {
        Some(path) => match std::fs::File::create(path) {
            Ok(file) => Some(Mutex::new(SweepTimeline {
                sink: TimelineSink::new(BufWriter::new(file)),
            })),
            Err(error) => {
                eprintln!("titalc sweep: cannot write timeline `{path}`: {error}");
                return ExitCode::from(EXIT_SIM);
            }
        },
        None => None,
    };
    let outcome = match run_sweep_observed(
        &plan,
        &runner,
        &config,
        resume_state,
        &cache,
        journal_file.as_mut().map(|f| f as &mut (dyn Write + Send)),
        timeline_observer
            .as_ref()
            .map(|m| m as &Mutex<dyn SweepObserver>),
    ) {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("titalc sweep: error writing checkpoint: {error}");
            return ExitCode::from(EXIT_SIM);
        }
    };

    if let Some(observer) = timeline_observer {
        let timeline = observer
            .into_inner()
            .expect("the timeline observer never panics while locked");
        let path = opts.timeline.as_deref().unwrap_or_default();
        if let Err(code) = close_output(timeline.sink.finish(), "timeline", path) {
            return code;
        }
    }

    if let Some(path) = &opts.cache_file {
        let mut seen: HashSet<(u64, u64)> = cache.keys().copied().collect();
        for record in &outcome.records {
            if cacheable(record) && seen.insert((record.program_hash, record.machine_hash)) {
                cache_records.push(record.clone());
            }
        }
        let mut text = String::new();
        for record in &cache_records {
            text.push_str(&record.render());
            text.push('\n');
        }
        if let Err(error) = std::fs::write(path, text) {
            eprintln!("titalc sweep: cannot write cache `{path}`: {error}");
            return ExitCode::from(EXIT_SIM);
        }
    }

    if let Some(path) = &opts.out {
        let mut text = header.render();
        text.push('\n');
        for record in &outcome.records {
            text.push_str(&record.render());
            text.push('\n');
        }
        if let Err(error) = std::fs::write(path, text) {
            eprintln!("titalc sweep: cannot write output `{path}`: {error}");
            return ExitCode::from(EXIT_SIM);
        }
    }

    let cells = plan.grid.cells();
    let summaries = aggregate_cells(&outcome.records, &cells);
    let frontier = pareto_frontier(&summaries);
    let summary = JsonObject::new()
        .field("schema", JsonValue::str(SCHEMA))
        .field("grid", JsonValue::str(plan.grid.canonical()))
        .field("cells", JsonValue::UInt(cells.len() as u64))
        .field(
            "workloads",
            JsonValue::UInt(plan.workload_names.len() as u64),
        )
        .field("records", JsonValue::UInt(outcome.records.len() as u64))
        .field("executed", JsonValue::UInt(outcome.executed as u64))
        .field("cached", JsonValue::UInt(outcome.cached as u64))
        .field("resumed", JsonValue::UInt(outcome.resumed as u64))
        .field("quarantined", JsonValue::UInt(outcome.quarantined as u64))
        .field("resumable", JsonValue::Bool(opts.checkpoint.is_some()))
        .field("metrics", {
            let mut registry = MetricsRegistry::new();
            outcome.metrics.register(&mut registry);
            registry.to_json()
        })
        .field("pareto", frontier_json(&frontier))
        .build();
    println!("{}", summary.pretty());
    if outcome.quarantined > 0 {
        ExitCode::from(EXIT_VERIFY)
    } else {
        ExitCode::SUCCESS
    }
}

/// Loads a `supersym.bench/v1` snapshot as `(name, ns)` rows in file
/// order, preferring the noise-resistant `min_ns` statistic and falling
/// back to `mean_ns` for snapshots taken before minimums were recorded.
/// `Err` carries the exit code: `EXIT_USAGE` for unreadable files,
/// `EXIT_PARSE` for malformed or wrong-schema documents.
fn load_bench_rows(path: &str) -> Result<Vec<(String, u64)>, ExitCode> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(error) => {
            eprintln!("titalc bench-diff: cannot read `{path}`: {error}");
            return Err(ExitCode::from(EXIT_USAGE));
        }
    };
    let malformed = |message: &str| {
        eprintln!("titalc bench-diff: {path}: {message}");
        Err(ExitCode::from(EXIT_PARSE))
    };
    let doc = match parse_json(&text) {
        Ok(doc) => doc,
        Err(error) => return malformed(&error.to_string()),
    };
    if doc.get("schema").and_then(JsonValue::as_str) != Some("supersym.bench/v1") {
        return malformed("not a supersym.bench/v1 snapshot");
    }
    let Some(rows) = doc.get("rows").and_then(JsonValue::as_array) else {
        return malformed("missing rows array");
    };
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        let name = row.get("name").and_then(JsonValue::as_str);
        let mean_ns = row.get("mean_ns").and_then(JsonValue::as_u64);
        let min_ns = row.get("min_ns").and_then(JsonValue::as_u64);
        match (name, min_ns.or(mean_ns)) {
            (Some(name), Some(ns)) => out.push((name.to_string(), ns)),
            _ => return malformed("row without name/mean_ns"),
        }
    }
    Ok(out)
}

/// `titalc bench-diff OLD.json NEW.json`: per-row percent deltas between
/// two bench snapshots. Rows present in only one snapshot are reported but
/// never counted as regressions. Exits `EXIT_VERIFY` when any common row
/// got slower by more than the threshold (default 10%). With `--only`,
/// rows outside the prefix are still printed but never fail the diff —
/// the shape of a gate that blocks on one subsystem while the rest of the
/// snapshot stays informational.
fn run_bench_diff([old_path, new_path]: &[String; 2], opts: &Opts) -> ExitCode {
    let (threshold, only) = (opts.threshold.unwrap_or(10.0), opts.only.as_ref());
    let old_rows = match load_bench_rows(old_path) {
        Ok(rows) => rows,
        Err(code) => return code,
    };
    let new_rows = match load_bench_rows(new_path) {
        Ok(rows) => rows,
        Err(code) => return code,
    };
    println!("bench diff: {old_path} -> {new_path} (threshold {threshold}%)");
    println!(
        "  {:<44} {:>12} {:>12} {:>9}",
        "row", "old ns", "new ns", "delta"
    );
    let mut regressions = 0_usize;
    for (name, new_ns) in &new_rows {
        let Some(&(_, old_ns)) = old_rows.iter().find(|(n, _)| n == name) else {
            println!("  {name:<44} {:>12} {:>12} {:>9}", "-", new_ns, "new");
            continue;
        };
        let delta = if old_ns == 0 {
            0.0
        } else {
            100.0 * (*new_ns as f64 - old_ns as f64) / old_ns as f64
        };
        let gated = only.is_none_or(|prefix| name.starts_with(prefix.as_str()));
        let flag = if delta > threshold && gated {
            regressions += 1;
            "  REGRESSION"
        } else {
            ""
        };
        println!("  {name:<44} {old_ns:>12} {new_ns:>12} {delta:>+8.1}%{flag}");
    }
    for (name, old_ns) in &old_rows {
        if !new_rows.iter().any(|(n, _)| n == name) {
            println!("  {name:<44} {old_ns:>12} {:>12} {:>9}", "-", "removed");
        }
    }
    if regressions > 0 {
        eprintln!("titalc bench-diff: {regressions} row(s) regressed beyond {threshold}%");
        ExitCode::from(EXIT_VERIFY)
    } else {
        ExitCode::SUCCESS
    }
}

/// `titalc certify`: compile with per-pass translation validation and
/// print one line per optimizer pass stating how its before/after IR
/// snapshots were proven equivalent. Certification failures exit with
/// `EXIT_VERIFY` via the pipeline taxonomy.
fn run_certify(path: &str, source: &str, opts: &Opts) -> ExitCode {
    let (program, certificates) = match compile_certified(source, &opts.compile_options()) {
        Ok(pair) => pair,
        Err(error) => {
            eprintln!("titalc: {path}: {error}");
            return ExitCode::from(error.exit_code());
        }
    };
    let mut structural = 0_usize;
    let mut differential = 0_usize;
    println!(
        "translation validation: ({} optimizer pass runs)",
        certificates.len()
    );
    for cert in &certificates {
        let method = match cert.method {
            Some(CertMethod::Structural) => {
                structural += 1;
                "structural"
            }
            Some(CertMethod::Differential) => {
                differential += 1;
                "differential"
            }
            None => "inconclusive",
        };
        println!("  {:<18} {method}", cert.pass);
        for diagnostic in &cert.diagnostics {
            println!("    {diagnostic}");
        }
    }
    println!(
        "certified: {structural} structural, {differential} differential; \
         {} scheduled instruction(s)",
        program.static_size()
    );
    ExitCode::SUCCESS
}

/// Runs the front end and lowers to IR, reporting errors titalc-style.
/// Front-end rejections exit with `EXIT_PARSE`.
fn lower_tital(path: &str, source: &str) -> Result<supersym::ir::Module, ExitCode> {
    let fail = |error: &dyn std::fmt::Display| {
        eprintln!("titalc: {path}: {error}");
        Err(ExitCode::from(EXIT_PARSE))
    };
    let ast = match supersym::lang::parse(source) {
        Ok(ast) => ast,
        Err(error) => return fail(&error),
    };
    if let Err(error) = supersym::lang::check(&ast) {
        return fail(&error);
    }
    match supersym::ir::lower(&ast) {
        Ok(module) => Ok(module),
        Err(error) => fail(&error),
    }
}

/// Prints diagnostics and converts the batch to an exit code
/// (`EXIT_VERIFY` when any diagnostic is an error).
fn report(path: &str, diagnostics: &[supersym::verify::Diagnostic]) -> ExitCode {
    for diagnostic in diagnostics {
        println!("{diagnostic}");
    }
    let errors = error_count(diagnostics);
    if errors > 0 {
        eprintln!("titalc: {path}: {errors} error(s)");
        ExitCode::from(EXIT_VERIFY)
    } else {
        ExitCode::SUCCESS
    }
}

/// `titalc analyze`: lower a Tital file to IR, dump every block's dataflow
/// facts, then run the dataflow lints. Exits nonzero on lint errors. With
/// `--loops`, print the natural-loop forest and scalar-evolution facts
/// instead of the dataflow dump (`--json` for `supersym.loops/v1`).
fn run_analyze(path: &str, source: &str, opts: &Opts) -> ExitCode {
    let module = match lower_tital(path, source) {
        Ok(module) => module,
        Err(code) => return code,
    };
    if opts.loops {
        if opts.json {
            print!("{}", loops_json(path, &module).pretty());
            return ExitCode::SUCCESS;
        }
        print_loops(&module);
        return ExitCode::SUCCESS;
    }
    print!("{}", dump_module(&module));
    report(path, &lint_module(&module))
}

/// Resolves a [`supersym::ir::VarRef`] to its source-level name.
fn var_name(module: &supersym::ir::Module, func: &supersym::ir::Function, var: &str) -> String {
    // `VarRef` displays as `@g<n>` / `@l<n>`; map back to source names.
    if let Some(n) = var.strip_prefix("@g").and_then(|n| n.parse::<usize>().ok()) {
        if let Some(global) = module.globals.get(n) {
            return global.name.clone();
        }
    }
    if let Some(n) = var.strip_prefix("@l").and_then(|n| n.parse::<usize>().ok()) {
        if let Some(local) = func.vars.get(n) {
            return local.name.clone();
        }
    }
    var.to_string()
}

/// Renders a classified subscript with source-level variable names.
fn subscript_text(
    module: &supersym::ir::Module,
    func: &supersym::ir::Function,
    subscript: Subscript,
) -> String {
    match subscript {
        Subscript::Linear {
            var,
            stride,
            offset,
        } => format!(
            "[{}{offset:+} ; +{stride}/iter]",
            var_name(module, func, &var.to_string())
        ),
        other => other.to_string(),
    }
}

/// `titalc analyze --loops` (text): the loop forest and per-loop
/// scalar-evolution facts of every function that has loops.
fn print_loops(module: &supersym::ir::Module) {
    let mut total = 0usize;
    for func in &module.funcs {
        let scev = function_scev(func);
        total += scev.forest.loops.len();
    }
    println!(
        "loop forest: {total} loop(s) across {} function(s)",
        module.funcs.len()
    );
    for func in &module.funcs {
        let scev = function_scev(func);
        if scev.forest.loops.is_empty() {
            continue;
        }
        println!("fn {}:", func.name);
        for (index, info) in scev.forest.loops.iter().enumerate() {
            let body: Vec<String> = info.body.iter().map(|b| b.to_string()).collect();
            let latches: Vec<String> = info.latches.iter().map(|b| b.to_string()).collect();
            println!(
                "  loop {index}: header {} depth {} body [{}] latches [{}]{}",
                info.header,
                info.depth,
                body.join(" "),
                latches.join(" "),
                if info.is_innermost() {
                    " innermost"
                } else {
                    ""
                }
            );
            let facts = &scev.loops[index];
            for iv in &facts.inductions {
                println!(
                    "    iv {} step {:+}",
                    var_name(module, func, &iv.var.to_string()),
                    iv.step
                );
            }
            for (a, access) in facts.accesses.iter().enumerate() {
                println!(
                    "    access {a}: {} {}{} @ {}:{}",
                    if access.is_write { "write" } else { "read" },
                    module
                        .globals
                        .get(access.arr.0 as usize)
                        .map_or("?", |g| g.name.as_str()),
                    subscript_text(module, func, access.subscript),
                    access.block,
                    access.inst
                );
            }
            for dep in &facts.deps {
                println!(
                    "    dep {} -> {}: {} {}",
                    dep.src, dep.dst, dep.kind, dep.distance
                );
            }
        }
    }
}

/// Builds the `supersym.loops/v1` JSON document for `analyze --loops`.
fn loops_json(path: &str, module: &supersym::ir::Module) -> JsonValue {
    let functions = module
        .funcs
        .iter()
        .map(|func| {
            let scev = function_scev(func);
            let loops = scev
                .forest
                .loops
                .iter()
                .enumerate()
                .map(|(index, info)| {
                    let facts = &scev.loops[index];
                    let inductions = facts
                        .inductions
                        .iter()
                        .map(|iv| {
                            JsonObject::new()
                                .field(
                                    "var",
                                    JsonValue::str(var_name(module, func, &iv.var.to_string())),
                                )
                                .field("step", JsonValue::Int(iv.step))
                                .build()
                        })
                        .collect();
                    let accesses = facts
                        .accesses
                        .iter()
                        .map(|access| {
                            JsonObject::new()
                                .field("block", JsonValue::UInt(access.block.index() as u64))
                                .field("inst", JsonValue::UInt(access.inst as u64))
                                .field(
                                    "array",
                                    JsonValue::str(
                                        module
                                            .globals
                                            .get(access.arr.0 as usize)
                                            .map_or("?", |g| g.name.as_str()),
                                    ),
                                )
                                .field(
                                    "kind",
                                    JsonValue::str(if access.is_write { "write" } else { "read" }),
                                )
                                .field(
                                    "subscript",
                                    JsonValue::str(subscript_text(module, func, access.subscript)),
                                )
                                .build()
                        })
                        .collect();
                    let deps = facts
                        .deps
                        .iter()
                        .map(|dep| {
                            JsonObject::new()
                                .field("src", JsonValue::UInt(dep.src as u64))
                                .field("dst", JsonValue::UInt(dep.dst as u64))
                                .field("kind", JsonValue::str(dep.kind.to_string()))
                                .field(
                                    "distance",
                                    match dep.distance {
                                        Distance::Exact(d) => JsonValue::UInt(d),
                                        Distance::Any => JsonValue::Null,
                                    },
                                )
                                .build()
                        })
                        .collect();
                    JsonObject::new()
                        .field("index", JsonValue::UInt(index as u64))
                        .field("header", JsonValue::UInt(info.header.index() as u64))
                        .field("depth", JsonValue::UInt(info.depth as u64))
                        .field("innermost", JsonValue::Bool(info.is_innermost()))
                        .field(
                            "body",
                            JsonValue::Array(
                                info.body
                                    .iter()
                                    .map(|b| JsonValue::UInt(b.index() as u64))
                                    .collect(),
                            ),
                        )
                        .field(
                            "latches",
                            JsonValue::Array(
                                info.latches
                                    .iter()
                                    .map(|b| JsonValue::UInt(b.index() as u64))
                                    .collect(),
                            ),
                        )
                        .field("inductions", JsonValue::Array(inductions))
                        .field("accesses", JsonValue::Array(accesses))
                        .field("deps", JsonValue::Array(deps))
                        .build()
                })
                .collect();
            JsonObject::new()
                .field("name", JsonValue::str(func.name.clone()))
                .field("loops", JsonValue::Array(loops))
                .build()
        })
        .collect();
    JsonObject::new()
        .field("schema", JsonValue::str("supersym.loops/v1"))
        .field("source", JsonValue::str(path))
        .field("functions", JsonValue::Array(functions))
        .build()
}

/// `titalc lint`: statically check a machine description (`.machine`), a
/// Tital source file (`.tital`, via the dataflow lints), an emitted
/// timeline document (`.json`, via the trace_event validator) or an
/// assembly program (anything else), printing every diagnostic. Parse
/// failures exit with `EXIT_PARSE`; diagnostic errors with `EXIT_VERIFY`.
fn run_lint(path: &str, source: &str, opts: &Opts) -> ExitCode {
    let diagnostics = if path.ends_with(".machine") {
        match parse_machine_spec(source) {
            Ok(spec) => spec.diagnose(),
            Err(error) => {
                eprintln!("titalc: {path}: {error}");
                return ExitCode::from(EXIT_PARSE);
            }
        }
    } else if path.ends_with(".tital") {
        match lower_tital(path, source) {
            Ok(module) => lint_module(&module),
            Err(code) => return code,
        }
    } else if path.ends_with(".json") {
        return match validate_timeline(source) {
            Ok(report) => {
                println!(
                    "{path}: valid timeline ({} event(s), {} lane(s))",
                    report.events, report.lanes
                );
                ExitCode::SUCCESS
            }
            Err(supersym::trace::TimelineError::Parse(error)) => {
                eprintln!("titalc: {path}: {error}");
                ExitCode::from(EXIT_PARSE)
            }
            Err(error) => {
                eprintln!("titalc: {path}: {error}");
                ExitCode::from(EXIT_VERIFY)
            }
        };
    } else {
        let program = match supersym::isa::parse_program(source) {
            Ok(program) => program,
            Err(error) => {
                eprintln!("titalc: {path}: {error}");
                return ExitCode::from(EXIT_PARSE);
            }
        };
        lint_program(&program, opts.machine.as_ref())
    };
    report(path, &diagnostics)
}

/// Compiles `source` and simulates the program, both observed by `sink`,
/// and checks that the run's cycle account balances. Failures are
/// reported on stderr and returned as the exit code.
fn compile_and_simulate(
    source: &str,
    options: &CompileOptions,
    sink: &mut dyn TraceSink,
) -> Result<(Program, SimReport), ExitCode> {
    let program = compile_with_trace(source, options, sink).map_err(|error| {
        eprintln!("titalc: {error}");
        ExitCode::from(error.exit_code())
    })?;
    let machine = &options.machine;
    let report =
        simulate_with_sink(&program, machine, SimOptions::default(), sink).map_err(|error| {
            eprintln!("titalc: runtime error: {error}");
            ExitCode::from(EXIT_SIM)
        })?;
    if !report.cycle_account().conserved() {
        eprintln!(
            "titalc: internal error: cycle account does not balance on `{}`",
            machine.name()
        );
        return Err(ExitCode::from(EXIT_SIM));
    }
    Ok((program, report))
}

/// Records compile phases in memory for the profile report while
/// optionally forwarding every phase *and* issue event to a JSON-lines
/// trace file. Issue events are never buffered in memory — a long run
/// emits one per dynamic instruction.
struct ProfileSink {
    memory: MemorySink,
    file: Option<JsonLinesSink<BufWriter<std::fs::File>>>,
    timeline: Option<TimelineSink<BufWriter<std::fs::File>>>,
}

impl TraceSink for ProfileSink {
    fn phase(&mut self, record: &PhaseRecord<'_>) {
        self.memory.phase(record);
        if let Some(file) = &mut self.file {
            file.phase(record);
        }
        if let Some(timeline) = &mut self.timeline {
            timeline.phase(record);
        }
    }

    fn issue(&mut self, event: &IssueEvent) {
        if let Some(file) = &mut self.file {
            file.issue(event);
        }
        if let Some(timeline) = &mut self.timeline {
            timeline.issue(event);
        }
    }
}

/// Opens `--trace <FILE>` for JSON-lines streaming.
fn open_trace(path: &str) -> Result<JsonLinesSink<BufWriter<std::fs::File>>, ExitCode> {
    match std::fs::File::create(path) {
        Ok(file) => Ok(JsonLinesSink::new(BufWriter::new(file))),
        Err(error) => {
            eprintln!("titalc: cannot write trace to `{path}`: {error}");
            Err(ExitCode::from(EXIT_SIM))
        }
    }
}

/// Flushes the writer a finished trace or timeline sink hands back,
/// surfacing any write error the sink quietly swallowed mid-run.
fn close_output(
    finished: std::io::Result<BufWriter<std::fs::File>>,
    what: &str,
    path: &str,
) -> Result<(), ExitCode> {
    finished
        .and_then(|mut writer| writer.flush())
        .map_err(|error| {
            eprintln!("titalc: error writing {what} `{path}`: {error}");
            ExitCode::from(EXIT_SIM)
        })
}

/// Opens `--timeline <FILE>` with its simulate lanes named after
/// `machine`'s functional units. Failures exit `EXIT_SIM`, like every
/// other requested-output writer.
fn open_timeline(
    path: &str,
    machine: &MachineConfig,
) -> Result<TimelineSink<BufWriter<std::fs::File>>, ExitCode> {
    match std::fs::File::create(path) {
        Ok(file) => {
            let lanes = machine
                .functional_units()
                .iter()
                .map(|unit| unit.name().to_string())
                .collect();
            let class_lane = InstrClass::ALL
                .iter()
                .map(|&class| (class.mnemonic().to_string(), machine.unit_of(class)))
                .collect();
            Ok(TimelineSink::new(BufWriter::new(file)).with_pipeline_lanes(lanes, class_lane))
        }
        Err(error) => {
            eprintln!("titalc: cannot write timeline to `{path}`: {error}");
            Err(ExitCode::from(EXIT_SIM))
        }
    }
}

/// Prints the cycle account: every machine cycle charged to issue, one
/// stall cause, or pipeline drain (the rows sum exactly to the total).
fn print_cycle_account(account: &CycleAccount) {
    let total = account.machine_cycles().max(1);
    let pct = |cycles: u64| 100.0 * cycles as f64 / total as f64;
    println!(
        "cycle account:  ({} machine cycles; rows sum exactly)",
        account.machine_cycles()
    );
    println!(
        "  {:<22} {:>12} {:>7.1}%",
        "issue",
        account.issue_cycles(),
        pct(account.issue_cycles())
    );
    for (index, name) in StallCause::NAMES.iter().enumerate() {
        let cycles = account.stall_cycles(index);
        if cycles > 0 {
            println!("  {name:<22} {cycles:>12} {:>7.1}%", pct(cycles));
        }
    }
    if account.drain_cycles() > 0 {
        println!(
            "  {:<22} {:>12} {:>7.1}%",
            "drain",
            account.drain_cycles(),
            pct(account.drain_cycles())
        );
    }
}

/// Prints the dynamic class census folded together with the per-class wait
/// rollup: one aligned table instead of two disjoint ones.
fn print_class_table(census: &ClassCensus, account: &CycleAccount) {
    let total = census.total().max(1);
    println!("class mix:      (dynamic count · share · cycles spent waiting to issue)");
    println!(
        "  {:<10} {:>12} {:>7} {:>12}",
        "class", "count", "share", "wait cycles"
    );
    for class in InstrClass::ALL {
        let count = census.count(class);
        let wait = account.class_wait_cycles(class);
        if count == 0 && wait == 0 {
            continue;
        }
        println!(
            "  {:<10} {count:>12} {:>6.1}% {wait:>12}",
            class.mnemonic(),
            100.0 * count as f64 / total as f64
        );
    }
    println!(
        "  {:<10} {:>12} {:>6.1}% {:>12}",
        "total",
        census.total(),
        100.0,
        account.total_wait_cycles()
    );
}

/// Prints per-functional-unit wait pressure (FU-busy waits only).
fn print_fu_waits(account: &CycleAccount) {
    let rows: Vec<(&str, u64)> = account.fu_wait_cycles().filter(|&(_, w)| w > 0).collect();
    if rows.is_empty() {
        return;
    }
    println!("functional-unit pressure: (cycles instructions waited on a busy unit)");
    for (name, wait) in rows {
        println!("  {name:<22} {wait:>12}");
    }
}

/// Prints the most-waited-on producer instructions.
fn print_producers(report: &SimReport) {
    let producers = report.critical_producers();
    if producers.is_empty() {
        return;
    }
    println!("critical producers: (result latency most waited on)");
    for p in producers {
        println!(
            "  {:>8} cycles  {}:{:<4} {}",
            p.wait_cycles, p.function, p.pc, p.instr
        );
    }
}

/// Rounds to four decimals so the JSON report is stable to read and diff.
fn round4(value: f64) -> f64 {
    (value * 10_000.0).round() / 10_000.0
}

/// Builds the `supersym.profile/v1` JSON document.
fn profile_json(
    path: &str,
    opt: OptLevel,
    oracle: OracleKind,
    report: &SimReport,
    static_size: usize,
    phases: &[supersym::trace::OwnedPhase],
) -> JsonValue {
    let account = report.cycle_account();
    let phase_array = phases
        .iter()
        .map(|phase| {
            let mut counters = JsonObject::new();
            for (key, value) in &phase.counters {
                counters = counters.field(key.clone(), JsonValue::UInt(*value));
            }
            JsonObject::new()
                .field("name", JsonValue::str(phase.name.clone()))
                .field(
                    "wall_ns",
                    JsonValue::UInt(u64::try_from(phase.wall_ns).unwrap_or(u64::MAX)),
                )
                .field("counters", counters.build())
                .build()
        })
        .collect();
    let mut stalls = JsonObject::new();
    let mut waits = JsonObject::new();
    for (index, label) in StallCause::LABELS.iter().enumerate() {
        stalls = stalls.field(*label, JsonValue::UInt(account.stall_cycles(index)));
        waits = waits.field(*label, JsonValue::UInt(account.wait_cycles(index)));
    }
    let classes = InstrClass::ALL
        .iter()
        .filter(|class| {
            report.census().count(**class) > 0 || account.class_wait_cycles(**class) > 0
        })
        .map(|class| {
            JsonObject::new()
                .field("class", JsonValue::str(class.mnemonic()))
                .field("count", JsonValue::UInt(report.census().count(*class)))
                .field(
                    "wait_cycles",
                    JsonValue::UInt(account.class_wait_cycles(*class)),
                )
                .build()
        })
        .collect();
    let units = account
        .fu_wait_cycles()
        .map(|(name, wait)| {
            JsonObject::new()
                .field("name", JsonValue::str(name))
                .field("wait_cycles", JsonValue::UInt(wait))
                .build()
        })
        .collect();
    let producers = report
        .critical_producers()
        .iter()
        .map(|p| {
            JsonObject::new()
                .field("function", JsonValue::str(p.function.clone()))
                .field("pc", JsonValue::UInt(p.pc as u64))
                .field("instr", JsonValue::str(p.instr.clone()))
                .field("wait_cycles", JsonValue::UInt(p.wait_cycles))
                .build()
        })
        .collect();
    let cycles = JsonObject::new()
        .field("total", JsonValue::UInt(account.machine_cycles()))
        .field("issue", JsonValue::UInt(account.issue_cycles()))
        .field("stalls", stalls.build())
        .field("drain", JsonValue::UInt(account.drain_cycles()))
        .field("conserved", JsonValue::Bool(account.conserved()))
        .build();
    let run = JsonObject::new()
        .field("instructions", JsonValue::UInt(report.instructions()))
        .field("machine_cycles", JsonValue::UInt(report.machine_cycles()))
        .field(
            "base_cycles",
            JsonValue::Float(round4(report.base_cycles())),
        )
        .field(
            "rate",
            JsonValue::Float(round4(report.available_parallelism())),
        )
        .field("cycles", cycles)
        .field("waits", waits.build())
        .field("classes", JsonValue::Array(classes))
        .field("functional_units", JsonValue::Array(units))
        .field("critical_producers", JsonValue::Array(producers))
        .build();
    JsonObject::new()
        .field("schema", JsonValue::str("supersym.profile/v1"))
        .field("source", JsonValue::str(path))
        .field("machine", JsonValue::str(report.machine()))
        .field("optimization", JsonValue::str(opt.label()))
        .field(
            "oracle",
            JsonValue::str(match oracle {
                OracleKind::Symbolic => "symbolic",
                OracleKind::Conservative => "conservative",
            }),
        )
        .field("static_size", JsonValue::UInt(static_size as u64))
        .field(
            "compile",
            JsonObject::new()
                .field("phases", JsonValue::Array(phase_array))
                .build(),
        )
        .field("run", run)
        .build()
}

/// `titalc profile`: compile with phase telemetry, run with the cycle
/// account, and report both — as tables, or as one JSON document with
/// `--json`. `--trace <FILE>` additionally streams raw events.
fn run_profile(path: &str, source: &str, opts: &Opts) -> ExitCode {
    let options = opts.compile_options();
    let machine = &options.machine;
    let file = match &opts.trace {
        Some(trace_path) => match open_trace(trace_path) {
            Ok(sink) => Some(sink),
            Err(code) => return code,
        },
        None => None,
    };
    let timeline = match &opts.timeline {
        Some(timeline_path) => match open_timeline(timeline_path, machine) {
            Ok(sink) => Some(sink),
            Err(code) => return code,
        },
        None => None,
    };
    let mut sink = ProfileSink {
        memory: MemorySink::new(),
        file,
        timeline,
    };
    let (program, report) = match compile_and_simulate(source, &options, &mut sink) {
        Ok(run) => run,
        Err(code) => return code,
    };
    if let Some(file) = sink.file.take() {
        if let Err(code) = close_output(file.finish(), "trace", opts.trace.as_deref().unwrap_or(""))
        {
            return code;
        }
    }
    if let Some(timeline) = sink.timeline.take() {
        if let Err(code) = close_output(
            timeline.finish(),
            "timeline",
            opts.timeline.as_deref().unwrap_or(""),
        ) {
            return code;
        }
    }
    if opts.json {
        print!(
            "{}",
            profile_json(
                path,
                opts.opt,
                opts.oracle,
                &report,
                program.static_size(),
                &sink.memory.phases
            )
            .pretty()
        );
        return ExitCode::SUCCESS;
    }
    println!("machine:        {}", machine.name());
    println!("optimization:   {}", opts.opt);
    println!("static size:    {} instructions", program.static_size());
    println!("dynamic count:  {} instructions", report.instructions());
    println!("time:           {:.1} base cycles", report.base_cycles());
    println!(
        "rate:           {:.3} instructions/cycle",
        report.available_parallelism()
    );
    println!("compile phases:");
    for phase in &sink.memory.phases {
        let mut counters = String::new();
        for (key, value) in &phase.counters {
            counters.push_str(&format!("  {key}={value}"));
        }
        println!(
            "  {:<16} {:>9.3}ms{counters}",
            phase.name,
            phase.wall_ns as f64 / 1e6
        );
    }
    let account = report.cycle_account();
    print_cycle_account(account);
    print_class_table(report.census(), account);
    print_fu_waits(account);
    print_producers(&report);
    ExitCode::SUCCESS
}

/// Captures what `titalc stats` needs from one compile+run: phases in
/// memory for the wall-time block, issue events folded straight into the
/// distribution histograms (never buffered).
struct StatsSink {
    memory: MemorySink,
    metrics: MetricsSink,
}

impl TraceSink for StatsSink {
    fn phase(&mut self, record: &PhaseRecord<'_>) {
        self.memory.phase(record);
    }

    fn issue(&mut self, event: &IssueEvent) {
        self.metrics.issue(event);
    }
}

/// `titalc stats`: compile and run like `titalc profile`, then emit one
/// `supersym.metrics/v1` document — the metrics registry (compile phase
/// counters, run counters/gauges, stall-run-length and per-block ILP
/// histograms) plus the per-phase wall times. Everything in `metrics` is
/// deterministic; wall time lives only in `compile.phases`.
fn run_stats(path: &str, source: &str, opts: &Opts) -> ExitCode {
    let options = opts.compile_options();
    let mut sink = StatsSink {
        memory: MemorySink::new(),
        metrics: MetricsSink::new(),
    };
    let (program, report) = match compile_and_simulate(source, &options, &mut sink) {
        Ok(run) => run,
        Err(code) => return code,
    };
    let account = report.cycle_account();
    let mut registry = phase_metrics(&sink.memory.phases);
    registry.counter("sim.static_size", program.static_size() as u64);
    registry.counter("sim.instructions", report.instructions());
    registry.counter("sim.machine_cycles", report.machine_cycles());
    registry.counter("sim.issue_cycles", account.issue_cycles());
    registry.counter("sim.stall_cycles", account.total_stall_cycles());
    registry.counter("sim.drain_cycles", account.drain_cycles());
    registry.gauge("sim.ilp", round4(report.available_parallelism()));
    report.block_cache_stats().register(&mut registry);
    sink.metrics.register(&mut registry);
    let phase_array = sink
        .memory
        .phases
        .iter()
        .map(|phase| {
            JsonObject::new()
                .field("name", JsonValue::str(phase.name.clone()))
                .field(
                    "wall_ns",
                    JsonValue::UInt(u64::try_from(phase.wall_ns).unwrap_or(u64::MAX)),
                )
                .build()
        })
        .collect();
    let doc = JsonObject::new()
        .field("schema", JsonValue::str(METRICS_SCHEMA))
        .field("source", JsonValue::str(path))
        .field("machine", JsonValue::str(options.machine.name()))
        .field("optimization", JsonValue::str(opts.opt.label()))
        .field(
            "compile",
            JsonObject::new()
                .field("phases", JsonValue::Array(phase_array))
                .build(),
        )
        .field("metrics", registry.to_json())
        .build();
    print!("{}", doc.pretty());
    ExitCode::SUCCESS
}

/// One workload × machine cell of the bound report as JSON
/// (a row of `supersym.bound/v1`).
fn bound_cell_json(cell: &supersym::experiments::BoundCell) -> JsonValue {
    JsonObject::new()
        .field("benchmark", JsonValue::str(cell.benchmark.clone()))
        .field("loops", JsonValue::UInt(cell.loops as u64))
        .field(
            "lower_bound_cycles",
            JsonValue::UInt(cell.lower_bound_cycles),
        )
        .field("machine_cycles", JsonValue::UInt(cell.machine_cycles))
        .field("bound_ilp", JsonValue::Float(round4(cell.bound_ilp)))
        .field("measured_ilp", JsonValue::Float(round4(cell.measured_ilp)))
        .field("rec_min_ii", JsonValue::Float(round4(cell.rec_min_ii)))
        .field("res_min_ii", JsonValue::Float(round4(cell.res_min_ii)))
        .field("sound", JsonValue::Bool(cell.sound))
        .build()
}

/// `titalc bound` without a FILE: sweep the benchmark suite over every
/// machine preset (or just the `-m` one) and report the static ILP
/// ceiling next to measured parallelism per cell. Any unsound cell —
/// measured ILP above the static ceiling — exits `EXIT_VERIFY`.
fn run_bound_suite(opts: &Opts) -> ExitCode {
    let machines: Vec<MachineConfig> = match &opts.machine {
        Some(machine) => vec![machine.clone()],
        None => MACHINES
            .iter()
            .flat_map(|(_, _, build, suite)| suite.iter().map(|degrees| build(degrees)))
            .collect(),
    };
    let workloads = suite(Size::Small);
    let mut all_sound = true;
    let mut rows: Vec<(String, Vec<supersym::experiments::BoundCell>)> = Vec::new();
    for machine in &machines {
        let mut cells = Vec::new();
        for workload in &workloads {
            let options = CompileOptions::new(opts.opt, machine).with_oracle(opts.oracle);
            let program = match compile(&workload.source, &options) {
                Ok(program) => program,
                Err(error) => {
                    eprintln!("titalc: {}: {error}", workload.name);
                    return ExitCode::from(error.exit_code());
                }
            };
            let cell = measure_bound(workload.name, &program, machine);
            all_sound &= cell.sound;
            cells.push(cell);
        }
        rows.push((machine.name().to_string(), cells));
    }
    if opts.json {
        let machines_json = rows
            .iter()
            .map(|(name, cells)| {
                JsonObject::new()
                    .field("machine", JsonValue::str(name.clone()))
                    .field(
                        "cells",
                        JsonValue::Array(cells.iter().map(bound_cell_json).collect()),
                    )
                    .build()
            })
            .collect();
        let doc = JsonObject::new()
            .field("schema", JsonValue::str("supersym.bound/v1"))
            .field("optimization", JsonValue::str(opts.opt.label()))
            .field("suite", JsonValue::str("small"))
            .field("machines", JsonValue::Array(machines_json))
            .field("sound", JsonValue::Bool(all_sound))
            .build();
        print!("{}", doc.pretty());
    } else {
        println!(
            "bound study: static ILP ceiling vs measured parallelism (suite, {})",
            opts.opt
        );
        for (name, cells) in &rows {
            println!("  {name}");
            println!(
                "    {:10} {:>5} {:>12} {:>12} {:>8} {:>8} {:>8} {:>8} {:>6}",
                "benchmark",
                "loops",
                "lb-cycles",
                "cycles",
                "bound",
                "ilp",
                "rec-ii",
                "res-ii",
                "sound"
            );
            for c in cells {
                println!(
                    "    {:10} {:>5} {:>12} {:>12} {:>8.3} {:>8.3} {:>8.2} {:>8.2} {:>6}",
                    c.benchmark,
                    c.loops,
                    c.lower_bound_cycles,
                    c.machine_cycles,
                    c.bound_ilp,
                    c.measured_ilp,
                    c.rec_min_ii,
                    c.res_min_ii,
                    c.sound
                );
            }
        }
    }
    if all_sound {
        ExitCode::SUCCESS
    } else {
        eprintln!("titalc: bound soundness violated: measured ILP exceeds a static ceiling");
        ExitCode::from(EXIT_VERIFY)
    }
}

/// `titalc bound FILE`: compile one program for the chosen preset, report
/// its innermost machine loops with their static facts, and check the
/// soundness invariant against a counted run.
fn run_bound_file(path: &str, source: &str, opts: &Opts) -> ExitCode {
    let options = opts.compile_options();
    let machine = &options.machine;
    let program = match compile(source, &options) {
        Ok(program) => program,
        Err(error) => {
            eprintln!("titalc: {error}");
            return ExitCode::from(error.exit_code());
        }
    };
    let oracle = opts.oracle.as_loop_oracle();
    let statics = program_loop_statics(&program, machine, oracle);
    let watches: Vec<(u32, u64, u64)> = statics
        .iter()
        .map(|s| (s.func as u32, s.header as u64, s.latch as u64))
        .collect();
    let mut sink = LoopCountSink::new(&watches);
    let report = match simulate_with_sink(&program, machine, SimOptions::default(), &mut sink) {
        Ok(report) => report,
        Err(error) => {
            eprintln!("titalc: runtime error: {error}");
            return ExitCode::from(EXIT_SIM);
        }
    };
    let counts: Vec<LoopCount> = sink
        .counts()
        .into_iter()
        .map(|(iterations, visits)| LoopCount { iterations, visits })
        .collect();
    let bound = static_bound(
        machine,
        &statics,
        &counts,
        report.instructions(),
        report.census(),
    );
    let measured = report.available_parallelism();
    let sound = measured <= bound.bound_ilp * (1.0 + 1e-9);
    let func_name = |index: usize| {
        program
            .functions()
            .get(index)
            .map_or("?", |f| f.name())
            .to_string()
    };
    if opts.json {
        let loops = statics
            .iter()
            .zip(&counts)
            .map(|(s, c)| {
                JsonObject::new()
                    .field("func", JsonValue::str(func_name(s.func)))
                    .field("header", JsonValue::UInt(s.header as u64))
                    .field("latch", JsonValue::UInt(s.latch as u64))
                    .field("body_len", JsonValue::UInt(s.body_len as u64))
                    .field("critical_path", JsonValue::UInt(s.critical_path))
                    .field("delta", JsonValue::UInt(s.delta))
                    .field("rec_min_ii", JsonValue::Float(round4(s.rec_min_ii)))
                    .field("res_min_ii", JsonValue::Float(round4(s.res_min_ii)))
                    .field("iterations", JsonValue::UInt(c.iterations))
                    .field("visits", JsonValue::UInt(c.visits))
                    .build()
            })
            .collect();
        let doc = JsonObject::new()
            .field("schema", JsonValue::str("supersym.bound/v1"))
            .field("source", JsonValue::str(path))
            .field("machine", JsonValue::str(machine.name()))
            .field("optimization", JsonValue::str(opts.opt.label()))
            .field("loops", JsonValue::Array(loops))
            .field(
                "bound",
                JsonObject::new()
                    .field(
                        "lower_bound_cycles",
                        JsonValue::UInt(bound.lower_bound_cycles),
                    )
                    .field("bound_ilp", JsonValue::Float(round4(bound.bound_ilp)))
                    .field("rec_min_ii", JsonValue::Float(round4(bound.rec_min_ii)))
                    .field("res_min_ii", JsonValue::Float(round4(bound.res_min_ii)))
                    .build(),
            )
            .field(
                "run",
                JsonObject::new()
                    .field("instructions", JsonValue::UInt(report.instructions()))
                    .field("machine_cycles", JsonValue::UInt(report.machine_cycles()))
                    .field("measured_ilp", JsonValue::Float(round4(measured)))
                    .build(),
            )
            .field("sound", JsonValue::Bool(sound))
            .build();
        print!("{}", doc.pretty());
    } else {
        println!("machine:        {}", machine.name());
        println!("optimization:   {}", opts.opt);
        println!(
            "loops:          {} innermost machine loop(s)",
            statics.len()
        );
        if !statics.is_empty() {
            println!(
                "  {:<14} {:>6} {:>6} {:>5} {:>5} {:>6} {:>7} {:>7} {:>9} {:>7}",
                "func",
                "header",
                "latch",
                "body",
                "path",
                "delta",
                "rec-ii",
                "res-ii",
                "iters",
                "visits"
            );
            for (s, c) in statics.iter().zip(&counts) {
                println!(
                    "  {:<14} {:>6} {:>6} {:>5} {:>5} {:>6} {:>7.2} {:>7.2} {:>9} {:>7}",
                    func_name(s.func),
                    s.header,
                    s.latch,
                    s.body_len,
                    s.critical_path,
                    s.delta,
                    s.rec_min_ii,
                    s.res_min_ii,
                    c.iterations,
                    c.visits
                );
            }
        }
        println!(
            "bound:          {} machine cycle(s) lower bound -> ILP ceiling {:.3}",
            bound.lower_bound_cycles, bound.bound_ilp
        );
        println!(
            "measured:       {} machine cycle(s), ILP {:.3}",
            report.machine_cycles(),
            measured
        );
        println!("sound:          {sound}");
    }
    if sound {
        ExitCode::SUCCESS
    } else {
        eprintln!("titalc: bound soundness violated: measured ILP exceeds the static ceiling");
        ExitCode::from(EXIT_VERIFY)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    run(&argv)
}

/// Parses `argv` (without the program name) and runs the command.
fn run(argv: &[String]) -> ExitCode {
    let command = match parse_args(argv) {
        Ok(command) => command,
        Err(message) => {
            eprintln!("titalc: {message}\n(see `titalc --help`)");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    type FileRunner = fn(&str, &str, &Opts) -> ExitCode;
    let (path, opts, runner): (String, Opts, FileRunner) = match command {
        Command::Help => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Command::Machines => {
            println!("machine presets:");
            for (spelling, about, ..) in MACHINES {
                println!("  {spelling:<22}{about}");
            }
            println!("degrees: <n> in 1..=64, <m> in 1..=16 (the `sweep --grid` bounds)");
            return ExitCode::SUCCESS;
        }
        Command::Torture(opts) => return run_torture_cmd(&opts),
        Command::Synth(opts) => return run_synth_cmd(opts.check),
        Command::Sweep(grid, opts) => return run_sweep_cmd(grid, &opts),
        Command::BenchDiff(snapshots, opts) => return run_bench_diff(&snapshots, &opts),
        Command::Bound(None, opts) => return run_bound_suite(&opts),
        Command::Bound(Some(path), opts) => (path, opts, run_bound_file),
        Command::Run(path, opts) => (path, opts, run_compile),
        Command::Lint(path, opts) => (path, opts, run_lint),
        Command::Analyze(path, opts) => (path, opts, run_analyze),
        Command::Certify(path, opts) => (path, opts, run_certify),
        Command::Profile(path, opts) => (path, opts, run_profile),
        Command::Stats(path, opts) => (path, opts, run_stats),
    };
    match std::fs::read_to_string(&path) {
        Ok(source) => runner(&path, &source, &opts),
        Err(error) => {
            eprintln!("titalc: cannot read `{path}`: {error}");
            ExitCode::from(EXIT_USAGE)
        }
    }
}

/// Plain `titalc`: compile, then print the scheduled assembly (`--dump`)
/// or simulate and report cycles (with `--cache`, cache miss rates too).
fn run_compile(_path: &str, source: &str, opts: &Opts) -> ExitCode {
    let options = opts.compile_options();
    let machine = &options.machine;
    let program = match compile(source, &options) {
        Ok(program) => program,
        Err(error) => {
            eprintln!("titalc: {error}");
            return ExitCode::from(error.exit_code());
        }
    };
    if opts.dump {
        print!("{program}");
        return ExitCode::SUCCESS;
    }
    let mut trace_sink = match &opts.trace {
        Some(trace_path) => match open_trace(trace_path) {
            Ok(sink) => Some(sink),
            Err(code) => return code,
        },
        None => None,
    };
    let report = match trace_sink.as_mut().map_or_else(
        || simulate(&program, machine, SimOptions::default()),
        |sink| simulate_with_sink(&program, machine, SimOptions::default(), sink),
    ) {
        Ok(report) => report,
        Err(error) => {
            eprintln!("titalc: runtime error: {error}");
            return ExitCode::from(EXIT_SIM);
        }
    };
    if let Some(sink) = trace_sink {
        if let Err(code) = close_output(sink.finish(), "trace", opts.trace.as_deref().unwrap_or(""))
        {
            return code;
        }
    }
    println!("machine:        {}", machine.name());
    println!("optimization:   {}", opts.opt);
    println!("static size:    {} instructions", program.static_size());
    println!("dynamic count:  {} instructions", report.instructions());
    println!("time:           {:.1} base cycles", report.base_cycles());
    println!(
        "rate:           {:.3} instructions/cycle",
        report.available_parallelism()
    );
    print_cycle_account(report.cycle_account());
    print_class_table(report.census(), report.cycle_account());
    if opts.cache {
        let (_, caches) = match simulate_with_cache(
            &program,
            machine,
            SimOptions::default(),
            CacheConfig::small_direct(),
            CacheConfig::small_direct(),
        ) {
            Ok(run) => run,
            Err(error) => {
                // The cached rerun replays a program that already ran
                // clean, but a runtime error here must not panic the CLI.
                eprintln!("titalc: cache simulation failed: {error}");
                return ExitCode::from(EXIT_SIM);
            }
        };
        println!(
            "caches (8KiB):  I-miss {:.2}%  D-miss {:.2}%  ({:.4} misses/instr)",
            caches.icache.miss_rate() * 100.0,
            caches.dcache.miss_rate() * 100.0,
            caches.misses_per_instruction
        );
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn parse(argv: &[&str]) -> Result<Command, String> {
        let argv: Vec<String> = argv.iter().map(|arg| (*arg).to_string()).collect();
        parse_args(&argv)
    }

    fn file(path: &str) -> String {
        path.to_string()
    }

    fn on(name: &str) -> Opts {
        Opts {
            machine: Some(parse_machine(name).unwrap()),
            ..Opts::default()
        }
    }

    fn grid(text: &str) -> GridSpec {
        GridSpec::parse(text).unwrap()
    }

    /// The paper presets the CI smoke loops run, built straight from
    /// `presets` rather than through the machine table.
    fn ci_presets() -> Vec<(&'static str, MachineConfig)> {
        vec![
            ("base", presets::base()),
            ("multititan", presets::multititan()),
            ("cray1", presets::cray1()),
            ("vliw:4", presets::vliw(4)),
            ("superscalar:2", presets::ideal_superscalar(2)),
            ("superscalar:8", presets::ideal_superscalar(8)),
            ("superpipelined:4", presets::superpipelined(4)),
            ("ssp:2:2", presets::superpipelined_superscalar(2, 2)),
            ("conflicts:4", presets::superscalar_with_class_conflicts(4)),
            ("slowcycle", presets::underpipelined_slow_cycle()),
            ("underpipelined", presets::underpipelined_half_issue()),
        ]
    }

    /// Every argv the CLI and sweep integration tests and the CI workflow
    /// pass to `titalc`, with the command it must resolve to.
    #[test]
    fn accepted_argv_resolve_to_their_commands() {
        let d = Opts::default;
        let some = |text: &str| Some(text.to_string());
        let names = |csv: &str| Some(csv.split(',').map(String::from).collect());
        let plain = |opts| Command::Run(file("p.tital"), opts);
        let profile = |opts| Command::Profile(file("p.tital"), opts);
        let sweep = |text: &str, opts| Command::Sweep(grid(text), opts);
        let pair = || [file("a.json"), file("b.json")];
        let small = "issue=1,2,4 pipe=1,2 lat=unit,titan";
        let study = "issue=1,2,4,8 pipe=1,2,4 lat=unit,titan fu=ideal,shared";
        let big = "issue=1..8 pipe=1..4 lat=unit,titan,cray fu=ideal,shared";
        #[rustfmt::skip]
        let cases: Vec<(Vec<&str>, Command)> = vec![
            (vec!["lint", "b.machine"], Command::Lint(file("b.machine"), d())),
            (vec!["lint", "t.json"], Command::Lint(file("t.json"), d())),
            (vec!["p.tital"], plain(d())),
            (vec!["-m", "cray1", "p.tital"], plain(on("cray1"))),
            (vec!["--verify", "-m", "superscalar:4", "p.tital"],
             plain(Opts { verify: true, ..on("superscalar:4") })),
            (vec!["--verify", "--oracle", "symbolic", "p.tital"], plain(Opts { verify: true, ..d() })),
            (vec!["--verify", "--oracle", "conservative", "p.tital"],
             plain(Opts { verify: true, oracle: OracleKind::Conservative, ..d() })),
            (vec!["--help"], Command::Help),
            (vec!["sweep", "-h"], Command::Help),
            (vec!["--machines"], Command::Machines),
            (vec!["analyze", "c.tital"], Command::Analyze(file("c.tital"), d())),
            (vec!["analyze", "--loops", "c.tital"],
             Command::Analyze(file("c.tital"), Opts { loops: true, ..d() })),
            (vec!["analyze", "--loops", "--json", "c.tital"],
             Command::Analyze(file("c.tital"), Opts { loops: true, json: true, ..d() })),
            (vec!["profile", "--json", "--verify", "-m", "multititan", "p.tital"],
             profile(Opts { json: true, verify: true, ..on("multititan") })),
            (vec!["profile", "-m", "superscalar:4", "p.tital"], profile(on("superscalar:4"))),
            (vec!["profile", "--trace", "t.jsonl", "p.tital"],
             profile(Opts { trace: some("t.jsonl"), ..d() })),
            (vec!["profile", "--timeline", "t.json", "-m", "superscalar:4", "p.tital"],
             profile(Opts { timeline: some("t.json"), ..on("superscalar:4") })),
            (vec!["stats", "--verify", "-m", "multititan", "p.tital"],
             Command::Stats(file("p.tital"), Opts { verify: true, ..on("multititan") })),
            (vec!["bound", "-m", "superscalar:2", "l.tital"],
             Command::Bound(some("l.tital"), on("superscalar:2"))),
            (vec!["bound", "--json", "l.tital"],
             Command::Bound(some("l.tital"), Opts { json: true, ..d() })),
            (vec!["bound", "-m", "superscalar:2", "--json"],
             Command::Bound(None, Opts { json: true, ..on("superscalar:2") })),
            (vec!["certify", "-m", "multititan", "--unroll", "careful:2", "p.tital"],
             Command::Certify(file("p.tital"),
                              Opts { unroll: Some(UnrollOptions::careful(2)), ..on("multititan") })),
            (vec!["torture", "--seed", "9", "--iters", "25"],
             Command::Torture(Opts { seed: 9, iters: Some(25), ..d() })),
            (vec!["torture", "--seed", "3735928559", "--iters", "500"],
             Command::Torture(Opts { seed: 3_735_928_559, iters: Some(500), ..d() })),
            (vec!["torture", "--replay", "tests/corpus"],
             Command::Torture(Opts { replay: some("tests/corpus"), ..d() })),
            (vec!["synth", "--check"], Command::Synth(Opts { check: true, ..d() })),
            (vec!["bench-diff", "a.json", "b.json"], Command::BenchDiff(pair(), d())),
            (vec!["bench-diff", "--threshold", "50", "a.json", "b.json"],
             Command::BenchDiff(pair(), Opts { threshold: Some(50.0), ..d() })),
            (vec!["bench-diff", "--threshold", "75", "--only", "simulate/", "a.json", "b.json"],
             Command::BenchDiff(pair(), Opts { threshold: Some(75.0), only: some("simulate/"), ..d() })),
            (vec!["sweep", "--grid", small, "--workloads", "whet", "--jobs", "2", "--out", "o.jsonl",
                  "--checkpoint", "ck.jsonl"],
             sweep(small, Opts { workloads: names("whet"), jobs: Some(2), out: some("o.jsonl"),
                                 checkpoint: some("ck.jsonl"), ..d() })),
            (vec!["sweep", "--grid", small, "--workloads", "whet", "--jobs", "2", "--out", "o.jsonl",
                  "--resume", "ck.jsonl"],
             sweep(small, Opts { workloads: names("whet"), jobs: Some(2), out: some("o.jsonl"),
                                 checkpoint: some("ck.jsonl"), resume: true, ..d() })),
            (vec!["sweep", "--grid", small, "--workloads", "whet", "--jobs", "2", "--out", "o.jsonl",
                  "--inject", "panic:5,timeout:7"],
             sweep(small, Opts { workloads: names("whet"), jobs: Some(2), out: some("o.jsonl"),
                                 inject: FaultInjection { panic_every: Some(5), timeout_every: Some(7) },
                                 ..d() })),
            (vec!["sweep", "--grid", small, "--workloads", "whet", "--jobs", "2", "--out", "o.jsonl",
                  "--cache", "c.jsonl"],
             sweep(small, Opts { workloads: names("whet"), jobs: Some(2), out: some("o.jsonl"),
                                 cache_file: some("c.jsonl"), ..d() })),
            (vec!["sweep", "--grid", small, "--workloads", "whet", "--jobs", "2", "--out", "o.jsonl",
                  "--timeline", "t.json", "--jobs", "4"],
             sweep(small, Opts { workloads: names("whet"), jobs: Some(4), out: some("o.jsonl"),
                                 timeline: some("t.json"), ..d() })),
            (vec!["sweep", "--grid", "issue=1,2 pipe=1", "--workloads", "whet", "--resume", "ck.jsonl"],
             sweep("issue=1,2 pipe=1", Opts { workloads: names("whet"), checkpoint: some("ck.jsonl"),
                                              resume: true, ..d() })),
            (vec!["sweep", "--grid", "issue=1", "--workloads", "nosuch"],
             sweep("issue=1", Opts { workloads: names("nosuch"), ..d() })),
            (vec!["sweep", "--grid", "issue=1,2 pipe=1,2", "--workloads", "whet,linpack", "--jobs", "2",
                  "--checkpoint", "sweep-smoke.jsonl"],
             sweep("issue=1,2 pipe=1,2", Opts { workloads: names("whet,linpack"), jobs: Some(2),
                                                checkpoint: some("sweep-smoke.jsonl"), ..d() })),
            (vec!["sweep", "--grid", study, "--workloads", "whet", "--jobs", "4", "--timeline", "t.json"],
             sweep(study, Opts { workloads: names("whet"), jobs: Some(4), timeline: some("t.json"), ..d() })),
            (vec!["sweep", "--grid", big, "--workloads", "all", "--jobs", "2", "--out", "full.jsonl"],
             sweep(big, Opts { jobs: Some(2), out: some("full.jsonl"), ..d() })),
            (vec!["sweep", "--grid", big, "--workloads", "all", "--jobs", "1", "--checkpoint", "ck.jsonl"],
             sweep(big, Opts { jobs: Some(1), checkpoint: some("ck.jsonl"), ..d() })),
            (vec!["sweep", "--grid", big, "--workloads", "all", "--jobs", "2", "--resume", "ck.jsonl",
                  "--out", "resumed.jsonl"],
             sweep(big, Opts { jobs: Some(2), checkpoint: some("ck.jsonl"), resume: true,
                               out: some("resumed.jsonl"), ..d() })),
            (vec!["sweep", "--grid", "issue=1", "-O2", "--oracle", "conservative", "--verify"],
             sweep("issue=1", Opts { opt: OptLevel::O2, oracle: OracleKind::Conservative, verify: true,
                                     ..d() })),
            (vec!["sweep", "--grid", "issue=1", "-O"], sweep("issue=1", d())),
        ];
        for (argv, expected) in cases {
            assert_eq!(parse(&argv), Ok(expected), "{argv:?}");
        }
        // The CI smoke loops: certify, profile and bound on every preset.
        for (name, machine) in ci_presets() {
            let on = Opts {
                machine: Some(machine),
                ..d()
            };
            assert_eq!(
                parse(&["certify", "-m", name, "--unroll", "careful:2", "p.tital"]),
                Ok(Command::Certify(
                    file("p.tital"),
                    Opts {
                        unroll: Some(UnrollOptions::careful(2)),
                        ..on.clone()
                    }
                )),
                "{name}"
            );
            assert_eq!(
                parse(&["profile", "--json", "-m", name, "p.tital"]),
                Ok(Command::Profile(
                    file("p.tital"),
                    Opts {
                        json: true,
                        ..on.clone()
                    }
                )),
                "{name}"
            );
            assert_eq!(
                parse(&["bound", "--json", "-m", name]),
                Ok(Command::Bound(None, Opts { json: true, ..on })),
                "{name}"
            );
        }
    }

    #[test]
    fn bound_suite_sweeps_the_presets_in_study_order() {
        let suite: Vec<MachineConfig> = MACHINES
            .iter()
            .flat_map(|(_, _, build, suite)| suite.iter().map(|degrees| build(degrees)))
            .collect();
        let expected: Vec<MachineConfig> = ci_presets().into_iter().map(|(_, m)| m).collect();
        assert_eq!(suite, expected);
    }

    /// Rejected argv exit with the usage code, promptly and without a
    /// panic, with a message naming the problem.
    #[test]
    fn rejected_argv_exit_with_usage_code() {
        let cases: [(&[&str], &str); 15] = [
            (
                &["-m", "superscalar:0", "p.tital"],
                "value 0 is outside 1..=64",
            ),
            (&["-m", "ssp:0:2", "p.tital"], "value 0 is outside 1..=64"),
            (&["-m", "ssp:2:0", "p.tital"], "value 0 is outside 1..=16"),
            (&["-m", "vliw:0", "p.tital"], "value 0 is outside 1..=64"),
            (
                &["-m", "conflicts:0", "p.tital"],
                "value 0 is outside 1..=64",
            ),
            (
                &["-m", "superpipelined:0", "p.tital"],
                "value 0 is outside 1..=16",
            ),
            (
                &["-m", "superscalar:65", "p.tital"],
                "value 65 is outside 1..=64",
            ),
            (
                &["bound", "-m", "superscalar:0"],
                "value 0 is outside 1..=64",
            ),
            (&["bound", "-m", "quantum"], "unknown machine `quantum`"),
            (&["--unroll", "careful:0", "p.tital"], "outside 1..=64"),
            (&["--unroll", "careful:100000", "p.tital"], "outside 1..=64"),
            (&["--oracle", "quantum", "p.tital"], "unknown oracle"),
            (&["sweep", "--grid", "issue=1", "--dump"], "does not apply"),
            (
                &["--timeline", "t.json", "p.tital"],
                "`--timeline` does not apply",
            ),
            (
                &["torture", "--layer", "quantum"],
                "source|ast|asm|machine|grid",
            ),
        ];
        for (argv, needle) in cases {
            match parse(argv) {
                Err(message) => assert!(message.contains(needle), "{argv:?}: {message}"),
                Ok(command) => panic!("{argv:?} was accepted as {command:?}"),
            }
            let argv: Vec<String> = argv.iter().map(|arg| (*arg).to_string()).collect();
            let start = Instant::now();
            assert_eq!(run(&argv), ExitCode::from(EXIT_USAGE), "{argv:?}");
            assert!(start.elapsed() < Duration::from_secs(1), "{argv:?}");
        }
        for argv in [
            &["--no-such-flag"][..],
            &["sweep"],
            &["sweep", "--grid", "issue=0 pipe=1"],
            &["synth", "stray"],
            &["bench-diff", "only-one.json"],
            &["profile"],
            &["-m"],
            &["-O9", "p.tital"],
        ] {
            assert!(parse(argv).is_err(), "{argv:?}");
        }
    }

    /// Help text and parser cannot drift: every spelling of every flag
    /// appears in `USAGE` as a whole word.
    #[test]
    fn every_flag_is_documented() {
        for flag in FLAGS {
            for name in flag.names {
                let documented = USAGE.match_indices(name).any(|(at, _)| {
                    let next = USAGE[at + name.len()..].chars().next();
                    !next.is_some_and(|c| c.is_ascii_alphanumeric() || c == '-')
                });
                assert!(documented, "`{name}` is missing from USAGE");
            }
            assert!(!flag.subcommands.is_empty(), "{:?}", flag.names);
            for sub in flag.subcommands {
                assert!(sub.is_empty() || SUBCOMMANDS.contains(sub), "{sub}");
            }
        }
    }
}
