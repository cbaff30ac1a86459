//! `sweep-grid`: `titalc sweep`'s defaults over the 192-cell grid and the
//! small suite (1,536 records, one worker), swept as eight sub-sweeps of
//! 24 cells, with the journal going to an in-memory counting writer.
//!
//! The untraced run drives the engine with the pipeline's own
//! [`PipelineCellRunner`]. The traced run drives it with [`SpanRunner`],
//! which makes the same calls with a span around each: both must produce
//! identical records.

use crate::common::{count_block_stats, parse_probe, shuffle, ByteCounter};
use crate::measure::{timed, Tracer};
use crate::{refs, Checked, Workload};
use std::io::Write;
use std::sync::Mutex;
use supersym::analyze::OracleKind;
use supersym::machine::{presets, GridCell, GridSpec, SplitModel};
use supersym::rng::{fnv1a_64, SplitMix64};
use supersym::sim::{simulate, BlockCacheStats, ExecOptions, Executor, SimError, SimOptions};
use supersym::sweep::{
    run_sweep, run_sweep_observed, CellFailure, CellMetrics, CellRecord, CellRunner, CellStatus,
    PipelineCellRunner, ResultCache, SweepConfig, SweepObserver, SweepPlan, DEFAULT_CELL_FUEL,
};
use supersym::workloads::{suite, Size, Workload as Program};
use supersym::{compile_front, CompileOptions, FrontArtifact, OptLevel};

pub const GRID: &str = "issue=1..8 pipe=1..4 lat=unit,titan,cray fu=ideal,shared";
// [`GRID`] is swept in eight chunks of 24 cells, one per issue width, each
// its own `run_sweep` (and journal header) timed as one part, so that a
// slow spell of the host shorter than a sweep slows only the chunks it
// falls on. Each `run_sweep` starts a worker thread, and more chunks made
// `peak_rss_mb` vary by 20% between runs (new malloc arenas), where eight
// keep it within a few percent.
const ISSUE_WIDTHS: u32 = 8;
const CHUNK_REST: &str = "pipe=1..4 lat=unit,titan,cray fu=ideal,shared";
/// `titalc sweep`'s default. Two workers on a two-core host made the
/// sweep's wall time depend on whether the second core was free: five
/// interleaved pairs of runs gave 4.3–9.1 s per iteration at two workers
/// against 8.0–9.3 s at one.
const JOBS: usize = 1;
const OPT: OptLevel = OptLevel::O4;
const SPLITS: [SplitModel; 2] = [SplitModel::Default, SplitModel::Wide];
/// The traced run probes the simulator's three speeds on every 48th cell
/// of the grid (4 cells × the suite), single-threaded.
const PROBE_STRIDE: usize = 48;

fn sim_options(block_cache: bool) -> SimOptions {
    SimOptions {
        exec: ExecOptions {
            max_steps: DEFAULT_CELL_FUEL,
            ..ExecOptions::default()
        },
        block_cache,
    }
}

fn split_index(split: SplitModel) -> usize {
    SPLITS
        .iter()
        .position(|&s| s == split)
        .expect("grid splits are known")
}

/// Thread-time totals of the cells a [`SpanRunner`] ran.
#[derive(Debug, Default)]
struct CellTotals {
    back_ns: f64,
    sim_ns: f64,
    static_instrs: u64,
    instructions: u64,
    blocks: BlockCacheStats,
}

/// A [`CellRunner`] making the same calls as [`PipelineCellRunner`] —
/// `compile_front` per workload and split, then per cell
/// `schedule_for` and `simulate` — with a span around each call.
pub struct SpanRunner {
    fronts: Vec<[Result<FrontArtifact, String>; 2]>,
    names: Vec<String>,
    sim: SimOptions,
    totals: Mutex<CellTotals>,
}

impl SpanRunner {
    pub fn new(programs: &[Program], tracer: &mut Tracer, block_cache: bool) -> Self {
        let fronts = programs
            .iter()
            .map(|program| {
                SPLITS.map(|split| {
                    let options = CompileOptions::new(OPT, &presets::base())
                        .with_split(split.split())
                        .with_oracle(OracleKind::default())
                        .with_verify(false);
                    tracer
                        .span("core.front", || compile_front(&program.source, &options))
                        .map_err(|e| e.to_string())
                })
            })
            .collect();
        SpanRunner {
            fronts,
            names: programs.iter().map(|p| p.name.to_string()).collect(),
            sim: sim_options(block_cache),
            totals: Mutex::new(CellTotals::default()),
        }
    }

    /// The checkpoint identity, in [`PipelineCellRunner::identity`]'s
    /// format, so both runners write the same journal bytes.
    fn identity(&self, grid_canonical: &str) -> String {
        let mut identity = format!(
            "grid={grid_canonical};opt={OPT};oracle={:?};fuel={DEFAULT_CELL_FUEL};verify=false;",
            OracleKind::default()
        );
        for (name, fronts) in self.names.iter().zip(&self.fronts) {
            for (split, front) in SPLITS.iter().zip(fronts) {
                let hash = front_hash(front);
                identity.push_str(&format!("{name}.{}={hash:016x};", split.name()));
            }
        }
        identity
    }
}

fn front_hash(front: &Result<FrontArtifact, String>) -> u64 {
    match front {
        Ok(artifact) => artifact.fingerprint(),
        Err(message) => fnv1a_64(message.as_bytes()),
    }
}

impl CellRunner for SpanRunner {
    fn program_hash(&self, workload: usize, cell: &GridCell) -> u64 {
        front_hash(&self.fronts[workload][split_index(cell.split)])
    }

    fn run_cell(&self, workload: usize, cell: &GridCell) -> Result<CellMetrics, CellFailure> {
        let front = self.fronts[workload][split_index(cell.split)]
            .as_ref()
            .map_err(|message| CellFailure::Reject {
                stage: "front".to_string(),
                message: message.clone(),
            })?;
        let machine = cell.config();
        let (program, back_ns) = timed(|| front.schedule_for(&machine, false));
        let program = program.map_err(|e| CellFailure::Reject {
            stage: e.stage().to_string(),
            message: e.to_string(),
        })?;
        let (report, sim_ns) = timed(|| simulate(&program, &machine, self.sim));
        {
            let mut totals = self
                .totals
                .lock()
                .expect("no cell panics holding the totals");
            totals.back_ns += back_ns;
            totals.sim_ns += sim_ns;
            totals.static_instrs += program.static_size() as u64;
            if let Ok(report) = &report {
                totals.instructions += report.instructions();
                let b = report.block_cache_stats();
                let t = &mut totals.blocks;
                t.hits += b.hits;
                t.misses += b.misses;
                t.fallbacks += b.fallbacks;
                t.evictions += b.evictions;
                t.overflows += b.overflows;
                t.replayed_instructions += b.replayed_instructions;
            }
        }
        match report {
            Ok(report) => Ok(CellMetrics {
                instructions: report.instructions(),
                machine_cycles: report.machine_cycles(),
                base_cycles: report.base_cycles(),
            }),
            Err(SimError::StepLimitExceeded { limit }) => Err(CellFailure::Fuel { limit }),
            Err(e) => Err(CellFailure::Reject {
                stage: "sim".to_string(),
                message: e.to_string(),
            }),
        }
    }
}

/// Item windows reported by the engine: `(worker, start_us, end_us)`.
#[derive(Default)]
struct Windows(Vec<(usize, u64, u64)>);

impl SweepObserver for Windows {
    fn item(&mut self, worker: usize, start_us: u64, end_us: u64, _: bool, _: &CellRecord) {
        self.0.push((worker, start_us, end_us));
    }
}

enum Runner {
    Pipeline(PipelineCellRunner),
    Spans(SpanRunner),
}

pub struct SweepGrid {
    /// One plan per chunk, in visiting order.
    plans: Vec<SweepPlan>,
    grid: GridSpec,
    runner: Runner,
}

pub struct Output {
    records: Vec<CellRecord>,
    journal_bytes: u64,
    probe_errors: Vec<String>,
}

/// The engine settings of `titalc sweep`.
fn config() -> SweepConfig {
    SweepConfig {
        jobs: JOBS,
        quiet: true,
        ..SweepConfig::default()
    }
}

/// The plan for `programs`, whose order the engine's canonical item
/// order follows.
fn plan(programs: &[Program], identity: String, grid: GridSpec) -> SweepPlan {
    SweepPlan {
        grid,
        workload_names: programs.iter().map(|p| p.name.to_string()).collect(),
        fuel: DEFAULT_CELL_FUEL,
        identity,
    }
}

/// The chunks of [`GRID`], checked to hold its cells exactly once.
fn chunks(grid: &GridSpec) -> Vec<GridSpec> {
    let chunks: Vec<GridSpec> = (1..=ISSUE_WIDTHS)
        .map(|issue| {
            GridSpec::parse(&format!("issue={issue} {CHUNK_REST}")).expect("chunk grids parse")
        })
        .collect();
    let mut whole: Vec<String> = grid.cells().iter().map(GridCell::name).collect();
    let mut parts: Vec<String> = chunks
        .iter()
        .flat_map(|chunk| chunk.cells())
        .map(|cell| cell.name())
        .collect();
    whole.sort_unstable();
    parts.sort_unstable();
    assert_eq!(
        whole, parts,
        "the chunks hold the grid's cells exactly once"
    );
    chunks
}

/// Runs the full grid with block caching off, for the reference file.
pub fn exact_records() -> Vec<CellRecord> {
    let programs = suite(Size::Small);
    let runner = SpanRunner::new(&programs, &mut Tracer::off(), false);
    let grid = GridSpec::parse(GRID).expect("the benchmark grid parses");
    let identity = runner.identity(&grid.canonical());
    let plan = plan(&programs, identity, grid);
    run_sweep(&plan, &runner, &config(), None, &ResultCache::new(), None)
        .expect("no journal, no I/O")
        .records
}

impl SweepGrid {
    fn record_count(&self) -> usize {
        self.plans.iter().map(SweepPlan::record_count).sum()
    }
}

impl Workload for SweepGrid {
    type Output = Output;

    fn setup(seed: u64, tracer: &mut Tracer) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut programs = tracer.span("workloads.gen", || suite(Size::Small));
        shuffle(&mut programs, &mut rng);
        let grid = GridSpec::parse(GRID).expect("the benchmark grid parses");
        let mut chunks = chunks(&grid);
        shuffle(&mut chunks, &mut rng);
        let runner = if tracer.is_on() {
            parse_probe(tracer, programs.iter().map(|p| p.source.as_str()));
            Runner::Spans(SpanRunner::new(&programs, tracer, true))
        } else {
            Runner::Pipeline(PipelineCellRunner::new(
                &programs,
                OPT,
                OracleKind::default(),
                DEFAULT_CELL_FUEL,
                false,
            ))
        };
        // The identity fingerprints every front, so it is built once and
        // only its leading `grid=...;` field differs between chunks.
        let identity = match &runner {
            Runner::Spans(runner) => runner.identity(&grid.canonical()),
            Runner::Pipeline(runner) => {
                runner.identity(&grid.canonical(), OPT, OracleKind::default())
            }
        };
        let options = identity
            .strip_prefix(&format!("grid={};", grid.canonical()))
            .expect("the identity starts with the grid");
        let plans = chunks
            .into_iter()
            .map(|chunk| {
                let identity = format!("grid={};{options}", chunk.canonical());
                plan(&programs, identity, chunk)
            })
            .collect();
        SweepGrid {
            plans,
            grid,
            runner,
        }
    }

    fn iterate(&mut self, tracer: &mut Tracer) -> Output {
        let mut journal = ByteCounter::default();
        let mut records = Vec::with_capacity(self.record_count());
        let config = config();
        for plan in &self.plans {
            let outcome = tracer.part(|tracer| {
                writeln!(journal, "{}", plan.header().render()).expect("in-memory journal");
                let cache = ResultCache::new();
                match &self.runner {
                    Runner::Pipeline(runner) => {
                        run_sweep(plan, runner, &config, None, &cache, Some(&mut journal))
                            .expect("in-memory journal")
                    }
                    Runner::Spans(runner) => {
                        let windows = Mutex::new(Windows::default());
                        let (outcome, span_ns) = timed(|| {
                            run_sweep_observed(
                                plan,
                                runner,
                                &config,
                                None,
                                &cache,
                                Some(&mut journal),
                                Some(&windows as &Mutex<dyn SweepObserver>),
                            )
                        });
                        let windows = windows.into_inner().expect("observer never panics").0;
                        charge_sweep(tracer, runner, windows, span_ns);
                        outcome.expect("in-memory journal")
                    }
                }
            });
            if tracer.is_on() {
                tracer.count("sweep.quarantined", outcome.quarantined as u64);
            }
            records.extend(outcome.records);
        }
        let probe_errors = match &self.runner {
            Runner::Spans(runner) => {
                tracer.count("sweep.journal_bytes", journal.bytes);
                tracer.count("sweep.records", records.len() as u64);
                probe_simulator(tracer, runner, &self.grid)
            }
            Runner::Pipeline(_) => Vec::new(),
        };
        Output {
            records,
            journal_bytes: journal.bytes,
            probe_errors,
        }
    }

    fn check(&mut self, output: Output) -> Checked {
        let reference = refs::sweep();
        let mut checked = Checked {
            attempted: self.record_count() as u64,
            ..Checked::default()
        };
        if output.records.len() != self.record_count() {
            checked.fail(format!(
                "{} of {} records",
                output.records.len(),
                self.record_count()
            ));
        }
        let mut instructions = 0;
        for record in &output.records {
            let key = format!("{} {}", record.cell, record.workload);
            match (&record.status, reference.get(&key)) {
                (CellStatus::Ok(m), Some(r)) if [m.instructions, m.machine_cycles] == r[..] => {
                    instructions += m.instructions;
                }
                (status, expected) => checked.fail(format!(
                    "{key}: {status:?}, reference (instructions, cycles) {expected:?}"
                )),
            }
        }
        // Equal between every iteration of the run, traced or not: the
        // two runners give byte-identical records.
        let rendered: String = output.records.iter().map(CellRecord::render).collect();
        checked
            .counters
            .insert("sweep.record_digest", fnv1a_64(rendered.as_bytes()));
        for error in output.probe_errors {
            checked.fail(error);
        }
        checked
            .counters
            .insert("sweep.records", output.records.len() as u64);
        checked.counters.insert("sim.instructions", instructions);
        checked
            .counters
            .insert("sweep.journal_bytes", output.journal_bytes);
        checked
    }
}

/// Splits the sweep's thread time (`JOBS × span`) into layers: the cells'
/// `schedule_for` and `simulate` spans, the engine's share of each item
/// window, the journal, and workers idling after their last item.
///
/// The engine renders each record and writes it to the journal after the
/// item's window closes and before the worker claims its next item, so a
/// worker's gaps between consecutive windows are charged to
/// `sweep.journal` (they also hold the metrics update, the observer call
/// and the next claim, each a lock and a few stores).
fn charge_sweep(
    tracer: &mut Tracer,
    runner: &SpanRunner,
    mut windows: Vec<(usize, u64, u64)>,
    span_ns: f64,
) {
    let totals = std::mem::take(&mut *runner.totals.lock().expect("sweep finished"));
    windows.sort_unstable();
    let busy_ns: f64 = windows.iter().map(|&(_, s, e)| (e - s) as f64 * 1e3).sum();
    let journal_ns: f64 = windows
        .windows(2)
        .filter(|pair| pair[0].0 == pair[1].0)
        .map(|pair| pair[1].1.saturating_sub(pair[0].2) as f64 * 1e3)
        .sum();
    let tail_ns: f64 = (0..JOBS)
        .map(|worker| {
            let last_end = windows
                .iter()
                .filter(|w| w.0 == worker)
                .map(|w| w.2 as f64 * 1e3)
                .fold(0.0, f64::max);
            (span_ns - last_end).max(0.0)
        })
        .sum();
    tracer.add("core.back", totals.back_ns);
    tracer.add("sim.simulate", totals.sim_ns);
    tracer.add("sweep.engine", busy_ns - totals.back_ns - totals.sim_ns);
    tracer.add("sweep.journal", journal_ns);
    tracer.add("sweep.tail_idle", tail_ns);
    tracer.extra_capacity_ns += (JOBS - 1) as f64 * span_ns;
    tracer.add_aux("sweep.item_busy", busy_ns);
    tracer.add_aux("sweep.capacity", JOBS as f64 * span_ns);
    tracer.add_aux("sweep.cell.back", totals.back_ns);
    tracer.add_aux("sweep.cell.sim", totals.sim_ns);
    tracer
        .item_ms
        .extend(windows.iter().map(|&(_, s, e)| (e - s) as f64 / 1e3));
    tracer.count("core.static_instrs", totals.static_instrs);
    tracer.count("sim.instructions", totals.instructions);
    count_block_stats(tracer, totals.blocks);
}

/// The simulator's three speeds on the same programs: the functional
/// executor alone, the exact timing model (`block_cache: false`) and the
/// default `simulate`. Returns disagreements between them or with the
/// reference.
fn probe_simulator(tracer: &mut Tracer, runner: &SpanRunner, grid: &GridSpec) -> Vec<String> {
    let reference = refs::sweep();
    let mut errors = Vec::new();
    for cell in grid.cells().iter().step_by(PROBE_STRIDE) {
        let machine = cell.config();
        for (name, fronts) in runner.names.iter().zip(&runner.fronts) {
            let front = fronts[split_index(cell.split)]
                .as_ref()
                .expect("suite fronts compile");
            let program = tracer
                .span("core.back", || front.schedule_for(&machine, false))
                .expect("suite programs schedule");
            let (steps, exec_ns) = timed(|| {
                let mut exec = Executor::new(&program, sim_options(true).exec)?;
                exec.run().map(|()| exec.steps())
            });
            let (exact, exact_ns) = timed(|| simulate(&program, &machine, sim_options(false)));
            let (cached, cached_ns) = timed(|| simulate(&program, &machine, sim_options(true)));
            tracer.add("sim.exec", exec_ns);
            tracer.add("sim.exact", exact_ns);
            tracer.add("sim.simulate", cached_ns);
            tracer.add_aux("probe.exec", exec_ns);
            tracer.add_aux("probe.exact", exact_ns);
            tracer.add_aux("probe.simulate", cached_ns);
            let key = format!("{} {name}", cell.name());
            match (steps, exact, cached) {
                (Ok(steps), Ok(exact), Ok(cached)) => {
                    tracer.count("probe.instructions", cached.instructions());
                    let seen = [
                        steps,
                        exact.instructions(),
                        exact.machine_cycles(),
                        cached.instructions(),
                        cached.machine_cycles(),
                    ];
                    let expected = reference.get(&key).map(|r| [r[0], r[0], r[1], r[0], r[1]]);
                    if Some(seen) != expected {
                        errors.push(format!("probe {key}: {seen:?} vs reference {expected:?}"));
                    }
                }
                (steps, exact, cached) => errors.push(format!(
                    "probe {key}: {:?} {:?} {:?}",
                    steps.err(),
                    exact.err(),
                    cached.err()
                )),
            }
        }
    }
    errors
}
