//! `stats-suite`: the `titalc stats` path on the standard suite × four
//! machines — `compile_with_trace` into a `MemorySink`, then
//! `simulate_with_sink` into a `MetricsSink`, then the metrics registry.
//! The simulator runs with per-instruction events here, where the sweep
//! runs it in bulk.

use crate::common::{count_block_stats, shuffle, Counted, SinkBaseline};
use crate::measure::{timed, Tracer};
use crate::{refs, Checked, Workload};
use supersym::isa::Program;
use supersym::machine::{presets, MachineConfig};
use supersym::rng::{fnv1a_64, SplitMix64};
use supersym::sim::{simulate_with_sink, MetricsSink, SimOptions, SimReport};
use supersym::trace::{MemorySink, MetricsRegistry, OwnedPhase};
use supersym::workloads::{suite, Size, Workload as Source};
use supersym::{compile_with_trace, phase_metrics, CompileOptions, OptLevel};

pub fn machines() -> Vec<MachineConfig> {
    vec![
        presets::multititan(),
        presets::ideal_superscalar(8),
        presets::superpipelined(4),
        presets::cray1(),
    ]
}

/// `program machine`, the reference-table key.
pub fn key(program: &str, machine: &MachineConfig) -> String {
    format!("{program} {}", machine.name().replace(' ', "_"))
}

/// One `titalc stats` document's checkable content.
pub struct Stats {
    pub instructions: u64,
    pub machine_cycles: u64,
    pub conserved: bool,
    registry: MetricsRegistry,
}

impl Stats {
    /// FNV-1a over the registry's entries, leaving out the block cache's
    /// own counters: they describe how the simulator got its result, and
    /// the traced run reports them as work counters instead.
    pub fn digest(&self) -> u64 {
        let mut text = String::new();
        for (name, metric) in self.registry.entries() {
            if !name.starts_with("sim.block_cache.") {
                text.push_str(&format!("{name}={metric:?}\n"));
            }
        }
        fnv1a_64(text.as_bytes())
    }
}

/// The registry `titalc stats` builds.
fn registry(
    phases: &[OwnedPhase],
    program: &Program,
    report: &SimReport,
    metrics: &mut MetricsSink,
) -> MetricsRegistry {
    let account = report.cycle_account();
    let mut registry = phase_metrics(phases);
    registry.counter("sim.static_size", program.static_size() as u64);
    registry.counter("sim.instructions", report.instructions());
    registry.counter("sim.machine_cycles", report.machine_cycles());
    registry.counter("sim.issue_cycles", account.issue_cycles());
    registry.counter("sim.stall_cycles", account.total_stall_cycles());
    registry.counter("sim.drain_cycles", account.drain_cycles());
    let ilp = (report.available_parallelism() * 10_000.0).round() / 10_000.0;
    registry.gauge("sim.ilp", ilp);
    report.block_cache_stats().register(&mut registry);
    metrics.register(&mut registry);
    registry
}

/// Charges a `compile_with_trace` span to layers by its own phase
/// records: parse and check to `lang.parse`, scheduling to `core.back`,
/// verification phases to `verify.check`, the rest to `core.front`.
fn charge_compile(tracer: &mut Tracer, phases: &[OwnedPhase], compile_ns: f64) {
    let mut charged = 0.0;
    for phase in phases {
        let layer = match phase.name.as_str() {
            "parse" | "check" => "lang.parse",
            "schedule" => "core.back",
            "lint_machine" | "check_schedule" | "lint_program" => "verify.check",
            _ => continue,
        };
        let ns = phase.wall_ns as f64;
        tracer.add(layer, ns);
        charged += ns;
    }
    tracer.add("core.front", compile_ns - charged);
}

/// Compiles and simulates one item the way `titalc stats` does.
pub fn document(
    source: &str,
    machine: &MachineConfig,
    tracer: &mut Tracer,
) -> Result<Stats, String> {
    let options = CompileOptions::new(OptLevel::O4, machine);
    let mut memory = MemorySink::new();
    let (program, compile_ns) = timed(|| compile_with_trace(source, &options, &mut memory));
    let program = program.map_err(|e| e.to_string())?;
    let mut metrics = MetricsSink::new();
    let report = if tracer.is_on() {
        charge_compile(tracer, &memory.phases, compile_ns);
        let baseline = SinkBaseline::measure(tracer, &program, machine);
        let mut counted = Counted {
            inner: &mut metrics,
            events: 0,
        };
        let (report, run_ns) =
            timed(|| simulate_with_sink(&program, machine, SimOptions::default(), &mut counted));
        let events = counted.events;
        baseline.charge(tracer, "trace.metrics", "delta.metrics", run_ns);
        tracer.count("trace.issue_events", events);
        if events != baseline.events {
            return Err(format!(
                "{events} issue events with MetricsSink, {} with a counting sink",
                baseline.events
            ));
        }
        report
    } else {
        simulate_with_sink(&program, machine, SimOptions::default(), &mut metrics)
    }
    .map_err(|e| e.to_string())?;
    let registry = tracer.span("trace.metrics", || {
        registry(&memory.phases, &program, &report, &mut metrics)
    });
    if tracer.is_on() {
        tracer.count("sim.instructions", report.instructions());
        count_block_stats(tracer, report.block_cache_stats());
    }
    Ok(Stats {
        instructions: report.instructions(),
        machine_cycles: report.machine_cycles(),
        conserved: report.cycle_account().conserved(),
        registry,
    })
}

pub struct StatsSuite {
    programs: Vec<Source>,
    machines: Vec<MachineConfig>,
    /// `(program, machine)` indices in visiting order.
    items: Vec<(usize, usize)>,
}

impl Workload for StatsSuite {
    type Output = Vec<(String, Result<Stats, String>)>;

    fn setup(seed: u64, tracer: &mut Tracer) -> Self {
        let programs = tracer.span("workloads.gen", || suite(Size::Standard));
        let machines = machines();
        let mut items: Vec<(usize, usize)> = (0..programs.len())
            .flat_map(|p| (0..machines.len()).map(move |m| (p, m)))
            .collect();
        shuffle(&mut items, &mut SplitMix64::new(seed));
        StatsSuite {
            programs,
            machines,
            items,
        }
    }

    fn iterate(&mut self, tracer: &mut Tracer) -> Self::Output {
        self.items
            .iter()
            .map(|&(p, m)| {
                let (program, machine) = (&self.programs[p], &self.machines[m]);
                let stats = tracer.part(|tracer| document(&program.source, machine, tracer));
                (key(program.name, machine), stats)
            })
            .collect()
    }

    fn check(&mut self, output: Self::Output) -> Checked {
        let reference = refs::stats();
        let mut checked = Checked {
            attempted: output.len() as u64,
            ..Checked::default()
        };
        let mut instructions = 0;
        for (key, stats) in &output {
            let stats = match stats {
                Ok(stats) => stats,
                Err(e) => {
                    checked.fail(format!("{key}: {e}"));
                    continue;
                }
            };
            instructions += stats.instructions;
            let seen = [stats.instructions, stats.machine_cycles, stats.digest()];
            if !stats.conserved {
                checked.fail(format!("{key}: cycle account does not balance"));
            } else if reference.get(key).map(Vec::as_slice) != Some(&seen[..]) {
                checked.fail(format!(
                    "{key}: (instructions, cycles, digest) {seen:?}, reference {:?}",
                    reference.get(key)
                ));
            }
        }
        checked.counters.insert("sim.instructions", instructions);
        checked
    }
}
