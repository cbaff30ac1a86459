//! `compile-suite`: the standard suite compiled with no unrolling and with
//! careful:4 unrolling — `compile_front` once per program and setting,
//! `schedule_for(_, verify=true)` on all eleven presets — plus one
//! `compile_certified` per program at O4 on multititan. Nothing is
//! simulated while the clock runs, so a compiler change shows here and a
//! simulator change must not.

use crate::common::{parse_probe, shuffle};
use crate::measure::Tracer;
use crate::{Checked, Workload};
use supersym::isa::{IntReg, Program};
use supersym::machine::{presets, MachineConfig};
use supersym::opt::UnrollOptions;
use supersym::rng::{fnv1a_64, SplitMix64};
use supersym::sim::{ExecOptions, Executor};
use supersym::verify::{CertMethod, PassCertificate};
use supersym::workloads::{suite, Size, Workload as Source};
use supersym::{
    compile, compile_certified, compile_front, CompileOptions, FrontArtifact, OptLevel,
};

const OPT: OptLevel = OptLevel::O4;

/// The standard suite's executor checksums at O4 (the goldens the
/// workloads crate's tests pin).
const STANDARD_GOLDENS: [(&str, i64); 8] = [
    ("ccom", 106_644_460),
    ("grr", 6_010_906),
    ("linpack", 1_044),
    ("livermore", 10_362),
    ("met", 1_175_210),
    ("stan", 15_947),
    ("whet", -5_196),
    ("yacc", 1_608_028_416),
];

fn unrolls() -> [Option<UnrollOptions>; 2] {
    [None, Some(UnrollOptions::careful(4))]
}

/// The eleven preset machines.
fn all_presets() -> Vec<MachineConfig> {
    vec![
        presets::base(),
        presets::multititan(),
        presets::cray1(),
        presets::vliw(4),
        presets::ideal_superscalar(2),
        presets::ideal_superscalar(8),
        presets::superpipelined(4),
        presets::superpipelined_superscalar(2, 2),
        presets::superscalar_with_class_conflicts(4),
        presets::underpipelined_slow_cycle(),
        presets::underpipelined_half_issue(),
    ]
}

fn front_options(unroll: Option<UnrollOptions>) -> CompileOptions {
    let options = CompileOptions::new(OPT, &presets::base());
    match unroll {
        Some(unroll) => options.with_unroll(unroll),
        None => options,
    }
}

fn certify_options() -> CompileOptions {
    CompileOptions::new(OPT, &presets::multititan())
}

pub struct CompileSuite {
    programs: Vec<Source>,
    presets: Vec<MachineConfig>,
    first: Option<Output>,
}

/// `((unroll index, program, machine), scheduled program)`.
type Scheduled = ((usize, &'static str, String), Result<Program, String>);
/// `(program, certified program and its certificates)`.
type Certified = (
    &'static str,
    Result<(Program, Vec<PassCertificate>), String>,
);

/// One iteration's programs, in visiting order.
pub struct Output {
    scheduled: Vec<Scheduled>,
    certified: Vec<Certified>,
}

/// `schedule_for(machine, verify=true)` as two observable layers: the
/// back half with verification off, then the checks verification runs
/// (machine lint, schedule legality, program lint).
fn schedule_in_layers(
    tracer: &mut Tracer,
    front: &FrontArtifact,
    machine: &MachineConfig,
) -> Result<Program, String> {
    let program = tracer
        .span("core.back", || front.schedule_for(machine, false))
        .map_err(|e| e.to_string())?;
    let diagnostics = tracer.span("verify.check", || {
        let mut diagnostics = supersym::verify::lint_machine(machine);
        let oracle = front.oracle().as_loop_oracle();
        diagnostics.extend(
            supersym::verify::check_schedule_with(front.program(), &program, oracle)
                .iter()
                .map(|v| v.to_diagnostic()),
        );
        let lint_machine = (front.split() == machine.register_split()).then_some(machine);
        diagnostics.extend(supersym::verify::lint_program(&program, lint_machine));
        diagnostics
    });
    match diagnostics.iter().find(|d| d.is_error()) {
        Some(error) => Err(error.to_string()),
        None => Ok(program),
    }
}

fn checksum(program: &Program) -> Result<i64, String> {
    let mut exec = Executor::new(program, ExecOptions::default()).map_err(|e| e.to_string())?;
    exec.run().map_err(|e| e.to_string())?;
    Ok(exec.int_reg(IntReg::new(1).expect("r1 exists")))
}

impl Workload for CompileSuite {
    type Output = Output;

    fn setup(seed: u64, tracer: &mut Tracer) -> Self {
        let mut rng = SplitMix64::new(seed);
        let mut programs = tracer.span("workloads.gen", || suite(Size::Standard));
        shuffle(&mut programs, &mut rng);
        let mut presets = all_presets();
        shuffle(&mut presets, &mut rng);
        CompileSuite {
            programs,
            presets,
            first: None,
        }
    }

    fn iterate(&mut self, tracer: &mut Tracer) -> Output {
        let mut output = Output {
            scheduled: Vec::new(),
            certified: Vec::new(),
        };
        for (u, unroll) in unrolls().into_iter().enumerate() {
            let options = front_options(unroll);
            for source in &self.programs {
                tracer.part(|tracer| {
                    if tracer.is_on() {
                        parse_probe(tracer, std::iter::once(source.source.as_str()));
                    }
                    let front =
                        tracer.span("core.front", || compile_front(&source.source, &options));
                    for machine in &self.presets {
                        let key = (u, source.name, machine.name().to_string());
                        let program = match &front {
                            Err(e) => Err(e.to_string()),
                            Ok(front) if tracer.is_on() => {
                                schedule_in_layers(tracer, front, machine)
                            }
                            Ok(front) => {
                                front.schedule_for(machine, true).map_err(|e| e.to_string())
                            }
                        };
                        output.scheduled.push((key, program));
                    }
                });
            }
        }
        let options = certify_options();
        for source in &self.programs {
            let certified = tracer.part(|tracer| {
                tracer.span("verify.certify", || {
                    compile_certified(&source.source, &options)
                })
            });
            output
                .certified
                .push((source.name, certified.map_err(|e| e.to_string())));
        }
        if tracer.is_on() {
            let (static_instrs, differential) = work_counts(&output);
            tracer.count("core.static_instrs", static_instrs);
            tracer.count("verify.certify.differential_passes", differential);
        }
        output
    }

    fn check(&mut self, output: Output) -> Checked {
        let mut checked = Checked {
            attempted: (output.scheduled.len() + output.certified.len()) as u64,
            ..Checked::default()
        };
        for (key, program) in &output.scheduled {
            if let Err(e) = program {
                checked.fail(format!("{key:?}: {e}"));
            }
        }
        for (name, certified) in &output.certified {
            match certified {
                Err(e) => checked.fail(format!("certify {name}: {e}")),
                Ok((_, certificates)) => {
                    for c in certificates.iter().filter(|c| !c.is_certified()) {
                        checked.fail(format!("certify {name}: pass {} not certified", c.pass));
                    }
                }
            }
        }
        let (static_instrs, differential) = work_counts(&output);
        checked.counters.insert("core.static_instrs", static_instrs);
        checked
            .counters
            .insert("verify.certify.differential_passes", differential);
        // Equal between every iteration: compilation is deterministic.
        let mut text = String::new();
        for program in programs(&output) {
            text.push_str(&program.to_string());
        }
        checked
            .counters
            .insert("core.program_digest", fnv1a_64(text.as_bytes()));
        if self.first.is_none() {
            self.first = Some(output);
        }
        checked
    }

    /// Runs every program of the first iteration against the goldens and
    /// compares each certified program with a plain compile.
    fn final_check(&mut self) -> Checked {
        let mut checked = Checked::default();
        let Some(first) = &self.first else {
            return checked;
        };
        let golden = |name: &str| {
            STANDARD_GOLDENS
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, value)| value)
                .expect("every suite program has a golden")
        };
        let fp_sensitive = |name: &str| {
            self.programs
                .iter()
                .any(|p| p.name == name && p.fp_sensitive)
        };
        for ((u, name, machine), program) in &first.scheduled {
            let Ok(program) = program else { continue };
            let expected = golden(name);
            // Careful unrolling reassociates float reductions; the
            // workloads' tests allow the same tolerance.
            let tolerance = if unrolls()[*u].is_some() && fp_sensitive(name) {
                (expected.abs() / 1000).max(50)
            } else {
                0
            };
            match checksum(program) {
                Ok(sum) if (sum - expected).abs() <= tolerance => {}
                result => checked.fail(format!(
                    "{name} on {machine} (unroll {u}): checksum {result:?}, golden {expected}"
                )),
            }
        }
        for (name, certified) in &first.certified {
            let Ok((program, _)) = certified else {
                continue;
            };
            let source = self
                .programs
                .iter()
                .find(|p| p.name == *name)
                .expect("certified programs come from the suite");
            match compile(&source.source, &certify_options()) {
                Ok(plain) if plain == *program => {}
                _ => checked.fail(format!("certify {name}: output differs from plain compile")),
            }
            if checksum(program) != Ok(golden(name)) {
                checked.fail(format!("certify {name}: checksum differs from the golden"));
            }
        }
        checked
    }
}

/// Every program an iteration emitted, scheduled then certified.
fn programs(output: &Output) -> impl Iterator<Item = &Program> {
    let scheduled = output.scheduled.iter().filter_map(|(_, p)| p.as_ref().ok());
    let certified = output.certified.iter().filter_map(|(_, c)| c.as_ref().ok());
    scheduled.chain(certified.map(|c| &c.0))
}

/// Static instructions emitted, and certified passes that needed the
/// differential interpreter.
fn work_counts(output: &Output) -> (u64, u64) {
    let static_instrs = programs(output).map(|p| p.static_size() as u64).sum();
    let differential = output
        .certified
        .iter()
        .filter_map(|(_, c)| c.as_ref().ok())
        .flat_map(|c| &c.1)
        .filter(|c| c.method == Some(CertMethod::Differential))
        .count() as u64;
    (static_instrs, differential)
}
