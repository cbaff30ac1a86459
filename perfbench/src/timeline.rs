//! `timeline-suite`: the small suite compiled for multititan during
//! set-up, then simulated into `titalc profile --timeline`'s
//! `TimelineSink` over a counting writer, with no disk. Timestamps are in
//! cycles, so the document's bytes are deterministic.

use crate::common::{count_block_stats, parse_probe, shuffle, ByteCounter, SinkBaseline};
use crate::measure::{timed, Tracer};
use crate::{refs, Checked, Workload};
use std::io::Write;
use std::sync::mpsc;
use std::time::{Duration, Instant};
use supersym::isa::{InstrClass, Program};
use supersym::machine::{presets, MachineConfig};
use supersym::rng::{fnv1a_64, SplitMix64};
use supersym::sim::{simulate_with_sink, SimOptions, SimReport};
use supersym::trace::{validate_timeline, TimelineSink};
use supersym::workloads::{suite, Size};
use supersym::{compile, compile_front, CompileOptions, OptLevel};

pub struct TimelineSuite {
    programs: Vec<(&'static str, Program)>,
    machine: MachineConfig,
    lanes: Vec<String>,
    class_lane: Vec<(String, usize)>,
}

impl TimelineSuite {
    /// Streams one program's timeline into `out`, with simulate lanes
    /// named after the machine's functional units (as `--timeline` does).
    fn encode<W: Write>(&self, program: &Program, out: W) -> Result<(W, SimReport), String> {
        let mut sink =
            TimelineSink::new(out).with_pipeline_lanes(self.lanes.clone(), self.class_lane.clone());
        let report = simulate_with_sink(program, &self.machine, SimOptions::default(), &mut sink)
            .map_err(|e| e.to_string())?;
        let out = sink.finish().map_err(|e| e.to_string())?;
        Ok((out, report))
    }

    /// Each program's complete document, encoded into memory.
    pub fn documents(&self) -> impl Iterator<Item = (&'static str, Result<Vec<u8>, String>)> + '_ {
        self.programs.iter().map(|(name, program)| {
            let document = self.encode(program, Vec::new());
            (*name, document.map(|(bytes, _)| bytes))
        })
    }
}

/// Runs `validate_timeline` over each of `documents`, in order, and
/// reports each verdict. Detached on purpose: the validator cannot be
/// cancelled, and a document it has not finished by the deadline must not
/// hold up the run. The thread ends with the process.
fn spawn_validator(
    documents: mpsc::Receiver<(&'static str, Vec<u8>)>,
) -> mpsc::Receiver<Result<(), String>> {
    let (done, verdicts) = mpsc::channel();
    std::thread::spawn(move || {
        for (name, bytes) in documents {
            let verdict = String::from_utf8(bytes)
                .map_err(|e| e.to_string())
                .and_then(|text| validate_timeline(&text).map_err(|e| e.to_string()))
                .map(|_| ())
                .map_err(|e| format!("timeline {name}: {e}"));
            if done.send(verdict).is_err() {
                return;
            }
        }
    });
    verdicts
}

/// How long the final validation may run once every document is encoded.
/// `validate_timeline` parses with a per-character UTF-8 check over the
/// rest of the input, which is quadratic: at this writing no suite document
/// (2.9 to 177 MB) finishes, and the run reports them as unvalidated
/// rather than waiting.
const VALIDATE_SECONDS: u64 = 5;

impl Workload for TimelineSuite {
    /// `(program, bytes and instructions)`.
    type Output = Vec<(&'static str, Result<(u64, u64), String>)>;

    fn setup(seed: u64, tracer: &mut Tracer) -> Self {
        let mut sources = tracer.span("workloads.gen", || suite(Size::Small));
        shuffle(&mut sources, &mut SplitMix64::new(seed));
        let machine = presets::multititan();
        let options = CompileOptions::new(OptLevel::O4, &machine);
        let programs = sources
            .iter()
            .map(|source| {
                let program = if tracer.is_on() {
                    // `compile` is exactly this composition.
                    parse_probe(tracer, std::iter::once(source.source.as_str()));
                    let front =
                        tracer.span("core.front", || compile_front(&source.source, &options));
                    let front = front.expect("suite programs compile");
                    tracer.span("core.back", || front.schedule_for(&machine, options.verify))
                } else {
                    compile(&source.source, &options)
                };
                (source.name, program.expect("suite programs compile"))
            })
            .collect();
        let lanes = machine
            .functional_units()
            .iter()
            .map(|unit| unit.name().to_string())
            .collect();
        let class_lane = InstrClass::ALL
            .iter()
            .map(|&class| (class.mnemonic().to_string(), machine.unit_of(class)))
            .collect();
        TimelineSuite {
            programs,
            machine,
            lanes,
            class_lane,
        }
    }

    fn iterate(&mut self, tracer: &mut Tracer) -> Self::Output {
        let mut output = Vec::with_capacity(self.programs.len());
        for (name, program) in &self.programs {
            let result = tracer.part(|tracer| {
                if tracer.is_on() {
                    let baseline = SinkBaseline::measure(tracer, program, &self.machine);
                    let (result, run_ns) = timed(|| self.encode(program, ByteCounter::default()));
                    baseline.charge(tracer, "trace.timeline", "delta.timeline", run_ns);
                    tracer.count("trace.issue_events", baseline.events);
                    if let Ok((counter, report)) = &result {
                        tracer.count("trace.timeline.bytes", counter.bytes);
                        tracer.count("sim.instructions", report.instructions());
                        count_block_stats(tracer, report.block_cache_stats());
                    }
                    result
                } else {
                    self.encode(program, ByteCounter::default())
                }
            });
            let result = result.map(|(counter, report)| (counter.bytes, report.instructions()));
            output.push((*name, result));
        }
        output
    }

    fn check(&mut self, output: Self::Output) -> Checked {
        let reference = refs::timeline();
        let mut checked = Checked {
            attempted: output.len() as u64,
            ..Checked::default()
        };
        let (mut bytes, mut instructions) = (0, 0);
        for (name, result) in output {
            match (result, reference.get(name)) {
                (Ok((b, i)), Some(r)) if r[0] == b => {
                    bytes += b;
                    instructions += i;
                }
                (result, r) => checked.fail(format!("{name}: {result:?}, reference {r:?}")),
            }
        }
        checked.counters.insert("trace.timeline.bytes", bytes);
        checked.counters.insert("sim.instructions", instructions);
        checked
    }

    /// Matches each program's complete document against its reference
    /// length and digest, then validates the documents, smallest first,
    /// within [`VALIDATE_SECONDS`].
    fn final_check(&mut self) -> Checked {
        let reference = refs::timeline();
        let size = |name: &str| reference.get(name).map_or(u64::MAX, |r| r[0]);
        self.programs.sort_by_key(|(name, _)| size(name));
        let mut checked = Checked::default();
        let (validator, documents) = mpsc::channel();
        let verdicts = spawn_validator(documents);
        let mut sent = 0;
        for (name, document) in self.documents() {
            match (document, reference.get(name)) {
                (Ok(bytes), Some(r)) if r[..] == [bytes.len() as u64, fnv1a_64(&bytes)] => {
                    sent += 1;
                    validator
                        .send((name, bytes))
                        .expect("the validator runs until the process ends");
                }
                (document, r) => {
                    let seen = document.map(|bytes| [bytes.len() as u64, fnv1a_64(&bytes)]);
                    checked.fail(format!(
                        "timeline {name}: (bytes, digest) {seen:?}, reference {r:?}"
                    ));
                }
            }
        }
        drop(validator);
        let deadline = Instant::now() + Duration::from_secs(VALIDATE_SECONDS);
        let mut finished = 0;
        while let Ok(verdict) =
            verdicts.recv_timeout(deadline.saturating_duration_since(Instant::now()))
        {
            finished += 1;
            if let Err(e) = verdict {
                checked.fail(e);
            }
        }
        checked.unfinished = sent - finished;
        checked
    }
}
