//! Pieces every workload shares: seeded visiting order, the parse probe,
//! counting writers and sinks, and the differential split of a
//! sink-attached simulation into simulator, sink plumbing and the sink's
//! own work.

use crate::measure::{timed, Tracer};
use std::io::{self, Write};
use supersym::isa::Program;
use supersym::machine::MachineConfig;
use supersym::rng::SplitMix64;
use supersym::sim::{simulate, simulate_with_sink, BlockCacheStats, SimOptions};
use supersym::trace::{BlockReplayEvent, IssueEvent, PhaseRecord, TraceSink};

/// The seed's only effect: the order in which inputs are visited
/// (Fisher–Yates).
pub fn shuffle<T>(items: &mut [T], rng: &mut SplitMix64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// `lang.parse`: parses and checks every source (the front end's first
/// two phases, called on their own so their time is observable).
pub fn parse_probe<'a>(tracer: &mut Tracer, sources: impl Iterator<Item = &'a str>) {
    for source in sources {
        tracer.span("lang.parse", || {
            let ast = supersym::lang::parse(source).expect("suite sources parse");
            supersym::lang::check(&ast).expect("suite sources check");
        });
    }
}

/// An in-memory writer that keeps only the byte count.
#[derive(Debug, Default)]
pub struct ByteCounter {
    pub bytes: u64,
}

impl Write for ByteCounter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A sink that counts issue events and does nothing else.
#[derive(Debug, Default)]
pub struct CountingSink {
    pub events: u64,
}

impl TraceSink for CountingSink {
    fn issue(&mut self, _event: &IssueEvent) {
        self.events += 1;
    }
}

/// Forwards every event to `inner`, counting issue events on the way.
pub struct Counted<'a, S: TraceSink> {
    pub inner: &'a mut S,
    pub events: u64,
}

impl<S: TraceSink> TraceSink for Counted<'_, S> {
    fn phase(&mut self, record: &PhaseRecord<'_>) {
        self.inner.phase(record);
    }

    fn issue(&mut self, event: &IssueEvent) {
        self.events += 1;
        self.inner.issue(event);
    }

    fn block_replay(&mut self, event: &BlockReplayEvent) {
        self.inner.block_replay(event);
    }
}

pub fn count_block_stats(tracer: &mut Tracer, stats: BlockCacheStats) {
    tracer.count("sim.block.hits", stats.hits);
    tracer.count("sim.block.misses", stats.misses);
    tracer.count("sim.block.fallbacks", stats.fallbacks);
    tracer.count("sim.block.evictions", stats.evictions);
    tracer.count("sim.block.overflows", stats.overflows);
    tracer.count(
        "sim.block.replayed_instructions",
        stats.replayed_instructions,
    );
}

/// What a sink-free run and a counting-sink run of the same program cost:
/// the baseline a real sink's run is split against.
pub struct SinkBaseline {
    simulate_ns: f64,
    counting_ns: f64,
    pub events: u64,
}

impl SinkBaseline {
    pub fn measure(tracer: &mut Tracer, program: &Program, machine: &MachineConfig) -> Self {
        let (report, simulate_ns) = timed(|| simulate(program, machine, SimOptions::default()));
        let report = report.expect("suite programs simulate");
        let mut counter = CountingSink::default();
        let (counted, counting_ns) =
            timed(|| simulate_with_sink(program, machine, SimOptions::default(), &mut counter));
        counted.expect("suite programs simulate");
        tracer.add_aux("probe.simulate", simulate_ns);
        tracer.count("probe.instructions", report.instructions());
        tracer.add_aux("delta.sink", counting_ns - simulate_ns);
        SinkBaseline {
            simulate_ns,
            counting_ns,
            events: counter.events,
        }
    }

    /// Charges the two baseline runs plus a `run_ns` run with a real sink
    /// to the budget. Each of the three runs contains one simulation, and
    /// the two sink-attached runs each pay the sink plumbing, so the
    /// layers sum to exactly the three runs' wall time:
    /// `sim.simulate` 3 × plain, `trace.sink` 2 × (counting − plain), and
    /// `layer` the real run minus the counting run (also kept as `delta`).
    pub fn charge(
        &self,
        tracer: &mut Tracer,
        layer: &'static str,
        delta: &'static str,
        run_ns: f64,
    ) {
        tracer.add("sim.simulate", 3.0 * self.simulate_ns);
        tracer.add("trace.sink", 2.0 * (self.counting_ns - self.simulate_ns));
        tracer.add(layer, run_ns - self.counting_ns);
        tracer.add_aux(delta, run_ns - self.counting_ns);
    }
}
