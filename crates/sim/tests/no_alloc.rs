//! The hot simulation loop must not allocate per dynamic instruction.
//!
//! Strategy: install a counting global allocator, then simulate two
//! programs that are *statically identical* — they differ only in a loop
//! trip-count immediate — so every allocation on the per-run path
//! (executor state, timing tables, report assembly) is the same for both.
//! If the per-instruction path allocated anything, the run that executes
//! ~100× more dynamic instructions would allocate more. The counts must be
//! exactly equal.
//!
//! Allocations are counted per thread: the test runner runs these tests on
//! parallel threads, and a sibling's allocations must not leak into the
//! count of the run being measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;

use supersym_isa::{AsmBuilder, InstrClass, IntReg, Program};
use supersym_machine::{presets, MachineConfig};
use supersym_sim::{simulate, simulate_with_sink, MetricsSink, SimOptions};
use supersym_trace::{JsonLinesSink, NullSink, TimelineSink};

struct CountingAlloc;

thread_local! {
    // `const` initialization needs no lazy set-up, so touching it from
    // inside the allocator cannot itself allocate.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    ALLOCATIONS.with(|count| count.set(count.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn counted_loop(iters: i64) -> Program {
    let mut asm = AsmBuilder::new("main");
    let r = |i: u8| IntReg::new(i).unwrap();
    let top = asm.new_label();
    asm.movi(r(1), iters);
    asm.movi(r(3), 0);
    asm.bind(top);
    asm.add(r(3), r(3), 2.into());
    asm.sub(r(1), r(1), 1.into());
    asm.cmp_gt(r(2), r(1), 0.into());
    asm.br_true(r(2), top);
    asm.halt();
    asm.finish_program()
}

fn allocations_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (value, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn simulate_allocates_nothing_per_instruction() {
    let short = counted_loop(10);
    let long = counted_loop(1000);
    let config = presets::ideal_superscalar(4);

    // Warm up once so lazy one-time initialization doesn't skew the counts.
    simulate(&short, &config, SimOptions::default()).unwrap();

    let (report_short, allocs_short) =
        allocations_during(|| simulate(&short, &config, SimOptions::default()).unwrap());
    let (report_long, allocs_long) =
        allocations_during(|| simulate(&long, &config, SimOptions::default()).unwrap());

    // Sanity: the long run really does ~100× the dynamic work.
    assert!(report_long.instructions() > 50 * report_short.instructions());
    // Both reports see a conserved cycle account.
    assert!(report_short.cycle_account().conserved());
    assert!(report_long.cycle_account().conserved());

    assert_eq!(
        allocs_short,
        allocs_long,
        "simulate allocated per dynamic instruction: \
         {allocs_short} allocations for {} instructions vs \
         {allocs_long} for {}",
        report_short.instructions(),
        report_long.instructions(),
    );
}

#[test]
fn block_cache_replay_allocates_nothing_once_warmed() {
    // The block timing cache allocates while recording variants (cold
    // traces only); once every hot trace is recorded, bulk replay must be
    // allocation-free. The two programs record identical variants, so the
    // 100× replay traffic of the long run must not change the count.
    let short = counted_loop(1_000);
    let long = counted_loop(100_000);
    let config = presets::ideal_superscalar(4);
    let cached = SimOptions::default();
    assert!(cached.block_cache, "block cache is on by default");

    simulate(&short, &config, cached).unwrap();

    let (report_short, allocs_short) =
        allocations_during(|| simulate(&short, &config, cached).unwrap());
    let (report_long, allocs_long) =
        allocations_during(|| simulate(&long, &config, cached).unwrap());

    // Sanity: the replay path really served the long run's extra work.
    let stats = report_long.block_cache_stats();
    assert!(stats.hits > report_short.block_cache_stats().hits);
    assert!(
        stats.replayed_instructions > report_long.instructions() / 2,
        "replay served too little of the run: {stats:?}"
    );

    assert_eq!(
        allocs_short,
        allocs_long,
        "warmed block-cache replay allocated per dynamic instruction: \
         {allocs_short} allocations for {} instructions vs \
         {allocs_long} for {}",
        report_short.instructions(),
        report_long.instructions(),
    );
}

#[test]
fn sink_off_paths_allocate_nothing_per_instruction() {
    // Observability off must cost one branch, not an allocation: both the
    // timeline-off path (NullSink) and the metrics path (MetricsSink is a
    // pair of fixed-size histograms) must allocate identically regardless
    // of dynamic instruction count.
    let short = counted_loop(10);
    let long = counted_loop(1000);
    let config = presets::ideal_superscalar(4);

    simulate_with_sink(&short, &config, SimOptions::default(), &mut NullSink).unwrap();

    let (_, null_short) = allocations_during(|| {
        simulate_with_sink(&short, &config, SimOptions::default(), &mut NullSink).unwrap()
    });
    let (_, null_long) = allocations_during(|| {
        simulate_with_sink(&long, &config, SimOptions::default(), &mut NullSink).unwrap()
    });
    assert_eq!(
        null_short, null_long,
        "NullSink path allocated per dynamic instruction"
    );

    let (_, metrics_short) = allocations_during(|| {
        let mut sink = MetricsSink::new();
        simulate_with_sink(&short, &config, SimOptions::default(), &mut sink).unwrap();
        sink.finish();
    });
    let (_, metrics_long) = allocations_during(|| {
        let mut sink = MetricsSink::new();
        simulate_with_sink(&long, &config, SimOptions::default(), &mut sink).unwrap();
        sink.finish();
    });
    assert_eq!(
        metrics_short, metrics_long,
        "MetricsSink recorded with per-instruction allocations"
    );
}

/// A timeline sink with simulate lanes named after `machine`'s functional
/// units, as `titalc profile --timeline` builds it.
fn timeline_sink(machine: &MachineConfig) -> TimelineSink<io::Sink> {
    let lanes = machine
        .functional_units()
        .iter()
        .map(|unit| unit.name().to_string())
        .collect();
    let class_lane = InstrClass::ALL
        .iter()
        .map(|&class| (class.mnemonic().to_string(), machine.unit_of(class)))
        .collect();
    TimelineSink::new(io::sink()).with_pipeline_lanes(lanes, class_lane)
}

#[test]
fn timeline_sink_allocates_nothing_per_instruction() {
    // Streaming the trace_event document renders every event into one
    // reused buffer: once it has grown, spans, counter samples and
    // block-replay markers cost no allocation however long the run.
    let short = counted_loop(10);
    let long = counted_loop(1000);
    let config = presets::multititan();

    let stream = |program: &Program| {
        let mut sink = timeline_sink(&config);
        let report =
            simulate_with_sink(program, &config, SimOptions::default(), &mut sink).unwrap();
        sink.finish().unwrap();
        report
    };
    stream(&short);

    let (report_short, allocs_short) = allocations_during(|| stream(&short));
    let (report_long, allocs_long) = allocations_during(|| stream(&long));
    assert!(report_long.instructions() > 50 * report_short.instructions());
    assert_eq!(
        allocs_short,
        allocs_long,
        "TimelineSink allocated per dynamic instruction: \
         {allocs_short} allocations for {} instructions vs \
         {allocs_long} for {}",
        report_short.instructions(),
        report_long.instructions(),
    );
}

#[test]
fn json_lines_sink_allocates_nothing_per_instruction() {
    // `titalc --trace`: one JSON line per issue event from one reused
    // buffer.
    let short = counted_loop(10);
    let long = counted_loop(1000);
    let config = presets::multititan();

    let stream = |program: &Program| {
        let mut sink = JsonLinesSink::new(io::sink());
        let report =
            simulate_with_sink(program, &config, SimOptions::default(), &mut sink).unwrap();
        sink.finish().unwrap();
        report
    };
    stream(&short);

    let (report_short, allocs_short) = allocations_during(|| stream(&short));
    let (report_long, allocs_long) = allocations_during(|| stream(&long));
    assert!(report_long.instructions() > 50 * report_short.instructions());
    assert_eq!(
        allocs_short,
        allocs_long,
        "JsonLinesSink allocated per dynamic instruction: \
         {allocs_short} allocations for {} instructions vs \
         {allocs_long} for {}",
        report_short.instructions(),
        report_long.instructions(),
    );
}

#[test]
fn timeline_on_and_off_produce_identical_cycle_accounts() {
    // The timeline sink observes the issue stream; it must not perturb
    // timing. Differential check on the full per-cause account.
    let program = counted_loop(200);
    for config in [
        presets::ideal_superscalar(4),
        presets::base(),
        presets::cray1(),
    ] {
        let plain = simulate(&program, &config, SimOptions::default()).unwrap();
        let mut sink = TimelineSink::new(Vec::new());
        let timed =
            simulate_with_sink(&program, &config, SimOptions::default(), &mut sink).unwrap();
        sink.finish().unwrap();
        assert_eq!(plain.cycle_account(), timed.cycle_account());
        assert_eq!(plain.machine_cycles(), timed.machine_cycles());
        assert_eq!(plain.instructions(), timed.instructions());
    }
}
