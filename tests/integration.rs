//! Cross-crate integration tests: the full pipeline (front end → optimizer
//! → register allocation → code generation → scheduling → simulation)
//! exercised end-to-end on realistic programs and machine descriptions.

use supersym::isa::{InstrClass, IntReg};
use supersym::machine::{presets, FunctionalUnit, MachineConfig, RegisterSplit};
use supersym::opt::UnrollOptions;
use supersym::sim::{
    simulate, simulate_with_cache, CacheConfig, ExecOptions, Executor, SimOptions,
};
use supersym::{compile, CompileOptions, OptLevel};

const MIXED_PROGRAM: &str = "
    global arr keys[64];
    global arr heap[128];
    global var heapsize;
    global fvar mean;
    global farr samples[64];
    global var seed = 5;

    fn rnd(int limit) -> int {
        seed = (seed * 1103515245 + 12345) & 2147483647;
        return seed % limit;
    }

    // A heap insert exercises data-dependent loops and stores.
    fn push(int v) {
        heap[heapsize] = v;
        var i = heapsize;
        heapsize = heapsize + 1;
        while (i > 0) {
            var parent = (i - 1) / 2;
            if (heap[parent] > heap[i]) {
                var t = heap[parent];
                heap[parent] = heap[i];
                heap[i] = t;
                i = parent;
            } else {
                i = 0;
            }
        }
    }

    fn gcd(int a, int b) -> int {
        if (b == 0) { return a; }
        return gcd(b, a % b);
    }

    fn main() -> int {
        heapsize = 0;
        for (i = 0; i < 64; i = i + 1) {
            keys[i] = rnd(1000);
            push(keys[i]);
            samples[i] = itof(keys[i]) * 0.125;
        }
        mean = 0.0;
        for (i = 0; i < 64; i = i + 1) {
            mean = mean + samples[i];
        }
        mean = mean / 64.0;
        var g = 0;
        for (i = 0; i < 63; i = i + 1) {
            g = g + gcd(keys[i], keys[i + 1]);
        }
        return heap[0] * 1000 + g + ftoi(mean);
    }";

fn result_of(program: &supersym::isa::Program) -> i64 {
    let mut exec = Executor::new(program, ExecOptions::default()).unwrap();
    exec.run().unwrap();
    exec.int_reg(IntReg::new(1).unwrap())
}

#[test]
fn mixed_program_equivalent_everywhere() {
    let reference = {
        let machine = presets::base();
        result_of(&compile(MIXED_PROGRAM, &CompileOptions::new(OptLevel::O0, &machine)).unwrap())
    };
    for machine in [
        presets::base(),
        presets::multititan(),
        presets::cray1(),
        presets::ideal_superscalar(8),
        presets::superpipelined(8),
        presets::superpipelined_superscalar(2, 3),
        presets::superscalar_with_class_conflicts(4),
        presets::underpipelined_half_issue(),
    ] {
        for level in [OptLevel::O1, OptLevel::O2, OptLevel::O4] {
            let program = compile(MIXED_PROGRAM, &CompileOptions::new(level, &machine)).unwrap();
            program.validate().unwrap();
            assert_eq!(
                result_of(&program),
                reference,
                "{} at {level}",
                machine.name()
            );
        }
    }
}

#[test]
fn tight_register_splits_still_correct() {
    let machine = presets::ideal_superscalar(4);
    let reference =
        result_of(&compile(MIXED_PROGRAM, &CompileOptions::new(OptLevel::O4, &machine)).unwrap());
    for (temps, globals) in [(4, 0), (4, 2), (6, 1), (8, 26), (52, 0)] {
        let split = RegisterSplit {
            int_temps: temps,
            int_globals: globals,
            fp_temps: temps,
            fp_globals: globals,
        };
        let options = CompileOptions::new(OptLevel::O4, &machine).with_split(split);
        let program = compile(MIXED_PROGRAM, &options).unwrap();
        assert_eq!(
            result_of(&program),
            reference,
            "split {temps}/{globals} diverged"
        );
    }
}

#[test]
fn fewer_temporaries_never_speed_things_up() {
    // Register pressure can only add spills and artificial dependences.
    let machine = presets::ideal_superscalar(8);
    let mut cycles = Vec::new();
    for temps in [4_u8, 8, 16, 40] {
        let split = RegisterSplit {
            int_temps: temps,
            int_globals: 8,
            fp_temps: temps,
            fp_globals: 8,
        };
        let options = CompileOptions::new(OptLevel::O4, &machine).with_split(split);
        let program = compile(MIXED_PROGRAM, &options).unwrap();
        let report = simulate(&program, &machine, SimOptions::default()).unwrap();
        cycles.push(report.base_cycles());
    }
    for pair in cycles.windows(2) {
        assert!(
            pair[1] <= pair[0] * 1.02,
            "more temporaries regressed: {cycles:?}"
        );
    }
}

#[test]
fn issue_width_is_monotone() {
    let machine = presets::ideal_superscalar(4);
    let program = compile(MIXED_PROGRAM, &CompileOptions::new(OptLevel::O4, &machine)).unwrap();
    let mut last = f64::INFINITY;
    for width in 1..=8 {
        let report = simulate(
            &program,
            &presets::ideal_superscalar(width),
            SimOptions::default(),
        )
        .unwrap();
        assert!(
            report.base_cycles() <= last,
            "width {width} slower than {}",
            width - 1
        );
        last = report.base_cycles();
    }
}

#[test]
fn ipc_never_exceeds_issue_width() {
    for width in [1, 2, 4] {
        let machine = presets::ideal_superscalar(width);
        let program = compile(MIXED_PROGRAM, &CompileOptions::new(OptLevel::O4, &machine)).unwrap();
        let report = simulate(&program, &machine, SimOptions::default()).unwrap();
        assert!(
            report.available_parallelism() <= f64::from(width) + 1e-9,
            "IPC {} exceeds width {width}",
            report.available_parallelism()
        );
    }
}

#[test]
fn class_conflicts_never_help() {
    let ideal = presets::ideal_superscalar(4);
    let conflicted = presets::superscalar_with_class_conflicts(4);
    let program = compile(MIXED_PROGRAM, &CompileOptions::new(OptLevel::O4, &ideal)).unwrap();
    let a = simulate(&program, &ideal, SimOptions::default()).unwrap();
    let b = simulate(&program, &conflicted, SimOptions::default()).unwrap();
    assert!(b.base_cycles() >= a.base_cycles());
}

#[test]
fn unrolling_variants_agree_on_integer_program() {
    let machine = presets::multititan();
    let reference =
        result_of(&compile(MIXED_PROGRAM, &CompileOptions::new(OptLevel::O4, &machine)).unwrap());
    for unroll in [
        UnrollOptions::naive(2),
        UnrollOptions::naive(7),
        UnrollOptions::careful(3),
        UnrollOptions::careful(10),
    ] {
        let options = CompileOptions::new(OptLevel::O4, &machine).with_unroll(unroll);
        let program = compile(MIXED_PROGRAM, &options).unwrap();
        // The float reduction (mean) reassociates under careful unrolling;
        // the checksum only uses ftoi(mean) which is stable here because
        // the sum is exact in f64 (small dyadic values).
        assert_eq!(result_of(&program), reference, "{unroll:?}");
    }
}

#[test]
fn cache_runs_and_reports_sane_rates() {
    let machine = presets::base();
    let program = compile(MIXED_PROGRAM, &CompileOptions::new(OptLevel::O4, &machine)).unwrap();
    let (report, caches) = simulate_with_cache(
        &program,
        &machine,
        SimOptions::default(),
        CacheConfig::small_direct(),
        CacheConfig::small_direct(),
    )
    .unwrap();
    assert_eq!(caches.icache.accesses, report.instructions());
    assert!(caches.icache.miss_rate() < 0.5);
    assert!(caches.dcache.miss_rate() < 0.5);
    assert!(caches.effective_cpi(1.0, 12.0) >= 1.0);
}

#[test]
fn custom_machine_description_end_to_end() {
    // A lopsided machine: fast ALUs, one slow shared memory port.
    let mut builder = MachineConfig::builder("lopsided");
    builder
        .issue_width(3)
        .latency(InstrClass::Load, 5)
        .latency(InstrClass::Store, 5)
        .functional_unit(FunctionalUnit::new(
            "alu",
            vec![
                InstrClass::Logical,
                InstrClass::Shift,
                InstrClass::IntAdd,
                InstrClass::Compare,
                InstrClass::IntMul,
                InstrClass::IntDiv,
            ],
            3,
            1,
        ))
        .functional_unit(FunctionalUnit::new(
            "mem",
            vec![InstrClass::Load, InstrClass::Store],
            1,
            2,
        ))
        .functional_unit(FunctionalUnit::new(
            "ctrl",
            vec![InstrClass::Branch, InstrClass::Jump],
            3,
            1,
        ))
        .functional_unit(FunctionalUnit::new(
            "fp",
            vec![
                InstrClass::FpAdd,
                InstrClass::FpMul,
                InstrClass::FpDiv,
                InstrClass::FpCvt,
            ],
            1,
            1,
        ));
    let machine = builder.build().unwrap();
    let reference = {
        let base = presets::base();
        result_of(&compile(MIXED_PROGRAM, &CompileOptions::new(OptLevel::O4, &base)).unwrap())
    };
    let program = compile(MIXED_PROGRAM, &CompileOptions::new(OptLevel::O4, &machine)).unwrap();
    assert_eq!(result_of(&program), reference);
    let report = simulate(&program, &machine, SimOptions::default()).unwrap();
    assert!(report.base_cycles() > 0.0);
}

#[test]
fn deep_recursion_within_limits() {
    let source = "
        fn depth(int n) -> int {
            if (n == 0) { return 0; }
            return 1 + depth(n - 1);
        }
        fn main() -> int { return depth(4000); }";
    let machine = presets::base();
    let program = compile(source, &CompileOptions::new(OptLevel::O4, &machine)).unwrap();
    assert_eq!(result_of(&program), 4000);
}

#[test]
fn scheduling_for_wrong_machine_is_legal_just_slower() {
    // Code scheduled for the CRAY-1 but run on the MultiTitan must still be
    // correct (compile-time scheduling is a performance hint, not a
    // correctness requirement).
    let cray = presets::cray1();
    let titan = presets::multititan();
    let program = compile(MIXED_PROGRAM, &CompileOptions::new(OptLevel::O4, &cray)).unwrap();
    let reference =
        result_of(&compile(MIXED_PROGRAM, &CompileOptions::new(OptLevel::O4, &titan)).unwrap());
    assert_eq!(result_of(&program), reference);
    let report = simulate(&program, &titan, SimOptions::default()).unwrap();
    assert!(report.base_cycles() > 0.0);
}

/// The timeline validator reads a multi-megabyte document in linear time:
/// the smallest small-suite timeline (ccom on multititan, ~2.9 MB of
/// trace_event JSON) is emitted the way `titalc profile --timeline` emits
/// it and must validate, event for event, within the test run. A
/// validator that rescans the rest of the input per character takes
/// minutes on this document.
#[test]
fn smallest_suite_timeline_validates() {
    use supersym::sim::simulate_with_sink;
    use supersym::trace::{validate_timeline, TimelineSink};
    use supersym::workloads::{suite, Size};

    let machine = presets::multititan();
    let source = suite(Size::Small)
        .into_iter()
        .find(|source| source.name == "ccom")
        .expect("the small suite has ccom");
    let program = compile(&source.source, &CompileOptions::new(OptLevel::O4, &machine))
        .expect("suite programs compile");
    let lanes = machine
        .functional_units()
        .iter()
        .map(|unit| unit.name().to_string())
        .collect();
    let class_lane = InstrClass::ALL
        .iter()
        .map(|&class| (class.mnemonic().to_string(), machine.unit_of(class)))
        .collect();
    let mut sink = TimelineSink::new(Vec::new()).with_pipeline_lanes(lanes, class_lane);
    let report = simulate_with_sink(&program, &machine, SimOptions::default(), &mut sink)
        .expect("suite programs simulate");
    let text =
        String::from_utf8(sink.finish().expect("in-memory timeline")).expect("timelines are utf-8");
    assert!(text.len() > 2_000_000, "document is {} bytes", text.len());

    let validated = validate_timeline(&text).expect("emitted timeline validates");
    // Every dynamic instruction is one span; counters and markers add more.
    assert!(validated.events as u64 > report.instructions());
}
