//! The committed reference outputs the checks compare against, and
//! `--write-refs`, which regenerates them.
//!
//! Each file is a table of lines `KEY... VALUE...`; `#` starts a comment.
//! Sweep and stats cycle counts come from the exact timing model
//! (`block_cache: false`), the only oracle the simulator has.

use crate::measure::Tracer;
use crate::stats::{document, key, machines};
use crate::sweep::exact_records;
use crate::timeline::TimelineSuite;
use crate::Workload;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::OnceLock;
use supersym::rng::fnv1a_64;
use supersym::sim::{simulate, SimOptions};
use supersym::sweep::CellStatus;
use supersym::workloads::{suite, Size};
use supersym::{compile, CompileOptions, OptLevel};

type Table = HashMap<String, Vec<u64>>;

const SWEEP: &str = include_str!("../refs/sweep-grid.txt");
const STATS: &str = include_str!("../refs/stats-suite.txt");
const TIMELINE: &str = include_str!("../refs/timeline-suite.txt");

fn parse(text: &str, keys: usize) -> Table {
    text.lines()
        .filter(|line| !line.starts_with('#') && !line.trim().is_empty())
        .map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let values = fields[keys..]
                .iter()
                .map(|v| v.parse().expect("reference values are integers"))
                .collect();
            (fields[..keys].join(" "), values)
        })
        .collect()
}

/// `cell workload` → `[instructions, machine_cycles]`.
pub fn sweep() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| parse(SWEEP, 2))
}

/// `program machine` → `[instructions, machine_cycles, metrics digest]`.
pub fn stats() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| parse(STATS, 2))
}

/// `program` → `[bytes, digest]`.
pub fn timeline() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| parse(TIMELINE, 1))
}

fn write(name: &str, header: &str, body: &str) {
    let path = format!("{}/refs/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, format!("{header}\n{body}")).expect("write a reference file");
    eprintln!("perfbench: wrote {path}");
}

/// Regenerates every reference file from the current code.
pub fn write_all() {
    let mut body = String::new();
    for record in exact_records() {
        let CellStatus::Ok(m) = &record.status else {
            panic!("{} {}: {:?}", record.cell, record.workload, record.status);
        };
        let _ = writeln!(
            body,
            "{} {} {} {}",
            record.cell, record.workload, m.instructions, m.machine_cycles
        );
    }
    write(
        "sweep-grid.txt",
        "# cell workload instructions machine_cycles (block_cache: false)",
        &body,
    );

    let mut body = String::new();
    let exact = SimOptions {
        block_cache: false,
        ..SimOptions::default()
    };
    for program in suite(Size::Standard) {
        for machine in machines() {
            let compiled = compile(
                &program.source,
                &CompileOptions::new(OptLevel::O4, &machine),
            )
            .expect("suite programs compile");
            let report = simulate(&compiled, &machine, exact).expect("suite programs simulate");
            let digest = document(&program.source, &machine, &mut Tracer::off())
                .expect("suite programs simulate")
                .digest();
            let _ = writeln!(
                body,
                "{} {} {} {digest}",
                key(program.name, &machine),
                report.instructions(),
                report.machine_cycles()
            );
        }
    }
    write(
        "stats-suite.txt",
        "# program machine instructions machine_cycles metrics_digest (block_cache: false)",
        &body,
    );

    let mut body = String::new();
    for (name, document) in TimelineSuite::setup(0, &mut Tracer::off()).documents() {
        let bytes = document.expect("suite programs simulate");
        let _ = writeln!(body, "{name} {} {}", bytes.len(), fnv1a_64(&bytes));
    }
    write("timeline-suite.txt", "# program bytes digest", &body);
}
