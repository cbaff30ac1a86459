//! Regenerates every table and figure of Jouppi & Wall (ASPLOS 1989).
//!
//! Running `cargo bench --bench paper` first prints the full set of
//! regenerated tables/figures at the standard workload size — that printed
//! output is the reproduction artifact recorded in EXPERIMENTS.md — and
//! then times each experiment driver at the small size so regressions in
//! the simulation pipeline show up as timing changes. The harness is a
//! plain `main` over `std::time::Instant`, with no external dependencies.

use std::hint::black_box;
use std::time::{Duration, Instant};
use supersym::experiments;
use supersym::workloads::Size;

/// Each driver is timed for at least this long (and at least once).
const SAMPLE_TIME: Duration = Duration::from_millis(200);

fn main() {
    println!("==========================================================");
    println!(" supersym: reproduction of Jouppi & Wall, ASPLOS 1989");
    println!("==========================================================\n");
    for (_, run) in experiments::ALL {
        println!("{}", run(Size::Standard));
    }

    println!("--- experiment drivers (small size) ---");
    for (name, run) in experiments::ALL {
        // One warm-up run so first-touch costs don't pollute the mean.
        black_box(run(Size::Small));
        let start = Instant::now();
        let mut iters = 0_u32;
        while iters == 0 || start.elapsed() < SAMPLE_TIME {
            black_box(run(Size::Small));
            iters += 1;
        }
        let mean = start.elapsed() / iters;
        println!("{name:40} {mean:>12.2?}/iter  ({iters} iters)");
    }
}
