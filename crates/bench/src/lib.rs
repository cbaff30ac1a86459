//! # supersym-bench
//!
//! Bench harness for the supersym reproduction. The real content lives in
//! `benches/`, as plain `main` programs timed with `std::time::Instant`:
//!
//! * `benches/paper.rs` — regenerates **every table and figure** of the
//!   paper at the standard workload size (the printed output is the
//!   reproduction artifact; see EXPERIMENTS.md) from the one experiment
//!   list `supersym::experiments::ALL`, then times each experiment driver
//!   at the small size.
//! * `benches/pipeline.rs` — micro-benchmarks of the system itself:
//!   compilation throughput, functional+timing simulation rate,
//!   scheduling, and cache simulation.
