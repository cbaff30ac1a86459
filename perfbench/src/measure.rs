//! Clocks, the memory high-water mark, order statistics, and the span
//! recorder the traced run uses to build its layer budget.

use std::collections::BTreeMap;
use std::os::raw::{c_int, c_long};
use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`: user + system time of every thread
/// of the process, including threads that have already exited.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// CPU time consumed so far by the whole process, at nanosecond
/// resolution (`/proc/self/stat` only counts 10 ms ticks).
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // Linux) and `clock_gettime` writes nothing but that struct.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    let secs = u64::try_from(ts.tv_sec).expect("CPU time is non-negative");
    let nanos = u32::try_from(ts.tv_nsec).expect("tv_nsec is below one second");
    Duration::new(secs, nanos)
}

/// The process's resident-set high-water mark (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linearly interpolated quantile `q` in `[0, 1]`; 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Spans and work counters of one traced cycle. When off, [`Tracer::span`]
/// runs its closure untimed and the workloads skip their layer probes, so
/// the untraced run makes exactly the calls a user's run makes.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    /// Self time per budget layer, nanoseconds. May go slightly negative
    /// for a layer derived as the difference of two runs.
    pub layers: BTreeMap<&'static str, f64>,
    /// Timings that are not budget layers (probe totals, differences).
    pub aux: BTreeMap<&'static str, f64>,
    /// Deterministic work counters.
    pub counts: BTreeMap<&'static str, u64>,
    /// Thread time beyond the cycle's wall time: `(jobs − 1) × span` for
    /// each parallel section, so parallel layers fit in the budget.
    pub extra_capacity_ns: f64,
    /// Per-item windows of a parallel section, milliseconds.
    pub item_ms: Vec<f64>,
    /// Wall and CPU seconds of each [`Tracer::part`], in call order,
    /// recorded whether tracing is on or off.
    pub parts: Vec<(f64, f64)>,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer::default()
    }

    pub fn on() -> Self {
        Tracer {
            on: true,
            ..Tracer::default()
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f`, charging its wall time to `layer` when tracing.
    pub fn span<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.add(layer, ns(start.elapsed()));
        out
    }

    /// Runs one part of an iteration, recording its wall and CPU time. An
    /// iteration makes the same parts in the same order every time, so the
    /// run loop can take each part's times over the run.
    pub fn part<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> T {
        let cpu = process_cpu();
        let start = Instant::now();
        let out = f(self);
        let wall = start.elapsed().as_secs_f64();
        self.parts.push((wall, (process_cpu() - cpu).as_secs_f64()));
        out
    }

    pub fn add(&mut self, layer: &'static str, ns: f64) {
        *self.layers.entry(layer).or_default() += ns;
    }

    pub fn add_aux(&mut self, name: &'static str, ns: f64) {
        *self.aux.entry(name).or_default() += ns;
    }

    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }
}

/// Times one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, ns(start.elapsed()))
}
