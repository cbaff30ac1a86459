//! Chrome `trace_event` timeline emission (`supersym.timeline/v1`).
//!
//! A [`TimelineSink`] streams one Perfetto/`chrome://tracing`-loadable JSON
//! document to any writer, merging three clocks into one file:
//!
//! * **compile** (pid 1): one duration span per compile phase on a single
//!   lane, `ts` in cumulative wall-clock microseconds;
//! * **simulate** (pid 2): one complete-event per dynamic instruction on
//!   the lane of its functional unit, `ts`/`dur` in *machine cycles*
//!   (span `[issue, drain)` — a superscalar schedule shows as overlapping
//!   bars), plus `ipc` and `inflight` counter tracks sampled at every
//!   cycle boundary;
//! * **sweep** (pid 3): one lane per worker thread, a complete-event per
//!   executed cell (wall-clock microseconds since the sweep started) and
//!   instant markers for cache hits and quarantines.
//!
//! The sink follows the [`crate::sink::JsonLinesSink`] discipline: each
//! event is rendered into a reused buffer and sent with one `write_all`
//! (nothing is allocated per event once the buffers have grown), and
//! write errors are sticky (the sink goes quiet after the first) and
//! surface at [`TimelineSink::finish`]. Lane timestamps are emitted
//! monotonically nondecreasing per `(pid, tid)` — the invariant the
//! validator in [`crate::parse`] enforces.

use crate::json::{push_counters, push_str, push_u64, EventWriter};
use crate::sink::{BlockReplayEvent, IssueEvent, PhaseRecord, TraceSink};
use std::io::{self, Write};

/// Schema identifier of the timeline document.
pub const TIMELINE_SCHEMA: &str = "supersym.timeline/v1";

/// Process lane of compile-phase spans.
pub const PID_COMPILE: u64 = 1;
/// Process lane of per-instruction pipeline spans and counter tracks.
pub const PID_SIMULATE: u64 = 2;
/// Process lane of sweep workers.
pub const PID_SWEEP: u64 = 3;

/// Appends the document's opening, up to its `traceEvents` bracket.
fn open_document(line: &mut Vec<u8>) {
    line.extend_from_slice(b"{\"schema\":\"");
    line.extend_from_slice(TIMELINE_SCHEMA.as_bytes());
    line.extend_from_slice(b"\",\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
}

/// Streams a `supersym.timeline/v1` Chrome `trace_event` document.
///
/// Constructed bare (compile and sweep lanes work immediately) or with
/// [`TimelineSink::with_pipeline_lanes`] to name the simulate lanes after
/// a machine's functional units. Implements [`TraceSink`], so it can be
/// handed directly to `compile_with_trace` and `simulate_with_sink`.
#[derive(Debug)]
pub struct TimelineSink<W: Write> {
    out: EventWriter<W>,
    any_event: bool,
    /// Cumulative compile-lane clock, microseconds.
    compile_us: u64,
    compile_meta: bool,
    /// Simulate-lane names; tid = lane index + 1.
    lanes: Vec<String>,
    /// Class mnemonic → lane index; unmapped classes share an extra lane.
    class_lane: Vec<(String, usize)>,
    /// Lane tid of each class mnemonic seen so far, keyed by the
    /// mnemonic's address: each class is looked up in `class_lane` once.
    class_tid: Vec<(&'static str, u64)>,
    pipeline_meta: bool,
    cur_cycle: u64,
    issued_in_cycle: u64,
    /// Drain cycles of issued-but-not-drained instructions.
    inflight: Vec<u64>,
    sweep_meta: bool,
    /// Sweep workers whose thread lane has been named.
    named_workers: Vec<bool>,
}

impl<W: Write> TimelineSink<W> {
    /// Wraps a writer (hand it a `BufWriter` for file output).
    pub fn new(out: W) -> Self {
        TimelineSink {
            out: EventWriter::new(out),
            any_event: false,
            compile_us: 0,
            compile_meta: false,
            lanes: Vec::new(),
            class_lane: Vec::new(),
            class_tid: Vec::new(),
            pipeline_meta: false,
            cur_cycle: 0,
            issued_in_cycle: 0,
            inflight: Vec::new(),
            sweep_meta: false,
            named_workers: Vec::new(),
        }
    }

    /// Names the simulate lanes and maps instruction-class mnemonics onto
    /// them (typically `FunctionalUnit::name()` and `unit_of(class)` from
    /// a machine description). Classes missing from `class_lane` share one
    /// extra `other` lane.
    #[must_use]
    pub fn with_pipeline_lanes(
        mut self,
        lanes: Vec<String>,
        class_lane: Vec<(String, usize)>,
    ) -> Self {
        self.lanes = lanes;
        self.class_lane = class_lane;
        self.class_tid.clear();
        self
    }

    /// Flushes the document close and returns the writer, or the first
    /// write error the sink swallowed while streaming.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error, including one from the closing write.
    pub fn finish(mut self) -> io::Result<W> {
        // Final counter samples for the last simulated cycle.
        if self.issued_in_cycle > 0 {
            let (cycle, issued) = (self.cur_cycle, self.issued_in_cycle);
            self.emit(|line| counter(line, cycle, "ipc", issued));
        }
        if !self.any_event {
            // No event ever opened the document; write a complete empty one.
            self.out.emit(|line| {
                open_document(line);
                line.extend_from_slice(b"]}\n");
            });
            return self.out.finish(b"");
        }
        self.out.finish(b"\n]}\n")
    }

    /// Writes one event: the document header before the first, a `,`
    /// separator before the rest.
    fn emit(&mut self, render: impl FnOnce(&mut Vec<u8>)) {
        let first = !self.any_event;
        if self.out.emit(|line| {
            if first {
                open_document(line);
                line.push(b'\n');
            } else {
                line.extend_from_slice(b",\n");
            }
            render(line);
        }) {
            self.any_event = true;
        }
    }

    fn ensure_pipeline_meta(&mut self) {
        if self.pipeline_meta {
            return;
        }
        self.pipeline_meta = true;
        self.emit(|line| meta(line, PID_SIMULATE, 0, "process_name", "simulate"));
        let lanes = std::mem::take(&mut self.lanes);
        for (index, name) in lanes.iter().enumerate() {
            self.emit(|line| meta(line, PID_SIMULATE, index as u64 + 1, "thread_name", name));
        }
        self.lanes = lanes;
        let other = self.lanes.len() as u64 + 1;
        self.emit(|line| meta(line, PID_SIMULATE, other, "thread_name", "other"));
        self.emit(|line| meta(line, PID_SIMULATE, other + 1, "thread_name", "block cache"));
    }

    fn lane_of(&mut self, class: &'static str) -> u64 {
        if let Some(&(_, tid)) = self
            .class_tid
            .iter()
            .find(|&&(seen, _)| std::ptr::eq(seen, class))
        {
            return tid;
        }
        let tid = self
            .class_lane
            .iter()
            .find(|(mnemonic, _)| mnemonic == class)
            .map_or(self.lanes.len() as u64 + 1, |&(_, lane)| lane as u64 + 1);
        self.class_tid.push((class, tid));
        tid
    }

    /// Advances the simulate clock to `cycle`, emitting the `ipc` sample
    /// for the finished cycle and the `inflight` sample at the new one.
    fn advance_cycle(&mut self, cycle: u64) {
        let (finished, issued) = (self.cur_cycle, self.issued_in_cycle);
        self.emit(|line| counter(line, finished, "ipc", issued));
        self.inflight.retain(|&drain| drain > cycle);
        let live = self.inflight.len() as u64;
        self.emit(|line| counter(line, cycle, "inflight", live));
        self.cur_cycle = cycle;
        self.issued_in_cycle = 0;
    }

    fn ensure_sweep_meta(&mut self) {
        if self.sweep_meta {
            return;
        }
        self.sweep_meta = true;
        self.emit(|line| meta(line, PID_SWEEP, 0, "process_name", "sweep"));
    }

    fn ensure_worker_named(&mut self, worker: usize) {
        if worker >= self.named_workers.len() {
            self.named_workers.resize(worker + 1, false);
        }
        if !self.named_workers[worker] {
            self.named_workers[worker] = true;
            let name = format!("worker {worker}");
            self.emit(|line| meta(line, PID_SWEEP, worker as u64 + 1, "thread_name", &name));
        }
    }

    /// Records one finished sweep item on its worker's lane: a cache hit
    /// becomes an instant marker, an executed cell a complete-event over
    /// `[start_us, end_us]`, and a non-`"ok"` status additionally drops a
    /// quarantine marker at the cell's end.
    pub fn sweep_item(&mut self, item: &SweepItem<'_>) {
        self.ensure_sweep_meta();
        self.ensure_worker_named(item.worker);
        if item.cached {
            self.emit(|line| cache_hit_marker(line, item));
            return;
        }
        self.emit(|line| sweep_span(line, item));
        if item.status != "ok" {
            self.emit(|line| quarantine_marker(line, item));
        }
    }
}

/// Appends a `process_name`/`thread_name` metadata event.
pub(crate) fn meta(line: &mut Vec<u8>, pid: u64, tid: u64, kind: &str, name: &str) {
    line.extend_from_slice(br#"{"ph":"M","pid":"#);
    push_u64(line, pid);
    line.extend_from_slice(br#","tid":"#);
    push_u64(line, tid);
    line.extend_from_slice(br#","name":"#);
    push_str(line, kind);
    line.extend_from_slice(br#","args":{"name":"#);
    push_str(line, name);
    line.extend_from_slice(b"}}");
}

/// Appends a sample on the simulate process's counter track.
pub(crate) fn counter(line: &mut Vec<u8>, ts: u64, name: &str, value: u64) {
    line.extend_from_slice(br#"{"ph":"C","pid":"#);
    push_u64(line, PID_SIMULATE);
    line.extend_from_slice(br#","tid":0,"ts":"#);
    push_u64(line, ts);
    line.extend_from_slice(br#","name":"#);
    push_str(line, name);
    line.extend_from_slice(br#","args":{"value":"#);
    push_u64(line, value);
    line.extend_from_slice(b"}}");
}

/// Appends one compile phase as a span starting at `ts_us` on the phases
/// lane.
pub(crate) fn phase_span(line: &mut Vec<u8>, record: &PhaseRecord<'_>, ts_us: u64) {
    line.extend_from_slice(br#"{"ph":"X","pid":"#);
    push_u64(line, PID_COMPILE);
    line.extend_from_slice(br#","tid":1,"ts":"#);
    push_u64(line, ts_us);
    line.extend_from_slice(br#","dur":"#);
    push_u64(line, phase_dur_us(record));
    line.extend_from_slice(br#","cat":"compile","name":"#);
    push_str(line, record.name);
    line.extend_from_slice(br#","args":"#);
    push_counters(line, record.counters);
    line.push(b'}');
}

fn phase_dur_us(record: &PhaseRecord<'_>) -> u64 {
    u64::try_from(record.wall_ns / 1000).unwrap_or(u64::MAX)
}

/// Appends one dynamic instruction as a span over `[issue, drain)` on
/// lane `tid`.
pub(crate) fn issue_span(line: &mut Vec<u8>, event: &IssueEvent, tid: u64) {
    // The span is `[issue, drain)`: `machine_cycles` is the maximum
    // drain, so no bar extends past the end of the run and per-lane
    // occupancy stays within the cycle account's total.
    let dur = event.drain.saturating_sub(event.issue).max(1);
    line.extend_from_slice(br#"{"ph":"X","pid":"#);
    push_u64(line, PID_SIMULATE);
    line.extend_from_slice(br#","tid":"#);
    push_u64(line, tid);
    line.extend_from_slice(br#","ts":"#);
    push_u64(line, event.issue);
    line.extend_from_slice(br#","dur":"#);
    push_u64(line, dur);
    line.extend_from_slice(br#","cat":"pipeline","name":"#);
    push_str(line, event.class);
    line.extend_from_slice(br#","args":{"pc":"#);
    push_u64(line, event.pc);
    line.extend_from_slice(br#","wait":"#);
    push_u64(line, event.wait);
    if let Some(cause) = event.cause {
        line.extend_from_slice(br#","cause":"#);
        push_str(line, cause);
    }
    line.extend_from_slice(b"}}");
}

/// Appends a block-cache replay (or fallback) as an instant marker on
/// lane `tid`.
pub(crate) fn replay_marker(line: &mut Vec<u8>, event: &BlockReplayEvent, tid: u64) {
    line.extend_from_slice(br#"{"ph":"i","pid":"#);
    push_u64(line, PID_SIMULATE);
    line.extend_from_slice(br#","tid":"#);
    push_u64(line, tid);
    line.extend_from_slice(br#","ts":"#);
    push_u64(line, event.cycle);
    line.extend_from_slice(br#","s":"t","name":"#);
    push_str(line, if event.hit { "replay" } else { "fallback" });
    line.extend_from_slice(br#","args":{"func":"#);
    push_u64(line, u64::from(event.func));
    line.extend_from_slice(br#","pc":"#);
    push_u64(line, event.pc);
    line.extend_from_slice(br#","instructions":"#);
    push_u64(line, u64::from(event.instructions));
    line.extend_from_slice(b"}}");
}

/// Opens an event on a sweep worker's lane: the brace, then its `"ph"`,
/// `"pid"`, `"tid"` and `"ts"` fields.
fn sweep_lane(line: &mut Vec<u8>, ph: &str, item: &SweepItem<'_>, ts: u64) {
    line.extend_from_slice(br#"{"ph":"#);
    push_str(line, ph);
    line.extend_from_slice(br#","pid":"#);
    push_u64(line, PID_SWEEP);
    line.extend_from_slice(br#","tid":"#);
    push_u64(line, item.worker as u64 + 1);
    line.extend_from_slice(br#","ts":"#);
    push_u64(line, ts);
}

fn sweep_item_args(line: &mut Vec<u8>, item: &SweepItem<'_>) {
    line.extend_from_slice(br#","args":{"cell":"#);
    push_str(line, item.cell);
    line.extend_from_slice(br#","workload":"#);
    push_str(line, item.workload);
    line.extend_from_slice(br#","status":"#);
    push_str(line, item.status);
    line.extend_from_slice(b"}}");
}

/// Appends a sweep item served from the cache, as an instant marker.
pub(crate) fn cache_hit_marker(line: &mut Vec<u8>, item: &SweepItem<'_>) {
    sweep_lane(line, "i", item, item.start_us);
    line.extend_from_slice(br#","s":"t","name":"cache hit""#);
    sweep_item_args(line, item);
}

/// Appends an executed sweep item as a span over `[start_us, end_us]`.
pub(crate) fn sweep_span(line: &mut Vec<u8>, item: &SweepItem<'_>) {
    sweep_lane(line, "X", item, item.start_us);
    line.extend_from_slice(br#","dur":"#);
    push_u64(line, item.end_us.saturating_sub(item.start_us));
    line.extend_from_slice(br#","cat":"sweep","name":"#);
    push_str(line, item.workload);
    sweep_item_args(line, item);
}

/// Appends the marker a non-`"ok"` sweep item drops at its end.
pub(crate) fn quarantine_marker(line: &mut Vec<u8>, item: &SweepItem<'_>) {
    sweep_lane(line, "i", item, item.end_us);
    line.extend_from_slice(br#","s":"t","name":"quarantine","args":{"cell":"#);
    push_str(line, item.cell);
    line.extend_from_slice(br#","status":"#);
    push_str(line, item.status);
    line.extend_from_slice(b"}}");
}

/// One finished sweep item, as rendered on a worker lane by
/// [`TimelineSink::sweep_item`].
#[derive(Debug, Clone, Copy)]
pub struct SweepItem<'a> {
    /// Zero-based worker index (lane `tid` is `worker + 1`).
    pub worker: usize,
    /// Item start, microseconds since the sweep began.
    pub start_us: u64,
    /// Item end; equal to `start_us` for cache hits.
    pub end_us: u64,
    /// Whether the result came from the cross-sweep cache.
    pub cached: bool,
    /// Canonical cell name.
    pub cell: &'a str,
    /// Workload name.
    pub workload: &'a str,
    /// Status label: `"ok"`, `"reject"`, `"panic"` or `"timeout"`.
    pub status: &'a str,
}

impl<W: Write> TraceSink for TimelineSink<W> {
    fn phase(&mut self, record: &PhaseRecord<'_>) {
        if !self.compile_meta {
            self.compile_meta = true;
            self.emit(|line| meta(line, PID_COMPILE, 0, "process_name", "compile"));
            self.emit(|line| meta(line, PID_COMPILE, 1, "thread_name", "phases"));
        }
        let ts_us = self.compile_us;
        self.emit(|line| phase_span(line, record, ts_us));
        self.compile_us = self.compile_us.saturating_add(phase_dur_us(record));
    }

    fn issue(&mut self, event: &IssueEvent) {
        self.ensure_pipeline_meta();
        if event.issue != self.cur_cycle {
            self.advance_cycle(event.issue);
        }
        self.issued_in_cycle += 1;
        self.inflight.push(event.drain);
        let tid = self.lane_of(event.class);
        self.emit(|line| issue_span(line, event, tid));
    }

    fn block_replay(&mut self, event: &BlockReplayEvent) {
        self.ensure_pipeline_meta();
        // Instant marker on the dedicated "block cache" lane at the block's
        // entry cycle — entry cycles are nondecreasing, so the lane keeps
        // the validator's monotone-timestamp invariant.
        let tid = self.lanes.len() as u64 + 2;
        self.emit(|line| replay_marker(line, event, tid));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::validate_timeline;

    fn issue(pc: u64, class: &'static str, at: u64, drain: u64) -> IssueEvent {
        IssueEvent {
            func: 0,
            pc,
            class,
            issue: at,
            complete: drain,
            drain,
            wait: 0,
            cause: None,
        }
    }

    fn render<F: FnOnce(&mut TimelineSink<Vec<u8>>)>(f: F) -> String {
        let mut sink = TimelineSink::new(Vec::new());
        f(&mut sink);
        String::from_utf8(sink.finish().expect("no write errors")).unwrap()
    }

    #[test]
    fn empty_timeline_is_a_valid_document() {
        let text = render(|_| {});
        let report = validate_timeline(&text).expect("valid");
        assert_eq!(report.events, 0);
    }

    #[test]
    fn phases_become_contiguous_compile_spans() {
        let text = render(|sink| {
            sink.phase(&PhaseRecord {
                name: "parse",
                wall_ns: 2500,
                counters: &[("source_bytes", 64)],
            });
            sink.phase(&PhaseRecord {
                name: "schedule",
                wall_ns: 4000,
                counters: &[],
            });
        });
        assert!(text.contains(r#""name":"parse""#));
        assert!(text.contains(r#""ts":2,"dur":4,"cat":"compile","name":"schedule""#));
        assert!(text.contains(r#""source_bytes":64"#));
        validate_timeline(&text).expect("valid");
    }

    #[test]
    fn issues_land_on_their_functional_unit_lane() {
        let mut sink = TimelineSink::new(Vec::new()).with_pipeline_lanes(
            vec!["integer".to_string(), "memory".to_string()],
            vec![("intadd".to_string(), 0), ("load".to_string(), 1)],
        );
        sink.issue(&issue(0, "load", 0, 2));
        sink.issue(&issue(1, "intadd", 0, 1));
        sink.issue(&issue(2, "fpdiv", 2, 9));
        let text = String::from_utf8(sink.finish().unwrap()).unwrap();
        validate_timeline(&text).expect("valid");
        // load → memory lane (tid 2), intadd → integer lane (tid 1),
        // unmapped fpdiv → other lane (tid 3).
        assert!(text.contains(r#""tid":2,"ts":0,"dur":2,"cat":"pipeline","name":"load""#));
        assert!(text.contains(r#""tid":1,"ts":0,"dur":1,"cat":"pipeline","name":"intadd""#));
        assert!(text.contains(r#""tid":3,"ts":2,"dur":7,"cat":"pipeline","name":"fpdiv""#));
        // The cycle advance emitted ipc for cycle 0 and inflight at cycle 2.
        assert!(text.contains(r#""ts":0,"name":"ipc","args":{"value":2}"#));
        assert!(text.contains(r#""ts":2,"name":"inflight","args":{"value":0}"#));
        // The final ipc sample covers the last cycle.
        assert!(text.contains(r#""ts":2,"name":"ipc","args":{"value":1}"#));
    }

    #[test]
    fn full_document_round_trips_through_the_validator() {
        let text = render(|sink| {
            sink.phase(&PhaseRecord {
                name: "parse",
                wall_ns: 1000,
                counters: &[],
            });
            sink.issue(&issue(0, "load", 0, 2));
            sink.issue(&issue(1, "intadd", 1, 2));
            let item = |worker, start_us, end_us, cached, cell, status| SweepItem {
                worker,
                start_us,
                end_us,
                cached,
                cell,
                workload: "whet",
                status,
            };
            sink.sweep_item(&item(0, 10, 250, false, "issue=2", "ok"));
            sink.sweep_item(&item(1, 12, 12, true, "issue=4", "ok"));
            sink.sweep_item(&item(0, 260, 300, false, "issue=8", "timeout"));
        });
        let report = validate_timeline(&text).expect("valid");
        assert!(report.events >= 6);
        assert!(report.lanes >= 4);
        assert!(text.contains(r#""name":"cache hit""#));
        assert!(text.contains(r#""name":"quarantine""#));
    }

    #[test]
    fn write_errors_are_sticky_and_surface_at_finish() {
        struct Failing;
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = TimelineSink::new(Failing);
        sink.issue(&issue(0, "load", 0, 2));
        sink.issue(&issue(1, "load", 1, 3)); // quiet after the first error
        assert!(sink.finish().is_err());
    }
}
