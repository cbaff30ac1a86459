//! Differential test of the streaming event writer.
//!
//! The sinks render each event straight to bytes. These tests hold them to
//! the document model: for seeded random events of every kind, the bytes
//! the sink's renderer appends must equal the compact [`JsonValue`]
//! rendering of the same event built as a [`JsonObject`] tree. Strings
//! draw on quotes, backslashes, control characters and non-ASCII text;
//! numbers include `0`, digit-count boundaries and `u64::MAX`.

use crate::json::{JsonObject, JsonValue};
use crate::sink::{clamp_u128, issue_line, phase_line, BlockReplayEvent, IssueEvent, PhaseRecord};
use crate::timeline::{
    cache_hit_marker, counter, issue_span, meta, phase_span, quarantine_marker, replay_marker,
    sweep_span, SweepItem, PID_COMPILE, PID_SIMULATE, PID_SWEEP,
};
use supersym_rng::SplitMix64;

/// Events generated per kind.
const CASES: usize = 500;

/// Characters strings are drawn from: plain ASCII, the two characters
/// JSON escapes by name, the control characters with short escapes, ones
/// that need `\u00XX`, DEL (not escaped), and 2-, 3- and 4-byte UTF-8.
const CHARS: &[char] = &[
    'a', 'Z', '0', ' ', '/', ':', ',', '{', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}',
    '\u{c}', '\u{1f}', '\u{7f}', 'é', 'ß', '→', '∑', '😀',
];

fn string(rng: &mut SplitMix64) -> String {
    (0..rng.below(10)).map(|_| *rng.pick(CHARS)).collect()
}

/// A string for a `&'static str` field (instruction classes, stall
/// causes). Each test leaks a few thousand short strings.
fn static_string(rng: &mut SplitMix64) -> &'static str {
    Box::leak(string(rng).into_boxed_str())
}

fn number(rng: &mut SplitMix64) -> u64 {
    match rng.below(6) {
        0 => 0,
        1 => u64::MAX,
        2 => 10_u64.pow(rng.below(20) as u32),
        3 => 10_u64.pow(rng.below(20) as u32) - 1,
        4 => rng.below(1000) as u64,
        _ => rng.next_u64(),
    }
}

fn issue_event(rng: &mut SplitMix64) -> IssueEvent {
    IssueEvent {
        func: number(rng) as u32,
        pc: number(rng),
        class: static_string(rng),
        issue: number(rng),
        complete: number(rng),
        drain: number(rng),
        wait: number(rng),
        cause: rng.coin().then(|| static_string(rng)),
    }
}

fn counters(rng: &mut SplitMix64) -> Vec<(String, u64)> {
    (0..rng.below(5))
        .map(|_| (string(rng), number(rng)))
        .collect()
}

/// Asserts `render` appends exactly `expected`'s compact rendering.
fn assert_renders(expected: &JsonValue, suffix: &str, render: impl FnOnce(&mut Vec<u8>)) {
    // A non-empty buffer checks that renderers append, not overwrite.
    let mut line = b"prefix".to_vec();
    render(&mut line);
    let got = String::from_utf8(line).expect("rendered events are UTF-8");
    assert_eq!(got, format!("prefix{expected}{suffix}"));
}

fn uint(n: u64) -> JsonValue {
    JsonValue::UInt(n)
}

fn counters_object(counters: &[(&str, u64)]) -> JsonValue {
    JsonValue::Object(
        counters
            .iter()
            .map(|&(key, value)| (key.to_string(), uint(value)))
            .collect(),
    )
}

#[test]
fn issue_lines_match_the_document_model() {
    let mut rng = SplitMix64::new(0x15_5e);
    for _ in 0..CASES {
        let event = issue_event(&mut rng);
        let cause = event.cause.map_or(JsonValue::Null, JsonValue::str);
        let expected = JsonObject::new()
            .field("event", JsonValue::str("issue"))
            .field("func", uint(u64::from(event.func)))
            .field("pc", uint(event.pc))
            .field("class", JsonValue::str(event.class))
            .field("issue", uint(event.issue))
            .field("complete", uint(event.complete))
            .field("drain", uint(event.drain))
            .field("wait", uint(event.wait))
            .field("cause", cause)
            .build();
        assert_renders(&expected, "\n", |line| issue_line(line, &event));
    }
}

#[test]
fn phase_lines_and_spans_match_the_document_model() {
    let mut rng = SplitMix64::new(0xf4_5e);
    for _ in 0..CASES {
        let name = string(&mut rng);
        let owned = counters(&mut rng);
        let borrowed: Vec<(&str, u64)> = owned.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        let wall_ns = if rng.coin() {
            u128::from(number(&mut rng))
        } else {
            u128::from(number(&mut rng)) * 1_000_000
        };
        let record = PhaseRecord {
            name: &name,
            wall_ns,
            counters: &borrowed,
        };
        let line = JsonObject::new()
            .field("event", JsonValue::str("phase"))
            .field("name", JsonValue::str(record.name))
            .field("wall_ns", uint(clamp_u128(record.wall_ns)))
            .field("counters", counters_object(record.counters))
            .build();
        assert_renders(&line, "\n", |out| phase_line(out, &record));

        let ts_us = number(&mut rng);
        let span = JsonObject::new()
            .field("ph", JsonValue::str("X"))
            .field("pid", uint(PID_COMPILE))
            .field("tid", uint(1))
            .field("ts", uint(ts_us))
            .field("dur", uint(clamp_u128(record.wall_ns / 1000)))
            .field("cat", JsonValue::str("compile"))
            .field("name", JsonValue::str(record.name))
            .field("args", counters_object(record.counters))
            .build();
        assert_renders(&span, "", |out| phase_span(out, &record, ts_us));
    }
}

#[test]
fn issue_spans_and_counters_match_the_document_model() {
    let mut rng = SplitMix64::new(0x5_9a7);
    for _ in 0..CASES {
        let event = issue_event(&mut rng);
        let tid = number(&mut rng);
        let mut args = JsonObject::new()
            .field("pc", uint(event.pc))
            .field("wait", uint(event.wait));
        if let Some(cause) = event.cause {
            args = args.field("cause", JsonValue::str(cause));
        }
        let span = JsonObject::new()
            .field("ph", JsonValue::str("X"))
            .field("pid", uint(PID_SIMULATE))
            .field("tid", uint(tid))
            .field("ts", uint(event.issue))
            .field("dur", uint(event.drain.saturating_sub(event.issue).max(1)))
            .field("cat", JsonValue::str("pipeline"))
            .field("name", JsonValue::str(event.class))
            .field("args", args.build())
            .build();
        assert_renders(&span, "", |line| issue_span(line, &event, tid));

        let (ts, name, value) = (number(&mut rng), string(&mut rng), number(&mut rng));
        let sample = JsonObject::new()
            .field("ph", JsonValue::str("C"))
            .field("pid", uint(PID_SIMULATE))
            .field("tid", uint(0))
            .field("ts", uint(ts))
            .field("name", JsonValue::str(&name))
            .field(
                "args",
                JsonObject::new().field("value", uint(value)).build(),
            )
            .build();
        assert_renders(&sample, "", |line| counter(line, ts, &name, value));

        let (pid, kind, lane) = (number(&mut rng), string(&mut rng), string(&mut rng));
        let metadata = JsonObject::new()
            .field("ph", JsonValue::str("M"))
            .field("pid", uint(pid))
            .field("tid", uint(tid))
            .field("name", JsonValue::str(&kind))
            .field(
                "args",
                JsonObject::new()
                    .field("name", JsonValue::str(&lane))
                    .build(),
            )
            .build();
        assert_renders(&metadata, "", |line| meta(line, pid, tid, &kind, &lane));
    }
}

#[test]
fn block_replay_markers_match_the_document_model() {
    let mut rng = SplitMix64::new(0xb10c);
    for _ in 0..CASES {
        let event = BlockReplayEvent {
            func: number(&mut rng) as u32,
            pc: number(&mut rng),
            cycle: number(&mut rng),
            instructions: number(&mut rng) as u32,
            hit: rng.coin(),
        };
        let tid = number(&mut rng);
        let marker = JsonObject::new()
            .field("ph", JsonValue::str("i"))
            .field("pid", uint(PID_SIMULATE))
            .field("tid", uint(tid))
            .field("ts", uint(event.cycle))
            .field("s", JsonValue::str("t"))
            .field(
                "name",
                JsonValue::str(if event.hit { "replay" } else { "fallback" }),
            )
            .field(
                "args",
                JsonObject::new()
                    .field("func", uint(u64::from(event.func)))
                    .field("pc", uint(event.pc))
                    .field("instructions", uint(u64::from(event.instructions)))
                    .build(),
            )
            .build();
        assert_renders(&marker, "", |line| replay_marker(line, &event, tid));
    }
}

#[test]
fn sweep_items_match_the_document_model() {
    let mut rng = SplitMix64::new(0x5_eee9);
    for _ in 0..CASES {
        let (cell, workload) = (string(&mut rng), string(&mut rng));
        let status = if rng.coin() {
            "ok".to_string()
        } else {
            string(&mut rng)
        };
        let item = SweepItem {
            worker: rng.below(64),
            start_us: number(&mut rng),
            end_us: number(&mut rng),
            cached: rng.coin(),
            cell: &cell,
            workload: &workload,
            status: &status,
        };
        let tid = uint(item.worker as u64 + 1);
        let item_args = JsonObject::new()
            .field("cell", JsonValue::str(item.cell))
            .field("workload", JsonValue::str(item.workload))
            .field("status", JsonValue::str(item.status))
            .build();
        let cache_hit = JsonObject::new()
            .field("ph", JsonValue::str("i"))
            .field("pid", uint(PID_SWEEP))
            .field("tid", tid.clone())
            .field("ts", uint(item.start_us))
            .field("s", JsonValue::str("t"))
            .field("name", JsonValue::str("cache hit"))
            .field("args", item_args.clone())
            .build();
        assert_renders(&cache_hit, "", |line| cache_hit_marker(line, &item));
        let span = JsonObject::new()
            .field("ph", JsonValue::str("X"))
            .field("pid", uint(PID_SWEEP))
            .field("tid", tid.clone())
            .field("ts", uint(item.start_us))
            .field("dur", uint(item.end_us.saturating_sub(item.start_us)))
            .field("cat", JsonValue::str("sweep"))
            .field("name", JsonValue::str(item.workload))
            .field("args", item_args)
            .build();
        assert_renders(&span, "", |line| sweep_span(line, &item));
        let quarantine = JsonObject::new()
            .field("ph", JsonValue::str("i"))
            .field("pid", uint(PID_SWEEP))
            .field("tid", tid)
            .field("ts", uint(item.end_us))
            .field("s", JsonValue::str("t"))
            .field("name", JsonValue::str("quarantine"))
            .field(
                "args",
                JsonObject::new()
                    .field("cell", JsonValue::str(item.cell))
                    .field("status", JsonValue::str(item.status))
                    .build(),
            )
            .build();
        assert_renders(&quarantine, "", |line| quarantine_marker(line, &item));
    }
}
