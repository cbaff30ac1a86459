//! A small hand-rolled JSON reader — the inverse of [`crate::json`].
//!
//! The sweep engine re-reads its own append-only checkpoints after a kill,
//! and the result cache re-reads records written by earlier runs, so the
//! workspace needs a parser for exactly the JSON its writer emits (plus
//! ordinary whitespace tolerance). It is a straightforward recursive-descent
//! parser into the same ordered [`JsonValue`] model; numbers come back as
//! `UInt` when non-negative and integral, `Int` when negative and integral,
//! and `Float` otherwise, so `parse(render(v))` re-renders byte-identically
//! — the property the per-record checksum scheme relies on.

use crate::json::JsonValue;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;

/// Where and why a parse failed. Offsets are byte offsets into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset of the offending character (or end of input).
    pub offset: usize,
    /// What the parser expected or found.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "json parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for JsonParseError {}

/// Parses one complete JSON value; trailing non-whitespace is an error.
///
/// # Errors
///
/// Returns a [`JsonParseError`] locating the first malformed byte.
pub fn parse_json(text: &str) -> Result<JsonValue, JsonParseError> {
    let mut parser = Parser::new(text);
    parser.skip_ws();
    let value = parser.value()?;
    parser.end()?;
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            at: 0,
        }
    }

    /// Accepts trailing whitespace and nothing else.
    fn end(&mut self) -> Result<(), JsonParseError> {
        self.skip_ws();
        if self.at != self.bytes.len() {
            return Err(self.error("trailing characters after value"));
        }
        Ok(())
    }

    fn error(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError {
            offset: self.at,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, expected: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(expected) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.error(format!("expected '{}'", expected as char)))
        }
    }

    fn eat_keyword(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            Ok(value)
        } else {
            Err(self.error(format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?.into_owned())),
            Some(b't') => self.eat_keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.eat_keyword("false", JsonValue::Bool(false)),
            Some(b'n') => self.eat_keyword("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.error(format!("unexpected character '{}'", c as char))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        let mut pairs = Vec::new();
        self.object_entries(|parser, key| {
            pairs.push((key.into_owned(), parser.value()?));
            Ok(())
        })?;
        Ok(JsonValue::Object(pairs))
    }

    /// Walks an object: for each key, `entry` must consume its value.
    fn object_entries(
        &mut self,
        mut entry: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), JsonParseError>,
    ) -> Result<(), JsonParseError> {
        self.eat(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            entry(self, key)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    return Ok(());
                }
                _ => return Err(self.error("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
        let mut items = Vec::new();
        self.array_walk(|parser, _| {
            items.push(parser.value()?);
            Ok(())
        })?;
        Ok(JsonValue::Array(items))
    }

    /// Walks an array: for each item (by index), `item` must consume it.
    fn array_walk(
        &mut self,
        mut item: impl FnMut(&mut Self, usize) -> Result<(), JsonParseError>,
    ) -> Result<(), JsonParseError> {
        self.eat(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            return Ok(());
        }
        for index in 0.. {
            self.skip_ws();
            item(self, index)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    break;
                }
                _ => return Err(self.error("expected ',' or ']' in array")),
            }
        }
        Ok(())
    }

    /// Reads a string, borrowed from the input when it has no escapes.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain bytes up to the next quote or backslash
            // as one slice. Both delimiters are ASCII, so the run ends on a
            // char boundary of the input (multi-byte UTF-8 is legal
            // unescaped in JSON strings).
            let start = self.at;
            let run = self.bytes[start..]
                .iter()
                .position(|&c| c == b'"' || c == b'\\')
                .unwrap_or(self.bytes.len() - start);
            self.at += run;
            let plain = &self.text[start..self.at];
            // Every escape appends a char, so an empty `out` means none
            // has been seen: the whole string is this one run.
            if out.is_empty() && self.peek() == Some(b'"') {
                self.at += 1;
                return Ok(Cow::Borrowed(plain));
            }
            out.push_str(plain);
            let Some(c) = self.peek() else {
                return Err(self.error("unterminated string"));
            };
            self.at += 1;
            if c == b'"' {
                return Ok(Cow::Owned(out));
            }
            let Some(escape) = self.peek() else {
                return Err(self.error("unterminated escape"));
            };
            self.at += 1;
            match escape {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => out.push(self.unicode_escape()?),
                _ => return Err(self.error("unknown escape")),
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonParseError> {
        let first = self.hex4()?;
        // Surrogate pair: 😀 style. The writer never emits
        // these (it escapes only control characters), but accept them.
        if (0xD800..0xDC00).contains(&first) {
            self.eat(b'\\')?;
            self.eat(b'u')?;
            let second = self.hex4()?;
            if !(0xDC00..0xE000).contains(&second) {
                return Err(self.error("invalid low surrogate"));
            }
            let code = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
            return char::from_u32(code).ok_or_else(|| self.error("invalid surrogate pair"));
        }
        char::from_u32(first).ok_or_else(|| self.error("invalid \\u escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let mut code = 0_u32;
        for _ in 0..4 {
            let Some(c) = self.peek() else {
                return Err(self.error("truncated \\u escape"));
            };
            let digit = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.error("non-hex digit in \\u escape"))?;
            code = code * 16 + digit;
            self.at += 1;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        let mut integral = true;
        if self.peek() == Some(b'.') {
            integral = false;
            self.at += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("expected digit after '.'"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.at += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            integral = false;
            self.at += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.at += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("expected digit in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.at += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.at]).expect("number bytes are ASCII");
        if integral {
            if let Ok(n) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(n));
            }
            if let Ok(n) = text.parse::<i64>() {
                return Ok(JsonValue::Int(n));
            }
        }
        text.parse::<f64>()
            .map(JsonValue::Float)
            .map_err(|_| JsonParseError {
                offset: start,
                message: format!("malformed number '{text}'"),
            })
    }
}

impl JsonValue {
    /// The object's pairs, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Looks up a field by key (first match) in an object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// The array's items, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A `u64` view: `UInt` directly, or a non-negative `Int`.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(n) => Some(*n),
            JsonValue::Int(n) => u64::try_from(*n).ok(),
            _ => None,
        }
    }

    /// An `f64` view of any numeric value.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::UInt(n) => Some(*n as f64),
            JsonValue::Int(n) => Some(*n as f64),
            JsonValue::Float(x) => Some(*x),
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Timeline validation
// ---------------------------------------------------------------------------

/// Summary of a validated `supersym.timeline/v1` document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelineReport {
    /// Non-metadata events (spans, counters, instants).
    pub events: usize,
    /// Distinct `(pid, tid)` lanes that carried events.
    pub lanes: usize,
}

/// Why a timeline document failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimelineError {
    /// The document is not well-formed JSON.
    Parse(JsonParseError),
    /// The document parsed but violates a `trace_event` invariant.
    Invalid(String),
}

impl fmt::Display for TimelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimelineError::Parse(error) => write!(f, "{error}"),
            TimelineError::Invalid(message) => write!(f, "invalid timeline: {message}"),
        }
    }
}

impl std::error::Error for TimelineError {}

/// Validates an emitted timeline file against the Chrome `trace_event`
/// invariants the workspace's emitter guarantees:
///
/// * the document is an object with `schema == "supersym.timeline/v1"`
///   and a `traceEvents` array;
/// * every event has a known single-character `ph` plus integral `pid`
///   and `tid`; non-metadata events carry an integral `ts` (and `X` a
///   `dur`);
/// * per `(pid, tid)` lane, `ts` is monotonically nondecreasing in file
///   order;
/// * `B`/`E` pairs nest per lane and every `B` is closed;
/// * `pid`/`tid` naming is stable: no lane is renamed, and every pid that
///   carries events has exactly one `process_name`.
///
/// The document is read in one pass: each event of `traceEvents` is
/// parsed, checked and dropped before the next, so memory stays bounded
/// by the largest event and the run time is linear in the document.
///
/// # Errors
///
/// [`TimelineError::Parse`] for malformed JSON, [`TimelineError::Invalid`]
/// (with the offending event's index) for the first violated invariant.
pub fn validate_timeline(text: &str) -> Result<TimelineReport, TimelineError> {
    let mut parser = Parser::new(text);
    // The first occurrence of each top-level key counts, as with
    // `JsonValue::get`; `traceEvents` is `Some(false)` when not an array.
    let mut schema: Option<Option<String>> = None;
    let mut trace_events: Option<bool> = None;
    let mut lanes = LaneChecker::default();
    // A violation does not stop the pass: a parse error later in the
    // document still takes precedence, as does a bad schema.
    let mut violation: Option<String> = None;
    parser.skip_ws();
    if parser.peek() == Some(b'{') {
        parser
            .object_entries(|parser, key| {
                if key == "traceEvents" && trace_events.is_none() && parser.peek() == Some(b'[') {
                    trace_events = Some(true);
                    return parser.array_walk(|parser, index| {
                        let event = EventFields::parse(parser)?;
                        if violation.is_none() {
                            violation = lanes
                                .event(event.as_ref())
                                .err()
                                .map(|message| format!("event {index}: {message}"));
                        }
                        Ok(())
                    });
                }
                let value = parser.value()?;
                match &*key {
                    "schema" if schema.is_none() => {
                        schema = Some(value.as_str().map(str::to_string));
                    }
                    "traceEvents" if trace_events.is_none() => trace_events = Some(false),
                    _ => {}
                }
                Ok(())
            })
            .map_err(TimelineError::Parse)?;
    } else {
        parser.value().map_err(TimelineError::Parse)?;
    }
    parser.end().map_err(TimelineError::Parse)?;
    let invalid = |message: String| Err(TimelineError::Invalid(message));
    let schema = schema.flatten();
    if schema.as_deref() != Some(crate::timeline::TIMELINE_SCHEMA) {
        return invalid(format!("schema is {:?}", schema.as_deref()));
    }
    if trace_events != Some(true) {
        return invalid("missing traceEvents array".to_string());
    }
    if let Some(message) = violation {
        return invalid(message);
    }
    lanes.finish().or_else(invalid)
}

/// The fields of one `traceEvents` entry that [`validate_timeline`]
/// checks: the first occurrence of each key, as `JsonValue::get` would
/// find it. Every other field is parsed (so malformed JSON still fails)
/// and dropped at once.
#[derive(Debug, Default)]
struct EventFields {
    ph: Option<JsonValue>,
    pid: Option<JsonValue>,
    tid: Option<JsonValue>,
    ts: Option<JsonValue>,
    dur: Option<JsonValue>,
    name: Option<JsonValue>,
    /// `name` inside the first `args`, when that is an object.
    args_name: Option<JsonValue>,
}

impl EventFields {
    /// Parses one event; `None` when it is not an object.
    fn parse(parser: &mut Parser<'_>) -> Result<Option<EventFields>, JsonParseError> {
        if parser.peek() != Some(b'{') {
            parser.value()?;
            return Ok(None);
        }
        let mut fields = EventFields::default();
        let mut args_seen = false;
        parser.object_entries(|parser, key| {
            let slot = match &*key {
                "ph" => &mut fields.ph,
                "pid" => &mut fields.pid,
                "tid" => &mut fields.tid,
                "ts" => &mut fields.ts,
                "dur" => &mut fields.dur,
                "name" => &mut fields.name,
                "args" if !args_seen => {
                    args_seen = true;
                    if parser.peek() != Some(b'{') {
                        return parser.value().map(drop);
                    }
                    let args_name = &mut fields.args_name;
                    return parser.object_entries(|parser, key| {
                        let value = parser.value()?;
                        if key == "name" && args_name.is_none() {
                            *args_name = Some(value);
                        }
                        Ok(())
                    });
                }
                _ => return parser.value().map(drop),
            };
            let value = parser.value()?;
            if slot.is_none() {
                *slot = Some(value);
            }
            Ok(())
        })?;
        Ok(Some(fields))
    }
}

/// The per-lane state [`validate_timeline`] carries from event to event.
#[derive(Debug, Default)]
struct LaneChecker {
    last_ts: HashMap<(u64, u64), u64>,
    open_spans: HashMap<(u64, u64), Vec<String>>,
    process_names: HashMap<u64, String>,
    thread_names: HashMap<(u64, u64), String>,
    counted: usize,
}

impl LaneChecker {
    /// Checks one event against the lanes' state so far; `None` is an
    /// event that is not an object.
    fn event(&mut self, event: Option<&EventFields>) -> Result<(), String> {
        let Some(event) = event else {
            return Err("not an object".to_string());
        };
        let Some(ph) = event.ph.as_ref().and_then(JsonValue::as_str) else {
            return Err("missing ph".to_string());
        };
        if !matches!(ph, "B" | "E" | "X" | "C" | "i" | "M") {
            return Err(format!("unknown ph `{ph}`"));
        }
        let Some(pid) = event.pid.as_ref().and_then(JsonValue::as_u64) else {
            return Err("missing integral pid".to_string());
        };
        let Some(tid) = event.tid.as_ref().and_then(JsonValue::as_u64) else {
            return Err("missing integral tid".to_string());
        };
        let lane = (pid, tid);
        let name = event.name.as_ref().and_then(JsonValue::as_str);
        if ph == "M" {
            let Some(arg_name) = event.args_name.as_ref().and_then(JsonValue::as_str) else {
                return Err("metadata event without args.name".to_string());
            };
            match name {
                Some("process_name") => {
                    if let Some(previous) = self.process_names.insert(pid, arg_name.to_string()) {
                        if previous != arg_name {
                            return Err(format!("pid {pid} renamed `{previous}` -> `{arg_name}`"));
                        }
                    }
                }
                Some("thread_name") => {
                    if let Some(previous) = self.thread_names.insert(lane, arg_name.to_string()) {
                        if previous != arg_name {
                            return Err(format!(
                                "lane {pid}:{tid} renamed `{previous}` -> `{arg_name}`"
                            ));
                        }
                    }
                }
                _ => {}
            }
            return Ok(());
        }
        self.counted += 1;
        let Some(ts) = event.ts.as_ref().and_then(JsonValue::as_u64) else {
            return Err("missing integral ts".to_string());
        };
        if let Some(previous) = self.last_ts.insert(lane, ts) {
            if ts < previous {
                return Err(format!(
                    "lane {pid}:{tid} ts went backwards ({previous} -> {ts})"
                ));
            }
        }
        match ph {
            "X" if event.dur.as_ref().and_then(JsonValue::as_u64).is_none() => {
                Err("X event without integral dur".to_string())
            }
            "B" => {
                self.open_spans
                    .entry(lane)
                    .or_default()
                    .push(name.unwrap_or("").to_string());
                Ok(())
            }
            // The guard pops the span either way; only a pop from an
            // empty stack (no matching B) takes the arm.
            "E" if self.open_spans.entry(lane).or_default().pop().is_none() => {
                Err(format!("lane {pid}:{tid} E without matching B"))
            }
            _ => Ok(()),
        }
    }

    /// The checks that need the whole document: every `B` closed, every
    /// pid with events named.
    fn finish(self) -> Result<TimelineReport, String> {
        for ((pid, tid), stack) in &self.open_spans {
            if let Some(name) = stack.last() {
                return Err(format!("lane {pid}:{tid} unclosed B span `{name}`"));
            }
        }
        for &(pid, _) in self.last_ts.keys() {
            if !self.process_names.contains_key(&pid) {
                return Err(format!("pid {pid} has events but no process_name"));
            }
        }
        Ok(TimelineReport {
            events: self.counted,
            lanes: self.last_ts.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonObject;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse_json("null").unwrap(), JsonValue::Null);
        assert_eq!(parse_json("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse_json("false").unwrap(), JsonValue::Bool(false));
        assert_eq!(parse_json("42").unwrap(), JsonValue::UInt(42));
        assert_eq!(parse_json("-7").unwrap(), JsonValue::Int(-7));
        assert_eq!(parse_json("0.5").unwrap(), JsonValue::Float(0.5));
        assert_eq!(parse_json("1e3").unwrap(), JsonValue::Float(1000.0));
        assert_eq!(parse_json("\"hi\"").unwrap(), JsonValue::str("hi"));
    }

    #[test]
    fn parses_nested_structures() {
        let value = parse_json(r#"{"a":[1,{"b":null}],"c":"x"}"#).unwrap();
        assert_eq!(value.get("c").and_then(JsonValue::as_str), Some("x"));
        let items = value.get("a").and_then(JsonValue::as_array).unwrap();
        assert_eq!(items[0].as_u64(), Some(1));
        assert_eq!(items[1].get("b"), Some(&JsonValue::Null));
    }

    #[test]
    fn object_order_is_preserved() {
        let value = parse_json(r#"{"z":1,"a":2}"#).unwrap();
        let keys: Vec<&str> = value
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a"]);
    }

    #[test]
    fn string_escapes_round_trip() {
        let original = JsonValue::str("a\"b\\c\nd\te\u{1}f\u{263A}");
        let rendered = original.to_string();
        assert_eq!(parse_json(&rendered).unwrap(), original);
    }

    #[test]
    fn strings_mixing_multibyte_utf8_and_escapes_parse() {
        // Plain runs holding 2-, 3- and 4-byte characters, split by
        // escapes at the start, middle and end of the string.
        let text = r#""\tdéjà\"vu\\→\n😀\u0001ü\/z\u00e9""#;
        assert_eq!(
            parse_json(text).unwrap(),
            JsonValue::str("\tdéjà\"vu\\→\n😀\u{1}ü/zé")
        );
        // And the writer's own rendering of such a string round-trips.
        let original = JsonValue::str("ß\"∑\\😀\r\u{1f}ok");
        assert_eq!(parse_json(&original.to_string()).unwrap(), original);
    }

    fn verdict(text: &str) -> Result<TimelineReport, String> {
        validate_timeline(text).map_err(|error| match error {
            TimelineError::Parse(_) => "parse".to_string(),
            TimelineError::Invalid(message) => message,
        })
    }

    const COMPILE_META: &str =
        r#"{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{"name":"compile"}}"#;

    #[test]
    fn streaming_validation_keeps_the_document_verdict_order() {
        let doc = |events: &str, tail: &str| {
            format!(r#"{{"schema":"supersym.timeline/v1","traceEvents":[{events}]{tail}}}"#)
        };
        let backwards = format!(
            r#"{COMPILE_META},{{"ph":"X","pid":1,"tid":1,"ts":9,"dur":1}},{{"ph":"X","pid":1,"tid":1,"ts":3,"dur":1}}"#
        );
        assert_eq!(
            verdict(&doc(&backwards, "")),
            Err("event 2: lane 1:1 ts went backwards (9 -> 3)".to_string())
        );
        // Malformed JSON after the violation is still a parse error.
        assert_eq!(
            verdict(&doc(&backwards, r#","x":tru"#)),
            Err("parse".to_string())
        );
        // A bad schema after the events outranks the violation.
        assert_eq!(
            verdict(&format!(r#"{{"traceEvents":[{backwards}],"schema":"v0"}}"#)),
            Err(r#"schema is Some("v0")"#.to_string())
        );
        let late_schema = format!(
            r#"{{"traceEvents":[{COMPILE_META},{{"ph":"i","pid":1,"tid":1,"ts":0}}],"schema":"supersym.timeline/v1"}}"#
        );
        assert_eq!(
            verdict(&late_schema),
            Ok(TimelineReport {
                events: 1,
                lanes: 1
            })
        );
        assert_eq!(
            verdict(r#"{"schema":"x","traceEvents":[]}"#),
            Err(r#"schema is Some("x")"#.to_string())
        );
        assert_eq!(
            verdict(r#"{"schema":"supersym.timeline/v1","traceEvents":{}}"#),
            Err("missing traceEvents array".to_string())
        );
        assert_eq!(verdict("[1]"), Err("schema is None".to_string()));
    }

    #[test]
    fn streaming_validation_reads_the_first_occurrence_of_each_field() {
        let doc = |events: &str| {
            format!(r#"{{"schema":"supersym.timeline/v1","traceEvents":[{events}]}}"#)
        };
        // The first `ph` is not a string: missing, whatever follows.
        assert_eq!(
            verdict(&doc(r#"{"ph":1,"ph":"X","pid":1,"tid":1,"ts":0,"dur":1}"#)),
            Err("event 0: missing ph".to_string())
        );
        // The first `args` names the process; a second one is ignored.
        let renamed = format!(
            r#"{COMPILE_META},{{"ph":"M","pid":1,"tid":0,"name":"process_name","args":{{"name":"other"}},"args":{{"name":"compile"}}}}"#
        );
        assert_eq!(
            verdict(&doc(&renamed)),
            Err("event 1: pid 1 renamed `compile` -> `other`".to_string())
        );
        assert_eq!(
            verdict(&doc(r#"{"ph":"M","pid":1,"tid":0,"args":[]}"#)),
            Err("event 0: metadata event without args.name".to_string())
        );
        assert_eq!(
            verdict(&doc(r#"7"#)),
            Err("event 0: not an object".to_string())
        );
        assert_eq!(
            verdict(&doc(r#"{"ph":"B","pid":1,"tid":1,"ts":0,"name":"a\"b"}"#)),
            Err("lane 1:1 unclosed B span `a\"b`".to_string())
        );
    }

    #[test]
    fn surrogate_pairs_decode() {
        assert_eq!(parse_json(r#""😀""#).unwrap(), JsonValue::str("\u{1F600}"));
    }

    #[test]
    fn render_parse_render_is_stable() {
        // The checksum scheme re-renders parsed records; the second render
        // must be byte-identical to the first even for integral floats
        // (Float(2.0) renders "2", re-parses as UInt(2), renders "2").
        let value = JsonObject::new()
            .field("name", JsonValue::str("cell-0"))
            .field("count", JsonValue::UInt(42))
            .field("delta", JsonValue::Int(-3))
            .field("ilp", JsonValue::Float(2.5))
            .field("speedup", JsonValue::Float(2.0))
            .field("flag", JsonValue::Bool(true))
            .field("none", JsonValue::Null)
            .field(
                "list",
                JsonValue::Array(vec![JsonValue::UInt(1), JsonValue::str("x")]),
            )
            .build();
        let first = value.to_string();
        let reparsed = parse_json(&first).unwrap();
        assert_eq!(reparsed.to_string(), first);
    }

    #[test]
    fn truncated_input_is_an_error() {
        for text in [
            "{\"a\":1",
            "[1,2",
            "\"unterminated",
            "{\"a\"",
            "tru",
            "{\"ok\":tr",
            "12.",
            "",
        ] {
            assert!(parse_json(text).is_err(), "accepted {text:?}");
        }
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        assert!(parse_json("1 2").is_err());
        assert!(parse_json("{} x").is_err());
    }

    #[test]
    fn whitespace_is_tolerated() {
        let value = parse_json(" {\n  \"a\" : [ 1 , 2 ]\n}\n").unwrap();
        assert_eq!(
            value.get("a").and_then(JsonValue::as_array).unwrap().len(),
            2
        );
    }

    #[test]
    fn huge_integers_become_floats_or_ints() {
        assert_eq!(
            parse_json("18446744073709551615").unwrap(),
            JsonValue::UInt(u64::MAX)
        );
        assert_eq!(
            parse_json("-9223372036854775808").unwrap(),
            JsonValue::Int(i64::MIN)
        );
    }
}
