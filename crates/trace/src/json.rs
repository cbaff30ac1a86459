//! A small hand-rolled JSON writer.
//!
//! The workspace builds offline, so there is no serde; the telemetry layer
//! needs only *emission*, and only of values it constructs itself, so a tiny
//! ordered document model with a `Display` renderer is enough. Objects
//! preserve insertion order, which is what makes `titalc profile --json`
//! byte-stable enough for golden-file tests.
//!
//! The streaming sinks do not build that model per event. They render each
//! event straight into a reusable byte buffer — fixed fragments as byte
//! literals, values through [`push_u64`] and [`push_str`] — and send it
//! with one `write_all` through [`EventWriter`]. [`JsonValue`] renders
//! through the same two helpers, so both paths produce the same bytes for
//! the same object.

use std::fmt;
use std::io::{self, Write};

/// A JSON value. Objects keep their keys in insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (cycle counts, sizes).
    UInt(u64),
    /// A signed integer.
    Int(i64),
    /// A finite float; non-finite values render as `null` (JSON has no
    /// NaN/Infinity).
    Float(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object: ordered key/value pairs.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Builds a string value.
    pub fn str(s: impl Into<String>) -> JsonValue {
        JsonValue::Str(s.into())
    }

    /// Renders with two-space indentation (for human-facing reports).
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = Vec::new();
        self.render(&mut out, Some(0));
        out.push(b'\n');
        String::from_utf8(out).expect("rendered JSON is UTF-8")
    }

    fn render(&self, out: &mut Vec<u8>, indent: Option<usize>) {
        match self {
            JsonValue::Null => out.extend_from_slice(b"null"),
            JsonValue::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
            JsonValue::UInt(n) => push_u64(out, *n),
            JsonValue::Int(n) => out.extend_from_slice(n.to_string().as_bytes()),
            JsonValue::Float(x) if x.is_finite() => {
                // Rust's shortest-roundtrip float formatting is
                // deterministic; integral values print without a dot,
                // which is still valid JSON.
                out.extend_from_slice(x.to_string().as_bytes());
            }
            JsonValue::Float(_) => out.extend_from_slice(b"null"),
            JsonValue::Str(s) => push_str(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.extend_from_slice(b"[]");
                    return;
                }
                out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    newline_indent(out, indent.map(|d| d + 1));
                    item.render(out, indent.map(|d| d + 1));
                }
                newline_indent(out, indent);
                out.push(b']');
            }
            JsonValue::Object(pairs) => {
                if pairs.is_empty() {
                    out.extend_from_slice(b"{}");
                    return;
                }
                out.push(b'{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    newline_indent(out, indent.map(|d| d + 1));
                    push_str(out, key);
                    out.push(b':');
                    if indent.is_some() {
                        out.push(b' ');
                    }
                    value.render(out, indent.map(|d| d + 1));
                }
                newline_indent(out, indent);
                out.push(b'}');
            }
        }
    }
}

impl fmt::Display for JsonValue {
    /// Compact (single-line) rendering — the JSON-lines form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = Vec::new();
        self.render(&mut out, None);
        f.write_str(std::str::from_utf8(&out).expect("rendered JSON is UTF-8"))
    }
}

fn newline_indent(out: &mut Vec<u8>, indent: Option<usize>) {
    if let Some(depth) = indent {
        out.push(b'\n');
        for _ in 0..depth {
            out.extend_from_slice(b"  ");
        }
    }
}

/// The two-digit decimal strings `00` to `99`, concatenated.
const DIGIT_PAIRS: &[u8; 200] = b"00010203040506070809101112131415161718192021222324252627282930313233343536373839404142434445464748495051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899";

/// Appends `n` in decimal, two digits at a time: no `format!` on the
/// streaming sinks' hot path, which writes several numbers per event.
#[inline]
pub(crate) fn push_u64(out: &mut Vec<u8>, mut n: u64) {
    let len = n.checked_ilog10().map_or(1, |log| log as usize + 1);
    let mut digits = [0; 20];
    let mut at = len;
    while n >= 10 {
        let pair = 2 * (n % 100) as usize;
        n /= 100;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if at == 1 {
        digits[0] = b'0' + n as u8;
    }
    // Appending the whole fixed-size buffer and cutting it back is a
    // constant-length copy the compiler inlines; a `len`-byte copy would
    // be a `memcpy` call, which costs more than the digits.
    let end = out.len() + len;
    out.extend_from_slice(&digits);
    out.truncate(end);
}

/// Appends `s` as a quoted JSON string, escaping quotes, backslashes and
/// control characters.
pub fn escape_into(s: &str, out: &mut String) {
    let mut bytes = Vec::with_capacity(s.len() + 2);
    push_str(&mut bytes, s);
    out.push_str(std::str::from_utf8(&bytes).expect("escaped JSON is UTF-8"));
}

/// [`escape_into`] for a byte buffer: the one string encoder of both the
/// document model and the streaming sinks. Strings with nothing to escape
/// (nearly every value the sinks write) are copied whole.
#[inline]
pub(crate) fn push_str(out: &mut Vec<u8>, s: &str) {
    if s.bytes()
        .any(|byte| byte == b'"' || byte == b'\\' || byte < 0x20)
    {
        push_escaped(out, s);
    } else {
        out.push(b'"');
        out.extend_from_slice(s.as_bytes());
        out.push(b'"');
    }
}

/// The slow path of [`push_str`]: runs of bytes that need no escaping are
/// copied as one slice each, between the escape sequences of the bytes
/// that do. Every escaped byte is ASCII, so the output stays UTF-8.
#[cold]
fn push_escaped(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    let mut unicode = *b"\\u0000";
    let mut run = 0;
    out.push(b'"');
    for (at, &byte) in bytes.iter().enumerate() {
        let escaped: &[u8] = match byte {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0..=0x1f => {
                unicode[4] = HEX[usize::from(byte >> 4)];
                unicode[5] = HEX[usize::from(byte & 0xf)];
                &unicode
            }
            _ => continue,
        };
        out.extend_from_slice(&bytes[run..at]);
        out.extend_from_slice(escaped);
        run = at + 1;
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

/// Appends named counters as one JSON object.
pub(crate) fn push_counters(line: &mut Vec<u8>, counters: &[(&str, u64)]) {
    line.push(b'{');
    for (index, &(key, value)) in counters.iter().enumerate() {
        if index > 0 {
            line.push(b',');
        }
        push_str(line, key);
        line.push(b':');
        push_u64(line, value);
    }
    line.push(b'}');
}

/// Sends rendered events to a writer, one `write_all` per event from one
/// reusable line buffer, so a warmed-up stream allocates nothing per
/// event. Write errors are sticky: the first one is kept, later events
/// are dropped, and [`EventWriter::finish`] returns it.
#[derive(Debug)]
pub(crate) struct EventWriter<W: Write> {
    out: W,
    line: Vec<u8>,
    error: Option<io::Error>,
}

impl<W: Write> EventWriter<W> {
    pub(crate) fn new(out: W) -> Self {
        EventWriter {
            out,
            line: Vec::new(),
            error: None,
        }
    }

    /// Renders one event's bytes with `render` and writes them. Returns
    /// whether they were written: `false` once any write has failed.
    pub(crate) fn emit(&mut self, render: impl FnOnce(&mut Vec<u8>)) -> bool {
        if self.error.is_some() {
            return false;
        }
        self.line.clear();
        render(&mut self.line);
        match self.out.write_all(&self.line) {
            Ok(()) => true,
            Err(error) => {
                self.error = Some(error);
                false
            }
        }
    }

    /// Writes `tail`, flushes and returns the writer, or the first write
    /// error.
    pub(crate) fn finish(mut self, tail: &[u8]) -> io::Result<W> {
        if let Some(error) = self.error {
            return Err(error);
        }
        self.out.write_all(tail)?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Convenience builder for ordered objects.
#[derive(Debug, Clone, Default)]
pub struct JsonObject {
    pairs: Vec<(String, JsonValue)>,
}

impl JsonObject {
    /// An empty object.
    #[must_use]
    pub fn new() -> Self {
        JsonObject::default()
    }

    /// Appends a field (keeps insertion order).
    pub fn field(mut self, key: impl Into<String>, value: JsonValue) -> Self {
        self.pairs.push((key.into(), value));
        self
    }

    /// Finishes the object.
    #[must_use]
    pub fn build(self) -> JsonValue {
        JsonValue::Object(self.pairs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering() {
        let value = JsonObject::new()
            .field("name", JsonValue::str("x\"y\\z"))
            .field("count", JsonValue::UInt(42))
            .field("delta", JsonValue::Int(-3))
            .field("rate", JsonValue::Float(0.5))
            .field("flag", JsonValue::Bool(true))
            .field("none", JsonValue::Null)
            .field(
                "list",
                JsonValue::Array(vec![JsonValue::UInt(1), JsonValue::UInt(2)]),
            )
            .build();
        assert_eq!(
            value.to_string(),
            r#"{"name":"x\"y\\z","count":42,"delta":-3,"rate":0.5,"flag":true,"none":null,"list":[1,2]}"#
        );
    }

    #[test]
    fn pretty_rendering_is_indented() {
        let value = JsonObject::new()
            .field("a", JsonValue::UInt(1))
            .field("b", JsonValue::Array(vec![JsonValue::str("x")]))
            .build();
        assert_eq!(
            value.pretty(),
            "{\n  \"a\": 1,\n  \"b\": [\n    \"x\"\n  ]\n}\n"
        );
    }

    #[test]
    fn control_characters_are_escaped() {
        let mut out = String::new();
        escape_into("a\nb\u{1}", &mut out);
        assert_eq!(out, "\"a\\nb\\u0001\"");
    }

    #[test]
    fn strings_escape_as_json_requires() {
        // Lowercase hex, DEL and non-ASCII passed through, plain strings
        // copied whole; `escape_into` and the byte writer agree.
        let text = "\u{1f}\u{b}\u{7f}é\"\\ok";
        let expected = "\"\\u001f\\u000b\u{7f}é\\\"\\\\ok\"";
        let mut string = String::new();
        escape_into(text, &mut string);
        assert_eq!(string, expected);
        let mut bytes = Vec::new();
        push_str(&mut bytes, text);
        assert_eq!(bytes, expected.as_bytes());
        for (text, expected) in [
            ("plain → text", r#""plain → text""#),
            ("back\\slash", r#""back\\slash""#),
            ("quo\"te", r#""quo\"te""#),
            ("tab\t", r#""tab\t""#),
        ] {
            bytes.clear();
            push_str(&mut bytes, text);
            assert_eq!(bytes, expected.as_bytes());
        }
    }

    #[test]
    fn numbers_render_as_std_formats_them() {
        for n in [0, 9, 10, 99, 100, 101, 1_000_000, u64::MAX - 1, u64::MAX] {
            let mut bytes = b"x".to_vec();
            push_u64(&mut bytes, n);
            assert_eq!(bytes, format!("x{n}").as_bytes());
            assert_eq!(JsonValue::UInt(n).to_string(), n.to_string());
        }
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(JsonValue::Float(f64::NAN).to_string(), "null");
        assert_eq!(JsonValue::Float(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn empty_containers_stay_compact_when_pretty() {
        let value = JsonObject::new()
            .field("a", JsonValue::Array(Vec::new()))
            .field("o", JsonValue::Object(Vec::new()))
            .build();
        assert_eq!(value.pretty(), "{\n  \"a\": [],\n  \"o\": {}\n}\n");
    }
}
