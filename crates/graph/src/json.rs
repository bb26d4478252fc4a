//! Minimal JSON reading/writing for snapshot exchange.
//!
//! The build environment has no registry access, so instead of
//! `serde_json` this module carries a small self-contained JSON document
//! model ([`Value`]), a recursive-descent parser ([`Value::parse`]) and a
//! writer ([`Value::to_json`]), plus the codec for [`SignedDigraph`].
//!
//! Numbers are `f64`. The writer emits integral values without a decimal
//! point and everything else through Rust's shortest-round-trip `{:?}`
//! formatting, so `parse(to_json(v)) == v` holds bit-exactly for every
//! finite weight.
//!
//! # Graph schema
//!
//! ```json
//! {"nodes": 4, "edges": [[0, 1, 1, 0.5], [1, 2, -1, 0.25]]}
//! ```
//!
//! Each edge is `[src, dst, sign, weight]` with `sign` being `1` or `-1`.

use crate::{Edge, NodeId, NodeState, Sign, SignedDigraph};
use std::fmt;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always stored as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

/// Error produced when parsing or decoding JSON.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    message: String,
}

impl JsonError {
    /// Creates an error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.message)
    }
}

impl std::error::Error for JsonError {}

impl Value {
    /// Parses a JSON document, requiring it to span the whole input.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on malformed JSON, trailing input after
    /// the document, or arrays and objects nested more than 128 levels
    /// deep.
    pub fn parse(input: &str) -> Result<Value, JsonError> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after document"));
        }
        Ok(value)
    }

    /// Serializes the value as compact JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Number(n) => write_number(*n, out),
            Value::String(s) => write_string(s, out),
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// The number inside, if this is a [`Value::Number`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean inside, if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number inside as a `u64`, if it is integral and in the range
    /// where `f64` represents integers exactly.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&n) {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The number inside as a `usize`, if it is integral and in range.
    pub fn as_usize(&self) -> Option<usize> {
        let n = self.as_f64()?;
        if n.fract() == 0.0 && (0.0..=u32::MAX as f64).contains(&n) {
            Some(n as usize)
        } else {
            None
        }
    }

    /// The string inside, if this is a [`Value::String`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The items inside, if this is a [`Value::Array`].
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Looks up a field, if this is a [`Value::Object`].
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Like [`get`](Value::get) but decoding failures become errors.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when `self` is not an object or the key
    /// is absent.
    pub fn require(&self, key: &str) -> Result<&Value, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError::new(format!("missing field `{key}`")))
    }
}

fn write_number(n: f64, out: &mut String) {
    use fmt::Write;
    if n.fract() == 0.0 && n.abs() < 9_007_199_254_740_992.0 {
        write!(out, "{}", n as i64).expect("writing to String cannot fail");
    } else {
        // `{:?}` is Rust's shortest representation that parses back to
        // the same bits.
        write!(out, "{n:?}").expect("writing to String cannot fail");
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                use fmt::Write;
                write!(out, "\\u{:04x}", u32::from(c)).expect("writing to String cannot fail");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`Value::parse`] accepts. The parser
/// recurses once per level, so without a cap a line of `[`s overflows
/// the stack; real documents nest a handful of levels.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> JsonError {
        JsonError::new(format!("{message} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, JsonError> {
        let rest = self.bytes.get(self.pos..).unwrap_or_default();
        if rest.starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Value, JsonError>,
    ) -> Result<Value, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = self
            .bytes
            .get(start..self.pos)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.err("invalid number bytes"))?;
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| JsonError::new(format!("invalid number `{text}` at byte {start}")))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the whole run up to the next `"` or `\` at once. Both
            // delimiters are ASCII, so the run ends on a char boundary of
            // the (already valid UTF-8) input.
            let rest = self.bytes.get(self.pos..).unwrap_or_default();
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            let text = self
                .text
                .get(self.pos..self.pos + run)
                .ok_or_else(|| self.err("invalid UTF-8"))?;
            out.push_str(text);
            self.pos += run;
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            if b == b'"' {
                return Ok(out);
            }
            // The run stopped at a backslash: decode one escape.
            let Some(esc) = self.peek() else {
                return Err(self.err("unterminated escape"));
            };
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'u' => {
                    let hex = self
                        .bytes
                        .get(self.pos..self.pos + 4)
                        .and_then(|h| std::str::from_utf8(h).ok())
                        .ok_or_else(|| self.err("truncated \\u escape"))?;
                    let code =
                        u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
                    self.pos += 4;
                    out.push(
                        char::from_u32(code).ok_or_else(|| self.err("invalid \\u code point"))?,
                    );
                }
                _ => return Err(self.err("unknown escape")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

impl SignedDigraph {
    /// Encodes the graph as a JSON [`Value`] (see the
    /// [module docs](crate::json) for the schema).
    pub fn to_json_value(&self) -> Value {
        let edges = self
            .edges()
            .map(|e| {
                Value::Array(vec![
                    Value::Number(e.src.0 as f64),
                    Value::Number(e.dst.0 as f64),
                    Value::Number(e.sign.value() as f64),
                    Value::Number(e.weight),
                ])
            })
            .collect();
        Value::Object(vec![
            ("nodes".into(), Value::Number(self.node_count() as f64)),
            ("edges".into(), Value::Array(edges)),
        ])
    }

    /// Decodes a graph from a JSON [`Value`] produced by
    /// [`to_json_value`](SignedDigraph::to_json_value).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] when required fields are missing or
    /// mistyped, or when an edge references a node outside `0..nodes`.
    pub fn from_json_value(value: &Value) -> Result<Self, JsonError> {
        let nodes = value
            .require("nodes")?
            .as_usize()
            .ok_or_else(|| JsonError::new("`nodes` must be a non-negative integer"))?;
        let raw_edges = value
            .require("edges")?
            .as_array()
            .ok_or_else(|| JsonError::new("`edges` must be an array"))?;
        let mut edges = Vec::with_capacity(raw_edges.len());
        for e in raw_edges {
            let parts = e
                .as_array()
                .ok_or_else(|| JsonError::new("each edge must be [src, dst, sign, weight]"))?;
            let [src_v, dst_v, sign_v, weight_v] = parts else {
                return Err(JsonError::new("each edge must be [src, dst, sign, weight]"));
            };
            let src = src_v
                .as_usize()
                .ok_or_else(|| JsonError::new("edge src must be a node id"))?;
            let dst = dst_v
                .as_usize()
                .ok_or_else(|| JsonError::new("edge dst must be a node id"))?;
            let sign = if sign_v.as_f64() == Some(1.0) {
                Sign::Positive
            } else if sign_v.as_f64() == Some(-1.0) {
                Sign::Negative
            } else {
                return Err(JsonError::new("edge sign must be 1 or -1"));
            };
            let weight = weight_v
                .as_f64()
                .ok_or_else(|| JsonError::new("edge weight must be a number"))?;
            edges.push(Edge::new(
                NodeId::from_index(src),
                NodeId::from_index(dst),
                sign,
                weight,
            ));
        }
        SignedDigraph::from_edges(nodes, edges)
            .map_err(|e| JsonError::new(format!("invalid graph: {e}")))
    }

    /// Encodes the graph as a compact JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json_value().to_json()
    }

    /// Decodes a graph from a JSON string.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on malformed JSON or a structurally
    /// invalid graph document (see
    /// [`from_json_value`](SignedDigraph::from_json_value)).
    pub fn from_json_str(input: &str) -> Result<Self, JsonError> {
        Self::from_json_value(&Value::parse(input)?)
    }
}

impl NodeState {
    /// The one-character snapshot encoding: `+`, `-`, `0` or `?`.
    pub fn as_symbol(&self) -> &'static str {
        match self {
            NodeState::Positive => "+",
            NodeState::Negative => "-",
            NodeState::Inactive => "0",
            NodeState::Unknown => "?",
        }
    }

    /// Parses the encoding produced by [`as_symbol`](NodeState::as_symbol).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] for any symbol other than `+`, `-`, `0`
    /// or `?`.
    pub fn from_symbol(symbol: &str) -> Result<Self, JsonError> {
        match symbol {
            "+" => Ok(NodeState::Positive),
            "-" => Ok(NodeState::Negative),
            "0" => Ok(NodeState::Inactive),
            "?" => Ok(NodeState::Unknown),
            other => Err(JsonError::new(format!("unknown node state `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        for text in ["null", "true", "false", "0", "-17", "\"hi \\\"there\\\"\""] {
            let v = Value::parse(text).unwrap();
            assert_eq!(Value::parse(&v.to_json()).unwrap(), v, "{text}");
        }
    }

    #[test]
    fn float_round_trip_is_bit_exact() {
        for x in [0.1, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, -2.5e-8] {
            let v = Value::Number(x);
            let back = Value::parse(&v.to_json()).unwrap();
            assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn nested_document() {
        let text = r#" {"a": [1, 2.5, {"b": null}], "c": "\u0041\n"} "#;
        let v = Value::parse(text).unwrap();
        assert_eq!(v.get("c").unwrap().as_str(), Some("A\n"));
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[1].as_f64(),
            Some(2.5)
        );
        // Round trip through the compact writer.
        assert_eq!(Value::parse(&v.to_json()).unwrap(), v);
    }

    #[test]
    fn parse_rejects_garbage() {
        for text in ["", "{", "[1,]", "{\"a\" 1}", "nul", "1 2", "\"\\q\""] {
            assert!(Value::parse(text).is_err(), "{text:?}");
        }
    }

    #[test]
    fn nesting_is_capped_with_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Value::parse(&nested(MAX_DEPTH)).is_ok());
        let error = Value::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            error.to_string(),
            format!("json error: nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}")
        );
        // Far past the cap (and far past what the stack could recurse
        // through), objects and arrays alike.
        let deep = "[{\"a\":".repeat(100_000);
        assert!(Value::parse(&deep).is_err());
        assert!(Value::parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn scalar_accessors() {
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Number(1.0).as_bool(), None);
        assert_eq!(Value::Number(42.0).as_u64(), Some(42));
        assert_eq!(Value::Number(-1.0).as_u64(), None);
        assert_eq!(Value::Number(0.5).as_u64(), None);
        assert_eq!(Value::String("x".into()).as_u64(), None);
    }

    #[test]
    fn node_state_symbols() {
        for s in [
            NodeState::Positive,
            NodeState::Negative,
            NodeState::Inactive,
            NodeState::Unknown,
        ] {
            assert_eq!(NodeState::from_symbol(s.as_symbol()).unwrap(), s);
        }
        assert!(NodeState::from_symbol("x").is_err());
    }
}
