//! Minimal hand-rolled JSON serialization for experiment reports, plus a
//! small reader used to validate emitted documents in-repo.
//!
//! The workspace is dependency-free, so instead of `serde` the report
//! structs implement [`ToJson`] by hand. The surface is deliberately tiny:
//! scalars, strings (with full escaping), sequences, options, and an
//! [`Obj`] builder for struct-like output. Non-finite floats serialize as
//! `null` (JSON has no NaN/Infinity), and finite floats use Rust's
//! shortest round-trippable `Display` form.
//!
//! To serialize a new report struct, implement [`ToJson`] with the
//! builder:
//!
//! ```
//! use copa_obs::json::{Obj, ToJson};
//!
//! struct Point { x: f64, label: String }
//!
//! impl ToJson for Point {
//!     fn write_json(&self, out: &mut String) {
//!         Obj::new(out).field("x", &self.x).field("label", &self.label).finish();
//!     }
//! }
//!
//! assert_eq!(
//!     (Point { x: 1.5, label: "a\"b".into() }).to_json(),
//!     r#"{"x":1.5,"label":"a\"b"}"#
//! );
//! ```
//!
//! The [`parse`] function is the matching reader: it turns a JSON document
//! back into a [`Value`] tree so smoke checks and property tests can
//! validate what the writers emitted without any external tooling.

/// Types that can write themselves as a JSON value.
pub trait ToJson {
    /// Appends this value's JSON representation to `out`.
    fn write_json(&self, out: &mut String);

    /// Convenience: this value as a standalone JSON string.
    fn to_json(&self) -> String {
        let mut s = String::new();
        self.write_json(&mut s);
        s
    }
}

/// Escapes and appends `s` as a JSON string literal (with quotes).
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            out.push_str(&self.to_string());
        } else {
            out.push_str("null");
        }
    }
}

impl ToJson for usize {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.to_string());
    }
}

impl ToJson for u64 {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.to_string());
    }
}

impl ToJson for u32 {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.to_string());
    }
}

impl ToJson for u8 {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.to_string());
    }
}

impl ToJson for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        write_str(out, self);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        self.0.write_json(out);
        out.push(',');
        self.1.write_json(out);
        out.push(']');
    }
}

/// Builder for a JSON object; fields are emitted in call order.
pub struct Obj<'a> {
    out: &'a mut String,
    any: bool,
}

impl<'a> Obj<'a> {
    /// Starts an object (`{`) on `out`.
    pub fn new(out: &'a mut String) -> Self {
        out.push('{');
        Self { out, any: false }
    }

    /// Appends one `"key":value` pair.
    pub fn field(mut self, key: &str, value: &dyn ToJson) -> Self {
        if self.any {
            self.out.push(',');
        }
        self.any = true;
        write_str(self.out, key);
        self.out.push(':');
        value.write_json(self.out);
        self
    }

    /// Closes the object (`}`).
    pub fn finish(self) {
        self.out.push('}');
    }
}

/// A parsed JSON value. Numbers are kept as `f64`, which is exact for the
/// integers the telemetry writers emit below 2^53 and for every power of
/// two (bucket boundaries) up to 2^63.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in document order (duplicate keys preserved).
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (first match); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// This value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// This value as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// This value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses a complete JSON document. Errors carry a byte offset and a short
/// description; trailing non-whitespace is an error.
pub fn parse(s: &str) -> Result<Value, String> {
    let bytes = s.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn lit(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'n') => self.lit("null", Value::Null),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-') | Some(b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(out));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            out.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(out));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            // The source is valid UTF-8 and we only stop on ASCII bytes,
            // so the span boundary is always a char boundary.
            out.push_str(&String::from_utf8_lossy(&self.bytes[start..self.pos]));
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| format!("truncated escape at byte {}", self.pos))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0C}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| format!("truncated \\u at byte {}", self.pos))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| format!("bad \\u digits at byte {}", self.pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u digits at byte {}", self.pos))?;
                            self.pos += 4;
                            // Surrogates are not emitted by our writer;
                            // map unpaired ones to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(format!("unknown escape at byte {}", self.pos - 1)),
                    }
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_digit() || b == b'.' || b == b'e' || b == b'E' || b == b'+' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("bad number at byte {start}"))?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(1.5f64.to_json(), "1.5");
        assert_eq!((-0.25f64).to_json(), "-0.25");
        assert_eq!(f64::NAN.to_json(), "null");
        assert_eq!(f64::INFINITY.to_json(), "null");
        assert_eq!(3usize.to_json(), "3");
        assert_eq!(true.to_json(), "true");
        assert_eq!(Option::<f64>::None.to_json(), "null");
        assert_eq!(Some(2.0f64).to_json(), "2");
    }

    #[test]
    fn string_escaping() {
        assert_eq!("plain".to_json(), r#""plain""#);
        assert_eq!("a\"b\\c".to_json(), r#""a\"b\\c""#);
        assert_eq!("line\nbreak\ttab".to_json(), r#""line\nbreak\ttab""#);
        assert_eq!("\u{01}".to_json(), "\"\\u0001\"");
        assert_eq!("unicode: µ∆".to_json(), "\"unicode: µ∆\"");
    }

    #[test]
    fn sequences_and_tuples() {
        assert_eq!(vec![1.0f64, 2.5].to_json(), "[1,2.5]");
        assert_eq!([1.0f64; 3].to_json(), "[1,1,1]");
        assert_eq!((1.0f64, -2.0f64).to_json(), "[1,-2]");
        assert_eq!(Vec::<f64>::new().to_json(), "[]");
        assert_eq!(vec![Some(1.0f64), None].to_json(), "[1,null]");
    }

    #[test]
    fn object_builder_golden() {
        struct Nested {
            v: Vec<f64>,
        }
        impl ToJson for Nested {
            fn write_json(&self, out: &mut String) {
                Obj::new(out).field("v", &self.v).finish();
            }
        }
        struct Top {
            name: String,
            inner: Nested,
            count: usize,
        }
        impl ToJson for Top {
            fn write_json(&self, out: &mut String) {
                Obj::new(out)
                    .field("name", &self.name)
                    .field("inner", &self.inner)
                    .field("count", &self.count)
                    .finish();
            }
        }
        let t = Top {
            name: "fig \"x\"".into(),
            inner: Nested { v: vec![0.5, 1.0] },
            count: 2,
        };
        assert_eq!(
            t.to_json(),
            r#"{"name":"fig \"x\"","inner":{"v":[0.5,1]},"count":2}"#
        );
    }

    #[test]
    fn empty_object() {
        let mut s = String::new();
        Obj::new(&mut s).finish();
        assert_eq!(s, "{}");
    }

    #[test]
    fn float_formatting_round_trips() {
        for &x in &[0.1f64, 1e-12, 6.02e23, -0.0, 52.333333333333336] {
            let s = x.to_json();
            let back: f64 = s.parse().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{s} should round-trip");
        }
    }

    #[test]
    fn reader_round_trips_writer_output() {
        let doc = r#"{"name":"fig \"x\"","inner":{"v":[0.5,1]},"count":2,"none":null,"ok":true}"#;
        let v = parse(doc).expect("valid doc");
        assert_eq!(v.get("name").and_then(Value::as_str), Some("fig \"x\""));
        assert_eq!(
            v.get("inner")
                .and_then(|i| i.get("v"))
                .and_then(Value::as_arr),
            Some(&[Value::Num(0.5), Value::Num(1.0)][..])
        );
        assert_eq!(v.get("count").and_then(Value::as_u64), Some(2));
        assert_eq!(v.get("none"), Some(&Value::Null));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
    }

    #[test]
    fn reader_rejects_malformed_docs() {
        for bad in [
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{'a':1}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn reader_decodes_escapes() {
        let v = parse(r#""a\nb\t\u0041\\""#).expect("valid string");
        assert_eq!(v.as_str(), Some("a\nb\tA\\"));
    }

    #[test]
    fn powers_of_two_survive_the_f64_reader() {
        for shift in [0u32, 10, 30, 52, 62, 63] {
            let x = 1u64 << shift;
            let v = parse(&x.to_json()).expect("number");
            assert_eq!(v.as_u64(), Some(x), "2^{shift}");
        }
    }
}
