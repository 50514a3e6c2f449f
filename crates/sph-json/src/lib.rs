//! Minimal hand-rolled JSON: a [`Value`] tree, a deterministic writer and
//! a recursive-descent parser.
//!
//! The workspace is offline (no serde), and two crates used to carry
//! their own copy of this logic: sph-scenarios' validation reports and
//! sph-serve's request/response bodies. This crate is the single shared
//! implementation.
//!
//! Determinism contract: [`Value::render`] is a pure function of the
//! value — object keys keep insertion order (`Obj` is a `Vec`, not a
//! map), numbers use Rust's shortest round-trip `{}` formatting, and
//! non-finite floats map to `null`. Byte-identical values render to
//! byte-identical text, which is what lets sph-serve compare cached and
//! fresh result documents with `==`.

use std::fmt::Write as _;

/// A JSON value. Object fields keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Convenience constructor: an object from `(key, value)` pairs.
    pub fn obj(fields: Vec<(&str, Value)>) -> Value {
        Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Convenience constructor: a string value.
    pub fn str(s: &str) -> Value {
        Value::Str(s.to_string())
    }

    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Numeric field as `u64` (exact non-negative integers only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Look up a field of an object by key (first match).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_obj()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Render to compact JSON text (no whitespace). Deterministic: see
    /// the crate docs.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) => out.push_str(&fmt_f64(*n)),
            Value::Str(s) => out.push_str(&quoted(s)),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&quoted(k));
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// JSON-escape a string, surrounding quotes included.
pub fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Format an `f64` as JSON: shortest round-trip form for finite values
/// (Rust's `{}` on f64), `null` for NaN/±inf, which JSON cannot express.
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Parse a complete JSON document. Errors carry a character offset.
pub fn parse(text: &str) -> Result<Value, String> {
    let chars: Vec<char> = text.chars().collect();
    let mut p = Parser { chars, pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.chars.len() {
        return Err(format!("json: trailing content at char {}", p.pos));
    }
    Ok(v)
}

/// Nesting guard: deeper documents are rejected rather than risking a
/// stack overflow on hostile input (sph-serve parses network bytes).
const MAX_DEPTH: usize = 64;

struct Parser {
    chars: Vec<char>,
    pos: usize,
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(' ' | '\t' | '\n' | '\r')) {
            self.pos += 1;
        }
    }

    fn expect_char(&mut self, c: char) -> Result<(), String> {
        if self.bump() == Some(c) {
            Ok(())
        } else {
            Err(format!("json: expected '{c}' at char {}", self.pos.saturating_sub(1)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        for c in word.chars() {
            self.expect_char(c)?;
        }
        Ok(v)
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some('{') => self.object(),
            Some('[') => self.array(),
            Some('"') => Ok(Value::Str(self.string()?)),
            Some('t') => self.literal("true", Value::Bool(true)),
            Some('f') => self.literal("false", Value::Bool(false)),
            Some('n') => self.literal("null", Value::Null),
            Some(c) if c == '-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("json: unexpected input at char {}", self.pos)),
        }
    }

    fn enter(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(format!("json: nesting deeper than {MAX_DEPTH}"));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect_char('{')?;
        self.enter()?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some('}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_char(':')?;
            let val = self.value()?;
            out.push((key, val));
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some('}') => {
                    self.depth -= 1;
                    return Ok(Value::Obj(out));
                }
                _ => return Err(format!("json: expected ',' or '}}' at char {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect_char('[')?;
        self.enter()?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Value::Arr(out));
        }
        loop {
            out.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(',') => continue,
                Some(']') => {
                    self.depth -= 1;
                    return Ok(Value::Arr(out));
                }
                _ => return Err(format!("json: expected ',' or ']' at char {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_char('"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err("json: unterminated string".to_string()),
                Some('"') => return Ok(out),
                Some('\\') => match self.bump() {
                    Some('"') => out.push('"'),
                    Some('\\') => out.push('\\'),
                    Some('/') => out.push('/'),
                    Some('n') => out.push('\n'),
                    Some('t') => out.push('\t'),
                    Some('r') => out.push('\r'),
                    Some('b') => out.push('\u{8}'),
                    Some('f') => out.push('\u{c}'),
                    Some('u') => {
                        let mut v = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .bump()
                                .and_then(|c| c.to_digit(16))
                                .ok_or("json: bad \\u escape")?;
                            v = v * 16 + d;
                        }
                        // Surrogate pairs degrade to the replacement
                        // char; none of our writers emit them.
                        out.push(char::from_u32(v).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err("json: bad escape".to_string()),
                },
                Some(c) => out.push(c),
            }
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some('-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-'))
        {
            self.pos += 1;
        }
        let text: String = self.chars[start..self.pos].iter().collect();
        text.parse::<f64>().map(Value::Num).map_err(|e| format!("json: bad number: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_parse_roundtrip() {
        let v = Value::obj(vec![
            ("name", Value::str("sedov \"blast\"\n")),
            ("n", Value::Num(42.0)),
            ("pi", Value::Num(3.25)),
            ("nan", Value::Num(f64::NAN)),
            ("ok", Value::Bool(true)),
            ("list", Value::Arr(vec![Value::Null, Value::Num(-1.5e-3)])),
        ]);
        let text = v.render();
        let back = parse(&text).unwrap();
        assert_eq!(back.get("name").unwrap().as_str().unwrap(), "sedov \"blast\"\n");
        assert_eq!(back.get("n").unwrap().as_u64(), Some(42));
        // Non-finite renders as null and stays null.
        assert_eq!(back.get("nan"), Some(&Value::Null));
        assert_eq!(back.render(), parse(&back.render()).unwrap().render());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("[1,2").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("{} x").is_err());
        assert!(parse("01abc").is_err());
    }

    #[test]
    fn depth_guard_fires() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse(&deep).is_err());
        let ok = "[".repeat(50) + &"]".repeat(50);
        assert!(parse(&ok).is_ok());
    }

    #[test]
    fn control_chars_escape() {
        assert_eq!(quoted("a\u{1}b"), "\"a\\u0001b\"");
        assert_eq!(parse("\"a\\u0001b\"").unwrap().as_str(), Some("a\u{1}b"));
    }

    #[test]
    fn fmt_f64_forms() {
        assert_eq!(fmt_f64(1.0), "1");
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        assert_eq!(fmt_f64(-0.25), "-0.25");
    }
}
