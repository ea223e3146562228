//! The one JSON reader behind frost's line-oriented artifacts —
//! `telemetry.jsonl` traces, `BENCH_*.json` records and campaign
//! checkpoints — and the string escaper their writers use: a parser
//! for one flat object per line.
//!
//! "Flat" means every value is a scalar or an array of scalars, so
//! parsing never recurses. Numbers keep their source text, so an
//! integer reads back exactly instead of passing through a double;
//! `u64` values above 2^53 travel as decimal strings, and
//! [`Value::as_u64`] accepts both spellings. Malformed input is an
//! `Err` naming the byte offset, never a panic.
//!
//! ```
//! use frost_telemetry::json;
//!
//! let mut line = String::from("{\"note\":\"");
//! json::escape(&mut line, "say \"hi\"\n");
//! line.push_str("\",\"big\":\"18446744073709551615\",\"xs\":[1,2]}");
//! let obj = json::parse_line(&line).unwrap();
//! assert_eq!(obj.str("note").unwrap(), "say \"hi\"\n");
//! assert_eq!(obj.u64("big").unwrap(), u64::MAX);
//! assert_eq!(obj.array("xs").unwrap().len(), 2);
//! ```

use std::fmt::Write as _;

/// Appends `s` to `out` as the body of a JSON string literal (without
/// the surrounding quotes).
pub fn escape(out: &mut String, s: &str) {
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
}

/// One parsed value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number, as its source text.
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array of scalars.
    Array(Vec<Value>),
}

impl Value {
    /// The value as an exact `u64`: an integer number, or a decimal
    /// string.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(s) | Value::Str(s) => s.parse().ok(),
            _ => None,
        }
    }
}

/// One parsed line: its keys in source order. Lookups see the first
/// occurrence of a key; the typed accessors' errors name the key.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Object(Vec<(String, Value)>);

impl Object {
    /// The value under `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The string under `key`.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        match self.get(key) {
            Some(Value::Str(s)) => Ok(s),
            _ => Err(format!("missing string key '{key}'")),
        }
    }

    /// The exact `u64` under `key` (see [`Value::as_u64`]).
    pub fn u64(&self, key: &str) -> Result<u64, String> {
        self.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("missing unsigned integer key '{key}'"))
    }

    /// The bool under `key`.
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        match self.get(key) {
            Some(Value::Bool(b)) => Ok(*b),
            _ => Err(format!("missing bool key '{key}'")),
        }
    }

    /// The array under `key`.
    pub fn array(&self, key: &str) -> Result<&[Value], String> {
        match self.get(key) {
            Some(Value::Array(a)) => Ok(a),
            _ => Err(format!("missing array key '{key}'")),
        }
    }
}

/// Parses one line holding exactly one flat JSON object (surrounding
/// whitespace allowed).
///
/// # Errors
///
/// Returns what was wrong and at which byte: malformed JSON, a nested
/// object or array, or anything after the closing brace.
pub fn parse_line(line: &str) -> Result<Object, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    let mut fields = Vec::new();
    p.list(b'{', b'}', |p| {
        let key = p.string()?;
        p.expect(b':')?;
        let value = if p.peek() == Some(b'[') {
            let mut items = Vec::new();
            p.list(b'[', b']', |p| {
                items.push(p.scalar()?);
                Ok(())
            })?;
            Value::Array(items)
        } else {
            p.scalar()?
        };
        fields.push((key, value));
        Ok(())
    })?;
    match p.peek() {
        Some(_) => Err(format!("trailing garbage at byte {}", p.pos)),
        None => Ok(Object(fields)),
    }
}

/// Parses every non-blank line of `text` and hands it to `f`.
///
/// # Errors
///
/// The first error — malformed JSON, or one `f` returns — prefixed
/// with its 1-based line number.
pub fn for_each_line(
    text: &str,
    mut f: impl FnMut(Object) -> Result<(), String>,
) -> Result<(), String> {
    for (i, line) in text.lines().enumerate() {
        if !line.trim().is_empty() {
            (parse_line(line).and_then(&mut f)).map_err(|e| format!("line {}: {e}", i + 1))?;
        }
    }
    Ok(())
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    /// The next non-whitespace byte, without consuming it.
    fn peek(&mut self) -> Option<u8> {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(u8::is_ascii_whitespace)
        {
            self.pos += 1;
        }
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() != Some(b) {
            return Err(format!("expected '{}' at byte {}", b as char, self.pos));
        }
        self.pos += 1;
        Ok(())
    }

    /// `open item (',' item)* close`, or `open close`.
    fn list(
        &mut self,
        open: u8,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(open)?;
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            if self.peek() != Some(b',') {
                return self.expect(close);
            }
            self.pos += 1;
        }
    }

    fn scalar(&mut self) -> Result<Value, String> {
        let next = self.peek();
        let start = self.pos;
        let literal = |p: &mut Self, lit: &str, v: Value| {
            if !p.bytes[p.pos..].starts_with(lit.as_bytes()) {
                return Err(format!("expected '{lit}' at byte {}", p.pos));
            }
            p.pos += lit.len();
            Ok(v)
        };
        match next {
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => literal(self, "true", Value::Bool(true)),
            Some(b'f') => literal(self, "false", Value::Bool(false)),
            Some(b'n') => literal(self, "null", Value::Null),
            Some(b'-' | b'0'..=b'9') => {
                let numeric = |b: &u8| b.is_ascii_digit() || b"-+.eE".contains(b);
                while self.bytes.get(self.pos).is_some_and(numeric) {
                    self.pos += 1;
                }
                // Only ASCII bytes were consumed, so the slice is UTF-8.
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or_default();
                match text.parse::<f64>() {
                    Ok(n) if n.is_finite() => Ok(Value::Num(text.to_owned())),
                    _ => Err(format!("bad number '{text}' at byte {start}")),
                }
            }
            _ => Err(format!("expected a scalar value at byte {start}")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let bytes = self.bytes;
        let mut out = String::new();
        // Unescaped bytes are copied a run at a time; runs end only at
        // ASCII bytes, so every run is whole UTF-8.
        let mut run = self.pos;
        loop {
            let b = match bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(&b) if b < 0x20 => {
                    return Err(format!("raw control byte in string at byte {}", self.pos))
                }
                Some(&b) if b != b'"' && b != b'\\' => {
                    self.pos += 1;
                    continue;
                }
                Some(&b) => b,
            };
            out.push_str(std::str::from_utf8(&bytes[run..self.pos]).unwrap_or_default());
            if b == b'"' {
                self.pos += 1;
                return Ok(out);
            }
            let at = self.pos;
            self.pos += 2;
            out.push(match bytes.get(at + 1) {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'/') => '/',
                Some(b'n') => '\n',
                Some(b'r') => '\r',
                Some(b't') => '\t',
                Some(b'b') => '\u{8}',
                Some(b'f') => '\u{c}',
                Some(b'u') => {
                    // Four hex digits; surrogates are refused (frost's
                    // writers only escape control characters this way).
                    self.pos += 4;
                    bytes
                        .get(at + 2..at + 6)
                        .filter(|hex| hex.iter().all(u8::is_ascii_hexdigit))
                        .and_then(|hex| {
                            u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()
                        })
                        .and_then(char::from_u32)
                        .ok_or_else(|| format!("bad \\u escape at byte {at}"))?
                }
                _ => return Err(format!("bad escape at byte {at}")),
            });
            run = self.pos;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaped_strings_and_exact_integers_round_trip() {
        let nasty = "q\"uote \\ back\nline\ttab\r\u{1} é → 🦀";
        let mut line = String::from("{\"s\":\"");
        escape(&mut line, nasty);
        line.push_str("\",\"n\":9007199254740993,\"big\":\"18446744073709551615\",\"f\":1.5}");
        let obj = parse_line(&line).unwrap();
        assert_eq!(obj.str("s").unwrap(), nasty);
        assert_eq!(obj.u64("n").unwrap(), 9_007_199_254_740_993);
        assert_eq!(obj.u64("big").unwrap(), u64::MAX);
        assert!(obj.u64("f").is_err(), "a fraction is not a u64");
        let arrays = parse_line("{\"a\":[1, \"2\", true, null],\"e\":[]}").unwrap();
        assert_eq!(arrays.array("a").unwrap().len(), 4);
        assert!(arrays.array("e").unwrap().is_empty());
    }

    #[test]
    fn malformed_and_nested_lines_are_errors() {
        for bad in [
            "",
            "{",
            "{\"a\"}",
            "{\"a\":1,}",
            "{\"a\":1} x",
            "{\"a\":[[1]]}",
            "{\"a\":{\"b\":1}}",
            "{\"a\":\"\\u12\"}",
            "{\"a\":\"\\u+123\"}",
            "{\"a\":\"\\ud800\"}",
            "{\"a\":\"\\q\"}",
            "{\"a\":\"raw\ttab\"}",
            "{\"a\":1e999}",
            "{\"a\":--}",
            "{\"a\":tru}",
        ] {
            assert!(parse_line(bad).is_err(), "accepted {bad:?}");
        }
    }
}
