//! Offline stand-in for [serde_json](https://crates.io/crates/serde_json).
//!
//! JSON writer/parser over the tree model of the sibling `serde` shim:
//! [`to_string`] / [`to_string_pretty`] render any `Serialize` type,
//! [`from_str`] parses into any `Deserialize` type (including [`Value`] for
//! dynamic access), [`from_value`] converts a parsed `Value`, and [`json!`]
//! builds `Value` literals. Floats are printed with Rust's shortest-roundtrip
//! formatting, so `f64` values survive a write/read cycle bit-for-bit.

pub use serde::value::Value;
pub use serde::Error;

use serde::{Deserialize, Serialize};

/// The result type of this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.serialize_value(), None, 0)?;
    Ok(out)
}

/// Serializes a value to human-readable, 2-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.serialize_value(), Some(2), 0)?;
    Ok(out)
}

/// Renders a serializable value as a [`Value`] tree.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Value {
    value.serialize_value()
}

/// Parses JSON text into any deserializable type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::msg(format!(
            "trailing characters at offset {}",
            p.pos
        )));
    }
    T::deserialize_value(&v)
}

/// Rebuilds any deserializable type from a parsed [`Value`].
pub fn from_value<T: Deserialize>(value: Value) -> Result<T> {
    T::deserialize_value(&value)
}

/// Builds a [`Value`] from a JSON-shaped literal.
///
/// Supports the forms the workspace uses: objects with string keys, arrays,
/// and arbitrary serializable expressions as values.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($item:expr),* $(,)? ]) => {
        $crate::Value::Seq(::std::vec![ $( $crate::to_value(&$item) ),* ])
    };
    ({ $($key:tt : $val:expr),* $(,)? }) => {
        $crate::Value::Map(::std::vec![
            $( (::std::string::String::from($key), $crate::to_value(&$val)) ),*
        ])
    };
    ($other:expr) => { $crate::to_value(&$other) };
}

// ----------------------------------------------------------------- writer

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, level: usize) -> Result<()> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::U64(u) => out.push_str(&u.to_string()),
        Value::I64(i) => out.push_str(&i.to_string()),
        Value::F64(x) => {
            if !x.is_finite() {
                return Err(Error::msg("JSON cannot represent a non-finite float"));
            }
            // `{:?}` is Rust's shortest representation that round-trips.
            out.push_str(&format!("{x:?}"));
        }
        Value::Str(s) => write_string(out, s),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1)?;
            }
            if !items.is_empty() {
                newline_indent(out, indent, level);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, level + 1);
                write_string(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, val, indent, level + 1)?;
            }
            if !entries.is_empty() {
                newline_indent(out, indent, level);
            }
            out.push('}');
        }
    }
    Ok(())
}

fn newline_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * level));
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

// ----------------------------------------------------------------- parser

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::msg(format!(
                "expected `{}` at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.parse_keyword("null", Value::Null),
            Some(b't') => self.parse_keyword("true", Value::Bool(true)),
            Some(b'f') => self.parse_keyword("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b'[') => self.parse_array(),
            Some(b'{') => self.parse_object(),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            other => Err(Error::msg(format!(
                "unexpected {:?} at offset {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn parse_keyword(&mut self, kw: &str, v: Value) -> Result<Value> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(v)
        } else {
            Err(Error::msg(format!(
                "invalid literal at offset {}",
                self.pos
            )))
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: run of plain bytes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::msg("invalid UTF-8 in string"))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error::msg("truncated \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::msg("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| Error::msg("bad \\u escape"))?;
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::msg("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error::msg(format!("bad escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                _ => return Err(Error::msg("unterminated string")),
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::msg("invalid number"))?;
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Value::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Value::I64(i));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::msg(format!("invalid number `{text}`")))
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(Error::msg(format!("expected `,` or `]` at {}", self.pos))),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.parse_value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => {
                    self.pos += 1;
                }
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => return Err(Error::msg(format!("expected `,` or `}}` at {}", self.pos))),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars_and_containers() {
        let v: Vec<f64> = vec![0.1, -2.5e-3, 3.0, std::f64::consts::PI];
        let s = to_string(&v).unwrap();
        let back: Vec<f64> = from_str(&s).unwrap();
        assert_eq!(v.len(), back.len());
        for (a, b) in v.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits(), "float roundtrip must be exact");
        }
        let t: (Vec<usize>, Vec<f64>) = (vec![1, 2, 3], vec![0.5, -0.25]);
        let s = to_string(&t).unwrap();
        let back: (Vec<usize>, Vec<f64>) = from_str(&s).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn value_access_patterns() {
        let s = r#"[{"label": "a", "levels": 3, "xs": [1.0, 2.0]}]"#;
        let v: Value = from_str(s).unwrap();
        let arr = v.as_array().unwrap();
        assert_eq!(arr[0]["label"].as_str(), Some("a"));
        assert_eq!(arr[0]["levels"].as_u64(), Some(3));
        let xs: Vec<f64> = arr[0]["xs"]
            .as_array()
            .unwrap()
            .iter()
            .map(|x| x.as_f64().unwrap())
            .collect();
        assert_eq!(xs, vec![1.0, 2.0]);
    }

    #[test]
    fn json_macro_builds_objects() {
        let label = String::from("case");
        let v = json!({
            "label": label,
            "n": 4usize,
            "loss": 0.125f64,
            "tags": ["a", "b"],
        });
        assert_eq!(v["label"].as_str(), Some("case"));
        assert_eq!(v["n"].as_u64(), Some(4));
        assert_eq!(v["loss"].as_f64(), Some(0.125));
        assert_eq!(v["tags"].as_array().unwrap().len(), 2);
    }

    #[test]
    fn pretty_output_is_reparseable() {
        let v = json!({"a": [1, 2], "b": json!({"c": "x"})});
        let s = to_string_pretty(&v).unwrap();
        assert!(s.contains('\n'));
        let back: Value = from_str(&s).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn string_escapes_roundtrip() {
        let s = String::from("quote \" backslash \\ newline \n tab \t");
        let json = to_string(&s).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
