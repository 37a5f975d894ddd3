//! A small JSON value and pretty-printer.
//!
//! Scenario reports are machine-readable JSON (`BENCH_*.json`-style).
//! The workspace carries no serde, so this module provides the write side
//! only: a [`Json`] tree and a deterministic renderer. Object keys keep
//! insertion order, which is what lets the golden-shape test pin the
//! output format.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// An integer (serialized without a decimal point).
    Int(i64),
    /// A float (serialized with enough digits to round-trip).
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object; keys keep insertion order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn object() -> Json {
        Json::Object(Vec::new())
    }

    /// Appends a key/value pair (builder style; meaningful on
    /// [`Json::Object`] only).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    pub fn with(mut self, key: &str, value: Json) -> Json {
        match &mut self {
            Json::Object(pairs) => pairs.push((key.to_string(), value)),
            other => panic!("Json::with on non-object {other:?}"),
        }
        self
    }

    /// Renders with 2-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::Float(x) => {
                if x.is_finite() {
                    // `{}` prints the shortest representation that
                    // round-trips; normalize integral floats to keep a
                    // decimal point so consumers see a stable type.
                    let s = format!("{x}");
                    if s.contains('.') || s.contains('e') {
                        out.push_str(&s);
                    } else {
                        let _ = write!(out, "{s}.0");
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_structures() {
        let doc = Json::object()
            .with("name", Json::Str("x".into()))
            .with("n", Json::Int(3))
            .with("rate", Json::Float(1.5))
            .with("whole", Json::Float(2.0))
            .with("ok", Json::Bool(true))
            .with("none", Json::Null)
            .with("xs", Json::Array(vec![Json::Int(1), Json::Int(2)]))
            .with("empty", Json::Array(vec![]))
            .with("sub", Json::object().with("k", Json::Str("v".into())));
        let text = doc.render();
        assert!(text.contains("\"name\": \"x\""));
        assert!(text.contains("\"whole\": 2.0"), "integral float keeps its point: {text}");
        assert!(text.contains("\"empty\": []"));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn escapes_strings() {
        let text = Json::Str("a\"b\\c\nd\u{1}".into()).render();
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\\u0001\"\n");
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Float(f64::NAN).render(), "null\n");
        assert_eq!(Json::Float(f64::INFINITY).render(), "null\n");
    }
}
