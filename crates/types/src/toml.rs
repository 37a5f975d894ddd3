//! A small TOML parser and serializer.
//!
//! The workspace deliberately carries no serde and the build environment
//! has no crates.io access, so scenario files are read by this hand-rolled
//! implementation. It covers the TOML subset the scenario schema uses —
//! which is most of everyday TOML:
//!
//! * `key = value` pairs with bare or dotted keys;
//! * `[table]` and `[table.sub]` headers, `[[array-of-tables]]`;
//! * basic `"strings"` (with `\" \\ \n \t \r \u{...}`-style escapes),
//!   integers (`_` separators, signs), floats, booleans;
//! * arrays (nestable, multi-line) and inline tables `{ a = 1 }`;
//! * `#` comments anywhere outside strings.
//!
//! Not supported: literal `'strings'`, multi-line `"""strings"""`,
//! dates/times. Parsing a file that needs those fails with a clear error
//! rather than silently misreading it.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed TOML value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A basic string.
    Str(String),
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
    /// An array.
    Array(Vec<Value>),
    /// A table (sorted by key; TOML tables are order-insensitive).
    Table(BTreeMap<String, Value>),
}

impl Value {
    /// Borrows the table, if this is one.
    pub fn as_table(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Table(t) => Some(t),
            _ => None,
        }
    }

    /// An empty table.
    pub fn table() -> Value {
        Value::Table(BTreeMap::new())
    }
}

/// A TOML syntax error with 1-based line information.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TomlError {
    /// 1-based line of the offending input.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TOML parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TomlError {}

/// Parses a complete TOML document into its root table.
pub fn parse(input: &str) -> Result<Value, TomlError> {
    Parser { bytes: input.as_bytes(), pos: 0 }.parse_document()
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn parse_document(&mut self) -> Result<Value, TomlError> {
        let mut root = BTreeMap::new();
        // Path of the table currently receiving `key = value` lines; the
        // final component of an array-of-tables path addresses its last
        // element.
        let mut current: Vec<String> = Vec::new();
        loop {
            self.skip_trivia();
            if self.pos >= self.bytes.len() {
                return Ok(Value::Table(root));
            }
            match self.peek() {
                b'[' => {
                    self.pos += 1;
                    let array_of_tables = self.peek_is(b'[');
                    if array_of_tables {
                        self.pos += 1;
                    }
                    self.skip_spaces();
                    let path = self.parse_key_path()?;
                    self.skip_spaces();
                    self.expect(b']')?;
                    if array_of_tables {
                        self.expect(b']')?;
                    }
                    self.expect_line_end()?;
                    self.open_table(&mut root, &path, array_of_tables)?;
                    current = path;
                }
                _ => {
                    let path = self.parse_key_path()?;
                    self.skip_spaces();
                    self.expect(b'=')?;
                    self.skip_spaces();
                    let value = self.parse_value()?;
                    self.expect_line_end()?;
                    let table = self.resolve_mut(&mut root, &current)?;
                    self.insert_at_path(table, &path, value)?;
                }
            }
        }
    }

    /// Creates (or re-enters) the table at `path`, appending a fresh
    /// element when `array_of_tables`.
    fn open_table(
        &mut self,
        root: &mut BTreeMap<String, Value>,
        path: &[String],
        array_of_tables: bool,
    ) -> Result<(), TomlError> {
        let (last, prefix) = path.split_last().expect("header path is never empty");
        let mut table = root;
        for part in prefix {
            table = match table.entry(part.clone()).or_insert_with(Value::table) {
                Value::Table(t) => t,
                Value::Array(items) => match items.last_mut() {
                    Some(Value::Table(t)) => t,
                    _ => return Err(self.err(format!("`{part}` is not a table"))),
                },
                _ => return Err(self.err(format!("`{part}` is not a table"))),
            };
        }
        if array_of_tables {
            match table.entry(last.clone()).or_insert_with(|| Value::Array(Vec::new())) {
                Value::Array(items) => items.push(Value::table()),
                _ => return Err(self.err(format!("`{last}` is not an array of tables"))),
            }
        } else {
            match table.entry(last.clone()).or_insert_with(Value::table) {
                Value::Table(_) => {}
                _ => return Err(self.err(format!("`{last}` redefined as a table"))),
            }
        }
        Ok(())
    }

    /// Borrows the table a header path refers to (last array element for
    /// array-of-tables components).
    fn resolve_mut<'t>(
        &self,
        root: &'t mut BTreeMap<String, Value>,
        path: &[String],
    ) -> Result<&'t mut BTreeMap<String, Value>, TomlError> {
        let mut table = root;
        for part in path {
            table = match table.get_mut(part) {
                Some(Value::Table(t)) => t,
                Some(Value::Array(items)) => match items.last_mut() {
                    Some(Value::Table(t)) => t,
                    _ => return Err(self.err(format!("`{part}` is not a table"))),
                },
                _ => return Err(self.err(format!("`{part}` is not a table"))),
            };
        }
        Ok(table)
    }

    /// Inserts `value` at a (possibly dotted) key path under `table`.
    fn insert_at_path(
        &self,
        table: &mut BTreeMap<String, Value>,
        path: &[String],
        value: Value,
    ) -> Result<(), TomlError> {
        let (last, prefix) = path.split_last().expect("key path is never empty");
        let mut table = table;
        for part in prefix {
            table = match table.entry(part.clone()).or_insert_with(Value::table) {
                Value::Table(t) => t,
                _ => return Err(self.err(format!("`{part}` is not a table"))),
            };
        }
        if table.insert(last.clone(), value).is_some() {
            return Err(self.err(format!("duplicate key `{last}`")));
        }
        Ok(())
    }

    fn parse_key_path(&mut self) -> Result<Vec<String>, TomlError> {
        let mut path = vec![self.parse_key()?];
        loop {
            self.skip_spaces();
            if self.peek_is(b'.') {
                self.pos += 1;
                self.skip_spaces();
                path.push(self.parse_key()?);
            } else {
                return Ok(path);
            }
        }
    }

    fn parse_key(&mut self) -> Result<String, TomlError> {
        if self.peek_is(b'"') {
            return self.parse_string();
        }
        let start = self.pos;
        while self.pos < self.bytes.len()
            && (self.bytes[self.pos].is_ascii_alphanumeric()
                || self.bytes[self.pos] == b'_'
                || self.bytes[self.pos] == b'-')
        {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.err("expected a key".to_string()));
        }
        Ok(String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned())
    }

    fn parse_value(&mut self) -> Result<Value, TomlError> {
        match self.peek() {
            b'"' => Ok(Value::Str(self.parse_string()?)),
            b'[' => self.parse_array(),
            b'{' => self.parse_inline_table(),
            b't' | b'f' => self.parse_bool(),
            b'\'' => Err(self.err("literal strings ('...') are not supported; use \"...\"".into())),
            _ => self.parse_number(),
        }
    }

    fn parse_string(&mut self) -> Result<String, TomlError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            if self.pos >= self.bytes.len() {
                return Err(self.err("unterminated string".to_string()));
            }
            match self.bytes[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.err("unterminated escape".to_string()))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape".to_string()))?;
                            let code = u32::from_str_radix(&String::from_utf8_lossy(hex), 16)
                                .map_err(|_| self.err("bad \\u escape".to_string()))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid \\u code point".into()))?,
                            );
                            self.pos += 4;
                        }
                        other => {
                            return Err(self.err(format!("unknown escape `\\{}`", other as char)))
                        }
                    }
                }
                b'\n' => return Err(self.err("newline in basic string".to_string())),
                _ => {
                    // Consume one UTF-8 scalar.
                    let tail = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(tail)
                        .map_err(|_| self.err("invalid UTF-8".to_string()))?;
                    let ch = s.chars().next().expect("non-empty by bounds check");
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn parse_bool(&mut self) -> Result<Value, TomlError> {
        if self.bytes[self.pos..].starts_with(b"true") {
            self.pos += 4;
            Ok(Value::Bool(true))
        } else if self.bytes[self.pos..].starts_with(b"false") {
            self.pos += 5;
            Ok(Value::Bool(false))
        } else {
            Err(self.err("expected a value".to_string()))
        }
    }

    fn parse_number(&mut self) -> Result<Value, TomlError> {
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b'0'..=b'9' | b'+' | b'-' | b'_' | b'.' | b'e' | b'E')
        {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.err("expected a value".to_string()));
        }
        let raw = String::from_utf8_lossy(&self.bytes[start..self.pos]).replace('_', "");
        if raw.contains('.') || raw.to_ascii_lowercase().contains('e') {
            raw.parse::<f64>().map(Value::Float).map_err(|_| self.err(format!("bad float `{raw}`")))
        } else {
            raw.parse::<i64>().map(Value::Int).map_err(|_| self.err(format!("bad integer `{raw}`")))
        }
    }

    fn parse_array(&mut self) -> Result<Value, TomlError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        loop {
            self.skip_trivia();
            if self.peek_is(b']') {
                self.pos += 1;
                return Ok(Value::Array(items));
            }
            items.push(self.parse_value()?);
            self.skip_trivia();
            if self.peek_is(b',') {
                self.pos += 1;
            } else if !self.peek_is(b']') {
                return Err(self.err("expected `,` or `]` in array".to_string()));
            }
        }
    }

    fn parse_inline_table(&mut self) -> Result<Value, TomlError> {
        self.expect(b'{')?;
        let mut table = BTreeMap::new();
        self.skip_spaces();
        if self.peek_is(b'}') {
            self.pos += 1;
            return Ok(Value::Table(table));
        }
        loop {
            self.skip_spaces();
            let path = self.parse_key_path()?;
            self.skip_spaces();
            self.expect(b'=')?;
            self.skip_spaces();
            let value = self.parse_value()?;
            self.insert_at_path(&mut table, &path, value)?;
            self.skip_spaces();
            if self.peek_is(b',') {
                self.pos += 1;
            } else {
                self.expect(b'}')?;
                return Ok(Value::Table(table));
            }
        }
    }

    // --- lexical helpers -------------------------------------------------

    fn peek(&self) -> u8 {
        self.bytes.get(self.pos).copied().unwrap_or(0)
    }

    fn peek_is(&self, b: u8) -> bool {
        self.bytes.get(self.pos) == Some(&b)
    }

    fn expect(&mut self, b: u8) -> Result<(), TomlError> {
        if self.peek_is(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    /// Consumes trailing spaces, an optional comment, and the newline.
    fn expect_line_end(&mut self) -> Result<(), TomlError> {
        self.skip_spaces();
        if self.peek_is(b'#') {
            while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
                self.pos += 1;
            }
        }
        if self.pos >= self.bytes.len() || self.peek_is(b'\n') || self.peek_is(b'\r') {
            Ok(())
        } else {
            Err(self.err("unexpected trailing characters".to_string()))
        }
    }

    /// Skips spaces, newlines and comments.
    fn skip_trivia(&mut self) {
        loop {
            match self.peek() {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                b'#' => {
                    while self.pos < self.bytes.len() && self.bytes[self.pos] != b'\n' {
                        self.pos += 1;
                    }
                }
                _ => return,
            }
        }
    }

    /// Skips spaces and tabs only (stays on the current line).
    fn skip_spaces(&mut self) {
        while matches!(self.peek(), b' ' | b'\t') {
            self.pos += 1;
        }
    }

    fn err(&self, message: String) -> TomlError {
        let line = 1 + self.bytes[..self.pos.min(self.bytes.len())]
            .iter()
            .filter(|b| **b == b'\n')
            .count();
        TomlError { line, message }
    }
}

/// Serializes a root table back to TOML text.
///
/// Scalars and arrays of scalars come first as `key = value` lines;
/// sub-tables follow as `[dotted.headers]` and arrays of tables as
/// `[[dotted.headers]]`. `parse(serialize(v)) == v` for every value this
/// module can parse.
///
/// # Panics
///
/// Panics if `root` is not a [`Value::Table`].
pub fn serialize(root: &Value) -> String {
    let table = root.as_table().expect("TOML documents are tables at the root");
    let mut out = String::new();
    serialize_table(table, &mut Vec::new(), &mut out);
    out
}

fn is_array_of_tables(value: &Value) -> bool {
    matches!(value, Value::Array(items)
        if !items.is_empty() && items.iter().all(|i| matches!(i, Value::Table(_))))
}

fn serialize_table(table: &BTreeMap<String, Value>, path: &mut Vec<String>, out: &mut String) {
    for (key, value) in table {
        match value {
            Value::Table(_) => {}
            _ if is_array_of_tables(value) => {}
            _ => {
                out.push_str(&format!("{} = {}\n", format_key(key), format_value(value)));
            }
        }
    }
    for (key, value) in table {
        if let Value::Table(sub) = value {
            path.push(key.clone());
            out.push_str(&format!("\n[{}]\n", format_path(path)));
            serialize_table(sub, path, out);
            path.pop();
        } else if let Value::Array(items) = value {
            if is_array_of_tables(value) {
                for item in items {
                    path.push(key.clone());
                    out.push_str(&format!("\n[[{}]]\n", format_path(path)));
                    serialize_table(item.as_table().expect("array-of-tables member"), path, out);
                    path.pop();
                }
            }
        }
    }
}

fn format_path(path: &[String]) -> String {
    path.iter().map(|p| format_key(p)).collect::<Vec<_>>().join(".")
}

fn format_key(key: &str) -> String {
    let bare =
        !key.is_empty() && key.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-');
    if bare {
        key.to_string()
    } else {
        format!("\"{}\"", key.replace('\\', "\\\\").replace('"', "\\\""))
    }
}

fn format_value(value: &Value) -> String {
    match value {
        Value::Str(s) => format!(
            "\"{}\"",
            s.replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n")
                .replace('\t', "\\t")
                .replace('\r', "\\r")
        ),
        Value::Int(i) => i.to_string(),
        Value::Float(x) => {
            let s = format!("{x}");
            if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
                s
            } else {
                format!("{s}.0")
            }
        }
        Value::Bool(b) => b.to_string(),
        Value::Array(items) => {
            let inner: Vec<String> = items.iter().map(format_value).collect();
            format!("[{}]", inner.join(", "))
        }
        Value::Table(t) => {
            let inner: Vec<String> =
                t.iter().map(|(k, v)| format!("{} = {}", format_key(k), format_value(v))).collect();
            format!("{{ {} }}", inner.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_tables_and_arrays() {
        let doc = r#"
# top comment
name = "demo"   # trailing comment
count = 42
rate = 2.5
big = 1_000_000
neg = -7
on = true

[table]
key = "v"

[table.sub]
x = [1, 2, 3]
mixed = [[1], [2, 3]]

[[runs]]
id = 1

[[runs]]
id = 2
inline = { a = 1, b = "two" }
"#;
        let v = parse(doc).unwrap();
        let t = v.as_table().unwrap();
        assert_eq!(t["name"], Value::Str("demo".into()));
        assert_eq!(t["count"], Value::Int(42));
        assert_eq!(t["rate"], Value::Float(2.5));
        assert_eq!(t["big"], Value::Int(1_000_000));
        assert_eq!(t["neg"], Value::Int(-7));
        assert_eq!(t["on"], Value::Bool(true));
        let sub = t["table"].as_table().unwrap()["sub"].as_table().unwrap();
        assert_eq!(sub["x"], Value::Array(vec![Value::Int(1), Value::Int(2), Value::Int(3)]));
        match &t["runs"] {
            Value::Array(items) => {
                assert_eq!(items.len(), 2);
                let second = items[1].as_table().unwrap();
                assert_eq!(second["id"], Value::Int(2));
                assert_eq!(second["inline"].as_table().unwrap()["b"], Value::Str("two".into()));
            }
            other => panic!("runs should be an array, got {other:?}"),
        }
    }

    #[test]
    fn string_escapes() {
        let v = parse(r#"s = "a\"b\\c\ndA""#).unwrap();
        assert_eq!(v.as_table().unwrap()["s"], Value::Str("a\"b\\c\ndA".into()));
    }

    #[test]
    fn multiline_arrays_with_comments() {
        let v = parse("xs = [\n  1, # one\n  2,\n  3\n]\n").unwrap();
        assert_eq!(
            v.as_table().unwrap()["xs"],
            Value::Array(vec![Value::Int(1), Value::Int(2), Value::Int(3)])
        );
    }

    #[test]
    fn rejects_junk_with_line_numbers() {
        let err = parse("good = 1\nbad = @nope\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(parse("dup = 1\ndup = 2\n").unwrap_err().message.contains("duplicate"));
        assert!(parse("s = 'literal'\n").unwrap_err().message.contains("literal"));
        assert!(parse("x = 1 2\n").unwrap_err().message.contains("trailing"));
    }

    #[test]
    fn serialize_round_trips() {
        let doc = r#"
name = "round-trip"
f = 2.0
xs = [1, 2]

[a]
flag = false

[a.b]
s = "nested \"quotes\""

[[v]]
n = 1

[[v]]
n = 2
"#;
        let first = parse(doc).unwrap();
        let text = serialize(&first);
        let second = parse(&text).unwrap();
        assert_eq!(first, second, "serialized form:\n{text}");
        // Float stays a float through the round trip.
        assert_eq!(second.as_table().unwrap()["f"], Value::Float(2.0));
    }

    #[test]
    fn dotted_keys() {
        let v = parse("a.b.c = 3\n").unwrap();
        assert_eq!(
            v.as_table().unwrap()["a"].as_table().unwrap()["b"].as_table().unwrap()["c"],
            Value::Int(3)
        );
    }
}
